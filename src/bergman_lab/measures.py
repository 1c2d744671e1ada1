"""Positive Borel measures on the disc: atoms, densities, weighted area.

A DiscMeasure supports integration of a function, disk masses mu(Delta(z, r)),
the masses of a family of regions, and assembly of the basis Gram matrix
against the measure (the Toeplitz matrix entries).  Atoms are summed exactly;
densities ride on the disc quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .errors import DomainError, EvaluationError
from .geometry import check_disc_point, pseudo_distance
from .kernels import _gram_resolution
from .quadrature import DiscQuadrature, beta_moments, density_rule, monomial_gram
from .weights import (
    Weight,
    _region_masses,
    config_errors,
    disk_masses,
    standard,
    weight_from_config,
)

__all__ = [
    "DiscMeasure",
    "atomic",
    "density",
    "power_density",
    "weighted_area",
    "measure_from_config",
    "basis_gram",
]


@dataclass(frozen=True, eq=False)
class DiscMeasure:
    """Positive measure: atoms, or a density Weight against dA (u itself for u dA)."""

    kind: str
    atoms: tuple = ()  # ((point, mass), ...)
    density: Weight = None  # None for atomic measures
    params: dict = field(default_factory=dict)

    @property
    def is_radial(self):
        """True for c (1 - |z|^2)^t dA: power densities, and u dA for a radial u."""
        return _radial_measure(self)

    @property
    def _resolution(self):
        """Region-rule resolution of the density's masses: 48 for u dA, 32 otherwise."""
        return 48 if self.kind == "weighted_area" else 32

    def atom_points(self):
        """The atoms' points as one complex array, in atom order."""
        return np.array([z for z, _ in self.atoms], dtype=complex)

    def density_at(self, z):
        if self.kind == "atomic":
            raise DomainError("atomic measures have no density")
        return np.asarray(self.density(z), dtype=float)

    def integrate(self, f):
        """int f dmu for f on complex arrays: exact atom sum, or quadrature of f * density."""
        return self.integrate_at(lambda at: f(at.nodes if isinstance(at, DiscQuadrature) else at))

    def integrate_at(self, f):
        """int f dmu, with f given one array of every atom, or the density's polar rule.

        An atomic measure calls f once, on its atoms in atom order, and sums
        mass * value in that order; f gives one value per atom, or one row per
        atom (the t-Berezin numerator: one column per point).  The first atom
        whose value is not finite raises EvaluationError.  Given the rule
        itself, f can evaluate polynomials and kernels at its nodes one FFT
        per ring (kernels.polynomial_values).  Densities are integrated on the
        full disc against _density_rule, quadrature.density_rule at DEFAULTS'
        size, whose weights hold the density (the t-Berezin numerator builds
        it once per profile and takes every point on it);
        Gauss nodes stay interior, so no boundary evaluation occurs and no
        mass is truncated away.  A radial density c (1 - |z|^2)^t is never
        evaluated and polynomial integrands of t-degree below
        2 DEFAULTS.density_radial are exact.
        """
        if self.kind == "atomic":
            values = np.asarray(f(self.atom_points()))
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                raise EvaluationError(f"integrand not finite at atom {self.atoms[bad[0][0]][0]}")
            total = 0.0
            for (_, mz), v in zip(self.atoms, values):
                total += mz * v
            return total
        rule = self._density_rule()
        return rule.weighted_sum(f(rule))

    def _density_rule(self):
        """The polar rule of integrate_at: quadrature.density_rule of the density, built per call."""
        n = DEFAULTS.density_radial
        return density_rule(self.density, n, n, DEFAULTS.density_angular)

    def disk_mass(self, z, r):
        """mu(Delta(z, r)); atoms use strict pseudo-disk membership."""
        return float(self.disk_masses([z], r)[0])

    def disk_masses(self, points, r):
        """mu(Delta(z, r)) for every z; atoms count when d(z, atom) < r strictly.

        A density's masses are weights.disk_masses: one disk per distinct |z|
        for a radial density, centred at the real point |z|.
        """
        if self.kind != "atomic":
            return disk_masses(self.density, r, points, self._resolution)
        z = np.ravel(np.asarray(points, dtype=complex))
        # hypot is Python's abs(complex), which check_disc_point takes
        outside = np.flatnonzero(~(np.hypot(z.real, z.imag) < 1.0))
        if outside.size:
            check_disc_point(z[outside[0]], "center")
        r = float(r)
        if not (0.0 < r < 1.0):
            raise DomainError(f"pseudohyperbolic radius {r} outside (0, 1)")
        inside = pseudo_distance(z[:, None], self.atom_points()[None, :]) < r
        # left to right over the atoms, as sum() adds them
        total = np.zeros(z.size)
        for (_, mz), hit in zip(self.atoms, inside.T):
            total += np.where(hit, mz, 0.0)
        return total

    def region_masses(self, region_of, points):
        """mu(region_of(z)) for every z in points, region_of(z) a PseudoDisk or a CarlesonSet.

        Atoms count by the region's contains, in atom order; a density's
        masses are weights._region_masses at _resolution.
        """
        if self.kind != "atomic":
            return _region_masses(self.density, region_of, points, self._resolution)
        regions = [region_of(complex(z)) for z in np.ravel(points)]
        return np.array([float(sum(mz for a, mz in self.atoms if e.contains(a))) for e in regions])

    def total_mass(self):
        if self.kind == "atomic":
            return float(sum(mz for _, mz in self.atoms))
        return self.integrate(lambda z: np.ones(np.shape(z)))

    def config(self):
        if self.kind == "atomic":
            return {
                "kind": "atomic",
                "atoms": [[z.real, z.imag, m] for z, m in self.atoms],
            }
        return {"kind": self.kind, **self.params}


def atomic(atoms):
    """Atomic measure from (point, mass) pairs; atoms must sit in the open disc."""
    cleaned = []
    for z, mz in atoms:
        z = check_disc_point(z, "atom")
        if mz <= 0:
            raise DomainError("atom masses must be positive")
        cleaned.append((z, float(mz)))
    return DiscMeasure("atomic", atoms=tuple(cleaned))


def density(g, params=None):
    """Measure g dA for a positive continuous density g, never taken as radial."""
    return DiscMeasure("density", density=Weight("density", {}, g, None), params=params or {})


def power_density(t):
    """Measure (1 - |z|^2)^t dA; finite on the disc for t > -1, DomainError otherwise."""
    t = float(t)
    if not t > -1.0:
        raise DomainError(f"power density needs t > -1 for finite mass, got {t}")
    return DiscMeasure("power_density", density=standard(t), params={"t": t})


def weighted_area(u: Weight):
    """The canonical measure u dA."""
    return DiscMeasure("weighted_area", density=u, params={"weight": u.config()})


# the fields each measure kind reads from its config, besides "kind"
_MEASURE_FIELDS = {
    "atomic": {"atoms"},
    "power_density": {"t"},
    "weighted_area": {"weight"},
    "density_grid": {"file", "n"},
}


def measure_from_config(cfg, u: Weight = None):
    """Build a measure from its JSON config dict; DomainError if it is malformed."""
    with config_errors("measure", cfg, _MEASURE_FIELDS):
        kind = cfg.get("kind")
        if kind == "atomic":
            return atomic([(complex(re, im), m) for re, im, m in cfg["atoms"]])
        if kind == "power_density":
            return power_density(cfg["t"])
        if kind == "weighted_area":
            w = weight_from_config(cfg["weight"]) if "weight" in cfg else u
            if w is None:
                raise DomainError("weighted_area config needs a weight")
            return weighted_area(w)
        if kind == "density_grid":
            gw = weight_from_config({"kind": "grid", "file": cfg["file"], "n": cfg["n"]})
            return DiscMeasure("density_grid", density=gw, params=dict(gw.params))
    raise DomainError(f"unknown measure kind {kind!r}")


def basis_gram(m, mu: DiscMeasure):
    """M[j, k] = int e_k conj(e_j) dmu (the Toeplitz entries), or their diagonal.

    A radial model with mu = c (1 - |z|^2)^t dA gets the real 1-D diagonal
    M_nn = pi c B(n + 1, t + 1) / G_nn (1.0 exactly for u dA); other pairs get
    the dense complex matrix (densities through monomial_gram).  Atoms are
    exact: one basis_matrix call takes every atom, and the rank-one terms
    mass * conj(e) e^T are added in atom order.
    """
    n = m.degree + 1
    if mu.kind == "atomic":
        M = np.zeros((n, n), dtype=complex)
        for (_, mz), e in zip(mu.atoms, m.basis_matrix(mu.atom_points()).T):
            M += mz * np.outer(np.conj(e), e)
        return M
    if m.is_radial and mu.is_radial:
        c, t = mu.density.power
        return c * beta_moments(t, m.degree) / m.diag_norms
    # M = conj(C) G^T C^T for e = C z^j and the monomial Gram G against mu
    gram = monomial_gram(mu.density_at, m.degree, *_gram_resolution(m.degree), 1.0)
    if m.is_radial:
        return m.diagonal_congruence(gram.T)
    return np.conj(m.coeffs) @ gram.T @ m.coeffs.T


def _radial_measure(mu):
    return mu.density is not None and mu.density.is_radial

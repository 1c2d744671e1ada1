"""Berezin transforms and pseudohyperbolic averaging functions.

Three object-level transforms of a measure mu:

  * berezin(z)          = int |k_z|^2 dmu,          k_z the 2-normalized kernel
  * t_berezin(z; t)     = int |K(., z)|^t dmu / ||K_z||_{A^t(u)}^t
  * average_function(z) = mu(Delta(z, r)) / u(Delta(z, r))

For t = 2 the normalization ||K_z||_2^2 is the diagonal K(z, z) (reproducing
identity), which makes berezin and t_berezin(t=2) the same computation.
Profiles over point sets assemble the basis Gram matrix against mu once and
evaluate quadratic forms, which is algebraically identical to the direct
integral on the same quadrature nodes.  An atomic mu is a sum over its A
atoms instead: sum_a m_a |K_N(a, z)|^t, one row of kernel values per atom,
taken from the basis at the atoms and at the points (A (N+1) work per point,
not (N+1)^2), for t = 2 as for every other t.  For t != 2 a density's
profile takes two calls of kernels._kernel_powers, one sum of |K(., z)|^t
over every point: the numerator on mu's density rule, built once per
profile, and the normalisation on the model's norm rule.  A radial model
takes each on a radial rule once per distinct |z|, so the value at z is the
value at the real point |z|; where a rule has not converged this differs
from the node sum at z itself in the digits the rule does not resolve.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULTS
from .errors import DomainError
from .kernels import _BASIS_CHUNK, KernelModel, _kernel_powers, _radial_forms
from .measures import DiscMeasure, basis_gram
from .quadrature import DiscQuadrature, disc_rule
from .reports import CriterionReport, band
from .weights import Weight, disk_masses

__all__ = [
    "berezin",
    "berezin_profile",
    "t_berezin",
    "t_berezin_profile",
    "average_function",
    "average_profile",
    "profile_lp_norm",
    "comparability_report",
]


def berezin_profile(mu: DiscMeasure, m: KernelModel, points):
    """Berezin transform e(z)^T M conj(e(z)) / K(z, z) for M = basis_gram(m, mu).

    points is an array, or a centered polar rule (one FFT per ring at its nodes).
    An atomic mu at an array of points takes sum_a m_a |K_N(z, a)|^2 over its
    atoms (_atomic_kernel_powers) and builds no Gram matrix.  A radial pair
    (a diagonal M) at an array of points takes the numerator and K(z, z) in
    one Horner pass per distinct |z|^2 (kernels._radial_forms).
    """
    if isinstance(points, DiscQuadrature):
        return m.quadratic_form(basis_gram(m, mu), points) / m.kernel_diag(points)
    points = np.asarray(points, dtype=complex)
    if mu.kind == "atomic":
        return _atomic_kernel_powers(mu, m, points, 2) / m.kernel_diag(points)
    M = basis_gram(m, mu)
    if M.ndim == 1:
        num, diag = _radial_forms(m, [M, np.ones(m.degree + 1)], points)
        return num / diag
    return m.quadratic_form(M, points) / m.kernel_diag(points)


def berezin(mu: DiscMeasure, m: KernelModel, z):
    """mu~(z) = int |k_z|^2 dmu = <T_mu k_z, k_z>."""
    return float(berezin_profile(mu, m, np.array([complex(z)]))[0])


def _atomic_kernel_powers(mu: DiscMeasure, m: KernelModel, points, t):
    """sum_a m_a |K_N(a, z)|^t over the atoms of mu, at every point z.

    mu.integrate_at takes one row per atom and one column per point and sums
    them in atom order; the first atom with a value that is not finite
    raises EvaluationError.  The basis at the points goes in blocks of
    _BASIS_CHUNK points, which bounds its memory.
    """
    points = np.ravel(points)

    def rows(atoms):
        ea = m.basis_matrix(atoms).T
        out = np.empty((atoms.size, points.size))
        for i in range(0, points.size, _BASIS_CHUNK):
            out[:, i : i + _BASIS_CHUNK] = (
                np.abs(ea @ np.conj(m.basis_matrix(points[i : i + _BASIS_CHUNK]))) ** t
            )
        return out

    return mu.integrate_at(rows)


def t_berezin_profile(mu: DiscMeasure, m: KernelModel, t, points):
    """t-Berezin transform over the points; t = 2 reduces to berezin_profile.

    The numerator over ||K_z||_t^t, each one _kernel_powers call for every
    point (see the module docstring); atoms are summed exactly, in atom
    order, over K_N(a, z) from the basis at the atoms and at the points.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"t-Berezin exponent must be positive and finite, got {t}")
    if t == 2:
        return berezin_profile(mu, m, points)
    points = np.ravel(np.asarray(points, dtype=complex))
    if mu.kind == "atomic":
        num = _atomic_kernel_powers(mu, m, points, t)
    else:
        num = _kernel_powers(m, mu._density_rule(), points, t)
    return num / _kernel_powers(m, m.norm_rule(), points, t)


def t_berezin(mu: DiscMeasure, m: KernelModel, t, z):
    return float(t_berezin_profile(mu, m, t, np.array([complex(z)]))[0])


def average_function(mu: DiscMeasure, u: Weight, r, z):
    """mu^_r(z) = mu(Delta(z, r)) / u(Delta(z, r))."""
    return float(average_profile(mu, u, r, [z])[0])


def average_profile(mu: DiscMeasure, u: Weight, r, points):
    """The averaging function mu^_r at every point, on batched disk masses.

    Radial mu and u take one disk per distinct |z| (weights.on_moduli), so a
    polar rule costs one disk per ring modulus, not one per node.
    """
    if not (0.0 < r < 1.0):
        raise DomainError("averaging radius must lie in (0, 1)")
    return mu.disk_masses(points, r) / disk_masses(u, r, points, 32)


# the polar rule of profile_lp_norm: Gauss shells in radius, angles per shell
_LP_RADIAL = 48
_LP_ANGULAR = 96


def profile_lp_norm(mu: DiscMeasure, u: Weight, r, exponent, reference="u_dA", r_max=None):
    """L^exponent norm of the averaging function against u dA (or plain dA).

    Returns (norm, shell_radii, partials): partials[j] is the norm computed
    with the radial truncation at the j-th of _LP_RADIAL Gauss shells, so
    growth of the partials exposes divergence of the defining integral.
    Radial mu and u take the averaging function once per shell, at the real
    point rho, and repeat it around the shell.
    """
    rule = disc_rule(_LP_RADIAL, _LP_ANGULAR, r_max if r_max is not None else DEFAULTS.r_max)
    if mu.is_radial and u.is_radial:
        shells = average_profile(mu, u, r, rule.rings[0].astype(complex)) ** exponent
        vals = np.repeat(shells, _LP_ANGULAR)
    else:
        vals = average_profile(mu, u, r, rule.nodes) ** exponent
    ref = np.asarray(u(rule.nodes), dtype=float) if reference == "u_dA" else 1.0
    contrib = (rule.weights * ref * vals).reshape(_LP_RADIAL, _LP_ANGULAR).sum(axis=1)
    radii = rule.rings[0]
    partials = np.cumsum(contrib) ** (1.0 / exponent)
    return float(partials[-1]), radii, partials


def _grid_points(grid):
    """The points of a Lattice (attribute), a BoundaryLadder (method) or an array."""
    pts = getattr(grid, "points", grid)
    if callable(pts):
        pts = pts()
    return np.asarray(pts, dtype=complex)


def comparability_report(mu: DiscMeasure, m: KernelModel, t, r, grid) -> CriterionReport:
    """Compare the t-Berezin transform against the averaging function (u = m.weight).

    Reports the one-sided forms that actually hold pointwise:
      (a) lower band: min over the grid of mu~_t(z) / mu^_r(z);
      (b) sup check:  max mu~_t <= C * sup mu^_r (C reported, not asserted);
      (c) discrete L^2 norms of both profiles over the grid, with their ratio.
    """
    points = _grid_points(grid)
    tb = t_berezin_profile(mu, m, t, points)
    av = average_profile(mu, m.weight, r, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(av > 0, tb / np.where(av > 0, av, 1.0), np.inf)
    finite = ratios[np.isfinite(ratios) & (av > 0)]
    lower = float(np.min(finite)) if finite.size else float("nan")
    upper = float(np.max(tb) / np.max(av)) if np.max(av) > 0 else float("nan")
    lp_tb = float(np.mean(tb**2.0) ** 0.5)
    lp_av = float(np.mean(av**2.0) ** 0.5)
    return CriterionReport(
        name="berezin_vs_average",
        parameters={"t": t, "r": r},
        index_value=upper,
        per_point=list(zip(points, ratios)),
        ring_trend=[],
        verdict="finite" if np.isfinite(lower) and lower > 0 else "inconclusive",
        extras={
            "lower_band": lower,
            "sup_ratio": upper,
            "lp_berezin": lp_tb,
            "lp_average": lp_av,
            "lp_ratio": lp_tb / lp_av if lp_av > 0 else float("inf"),
            "berezin_band": band(tb),
            "average_band": band(av),
        },
    )

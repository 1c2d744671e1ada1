"""Weights on the disc and their Bekolle-Bonami / C_p constants.

A Weight is an evaluable positive function on the unit disc.  Four families
are provided:

  * constant()                u == c                           (power (c, 0))
  * standard(alpha)           u(z) = (1 - |z|^2)^alpha, alpha > -1  (power (1, alpha))
  * power_one_minus_z(gamma)  u(z) = |1 - z|^gamma   (non-radial probe family)
  * grid(...)                 bilinear interpolation of tabulated samples

The B_p constant takes joint averages over Carleson sets S(a); the C_p
constant takes the same averages over pseudohyperbolic disks Delta(z, r).
Suprema over the disc are replaced by maxima over a supplied anchor set plus
a boundary ladder, whose per-ring maxima expose divergence as a trend; both
constants return a CriterionReport, like every other checker.

A radial weight, one with a Weight.power, integrated over Delta(z, r) or S(z)
gives a number of |z| alone: both regions turn with their centre.  Such quantities are taken once
per distinct modulus, at the real point |z| (on_moduli).  Any other weight
still shares the rule of S(z): S(z) = (z / |z|) S(|z|), so the B_p constant
builds the accepted rule of S(rho) once per distinct modulus rho (per ring
of a ladder) and turns its nodes to each point.  Pseudo-disks take one rule
each.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .geometry import BoundaryLadder, CarlesonSet, PseudoDisk, pseudo_disk
from .quadrature import DiscQuadrature, disk_integrals, region_quadrature
from .reports import CriterionReport, classify_ring_trend

__all__ = [
    "Weight",
    "constant",
    "standard",
    "power_one_minus_z",
    "grid_weight",
    "weight_from_config",
    "mass",
    "disk_masses",
    "on_moduli",
    "bekolle_constant",
    "cp_constant",
]

_GRID_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Weight:
    """Positive weight u on the disc; call it on complex arrays.

    power is (c, a) when u = c (1 - |z|^2)^a (constant, standard), else None.
    """

    kind: str
    params: dict
    fn: object
    power: tuple | None

    def __call__(self, z):
        return self.fn(np.asarray(z))

    @property
    def is_radial(self):
        return self.power is not None

    def config(self):
        return {"kind": self.kind, **self.params}


def constant(value=1.0):
    v = float(value)
    if not 0.0 < v < math.inf:
        raise DomainError(f"constant weight must be positive and finite, got {v}")
    return Weight("constant", {"value": v}, lambda z: np.full(np.shape(z), v), (v, 0.0))


def standard(alpha):
    """u(z) = (1 - |z|^2)^alpha; integrable on the disc for alpha > -1."""
    a = float(alpha)
    if not -1.0 < a < math.inf:
        raise DomainError(f"standard weight needs a finite alpha > -1, got {a}")
    return Weight(
        "standard", {"alpha": a}, lambda z: (1.0 - np.abs(z) ** 2) ** a, (1.0, a)
    )


def power_one_minus_z(gamma):
    """u(z) = |1 - z|^gamma, a non-radial weight pinched (or spiked) at z = 1."""
    g = float(gamma)
    return Weight(
        "power_one_minus_z", {"gamma": g}, lambda z: np.abs(1.0 - np.asarray(z)) ** g, None
    )


def grid_weight(samples, n, file=None):
    """Bilinear interpolation of an n x n sample grid on [-1, 1]^2.

    samples: array of shape (n, n) of positive values indexed [iy, ix];
    values are clamped below at 1e-12 to preserve positivity.  A point takes
    the cell [axis[i], axis[i + 1]) that holds it; outside the grid the edge
    cell's bilinear form extrapolates linearly.  file names the CSV the
    samples were read from (weight_from_config); it is kept in the config,
    which then loads back.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (n, n):
        raise DomainError(f"grid weight expects shape ({n}, {n})")
    if n == 1:  # one sample is the constant weight: a 2 x 2 grid of it
        samples = np.full((2, 2), samples[0, 0])
    axis = np.linspace(-1.0, 1.0, samples.shape[0])

    def cell(x):
        i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, axis.size - 2)
        return i, (x - axis[i]) / (axis[i + 1] - axis[i])

    def fn(z):
        z = np.asarray(z)
        iy, ty = cell(np.imag(z))
        ix, tx = cell(np.real(z))
        vals = (
            (1.0 - ty) * ((1.0 - tx) * samples[iy, ix] + tx * samples[iy, ix + 1])
            + ty * ((1.0 - tx) * samples[iy + 1, ix] + tx * samples[iy + 1, ix + 1])
        )
        return np.maximum(vals, _GRID_FLOOR)

    params = {"n": int(n)} if file is None else {"file": file, "n": int(n)}
    return Weight("grid", params, fn, None)


# the fields each weight kind reads from its config, besides "kind"
_WEIGHT_FIELDS = {
    "constant": {"value"},
    "standard": {"alpha"},
    "power_one_minus_z": {"gamma"},
    "grid": {"file", "n"},
}


@contextmanager
def config_errors(what, cfg, kind_fields):
    """Turn a config that is no JSON object, names a field its kind does not
    read (kind_fields: kind -> field names), or misses or mistypes a field,
    into DomainError."""
    if not isinstance(cfg, dict):
        raise DomainError(f"{what} config must be a JSON object, got {cfg!r}")
    try:
        # an unhashable kind raises TypeError here; an unknown one is the caller's to name
        known = kind_fields.get(cfg.get("kind"), set(cfg))
        unknown = [key for key in cfg if key != "kind" and key not in known]
        if unknown:
            raise DomainError(f"{what} kind {cfg['kind']!r} takes no field {unknown} in {cfg!r}")
        yield
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise DomainError(f"malformed {what} config {cfg!r}: {type(exc).__name__}: {exc}") from exc


def weight_from_config(cfg):
    """Build a weight from its JSON config dict; DomainError if it is malformed."""
    with config_errors("weight", cfg, _WEIGHT_FIELDS):
        kind = cfg.get("kind")
        if kind == "constant":
            return constant(cfg.get("value", 1.0))
        if kind == "standard":
            return standard(cfg["alpha"])
        if kind == "power_one_minus_z":
            return power_one_minus_z(cfg["gamma"])
        if kind == "grid":
            samples = np.loadtxt(cfg["file"], delimiter=",", usecols=2)
            n = int(cfg["n"])
            return grid_weight(samples.reshape(n, n), n, file=cfg["file"])
    raise DomainError(f"unknown weight kind {kind!r}")


def mass(u: Weight, region, resolution=48):
    """u(E) over a PseudoDisk (one case of disk_masses) or a CarlesonSet; else DomainError."""
    if isinstance(region, PseudoDisk):
        return float(disk_masses(u, region.radius, [region.center], resolution)[0])
    return region_quadrature(region, resolution).integrate(u)


def on_moduli(f, points):
    """f(points) for an f whose value at z depends on |z| alone.

    f takes an array of points and returns one value per point; it is called
    once, on the distinct moduli of the points (equal as floats) as real
    points, and its values are scattered back in the order of the points.
    """
    z = np.ravel(points)
    # hypot is Python's abs(complex), which pseudo_disk takes; np.abs can differ in the last bit
    moduli, inverse = np.unique(np.hypot(np.real(z), np.imag(z)), return_inverse=True)
    return np.asarray(f(moduli.astype(complex)))[inverse]


def disk_masses(u: Weight, r, points, resolution):
    """u(Delta(z, r)) for every z in points, with Euclidean forms from pseudo_disk.

    A radial u takes its masses from _radial_disk_masses, once per process
    for each set of distinct |z|, on the disks centred at the real points
    |z|; other weights take one disk per point.
    """
    if u.is_radial:
        return on_moduli(
            lambda moduli: _radial_disk_masses(u.power, float(r), moduli.real.tobytes(), resolution), points
        )
    return disk_integrals(u, [pseudo_disk(z, r) for z in np.ravel(points)], resolution)


@lru_cache(maxsize=64)
def _radial_disk_masses(power, r, moduli, resolution):
    """Read-only masses of u = c (1 - |z|^2)^a, (c, a) = power, over
    Delta(rho, r) at each distinct modulus rho, each disk centred at the
    real point rho: the closed form c pi R^2 for a = 0, else the integral
    of u, so constant(c) and standard(a) (c = 1) of one power agree bit for
    bit.

    moduli is the bytes of the float64 array of moduli: a key of Python
    floats would keep one small object per modulus alive, scattered over
    the interpreter's arenas.  One cache entry holds the masses at one set
    of distinct moduli.
    """
    c, a = power
    disks = [pseudo_disk(complex(rho), r) for rho in np.frombuffer(moduli)]
    if a == 0.0:
        masses = np.array([c * np.pi * float(d.euclid_radius) ** 2 for d in disks])
    else:
        masses = disk_integrals(lambda z: c * (1.0 - np.abs(z) ** 2) ** a, disks, resolution)
    masses.flags.writeable = False
    return masses


def _joint_average(u, p, region, resolution):
    """<u>_E * (<u^{-p'/p}>_E)^(p-1) over one region E, on its region_quadrature."""
    return _rule_average(u, p, region_quadrature(region, resolution))


def _rule_average(u, p, rule):
    """The joint average of _joint_average on a given rule; u is evaluated once per node."""
    values = np.asarray(u(rule.nodes), dtype=float)
    area = rule.area
    m1 = rule.weighted_sum(values)
    m2 = rule.weighted_sum(values ** (-1.0 / (p - 1.0)))  # -p'/p
    if not np.isfinite(m2) or m2 <= 0:
        return math.inf
    return (m1 / area) * (m2 / area) ** (p - 1.0)


def _joint_averages(u, p, region_of, points, resolution):
    """Joint averages over region_of(a) for every a; a radial u takes one per distinct |a|."""

    def at(pts):
        return np.array([_joint_average(u, p, region_of(a), resolution) for a in pts])

    return (on_moduli(at, points) if u.is_radial else at(points)).tolist()


def _carleson_averages(u, p, points, moduli, resolution):
    """Joint averages over S(a) for every a in points, with |a| given by moduli.

    A radial u is _joint_averages.  Otherwise S(a) = (a / |a|) S(|a|), since
    phi_a(e^(i phi) w) = e^(i phi) phi_|a|(w): the accepted rule of S(rho) is
    built once per distinct rho in moduli, and each anchor of that modulus
    turns its nodes by a / |a| and keeps its weights and area.
    """
    if u.is_radial:
        return _joint_averages(u, p, CarlesonSet, points, resolution)
    points = np.asarray(points, dtype=complex)
    keys, inverse = np.unique(np.asarray(moduli, dtype=float), return_inverse=True)
    out = np.empty(points.size)
    for k, rho in enumerate(keys):
        base = region_quadrature(CarlesonSet(complex(rho)), resolution)
        for i in np.flatnonzero(inverse == k):
            a = complex(points[i])
            turn = a / abs(a) if a else 1.0
            rule = DiscQuadrature(base.nodes * turn, base.weights, CarlesonSet(a), base.resolution)
            out[i] = _rule_average(u, p, rule)
    return out.tolist()


def _constant_report(name, parameters, averages, anchors, ladder):
    """The joint averages at the anchors and the ladder points.

    averages(points, moduli) gives one joint average per point, moduli[k]
    its modulus: |a| for an anchor a, the ring radius for a ladder point.
    index_value is their max, per_point holds (point, value) and ring_trend
    the ladder's ring maxima, whose classify_ring_trend is the verdict
    (inconclusive without a ladder).
    """
    if parameters["p"] <= 1:
        raise DomainError("joint-average constants need p > 1")
    anchors = list(anchors or [])
    on_ladder = ladder is not None and bool(ladder.radii)
    if not anchors and not on_ladder:
        raise DomainError("no anchors supplied")
    moduli = [abs(complex(a)) for a in anchors]
    per_point = list(zip(anchors, averages(anchors, moduli)))
    ring_trend = []
    if on_ladder:
        pts = ladder.points()
        vals = averages(pts, np.repeat(ladder.radii, ladder.samples_per_ring))
        ring_trend = list(zip(ladder.radii, ladder.ring_max(vals)))
        per_point.extend(zip(pts, vals))
    return CriterionReport(
        name=name,
        parameters=parameters,
        index_value=max(v for _, v in per_point),
        per_point=per_point,
        ring_trend=ring_trend,
        verdict=classify_ring_trend([v for _, v in ring_trend]),
    )


def bekolle_constant(u, p, anchors=None, ladder: BoundaryLadder = None, resolution=48):
    """Estimate [u]_{B_p}: max over anchors a of the S(a) joint average.

    A non-integrable u^{-p'/p} shows up as +inf for that anchor (not an error).
    S(a) turns with a, so a radial u takes one Carleson rule per distinct |a|
    (at the real anchor |a|) for the anchors and the ladder points alike,
    and any other u one rule per distinct |a| of an anchor and per ladder
    ring, turned to each point (_carleson_averages).
    """
    return _constant_report(
        "bekolle_constant", {"p": p},
        lambda points, moduli: _carleson_averages(u, p, points, moduli, resolution), anchors, ladder,
    )


def cp_constant(u, p, r, centers=None, ladder: BoundaryLadder = None, resolution=32):
    """Estimate [u]_{C_p}: same joint average over pseudo disks Delta(z, r), per |z| for a radial u.

    Each disk takes its own rule: a turned disk rule would be another node set.
    """
    if not (0.0 < r < 1.0):
        raise DomainError("C_p disk radius must lie in (0, 1)")
    return _constant_report(
        "cp_constant", {"p": p, "r": r},
        lambda points, _: _joint_averages(u, p, lambda a: pseudo_disk(complex(a), r), points, resolution),
        centers, ladder,
    )

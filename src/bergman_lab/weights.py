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

Both constants and every region mass integrate a family of regions on the
blocks of quadrature.region_integrals.  A radial weight, one with a
Weight.power, integrated over Delta(z, r) or S(z) gives a number of |z| alone:
both regions turn with their centre.  Such quantities are taken once per
distinct modulus, at the real point |z| (on_moduli); other weights take one
region per point.  The masses of a radial weight over pseudo-disks and over
Carleson sets are kept, read-only, once per process (_radial_masses).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .geometry import BoundaryLadder, CarlesonSet, PseudoDisk, pseudo_disk
from .quadrature import _finite_values, _region_blocks, region_integrals
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
    return float(region_integrals(u, [region], resolution)[0])


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

    A radial u takes its masses from _radial_masses, once per process for
    each set of distinct |z|, on the disks centred at the real points |z|;
    other weights take one disk per point (_region_masses).
    """
    if u.is_radial:
        return _radial_region_masses(u, float(r), points, resolution)
    return _region_masses(u, lambda z: pseudo_disk(z, r), points, resolution)


def _region_masses(u: Weight, region_of, points, resolution):
    """u(region_of(z)) for every z in points; a radial u takes one region per distinct |z|.

    The Carleson masses of a radial u (region_of CarlesonSet) come from
    _radial_masses.
    """
    if u.is_radial and region_of is CarlesonSet:
        return _radial_region_masses(u, None, points, resolution)

    def at(pts):
        return region_integrals(u, [region_of(complex(z)) for z in pts], resolution)

    return on_moduli(at, points) if u.is_radial else at(np.ravel(points))


def _radial_region_masses(u: Weight, r, points, resolution):
    """_radial_masses of a radial u at the distinct moduli of the points, in the points' order."""
    return on_moduli(
        lambda moduli: _radial_masses(u.power, r, moduli.real.tobytes(), resolution), points
    )


@lru_cache(maxsize=64)
def _radial_masses(power, r, moduli, resolution):
    """Read-only masses of u = c (1 - |z|^2)^a, (c, a) = power, over
    Delta(rho, r), or over S(rho) where r is None, at each distinct modulus
    rho, each region at the real point rho.

    A disk takes the closed form c pi R^2 for a = 0; every other mass is the
    integral of c (1 - |z|^2)^a, which is u's own value at each node for
    constant(c) and standard(a) (c = 1) alike, so both kinds of one power
    share an entry and every mass is region_integrals(u, ...) bit for bit.

    moduli is the bytes of the float64 array of moduli: a key of Python
    floats would keep one small object per modulus alive, scattered over
    the interpreter's arenas.  One cache entry holds the masses of one region
    family at one set of distinct moduli.
    """
    c, a = power
    rhos = np.frombuffer(moduli)
    if r is None:
        regions = [CarlesonSet(complex(rho)) for rho in rhos]
    else:
        regions = [pseudo_disk(complex(rho), r) for rho in rhos]
    if r is not None and a == 0.0:
        masses = np.array([c * np.pi * float(d.euclid_radius) ** 2 for d in regions])
    else:
        masses = region_integrals(lambda z: c * (1.0 - np.abs(z) ** 2) ** a, regions, resolution)
    masses.flags.writeable = False
    return masses


def _joint_averages(u, p, region_of, points, resolution):
    """<u>_E (<u^(-p'/p)>_E)^(p-1) over E = region_of(a) for every a in points, as floats.

    A radial u takes one region per distinct |a|.  u is evaluated once per
    node, and raises EvaluationError where it is not finite; a second moment
    that overflows reads +inf.  The final power is taken on Python floats.
    """

    def at(pts):
        regions = [region_of(complex(a)) for a in pts]
        m1, m2, area = (np.empty(len(regions)) for _ in range(3))
        for index, nodes, weights in _region_blocks(regions, resolution):
            values = np.asarray(_finite_values(u, nodes), dtype=float)
            m1[index] = (weights * values).sum(axis=1)
            with np.errstate(over="ignore", divide="ignore"):
                m2[index] = (weights * values ** (-1.0 / (p - 1.0))).sum(axis=1)  # -p'/p
            area[index] = weights.sum(axis=1)
        return np.array([_joint(*m, p) for m in zip(m1.tolist(), m2.tolist(), area.tolist())])

    return (on_moduli(at, points) if u.is_radial else at(np.ravel(points))).tolist()


def _joint(m1, m2, area, p):
    """(m1 / area) (m2 / area)^(p-1) on Python floats; +inf where m2 overflows or the power does."""
    try:
        return (m1 / area) * (m2 / area) ** (p - 1.0) if 0.0 < m2 < math.inf else math.inf
    except OverflowError:
        return math.inf


def _constant_report(name, parameters, averages, anchors, ladder):
    """The joint averages at the anchors and the ladder points.

    averages(points) gives one joint average per point.  index_value is
    their max, per_point holds (point, value) and ring_trend the ladder's
    ring maxima, whose classify_ring_trend is the verdict (inconclusive
    without a ladder).
    """
    if parameters["p"] <= 1:
        raise DomainError("joint-average constants need p > 1")
    anchors = list(anchors or [])
    on_ladder = ladder is not None
    if not anchors and not on_ladder:
        raise DomainError("no anchors supplied")
    per_point = list(zip(anchors, averages(anchors)))
    ring_trend = []
    if on_ladder:
        pts = ladder.points()
        vals = averages(pts)
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
    S(a) turns with a, so every u takes one Carleson rule per distinct |a|,
    anchors and ladder points alike: a radial u at the real anchor |a|, any
    other u turned to each point (_joint_averages).
    """
    return _constant_report(
        "bekolle_constant", {"p": p},
        lambda points: _joint_averages(u, p, CarlesonSet, points, resolution), anchors, ladder,
    )


def cp_constant(u, p, r, centers=None, ladder: BoundaryLadder = None, resolution=32):
    """Estimate [u]_{C_p}: same joint average over pseudo disks Delta(z, r), per |z| for a radial u.

    The disks are mapped in blocks (_joint_averages): a turned disk rule would be another node set.
    """
    if not (0.0 < r < 1.0):
        raise DomainError("C_p disk radius must lie in (0, 1)")
    return _constant_report(
        "cp_constant", {"p": p, "r": r},
        lambda points: _joint_averages(u, p, lambda a: pseudo_disk(a, r), points, resolution),
        centers, ladder,
    )

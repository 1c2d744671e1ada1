"""Pseudohyperbolic geometry of the unit disc.

Points of the open disc are represented as python/numpy complex numbers.
This module provides the pseudohyperbolic metric d(z, w) = |z - w| / |1 - conj(w) z|,
the Mobius involutions that generate it, pseudohyperbolic disks written as
Euclidean disks, Carleson sets S(a), greedy separated lattices with covering
certificates, and dyadic boundary ladders used to realize every
"|z| -> 1" limit as a sampled trend.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "check_disc_point",
    "pseudo_distance",
    "mobius",
    "pseudo_add",
    "PseudoDisk",
    "pseudo_disk",
    "CarlesonSet",
    "carleson_contains",
    "Lattice",
    "build_lattice",
    "BoundaryLadder",
    "boundary_ladder",
]


def check_disc_point(z, name="z"):
    """Return z as a complex scalar, raising DomainError unless |z| < 1."""
    z = complex(z)
    if not (abs(z) < 1.0):
        raise DomainError(f"{name} = {z} is not in the open unit disc")
    return z


def pseudo_distance(z, w):
    """Pseudohyperbolic distance |(z - w) / (1 - conj(w) z)|.

    Accepts scalars or numpy arrays (broadcast); scalar inputs are
    validated against the open disc.
    """
    if np.isscalar(z) or isinstance(z, complex):
        z = check_disc_point(z, "z")
    if np.isscalar(w) or isinstance(w, complex):
        w = check_disc_point(w, "w")
    z = np.asarray(z)
    w = np.asarray(w)
    out = np.abs(z - w) / np.abs(1.0 - np.conj(w) * z)
    if out.ndim == 0:
        return float(out)
    return out


def mobius(a, z):
    """The involution phi_a(z) = (a - z) / (1 - conj(a) z).

    phi_a swaps 0 and a and is its own inverse.
    """
    a = complex(a)
    return (a - np.asarray(z)) / (1.0 - np.conj(a) * np.asarray(z))


def pseudo_add(s, t):
    """Mobius addition of two radii: the largest distance reachable by
    composing a step of size s with a step of size t."""
    return (s + t) / (1.0 + s * t)


@dataclass(frozen=True)
class PseudoDisk:
    """Pseudohyperbolic disk Delta(center, radius), stored with its
    Euclidean realization.

    Every pseudohyperbolic disk is a Euclidean disk with

        euclid_center = (1 - r^2) z / (1 - r^2 |z|^2)
        euclid_radius = r (1 - |z|^2) / (1 - r^2 |z|^2)
    """

    center: complex
    radius: float
    euclid_center: complex = field(init=False)
    euclid_radius: float = field(init=False)

    def __post_init__(self):
        z = check_disc_point(self.center, "center")
        r = self.radius
        if not (0.0 < r < 1.0):
            raise DomainError(f"pseudohyperbolic radius {r} outside (0, 1)")
        denom = 1.0 - r * r * abs(z) ** 2
        object.__setattr__(self, "euclid_center", (1.0 - r * r) * z / denom)
        object.__setattr__(self, "euclid_radius", r * (1.0 - abs(z) ** 2) / denom)

    def contains(self, w):
        """Membership test d(center, w) < radius (strict, open disk)."""
        return pseudo_distance(self.center, w) < self.radius

    def boundary_points(self, n):
        """n equiangular points on the Euclidean boundary circle."""
        theta = 2.0 * np.pi * np.arange(n) / n
        return self.euclid_center + self.euclid_radius * np.exp(1j * theta)


def pseudo_disk(z, r):
    """Pseudohyperbolic disk Delta(z, r) as a PseudoDisk."""
    return PseudoDisk(complex(z), float(r))


@dataclass(frozen=True)
class CarlesonSet:
    """Carleson set S(a) = { phi_a(z) : Re(conj(a) z) <= 0 }.

    For a = 0 the defining condition is vacuous and S(0) is the whole disc.
    """

    anchor: complex

    def __post_init__(self):
        object.__setattr__(self, "anchor", check_disc_point(self.anchor, "anchor"))

    def contains(self, w):
        """True iff w lies in S(anchor).

        Inverts the involution: w = phi_a(z) with Re(conj(a) z) <= 0 iff
        Re(conj(a) phi_a(w)) <= 0.
        """
        a = self.anchor
        if a == 0:
            if np.isscalar(w) or isinstance(w, complex):
                check_disc_point(w, "w")
                return True
            return np.ones(np.shape(w), dtype=bool)
        if np.isscalar(w) or isinstance(w, complex):
            w = check_disc_point(w, "w")
            return bool(np.real(np.conj(a) * mobius(a, w)) <= 0.0)
        return np.real(np.conj(a) * mobius(a, np.asarray(w))) <= 0.0


def carleson_contains(s: CarlesonSet, w) -> bool:
    """Functional form of CarlesonSet.contains."""
    return s.contains(w)


def _hyperbolic_cell(rho):
    """Mobius-invariant size rho^2 / (1 - rho^2) of a pseudo-disk of radius rho."""
    return rho * rho / (1.0 - rho * rho)


@dataclass(frozen=True, eq=False)
class Lattice:
    """Greedy maximal (r/2)-separated point set inside |z| <= r_max.

    Certificates (by construction and by audit):
      * pairwise pseudo-distances >= r/2, hence Delta(a_k, r/4) are disjoint;
      * every point of |z| <= r_max lies in some Delta(a_k, r);
      * no point lies in more than multiplicity_bound of the Delta(a_k, 2r).
    """

    radius: float
    r_max: float
    points: np.ndarray  # complex array, construction order
    multiplicity_bound: int

    def min_separation(self):
        """Minimum pairwise pseudo-distance (the disjointness certificate)."""
        pts = self.points
        best = 1.0
        for i in range(len(pts) - 1):
            d = pseudo_distance(pts[i], pts[i + 1 :])
            best = min(best, float(np.min(d)))
        return best

    def covering_fraction(self, grid):
        """Fraction of grid points lying in some Delta(a_k, radius)."""
        covered = np.zeros(len(grid), dtype=bool)
        for a in self.points:
            covered |= pseudo_distance(np.asarray(grid), a) < self.radius
            if covered.all():
                break
        return float(np.mean(covered))

    def multiplicity(self, grid):
        """Max over grid points of the number of Delta(a_k, 2 radius) hits."""
        counts = np.zeros(len(grid), dtype=int)
        for a in self.points:
            counts += pseudo_distance(np.asarray(grid), a) < 2.0 * self.radius
        return int(np.max(counts))

    def to_json(self):
        return json.dumps(
            {
                "r": self.radius,
                "r_max": self.r_max,
                "points": [[float(p.real), float(p.imag)] for p in self.points],
                "multiplicity_bound": int(self.multiplicity_bound),
            }
        )

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        pts = np.array([complex(re, im) for re, im in data["points"]])
        return Lattice(data["r"], data["r_max"], pts, data["multiplicity_bound"])


def _candidate_rings(r, r_max):
    """Outward spiral candidate stream: rings spaced ~r/8 in the pseudo metric,
    each ring sampled finely enough that neighbouring candidates are within
    ~r/8 of each other.  Deterministic given (r, r_max)."""
    h = r / 8.0
    radii = [0.0]
    rho = 0.0
    while True:
        rho = pseudo_add(rho, h)
        if rho >= r_max:
            break
        radii.append(rho)
    radii.append(r_max)
    rings = []
    for rho in radii:
        if rho == 0.0:
            rings.append((rho, np.array([0.0 + 0.0j])))
            continue
        # Euclidean arc step mapped to pseudo step ~ rho dtheta / (1 - rho^2)
        m = max(8, int(math.ceil(2.0 * math.pi * rho / (h * (1.0 - rho * rho)))))
        theta = 2.0 * np.pi * np.arange(m) / m
        rings.append((rho, rho * np.exp(1j * theta)))
    return rings


def build_lattice(r, r_max=0.995):
    """Greedy maximal (r/2)-separated lattice inside |z| <= r_max.

    Candidates stream outward along a fixed spiral of rings; a candidate is
    accepted when it is at pseudo-distance >= r/2 from every previously
    accepted point.  Because consecutive rings are only ~r/8 apart, conflicts
    can involve at most the last few rings, which keeps the scan linear.
    """
    if not (r > 0.0):
        raise DomainError(f"lattice radius {r} must be positive")
    if not (r_max < 1.0):
        raise DomainError(f"r_max {r_max} must be < 1")
    sep = r / 2.0
    rings = _candidate_rings(r, r_max)
    # accepted points from rings within radial pseudo-gap < sep of the current
    # ring can conflict; with ring gap r/8 that is at most 5 rings back.
    window = 5
    accepted_per_ring = []
    for rho, cands in rings:
        recent = [p for ring_pts in accepted_per_ring[-window:] for p in ring_pts]
        recent_arr = np.array(recent) if recent else np.empty(0, dtype=complex)
        this_ring = []
        for c in cands:
            if recent_arr.size:
                if np.min(pseudo_distance(recent_arr, c)) < sep:
                    continue
            if this_ring:
                if np.min(pseudo_distance(np.array(this_ring), c)) < sep:
                    continue
            this_ring.append(c)
        accepted_per_ring.append(this_ring)
    points = np.array([p for ring in accepted_per_ring for p in ring])

    # packing bound for the 2r-multiplicity: centers hitting z sit in
    # Delta(z, 2r), their r/4 disks are disjoint inside Delta(z, 2r (+) r/4)
    two_r = 2.0 * r
    if two_r >= 1.0 or pseudo_add(two_r, r / 4.0) >= 1.0:
        bound = len(points)
    else:
        big = _hyperbolic_cell(pseudo_add(two_r, r / 4.0))
        small = _hyperbolic_cell(r / 4.0)
        bound = min(len(points), int(math.floor(big / small)))
    return Lattice(radius=float(r), r_max=float(r_max), points=points, multiplicity_bound=bound)


def audit_grid(n, r_max, seed=1234):
    """Deterministic audit grid: n points pseudo-spread over |z| <= r_max.

    Low-discrepancy in area via a golden-angle spiral, then rescaled so the
    grid concentrates near the rim where lattice certificates are hardest.
    """
    k = np.arange(n)
    rho = r_max * np.sqrt((k + 0.5) / n)
    theta = 2.0 * np.pi * ((k * 0.6180339887498949) % 1.0)
    rng = np.random.default_rng(seed)
    jitter = 0.25 * (rng.random(n) - 0.5) / n
    return np.clip(rho + jitter, 0.0, r_max) * np.exp(1j * theta)


@dataclass(frozen=True)
class BoundaryLadder:
    """Dyadic radii climbing to the boundary: 1 - 2^-j (1 - rho0), j = 0.."""

    radii: tuple
    samples_per_ring: int

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise DomainError("ladder radii must be strictly increasing")
        if radii and radii[-1] >= 1.0:
            raise DomainError("ladder radii must stay below 1")
        object.__setattr__(self, "radii", radii)

    def ring_points(self, j):
        m = self.samples_per_ring
        theta = 2.0 * np.pi * np.arange(m) / m
        return self.radii[j] * np.exp(1j * theta)

    def points(self):
        """All ladder points, ring by ring."""
        return np.concatenate([self.ring_points(j) for j in range(len(self.radii))])

    def ring_max(self, values):
        """Per-ring maxima of values given in points() order, as floats."""
        rows = np.asarray(values, dtype=float).reshape(len(self.radii), self.samples_per_ring)
        return rows.max(axis=1).tolist()


def boundary_ladder(n_rings, samples_per_ring, rho0=0.5):
    """Ladder with radii 1 - 2^-j (1 - rho0) for j = 0..n_rings-1."""
    if n_rings < 2:
        raise DomainError("boundary ladder needs at least 2 rings")
    radii = tuple(1.0 - (1.0 - rho0) * 0.5**j for j in range(n_rings))
    if radii[-1] >= 1.0:
        raise DomainError("ladder too deep for float resolution")
    return BoundaryLadder(radii=radii, samples_per_ring=int(samples_per_ring))

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
from functools import lru_cache

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


def _doubled(r):
    """pseudo_add(r, r) = 2r / (1 + r^2): r doubled in the Bergman metric."""
    return pseudo_add(r, r)


# Relative slack on every pruning threshold: a pair is skipped only where its
# exact distance is at least thr (1 + _PRUNE_MARGIN), far above the rounding of
# pseudo_distance and np.angle, so a skipped pair also computes to >= thr.
_PRUNE_MARGIN = 1e-3
# index pairs per block of _close_pairs: bounds the memory of an audit
_BLOCK_PAIRS = 1 << 13
# the threshold of the first pass of min_separation and covering_fraction,
# relative to the lattice radius: a greedy lattice has its closest pairs near
# r/2 and, on check 8's audit grid, every grid point within 0.75 r of a point,
# and windows at 0.75 r meet about 0.75^2 of the pairs of windows at r
_FIRST_PASS = 0.75
# the least threshold at which _near_counts counts inner windows: on check 8's
# grid its cost crosses the pairs it saves between 0.55 and 0.69 (the
# multiplicity thresholds of r = 0.3 and 0.4)
_INNER_FROM = 0.6


def _segments(starts, counts):
    """The concatenated index ranges [starts[n], starts[n] + counts[n])."""
    total = int(np.sum(counts))
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(total)


def _blocks(counts):
    """Ranges [a, b) of consecutive entries of counts that hold pairs, cut
    where the running count passes a multiple of _BLOCK_PAIRS: a block holds
    fewer than _BLOCK_PAIRS pairs plus the count of its first entry."""
    total = np.cumsum(counts)
    if not total.size:
        return
    cuts = np.searchsorted(total, np.arange(_BLOCK_PAIRS, total[-1], _BLOCK_PAIRS), "right").tolist()
    for a, b in zip([0, *cuts], [*cuts, total.size]):
        if b > a and total[b - 1] > (total[a - 1] if a else 0):
            yield a, b


def _disk_form(aq, thr):
    """(c, c^2 - R^2) of the Euclidean disk Delta(q, thr) for each |q| in the array aq.

    c = (1 - thr^2) |q| / (1 - thr^2 |q|^2) is the distance of its centre
    along the ray of q and R = thr (1 - |q|^2) / (1 - thr^2 |q|^2) its
    radius; c^2 - R^2 is negative exactly where the disk holds the origin.
    """
    s = thr * thr
    den = 1.0 - s * aq * aq
    c, R = (1.0 - s) * aq / den, thr * (1.0 - aq * aq) / den
    # c - R = (|q| - thr)(1 + thr |q|) / den keeps the sign of |q| - thr exactly
    return c, (aq - thr) * (1.0 + thr * aq) / den * (c + R)


def _circle_cos(b, c, g, on_boundary):
    """f(b) = (b^2 + g) / (2 b c), clipped to [-1, 1], with g = c^2 - R^2.

    The circle |w| = b meets Delta(q, thr) (_disk_form) where cos t > f(b),
    t the angular gap to q.  No scale that underflows or vanishes (q = 0,
    or b = 0) is divided by: there f is -1 or 1, and on_boundary where
    b^2 + g = 0 too, that is where the circle lies on the disk's boundary
    circle or is the point 0 on it.
    """
    num, scale = b * b + g, 2.0 * b * c
    mag = np.maximum(scale, np.abs(num))
    return np.divide(num, mag, out=np.full_like(num, on_boundary), where=mag > 0.0)


def _disk_window(aq, b_lo, b_hi, thr):
    """Angular half-width beyond which no point with modulus in [b_lo, b_hi]
    lies in Delta(q, thr), for each |q| in the array aq.

    The circle |w| = b meets the disk where cos t > f(b) (_circle_cos).
    Over the band f is least at b = sqrt(c^2 - R^2), clipped to the band (at
    b_lo where c < R, that is where the disk holds the origin), and the
    half-width is the arccos of that least value.  It is pi (no window)
    where a circle of the band lies inside the disk, and for thr >= 1.
    """
    aq = np.asarray(aq, dtype=float)
    if thr >= 1.0:
        return np.full(aq.shape, np.pi)
    c, g = _disk_form(aq, thr)
    b = np.clip(np.sqrt(np.maximum(g, 0.0)), b_lo, b_hi)
    return np.arccos(_circle_cos(b, c, g, 0.0))


def _inner_window(aq, b_lo, b_hi, thr):
    """Angular half-width within which every point with modulus in
    [b_lo, b_hi] lies in Delta(q, thr), for each |q| in the array aq: the
    dual of _disk_window.

    A point at gap t lies in the disk where cos t > f(b) (_circle_cos).  f
    is convex in b where the disk misses the origin and increasing where it
    holds it, so over the band it is largest at b_lo or b_hi, and the
    half-width is the arccos of that largest value: 0 (no point) where a
    circle of the band misses the disk, and pi where every circle lies
    inside it, or for thr >= 1.  Only gaps strictly below it are certified.
    """
    aq = np.asarray(aq, dtype=float)
    if thr >= 1.0:
        return np.full(aq.shape, np.pi)
    c, g = _disk_form(aq, thr)
    # a circle on the boundary holds no point of the open disk
    return np.arccos(np.maximum(_circle_cos(b_lo, c, g, 1.0), _circle_cos(b_hi, c, g, 1.0)))


def _close_pairs(q, p, thr, inner=None):
    """Blocks (i, j) of flat index arrays that hold, once each, every pair
    with pseudo_distance(q[i], p[j]) < thr.

    The points p are cut into bands of hyperbolic radius atanh|z|.  A band
    of p meets only the q that pass the radial bound
    d(z, w) >= ||z| - |w|| / (1 - |z| |w|), and each of those only in its
    own angular window: the members whose angular gap lies inside the
    _disk_window of q on the band's moduli.  Both are taken at
    thr (1 + _PRUNE_MARGIN).  A half-width of pi (no window) meets each
    member once, and for thr >= 1 nothing is pruned.  A block holds fewer
    than _BLOCK_PAIRS pairs plus those of one point of q (_blocks).

    Given an int array inner over q, the members at a gap strictly inside
    the _inner_window of q, taken at thr (1 - _PRUNE_MARGIN), are within thr
    of it: each is added to inner[i] by its index range alone and is not
    handed out, so only the fringe between the two windows is.  The bands
    are then half as wide, as the inner window is the narrowest gap over a
    band.
    """
    q, p = np.asarray(q), np.asarray(p)
    aq, ap = np.abs(q), np.abs(p)
    if np.any(aq >= 1.0) or np.any(ap >= 1.0):
        raise DomainError("lattice and audit points must lie in the open unit disc")
    thr_in, thr = thr * (1.0 - _PRUNE_MARGIN), thr * (1.0 + _PRUNE_MARGIN)
    width = (0.5 if inner is None else 0.25) * math.atanh(thr) if thr < 1.0 else math.inf
    p_band = np.floor(np.arctanh(ap) / width).astype(int)
    p_order = np.argsort(p_band, kind="stable")
    q_order = np.argsort(aq, kind="stable")
    aq_sorted = aq[q_order]
    q_angle, p_angle = np.angle(q), np.angle(p)
    for members in np.split(p_order, np.flatnonzero(np.diff(p_band[p_order])) + 1):
        if not members.size:
            continue
        a_lo, a_hi = float(np.min(ap[members])), float(np.max(ap[members]))
        b_lo = (a_lo - thr) / (1.0 - a_lo * thr) if a_lo > thr else 0.0
        first = np.searchsorted(aq_sorted, b_lo, "left")
        last = np.searchsorted(aq_sorted, pseudo_add(a_hi, thr), "right")
        sel = q_order[first:last]
        if not sel.size:
            continue
        order = np.argsort(p_angle[members], kind="stable")
        ang = p_angle[members][order]
        ext = np.concatenate([ang - 2.0 * np.pi, ang, ang + 2.0 * np.pi])
        ext_members = np.tile(members[order], 3)
        half = _disk_window(aq[sel], a_lo, a_hi, thr)
        lo = np.searchsorted(ext, q_angle[sel] - half, "left")
        # members.size consecutive entries of ext hold each member once
        counts = np.minimum(np.searchsorted(ext, q_angle[sel] + half, "right") - lo, members.size)
        starts, spans = lo[:, None], counts[:, None]
        if inner is not None:
            # the open interval of the inner window, inside the outer one
            h = _inner_window(aq[sel], a_lo, a_hi, thr_in)
            end = lo + counts
            i_lo = np.clip(np.searchsorted(ext, q_angle[sel] - h, "right"), lo, end)
            i_hi = np.clip(np.searchsorted(ext, q_angle[sel] + h, "left"), i_lo, end)
            inner[sel] += i_hi - i_lo
            starts, spans = np.stack([lo, i_hi], axis=1), np.stack([i_lo - lo, end - i_hi], axis=1)
        per_point = spans.sum(axis=1)
        for a, b in _blocks(per_point):
            yield np.repeat(sel[a:b], per_point[a:b]), ext_members[
                _segments(starts[a:b].ravel(), spans[a:b].ravel())
            ]


def _near_counts(q, p, thr):
    """For each point z of q, how many points w of p have pseudo_distance(z, w) < thr.

    From thr = _INNER_FROM on, the members inside an inner window are
    counted by _close_pairs itself, and pseudo_distance runs on the fringe
    it hands out: there the windows hold enough members to pay for it.
    """
    counts = np.zeros(len(q), dtype=int)
    for i, j in _close_pairs(q, p, thr, counts if thr >= _INNER_FROM else None):
        counts += np.bincount(i[pseudo_distance(q[i], p[j]) < thr], minlength=len(q))
    return counts


def _min_pair_distance(pts, thr):
    """Least pseudo_distance(pts[i], pts[j]), i < j, among the pairs that
    _close_pairs keeps at thr (inf when there are none)."""
    best = math.inf
    for i, j in _close_pairs(pts, pts, thr):
        later = i < j
        if np.any(later):
            best = min(best, float(np.min(pseudo_distance(pts[i[later]], pts[j[later]]))))
    return best


@dataclass(frozen=True, eq=False)
class Lattice:
    """Greedy maximal (r/2)-separated point set inside |z| <= r_max.

    Certificates (by construction and by audit):
      * pairwise pseudo-distances >= r/2, hence Delta(a_k, r/4) are disjoint;
      * every point of |z| <= r_max lies in some Delta(a_k, r);
      * no point lies in more than multiplicity_bound of the doubled disks
        Delta(a_k, pseudo_add(r, r)).

    The build and the audits evaluate pseudo_distance only on the pairs
    that can fall below their threshold thr (r/2 for the build, r for the
    separation and the covering, the doubled radius for the multiplicity).
    Two proven lower bounds, both taken at thr (1 + _PRUNE_MARGIN), rule the
    other pairs out:
      * radial: d(z, w) >= ||z| - |w|| / (1 - |z| |w|);
      * angular: Delta(z, thr) is a Euclidean disk, which meets the circle
        |w| = b only within an angular gap of z that depends on b, so a
        point gets the widest such gap over a band of moduli as its window
        half-width, and that certifies every pair outside it (_disk_window).
    A half-width of pi means no window: the point meets the whole band.
    build_lattice takes its bands one candidate ring at a time and turns
    each window into candidate indices (_index_window); the audits take any
    point set, a loaded one too, cut into bands of hyperbolic radius.
    Counting audits with wide disks (thr >= _INNER_FROM, the multiplicity
    from r = 1/3 on) also take the dual proof, at thr (1 - _PRUNE_MARGIN):
    the narrowest such gap over the band certifies every pair inside it
    (_inner_window), which is counted without a distance.  min_separation
    and covering_fraction first take the pairs within 0.75 r, which decide
    them on a greedy lattice, and the pass within r only where they do not.
    The values are those of the plain all-pairs greedy and audits, bit for
    bit.
    """

    radius: float
    r_max: float
    points: np.ndarray  # complex array, construction order; read-only from build_lattice
    multiplicity_bound: int

    def min_separation(self):
        """Minimum pairwise pseudo-distance (the disjointness certificate).

        Pairs go in the orientation pseudo_distance(points[i], points[j]),
        i < j.  A first pass keeps the pairs within 0.75 r (_FIRST_PASS r):
        a minimum below that is the least of all pairs.  Otherwise the pass
        within r decides, and if no pair within the lattice radius is below
        it, the minimum may lie outside the window, so every pair is audited.
        """
        for thr in (_FIRST_PASS * self.radius, self.radius, 1.0):
            best = _min_pair_distance(self.points, thr)
            if best < thr:
                break
        return min(1.0, best)

    def covering_fraction(self, grid):
        """Fraction of grid points lying in some Delta(a_k, radius).

        A first pass within 0.75 r (_FIRST_PASS r) covers most grid points;
        only the others are searched within r.
        """
        grid = np.asarray(grid)
        covered = _near_counts(grid, self.points, _FIRST_PASS * self.radius) > 0
        rest = np.flatnonzero(~covered)
        if rest.size:
            covered[rest] = _near_counts(grid[rest], self.points, self.radius) > 0
        return float(np.mean(covered))

    def multiplicity(self, grid):
        """Max over grid points of the number of Delta(a_k, pseudo_add(r, r)) hits."""
        counts = _near_counts(np.asarray(grid), self.points, _doubled(self.radius))
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


def _index_window(k, m_src, m, half):
    """First index and count of the candidates of a ring of m that can lie
    within angular gap half of candidate k of a ring of m_src.

    Candidate k of m sits at angle 2 pi k / m, so the window is the index
    interval k m / m_src -+ half m / (2 pi), padded by one index on each side
    for the rounding of rho e^{i theta} against its generating angle.  The
    count is capped at m, so half = pi (no window) meets all m.
    """
    k = np.asarray(k)
    center, width = k * (m / m_src), half * m / (2.0 * math.pi)
    lo = np.floor(center - width).astype(int) - 1
    hi = np.ceil(center + width).astype(int) + 1
    return lo, np.minimum(hi - lo + 1, m)


def _earlier_pairs(keep, m, half):
    """Pairs (i, j), i < j, of positions in the sorted candidate indices keep
    of a ring of m where keep[i] lies in the _index_window of keep[j] within
    the ring, grouped by j.

    Where the window spans fewer than m indices, its reach g is below m / 2,
    and an earlier i lies either at most g indices below j or, across
    index 0, at least m - g above it: the wrap-around term.  Otherwise every
    earlier i is taken.
    """
    n = keep.size
    pos = np.arange(n)
    lo, count = _index_window(0, m, m, half)
    if count >= m:
        below, wrapped = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    else:
        reach = -int(lo)
        below = np.searchsorted(keep, keep - reach, "left")
        wrapped = np.searchsorted(keep, keep + reach - m, "right")
    # the earlier positions of j: [below, j), then [0, wrapped)
    starts = np.stack([below, np.zeros(n, dtype=int)], axis=1).ravel()
    counts = np.stack([pos - below, wrapped], axis=1).ravel()
    return _segments(starts, counts), np.repeat(pos, pos - below + wrapped)


def _ring_greedy(cands, keep, half, sep):
    """The positions in keep (sorted candidate indices of one ring) that the
    greedy accepts: each at pseudo-distance >= sep from every earlier
    accepted one."""
    i, j = _earlier_pairs(keep, cands.size, half)
    near = pseudo_distance(cands[keep[i]], cands[keep[j]]) < sep
    # grouped by j with i < j, so every accepted[i] is final when a pair is read
    accepted = [True] * keep.size
    for a, b in zip(i[near].tolist(), j[near].tolist()):
        if accepted[a]:
            accepted[b] = False
    return np.flatnonzero(accepted)


def build_lattice(r, r_max=0.995):
    """Greedy maximal (r/2)-separated lattice inside |z| <= r_max.

    Candidates stream outward along a fixed spiral of rings, candidate k of
    a ring of m at rho e^{2 pi i k / m}; a candidate is accepted when it is
    at pseudo-distance >= r/2 from every previously accepted point.
    Consecutive rings are only ~r/8 apart, so conflicts can involve at most
    the last few rings, and the test looks back five rings.

    Each accepted point keeps its candidate index, and meets only the
    candidates of a later ring whose indices lie in its window
    (_index_window).  The radial and angular bounds of Lattice give the
    windows: a ring whose radial bound |rho - b| / (1 - rho b) reaches the
    threshold is skipped, and otherwise the half-width is the _disk_window
    of a point of modulus b on the ring's circle |w| = rho, one array call
    per ring for the last five rings and the ring itself.
    Near the origin, where no window exists, a point meets the whole ring.
    One array pass per candidate ring, in blocks of about _BLOCK_PAIRS
    pairs (_blocks), marks the candidates that clash with the points of any
    of the five earlier rings.  The survivors then meet the earlier
    survivors of their own ring within the same index reach, wrapping
    around index 0, and one scan in index order accepts those with no
    accepted near neighbour.  Every pair
    that can decide goes through pseudo_distance in the orientation
    (accepted, candidate), so the points are those of the plain greedy, bit
    for bit.

    The lattice of one (r, r_max) is built once per process (_lattice) and
    shared: its points are read-only.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"lattice radius {r} outside (0, 1)")
    if not (0.0 < r_max < 1.0):
        raise DomainError(f"r_max {r_max} outside (0, 1)")
    return _lattice(float(r), float(r_max))


@lru_cache(maxsize=8)
def _lattice(r, r_max):
    """The Lattice of build_lattice for a valid (r, r_max), read-only.

    One cache entry holds one lattice: its points (13,412 complex numbers at
    (0.2, 0.99)) and its multiplicity bound.
    """
    sep = r / 2.0
    thr = sep * (1.0 + _PRUNE_MARGIN)
    # accepted points from rings within radial pseudo-gap < sep of the current
    # ring can conflict; with ring gap r/8 that is at most 5 rings back.
    window = 5
    rings = []  # (rho, m, accepted indices, accepted points) per ring
    for rho, cands in _candidate_rings(r, r_max):
        m = cands.size
        recent = rings[-window:]
        # the half-widths of a point of each recent ring, and of this ring, on |w| = rho
        half = _disk_window([b for b, *_ in recent] + [rho], rho, rho, thr)
        # the accepted points of the recent rings within the radial bound, each
        # with its candidate index, its ring's size and its half-width
        near = [(k, pts, np.full(k.size, m_src), np.full(k.size, h))
                for (b, m_src, k, pts), h in zip(recent, half)
                if abs(rho - b) / (1.0 - rho * b) < thr]
        clash = np.zeros(m, dtype=bool)
        if near:
            k, pts, m_src, h = (np.concatenate(column) for column in zip(*near))
            lo, counts = _index_window(k, m_src, m, h)
            for a, b in _blocks(counts):
                j = _segments(lo[a:b], counts[a:b]) % m
                clash[j[pseudo_distance(np.repeat(pts[a:b], counts[a:b]), cands[j]) < sep]] = True
        keep = np.flatnonzero(~clash)
        keep = keep[_ring_greedy(cands, keep, half[-1], sep)]
        rings.append((rho, m, keep, cands[keep]))
    points = np.concatenate([pts for *_, pts in rings])

    # packing bound: the centers hitting z lie in Delta(z, D), D = _doubled(r), and their
    # disjoint Delta(a_k, q) in Delta(z, D (+) q); the ratio of the cells rho^2 / (1 - rho^2)
    # is ((D + q) / (q sqrt(1 - D^2)))^2, sqrt(1 - D^2) = (1 - r^2) / (1 + r^2) > 0
    q = r / 4.0
    cells = ((_doubled(r) + q) * (1.0 + r * r) / (q * (1.0 - r * r))) ** 2
    bound = int(min(len(points), cells))
    points.flags.writeable = False
    return Lattice(radius=r, r_max=r_max, points=points, multiplicity_bound=bound)


def audit_grid(n, r_max):
    """Deterministic audit grid: n points pseudo-spread over |z| <= r_max.

    Low-discrepancy in area via a golden-angle spiral, then rescaled so the
    grid concentrates near the rim where lattice certificates are hardest.
    The radial jitter has the fixed seed 1234.
    """
    k = np.arange(n)
    rho = r_max * np.sqrt((k + 0.5) / n)
    theta = 2.0 * np.pi * ((k * 0.6180339887498949) % 1.0)
    rng = np.random.default_rng(1234)
    jitter = 0.25 * (rng.random(n) - 0.5) / n
    return np.clip(rho + jitter, 0.0, r_max) * np.exp(1j * theta)


@dataclass(frozen=True)
class BoundaryLadder:
    """Radii climbing to the boundary (boundary_ladder: 1 - 2^-(j+1)), samples_per_ring points on each."""

    radii: tuple
    samples_per_ring: int

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise DomainError("a ladder needs at least one ring")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise DomainError("ladder radii must be strictly increasing")
        if radii[-1] >= 1.0:
            raise DomainError("ladder radii must stay below 1")
        if not self.samples_per_ring >= 1:
            raise DomainError(f"ladder needs at least 1 sample per ring, got {self.samples_per_ring}")
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


def boundary_ladder(n_rings, samples_per_ring):
    """Ladder with radii 1 - 2^-(j+1) for j = 0..n_rings-1."""
    if n_rings < 2:
        raise DomainError("boundary ladder needs at least 2 rings")
    radii = tuple(1.0 - 0.5 ** (j + 1) for j in range(n_rings))
    if radii[-1] >= 1.0:
        raise DomainError("ladder too deep for float resolution")
    return BoundaryLadder(radii=radii, samples_per_ring=int(samples_per_ring))

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
# exact distance is at least thr (1 + _PRUNE_MARGIN), and taken as near without
# a distance only where it is below thr (1 - _PRUNE_MARGIN), far beyond the
# rounding of pseudo_distance, np.angle and the index arcs of the build, so
# the pair also computes to the same side of thr.
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


def _audit_points(grid):
    """An audit grid as an array; DomainError if it holds no point."""
    grid = np.asarray(grid)
    if not grid.size:
        raise DomainError("the audit grid is empty: an audit needs at least one grid point")
    return grid


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
    The dual proof, at thr (1 - _PRUNE_MARGIN), takes the narrowest such gap
    over a band, which certifies every pair inside it (_inner_window).
    build_lattice takes its bands one candidate ring at a time, where both
    half-widths are scalars per ring, and turns them into index arcs
    (_index_arcs): a candidate inside the inner arc clashes without a
    distance, and pseudo_distance runs only on the fringe between the arcs.
    The audits take any point set, a loaded one too, cut into bands of
    hyperbolic radius; counting audits with wide disks (thr >= _INNER_FROM,
    the multiplicity from r = 1/3 on) count the members inside the inner
    window without a distance.  min_separation and covering_fraction first
    take the pairs within 0.75 r, which decide them on a greedy lattice, and
    the pass within r only where they do not.  The values are those of the
    plain all-pairs greedy and audits, bit for bit; an empty audit grid
    raises DomainError.
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
        grid = _audit_points(grid)
        covered = _near_counts(grid, self.points, _FIRST_PASS * self.radius) > 0
        rest = np.flatnonzero(~covered)
        if rest.size:
            covered[rest] = _near_counts(grid[rest], self.points, self.radius) > 0
        return float(np.mean(covered))

    def multiplicity(self, grid):
        """Max over grid points of the number of Delta(a_k, pseudo_add(r, r)) hits."""
        counts = _near_counts(_audit_points(grid), self.points, _doubled(self.radius))
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
    """Outward spiral of candidate rings (rho, m): rings spaced ~r/8 in the
    pseudo metric, each of m candidates (_ring_points), enough that
    neighbouring candidates are within ~r/8 of each other.  Deterministic
    given (r, r_max); the origin is the ring (0, 1)."""
    h = r / 8.0
    rings = [(0.0, 1)]
    rho = 0.0
    while rho < r_max:
        rho = min(pseudo_add(rho, h), r_max)
        # Euclidean arc step mapped to pseudo step ~ rho dtheta / (1 - rho^2)
        rings.append((rho, max(8, int(math.ceil(2.0 * math.pi * rho / (h * (1.0 - rho * rho)))))))
    return rings


def _ring_points(rho, m, j):
    """The candidates j (an index array) of the ring (rho, m): rho e^{2 pi i j / m}."""
    return rho * np.exp(1j * (2.0 * np.pi * j / m))


def _index_arcs(k, m_src, m, outer, inner):
    """The index arcs of a ring of m around candidate k of a ring of m_src,
    for angular half-widths outer >= inner (_disk_window, _inner_window):
    (lo, count, lo_in, count_in), indices mod m.

    Candidate k sits at index c = k m / m_src, and a gap h spans
    w = h m / 2 pi indices.  [lo, lo + count) holds the j with |j - c| <= w
    of outer, and [lo_in, lo_in + count_in), inside it, those with
    |j - c| < w of inner, with no pad (build_lattice argues why).  A
    half-width of pi is the whole ring (count m, and then lo = lo_in), so the
    fringe of k is always [lo, lo_in) and [lo_in + count_in, lo + count).
    """
    k = np.asarray(k)
    c, w, w_in = k * (m / m_src), outer * m / (2.0 * math.pi), inner * m / (2.0 * math.pi)
    lo = np.ceil(c - w).astype(int)
    count = np.where(outer >= np.pi, m, np.minimum(np.floor(c + w).astype(int) - lo + 1, m))
    lo_in = np.floor(c - w_in).astype(int) + 1
    count_in = np.where(inner >= np.pi, m, np.clip(np.ceil(c + w_in).astype(int) - lo_in, 0, m))
    return np.where(count == m, lo_in, lo), count, lo_in, count_in


def _covered(lo, count, m):
    """Mask of the indices of a ring of m in some arc [lo, lo + count), mod m, count <= m.

    A difference array over two turns of the ring: each arc starts within
    the first turn, and an index is covered where either turn's depth is.
    """
    start = lo % m
    depth = np.cumsum(np.bincount(start, minlength=2 * m) - np.bincount(start + count, minlength=2 * m))
    return (depth[:m] + depth[m:]) > 0


def _ring_gap(d, m):
    """The index gap of two candidates d apart on a ring of m, the short way round."""
    return min(d, m - d)


def _ring_walk(keep, rho, m, outer, inner, sep):
    """The positions in keep (sorted survivor indices of the ring (rho, m))
    that the greedy accepts, in index order: each at pseudo_distance >= sep
    from every earlier accepted one.

    outer >= inner are the half-widths of a point of the ring on its own
    circle.  An index gap below inner m / 2 pi (at most g_in) is certainly
    near, one above outer m / 2 pi (g_out) certainly far, and the pairs of
    survivors at a fringe gap in between go through pseudo_distance, in the
    orientation (earlier, later), in one call ahead of the walk.  On one
    circle the distance grows with the gap, so a survivor far from the last
    accepted point is far from every earlier one, until the ring comes
    within g_out of its first accepted point across index 0: up to there the
    walk follows each accepted point to its successor, the first survivor
    not near it, and from there it checks each survivor against every
    accepted point within reach, either way round (_ring_gap).
    """
    n = keep.size
    if not n:
        return keep
    w, w_in = outer * m / (2.0 * math.pi), inner * m / (2.0 * math.pi)
    # survivors are distinct, so g_in = 0 certifies nothing and stands for less
    g_out = m if outer >= np.pi else math.floor(w)
    g_in = m if inner >= np.pi else max(math.ceil(w_in) - 1, 0)
    succ = np.searchsorted(keep, keep + g_out, "right")
    fringe = {}
    if g_out > g_in:
        # pairs (p, q), p < q, at a fringe gap: d = keep[q] - keep[p] in
        # (g_in, g_out], or m - d there across index 0
        pos = np.arange(n)
        near_in = np.searchsorted(keep, keep + g_in, "right")
        wrap_lo = np.maximum(np.searchsorted(keep, keep + m - g_out, "left"), pos + 1)
        wrap_hi = np.maximum(np.searchsorted(keep, keep + m - g_in, "left"), wrap_lo)
        spans = np.concatenate([succ - near_in, wrap_hi - wrap_lo])
        p = np.repeat(np.concatenate([pos, pos]), spans)
        q = _segments(np.concatenate([near_in, wrap_lo]), spans)
        near = pseudo_distance(_ring_points(rho, m, keep[p]), _ring_points(rho, m, keep[q])) < sep
        fringe = dict(zip((p * n + q).tolist(), near.tolist()))
        # the successor of p is its first survivor beyond g_out or at a far fringe gap
        far = ~near & (keep[q] - keep[p] <= g_out)
        np.minimum.at(succ, p[far], q[far])
    index = keep.tolist()

    def clash(a, b):
        g = _ring_gap(index[b] - index[a], m)
        return g <= g_in or (g <= g_out and fringe[a * n + b])

    # the chain runs up to the first survivor within reach of index[0] + m
    start = int(np.searchsorted(keep, index[0] + m - g_out, "left"))
    succ, accepted, a = succ.tolist(), [], 0
    while a < start:
        accepted.append(a)
        a = succ[a]

    def within_reach(b):
        for s in reversed(accepted):
            if index[b] - index[s] > g_out:
                break
            yield s
        for s in accepted:
            if index[s] + m - index[b] > g_out:
                break
            yield s

    for b in range(a, n):
        if not any(clash(s, b) for s in within_reach(b)):
            accepted.append(b)
    return np.array(accepted, dtype=int)


def build_lattice(r, r_max=0.995):
    """Greedy maximal (r/2)-separated lattice inside |z| <= r_max.

    Candidates stream outward along a fixed spiral of rings, candidate k of
    a ring of m at rho e^{2 pi i k / m}; a candidate is accepted when it is
    at pseudo-distance >= r/2 from every previously accepted point.
    Consecutive rings are only ~r/8 apart, so conflicts can involve at most
    the last few rings, and the test looks back five rings.

    The radial and angular bounds of Lattice decide every clash of a
    candidate with an accepted point of the five earlier rings.  A ring out
    of radial reach is skipped.  Otherwise, as every point of a ring shares
    its modulus b, the proofs are two scalars per look-back ring on the
    circle |w| = rho, taken for every ring of the spiral in one array call:
    the outer half-width (_disk_window at sep (1 + _PRUNE_MARGIN),
    sep = r/2), beyond which no candidate is near, and the inner one
    (_inner_window at sep (1 - _PRUNE_MARGIN)), within which every
    candidate is.  Each accepted point turns them into index arcs
    of the ring (_index_arcs): its inner arc clashes without a distance,
    marked on a difference array (_covered), and pseudo_distance runs only
    on its fringe, an index or two either side, in the orientation
    (accepted, candidate).  The survivors then meet each other on the same
    two proofs for a point of the ring on its own circle (_ring_walk).
    Candidates are evaluated only where they are accepted or on a fringe,
    by the one elementwise expression (_ring_points), so the points are
    those of the plain greedy, bit for bit.

    The arcs need no index pad.  Their ends are the floor and ceil of
    c -+ w, c = k m / m_src and w = h m / 2 pi, which are computed within a
    few ulp of m, an angle of a few 1e-15 rad, and a candidate's computed
    point lies a few ulp off rho e^{2 pi i j / m}.  The distance moves by at
    most rho / (1 - rho^2) per radian along the circle, so these errors move
    it by less than 1e-12 for rho <= 0.999.  The outer window ends where the
    exact distance is sep (1 + _PRUNE_MARGIN) and the inner one where it is
    sep (1 - _PRUNE_MARGIN): a slack of sep _PRUNE_MARGIN = r / 2000 either
    side.  The margin covers the rounding of the half-widths themselves as it
    does for the audits (Lattice).

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
    thr, thr_in = sep * (1.0 + _PRUNE_MARGIN), sep * (1.0 - _PRUNE_MARGIN)
    spiral = _candidate_rings(r, r_max)
    # accepted points from rings within radial pseudo-gap < sep of the current
    # ring can conflict; with ring gap r/8 that is at most 5 rings back.
    window = 5
    # column l of row i: ring i - l seen from ring i, its radial bound and
    # the half-widths of a point of it on |w| = rho_i, for every ring at once
    radii = np.array([rho for rho, _ in spiral])
    row, lag = np.arange(radii.size)[:, None], np.arange(window + 1)
    rho, b = radii[:, None], radii[np.maximum(row - lag, 0)]
    reach = ((np.abs(rho - b) / (1.0 - rho * b) < thr) & (lag <= row)).tolist()
    outer, inner = _disk_window(b, rho, rho, thr), _inner_window(b, rho, rho, thr_in)
    rings = []  # (accepted indices, accepted points) per ring
    for i, (rho, m) in enumerate(spiral):
        lags = [l for l in range(window, 0, -1) if reach[i][l]]
        clash = np.zeros(m, dtype=bool)
        if lags:
            sizes = [rings[i - l][0].size for l in lags]
            k = np.concatenate([rings[i - l][0] for l in lags])
            pts = np.concatenate([rings[i - l][1] for l in lags])
            m_src = np.repeat([spiral[i - l][1] for l in lags], sizes)
            lo, count, lo_in, count_in = _index_arcs(
                k, m_src, m, np.repeat(outer[i, lags], sizes), np.repeat(inner[i, lags], sizes)
            )
            clash = _covered(lo_in, count_in, m)
            # the fringe of each point, either side of its inner arc, less what is marked
            spans = np.concatenate([lo_in - lo, lo + count - lo_in - count_in])
            j = _segments(np.concatenate([lo, lo_in + count_in]), spans) % m
            src = np.repeat(np.tile(np.arange(k.size), 2), spans)
            undecided = ~clash[j]
            j, src = j[undecided], src[undecided]
            clash[j[pseudo_distance(pts[src], _ring_points(rho, m, j)) < sep]] = True
        keep = np.flatnonzero(~clash)
        keep = keep[_ring_walk(keep, rho, m, outer[i, 0], inner[i, 0], sep)]
        rings.append((keep, _ring_points(rho, m, keep)))
    points = np.concatenate([pts for _, pts in rings])

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
        if not all(math.isfinite(b) and b >= 0.0 for b in radii):
            raise DomainError(f"ladder radii must be finite and at least 0, got {radii}")
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

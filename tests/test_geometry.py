"""Pseudohyperbolic geometry: metric laws, disks, Carleson sets, lattices."""

import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman_lab import (
    BoundaryLadder,
    CarlesonSet,
    DomainError,
    Lattice,
    PseudoDisk,
    audit_grid,
    boundary_ladder,
    build_lattice,
    mobius,
    pseudo_add,
    pseudo_disk,
    pseudo_distance,
)
from bergman_lab import geometry

disc_points = st.complex_numbers(max_magnitude=0.97, allow_infinity=False, allow_nan=False)


class TestMetric:
    def test_known_value(self):
        # d(0.5, 0) = 0.5; d(0.5, -0.5) = 1 / (1 + 0.25) = 0.8
        assert pseudo_distance(0.5, 0.0) == pytest.approx(0.5)
        assert pseudo_distance(0.5, -0.5) == pytest.approx(0.8)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            pseudo_distance(1.0, 0.0)

    @given(disc_points, disc_points)
    def test_symmetry(self, z, w):
        assert pseudo_distance(z, w) == pytest.approx(pseudo_distance(w, z), abs=1e-12)

    @given(disc_points, disc_points)
    def test_range(self, z, w):
        d = pseudo_distance(z, w)
        assert 0.0 <= d < 1.0

    @given(disc_points, disc_points, disc_points)
    @settings(max_examples=200)
    def test_strong_triangle_inequality(self, z, w, zeta):
        a = pseudo_distance(z, zeta)
        b = pseudo_distance(zeta, w)
        assert pseudo_distance(z, w) <= pseudo_add(a, b) + 1e-12

    @given(disc_points, disc_points, disc_points)
    @settings(max_examples=200)
    def test_mobius_invariance(self, a, z, w):
        d0 = pseudo_distance(z, w)
        d1 = pseudo_distance(mobius(a, z), mobius(a, w))
        assert d1 == pytest.approx(d0, abs=1e-9)


class TestMobius:
    @given(disc_points, disc_points)
    def test_involution(self, a, z):
        assert mobius(a, mobius(a, z)) == pytest.approx(z, abs=1e-12)

    @given(disc_points)
    def test_swaps_zero_and_a(self, a):
        assert mobius(a, 0.0) == pytest.approx(a)
        assert abs(mobius(a, a)) < 1e-12


class TestPseudoDisk:
    def test_euclidean_parameters(self):
        # Delta(0.5, 0.5): center (1-r^2) z / (1-r^2 |z|^2), radius r(1-|z|^2)/(1-r^2|z|^2)
        d = pseudo_disk(0.5, 0.5)
        denom = 1.0 - 0.25 * 0.25
        assert d.euclid_center == pytest.approx(0.75 * 0.5 / denom)
        assert d.euclid_radius == pytest.approx(0.5 * 0.75 / denom)

    def test_centered_disk_is_euclidean(self):
        d = pseudo_disk(0.0, 0.3)
        assert d.euclid_center == 0.0
        assert d.euclid_radius == pytest.approx(0.3)

    @given(disc_points, st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=100)
    def test_boundary_points_at_distance_r(self, z, r):
        d = pseudo_disk(z, r)
        for w in d.boundary_points(8):
            assert pseudo_distance(z, w) == pytest.approx(r, abs=1e-9)

    def test_contains(self):
        d = pseudo_disk(0.4, 0.3)
        assert d.contains(0.4)
        assert not d.contains(-0.4)

    def test_invalid_radius(self):
        with pytest.raises(DomainError):
            pseudo_disk(0.0, 1.5)


class TestCarlesonSet:
    def test_anchor_zero_is_whole_disc(self):
        s = CarlesonSet(0.0)
        assert s.contains(0.9j)

    def test_membership(self):
        # S(a) contains a and hugs the boundary near a / |a|
        s = CarlesonSet(0.5)
        assert s.contains(0.5)
        assert s.contains(0.9)
        assert not s.contains(-0.5)

    @given(st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9, allow_infinity=False, allow_nan=False))
    def test_anchor_inside(self, a):
        assert CarlesonSet(a).contains(a)


class TestLattice:
    def test_certificates(self, lattice_small):
        lat = lattice_small
        assert lat.min_separation() >= lat.radius / 2.0 - 1e-12
        grid = audit_grid(2000, lat.r_max)
        assert lat.covering_fraction(grid) == 1.0
        assert lat.multiplicity(grid) <= lat.multiplicity_bound

    def test_deterministic(self, fresh_result_caches):
        a = build_lattice(0.5, 0.8)
        fresh_result_caches()
        b = build_lattice(0.5, 0.8)
        assert b is not a and np.array_equal(a.points, b.points)

    def test_one_build_per_key(self):
        # a lattice is built once per (r, r_max) and shared read-only; a bad
        # radius raises every time and leaves nothing in the cache
        a = build_lattice(0.5, 0.8)
        assert build_lattice(np.float64(0.5), 0.8) is a
        assert geometry._lattice.cache_info()[:2] == (1, 1)
        with pytest.raises(ValueError):
            a.points[0] = 0.0
        for _ in range(2):
            with pytest.raises(DomainError):
                build_lattice(1.5, 0.8)
        assert geometry._lattice.cache_info().currsize == 1

    def test_json_round_trip(self, lattice_small):
        text = lattice_small.to_json()
        back = Lattice.from_json(text)
        assert np.array_equal(back.points, lattice_small.points)
        assert back.to_json() == text

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            build_lattice(-0.1)
        with pytest.raises(DomainError):
            build_lattice(1.0)
        with pytest.raises(DomainError):
            build_lattice(0.3, 1.0)

    @pytest.mark.parametrize("r_max", [-0.5, 0.0, -2.0])
    def test_r_max_must_lie_in_the_open_unit_interval(self, r_max):
        # -0.5 built 9 points at |z| = 0.5, 0.0 the single point 0, and -2.0
        # failed later in the audit
        with pytest.raises(DomainError, match="r_max"):
            build_lattice(0.3, r_max)

    @pytest.mark.parametrize("r, cells", [(0.2, 88), (0.3, 99), (0.5, 152), (0.6, 213)])
    def test_multiplicity_bound_is_the_packing_bound(self, r, cells):
        # Mobius addition adds hyperbolic radii atanh(rho), and the cell
        # rho^2 / (1 - rho^2) of a pseudo-disk is sinh(atanh(rho))^2: the
        # disjoint Delta(a_k, r/4) of the centers in Delta(z, pseudo_add(r, r))
        # fit in the cell of hyperbolic radius 2 atanh(r) + atanh(r/4)
        q = np.arctanh(r / 4.0)
        assert int(np.sinh(2.0 * np.arctanh(r) + q) ** 2 / np.sinh(q) ** 2) == cells
        assert build_lattice(r, 0.95).multiplicity_bound == cells

    def test_multiplicity_certificate_fails_on_a_cluster(self):
        # 200 points within pseudo-distance 0.05 of 0.3 all lie in the doubled
        # disk of every grid point near 0.3: more hits than the r = 0.5 bound
        bound = build_lattice(0.5, 0.99).multiplicity_bound
        k = np.arange(200)
        cluster = mobius(0.3, 0.05 * np.sqrt((k + 0.5) / 200) * np.exp(2j * np.pi * 0.618 * k))
        lat = Lattice(0.5, 0.99, cluster, bound)
        assert lat.multiplicity(audit_grid(2000, 0.99)) > lat.multiplicity_bound


def _reference_points(r, r_max):
    """The scalar greedy: every candidate against every recent accepted point."""
    sep = r / 2.0
    accepted_per_ring = []
    for _, cands in geometry._candidate_rings(r, r_max):
        recent = [p for ring_pts in accepted_per_ring[-5:] for p in ring_pts]
        recent_arr = np.array(recent) if recent else np.empty(0, dtype=complex)
        this_ring = []
        for c in cands:
            if recent_arr.size and np.min(pseudo_distance(recent_arr, c)) < sep:
                continue
            if this_ring and np.min(pseudo_distance(np.array(this_ring), c)) < sep:
                continue
            this_ring.append(c)
        accepted_per_ring.append(this_ring)
    return np.array([p for ring in accepted_per_ring for p in ring])


def _reference_min_separation(pts):
    best = 1.0
    for i in range(len(pts) - 1):
        best = min(best, float(np.min(pseudo_distance(pts[i], pts[i + 1 :]))))
    return best


def _reference_covering_fraction(pts, r, grid):
    covered = np.zeros(len(grid), dtype=bool)
    for a in pts:
        covered |= pseudo_distance(grid, a) < r
    return float(np.mean(covered))


def _reference_multiplicity(pts, r, grid):
    counts = np.zeros(len(grid), dtype=int)
    for a in pts:
        counts += pseudo_distance(grid, a) < pseudo_add(r, r)
    return int(np.max(counts))


def _assert_matches_reference(r, r_max):
    lat = build_lattice(r, r_max)
    pts = _reference_points(r, r_max)
    assert np.array_equal(lat.points, pts)
    grid = audit_grid(2000, r_max)
    assert lat.min_separation() == _reference_min_separation(pts)
    assert lat.covering_fraction(grid) == _reference_covering_fraction(pts, r, grid)
    assert lat.multiplicity(grid) == _reference_multiplicity(pts, r, grid)


class TestWindowedLattice:
    """The windowed build and audits against the scalar loops they replace."""

    # (0.5, 0.99): the multiplicity threshold pseudo_add(r, r) = 0.8 prunes
    # little; (0.8, 0.9): a coarse lattice whose inner rings have no window
    @pytest.mark.parametrize("r, r_max", [(0.3, 0.95), (0.5, 0.99), (0.15, 0.95), (0.8, 0.9)])
    def test_matches_scalar_loops(self, r, r_max):
        _assert_matches_reference(r, r_max)

    @given(r=st.floats(0.15, 0.9), data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_matches_scalar_loops_property(self, r, data):
        # a lattice has about 5 / (r^2 (1 - r_max)) points; the scalar
        # reference stays near a second with at most about 2,000 of them
        r_max = data.draw(st.floats(0.5, min(0.99, 1.0 - 2.5e-3 / (r * r))))
        _assert_matches_reference(r, r_max)

    @given(
        pts=st.lists(disc_points, min_size=1, max_size=30),
        grid=st.lists(disc_points, min_size=1, max_size=30),
        r=st.floats(0.05, 0.7),
    )
    @settings(max_examples=100, deadline=None)
    def test_audits_match_scalar_loops_on_any_points(self, pts, grid, r):
        # loaded point sets need not be separated, so min_separation may
        # have to fall back to every pair
        pts, grid = np.array(pts, dtype=complex), np.array(grid, dtype=complex)
        lat = Lattice(r, 0.97, pts, len(pts))
        assert lat.min_separation() == _reference_min_separation(pts)
        assert lat.covering_fraction(grid) == _reference_covering_fraction(pts, r, grid)
        assert lat.multiplicity(grid) == _reference_multiplicity(pts, r, grid)

    @given(
        q=st.lists(disc_points, min_size=1, max_size=40),
        steps=st.lists(
            st.tuples(st.floats(0.9, 1.0, exclude_max=True), st.floats(-np.pi, np.pi)),
            min_size=1,
            max_size=40,
        ),
        thr=st.floats(0.01, 1.2),
    )
    # a subnormal modulus, whose window denominators underflow
    @example(q=[5e-324 + 0j], steps=[(0.9375, 0.0)], thr=0.96875)
    # q = 0 has the window pi, and p = -0.25 sits at exactly the opposite
    # angle: the window's two ends both hold p, which is handed out once
    @example(q=[0j], steps=[(0.5, 0.0)], thr=0.5)
    @settings(max_examples=200, deadline=None)
    def test_close_pairs_hold_every_near_pair_once(self, q, steps, thr):
        # p[k] sits just inside pseudo-distance thr of q[k % len(q)]
        q = np.array(q, dtype=complex)
        p = np.array([
            mobius(q[k % len(q)], min(thr, 0.999) * s * np.exp(1j * phi))
            for k, (s, phi) in enumerate(steps)
        ])
        seen = []
        for i, j in geometry._close_pairs(q, p, thr):
            seen += list(zip(i.tolist(), j.tolist()))
        assert len(seen) == len(set(seen))
        d = pseudo_distance(q[:, None], p[None, :])
        near = set(zip(*(idx.tolist() for idx in np.nonzero(d < thr))))
        assert near <= set(seen)

    @given(
        aq=st.floats(0.0, 0.999),
        ends=st.tuples(st.floats(0.0, 0.9999), st.floats(0.0, 0.9999)),
        thr=st.floats(1e-3, 0.999),
        angle=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=300, deadline=None)
    # the disk Delta(0.5, 0.3) holds no circle of the band, which its centre splits
    @example(aq=0.5, ends=(0.4, 0.6), thr=0.3, angle=0.0)
    # the disk holds the origin, and the band lies beyond it
    @example(aq=0.2, ends=(0.35, 0.6), thr=0.3, angle=1.0)
    @example(aq=5e-324, ends=(0.0, 0.5), thr=0.5, angle=0.0)
    def test_disk_window_is_sound(self, aq, ends, thr, angle):
        # every point with modulus in the band at an angular gap beyond the
        # window of q is at least thr from q, and the window warns nowhere
        b_lo, b_hi = sorted(ends)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            half = float(geometry._disk_window(aq, b_lo, b_hi, thr * (1.0 + geometry._PRUNE_MARGIN)))
        assert 0.0 <= half <= np.pi
        if half == np.pi:
            return
        b = np.linspace(b_lo, b_hi, 33)[:, None]
        t = half + np.linspace(0.0, 1.0, 33)[None, :] * (np.pi - half)
        q = aq * np.exp(1j * angle)
        assert np.all(pseudo_distance(q, b * np.exp(1j * (angle + t))) >= thr)
        assert np.all(pseudo_distance(q, b * np.exp(1j * (angle - t))) >= thr)

    @given(
        aq=st.floats(0.0, 0.999),
        ends=st.tuples(st.floats(0.0, 0.9999), st.floats(0.0, 0.9999)),
        thr=st.floats(1e-3, 0.999),
        angle=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=300, deadline=None)
    # the disk holds the origin, and the whole band
    @example(aq=0.1, ends=(0.0, 0.2), thr=0.5, angle=0.0)
    # q = 0, and a band from the origin to just inside the disk
    @example(aq=0.0, ends=(0.0, 0.49), thr=0.5, angle=1.0)
    @example(aq=5e-324, ends=(0.0, 0.5), thr=0.5, angle=0.0)
    def test_inner_window_is_sound(self, aq, ends, thr, angle):
        # every point with modulus in the band at an angular gap strictly
        # inside the inner window of q is within thr of q, and the window
        # warns nowhere
        b_lo, b_hi = sorted(ends)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            half = float(geometry._inner_window(aq, b_lo, b_hi, thr * (1.0 - geometry._PRUNE_MARGIN)))
            assert half <= float(geometry._disk_window(aq, b_lo, b_hi, thr * (1.0 + geometry._PRUNE_MARGIN)))
        assert 0.0 <= half <= np.pi
        if half == 0.0:
            return
        b = np.linspace(b_lo, b_hi, 33)[:, None]
        t = np.linspace(0.0, 1.0, 33, endpoint=False)[None, :] * half
        q = aq * np.exp(1j * angle)
        assert np.all(pseudo_distance(q, b * np.exp(1j * (angle + t))) < thr)
        assert np.all(pseudo_distance(q, b * np.exp(1j * (angle - t))) < thr)

    def test_inner_window_is_empty_where_a_circle_misses_the_disk(self):
        # b_hi = 0.9 lies beyond Delta(0.5, 0.3); q = 0 against a band that
        # reaches its boundary; and a band whose circle through 0 is on it
        assert geometry._inner_window(0.5, 0.4, 0.9, 0.3) == 0.0
        assert geometry._inner_window(0.0, 0.1, 0.3, 0.3) == 0.0
        assert geometry._inner_window(0.3, 0.0, 0.2, 0.3) == 0.0
        assert geometry._inner_window(0.0, 0.0, 0.2, 0.3) == np.pi

    def test_disk_window_is_the_exact_gap(self):
        # at the modulus where the band meets Delta(q, thr) widest, the
        # window's edge lies on the disk's boundary circle
        aq, thr = 0.5, 0.3
        s = thr * thr
        c = (1.0 - s) * aq / (1.0 - s * aq * aq)
        R = thr * (1.0 - aq * aq) / (1.0 - s * aq * aq)
        b = np.sqrt(c * c - R * R)
        half = float(geometry._disk_window(aq, 0.1, 0.9, thr))
        assert pseudo_distance(aq, b * np.exp(1j * half)) == pytest.approx(thr, rel=1e-12)

    # q = 0 against a band from the origin, thr >= 1, and a disk that holds
    # the origin against a band from it: a circle of the band lies in the disk
    @pytest.mark.parametrize("aq, b_lo, b_hi, thr", [
        (0.0, 0.0, 0.5, 0.3), (5e-324, 0.0, 0.5, 0.3), (0.5, 0.2, 0.9, 1.0),
        (0.5, 0.2, 0.9, 1.2), (0.2, 0.0, 0.9, 0.3), (0.2, 0.05, 0.9, 0.3),
    ])
    def test_disk_window_is_pi_where_the_disk_holds_a_circle(self, aq, b_lo, b_hi, thr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geometry._disk_window(aq, b_lo, b_hi, thr) == np.pi
            assert np.array_equal(geometry._disk_window(np.array([aq, aq]), b_lo, b_hi, thr), [np.pi, np.pi])

    @given(
        windows=st.lists(
            st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.9999), st.floats(0.0, 0.9999)),
            min_size=1,
            max_size=12,
        ),
        thr=st.floats(1e-3, 1.2),
    )
    @settings(max_examples=200, deadline=None)
    # the build's call: sources at the origin and beyond, on the band [rho, rho]
    @example(windows=[(0.0, 0.3, 0.3), (0.2, 0.3, 0.3), (0.3, 0.3, 0.3)], thr=0.1001)
    @example(windows=[(0.0, 0.0, 0.0), (5e-324, 0.5, 0.5)], thr=0.5)
    def test_disk_window_on_arrays_is_the_scalar_window(self, windows, thr):
        # one array call equals the scalar calls element by element, for
        # array bands and for the one band [rho, rho] that build_lattice takes
        aq, ends_a, ends_b = (np.array(col) for col in zip(*windows))
        b_lo, b_hi = np.minimum(ends_a, ends_b), np.maximum(ends_a, ends_b)
        scalar = [float(geometry._disk_window(*args, thr)) for args in zip(aq, b_lo, b_hi)]
        assert np.array_equal(geometry._disk_window(aq, b_lo, b_hi, thr), scalar)
        rho = float(b_lo[0])
        scalar = [float(geometry._disk_window(a, rho, rho, thr)) for a in aq]
        assert np.array_equal(geometry._disk_window(list(aq), rho, rho, thr), scalar)

    @given(
        loose=st.lists(disc_points, max_size=20),
        rings=st.lists(
            st.tuples(st.floats(0.0, 0.97), st.integers(1, 24), st.floats(-np.pi, np.pi)),
            max_size=5,
        ),
        grid=st.lists(disc_points, min_size=1, max_size=30),
        r=st.floats(0.5, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    # the multiplicity threshold of r = 0.5 is 0.8; points of one modulus, q = 0
    @example(loose=[], rings=[(0.5, 12, 0.0), (0.7, 8, 0.3)], grid=[0j, 0.6 + 0j, -0.2j], r=0.5)
    def test_inner_window_counts_match_brute_force(self, loose, rings, grid, r):
        # multiplicity thresholds D = 2r / (1 + r^2) >= 0.8, on points the
        # build did not make: loose points and rings of equal moduli, read
        # back from JSON as a Lattice
        ring_points = [rho * np.exp(1j * (phase + 2.0 * np.pi * k / m)) for rho, m, phase in rings for k in range(m)]
        pts = np.array(loose + ring_points, dtype=complex)
        if not pts.size:
            return
        grid = np.array(grid, dtype=complex)
        D = pseudo_add(r, r)
        assert D >= geometry._INNER_FROM  # _near_counts takes the inner windows
        brute = np.sum(pseudo_distance(grid[:, None], pts[None, :]) < D, axis=1)
        assert np.array_equal(geometry._near_counts(grid, pts, D), brute)
        text = json.dumps({
            "r": r, "r_max": 0.97, "points": [[p.real, p.imag] for p in pts],
            "multiplicity_bound": len(pts),
        })
        assert Lattice.from_json(text).multiplicity(grid) == int(np.max(brute))

    def test_band_out_of_reach_gives_no_pairs(self):
        # a band beyond the disk: the window is 0, and _close_pairs hands out
        # no pair, whether the radial bound or the window rules the band out
        assert geometry._disk_window(0.0, 0.4, 0.5, 0.3) == 0.0
        assert geometry._disk_window(0.2, 0.8, 0.9, 0.3) == 0.0
        ring = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
        for q in (np.array([0.0j]), np.array([0.2 + 0.1j, -0.3j])):
            assert list(geometry._close_pairs(q, ring, 0.3)) == []

    def test_audits_reject_points_outside_the_disc(self):
        lat = Lattice(0.3, 0.9, np.array([0.0, 1.0 + 0.0j]), 2)
        with pytest.raises(DomainError):
            lat.min_separation()
        with pytest.raises(DomainError):
            build_lattice(0.3, 0.9).covering_fraction(np.array([1.5 + 0.0j]))


class TestRingWindows:
    """The index windows on the candidate spiral that build_lattice searches."""

    # point count and sha256 of points.tobytes() for every (r, r_max) that
    # verify and the sweep build, taken from the band-and-window build
    @pytest.mark.parametrize("r, r_max, count, digest", [
        (0.2, 0.99, 13412, "8eaf23775f5be9fc0094cf1c3f0660f97fa22b4eda09484404273a67879599cd"),
        (0.5, 0.99, 2188, "ea13053c4bb0832adda2205e14595a4504334e8c573ec81bbcc9b77d3e622ea2"),
        (0.3, 0.95, 1130, "93cb75190a718a54569d96e124d5a4dbb055bbd7509ac2cf6995236626b614eb"),
        (0.15, 0.95, 4449, "485d693e8d4a6b09bf2513fd1cdde29de3c820f96803d904490ae9212f145523"),
        (0.3, 0.9, 530, "a7297ae2e52513934b42abc9aeff76139c94f27cbe7b1f5b834f9e12cb5fd4cb"),
        (0.4, 0.95, 642, "6549dd524ccf2df6e8be5d423b2ec74b0b55616d9a5d1744ac9fb78f264afc42"),
        (0.5, 0.95, 409, "2a6b632c9693a6fe610728e6901908355482c8d62a537b9d5746a93e8afb366c"),
        (0.6, 0.995, 3041, "681ecaaac82e763bf707bc3c7327ae79182b301a62950cce95f639c50e374087"),
        (0.8, 0.9, 76, "3a9a9ae40410e7e63241cd45dca695b4b2da3853dcb3433d88489ad95372dcb5"),
    ])
    def test_pinned_points(self, r, r_max, count, digest):
        pts = build_lattice(r, r_max).points
        assert len(pts) == count
        assert hashlib.sha256(pts.tobytes()).hexdigest() == digest

    @given(r=st.floats(0.1, 0.9), r_max=st.floats(0.05, 0.9), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_index_window_is_sound(self, r, r_max, data):
        # model: test_disk_window_is_sound.  Of two rings at most five
        # apart, every candidate of the later one (or the same one) within sep
        # of a candidate k of the earlier lies in the window of k, unless the
        # radial bound already rules the two rings out
        rings = geometry._candidate_rings(r, r_max)
        a = data.draw(st.integers(0, len(rings) - 1))
        b = data.draw(st.integers(max(0, a - 5), a))
        (rho, cands), (rho_b, src) = rings[a], rings[b]
        sep = r / 2.0
        thr = sep * (1.0 + geometry._PRUNE_MARGIN)
        m, m_src = cands.size, src.size
        # at most 64 candidates k, from a drawn start
        k = (data.draw(st.integers(0, m_src - 1)) + np.arange(min(m_src, 64))) % m_src
        near = pseudo_distance(src[k][:, None], cands[None, :]) < sep
        if abs(rho - rho_b) / (1.0 - rho * rho_b) >= thr:
            assert not np.any(near)
            return
        half = geometry._disk_window(rho_b, rho, rho, thr)
        lo, count = geometry._index_window(k, m_src, m, half)
        inside = (np.arange(m)[None, :] - lo[:, None]) % m < count[:, None]
        assert np.all(inside[near])

    def test_build_distances_are_pinned(self, monkeypatch):
        # every pseudo_distance that the build of (0.2, 0.99) evaluates.  Each
        # point meets a ring in the exact window of its disk on the ring's
        # circle (_disk_window): 543,254 distances.  A lower bound at the
        # smaller of the two moduli took 708,885.
        counted = [0]

        def counting(z, w):
            out = pseudo_distance(z, w)
            counted[0] += np.size(out)
            return out

        monkeypatch.setattr(geometry, "pseudo_distance", counting)
        assert len(build_lattice(0.2, 0.99).points) == 13412
        assert counted == [543_254]

    @given(m=st.integers(1, 200), half=st.one_of(st.just(np.pi), st.floats(1e-3, np.pi)), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_earlier_pairs_are_the_window_pairs(self, m, half, data):
        keep = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m))), dtype=int)
        i, j = geometry._earlier_pairs(keep, m, half)
        assert np.all(np.diff(j) >= 0)
        lo, count = geometry._index_window(keep, m, m, half)
        want = {(a, b) for b in range(keep.size) for a in range(b)
                if (keep[a] - lo[b]) % m < count[b]}
        got = list(zip(i.tolist(), j.tolist()))
        assert len(got) == len(set(got)) and set(got) == want


class TestBoundaryLadder:
    def test_dyadic_radii(self):
        lad = boundary_ladder(4, 8)
        assert lad.radii == (0.5, 0.75, 0.875, 0.9375)

    def test_ring_points_on_ring(self):
        lad = boundary_ladder(3, 16)
        pts = lad.ring_points(1)
        assert np.allclose(np.abs(pts), lad.radii[1])
        assert len(lad.points()) == 3 * 16

    @given(n_rings=st.integers(2, 8), samples=st.integers(1, 12), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_ring_max_matches_per_ring_loop(self, n_rings, samples, data):
        lad = boundary_ladder(n_rings, samples)
        n = n_rings * samples
        values = data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
        want, offset = [], 0
        for j in range(len(lad.radii)):
            size = lad.ring_points(j).size
            want.append(float(np.max(values[offset : offset + size])))
            offset += size
        assert lad.ring_max(values) == want

    def test_monotone_radii_required(self):
        with pytest.raises(DomainError):
            BoundaryLadder(radii=(0.5, 0.4), samples_per_ring=4)

    def test_one_ring_required(self):
        # the ladder criteria ended in numpy's "need at least one array to
        # concatenate" from points(); an empty ladder is refused where it is made
        with pytest.raises(DomainError, match="at least one ring"):
            BoundaryLadder(radii=(), samples_per_ring=4)
        assert BoundaryLadder(radii=(0.5,), samples_per_ring=4).points().size == 4

    def test_one_sample_per_ring_required(self):
        # an empty ladder ended in numpy's zero-size reduction error
        for samples in (0, -3):
            with pytest.raises(DomainError, match="sample per ring"):
                boundary_ladder(5, samples)

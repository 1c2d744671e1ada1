"""Weights: evaluation, masses, and joint-average constants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman_lab import (
    CarlesonSet,
    DomainError,
    EvaluationError,
    bekolle_constant,
    boundary_ladder,
    constant,
    cp_constant,
    disk_masses,
    grid_weight,
    mass,
    power_one_minus_z,
    pseudo_disk,
    standard,
    weight_from_config,
)
from bergman_lab import quadrature, verification, weights
from bergman_lab.quadrature import _polar_rule, disc_rule, region_integrals, region_quadrature
from bergman_lab.weights import _joint_averages, _region_masses, on_moduli

_XS = np.linspace(-1, 1, 8)
_WEIGHTS = [
    constant(),
    constant(2.5),
    standard(-0.5),
    standard(0.5),
    standard(1.0),
    power_one_minus_z(-0.5),
    power_one_minus_z(1.0),
    grid_weight(1.0 + 0.5 * np.add.outer(_XS, _XS) ** 2, 8),
]
# points of the disc up to |z| = 0.99
_POINT = st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 2 * np.pi)).map(
    lambda p: complex(p[0] * np.exp(1j * p[1]))
)


def _reference_mass(u, z, r, resolution):
    """mass(u, pseudo_disk(z, r), resolution) as a per-disk rule computes it."""
    d = pseudo_disk(z, r)
    if u.kind == "constant":
        return float(u.params["value"]) * np.pi * float(d.euclid_radius) ** 2
    x, w = _polar_rule(resolution, 4 * resolution, 1.0)
    rho = d.euclid_radius
    return float(np.sum(rho**2 * w * u(d.euclid_center + rho * x)))


def _two_pass_average(u, p, region, resolution):
    """<u>_E (<u^(-p'/p)>_E)^(p-1) from two integrations on region_quadrature: one of u, one of u^(-p'/p)."""
    q = region_quadrature(region, resolution)
    m1 = q.integrate(u)
    m2 = q.integrate(lambda z: np.asarray(u(z), dtype=float) ** (-1.0 / (p - 1.0)))
    return (m1 / q.area) * (m2 / q.area) ** (p - 1.0)


class TestWeightEvaluation:
    def test_constant(self):
        u = constant(2.0)
        assert np.allclose(u(np.array([0.1, 0.5j])), 2.0)

    def test_standard(self):
        u = standard(1.0)
        assert u(np.array([0.6 + 0.0j]))[0] == pytest.approx(1.0 - 0.36)

    def test_power_one_minus_z(self):
        u = power_one_minus_z(2.0)
        assert u(np.array([0.5j]))[0] == pytest.approx(abs(1.0 - 0.5j) ** 2)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_constant_and_standard_refuse_numbers_out_of_range(self, bad):
        # nan fails every comparison, so "value <= 0" alone let it pass
        with pytest.raises(DomainError):
            constant(bad)
        with pytest.raises(DomainError):
            standard(bad - 1.0)

    def test_config_round_trip(self):
        for u in (constant(3.0), standard(0.5), power_one_minus_z(1.5)):
            v = weight_from_config(u.config())
            z = np.array([0.3 + 0.2j, -0.6j])
            assert np.allclose(u(z), v(z))

    def test_grid_weight_positive(self):
        n = 32
        xs = np.linspace(-1, 1, n)
        samples = 1.0 + 0.5 * np.add.outer(xs, xs) ** 2
        u = grid_weight(samples, n)
        vals = u(np.array([0.0 + 0.0j, 0.5 + 0.1j]))
        assert np.all(vals > 0)


    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    def test_grid_weight_matches_scipy_interpolator(self, n):
        # bilinear in the cell that holds the point, edge cells extrapolated
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(n)
        samples = rng.uniform(0.1, 3.0, (n, n))
        axis = np.linspace(-1.0, 1.0, n)
        interp = RegularGridInterpolator(
            (axis, axis), samples, method="linear", bounds_error=False, fill_value=None
        )

        def scipy_weight(z):
            pts = np.stack([np.imag(z).ravel(), np.real(z).ravel()], axis=-1)
            return np.maximum(interp(pts).reshape(np.shape(z)), 1e-12)

        u = grid_weight(samples, n)
        r = np.sqrt(rng.uniform(0.0, 1.0, 4000))
        disc = np.concatenate([r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 4000)),
                               axis, 1j * axis, 0.7 * (axis + 1j * axis[::-1]), [1.0, -1j]])
        want = scipy_weight(disc)
        assert np.max(np.abs(u(disc) - want) / want) <= 1e-14
        assert np.array_equal(u(disc[:4000].reshape(40, 100)), u(disc[:4000]).reshape(40, 100))
        outside = rng.uniform(-1.3, 1.3, 500) + 1j * rng.uniform(-1.3, 1.3, 500)
        assert np.max(np.abs(u(outside) - scipy_weight(outside))) <= 1e-13 * np.max(samples)


class TestMass:
    def test_constant_disk_exact(self):
        d = pseudo_disk(0.5, 0.4)
        assert mass(constant(), d) == pytest.approx(np.pi * d.euclid_radius**2)

    def test_scaling(self):
        d = pseudo_disk(0.2, 0.3)
        assert mass(constant(5.0), d) == pytest.approx(5.0 * mass(constant(), d))

    def test_standard_whole_disc(self):
        # int (1 - |z|^2) dA = pi/2
        assert disc_rule(64, 256).integrate(standard(1.0)) == pytest.approx(np.pi / 2, rel=1e-8)

    def test_carleson_set_mass_positive(self):
        v = mass(standard(1.0), CarlesonSet(0.5 + 0.2j))
        assert 0 < v < np.pi


class TestDiskMasses:
    @given(
        u=st.sampled_from(_WEIGHTS),
        r=st.floats(0.05, 0.9),
        points=st.lists(_POINT, min_size=1, max_size=40),
        resolution=st.sampled_from([8, 24, 32, 64]),
    )
    @settings(max_examples=40, deadline=None)
    # a radius whose float ** 2 and numpy square differ in the last bit
    @example(u=standard(1.0), r=0.2847746825383361,
             points=[-0.1240977221040393 - 0.2548723229595808j], resolution=32)
    def test_matches_per_point_loop(self, u, r, points, resolution):
        # at resolution 64 a block holds 4 disks, so 40 points span ten blocks
        rotated = np.array([_reference_mass(u, z, r, resolution) for z in points])
        got = disk_masses(u, r, points, resolution)
        if u.is_radial:
            # Delta(z, r) turns with z: one disk per modulus, centred at |z|
            want = np.array([_reference_mass(u, abs(z), r, resolution) for z in points])
            # the turned rule differs from the rotated one by less than the rule's
            # own discretization error, estimated by the doubled rule (1e-10 once
            # the rule resolves the weight)
            finer = np.array([_reference_mass(u, z, r, 2 * resolution) for z in points])
            assert np.all(np.abs(got - rotated) <= 1e-10 * rotated + 2 * np.abs(rotated - finer))
            if resolution >= 48:
                assert np.allclose(got, rotated, rtol=1e-10, atol=0.0)
        else:
            want = rotated
            # entry k is the one-disk rule of its pseudo-disk, bit for bit
            one = [region_quadrature(pseudo_disk(z, r), resolution).integrate(u) for z in points]
            assert np.array_equal(got, one)
        assert np.array_equal(got, want)
        if u.kind == "constant":
            # pi c R^2 depends on |z| alone: the same bits as before
            assert np.array_equal(got, rotated)
        assert mass(u, pseudo_disk(points[-1], r), resolution) == want[-1]

    def test_radial_masses_are_taken_once_per_key(self):
        # new weight objects of one power share an entry; the entry is
        # read-only and every caller gets its own array
        points = [0.3, 0.3j, -0.5]
        first = disk_masses(standard(0.5), 0.3, points, 32)
        again = disk_masses(standard(0.5), np.float64(0.3), points[::-1], 32)
        assert weights._radial_masses.cache_info()[:2] == (1, 1)
        assert np.array_equal(again, first[::-1])
        first[0] = 0.0
        assert disk_masses(standard(0.5), 0.3, points, 32)[0] == again[-1]
        assert not weights._radial_masses((1.0, 0.5), 0.3, np.array([0.3, 0.5]).tobytes(), 32).flags.writeable
        # standard(0) has the power (1, 0) of constant(1): the two share an entry
        hits = weights._radial_masses.cache_info().hits
        disk_masses(standard(0.0), 0.3, points, 32)
        disk_masses(constant(), 0.3, points, 32)
        assert weights._radial_masses.cache_info()[:2] == (hits + 1, 2)

    def test_standard_zero_is_constant_one(self):
        # one weight u == 1 under two names: the closed form pi R^2, bit for
        # bit, whichever of the two fills the cache
        points = np.linspace(0.0, 0.95, 40)
        want = disk_masses(constant(), 0.3, points, 32)
        weights._radial_masses.cache_clear()
        assert np.array_equal(disk_masses(standard(0.0), 0.3, points, 32), want)

    @pytest.mark.parametrize("u", [constant(), constant(2.5), standard(0.0), standard(-0.5), standard(1.5)])
    def test_radial_carleson_masses_are_the_uncached_integrals(self, u):
        # u(S(a)) of a radial u comes from the radial-mass cache: one S(|a|)
        # per distinct modulus, each the region_integrals of u itself
        points = np.concatenate([boundary_ladder(6, 8).points(), [0.0, 0.3, -0.3j, 0.5 + 0.5j]])

        def uncached(pts):
            return region_integrals(u, [CarlesonSet(complex(a)) for a in pts], 48)

        want = on_moduli(uncached, points)
        got = _region_masses(u, CarlesonSet, points, 48)
        assert np.array_equal(got, want)
        moduli = np.unique(np.abs(points))
        entry = weights._radial_masses(u.power, None, moduli.tobytes(), 48)
        assert not entry.flags.writeable
        assert np.array_equal(entry, uncached(moduli))

    def test_carleson_entries_are_rebuilt_after_check_15_clears_them(self):
        points = [0.31, 0.47j, -0.62]
        first = _region_masses(standard(0.5), CarlesonSet, points, 48)
        assert weights._radial_masses.cache_info().currsize == 1
        verification._determinism_artifacts()  # empties the lattice and radial-mass caches
        misses = weights._radial_masses.cache_info().misses
        again = _region_masses(standard(0.5), CarlesonSet, points, 48)
        assert weights._radial_masses.cache_info().misses == misses + 1
        assert np.array_equal(again, first)
        # a disk family and a Carleson family at one set of moduli are two entries
        disk_masses(standard(0.5), 0.3, points, 48)
        assert weights._radial_masses.cache_info().misses == misses + 2

    def test_pseudo_disk_validation(self):
        with pytest.raises(DomainError):
            disk_masses(standard(1.0), 1.2, [0.1], 32)
        with pytest.raises(DomainError):
            disk_masses(standard(1.0), 0.3, [0.1, 1.0], 32)
        with pytest.raises(DomainError):
            disk_masses(standard(1.0), 0.3, [0.1], 2)


class TestJointAverages:
    def test_constant_weight_is_one(self):
        # both averages of a constant weight are exactly 1 at every anchor
        rep = bekolle_constant(constant(), 2.0, anchors=[0.3, 0.5j, -0.7])
        assert rep.index_value == pytest.approx(1.0, rel=1e-9)
        rep = cp_constant(constant(), 2.0, 0.4, centers=[0.0, 0.5, 0.6j])
        assert rep.index_value == pytest.approx(1.0, rel=1e-9)

    def test_scale_invariance(self):
        # joint average is invariant under u -> c u
        anchors = [0.2, 0.5, 0.7j]
        a = bekolle_constant(standard(1.0), 2.0, anchors=anchors).index_value
        # no direct scaling constructor: constant multiple via config of standard
        # weights is not expressible, so compare cp constants instead
        b = cp_constant(standard(1.0), 2.0, 0.3, centers=anchors).index_value
        assert a > 0 and b > 0

    def test_cp_at_most_bp_scale(self):
        # C_p constants over small disks are mild compared to the global B_p
        bp = bekolle_constant(standard(1.0), 2.0, anchors=[0.5, 0.8]).index_value
        cp = cp_constant(standard(1.0), 2.0, 0.3, centers=[0.5, 0.8]).index_value
        assert cp < bp * 10

    def test_requires_p_above_one(self):
        with pytest.raises(DomainError):
            bekolle_constant(constant(), 1.0, anchors=[0.1])

    @pytest.mark.parametrize(
        "u", [power_one_minus_z(0.5), power_one_minus_z(-0.5), grid_weight(np.add.outer(_XS, 2 * _XS) + 4.0, 8)]
    )
    def test_one_evaluation_is_the_two_pass_average(self, u):
        # u at the nodes once, both moments from those values: bit for bit the
        # two integrations, one of u and one of u^(-p'/p)
        anchors = [0.6 - 0.3j, 0.0, -0.4j, 0.3, 0.3j, -0.4j]
        for region_of, resolution in ((CarlesonSet, 48), (CarlesonSet, 16),
                                      (lambda a: pseudo_disk(a, 0.3), 32)):
            for p in (1.5, 2.0, 4.0):
                want = [_two_pass_average(u, p, region_of(a), resolution) for a in anchors]
                assert _joint_averages(u, p, region_of, anchors, resolution) == want

    @pytest.mark.parametrize("gamma", [0.5, 1.0, -0.5])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_turned_carleson_rules_match_their_own(self, gamma, p):
        # S(a) = (a / |a|) S(|a|): the rule of S(|a|) turned to each point, shared
        # by the points of one modulus, is region_quadrature(S(a)) bit for bit
        u = power_one_minus_z(gamma)
        rep = bekolle_constant(u, p, anchors=[0.3, -0.5j, 0.9 * np.exp(2j), 0.0, 0.3j],
                               ladder=boundary_ladder(12, 16))
        want = [_two_pass_average(u, p, CarlesonSet(complex(a)), 48) for a, _ in rep.per_point]
        assert [v for _, v in rep.per_point] == want
        rep = cp_constant(u, p, 0.3, centers=[0.3, -0.5j, 0.0], ladder=boundary_ladder(4, 8))
        want = [_two_pass_average(u, p, pseudo_disk(a, 0.3), 32) for a, _ in rep.per_point]
        assert [v for _, v in rep.per_point] == want

    @given(st.floats(min_value=0.2, max_value=0.8))
    @settings(max_examples=10, deadline=None)
    def test_cp_positive(self, rho):
        rep = cp_constant(standard(1.0), 2.0, 0.3, centers=[rho])
        assert rep.index_value >= 1.0 - 1e-6  # Jensen: joint average >= 1


class TestPerModulus:
    def test_on_moduli_scatters_one_value_per_distinct_modulus(self):
        seen = []

        def f(pts):
            seen.append(pts)
            return pts.real * 10.0

        points = np.array([0.5j, -0.3, 0.5, 0.0, 0.3j, 0.5])
        got = on_moduli(f, points)
        assert len(seen) == 1 and np.array_equal(seen[0], [0.0, 0.3, 0.5])
        assert np.array_equal(got, [5.0, 3.0, 5.0, 0.0, 3.0, 5.0])

    @pytest.mark.parametrize("u", _WEIGHTS)
    def test_one_disk_mass_is_a_batched_call_of_one_point(self, u):
        for z in (0.0, 0.7j, -0.5 + 0.6j, 0.98 * np.exp(2j)):
            d = pseudo_disk(z, 0.3)
            assert mass(u, d, 32) == disk_masses(u, 0.3, [z], 32)[0]
            assert mass(u, d) == disk_masses(u, 0.3, [0.1, z], 48)[1]

    @pytest.mark.parametrize("bad", [1.0, -1.0j, 1.5, np.nan, complex(np.nan, 0.2)])
    def test_points_outside_the_disc_raise(self, bad):
        from bergman_lab import power_density

        with pytest.raises(DomainError):
            disk_masses(standard(1.0), 0.3, [0.1, bad], 32)
        with pytest.raises(DomainError):
            power_density(0.6).disk_masses([bad, 0.2j], 0.3)
        with pytest.raises(DomainError):
            bekolle_constant(standard(1.0), 2.0, anchors=[0.2, bad])
        with pytest.raises(DomainError):
            cp_constant(standard(1.0), 2.0, 0.3, centers=[bad])

    @given(
        u=st.sampled_from([standard(-0.5), standard(1.0), standard(2.5)]),
        p=st.sampled_from([1.5, 2.0, 3.0]),
        anchors=st.lists(_POINT, min_size=1, max_size=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_constants_match_per_anchor_values(self, u, p, anchors):
        # one joint average per |a| agrees with the old one per anchor
        anchors = anchors + [a * 1j for a in anchors]
        lad = boundary_ladder(3, 4)
        for report, region_of, resolution in (
            (bekolle_constant(u, p, anchors=anchors, ladder=lad), CarlesonSet, 48),
            (cp_constant(u, p, 0.3, centers=anchors, ladder=lad),
             lambda a: pseudo_disk(a, 0.3), 32),
        ):
            got = np.array([v for _, v in report.per_point])
            want = np.array([_two_pass_average(u, p, region_of(complex(a)), resolution)
                             for a, _ in report.per_point])
            assert len(got) == len(anchors) + 12
            # the rules differ by a rotation, so only rounding separates them; the
            # factor u^(-1/(p-1)) = (1 - |z|^2)^(-alpha/(p-1)) amplifies it, up to
            # 3.5e-12 for alpha/(p-1) = 5 at |a| = 0.99 (below 4e-14 for <= 2)
            assert np.allclose(got, want, rtol=1e-11, atol=0.0)

    def test_constant_weight_constants_are_bit_identical(self):
        anchors = [0.3, 0.3j, -0.7, 0.7 * np.exp(1j)]
        rep = cp_constant(constant(2.0), 2.0, 0.4, centers=anchors)
        want = [_two_pass_average(constant(2.0), 2.0, pseudo_disk(a, 0.4), 32) for a in anchors]
        assert [v for _, v in rep.per_point] == want


def _count_disks(monkeypatch):
    """Wrap region_integrals wherever bergman_lab holds it; returns the region counts."""
    import sys

    from bergman_lab import quadrature

    original, counts = quadrature.region_integrals, []

    def counted(f, regions, resolution):
        counts.append(len(regions))
        return original(f, regions, resolution)

    for name, mod in list(sys.modules.items()):
        if name.startswith("bergman_lab") and getattr(mod, "region_integrals", None) is original:
            monkeypatch.setattr(mod, "region_integrals", counted)
    return counts


def test_average_profile_integrates_one_disk_per_modulus(monkeypatch):
    from bergman_lab import average_profile, disc_rule, power_density

    nodes = disc_rule(48, 96, 0.995).nodes
    distinct = np.unique(np.hypot(nodes.real, nodes.imag)).size
    counts = _count_disks(monkeypatch)
    average_profile(power_density(0.6), standard(1.0), 0.3, nodes)
    # one disk for mu and one for u per distinct modulus, not per node
    assert distinct <= 156 and sum(counts) <= 2 * distinct


def _record_carleson_anchors(monkeypatch):
    """Wrap region_quadrature wherever bergman_lab holds it; returns the Carleson anchors."""
    import sys

    anchors = []

    def recorded(region, resolution=48):
        if isinstance(region, CarlesonSet):
            anchors.append(complex(region.anchor))
        return region_quadrature(region, resolution)

    for name, mod in list(sys.modules.items()):
        if name.startswith("bergman_lab") and getattr(mod, "region_quadrature", None) is region_quadrature:
            monkeypatch.setattr(mod, "region_quadrature", recorded)
    return anchors


def test_vanishing_carleson_builds_rules_at_distinct_moduli(monkeypatch):
    from bergman_lab import power_density, vanishing_carleson_test

    anchors = _record_carleson_anchors(monkeypatch)
    ladder = boundary_ladder(6, 8)
    points = ladder.points()
    moduli = set(np.hypot(points.real, points.imag).tolist())
    vanishing_carleson_test(power_density(0.6), standard(1.0), 2.0, 2.0, ladder)
    # mu(S(a)) and u(S(a)) once each per distinct |a|, at the real anchor |a|
    assert all(a.imag == 0.0 for a in anchors)
    assert sorted(a.real for a in anchors) == sorted(2 * list(moduli))


def test_bekolle_constant_builds_rules_at_distinct_moduli(monkeypatch):
    anchors = _record_carleson_anchors(monkeypatch)
    ladder = boundary_ladder(6, 8)
    points = ladder.points()
    bekolle_constant(standard(1.0), 2.0, anchors=[0.5j, -0.5], ladder=ladder)
    # the anchors 0.5j and -0.5 share one rule; the ladder takes one per distinct |a|
    moduli = [0.5] + list(set(np.hypot(points.real, points.imag).tolist()))
    assert sorted(a.real for a in anchors) == sorted(moduli)
    assert all(a.imag == 0.0 for a in anchors)


def test_profile_lp_norm_integrates_one_disk_per_shell(monkeypatch):
    from bergman_lab import power_density, profile_lp_norm, weighted_area

    counts = _count_disks(monkeypatch)
    for mu, u in ((power_density(0.6), standard(1.0)), (weighted_area(standard(0.5)), standard(0.5))):
        counts.clear()
        profile_lp_norm(mu, u, 0.3, 2.0)
        # mu(Delta) and u(Delta) at each of the 48 shell radii, not at 141 node moduli
        assert counts == [48, 48]


def test_non_radial_bekolle_constant_builds_one_rule_per_modulus(monkeypatch):
    anchors = _record_carleson_anchors(monkeypatch)
    ladder = boundary_ladder(12, 16)
    points = ladder.points()
    bekolle_constant(power_one_minus_z(0.5), 3.0, ladder=ladder)
    # one rule of S(rho) per distinct |a| as a float (25 on 12 rings), turned to each point
    moduli = sorted(set(np.hypot(points.real, points.imag).tolist()))
    assert len(moduli) == 25 and sorted(a.real for a in anchors) == moduli
    assert all(a.imag == 0.0 for a in anchors)
    anchors.clear()
    bekolle_constant(power_one_minus_z(0.5), 3.0, anchors=[0.5j, -0.5, 0.5, 0.25j])
    assert anchors == [0.5, 0.25]


def test_non_radial_cp_constant_builds_no_region_rule(monkeypatch):
    # its pseudo-disks are mapped in blocks, as disk masses are
    built = []
    monkeypatch.setattr(quadrature, "region_quadrature", lambda *a: built.append(a) or region_quadrature(*a))
    cp_constant(power_one_minus_z(0.5), 3.0, 0.3, ladder=boundary_ladder(12, 16))
    assert built == []


def test_overflowing_second_moment_reads_inf():
    # u^(-p'/p) = (1 - |z|^2)^(-300) overflows near the boundary of S(0.9): +inf, not an error
    rep = bekolle_constant(standard(150), 1.5, anchors=[0.9], ladder=boundary_ladder(3, 4))
    assert rep.index_value == np.inf and rep.verdict == "divergent"
    # a finite second moment whose power (m2 / |E|)^(p-1) overflows a float (OverflowError before)
    assert bekolle_constant(standard(75), 3.0, anchors=[0.99]).index_value == np.inf
    # a u that is not finite at a node still raises
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="not finite at node"):
        bekolle_constant(power_one_minus_z(-400.0), 2.0, anchors=[0.9])

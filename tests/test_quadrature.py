"""Disc quadrature: exactness, region rules, Carleson change of variables."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman_lab import (
    CarlesonSet,
    DomainError,
    EvaluationError,
    PrecisionError,
    constant,
    density,
    disc_rule,
    grid_weight,
    mass,
    power_density,
    power_one_minus_z,
    pseudo_disk,
    region_quadrature,
    standard,
)
from bergman_lab.quadrature import (
    _BLOCK_NODES,
    DiscQuadrature,
    _jacobi_rings,
    _polar_rule,
    beta_moments,
    density_rule,
    gauss_rule,
    monomial_gram,
    ring_pairing,
    ring_values,
    weighted_disc_rule,
)


def _same_rule(rule, other):
    """Bit-equal nodes and weights, and the same region and resolution."""
    return (
        np.array_equal(rule.nodes, other.nodes)
        and np.array_equal(rule.weights, other.weights)
        and (rule.region, rule.resolution) == (other.region, other.resolution)
    )


class TestDiscRule:
    def test_area(self):
        rule = disc_rule(16, 32)
        assert rule.integrate(lambda z: np.ones(z.shape)) == pytest.approx(np.pi, rel=1e-12)

    def test_polynomial_exactness(self):
        # int |z|^(2n) dA = pi / (n + 1); radial GL with k nodes is exact to t^(2k-1)
        rule = disc_rule(16, 32)
        for n in (1, 5, 12):
            val = rule.integrate(lambda z, n=n: np.abs(z) ** (2 * n))
            assert val == pytest.approx(np.pi / (n + 1), rel=1e-12)

    def test_angular_orthogonality(self):
        # int z^3 conj(z)^1 dA = 0 by angular symmetry
        rule = disc_rule(12, 32)
        val = rule.integrate(lambda z: z**3 * np.conj(z))
        assert abs(val) < 1e-14

    def test_truncated_radius(self):
        rule = disc_rule(16, 32, 0.5)
        assert rule.integrate(lambda z: np.ones(z.shape)) == pytest.approx(np.pi * 0.25, rel=1e-12)

    def test_nonfinite_integrand_names_node(self):
        rule = disc_rule(8, 16)
        with pytest.raises(EvaluationError):
            rule.integrate(lambda z: 1.0 / (np.abs(z) - np.abs(z)))


class TestRegionQuadrature:
    def test_pseudo_disk_area(self):
        d = pseudo_disk(0.5, 0.4)
        q = region_quadrature(d, 32)
        exact = np.pi * d.euclid_radius**2
        assert q.integrate(lambda z: np.ones(z.shape)) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("region", [0.5, 0.2j, None, disc_rule(8, 16)])
    def test_only_geometry_regions(self, region):
        with pytest.raises(DomainError, match="PseudoDisk or a CarlesonSet"):
            region_quadrature(region, 16)
        with pytest.raises(DomainError, match="PseudoDisk or a CarlesonSet"):
            mass(constant(), region, 16)

    def test_disks_build_one_rule_carleson_sets_refine(self, monkeypatch):
        from bergman_lab import quadrature

        built = []
        disk_map, carleson_rule = quadrature._disk_map, quadrature._carleson_rule
        monkeypatch.setattr(quadrature, "_disk_map", lambda d, n: built.append(n) or disk_map(d, n))
        monkeypatch.setattr(quadrature, "_carleson_rule", lambda a, n: built.append(n) or carleson_rule(a, n))
        region_quadrature(pseudo_disk(0.2 + 0.1j, 0.3), 16)
        region_quadrature(pseudo_disk(0.5, 0.4), 16)
        assert built == [16, 16]
        built.clear()
        # accepted on its exact area: no rule of twice the resolution is built
        region_quadrature(CarlesonSet(0.5), 16)
        assert built == [16]

    @pytest.mark.parametrize("modulus", [0.3, 0.9, 0.99, 1.0 - 2.0**-12])
    def test_carleson_area_matches_mpmath(self, modulus):
        # int |phi_a'|^2 dA over the preimage half-disc {|w| <= R, Re(conj(a) w) <= 0};
        # for a = modulus > 0, |1 - a w|^2 = 1 - 2 a r cos(theta) + a^2 r^2
        from bergman_lab.quadrature import _CARLESON_R_INNER, _carleson_area

        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            a = mpmath.mpf(modulus)
            jac = lambda r, th: r / (1 - 2 * a * r * mpmath.cos(th) + a * a * r * r) ** 2
            half_disc = [0, mpmath.mpf(_CARLESON_R_INNER)], [mpmath.pi / 2, 3 * mpmath.pi / 2]
            exact = float(((1 - a) * (1 + a)) ** 2 * mpmath.quad(jac, *half_disc))
        assert _carleson_area(modulus) == pytest.approx(exact, rel=1e-12, abs=0)

    def test_carleson_area_of_the_whole_disc(self):
        from bergman_lab.quadrature import _CARLESON_R_INNER, _carleson_area

        # S(0) is the whole disc: its rule is the polar rule of radius R
        assert _carleson_area(0.0) == pytest.approx(np.pi * _CARLESON_R_INNER**2, rel=1e-15)
        assert region_quadrature(CarlesonSet(0.0), 16).area == pytest.approx(
            _carleson_area(0.0), rel=1e-15
        )

    @pytest.mark.parametrize("anchor", [0.3, -0.5j, 0.9 * np.exp(2j), 1.0 - 2.0**-12])
    @pytest.mark.parametrize("resolution", [8, 16, 32, 48])
    def test_carleson_rules_kept_at_the_requested_resolution(self, anchor, resolution):
        # rules from resolution 8 up are within 1.2e-10 of the exact area, far
        # inside _CARLESON_TOL, so every sweep and verify rule is kept as requested
        from bergman_lab.quadrature import _carleson_area

        rule = region_quadrature(CarlesonSet(anchor), resolution)
        assert rule.resolution == resolution
        exact = _carleson_area(abs(anchor))
        assert abs(rule.area - exact) <= 1.2e-10 * exact

    def test_carleson_rule_escalates_on_a_wrong_area(self, monkeypatch):
        # an exact area off by 1e-5 relative no rule meets: every resolution up
        # to the maximum is tried once, and then PrecisionError is raised
        from bergman_lab import quadrature

        built = []
        build, area = quadrature._carleson_rule, quadrature._carleson_area
        monkeypatch.setattr(quadrature, "_carleson_area", lambda m: area(m) * (1.0 + 1e-5))
        monkeypatch.setattr(quadrature, "_carleson_rule", lambda a, n: built.append(n) or build(a, n))
        with pytest.raises(PrecisionError, match="not resolved at resolution 1024"):
            region_quadrature(CarlesonSet(0.5 + 0.1j), 128)
        assert built == [128, 256, 512, 1024]

    def test_resolution_4_still_escalates_near_the_boundary(self):
        # resolution 4 is 4e-5 off the exact area at |a| = 0.9; resolution 8 is kept
        assert region_quadrature(CarlesonSet(0.9), 4).resolution == 8

    def test_carleson_area_grows_as_anchor_shrinks(self):
        # S(a) swallows more of the disc as the anchor moves inward
        areas = []
        for a in (0.7, 0.3, 1e-4):
            q = region_quadrature(CarlesonSet(a + 0j), 64)
            areas.append(q.integrate(lambda z: np.ones(z.shape)))
        assert areas[0] < areas[1] < areas[2] < np.pi

    def test_carleson_nodes_inside_set(self):
        a = 0.6 + 0.2j
        q = region_quadrature(CarlesonSet(a), 48)
        assert np.all(CarlesonSet(a).contains(q.nodes))

    def test_carleson_area_shrinks_near_boundary(self):
        # area(S(a)) ~ (1 - |a|)^2 up to constants
        areas = []
        for rho in (0.9, 0.95, 0.975):
            q = region_quadrature(CarlesonSet(rho + 0j), 48)
            areas.append(q.integrate(lambda z: np.ones(z.shape)))
        ratios = [areas[i] / areas[i + 1] for i in range(2)]
        for r in ratios:
            assert 3.0 < r < 5.0  # quarters of (1-rho) give factor ~4


def _family(resolution):
    """Pseudo-disks and Carleson sets at 0, at real, complex and shared moduli, interleaved.

    At resolution 16 the 11 disks span two blocks, and the 38 anchors of modulus 0.5 three.
    """
    ring = [0.5 * np.exp(2j * np.pi * k / 20) for k in range(20)]  # each of modulus 0.5 as a float
    return [
        *[CarlesonSet(a) for a in (0.5, -0.5j, -0.5, 0.5j) * 4],
        CarlesonSet(0.0), pseudo_disk(0.2 + 0.1j, 0.3), CarlesonSet(0.9), CarlesonSet(0.5j),
        *[pseudo_disk(z, 0.4) for z in ring[:9]], CarlesonSet(-0.5), CarlesonSet(0.6 - 0.3j),
        *[CarlesonSet(z) for z in ring], CarlesonSet(1.0 - 2.0**-12), pseudo_disk(0.0, 0.9),
    ]


class TestRegionIntegrals:
    @pytest.mark.parametrize("resolution", [4, 16, 48])
    def test_block_rows_are_the_rules_of_their_regions(self, resolution):
        # resolution 4 escalates the Carleson rules near the boundary (to 8 at |a| = 0.9)
        from bergman_lab.quadrature import _region_blocks

        regions = _family(resolution)
        seen, blocks = [], list(_region_blocks(regions, resolution))
        # 11 disks and the 38 anchors of modulus 0.5 in blocks of at most _BLOCK_NODES
        # nodes (or one rule), then one block per other modulus
        rule = region_quadrature(CarlesonSet(0.5), resolution)
        disks, sets = max(1, _BLOCK_NODES // (4 * resolution**2)), max(1, _BLOCK_NODES // rule.weights.size)
        assert len(blocks) == -(-11 // disks) + -(-38 // sets) + 4
        for index, nodes, weights in blocks:
            weights = np.broadcast_to(weights, nodes.shape)
            for k, row_nodes, row_weights in zip(index, nodes, weights):
                rule = region_quadrature(regions[k], resolution)
                assert np.array_equal(row_nodes, rule.nodes)
                assert np.array_equal(row_weights, rule.weights)
            seen.extend(index)
        assert sorted(seen) == list(range(len(regions)))

    @pytest.mark.parametrize("resolution", [4, 16, 48])
    @pytest.mark.parametrize("u", [power_one_minus_z(0.5), standard(1.5), constant(2.0)])
    def test_entries_are_the_rules_integrals(self, u, resolution):
        from bergman_lab.quadrature import region_integrals

        regions = _family(resolution)
        want = [region_quadrature(e, resolution).integrate(u) for e in regions]
        assert region_integrals(u, regions, resolution).tolist() == want
        assert region_integrals(u, regions[3:4], resolution).tolist() == want[3:4]

    def test_one_rule_per_modulus_of_the_carleson_sets(self, monkeypatch):
        from bergman_lab import quadrature

        anchors = []
        build = quadrature.region_quadrature
        monkeypatch.setattr(quadrature, "region_quadrature",
                            lambda e, n=48: anchors.append(e.anchor) or build(e, n))
        quadrature.region_integrals(constant(), _family(16), 16)
        # S(0), S(0.5), S(0.9), S(|0.6 - 0.3j|) and S(1 - 2^-12), each at the real point |a|
        assert sorted(a.real for a in anchors) == sorted([0.0, 0.5, 0.9, abs(0.6 - 0.3j), 1.0 - 2.0**-12])
        assert all(a.imag == 0.0 for a in anchors)

    def test_carleson_rule_is_the_turned_rule_of_its_modulus(self):
        # a subnormal anchor too: there a / abs(a) is 8e-12 off the unit circle
        for a in (0.6 - 0.3j, -0.5, 0.9j, 0.3 * np.exp(2j), 1.2022125365e-313 + 1.872335091e-313j):
            rule, base = region_quadrature(CarlesonSet(a), 32), region_quadrature(CarlesonSet(abs(a)), 32)
            assert np.allclose(rule.nodes, base.nodes * (a / abs(a)), rtol=0.0, atol=1e-11)
            assert np.allclose(np.abs(rule.nodes), np.abs(base.nodes), rtol=1e-15, atol=0.0)
            assert np.array_equal(rule.weights, base.weights)
            assert (rule.region, rule.resolution) == (CarlesonSet(a), 32)

    @pytest.mark.parametrize("bad", [0.5, None, disc_rule(8, 16)])
    def test_only_geometry_regions(self, bad):
        from bergman_lab.quadrature import region_integrals

        with pytest.raises(DomainError, match="PseudoDisk or a CarlesonSet"):
            region_integrals(constant(), [CarlesonSet(0.2), bad], 16)
        with pytest.raises(DomainError, match="resolution"):
            region_integrals(constant(), [CarlesonSet(0.2)], 2)


class TestBetaMoments:
    @pytest.mark.parametrize("a", [-0.9, -0.1, 0.0, 0.5, 1.0, 2.0, 2.5])
    def test_matches_mpmath_beta(self, a):
        # pi int_0^1 t^n (1 - t)^a dt = pi B(n + 1, a + 1), oracle at 30 digits
        mpmath = pytest.importorskip("mpmath")
        degree = 1600
        with mpmath.workdps(30):
            exact = np.array(
                [float(mpmath.pi * mpmath.beta(n + 1, mpmath.mpf(a) + 1)) for n in range(degree + 1)]
            )
        got = beta_moments(a, degree)
        assert got.shape == (degree + 1,)
        assert np.max(np.abs(got / exact - 1.0)) < 1e-13

    def test_exponent_above_minus_one(self):
        with pytest.raises(DomainError):
            beta_moments(-1.0, 4)


class TestCachedRules:
    def test_gauss_rule_read_only(self):
        x, w = gauss_rule(16)
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert np.sum(w) == pytest.approx(2.0, rel=1e-14)

    def test_polar_rule_read_only(self):
        area = disc_rule(8, 16).area
        with pytest.raises(ValueError):
            disc_rule(8, 16).weights[:] = 0.0
        with pytest.raises(ValueError):
            disc_rule(8, 16).nodes[0] = 0.0
        assert disc_rule(8, 16).area == area

    def test_weighted_disc_rule_read_only(self):
        # the cache holds the Gauss-Jacobi rings, which every call shares
        for array in _jacobi_rings(12, 0.6):
            with pytest.raises(ValueError):
                array[0] = 0.0
        # each call builds its own rule, whose arrays cannot be written either
        rule = weighted_disc_rule(12, 16, 1.5, 0.6)
        area = rule.area
        for array in (rule.weights, rule.nodes, *rule.rings):
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert _same_rule(weighted_disc_rule(12, 16, 1.5, 0.6), rule)
        assert rule.area == area

    def test_density_rule_read_only(self):
        # a non-radial density's rule is built per call, its arrays frozen all the same
        rule = density_rule(power_one_minus_z(0.5), 8, 8, 16)
        for array in (rule.weights, rule.nodes, rule.rings[0]):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_carleson_rule_read_only(self):
        q = region_quadrature(CarlesonSet(0.5 + 0.1j), 16)
        with pytest.raises(ValueError):
            q.weights[0] = 0.0

    # a pseudo-disk's arrays are row views of the block _disk_map returns
    @pytest.mark.parametrize("region", [
        pseudo_disk(0.2, 0.3), pseudo_disk(0.0, 0.5), pseudo_disk(-0.6j, 0.8),
        CarlesonSet(0.0), CarlesonSet(0.5), CarlesonSet(0.5 + 0.1j),
    ])
    def test_every_region_rule_read_only(self, region):
        q = region_quadrature(region, 8)
        assert q.nodes.flags.writeable is False
        assert q.weights.flags.writeable is False


def _reference_gram(g, degree, n_radial, n_angular, r_max):
    """The power-matrix Gram: every monomial evaluated on every node."""
    rule = disc_rule(n_radial, n_angular, r_max)
    powers = rule.nodes[None, :] ** np.arange(degree + 1)[:, None]
    return (powers * (rule.weights * g(rule.nodes))) @ powers.conj().T


class TestMonomialGram:
    @given(
        degree=st.integers(1, 60),
        gamma=st.floats(-0.9, 2.0),
        phase=st.floats(0.0, 2 * np.pi),
        n_radial=st.integers(4, 80),
        n_angular=st.integers(3, 256),
        r_max=st.sampled_from([1.0, 0.7]),
    )
    @settings(max_examples=60, deadline=None)
    # n_angular < 2 degree + 1: the angular sums alias, as the rule's own do
    @example(degree=40, gamma=1.0, phase=1.0, n_radial=56, n_angular=31, r_max=1.0)
    def test_matches_power_matrix_gram(self, degree, gamma, phase, n_radial, n_angular, r_max):
        # |1 - z|^gamma turned by phase: off the real axis its angular sums are complex
        u = lambda z: power_one_minus_z(gamma)(z * np.exp(-1j * phase))  # noqa: E731
        got = monomial_gram(u, degree, n_radial, n_angular, r_max)
        want = _reference_gram(u, degree, n_radial, n_angular, r_max)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(got, got.conj().T)

    def test_exact_on_monomials(self):
        # int z^j conj(z)^k dA = pi / (j + 1) if j == k, else 0
        got = monomial_gram(lambda z: np.ones(z.shape), 20, 24, 64, 1.0)
        assert np.max(np.abs(got - np.diag(np.pi / np.arange(1, 22)))) < 1e-14

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(EvaluationError, match="not finite at node"):
            monomial_gram(lambda z: np.where(np.real(z) > 0.5, np.nan, 1.0), 4, 8, 16, 1.0)


class TestRingValues:
    @given(
        degree=st.integers(0, 260),
        n_radial=st.integers(1, 16),
        n_angular=st.integers(3, 512),
        r_max=st.sampled_from([1.0, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # n_angular <= degree: frequencies fold mod n_angular, as the nodes repeat
    @example(degree=260, n_radial=8, n_angular=3, r_max=1.0, seed=0)
    @example(degree=200, n_radial=12, n_angular=64, r_max=0.7, seed=1)
    @example(degree=0, n_radial=4, n_angular=5, r_max=1.0, seed=2)
    def test_matches_power_matrix(self, degree, n_radial, n_angular, r_max, seed):
        # a_rho(d) = c_d rho^d makes the ring sums the polynomial sum_d c_d z^d
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        rule = disc_rule(n_radial, n_angular, r_max)
        got = ring_values(rule, lambda rho: c * rho[:, None] ** np.arange(degree + 1))
        want = (rule.nodes[:, None] ** np.arange(degree + 1)) @ c
        assert got.shape == rule.nodes.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_per_ring_coefficients(self):
        # coefficients that are no polynomial in z: a_rho(d) = rho^(d + 1) / (d + 1 + rho)
        rule = disc_rule(6, 7, 0.9)
        d = np.arange(19)
        got = ring_values(rule, lambda rho: rho[:, None] ** (d + 1) / (d + 1 + rho[:, None]))
        rho, theta = np.abs(rule.nodes), np.angle(rule.nodes)
        terms = rho[:, None] ** (d + 1) / (d + 1 + rho[:, None]) * np.exp(1j * d * theta[:, None])
        want = terms.sum(axis=1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_one_column_is_constant_on_rings(self):
        rule = disc_rule(5, 12)
        got = ring_values(rule, lambda rho: rho[:, None] ** 2)
        assert np.allclose(got, np.abs(rule.nodes) ** 2, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "region",
        [pseudo_disk(0, 0.5), pseudo_disk(0.2j, 0.3), CarlesonSet(0.5), CarlesonSet(0.0)],
    )
    def test_other_rules_raise(self, region):
        rule = region_quadrature(region, 8)
        with pytest.raises(DomainError, match="centered polar rule"):
            ring_values(rule, lambda rho: np.ones((rho.size, 3)))


class TestRingPairing:
    @given(
        deg_f=st.integers(0, 199),
        deg_g=st.integers(0, 199),
        n_angular=st.sampled_from([3, 16, 64, 200, 512]),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    # degrees at and above n_angular: frequencies fold mod n_angular
    @example(deg_f=199, deg_g=150, n_angular=64, weighted=True, seed=0)
    @example(deg_f=10, deg_g=199, n_angular=64, weighted=False, seed=1)
    @example(deg_f=63, deg_g=64, n_angular=64, weighted=True, seed=2)
    @example(deg_f=0, deg_g=0, n_angular=3, weighted=False, seed=3)
    # polyval at the rounded nodes was 1.3e-14 of the scale off here
    @example(deg_f=0, deg_g=150, n_angular=3, weighted=True, seed=5046)
    def test_equals_the_node_sum(self, deg_f, deg_g, n_angular, weighted, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(deg_f + 1) + 1j * rng.standard_normal(deg_f + 1)
        g = rng.standard_normal(deg_g + 1) + 1j * rng.standard_normal(deg_g + 1)
        if weighted:
            rule = weighted_disc_rule(40, n_angular, 1.5, rng.uniform(-0.9, 2.0))
        else:
            rule = disc_rule(30, n_angular, 0.95)
        # the values at the nodes rho e^(2 pi i k / n), each z^j = rho^j e^(2 pi i (j k mod n) / n)
        # summed directly: polyval at the rounded nodes carries their rounding
        # times the degree, up to 2e-14 of the scale at degrees near 200
        rho, j = rule.nodes[::n_angular].real, np.arange(200)
        phases = np.exp(2j * np.pi * (np.outer(j, np.arange(n_angular)) % n_angular) / n_angular)
        fz = ((f * rho[:, None] ** j[: f.size]) @ phases[: f.size]).ravel()
        gz = ((g * rho[:, None] ** j[: g.size]) @ phases[: g.size]).ravel()
        want = np.sum(rule.weights * fz * np.conj(gz))
        scale = np.sum(rule.weights * np.abs(fz) * np.abs(gz))
        assert abs(ring_pairing(rule, f, g) - want) <= 1e-14 * scale

    @pytest.mark.parametrize("region", [pseudo_disk(0.2j, 0.3), CarlesonSet(0.5)])
    def test_region_rules_raise(self, region):
        rule = region_quadrature(region, 8)
        with pytest.raises(DomainError, match="centered polar rule"):
            ring_pairing(rule, [1.0, 2.0], [1.0])

    def test_weights_varying_around_a_ring_raise(self):
        # a non-radial density folded into the weights: Parseval per ring does not apply
        rule = density_rule(power_one_minus_z(0.5), 8, 8, 16)
        with pytest.raises(DomainError, match="constant on each ring"):
            ring_pairing(rule, [1.0, 2.0], [1.0])


class TestWeightedDiscRule:
    # n_t = 802 is measured too: the Newton-polished rule stays within 2e-13 there
    @pytest.mark.parametrize("n_t", [1, 2, 12, 62, 102, 128, 202, 802])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.6, 1.0, 2.0])
    def test_t_moments_are_beta_moments(self, a, n_t):
        # sum_t w t^n = pi B(n + 1, a + 1) up to t-degree 2 n_t - 1 (c = 1)
        rule = weighted_disc_rule(n_t, 3, 1.0, a)
        t = np.abs(rule.nodes[::3]) ** 2
        ring_weights = 3 * rule.weights[::3]
        degree = 2 * n_t - 1
        got = (t[None, :] ** np.arange(degree + 1)[:, None]) @ ring_weights
        assert np.max(np.abs(got / beta_moments(a, degree) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("c, a", [(1.0, -0.5), (2.5, 0.0), (0.3, 1.7)])
    def test_monomial_gram_is_diagonal_beta(self, c, a):
        # int z^j conj(z)^k c (1 - |z|^2)^a dA = delta_jk c pi B(j + 1, a + 1)
        degree, rule = 30, weighted_disc_rule(16, 64, c, a)
        powers = rule.nodes[None, :] ** np.arange(degree + 1)[:, None]
        got = (powers * rule.weights) @ powers.conj().T
        want = np.diag(c * beta_moments(a, degree))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_rings_are_read_by_ring_values(self):
        # node 0 of each ring is the real ring radius, so ring_values takes the rule
        rule = weighted_disc_rule(9, 16, 1.0, -0.5)
        c = np.arange(1.0, 21.0) * (1.0 - 0.5j)
        got = ring_values(rule, lambda rho: c * rho[:, None] ** np.arange(c.size))
        want = (rule.nodes[:, None] ** np.arange(c.size)) @ c
        assert np.all(rule.nodes[::16].imag == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("a", [-1.0, -1.5])
    def test_non_integrable_exponent_raises(self, a):
        with pytest.raises(DomainError, match="exponent"):
            weighted_disc_rule(8, 16, 1.0, a)

    @pytest.mark.parametrize("n_t", [1, 2, 17, 102])
    @pytest.mark.parametrize("n_angular", [3, 16, 512])
    @pytest.mark.parametrize("c, a", [(1.0, -0.5), (2.5, 0.0), (0.3, 1.7), (1.0, -0.9)])
    def test_equals_the_eager_construction(self, n_t, n_angular, c, a):
        # the rule as it was built whole, grid and weights at once, before only
        # its Gauss-Jacobi rings were cached
        from bergman_lab.quadrature import _jacobi_nodes, _jacobi_recurrence

        x = _jacobi_nodes(n_t, a)
        p, dp, _ = _jacobi_recurrence(n_t, a, x)
        x = x - p / dp
        _, dp, one_minus_x2 = _jacobi_recurrence(n_t, a, x)
        wt = 1.0 / (one_minus_x2 * dp * dp)
        theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
        nodes = (np.sqrt(0.5 * (1.0 + x))[:, None] * np.exp(1j * theta)[None, :]).ravel()
        weights = np.repeat(wt * (np.pi * c / n_angular), n_angular)
        rule = weighted_disc_rule(n_t, n_angular, c, a)
        assert np.array_equal(rule.weights, weights)
        assert np.array_equal(rule.nodes, nodes)
        assert (rule.region, rule.resolution) == (None, n_t)


_DENSITIES = {
    "constant": constant(2.5),
    "standard": standard(0.5),
    "power_density": power_density(-0.3).density,
    "power_one_minus_z": power_one_minus_z(0.5),
    "grid_weight": grid_weight(np.arange(1.0, 10.0).reshape(3, 3), 3),
    "density": density(lambda z: np.abs(1.0 + 0.5 * z) ** 2).density,
}


def _old_rule(v, n_t, n_radial, n_angular):
    """The rule, with the density folded in, that the norm rule, the trace check
    and integrate_at each built before density_rule: Gauss-Jacobi with (c, a)
    read off the kind for a radial v, else Gauss-Legendre times v at the nodes."""
    power = {"constant": lambda: (v.params.get("value"), 0.0),
             "standard": lambda: (1.0, v.params.get("alpha"))}.get(v.kind)
    if power is not None:
        return weighted_disc_rule(n_t, n_angular, *power())
    rule = disc_rule(n_radial, n_angular, 1.0)
    return rule.nodes, rule.weights * np.asarray(v(rule.nodes), dtype=float)


class TestDensityRule:
    @pytest.mark.parametrize("kind", list(_DENSITIES))
    @pytest.mark.parametrize(
        "sizes",
        # the norm rule and the trace check at degrees 30 and 200, and integrate_at
        [(17, 64, 128), (102, 216, 512), (128, 128, 256)],
        ids=["norm-30", "norm-200", "integrate_at"],
    )
    def test_matches_the_old_call_sites(self, kind, sizes):
        v = _DENSITIES[kind]
        rule, old = density_rule(v, *sizes), _old_rule(v, *sizes)
        if v.is_radial:
            assert _same_rule(rule, old)
        else:
            assert np.array_equal(rule.nodes, old[0]) and np.array_equal(rule.weights, old[1])
            assert (rule.region, rule.resolution) == (None, sizes[1])

    def test_nonfinite_density_raises(self):
        v = density(lambda z: np.where(np.abs(z) > 0.9, np.inf, 1.0)).density
        with pytest.raises(EvaluationError, match="not finite at node"):
            density_rule(v, 8, 16, 32)


class TestRings:
    def test_weights_varying_around_a_ring_raise_from_arrays(self):
        # a non-radial density folds node-sized weights into the rule: no ring weights
        rule = density_rule(power_one_minus_z(0.5), 8, 8, 16)
        assert rule.rings[1] is None
        with pytest.raises(DomainError, match="constant on each ring"):
            ring_pairing(rule, [1.0, 2.0], [1.0])

    def test_a_rule_built_without_rings_raises(self):
        full = disc_rule(6, 8)
        rule = DiscQuadrature(full.nodes, full.weights, None, full.resolution)
        with pytest.raises(DomainError, match="this rule has no rings"):
            ring_values(rule, lambda rho: rho[:, None] ** np.arange(3))
        with pytest.raises(DomainError, match="this rule has no rings"):
            ring_pairing(rule, [1.0], [1.0])

    def test_ring_readers_build_no_grid(self):
        rule = weighted_disc_rule(20, 64, 1.0, 0.5)
        ring_values(rule, lambda rho: rho[:, None] ** np.arange(5))
        ring_pairing(rule, [1.0, 2.0], [3.0])
        assert rule._nodes is None
        assert rule.nodes is rule.nodes


class TestRuleMemory:
    def test_dropped_rules_leave_under_1_mb(self):
        # norm rules of 40 degrees and 250 Carleson rules, each grid read,
        # then dropped: the caches keep Gauss data, which is O(rings); rules
        # cached whole held more than 24 MB here
        import gc
        import tracemalloc

        from bergman_lab.kernels import _norm_resolution

        degrees = np.linspace(40, 213, 40).astype(int)
        rng = np.random.default_rng(19)
        anchors = 0.95 * np.sqrt(rng.random(250)) * np.exp(2j * np.pi * rng.random(250))
        # the numpy modules these builds import lazily are imported before the count
        density_rule(standard(0.5), 3, 8, 8).nodes
        region_quadrature(CarlesonSet(0.5), 8)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for d in degrees:
                density_rule(standard(1.0 + d / 100.0), *_norm_resolution(d)).nodes
            for k, a in enumerate(anchors):
                region_quadrature(CarlesonSet(a), (16, 32, 64, 128)[k % 4]).nodes
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(set(degrees)) == 40
        assert held < 1 << 20

    def test_disc_rules_leave_no_grid_in_the_cache(self):
        # the Schatten sweep's rules: each 200 x 800 grid is 2.6 MB, and no
        # cache may keep one once its rule is dropped
        import gc
        import tracemalloc

        disc_rule(4, 8).nodes
        entries = _polar_rule.cache_info().currsize
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for r_max in (0.99, 0.995, 0.999):
                assert disc_rule(200, 800, r_max).nodes.size == 160000
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1 << 20
        assert _polar_rule.cache_info().currsize == entries

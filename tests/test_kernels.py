"""Kernel models: closed forms, reproducing property, norms, general weights."""

import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman_lab import (
    DomainError,
    Weight,
    basis_gram,
    build_kernel_model,
    constant,
    density,
    disc_rule,
    kernel_diag,
    kernel_eval,
    kernel_norm,
    kernel_norms,
    power_one_minus_z,
    reproducing_check,
    standard,
)
from bergman_lab.kernels import (
    _gram_resolution,
    _kernel_powers,
    _norm_resolution,
    _radial_forms,
    polynomial_values,
)
from bergman_lab.quadrature import _polar_rule, monomial_gram, weighted_disc_rule
from bergman_lab.toeplitz import _basis_coordinates


class TestClassicalClosedForms:
    def test_unweighted_kernel(self, model_u1):
        # K(z, w) = 1 / (pi (1 - conj(w) z)^2)
        for z, w in [(0.0, 0.0), (0.3 + 0.2j, 0.5), (0.6j, -0.4 + 0.3j)]:
            exact = 1.0 / (np.pi * (1.0 - np.conj(w) * z) ** 2)
            assert kernel_eval(model_u1, z, w) == pytest.approx(exact, rel=1e-10)

    def test_standard_kernel_diag(self, model_std):
        # (alpha + 1) / (pi (1 - |z|^2)^(2 + alpha)) at alpha = 1
        for rho in (0.0, 0.3, 0.6):
            exact = 2.0 / (np.pi * (1.0 - rho**2) ** 3)
            assert kernel_diag(model_std, rho) == pytest.approx(exact, rel=1e-8)

    def test_hermitian_symmetry(self, model_u1):
        z, w = 0.4 + 0.1j, -0.2 + 0.5j
        assert kernel_eval(model_u1, z, w) == pytest.approx(
            np.conj(kernel_eval(model_u1, w, z)), rel=1e-12
        )

    def test_diag_real_nonnegative(self, model_std, disc_points):
        vals = model_std.kernel_diag(disc_points)
        assert np.all(vals > 0)


class TestReproducing:
    @given(n=st.integers(min_value=0, max_value=30), k=st.integers(min_value=0, max_value=19))
    @settings(max_examples=25, deadline=None)
    def test_monomials(self, n, k, model_u1, disc_points):
        coefs = np.zeros(n + 1)
        coefs[n] = 1.0
        w = disc_points[k]
        assert reproducing_check(model_u1, coefs, w) < 1e-8

    def test_degree_cap(self, model_u1_small):
        with pytest.raises(DomainError):
            reproducing_check(model_u1_small, np.zeros(100), 0.1)


class TestNorms:
    def test_two_norm_matches_diag(self, model_u1):
        # || K_w ||_2 = sqrt(K(w, w)) by the reproducing identity
        for w in (0.0, 0.5, 0.3 + 0.4j):
            assert kernel_norm(model_u1, w, 2.0) == pytest.approx(
                np.sqrt(kernel_diag(model_u1, w)), rel=1e-10
            )

    def test_p_norm_monotone_in_base_point(self, model_u1):
        # kernels blow up toward the boundary in every norm
        assert kernel_norm(model_u1, 0.8, 4.0) > kernel_norm(model_u1, 0.2, 4.0)

    def test_invalid_exponent(self, model_u1):
        with pytest.raises(DomainError):
            kernel_norm(model_u1, 0.1, 0.0)


_ALPHAS = [-0.5, -0.2, 0.0, 0.5, 1.0]


def _standard(alpha):
    return constant() if alpha == 0.0 else standard(alpha)


class TestExactNormRule:
    """A radial model integrates on Gauss-Jacobi in |z|^2 with its own exponent.

    The reproducing pairing and ||K_w||_2^2 are polynomials in z and conj(z)
    of degree <= N each, which floor(N/2) + 2 nodes in t integrate exactly
    against (1 - t)^alpha; Gauss-Legendre in r left 3.4e-3 at alpha = -0.5.
    """

    @pytest.mark.parametrize("degree", [40, 200, 400])
    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_reproducing_and_two_norm_are_exact(self, alpha, degree):
        m = build_kernel_model(_standard(alpha), degree)
        rng = np.random.default_rng(degree)
        points = (0.0, 0.5, 0.9j, -0.3 + 0.4j, 0.62 - 0.7j)
        for w in points:
            n = min(degree, 50)
            coefs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            assert reproducing_check(m, coefs, w) <= 1e-13
            assert reproducing_check(m, [1.0, 0.5j, 0.25], w) <= 1e-13
        ratios = kernel_norms(m, points, 2.0) / np.sqrt(kernel_diag(m, np.array(points)))
        assert np.max(np.abs(ratios - 1.0)) <= 1e-13

    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_p3_norm_matches_fine_rule(self, alpha):
        # |K_w|^3 is no polynomial: compare with an (800, 2048) rule of the same weight
        m = build_kernel_model(_standard(alpha), 200)
        fine = weighted_disc_rule(800, 2048, 1.0, alpha)
        for w in (0.5, 0.9, -0.9j):
            want = np.sum(fine.weights * np.abs(m.kernel(fine, w)) ** 3) ** (1.0 / 3.0)
            assert abs(kernel_norm(m, w, 3.0) / want - 1.0) <= 1e-11

    def test_radial_weight_is_never_evaluated(self):
        # u rides in the rule's weights; a weight that cannot be evaluated still works
        def refuse(z):
            raise AssertionError("weight evaluated")

        m = build_kernel_model(Weight("standard", {"alpha": 0.5}, refuse, (1.0, 0.5)), 40)
        assert reproducing_check(m, [1.0, 2.0], 0.3j) <= 1e-13
        assert kernel_norm(m, 0.3j, 1.5) > 0.0

    def test_batched_norms(self):
        # one value per point; a radial model's norm depends on |w| alone
        m = build_kernel_model(standard(0.5), 60)
        points = np.array([0.6, 0.6j, -0.6, 0.1 + 0.2j])
        got = kernel_norms(m, points, 3.0)
        assert got.shape == (4,)
        assert got[0] == got[1] == got[2]
        assert got[3] == kernel_norm(m, 0.1 + 0.2j, 3.0)

    def test_general_model_keeps_the_legendre_rule(self):
        # non-radial models: Gauss-Legendre in r with u evaluated on its nodes, as before
        m = build_kernel_model(power_one_minus_z(0.5), 30)
        area = disc_rule(*_norm_resolution(m.degree)[1:])
        uw = area.weights * m.weight(area.nodes)
        rule = m.norm_rule()
        assert np.array_equal(rule.nodes, area.nodes)
        assert np.array_equal(rule.weights, uw)
        for w in (0.3 - 0.2j, 0.8):
            want = float(np.sum(uw * np.abs(m.kernel(area, w)) ** 3.0) ** (1.0 / 3.0))
            assert kernel_norm(m, w, 3.0) == want
        assert list(kernel_norms(m, [0.3 - 0.2j, 0.8], 3.0)) == [
            kernel_norm(m, 0.3 - 0.2j, 3.0), kernel_norm(m, 0.8, 3.0)]


class TestKernelPowers:
    """sum w |K_N(w, x)|^t at a real x: a radial model on a radial rule takes half of each ring."""

    @given(
        alpha=st.sampled_from([0.0, -0.5, 0.5, 1.0, 2.5]),
        degree=st.integers(1, 220),
        t=st.floats(0.0, 5.0, exclude_min=True),
        x=st.floats(0.0, 0.99),
        n_angular=st.integers(3, 520),
    )
    @example(alpha=0.0, degree=220, t=5.0, x=0.99, n_angular=512)
    @example(alpha=1.0, degree=220, t=0.3, x=0.99, n_angular=443)
    @example(alpha=0.5, degree=150, t=1.7, x=0.9, n_angular=101)  # folded rings, odd
    @example(alpha=-0.5, degree=1, t=2.5, x=0.0, n_angular=4)
    @settings(max_examples=40, deadline=None)
    def test_half_ring_is_the_node_sum(self, alpha, degree, t, x, n_angular):
        m = build_kernel_model(_standard(alpha), degree)
        rule = weighted_disc_rule(degree // 2 + 2, n_angular, 1.0, alpha)
        want = rule.weighted_sum(np.abs(m.kernel(rule, x)) ** t)
        (got,) = _kernel_powers(m, rule, [x], t)
        assert abs(got - want) <= 1e-14 * want


class TestRadialNorms:
    @pytest.mark.parametrize("u, c, a", [(constant(2.5), 2.5, 0.0), (standard(0.5), 1.0, 0.5)])
    def test_match_mpmath_beta(self, u, c, a):
        # G_nn = pi c B(n + 1, a + 1) for u = c (1 - |z|^2)^a
        mpmath = pytest.importorskip("mpmath")
        degree = 1600
        m = build_kernel_model(u, degree)
        with mpmath.workdps(30):
            exact = np.array(
                [float(c * mpmath.pi * mpmath.beta(n + 1, a + 1)) for n in range(degree + 1)]
            )
        assert np.max(np.abs(m.diag_norms / exact - 1.0)) < 1e-13
        assert m.gram_refinement_error == 0.0

    def test_model_keeps_no_dense_diagonal(self):
        # a dense (N + 1)^2 complex C = G^(-1/2) at N = 1600 took 41 MB (61 MB at peak)
        tracemalloc.start()
        try:
            m = build_kernel_model(constant(), 1600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.coeffs is None
        assert peak < 1e6


def _dense_diagonal(m):
    """The radial model's C = diag(1 / sqrt(G_nn)) as the dense complex matrix it once kept."""
    return np.diag(1.0 / np.sqrt(m.diag_norms)).astype(complex)


class TestRadialDiagonalProducts:
    """Products with C = G^(-1/2) against the dense C, bit for bit."""

    @pytest.mark.parametrize("u", [constant(2.5), standard(-0.5), standard(1.5)])
    def test_quadratic_form(self, u, disc_points):
        m = build_kernel_model(u, 30)
        rng = np.random.default_rng(30)
        # complex Hermitian, as every 2-D M the library passes (a basis_gram) is
        A = rng.standard_normal((31, 31)) + 1j * rng.standard_normal((31, 31))
        M = A + A.conj().T
        # at points: the basis z^n / sqrt(G_nn) on every point, z^n = z^(n-1) z
        powers = np.ones((31, len(disc_points)), dtype=complex)
        for n in range(1, 31):
            powers[n] = powers[n - 1] * disc_points
        e = powers / np.sqrt(m.diag_norms)[:, None]
        want = np.real((e * (M @ np.conj(e))).sum(axis=0))
        assert np.array_equal(m.quadratic_form(M, disc_points), want)
        # on a polar rule: Q = C^T M conj(C) with the dense C, on the general path
        dense = replace(m, coeffs=_dense_diagonal(m), diag_norms=None)
        for rule in (disc_rule(12, 40), m.norm_rule()):
            assert np.array_equal(m.quadratic_form(M, rule), dense.quadratic_form(M, rule))

    @pytest.mark.parametrize("u", [constant(2.5), standard(0.5)])
    def test_basis_gram_of_a_density(self, u):
        m = build_kernel_model(u, 24)
        mu = density(lambda z: np.abs(1.0 + 0.5 * z) ** 2)
        C = _dense_diagonal(m)
        gram = monomial_gram(mu.density_at, m.degree, *_gram_resolution(m.degree), 1.0)
        assert np.array_equal(basis_gram(m, mu), np.conj(C) @ gram.T @ C.T)


def _horner_at_each_point(m, row, z):
    """sum_n M_n / G_n x^n, x = np.abs(z) ** 2 on the array, by one scalar Horner sum per point.

    (numpy's scalar abs and square can differ from its array loops in the last bit.)
    """
    q = np.asarray(row) / m.diag_norms
    return [np.polynomial.polynomial.polyval(x, q) for x in np.ravel(np.abs(np.asarray(z)) ** 2)]


class TestRadialForms:
    """kernels._radial_forms against a Horner sum of each row at each point, bit for bit."""

    @given(
        moduli=st.lists(st.floats(0.0, 0.995), min_size=1, max_size=8),
        turns=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=4),
        rows=st.integers(1, 3),
        alpha=st.sampled_from([0.0, -0.5, 1.5]),
    )
    @settings(max_examples=40, deadline=None)
    # one modulus at several angles, and points repeated exactly
    @example(moduli=[0.5, 0.5, 0.0], turns=[0.0, 1.0, 1.0], rows=2, alpha=0.0)
    def test_matches_per_point_horner(self, moduli, turns, rows, alpha):
        m = build_kernel_model(standard(alpha), 60)
        z = np.array([rho * np.exp(1j * t) for rho in moduli for t in turns])
        M = np.random.default_rng(len(z)).uniform(0.5, 2.0, (rows, m.degree + 1))
        got = _radial_forms(m, M, z)
        assert got.shape == (rows, z.size)
        for row, values in zip(M, got):
            assert np.array_equal(values, _horner_at_each_point(m, row, z))
        # one row gives z's shape, and the radial branch of quadratic_form is it
        assert np.array_equal(_radial_forms(m, M[0], z), got[0])
        assert np.array_equal(m.quadratic_form(M[0], z), got[0])
        assert np.array_equal(m.kernel_diag(z), _horner_at_each_point(m, np.ones(m.degree + 1), z))

    def test_shapes(self):
        m = build_kernel_model(constant(), 20)
        M = np.stack([np.ones(21), np.arange(1.0, 22.0)])
        z = 0.3 + 0.4j
        # a scalar point: one row gives a scalar, stacked rows one value each
        one = _radial_forms(m, M[1], z)
        assert np.ndim(one) == 0 and one == _horner_at_each_point(m, M[1], z)[0]
        assert np.array_equal(_radial_forms(m, M, z), [_horner_at_each_point(m, row, z)[0] for row in M])
        # a 2-D array of points keeps its shape behind the rows
        grid = np.array([[0.1, 0.5j], [-0.5, 0.1j]])
        got = _radial_forms(m, M, grid)
        assert got.shape == (2, 2, 2)
        for row, values in zip(M, got):
            assert np.array_equal(values.ravel(), _horner_at_each_point(m, row, grid))
        assert _radial_forms(m, M, np.array([], dtype=complex)).shape == (2, 0)


class TestGeneralWeightPath:
    def test_non_radial_model_reproduces(self):
        u = power_one_minus_z(1.0)
        m = build_kernel_model(u, 40)
        assert not m.is_radial
        assert m.gram_residual < 1e-8
        coefs = np.array([1.0, -0.5, 0.25j, 0.1])
        for w in (0.0, 0.4, 0.3 - 0.5j):
            # tolerance tracks the model's own Gram refinement error (~1e-4)
            assert reproducing_check(m, coefs, w) < 1e-4

    def test_non_radial_kernel_hermitian(self):
        m = build_kernel_model(power_one_minus_z(1.0), 30)
        z, w = 0.5 + 0.2j, -0.3 + 0.4j
        assert kernel_eval(m, z, w) == pytest.approx(np.conj(kernel_eval(m, w, z)), rel=1e-9)

    def test_matches_radial_path_for_radial_weight(self, u1):
        # force the general Gram path with a wrapped radial weight
        from bergman_lab.weights import Weight

        wrapped = Weight(
            kind="custom", params={}, fn=lambda z: np.ones(np.shape(z)), power=None
        )
        mg = build_kernel_model(wrapped, 24)
        mr = build_kernel_model(u1, 24)
        z = np.array([0.3 + 0.1j, -0.5j, 0.7])
        for w in (0.2, 0.4j):
            assert np.allclose(mg.kernel(z, w), mr.kernel(z, w), rtol=1e-8)

    def test_builds_leave_no_cached_rule(self):
        # the Gram nodes are transient, so models cost no memory after the build
        before = _polar_rule.cache_info()
        for n in (120, 160, 200):
            build_kernel_model(power_one_minus_z(0.5), n)
        after = _polar_rule.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits, before.misses, before.currsize)

    def test_truncation_converges(self, u1):
        # K_N(0.8, 0.8) increases to the closed form as N grows
        exact = 1.0 / (np.pi * (1.0 - 0.64) ** 2)
        vals = [kernel_diag(build_kernel_model(u1, n), 0.8) for n in (10, 20, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert kernel_diag(build_kernel_model(u1, 200), 0.8) == pytest.approx(exact, rel=1e-6)


@lru_cache(maxsize=None)
def _general_model(gamma, degree):
    return build_kernel_model(power_one_minus_z(gamma), degree)


def _node_sum_residual(m, coefs, w):
    """|<f, K_w> - f(w)| as the node sum sum w f conj(K_w) over the norm rule."""
    rule = m.norm_rule()
    pairing = np.sum(rule.weights * polynomial_values(coefs, rule) * np.conj(m.kernel(rule, w)))
    return float(abs(pairing - polynomial_values(coefs, complex(w))))


class TestRingPairedReproducing:
    """A radial model pairs f with K_w ring by ring (quadrature.ring_pairing)."""

    @pytest.mark.parametrize("alpha", _ALPHAS)
    @pytest.mark.parametrize("degree", [40, 200])
    def test_radial_matches_the_node_sum(self, alpha, degree):
        m = build_kernel_model(_standard(alpha), degree)
        rng = np.random.default_rng(7)
        for w in (0.0, 0.5, 0.9j, -0.62 + 0.7j):
            n = int(rng.integers(0, degree + 1))
            coefs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            assert abs(reproducing_check(m, coefs, w) - _node_sum_residual(m, coefs, w)) <= 1e-14

    @pytest.mark.parametrize("gamma", [-0.5, 1.0])
    def test_general_keeps_the_node_sum_bit_for_bit(self, gamma):
        # u varies around each ring of the general norm rule: no per-ring Parseval
        m = _general_model(gamma, 40)
        rng = np.random.default_rng(11)
        for w in (0.3 - 0.2j, 0.8, -0.5j):
            coefs = rng.standard_normal(41) + 1j * rng.standard_normal(41)
            assert reproducing_check(m, coefs, w) == _node_sum_residual(m, coefs, w)


_SOLVE_CASES = [(g, n) for g in (-0.5, 0.5, 1.0, 1.5) for n in (40, 80)]


class TestTriangularSolve:
    """The general model's numpy triangular solves against scipy.linalg.solve_triangular."""

    @pytest.mark.parametrize("gamma, degree", _SOLVE_CASES)
    def test_coefficients_are_lower_triangular_and_match_scipy(self, gamma, degree):
        from scipy.linalg import solve_triangular

        m = _general_model(gamma, degree)
        assert np.all(np.triu(m.coeffs, 1) == 0)
        gram = monomial_gram(m.weight, degree, *_gram_resolution(degree), 1.0)
        want = solve_triangular(np.linalg.cholesky(gram), np.eye(degree + 1), lower=True)
        assert np.max(np.abs(m.coeffs - want)) <= 1e-13 * np.max(np.abs(want))
        assert m.gram_residual < 1e-8

    @pytest.mark.parametrize("gamma, degree", _SOLVE_CASES)
    def test_basis_coordinates_round_trip(self, gamma, degree):
        from scipy.linalg import solve_triangular

        m = _general_model(gamma, degree)
        rng = np.random.default_rng(degree)
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        a = _basis_coordinates(m, c)
        want = solve_triangular(m.coeffs.T, c, lower=False)
        assert np.max(np.abs(a - want)) <= 1e-13 * np.max(np.abs(want))
        z = 0.9 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
        scale = np.polynomial.polynomial.polyval(np.abs(z), np.abs(c))
        f = np.polynomial.polynomial.polyval(z, c)
        assert np.max(np.abs(m.basis_matrix(z).T @ a - f) / scale) < 1e-13


@lru_cache(maxsize=None)
def _model(key):
    """Radial models at degree 60 and general models at degree 40, built once."""
    if key == "constant":
        return build_kernel_model(constant(2.5), 60)
    if key == "standard":
        return build_kernel_model(standard(0.5), 60)
    if key == "turned":
        # off the real axis the coefficients are complex
        u = Weight("turned", {}, lambda z: np.abs(1.0 - 1j * z) ** 0.5, None)
        return build_kernel_model(u, 40)
    return build_kernel_model(power_one_minus_z(float(key)), 40)


_MODEL_KEYS = ["constant", "standard", "-0.5", "0.5", "1.0", "turned"]


def _basis_kernel(m, z, w):
    """K_N(z, w) = sum_n e_n(z) conj(e_n(w)) with the basis on every point."""
    ew = np.conj(m.basis_matrix(np.array([complex(w)]))[:, 0])
    return (ew[:, None] * m.basis_matrix(z)).sum(axis=0)


def _basis_diag(m, z):
    e = m.basis_matrix(z)
    return np.real((e * np.conj(e)).sum(axis=0))


def _rel_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestRingEvaluation:
    @given(
        key=st.sampled_from(_MODEL_KEYS),
        n_radial=st.integers(2, 40),
        n_angular=st.integers(3, 160),
        r_max=st.sampled_from([1.0, 0.7]),
    )
    @settings(max_examples=40, deadline=None)
    # fewer angles than the degree: the diagonal sums alias, as the nodes repeat
    @example(key="0.5", n_radial=20, n_angular=31, r_max=1.0)
    @example(key="constant", n_radial=20, n_angular=7, r_max=1.0)
    def test_kernel_diag_on_rule_matches_basis_matrix(self, key, n_radial, n_angular, r_max):
        m = _model(key)
        rule = disc_rule(n_radial, n_angular, r_max)
        assert _rel_error(m.kernel_diag(rule), _basis_diag(m, rule.nodes)) <= 1e-12

    @pytest.mark.parametrize("key", _MODEL_KEYS)
    def test_kernel_on_norm_rule_matches_basis_matrix(self, key):
        m = _model(key)
        rule = m.norm_rule()
        assert _rel_error(m.kernel_diag(rule), _basis_diag(m, rule.nodes)) <= 1e-12
        for w in (0.0, 0.45 - 0.6j, -0.9j):
            assert _rel_error(m.kernel(rule, w), _basis_kernel(m, rule.nodes, w)) <= 1e-12

    @pytest.mark.parametrize("key", _MODEL_KEYS)
    def test_kernel_off_rule_matches_basis_matrix(self, key, disc_points):
        # Horner on kernel_coefficients(w); w off the real axis checks its conjugate
        m = _model(key)
        for w in (0.3 + 0.5j, -0.7 + 0.1j):
            assert _rel_error(m.kernel(disc_points, w), _basis_kernel(m, disc_points, w)) <= 1e-12
        assert _rel_error(m.kernel_diag(disc_points), _basis_diag(m, disc_points)) <= 1e-12

    def test_kernel_coefficients(self):
        m = _model("standard")
        w = 0.4 - 0.3j
        assert np.allclose(
            m.kernel_coefficients(w), np.conj(w) ** np.arange(61) / m.diag_norms, rtol=1e-13
        )

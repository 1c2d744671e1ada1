"""Acceptance gate: one test per numbered verification criterion.

Each test runs the corresponding ``verification.check_NN_*`` function, so
``pytest -v`` prints one line per criterion.  Criteria 1-11, 14 and 15 assert
the check's ``passed`` flag; their tolerances are pinned inside the check
functions themselves.

Criteria 12 and 13 assert literal bounds that exact analysis shows cannot be
met, so ``bergman-lab verify`` reports them as FAIL.  Their tests pin every
number the check reports against an independent closed-form oracle, written
here with ``scipy.special`` and ``scipy.integrate.quad`` only (Zhu, *Operator
Theory in Function Spaces*, ch. 6-7):

* criterion 12 uses the Moebius series for mu(Delta(z, r)) of
  mu = (1 - |w|^2)^t dA, which gives the compactness quantity on every ring
  of the boundary ladder, however deep;
* criterion 13 uses the hypergeometric Berezin transform of the same measure
  and a quadrature of the truncated Schatten integral over the radius.

Both tests also assert that ``passed`` equals the check's own bound evaluated
on the oracle values (False in both cases).  They therefore fail if the
numbers drift, and also if a check turns green or red while the mathematics
stays the same.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from bergman_lab import (
    criteria,
    geometry,
    kernels,
    measures,
    quadrature,
    reports,
    toeplitz,
    verification,
)
from bergman_lab.errors import DomainError
from bergman_lab.kernels import KernelModel
from bergman_lab.quadrature import DiscQuadrature
from bergman_lab.geometry import boundary_ladder
from bergman_lab.reports import classify_ring_trend


def _run(check):
    res = check()
    assert res["passed"], res["details"]


def _compactness_rings(n_rings, t=0.6, r=0.3, p=2, q=4, terms=400):
    """mu(Delta(z, r)) / u(Delta(z, r))^(1 + 1/p - 1/q) on the ladder radii
    |z| = 1 - 2^-(j+1), j < n_rings.

    Here u = 1 and mu = (1 - |w|^2)^t dA.  The Moebius change of variables
    w = phi_z(zeta) gives
        mu(Delta) = pi (1-|z|^2)^(t+2) sum_n c_n^2 |z|^(2n) B(r^2; n+1, t+1),
    with c_n = Gamma(n+t+2) / (n! Gamma(t+2)) and B(x; a, b) the incomplete
    beta function, and
        u(Delta) = pi r^2 (1-|z|^2)^2 / (1 - r^2 |z|^2)^2.
    Working from the gap 1 - |z| keeps exact the radii that float64 cannot
    represent.
    """
    gap = 0.5 ** np.arange(1, n_rings + 1)
    s = gap * (2.0 - gap)
    z2 = (1.0 - gap) ** 2
    n = np.arange(terms)
    c = np.exp(special.gammaln(n + t + 2) - special.gammaln(n + 1) - special.gammaln(t + 2))
    inc = special.betainc(n + 1, t + 1, r * r) * special.beta(n + 1, t + 1)
    mu = np.pi * s ** (t + 2) * np.sum(c**2 * z2[:, None] ** n * inc, axis=1)
    ud = np.pi * r * r * s**2 / (1.0 - r * r * z2) ** 2
    return mu / ud ** (1.0 + 1.0 / p - 1.0 / q)


def _berezin_power_density(x, t):
    """Berezin transform of (1 - |w|^2)^t dA at |z|^2 = x, for u = 1."""
    return (1.0 - x) ** t * special.hyp2f1(t, t, t + 2, x) / (t + 1)


def _schatten_integral(t, R):
    """int_{|z|<R} (mu~)^2 K(z, z) dA = int_0^{R^2} mu~^2 (1 - x)^-2 dx."""
    value, _ = integrate.quad(
        lambda x: _berezin_power_density(x, t) ** 2 / (1.0 - x) ** 2, 0.0, R * R
    )
    return value


def _sweep_verdict(values):
    """The documented sweep rule: 2x growth is divergent, a change below 5%
    of the final value is finite, anything between is inconclusive."""
    if values[-1] / values[0] >= 2.0:
        return "divergent"
    if abs(values[-1] - values[0]) / values[-1] < 0.05:
        return "finite"
    return "inconclusive"


def _membership_verdict(t, degree):
    """The documented doubling rule on the exact spectrum of T_mu for u = 1.

    With the orthonormal monomials the operator is diagonal, with
    eigenvalues (n + 1) B(n + 1, t + 1); the rule compares the h = x^2 sums
    over the leading blocks of sizes N/2 + 1 and N + 1.
    """
    n = np.arange(degree + 1)
    sums = np.cumsum(((n + 1) * special.beta(n + 1, t + 1)) ** 2)
    ratio = sums[degree] / sums[degree // 2]
    if ratio >= 1.15:
        return "divergent"
    if abs(ratio - 1.0) < 0.05:
        return "finite"
    return "inconclusive"


def test_criterion_01_classical_kernel():
    _run(verification.check_01_classical_kernel)


def test_criterion_02_standard_kernel():
    _run(verification.check_02_standard_kernel)


def test_criterion_03_reproducing():
    _run(verification.check_03_reproducing)


def test_criterion_04_berezin_normalization():
    _run(verification.check_04_berezin_normalization)


def test_criterion_04_sees_drifted_measure_moments(monkeypatch):
    # the Toeplitz diagonal of u dA scaled by 1 + 1e-5 scales the Berezin transform with it
    beta_moments = measures.beta_moments
    monkeypatch.setattr(measures, "beta_moments", lambda a, n: beta_moments(a, n) * (1.0 + 1e-5))
    res = verification.check_04_berezin_normalization()
    assert not res["passed"]
    assert res["details"]["max_deviation_from_one"] == pytest.approx(1e-5, rel=1e-3)


def test_criterion_05_toeplitz_identity():
    _run(verification.check_05_toeplitz_identity)


def test_criterion_06_rank_one_spectrum():
    _run(verification.check_06_rank_one_spectrum)


def test_criterion_07_trace_identity():
    _run(verification.check_07_trace_identity)


# Certificates that can fail: one program mutation per check turns it red.


def test_criteria_01_and_02_see_drifted_kernel_moments(monkeypatch):
    # every radial norm G_nn scaled by 1 + 1e-5 scales K_N by 1 / (1 + 1e-5)
    beta_moments = kernels.beta_moments
    monkeypatch.setattr(kernels, "beta_moments", lambda a, n: beta_moments(a, n) * (1.0 + 1e-5))
    res = verification.check_01_classical_kernel()
    assert not res["passed"]
    assert res["details"]["max_rel_error"] == pytest.approx(1e-5, rel=1e-3)
    res = verification.check_02_standard_kernel()
    assert not res["passed"]
    assert res["details"]["error_at_zero"] == pytest.approx(2e-5 / np.pi, rel=1e-3)


def test_criterion_03_sees_a_drifted_rule_exponent(monkeypatch):
    # the norm rule integrates against (1 - |z|^2)^(a + 1e-6) instead of u dA
    rule = quadrature.weighted_disc_rule
    monkeypatch.setattr(quadrature, "weighted_disc_rule", lambda n, k, c, a: rule(n, k, c, a + 1e-6))
    res = verification.check_03_reproducing()
    assert not res["passed"]
    assert res["details"]["max_error"] > 1e-7


def test_criterion_03_sees_a_dropped_ring(monkeypatch):
    # one Gauss-Jacobi node in t, the innermost ring, left out of the norm rule
    def without_first_ring(n, k, c, a):
        full = rule(n, k, c, a)
        rho, ring_weights = full.rings
        return DiscQuadrature(None, None, None, n - 1, (rho[1:], ring_weights[1:]), full.n_angular)

    rule = quadrature.weighted_disc_rule
    monkeypatch.setattr(quadrature, "weighted_disc_rule", without_first_ring)
    res = verification.check_03_reproducing()
    assert not res["passed"]
    assert res["details"]["max_error"] > 1e-7


def test_criterion_03_sees_an_aliased_norm_rule(monkeypatch):
    # 128 angles at degree 200: K_w's frequencies above 128 fold onto those of f,
    # which the rule's own node sum keeps; a pairing of diagonal moments alone
    # would drop them and stay green
    norm_resolution = kernels._norm_resolution
    monkeypatch.setattr(kernels, "_norm_resolution", lambda n: (*norm_resolution(n)[:2], 128))
    res = verification.check_03_reproducing()
    assert not res["passed"]
    assert res["details"]["max_error"] == pytest.approx(2.5323e-05, rel=1e-4)


def test_criterion_05_sees_drifted_measure_moments(monkeypatch):
    beta_moments = measures.beta_moments
    monkeypatch.setattr(measures, "beta_moments", lambda a, n: beta_moments(a, n) * (1.0 + 1e-6))
    res = verification.check_05_toeplitz_identity()
    assert not res["passed"]
    assert res["details"]["max_matrix_deviation"] == pytest.approx(1e-6, rel=1e-6)


def test_criterion_06_sees_a_scaled_basis_row(monkeypatch):
    # the atom's basis row enters the Gram matrix; the trace side does not use it
    basis_matrix = KernelModel.basis_matrix
    monkeypatch.setattr(KernelModel, "basis_matrix", lambda m, z: basis_matrix(m, z) * (1.0 + 1e-6))
    res = verification.check_06_rank_one_spectrum()
    assert not res["passed"]
    assert res["details"]["top_error"] > 1e-8 and res["details"]["trace_residual"] > 1e-10


def test_criterion_07_sees_a_dropped_eigenvalue(monkeypatch):
    eigenvalues = toeplitz.ToeplitzMatrix.eigenvalues
    monkeypatch.setattr(toeplitz.ToeplitzMatrix, "eigenvalues", lambda T: eigenvalues(T)[1:])
    res = verification.check_07_trace_identity()
    assert not res["passed"]
    assert res["details"]["relative_residual"] > 1e-6


def test_criterion_08_lattice_certificates():
    _run(verification.check_08_lattice_certificates)


def test_criterion_08_audit_candidates_are_pinned(monkeypatch):
    # every pair _close_pairs hands out to check 8's audits, and those within
    # their threshold.  Each audit point meets a band of lattice points in the
    # exact angular window of its disk on the band's moduli (_disk_window).
    # min_separation and covering_fraction take a first pass within 0.75 r,
    # which decides both, and the multiplicity at r = 0.5 (threshold 0.8)
    # counts the 568,986 members inside its inner windows (_inner_window)
    # without a pair, handing out 361,278 where it evaluated 1,303,313:
    # 1,270,254 candidates for 846,212 near pairs.  One pass within r (and
    # 2 r / (1 + r^2)) that evaluated every windowed pair handed out
    # 2,465,756 for 1,589,771; a lower bound at the smaller modulus,
    # min(band minimum, |z|), 4,958,246, and one window per pair of bands,
    # at the smaller band's least modulus, 6,793,776.
    counted = [0, 0]

    def counting(q, p, thr, inner=None):
        for i, j in close_pairs(q, p, thr, inner):
            counted[0] += i.size
            counted[1] += int(np.sum(geometry.pseudo_distance(q[i], p[j]) < thr))
            yield i, j

    close_pairs = geometry._close_pairs
    monkeypatch.setattr(geometry, "_close_pairs", counting)
    assert verification.check_08_lattice_certificates()["passed"]
    assert counted == [1_270_254, 846_212]


def test_criterion_08_sees_a_dropped_wraparound(monkeypatch):
    # the ring walk of build_lattice without its wrap-around: the index gap of
    # two candidates is taken one way only, so the last candidates of a ring
    # no longer meet the first accepted ones, and pairs closer than r/2 pile
    # up across index 0
    monkeypatch.setattr(geometry, "_ring_gap", lambda d, m: d)
    res = verification.check_08_lattice_certificates()
    assert not res["passed"]
    for r, minsep in ((0.2, 0.02493), (0.5, 0.2344)):
        details = res["details"][f"r={r}"]
        assert not details["ok"]
        assert details["min_separation"] == pytest.approx(minsep, rel=1e-3)
        assert details["min_separation"] < geometry.pseudo_add(r / 4.0, r / 4.0)


def test_criterion_09_ba1_band():
    _run(verification.check_09_ba1_band)


def test_criterion_10_diagonal_estimate():
    _run(verification.check_10_diagonal_estimate)


def test_criterion_10_sees_shrunk_disk_masses(monkeypatch):
    # u(Delta(z, 0.5)) scaled by 0.99 takes the product at z = 0, r^2 = 0.25, to 0.2475,
    # below the band floor 0.25 (1 - 1e-3)
    disk_masses = verification.disk_masses
    monkeypatch.setattr(verification, "disk_masses", lambda *a: disk_masses(*a) * 0.99)
    res = verification.check_10_diagonal_estimate()
    assert not res["passed"] and not res["details"]["in_band"]
    assert res["details"]["observed"][0] == pytest.approx(0.2475, rel=1e-6)


def test_criterion_11_boundedness_threshold():
    _run(verification.check_11_boundedness_threshold)


def test_criterion_11_sees_a_classifier_blind_to_slope(monkeypatch):
    # a ring slope read as 0.0: the t = 0.4 rings still grow by 2^0.1 per ring,
    # but the classifier calls them finite
    monkeypatch.setattr(reports, "ring_slope", lambda values, tail=5: 0.0)
    res = verification.check_11_boundedness_threshold()
    assert not res["passed"]
    assert res["details"]["verdict_t0.4"] == "finite"
    assert res["details"]["total_growth_t0.4"] >= 2.0


def test_criterion_12_compactness():
    # Pins the 20 ring maxima of the t = 0.6 compactness quantity to the
    # Moebius-series oracle, and the vanishing trend to its exact dyadic slope
    # -(t - 2(1/p - 1/q)) = -0.1.  The literal bound "last ring below 1e-2 of
    # the max" first holds at ring 68, beyond the 53 rings float64 allows.
    res = verification.check_12_compactness()
    details = res["details"]
    rings = np.array(details["rings_t0.6"])
    exact = _compactness_rings(20)
    np.testing.assert_allclose(rings, exact, rtol=1e-9, atol=0)
    exact_last_over_max = exact[-1] / exact.max()
    assert details["last_over_max"] == pytest.approx(exact_last_over_max, rel=1e-9, abs=0)
    assert details["last_over_max"] == pytest.approx(0.2928246285, rel=1e-9, abs=0)

    slope = math.log2(rings[-1] / rings[-6]) / 5
    assert abs(slope - (-0.1)) < 1e-3
    assert classify_ring_trend(rings) == "vanishing"
    assert details["decreasing"] and details["identity_flat"]
    assert abs(details["essential_norm_identity"] - 1.0) < 1e-6

    exact_decreasing = bool(np.all(np.diff(exact) <= 0))
    exact_last_small = bool(exact[-1] < 1e-2 * exact.max())
    assert not exact_last_small
    assert details["last_small"] == exact_last_small
    assert res["passed"] == (exact_decreasing and exact_last_small)

    deep = _compactness_rings(80)
    assert int(np.argmax(deep < 1e-2 * deep.max())) == 68
    assert len(boundary_ladder(53, 8).radii) == 53
    with pytest.raises(DomainError):
        boundary_ladder(54, 8)


def test_criterion_13_schatten_threshold():
    # Pins the degree-1600 Schatten sweep to the hypergeometric oracle and
    # every verdict to the documented rule applied to exact values.  The exact
    # t = 0.8 sweep changes by 10.7% (ratio 1.120) against the 5% bound, so
    # the rule reads inconclusive and the check fails.
    res = verification.check_13_schatten_threshold()
    details = res["details"]
    sweep = (0.99, 0.995, 0.999)
    exact = {t: [_schatten_integral(t, R) for R in sweep] for t in (0.8, 0.3)}
    for t, values in exact.items():
        got = details[f"integral_t{t}"]["values"]
        # N (1 - R) = 16 and 8: the truncated kernel is resolved
        np.testing.assert_allclose(got[:2], values[:2], rtol=1e-6, atol=0)
        # N (1 - R) = 1.6: the truncation of the kernel shows
        np.testing.assert_allclose(got[2], values[2], rtol=1e-2, atol=0)

    c, d = exact[0.8], exact[0.3]
    assert (c[-1] - c[0]) / c[-1] == pytest.approx(0.1068, abs=1e-4)
    assert c[-1] / c[0] == pytest.approx(1.120, abs=1e-3)
    assert d[-1] / d[0] == pytest.approx(2.95, abs=1e-2)

    verdict_c, verdict_d = _sweep_verdict(c), _sweep_verdict(d)
    assert (verdict_c, verdict_d) == ("inconclusive", "divergent")
    assert details["integral_t0.8"]["verdict"] == verdict_c
    assert details["integral_t0.3"]["verdict"] == verdict_d
    got_d = details["integral_t0.3"]["values"]
    assert got_d[-1] / got_d[0] >= 2.0

    membership = (_membership_verdict(0.8, 800), _membership_verdict(0.3, 800))
    assert membership == ("finite", "divergent")
    assert (details["membership_t0.8"], details["membership_t0.3"]) == membership

    expected = (
        verdict_c == "finite"
        and verdict_d == "divergent"
        and membership == (verdict_c, verdict_d)
    )
    assert not expected
    assert res["passed"] == expected


def test_criterion_14_consistency_matrix():
    _run(verification.check_14_consistency_matrix)


def test_criterion_14_sees_a_tilted_carleson_ratio(monkeypatch):
    # mu(S(a)) / u(S(a))^expo times (1 - |a|^2)^(-0.5) grows at the boundary,
    # so the Carleson condition parts from the Berezin and averaging ones
    ratios = criteria._carleson_ratios
    monkeypatch.setattr(
        criteria,
        "_carleson_ratios",
        lambda mu, u, expo, points: ratios(mu, u, expo, points)
        * (1.0 - np.abs(np.asarray(points)) ** 2) ** -0.5,
    )
    res = verification.check_14_consistency_matrix()
    assert not res["passed"]
    for name in ("identity p=q", "power 0.6 p2q4"):
        assert res["details"][name]["agreement"] is False


def test_criterion_14_sees_a_divergent_identity_norm(monkeypatch):
    # for q < p the identity is the compact inclusion A^4(u) -> A^2(u): an L^s
    # norm of its averaging function read divergent turns its cell red
    qlp_index = criteria.qlp_index

    def divergent_for_u_dA(mu, *args, **kwargs):
        rep = qlp_index(mu, *args, **kwargs)
        if mu.kind == "weighted_area":
            rep.verdict = "divergent"
        return rep

    assert verification.check_14_consistency_matrix()["details"]["identity p4q2"] == {
        "verdict": "finite",
        "expected": "finite",
        "agreement": True,
        "conditions": {
            "iv_average_lp_u_dA": "finite",
            "iv_average_lp_dA": "finite",
            "v_carleson": "finite",
            "vi_vanishing_carleson": "vanishing",
        },
    }
    monkeypatch.setattr(criteria, "qlp_index", divergent_for_u_dA)
    res = verification.check_14_consistency_matrix()
    assert not res["passed"]
    cell = res["details"]["identity p4q2"]
    assert (cell["verdict"], cell["agreement"]) == ("inconclusive", False)
    assert all(c["agreement"] for name, c in res["details"].items() if name != "identity p4q2")


def test_criterion_15_determinism():
    _run(verification.check_15_determinism)


def test_criterion_15_sees_a_nondeterministic_build(monkeypatch):
    # every second candidate spiral samples each ring at one more candidate,
    # so the second artifact build differs from the first wherever the
    # lattice is really rebuilt, and not served from the lattice cache
    def denser_every_second(r, r_max):
        calls.append((r, r_max))
        rings = candidate_rings(r, r_max)
        if len(calls) % 2 == 0:
            rings = [(rho, m + 1) for rho, m in rings]
        return rings

    calls = []
    candidate_rings = geometry._candidate_rings
    monkeypatch.setattr(geometry, "_candidate_rings", denser_every_second)
    res = verification.check_15_determinism()
    assert not res["passed"]
    assert res["details"]["mismatched"] == ["lattice.json"]


def test_criterion_15_sees_a_reordered_lattice(monkeypatch):
    # every second lattice build hands out its points reversed
    def reversed_every_second(*args):
        lat = build_lattice(*args)
        calls.append(lat)
        return replace(lat, points=lat.points[::-1]) if len(calls) % 2 == 0 else lat

    calls = []
    build_lattice = verification.build_lattice
    monkeypatch.setattr(verification, "build_lattice", reversed_every_second)
    res = verification.check_15_determinism()
    assert not res["passed"]
    assert res["details"]["mismatched"] == ["lattice.json"]

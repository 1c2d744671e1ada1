"""Theorem checkers: boundedness/compactness indices and Carleson tests.

Each checker evaluates one computable condition of the boundedness /
compactness / q<p equivalence theorems, or of the Carleson embedding lemma,
and returns a CriterionReport.  Comparability constants are never asserted:
verdicts come from boundary-ladder trends and the index value is the maximum
of the sampled quantity (the operator-norm surrogate).

Exponent conventions used throughout:

  * boundedness / compactness quantity: mu^_r(z) / u(Delta(z,r))^(1/p - 1/q)
    (and the t-Berezin analogue), for 0 < p <= q;
  * q < p: the L^(pq/(p-q)) norm of the averaging function;
  * "lambda-Carleson measure for A^s(u)" (embedding A^s(u) -> L^lambda(mu)
    bounded) is tested through mu(S(a)) <= C u(S(a))^(lambda/s); the
    s-parameterized condition of the equivalence theorems reduces to the
    s-independent exponent 1 + 1/p - 1/q.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import BoundaryLadder, CarlesonSet, boundary_ladder
from .reports import _SLOPE_TOL, CriterionReport, band, classify_ring_trend, ring_slope
from .transforms import _grid_points, profile_lp_norm, t_berezin_profile
from .weights import _region_masses, disk_masses

__all__ = [
    "boundedness_index",
    "compactness_index",
    "qlp_index",
    "carleson_test",
    "vanishing_carleson_test",
    "theorem_consistency_report",
]


def _bc_pass(mu, u, m, p, q, t, r, ladder):
    """Ladder points, mu^_r and mu~_t over u(Delta)^(1/p - 1/q) there, and their ring maxima."""
    if not isinstance(ladder, BoundaryLadder):
        raise DomainError(f"ring trends need a BoundaryLadder, not {type(ladder).__name__}")
    points = ladder.points()
    ud = disk_masses(u, r, points, 32)
    scale = ud ** (1.0 / p - 1.0 / q)
    av = mu.disk_masses(points, r) / ud / scale
    tb = t_berezin_profile(mu, m, t, points) / scale
    return points, av, tb, ladder.ring_max(av), ladder.ring_max(tb)


def _carleson_ratios(mu, u, expo, points):
    """mu(S(a)) / u(S(a))^expo at every anchor a, each mass one batched call.

    S(a) turns with a, so a radial mu or u takes its masses once per distinct
    |a|, on S(|a|).
    """
    mu_s = mu.region_masses(CarlesonSet, points).tolist()
    u_s = _region_masses(u, CarlesonSet, points, 48).tolist()
    # powers on python floats: numpy's vectorised power may differ in the last bit
    return np.array([a / b**expo for a, b in zip(mu_s, u_s)])


def boundedness_index(mu, u, m, p, q, t, r, ladder: BoundaryLadder) -> CriterionReport:
    """Boundedness index: sup of the averaging and t-Berezin quantities on a ladder.

    The reported index is the averaging-function supremum (the operator-norm
    surrogate); the t-Berezin supremum and their ratio sit in extras.  The
    per-ring maxima drive the verdict, one of {finite, divergent,
    inconclusive} (a vanishing trend is bounded, hence finite); a grid that
    is not a BoundaryLadder raises DomainError.
    """
    if not (0 < p <= q):
        raise DomainError("boundedness_index requires 0 < p <= q")
    points, av, tb, rings_av, _ = _bc_pass(mu, u, m, p, q, t, r, ladder)
    verdict = classify_ring_trend(rings_av)
    return CriterionReport(
        name="boundedness_index",
        parameters={"p": p, "q": q, "t": t, "r": r},
        index_value=float(np.max(av)),
        per_point=list(zip(points, av)),
        ring_trend=list(zip(ladder.radii, rings_av)),
        verdict="finite" if verdict == "vanishing" else verdict,
        extras={
            "berezin_index": float(np.max(tb)),
            "average_band": band(av),
            "berezin_band": band(tb),
        },
    )


def compactness_index(mu, u, m, p, q, t, r, ladder: BoundaryLadder) -> CriterionReport:
    """Compactness trend: the boundedness quantity along a boundary ladder."""
    if not (0 < p <= q):
        raise DomainError("compactness_index requires 0 < p <= q")
    points, av, _, rings_av, rings_tb = _bc_pass(mu, u, m, p, q, t, r, ladder)
    return CriterionReport(
        name="compactness_index",
        parameters={"p": p, "q": q, "t": t, "r": r},
        index_value=rings_av[-1],
        per_point=list(zip(points, av)),
        ring_trend=list(zip(ladder.radii, rings_av)),
        verdict=classify_ring_trend(rings_av),
        extras={
            "ring_max_average": rings_av,
            "ring_max_berezin": rings_tb,
            "berezin_trend_verdict": classify_ring_trend(rings_tb),
        },
    )


def qlp_index(mu, u, m, p, q, t, r, reference="u_dA") -> CriterionReport:
    """q < p criterion: || mu^_r ||_{L^{pq/(p-q)}} against the reference.

    The radial shell partials of the defining integral provide the growth
    trend; a flattening tail reads finite, a sustained positive dyadic slope
    reads divergent.
    """
    if not (0 < q < p):
        raise DomainError("qlp_index requires 0 < q < p")
    if reference not in ("u_dA", "dA"):
        raise DomainError(f"unknown reference measure {reference!r}")
    exponent = p * q / (p - q)
    norm, radii, partials = profile_lp_norm(mu, u, r, exponent, reference=reference)
    slope = ring_slope(partials[partials > 0], tail=8)
    if not np.isfinite(norm) or slope >= _SLOPE_TOL:
        verdict = "divergent"
    else:
        verdict = "finite"
    return CriterionReport(
        name="qlp_index",
        parameters={"p": p, "q": q, "t": t, "r": r, "reference": reference},
        index_value=norm,
        per_point=[],
        ring_trend=list(zip(radii, partials)),
        verdict=verdict,
        extras={"exponent": exponent, "tail_slope": slope},
    )


def carleson_test(mu, u, m, p, q, r, s, p0, anchors) -> CriterionReport:
    """Carleson embedding sub-indices (b), (c), (e) with their pairwise ratios.

    (b) max mu(S(a)) / u(S(a))^(q/p) over the anchors;
    (c) max mu(Delta(a,r)) / u(Delta(a,r))^(q/p);
    (e) max over anchors w of
        u(Delta(w,r))^(-q/p) * int ((1-|w|^2)/|1 - z conj(w)|)^(qs) dmu(z),
        the test-function form, requiring s >= 2 p0 / p.
    """
    if not (0 < p <= q):
        raise DomainError("carleson_test requires q >= p > 0")
    if s < 2.0 * p0 / p:
        raise DomainError("carleson_test requires s >= 2 p0 / p")
    points = _grid_points(anchors)
    qp = q / p
    # powers on python floats: numpy's vectorised power may differ in the last bit
    udq = np.array([v**qp for v in disk_masses(u, r, points, 32).tolist()])

    def test_integral(w):
        def g(z):
            z = np.asarray(z, dtype=complex)
            return ((1.0 - abs(w) ** 2) / np.abs(1.0 - z * np.conj(w))) ** (q * s)

        return mu.integrate(g)

    idx_b = _carleson_ratios(mu, u, qp, points)
    idx_c = mu.disk_masses(points, r) / udq
    idx_e = np.array([test_integral(complex(a)) for a in points]) / udq
    max_b, max_c, max_e = map(float, (idx_b.max(), idx_c.max(), idx_e.max()))
    finite = all(np.isfinite(v) for v in (max_b, max_c, max_e))
    return CriterionReport(
        name="carleson_test",
        parameters={"p": p, "q": q, "r": r, "s": s, "p0": p0},
        index_value=max_c,
        per_point=list(zip(points, idx_c)),
        ring_trend=[],
        verdict="finite" if finite else "divergent",
        extras={
            "index_b": max_b,
            "index_c": max_c,
            "index_e": max_e,
            "ratio_b_over_c": max_b / max_c if max_c > 0 else float("inf"),
            "ratio_e_over_c": max_e / max_c if max_c > 0 else float("inf"),
            "band_b": band(idx_b),
            "band_c": band(idx_c),
            "band_e": band(idx_e),
        },
    )


def vanishing_carleson_test(mu, u, p, q, ladder: BoundaryLadder) -> CriterionReport:
    """Ring trend of mu(S(a)) / u(S(a))^(q/p) over the ladder anchors."""
    if not (0 < p <= q):
        raise DomainError("vanishing_carleson_test requires q >= p > 0")
    points = ladder.points()
    vals = _carleson_ratios(mu, u, q / p, points)
    rings = ladder.ring_max(vals)
    return CriterionReport(
        name="vanishing_carleson_test",
        parameters={"p": p, "q": q},
        index_value=rings[-1],
        per_point=list(zip(points, vals)),
        ring_trend=list(zip(ladder.radii, rings)),
        verdict=classify_ring_trend(rings),
        extras={"ring_max": rings},
    )


def _condition(rings, verdict, **extra):
    """One ring-trend condition of the consistency table."""
    return {"trend": rings, "verdict": verdict, "last": rings[-1], **extra}


def _overall(verdicts, q_below_p):
    """(agreement, verdict) of the condition verdicts, "not applicable" ones left out.

    All must read bounded ({finite, vanishing}) or all unbounded; for p <= q
    bounded ones must also all vanish or none (for q < p compact is bounded).
    """
    active = [v for v in verdicts if v != "not applicable"]
    bounded = {v in ("finite", "vanishing") for v in active}
    vanishing = {v == "vanishing" and not q_below_p for v in active}
    if bounded == {False}:
        return True, "divergent"
    if bounded == {True} and len(vanishing) == 1:
        return True, "vanishing" if vanishing == {True} else "finite"
    return False, "inconclusive"


def theorem_consistency_report(mu, u, m, p, q, t, r, s, ladder=None) -> CriterionReport:
    """Run every equivalent condition of the applicable theorem and compare.

    For 0 < p <= q the conditions are the t-Berezin quantity (ii) and the
    averaging quantity (iii), with the verdicts compactness_index gives
    their ring trends, and the s-Carleson condition (iv).  Each contributes
    a boundedness verdict (finite vs divergent) and a compactness verdict
    (vanishing or not); all must agree or the report is inconclusive.

    For 0 < q < p the conditions are the L^{pq/(p-q)} norms of the averaging
    function against both reference measures (iv), the Carleson trend (v)
    and its vanishing form (vi); boundedness and compactness coincide.

    Both regimes test the Carleson box ratio mu(S(a)) / u(S(a))^e at the
    s-independent exponent e = 1 + 1/p - 1/q (0.75 at p = 4, q = 2); it is
    "not applicable" when p <= q and q <= 1, where the conjugate exponent is
    undefined.  For q < p this box supremum is not an equivalent condition:
    Luecking's condition there is an integrability condition.
    """
    if ladder is None:
        # ladder depth matched to the kernel truncation: the model resolves
        # the boundary only while degree * (1 - rho) stays a few units large
        rings = int(min(12, max(4, round(1 + np.log2(m.degree / 8)))))
        ladder = boundary_ladder(rings, 8)
    conditions = {}
    if p <= q:
        rep_b = compactness_index(mu, u, m, p, q, t, r, ladder)
        conditions["ii_berezin"] = _condition(
            rep_b.extras["ring_max_berezin"], rep_b.extras["berezin_trend_verdict"]
        )
        conditions["iii_average"] = _condition(rep_b.extras["ring_max_average"], rep_b.verdict)
        index = rep_b.index_value
    else:
        for ref in ("u_dA", "dA"):
            rep = qlp_index(mu, u, m, p, q, t, r, reference=ref)
            conditions[f"iv_average_lp_{ref}"] = {
                "verdict": rep.verdict, "norm": rep.index_value, "tail_slope": rep.extras["tail_slope"]
            }
        index = conditions["iv_average_lp_u_dA"]["norm"]
    if p <= q and q <= 1:
        conditions["iv_carleson_s"] = {"verdict": "not applicable"}
    else:
        expo = 1.0 + 1.0 / p - 1.0 / q
        rings_c = ladder.ring_max(_carleson_ratios(mu, u, expo, ladder.points()))
        verdict_c = classify_ring_trend(rings_c)
        if p <= q:
            conditions["iv_carleson_s"] = _condition(rings_c, verdict_c, exponent=expo)
        else:
            bounded_c = "finite" if verdict_c == "vanishing" else verdict_c
            conditions["v_carleson"] = _condition(rings_c, bounded_c, exponent=expo)
            conditions["vi_vanishing_carleson"] = {"verdict": verdict_c, "last": rings_c[-1]}
    agreement, overall = _overall([c["verdict"] for c in conditions.values()], q < p)
    return CriterionReport(
        name="theorem_consistency",
        parameters={"p": p, "q": q, "t": t, "r": r, "s": s},
        index_value=index,
        per_point=[],
        ring_trend=[],
        verdict=overall,
        extras={"conditions": conditions, "agreement": agreement},
    )

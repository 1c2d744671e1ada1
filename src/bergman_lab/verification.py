"""The acceptance verification suite: 15 named checks with pinned tolerances.

Each ``check_NN_*`` function computes its quantities, compares them against
closed-form oracles or refinement-stability requirements, and returns a plain
dict ``{"criterion", "name", "passed", "details"}``.  ``run_all`` executes
the suite in order and renders a one-line pass/fail summary per criterion.

All randomness is seeded, all summation orders are fixed, and the details
dicts contain only JSON-serializable data, so two consecutive runs serialize
to byte-identical artifacts.
"""

from __future__ import annotations

import numpy as np

from . import criteria, geometry, toeplitz, transforms, weights
from .errors import DomainError
from .geometry import audit_grid, boundary_ladder, build_lattice, pseudo_add
from .kernels import build_kernel_model, kernel_diag, reproducing_check
from .measures import atomic, power_density, weighted_area
from .reports import _jsonable
from .weights import constant, disk_masses, standard

__all__ = ["ALL_CHECKS", "run_all", "render_summary"]

_SEED = 20260823


def _result(criterion, name, passed, details):
    return {
        "criterion": criterion,
        "name": name,
        "passed": bool(passed),
        "details": _jsonable(details),
    }


def _probe_points(n, rmax, twist=1):
    """Deterministic spiral of n points with |z| <= rmax."""
    k = np.arange(n)
    return rmax * ((k + 1) / n) * np.exp(2j * np.pi * twist * k / n)


def check_01_classical_kernel():
    """u = 1, N = 200: K_N vs 1 / (pi (1 - conj(w) z)^2) on a 20x20 grid."""
    m = build_kernel_model(constant(), 200)
    zs = _probe_points(20, 0.7, twist=1)
    ws = _probe_points(20, 0.7, twist=3)
    worst = 0.0
    for w in ws:
        approx = m.kernel(zs, w)
        exact = 1.0 / (np.pi * (1.0 - np.conj(w) * zs) ** 2)
        worst = max(worst, float(np.max(np.abs(approx - exact) / np.abs(exact))))
    return _result(1, "classical kernel", worst < 1e-6, {"max_rel_error": worst})


def check_02_standard_kernel():
    """u = standard(1), N = 200: K_N(0,0) = 2/pi and the diagonal closed form.

    For u(z) = (1 - |z|^2)^alpha the kernel diagonal is
    (alpha + 1) / (pi (1 - |z|^2)^(2 + alpha)); at alpha = 1 the exponent
    is 3 (the same closed form that yields K_N(0,0) = 2/pi).
    """
    m = build_kernel_model(standard(1.0), 200)
    at0 = abs(kernel_diag(m, 0.0) - 2.0 / np.pi)
    rho = np.linspace(0.0, 0.6, 13).astype(complex)
    exact = 2.0 / (np.pi * (1.0 - np.abs(rho) ** 2) ** 3)
    rel = float(np.max(np.abs(m.kernel_diag(rho) - exact) / exact))
    return _result(
        2,
        "standard-weight kernel",
        at0 < 1e-6 and rel < 1e-5,
        {"error_at_zero": at0, "max_rel_error_diag": rel},
    )


def check_03_reproducing():
    """|<f, K_w> - f(w)| < 1e-7, 50 random polynomials x 20 points x 2 weights."""
    rng = np.random.default_rng(_SEED)
    points = _probe_points(20, 0.9, twist=7)
    worst = 0.0
    for u in (constant(), standard(1.0)):
        m = build_kernel_model(u, 200)
        for _ in range(50):
            deg = int(rng.integers(1, 51))
            coefs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            w = points[int(rng.integers(0, len(points)))]
            worst = max(worst, reproducing_check(m, coefs, w))
    return _result(3, "reproducing property", worst < 1e-7, {"max_error": worst})


def check_04_berezin_normalization():
    """mu = u dA: Berezin transform is 1 on the lattice; t = 2 coincides."""
    lattice = build_lattice(0.3, 0.95)
    worst = 0.0
    worst_t = 0.0
    for u in (constant(), standard(1.0)):
        m = build_kernel_model(u, 200)
        mu = weighted_area(u)
        prof = transforms.berezin_profile(mu, m, lattice.points)
        worst = max(worst, float(np.max(np.abs(prof - 1.0))))
        prof_t = transforms.t_berezin_profile(mu, m, 2.0, lattice.points)
        worst_t = max(worst_t, float(np.max(np.abs(prof_t - prof))))
    return _result(
        4,
        "Berezin normalization",
        worst < 1e-6 and worst_t < 1e-8,
        {"max_deviation_from_one": worst, "max_t2_mismatch": worst_t},
    )


def check_05_toeplitz_identity():
    """mu = u dA: the Toeplitz matrix is the identity; spectrum all ones."""
    worst_m = 0.0
    worst_s = 0.0
    for u in (constant(), standard(1.0)):
        m = build_kernel_model(u, 120)
        T = toeplitz.assemble(weighted_area(u), m)
        worst_m = max(worst_m, float(np.max(np.abs(T.entries - np.eye(T.size)))))
        worst_s = max(worst_s, float(np.max(np.abs(np.array(toeplitz.spectrum(T).eigenvalues) - 1.0))))
    return _result(
        5,
        "Toeplitz identity",
        worst_m < 1e-8 and worst_s < 1e-8,
        {"max_matrix_deviation": worst_m, "max_eigen_deviation": worst_s},
    )


def check_06_rank_one_spectrum():
    """mu = 2 delta_0, u = 1: spectrum {2/pi, 0, ...}; trace residual < 1e-10."""
    m = build_kernel_model(constant(), 200)
    mu = atomic([(0.0, 2.0)])
    T = toeplitz.assemble(mu, m)
    eig = np.array(toeplitz.spectrum(T).eigenvalues)
    top = abs(eig[0] - 2.0 / np.pi)
    rest = float(np.max(np.abs(eig[1:]))) if eig.size > 1 else 0.0
    trace = toeplitz.trace_identity_check(T, mu, m)
    return _result(
        6,
        "rank-one spectrum",
        top < 1e-8 and rest < 1e-8 and trace < 1e-10,
        {"top_error": top, "max_tail": rest, "trace_residual": trace},
    )


def check_07_trace_identity():
    """mu = power_density(1), u = 1, N = 120: relative trace residual < 1e-6."""
    m = build_kernel_model(constant(), 120)
    mu = power_density(1.0)
    T = toeplitz.assemble(mu, m)
    resid = toeplitz.trace_identity_check(T, mu, m)
    total = float(np.sum(T.eigenvalues()))
    rel = resid / total
    return _result(7, "trace identity", rel < 1e-6, {"relative_residual": rel, "trace": total})


def check_08_lattice_certificates():
    """r in {0.2, 0.5}, R_max = 0.99: disjointness, covering, multiplicity."""
    details = {}
    passed = True
    grid = audit_grid(10000, 0.99)
    for r in (0.2, 0.5):
        lat = build_lattice(r, 0.99)
        minsep = lat.min_separation()
        disjoint = minsep >= pseudo_add(r / 4.0, r / 4.0)
        cover = lat.covering_fraction(grid)
        mult = lat.multiplicity(grid)
        ok = disjoint and cover == 1.0 and mult <= lat.multiplicity_bound
        passed = passed and ok
        details[f"r={r}"] = {
            "points": len(lat.points),
            "min_separation": minsep,
            "covering_fraction": cover,
            "multiplicity": mult,
            "multiplicity_bound": lat.multiplicity_bound,
            "ok": ok,
        }
    return _result(8, "lattice certificates", passed, details)


def _ba1_bands(degree, lattice_r):
    m = build_kernel_model(constant(), degree)
    lat = build_lattice(lattice_r, 0.95)
    extras = transforms.comparability_report(power_density(1.0), m, 2.0, 0.3, lat).extras
    return extras["lower_band"], extras["sup_ratio"]


def check_09_ba1_band():
    """Berezin vs averaging comparability band, stable under refinement."""
    lo, hi = _ba1_bands(200, 0.3)
    lo2, hi2 = _ba1_bands(400, 0.15)
    stable = abs(lo2 / lo - 1.0) < 0.2 and abs(hi2 / hi - 1.0) < 0.2
    passed = lo > 0.1 and hi <= 10.0 and stable
    return _result(
        9,
        "Berezin/averaging band",
        passed,
        {
            "lower_band": lo,
            "sup_ratio": hi,
            "refined_lower_band": lo2,
            "refined_sup_ratio": hi2,
        },
    )


def check_10_diagonal_estimate():
    """K_N(z,z) u(Delta(z, 0.5)) against the closed-form band.

    With the kernel normalized so K(z, w) = 1 / (pi (1 - conj(w) z)^2) for
    u = 1, the product K(z,z) * area(Delta(z, r)) equals
    r^2 / (1 - r^2 |z|^2)^2, which ranges over [r^2, r^2 / (1 - r^2)^2].
    """
    r = 0.5
    lat = build_lattice(0.3, 0.95)
    m = build_kernel_model(constant(), 200)
    vals = m.kernel_diag(lat.points) * disk_masses(constant(), r, lat.points, 48)
    lo_b, hi_b = r**2, r**2 / (1.0 - r**2) ** 2
    in_band = bool(
        np.all(vals >= lo_b * (1.0 - 1e-3)) and np.all(vals <= hi_b * (1.0 + 1e-3))
    )

    def std_band(degree):
        ms = build_kernel_model(standard(1.0), degree)
        us = standard(1.0)
        v = ms.kernel_diag(lat.points) * disk_masses(us, r, lat.points, 32)
        return float(np.min(v)), float(np.max(v))

    s_lo, s_hi = std_band(200)
    s_lo2, s_hi2 = std_band(400)
    std_stable = abs(s_lo2 / s_lo - 1.0) < 0.05 and abs(s_hi2 / s_hi - 1.0) < 0.05
    return _result(
        10,
        "diagonal estimate",
        in_band and np.isfinite(s_hi) and std_stable,
        {
            "band": [lo_b, hi_b],
            "observed": [float(np.min(vals)), float(np.max(vals))],
            "in_band": in_band,
            "standard_band": [s_lo, s_hi],
            "standard_band_refined": [s_lo2, s_hi2],
        },
    )


def check_11_boundedness_threshold():
    """Boundedness index trend at t = 0.6 (bounded) and t = 0.4 (divergent).

    The t = 0.4 quantity grows like (1 - rho)^(-0.1), i.e. by the fixed
    factor 2^0.1 per dyadic ring; divergence is certified by monotone ring
    growth accumulating to >= 2x across the ladder.
    """
    u = constant()
    m = build_kernel_model(u, 200)
    ladder = boundary_ladder(12, 8)
    rep6 = criteria.boundedness_index(power_density(0.6), u, m, 2, 4, 2, 0.3, ladder)
    rings6 = [v for _, v in rep6.ring_trend]
    tail = rings6[-3:]
    bounded_ok = rep6.verdict == "finite" and all(
        0.9 <= b / a <= 1.1 for a, b in zip(tail, tail[1:])
    )
    rep4 = criteria.boundedness_index(power_density(0.4), u, m, 2, 4, 2, 0.3, ladder)
    rings4 = [v for _, v in rep4.ring_trend]
    growing = all(b > a for a, b in zip(rings4, rings4[1:]))
    divergent_ok = (
        rep4.verdict == "divergent" and growing and rings4[-1] / rings4[0] >= 2.0
    )
    return _result(
        11,
        "boundedness threshold",
        bounded_ok and divergent_ok,
        {
            "rings_t0.6": rings6,
            "verdict_t0.6": rep6.verdict,
            "rings_t0.4": rings4,
            "verdict_t0.4": rep4.verdict,
            "total_growth_t0.4": rings4[-1] / rings4[0],
        },
    )


def check_12_compactness():
    """Compactness trend at t = 0.6 plus the non-compact identity baseline.

    For mu = (1 - |w|^2)^t dA the Moebius change of variables gives the
    closed form mu(Delta(z, r)) = pi (1 - |z|^2)^(t+2)
    sum_n [Gamma(n+t+2) / (n! Gamma(t+2))]^2 |z|^(2n) B(r^2; n+1, t+1),
    and u(Delta(z, r)) = pi r^2 (1 - |z|^2)^2 / (1 - r^2 |z|^2)^2 for u = 1.
    The ring quantity therefore decays like (1 - rho)^0.1, and the literal
    last-ring bound (< 1e-2 of the global max) first holds at ring index 68,
    i.e. it needs 69 rings of the ladder, which starts at 0.5.  Ladder radii
    1 - 2^-(j+1) exist in float64 only up to j = 52, so boundary_ladder
    accepts at most 53 rings; the bound is asserted as stated and reported
    honestly.
    """
    u = constant()
    m = build_kernel_model(u, 200)
    ladder = boundary_ladder(20, 8)
    rep = criteria.compactness_index(power_density(0.6), u, m, 2, 4, 2, 0.3, ladder)
    rings = rep.extras["ring_max_average"]
    decreasing = all(b <= a for a, b in zip(rings, rings[1:]))
    last_small = rings[-1] < 1e-2 * max(rings)
    id_rep = criteria.compactness_index(weighted_area(u), u, m, 2, 2, 2, 0.3, ladder)
    id_rings = id_rep.extras["ring_max_average"]
    id_flat = max(abs(v - 1.0) for v in id_rings) < 1e-6
    ess = toeplitz.essential_norm_estimate(
        weighted_area(u), u, 2, 2, 2, 0.3, boundary_ladder(10, 8), m
    )
    ess_one = abs(ess.index_value - 1.0) < 1e-6
    return _result(
        12,
        "compactness threshold",
        decreasing and last_small and id_flat and ess_one,
        {
            "rings_t0.6": rings,
            "decreasing": decreasing,
            "last_over_max": rings[-1] / max(rings),
            "last_small": last_small,
            "identity_flat": id_flat,
            "essential_norm_identity": ess.index_value,
        },
    )


def check_13_schatten_threshold():
    """Schatten integral/membership verdicts across the t p > 1 threshold.

    For mu = (1 - |w|^2)^t dA and u = 1 the Berezin transform has the
    closed form mu~(z) = (1 - |z|^2)^t 2F1(t, t; t + 2; |z|^2) / (t + 1),
    so the exact-kernel integral truncated at R is
    I(R) = int_0^{R^2} mu~(sqrt x)^2 (1 - x)^-2 dx.  At t = 0.8 it grows by
    the factor 1.120 over the 0.99 -> 0.999 sweep (tail mass (1 - R)^0.6),
    a change of 10.7% of the final value, so the < 5% stability bound is
    asserted as stated and reported honestly.
    """
    u = constant()
    m = build_kernel_model(u, 1600)
    h = ("power", 2)
    rep_c = toeplitz.schatten_integral(power_density(0.8), m, h)
    rep_d = toeplitz.schatten_integral(power_density(0.3), m, h)
    m8 = build_kernel_model(u, 800)
    mem_c = toeplitz.schatten_membership_report(toeplitz.assemble(power_density(0.8), m8), h)
    mem_d = toeplitz.schatten_membership_report(toeplitz.assemble(power_density(0.3), m8), h)
    convergent_ok = rep_c.verdict == "finite"
    divergent_ok = rep_d.verdict == "divergent" and rep_d.extras["sweep_ratio"] >= 2.0
    membership_ok = mem_c.verdict == rep_c.verdict and mem_d.verdict == rep_d.verdict
    return _result(
        13,
        "Schatten threshold",
        convergent_ok and divergent_ok and membership_ok,
        {
            "integral_t0.8": {"verdict": rep_c.verdict, "values": rep_c.extras["sweep_values"]},
            "integral_t0.3": {"verdict": rep_d.verdict, "values": rep_d.extras["sweep_values"]},
            "membership_t0.8": mem_c.verdict,
            "membership_t0.3": mem_d.verdict,
        },
    )


CANONICAL_CELLS = (
    ("identity p=q", "weighted_area", None, 2, 2, "finite"),
    ("power 0.6 p2q4", "power_density", 0.6, 2, 4, "vanishing"),
    ("power 0.4 p2q4", "power_density", 0.4, 2, 4, "divergent"),
    ("atom p2q4", "atomic", 0.2, 2, 4, "vanishing"),
    ("atom p4q2", "atomic", 0.2, 4, 2, "finite"),
    ("power 1.0 p4q2", "power_density", 1.0, 4, 2, "finite"),
    ("identity p4q2", "weighted_area", None, 4, 2, "finite"),
)


def _cell_measure(kind, param):
    u = constant()
    if kind == "weighted_area":
        return weighted_area(u)
    if kind == "power_density":
        return power_density(param)
    return atomic([(param, 1.0)])


def check_14_consistency_matrix():
    """Every equivalent condition agrees, with the expected verdict, on seven cells.

    Four are p <= q and three q < p.  For q < p the identity (T of u dA) is
    the inclusion A^p(u) -> A^q(u), which is compact, so it reads finite.
    """
    u = constant()
    m = build_kernel_model(u, 200)
    details = {}
    passed = True
    for name, kind, param, p, q, expected in CANONICAL_CELLS:
        rep = criteria.theorem_consistency_report(_cell_measure(kind, param), u, m, p, q, 2, 0.3, 1.0)
        ok = rep.extras["agreement"] and rep.verdict == expected
        passed = passed and ok
        details[name] = {
            "verdict": rep.verdict,
            "expected": expected,
            "agreement": rep.extras["agreement"],
            "conditions": {k: v["verdict"] for k, v in rep.extras["conditions"].items()},
        }
    return _result(14, "theorem consistency matrix", passed, details)


def _determinism_artifacts():
    """A representative artifact bundle, rebuilt from scratch each call: the
    lattice and disk-mass result caches are emptied first."""
    geometry._lattice.cache_clear()
    weights._radial_masses.cache_clear()
    u = constant()
    m = build_kernel_model(u, 120)
    lat = build_lattice(0.3, 0.9)
    rep = criteria.theorem_consistency_report(
        power_density(0.6), u, m, 2, 4, 2, 0.3, 1.0
    )
    T = toeplitz.assemble(atomic([(0.0, 2.0)]), m)
    return {
        "lattice.json": lat.to_json(),
        "criteria.json": rep.to_json(),
        "spectrum.csv": toeplitz.spectrum(T).to_csv(),
    }


def check_15_determinism():
    """Two consecutive artifact builds are byte-identical."""
    first = _determinism_artifacts()
    second = _determinism_artifacts()
    mismatched = sorted(k for k in first if first[k] != second[k])
    return _result(
        15,
        "determinism",
        not mismatched,
        {"artifacts": sorted(first), "mismatched": mismatched},
    )


ALL_CHECKS = (
    check_01_classical_kernel,
    check_02_standard_kernel,
    check_03_reproducing,
    check_04_berezin_normalization,
    check_05_toeplitz_identity,
    check_06_rank_one_spectrum,
    check_07_trace_identity,
    check_08_lattice_certificates,
    check_09_ba1_band,
    check_10_diagonal_estimate,
    check_11_boundedness_threshold,
    check_12_compactness,
    check_13_schatten_threshold,
    check_14_consistency_matrix,
    check_15_determinism,
)


def run_all(selected=None):
    """Run the acceptance checks (all, or by criterion numbers)."""
    unknown = sorted(set(selected or ()) - set(range(1, len(ALL_CHECKS) + 1)))
    if unknown:
        raise DomainError(f"no acceptance check numbered {unknown}; they run 1..{len(ALL_CHECKS)}")
    results = [fn() for n, fn in enumerate(ALL_CHECKS, start=1) if not selected or n in selected]
    return {"checks": results, "passed": all(r["passed"] for r in results)}


def render_summary(results):
    lines = []
    for res in results["checks"]:
        status = "PASS" if res["passed"] else "FAIL"
        lines.append(f"{status}  {res['criterion']:2d}. {res['name']}")
    lines.append("overall: " + ("PASS" if results["passed"] else "FAIL"))
    return "\n".join(lines)

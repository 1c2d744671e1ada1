"""The benchmark's layer tracer patches library names and must put them back.

perfbench/layers.py rebinds functions by name from outside the package,
private helpers such as ``measures._radial_measure`` included, and counts
Gauss-rule builds by rebinding ``leggauss`` and ``roots_jacobi`` on numpy and
scipy.  These tests load it by file path and pin both contracts.
"""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from bergman_lab import (
    audit_grid,
    cli,
    constant,
    geometry,
    kernels,
    measures,
    power_density,
    power_one_minus_z,
    quadrature,
    toeplitz,
    transforms,
)

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
LIBRARY_NAMES = (
    (np.polynomial.legendre, "leggauss"),
    (np.polynomial.polynomial, "polyval"),
    (np.linalg, "eigvalsh"),
    (scipy.special, "roots_jacobi"),
)


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    t = layers.Tracer()
    yield t
    t.restore()


def _bindings():
    """Every name the tracer may rebind, keyed to the object it holds now."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "bergman_lab" or name.startswith("bergman_lab."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if inspect.isclass(value) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    for owner, attr in LIBRARY_NAMES:
        out[(owner.__name__, attr)] = getattr(owner, attr)
    for key, runner in cli.RUNNERS.items():
        out[("cli.RUNNERS", key)] = runner
    return out


def test_install_then_restore_puts_every_name_back(tracer):
    before = _bindings()
    tracer.install()
    patched = {k for k, v in _bindings().items() if before.get(k) is not v}
    assert ("bergman_lab.measures", "basis_gram") in patched
    assert ("numpy.polynomial.legendre", "leggauss") in patched
    assert ("scipy.special", "roots_jacobi") in patched
    assert ("bergman_lab.verification", "ALL_CHECKS") in patched
    tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    # private helpers the tracer reads by name are still there
    assert callable(measures._radial_measure)


def test_rule_builds_are_seen_by_the_tracer(tracer):
    # gauss_rule looks leggauss up when it builds a rule, so a rebinding
    # made after import sees every build
    quadrature.gauss_rule.cache_clear()
    tracer.install()
    tracer.job = 0
    quadrature.gauss_rule(24)
    quadrature.gauss_rule(24)
    tracer.job = None
    tracer.restore()
    assert tracer.counts[(0, "quadrature.leggauss.calls")] == 1
    assert tracer.counts[(0, "quadrature.leggauss.repeat")] == 0


def test_lattice_work_is_seen_by_the_tracer(tracer):
    # the build and the audits look pseudo_distance up as a module global
    # when they run, so a rebinding made after import counts every call
    tracer.install()
    tracer.job = 0
    lat = geometry.build_lattice(0.5, 0.8)
    grid = audit_grid(500, 0.8)
    calls = [tracer.counts[(0, "geometry.pseudo_distance.calls")]]
    for audit in (lat.min_separation, lambda: lat.covering_fraction(grid),
                  lambda: lat.multiplicity(grid)):
        audit()
        calls.append(tracer.counts[(0, "geometry.pseudo_distance.calls")])
    tracer.job = None
    tracer.restore()
    spans = [(name, end - start) for _, _, job, name, start, end, *_ in tracer.spans]
    assert [name for name, _ in spans if name.startswith("geometry.")] == [
        "geometry.build_lattice"] + ["geometry.certificates"] * 3
    assert all(seconds > 0 for name, seconds in spans if name.startswith("geometry."))
    # the build and each of the three audits evaluate distances
    assert calls[0] > 0 and all(b > a for a, b in zip(calls, calls[1:]))


def test_general_model_and_dense_gram_are_seen_by_the_tracer(tracer):
    # the general kernel build and the dense Gram are counted by class, so
    # the per-layer counters see the non-radial path
    tracer.install()
    tracer.job = 0
    m = kernels.build_kernel_model(power_one_minus_z(0.5), 20)
    measures.basis_gram(m, power_density(1.5))
    tracer.job = None
    tracer.restore()
    assert tracer.counts[(0, "kernels.build_kernel_model.general_calls")] == 1
    assert tracer.counts[(0, "measures.basis_gram.dense_calls")] == 1


def test_polar_rule_callers_run_no_node_sized_horner(tracer):
    # kernels, polynomials and kernel diagonals on polar rules take one FFT per
    # ring; polyval is left to scalar f(w), at most degree + 1 terms a call
    m = kernels.build_kernel_model(constant(), 200)
    mu = power_density(1.3)
    T = toeplitz.assemble(mu, m)
    coefs = np.linspace(1.0, 2.0, 51) * (1.0 + 0.5j)
    points = np.array([0.2 + 0.1j, -0.6j])
    calls = (
        lambda: kernels.reproducing_check(m, coefs, 0.3 + 0.4j),
        lambda: kernels.kernel_norm(m, 0.5j, 3.0),
        lambda: toeplitz.trace_identity_check(T, mu, m),
        lambda: transforms.t_berezin_profile(mu, m, 1.5, points),
    )
    tracer.install()
    tracer.job = 0
    for call in calls:
        call()
    tracer.job = None
    tracer.restore()
    assert tracer.counts[(0, "kernels.polyval.calls")] >= 1  # f(w) is still counted
    assert tracer.counts[(0, "kernels.polyval.terms")] <= (m.degree + 1) * len(calls)


def test_diagonal_operator_runs_no_eigen_solve(tracer):
    # a radial pair is kept as its diagonal: its spectrum, membership blocks
    # and Schatten integral sort that array; an atomic T still needs eigvalsh
    m = kernels.build_kernel_model(constant(), 120)
    mu = power_density(0.8)
    diagonal = toeplitz.assemble(mu, m)
    dense = toeplitz.assemble(measures.atomic([(0.3, 1.0), (0.5j, 0.5)]), m)
    tracer.install()
    tracer.job = 0
    toeplitz.spectrum(diagonal)
    toeplitz.schatten_membership_report(diagonal, ("power", 2))
    toeplitz.schatten_integral(mu, m, ("power", 2))
    diagonal_n3 = tracer.counts[(0, "toeplitz.eig_n3")]
    toeplitz.spectrum(dense)
    toeplitz.schatten_membership_report(dense, ("power", 2))
    tracer.job = None
    tracer.restore()
    assert diagonal_n3 == 0
    assert tracer.counts[(0, "toeplitz.eig_n3")] > 0


def _scipy_modules_after(code):
    """The scipy modules loaded by a fresh interpreter that runs code."""
    src = str(LAYERS.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # setup_s counts the bergman_lab import: scipy is loaded only where a path needs it
    assert _scipy_modules_after("import bergman_lab") == "[]"


def test_gauss_jacobi_rules_load_no_scipy():
    # the radial norm and density rules are built with numpy alone; importing
    # scipy.special would add about 0.3 s and 31 MB to a verify pass
    code = (
        "import bergman_lab as bl\n"
        "m = bl.build_kernel_model(bl.standard(0.5), 40)\n"
        "bl.reproducing_check(m, [1.0, 2.0], 0.3j)\n"
        "mu = bl.power_density(-0.5)\n"
        "bl.trace_identity_check(bl.assemble(mu, m), mu, m)\n"
        "bl.t_berezin_profile(mu, m, 1.5, [0.2, 0.5j])\n"
    )
    assert _scipy_modules_after(code) == "[]"


def test_general_model_atoms_and_grid_weights_load_no_scipy():
    # the general model's triangular solves and the grid interpolant are numpy;
    # importing scipy.linalg would add about 0.25 s and 23 MB to a spectral pass
    code = (
        "import numpy as np\n"
        "import bergman_lab as bl\n"
        "m = bl.build_kernel_model(bl.power_one_minus_z(0.5), 40)\n"
        "mu = bl.atomic([(0.3, 1.0), (-0.2 + 0.4j, 0.5)])\n"
        "T = bl.assemble(mu, m)\n"
        "bl.pairing_check(mu, m, [1.0, 0.5j], [0.0, 1.0])\n"
        "bl.matrix_apply(T, [1.0, 2.0], 0.1j)\n"
        "bl.t_berezin_profile(mu, m, 1.5, [0.2, 0.5j])\n"
        "bl.grid_weight(np.ones((8, 8)), 8)(np.array([0.3 + 0.1j]))\n"
    )
    assert _scipy_modules_after(code) == "[]"

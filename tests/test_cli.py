"""CLI: config resolution, artifacts, determinism, exit codes."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bergman_lab import build_lattice, cli, disk_masses, geometry, standard, verification, weights
from bergman_lab.cli import (
    EXIT_BAD_CONFIG,
    EXIT_DEGENERATE,
    EXIT_OK,
    RunConfig,
    main,
    parse_measure_spec,
    parse_weight_spec,
)
from bergman_lab.errors import DegeneracyError


class TestSpecs:
    def test_weight_specs(self):
        assert parse_weight_spec("constant") == {"kind": "constant", "value": 1.0}
        assert parse_weight_spec("standard:0.5") == {"kind": "standard", "alpha": 0.5}
        with pytest.raises(Exception):
            parse_weight_spec("bogus")

    def test_measure_specs(self):
        assert parse_measure_spec("power_density:0.4") == {"kind": "power_density", "t": 0.4}
        spec = parse_measure_spec("atomic:[[0.0, 0.0, 2.0]]")
        assert spec == {"kind": "atomic", "atoms": [[0.0, 0.0, 2.0]]}
        with pytest.raises(Exception):
            parse_measure_spec("atomic:not-json")


class TestRunConfig:
    def test_hash_stable(self):
        a, b = RunConfig(), RunConfig()
        assert a.param_hash() == b.param_hash()
        assert a.param_hash() != RunConfig(p=3.0).param_hash()

    def test_validation(self):
        with pytest.raises(Exception):
            RunConfig(degree=0).validate()
        with pytest.raises(Exception):
            RunConfig(index="bogus").validate()


class TestCommands:
    def test_lattice_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["lattice", "--lattice-r", "0.5", "--rmax", "0.9", "--out", str(out)])
        assert code == EXIT_OK
        (run_dir,) = (out / "lattice").iterdir()
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["config_hash"] == run_dir.name
        assert payload["report"]["covering_fraction"] == 1.0
        assert (run_dir / "lattice.json").exists()
        assert (run_dir / "summary.txt").read_text().strip()

    def test_toeplitz_point_mass_spectrum(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "toeplitz",
                "--measure",
                "atomic:[[0.0, 0.0, 2.0]]",
                "--degree",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        (run_dir,) = (out / "toeplitz").iterdir()
        lines = (run_dir / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "k,lambda"
        assert float(lines[1].split(",")[1]) == pytest.approx(2.0 / np.pi, rel=1e-10)

    def test_sweep_produces_one_dir_per_cell(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "criteria",
                "--index",
                "vanishing",
                "--measure",
                "power_density:1",
                "--p",
                "2",
                "--q",
                "2,3",
                "--degree",
                "30",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert len(list((out / "criteria").iterdir())) == 2

    def test_criteria_samples_live_in_per_point_csv(self, tmp_path):
        # report.json holds every field of the report but per_point, whose
        # rows per_point.csv holds
        from bergman_lab import boundary_ladder, build_kernel_model, constant, criteria, power_density

        out = tmp_path / "out"
        args = ["criteria", "--index", "bound", "--measure", "power_density:0.6", "--degree", "30",
                "--p", "2", "--q", "4", "--out", str(out)]
        assert main(args) == EXIT_OK
        (run_dir,) = (out / "criteria").iterdir()
        report = json.loads((run_dir / "report.json").read_text())["report"]
        rep = criteria.boundedness_index(power_density(0.6), constant(), build_kernel_model(constant(), 30),
                                         2.0, 4.0, 2.0, 0.3, boundary_ladder(12, 16))
        want = json.loads(rep.to_json())
        assert "per_point" not in report and want.pop("per_point")
        assert report == want
        assert (run_dir / "per_point.csv").read_text() == rep.per_point_csv()

    def test_berezin_at_t2_takes_one_profile(self, tmp_path, monkeypatch):
        from bergman_lab import transforms

        calls = []
        for name in ("berezin_profile", "t_berezin_profile"):
            original = getattr(transforms, name)
            monkeypatch.setattr(transforms, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        args = ["berezin", "--measure", "atomic:[[0.3,0.1,1.0]]", "--degree", "20",
                "--lattice-r", "0.5", "--rmax", "0.8", "--out", str(tmp_path / "out")]
        assert main(args + ["--t", "2"]) == EXIT_OK
        assert calls == ["berezin_profile"]
        calls.clear()
        assert main(args + ["--t", "3"]) == EXIT_OK
        assert calls == ["berezin_profile", "t_berezin_profile"]

    def test_sweep_artifacts_independent_of_threads(self, tmp_path, monkeypatch, fresh_result_caches):
        args = ["criteria", "--index", "vanishing", "--measure", "power_density:1",
                "--p", "2", "--q", "2,3", "--degree", "30"]
        artifacts = []
        for threads in ("1", "2"):
            # each run computes its own disk masses, none served from the other's
            fresh_result_caches()
            monkeypatch.setenv("BERGMAN_LAB_THREADS", threads)
            out = tmp_path / f"out{threads}"
            assert main(args + ["--out", str(out)]) == EXIT_OK
            files = sorted(p for p in out.rglob("*") if p.is_file())
            artifacts.append({str(p.relative_to(out)): p.read_bytes() for p in files})
        assert len({name.split("/")[1] for name in artifacts[0]}) == 2
        assert artifacts[0] == artifacts[1]

    def test_byte_identical_rerun(self, tmp_path, fresh_result_caches):
        out = tmp_path / "out"
        args = [
            "berezin",
            "--measure",
            "power_density:1",
            "--degree",
            "40",
            "--lattice-r",
            "0.5",
            "--out",
            str(out),
        ]
        assert main(args) == EXIT_OK
        (d,) = (out / "berezin").iterdir()
        first = {p.name: p.read_bytes() for p in d.iterdir()}
        # the rerun rebuilds its lattice and disk masses, as a new process would
        fresh_result_caches()
        assert main(args) == EXIT_OK
        second = {p.name: p.read_bytes() for p in d.iterdir()}
        assert first == second

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degree": 30, "measure": {"kind": "power_density", "t": 1.0}}))
        out = tmp_path / "out"
        code = main(["toeplitz", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK

    def test_bad_config_exit_codes(self, tmp_path):
        assert main(["toeplitz", "--config", str(tmp_path / "missing.json")]) == EXIT_BAD_CONFIG
        assert main(["toeplitz", "--weight", "bogus"]) == EXIT_BAD_CONFIG
        assert main(["criteria", "--index", "bogus"]) == EXIT_BAD_CONFIG
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["toeplitz", "--config", str(bad)]) == EXIT_BAD_CONFIG
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"nonsense": 1}))
        assert main(["toeplitz", "--config", str(unknown)]) == EXIT_BAD_CONFIG
        # malformed fields: each raised a bare AttributeError, KeyError or TypeError (exit 1)
        for fields in ({"weight": "standard:1"}, {"measure": {"kind": "power_density"}},
                       {"degree": "40"}):
            malformed = tmp_path / "malformed.json"
            malformed.write_text(json.dumps(fields))
            out = str(tmp_path / "out")
            assert main(["toeplitz", "--config", str(malformed), "--out", out]) == EXIT_BAD_CONFIG
        # fields a kind does not read were dropped: constant(1.0) was built, and tt ignored
        for fields in ({"weight": {"kind": "constant", "valeu": 2.0}},
                       {"measure": {"kind": "power_density", "t": 0.5, "tt": 1}}):
            misspelt = tmp_path / "misspelt.json"
            misspelt.write_text(json.dumps(fields))
            assert main(["toeplitz", "--config", str(misspelt), "--out", out]) == EXIT_BAD_CONFIG
        # atoms that are not [re, im, mass] triples raised a bare ValueError (exit 1)
        for spec in ('atomic:[[0.1,0.2]]', 'atomic:{"a":1}'):
            args = ["toeplitz", "--measure", spec, "--degree", "10", "--out", out]
            assert main(args) == EXIT_BAD_CONFIG
        # check numbers outside 1..15 ran nothing and passed, or were dropped
        for only in ("99", "1,99"):
            assert main(["verify", "--only", only, "--out", out]) == EXIT_BAD_CONFIG

    def test_each_error_has_one_exit_code(self, tmp_path, monkeypatch, capsys):
        # a DegeneracyError exits 3 under verify and under an experiment
        def degenerate(*args):
            raise DegeneracyError("singular Gram")

        monkeypatch.setattr(verification, "run_all", degenerate)
        monkeypatch.setitem(cli.RUNNERS, "lattice", degenerate)
        out = str(tmp_path / "out")
        assert main(["verify", "--out", out]) == EXIT_DEGENERATE
        assert main(["lattice", "--out", out]) == EXIT_DEGENERATE
        assert capsys.readouterr().err == "degeneracy: singular Gram\n" * 2
        # a non-numeric --only, and a config file that cannot be read, exit 2
        assert main(["verify", "--only", "x", "--out", out]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == "error: --only must be numeric: 'x'\n"
        with pytest.raises(OSError) as unreadable:
            tmp_path.read_text()
        assert main(["toeplitz", "--config", str(tmp_path)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == f"error: {unreadable.value}\n"
        # a spec whose argument is not a number exits 2, naming the spec
        assert main(["lattice", "--weight", "standard:x", "--out", out]) == EXIT_BAD_CONFIG
        assert main(["toeplitz", "--measure", "power_density:y", "--out", out]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "error: spec 'standard:x' needs a number after ':'\n"
            "error: spec 'power_density:y' needs a number after ':'\n"
        )
        # a weight or h number that is not finite exits 2 (exit 0, or a traceback, before)
        for args in (["kernel", "--weight", "constant:inf"], ["kernel", "--weight", "constant:nan"],
                     ["kernel", "--weight", "standard:inf"], ["kernel", "--weight", "standard:nan"],
                     ["schatten", "--h", "power:nan"], ["schatten", "--h", "power:inf"]):
            assert main(args + ["--degree", "5", "--out", out]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "error: constant weight must be positive and finite, got inf\n"
            "error: constant weight must be positive and finite, got nan\n"
            "error: standard weight needs a finite alpha > -1, got inf\n"
            "error: standard weight needs a finite alpha > -1, got nan\n"
            "error: power h requires a finite exponent >= 1, got nan\n"
            "error: power h requires a finite exponent >= 1, got inf\n"
        )
        # an exponent or constant that is not finite exits 2, naming the field (exit 0,
        # or a message naming a quadrature node, before)
        for args in (["schatten", "--C", "nan"], ["schatten", "--C", "inf"],
                     ["criteria", "--index", "consistency", "--s", "nan"],
                     ["criteria", "--index", "bound", "--t", "nan"], ["criteria", "--q", "inf"]):
            assert main(args + ["--degree", "5", "--out", out]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "error: C must be positive and finite, got nan\n"
            "error: C must be positive and finite, got inf\n"
            "error: s must be positive and finite, got nan\n"
            "error: t must be positive and finite, got nan\n"
            "error: q must be positive and finite, got inf\n"
        )

    def test_verify_takes_out_and_only_alone(self, tmp_path):
        # no experiment flag changes a verify check, so argparse refuses each
        # (exit 2), and the artifacts sit under the default config's hash
        for stray in (["--t", "0.5"], ["--weight", "standard:1"], ["--degree", "7"],
                      ["--config", "cell.json"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["verify", "--only", "1", *stray])
            assert exit_info.value.code == 2
        out = tmp_path / "out"
        assert main(["verify", "--only", "1", "--out", str(out)]) == EXIT_OK
        assert [d.name for d in (out / "verify").iterdir()] == ["407688338db5"]
        assert RunConfig().param_hash() == "407688338db5"

    def test_verify_selected(self, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--only", "1,3", "--out", str(out)])
        assert code == EXIT_OK
        (run_dir,) = (out / "verify").iterdir()
        payload = json.loads((run_dir / "report.json").read_text())
        checks = payload["report"]["checks"]
        assert [c["criterion"] for c in checks] == [1, 3]


def test_threads_share_the_result_caches(fresh_result_caches):
    # sweep cells run on BERGMAN_LAB_THREADS threads, which share the lattice
    # and disk-mass caches: every thread gets the serial result, and each key
    # ends up in one entry
    points = 0.6 * np.exp(1j * np.arange(12))
    want = build_lattice(0.5, 0.8).points, disk_masses(standard(0.5), 0.3, points, 32)
    fresh_result_caches()

    def work():
        return build_lattice(0.5, 0.8).points, disk_masses(standard(0.5), 0.3, points, 32)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(work) for _ in range(16)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) for got in results)
    assert geometry._lattice.cache_info().currsize == 1
    assert weights._radial_masses.cache_info().currsize == 1

"""Command-line front end: experiment orchestration and artifact emission.

Every experiment subcommand resolves a RunConfig (JSON config file plus flag
overrides), runs the computation for each cell of the parameter sweep, and
writes JSON + CSV artifacts and a human-readable summary under

    <out>/<subcommand>/<param-hash>/

The param hash is derived from the canonical JSON of the cell config minus
--out, and every artifact embeds that hash and the package version, so
identical configs produce byte-identical artifacts under any output root.
``verify`` runs the fixed acceptance checks and takes --out and --only only:
its artifacts sit under the hash of the default RunConfig.

Exit codes: 0 success; 1 failed acceptance check under ``verify``; 2 invalid
configuration; 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, criteria, toeplitz, transforms, verification, weights
from .config import DEFAULTS
from .errors import BergmanLabError, DegeneracyError, DomainError, PrecisionError
from .geometry import audit_grid, boundary_ladder, build_lattice
from .kernels import build_kernel_model, reproducing_check
from .measures import measure_from_config
from .reports import profile_csv
from .weights import weight_from_config

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DEGENERATE = 3

# the values a RunConfig field of each annotated type takes (bools excluded)
_FIELD_TYPES = {"dict": dict, "int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class RunConfig:
    """One fully-resolved experiment cell."""

    weight: dict = field(default_factory=lambda: {"kind": "constant", "value": 1.0})
    measure: dict = field(default_factory=lambda: {"kind": "weighted_area"})
    degree: int = DEFAULTS.degree_radial
    resolution: int = DEFAULTS.region_resolution
    rmax: float = DEFAULTS.r_max
    lattice_r: float = DEFAULTS.lattice_r
    ladder_rings: int = DEFAULTS.ladder_rings
    ladder_samples: int = DEFAULTS.ladder_samples
    p: float = 2.0
    q: float = 2.0
    t: float = 2.0
    r: float = 0.3
    s: float = 1.0
    C: float = 1.0
    h: str = "power:2"
    index: str = "consistency"
    reference: str = "u_dA"
    out: str = "out"

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise DomainError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.degree < 1:
            raise DomainError("degree must be >= 1")
        if not (0.0 < self.rmax < 1.0):
            raise DomainError("rmax must lie in (0, 1)")
        if not (0.0 < self.lattice_r < 1.0):
            raise DomainError("lattice_r must lie in (0, 1)")
        if not (0.0 < self.r < 1.0):
            raise DomainError("r must lie in (0, 1)")
        for name in ("p", "q", "t", "s", "C"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if self.ladder_rings < 2 or self.ladder_samples < 1:
            raise DomainError("ladder must have >= 2 rings and >= 1 sample per ring")
        if self.index not in ("bound", "compact", "qlp", "carleson", "vanishing", "consistency"):
            raise DomainError(f"unknown criteria index {self.index!r}")
        if self.reference not in ("u_dA", "dA"):
            raise DomainError(f"unknown reference measure {self.reference!r}")

    def parameters(self):
        """Every field but the output root, which does not change the results."""
        return {k: v for k, v in asdict(self).items() if k != "out"}

    def param_hash(self):
        return _param_hash(self.parameters())


def _param_hash(parameters):
    """The first 12 hex digits of the sha256 of the canonical JSON of RunConfig.parameters()."""
    return hashlib.sha256(json.dumps(parameters, sort_keys=True).encode()).hexdigest()[:12]


def _spec_number(spec, arg, default):
    """The number after a spec's ':' (default if none); DomainError naming the spec if not numeric."""
    if not arg:
        return default
    try:
        return float(arg)
    except ValueError:
        raise DomainError(f"spec {spec!r} needs a number after ':'") from None


def parse_weight_spec(spec):
    """'constant[:v]' | 'standard:alpha' | 'power_one_minus_z:gamma'."""
    head, _, arg = spec.partition(":")
    if head == "constant":
        return {"kind": "constant", "value": _spec_number(spec, arg, 1.0)}
    if head == "standard":
        return {"kind": "standard", "alpha": _spec_number(spec, arg, 1.0)}
    if head == "power_one_minus_z":
        return {"kind": "power_one_minus_z", "gamma": _spec_number(spec, arg, 1.0)}
    raise DomainError(f"unknown weight spec {spec!r}")


def parse_measure_spec(spec):
    """'weighted_area' | 'power_density:t' | 'atomic:[[re,im,mass],...]'."""
    head, _, arg = spec.partition(":")
    if head == "weighted_area":
        return {"kind": "weighted_area"}
    if head == "power_density":
        return {"kind": "power_density", "t": _spec_number(spec, arg, 1.0)}
    if head == "atomic":
        try:
            atoms = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise DomainError(f"atomic spec is not valid JSON: {arg!r}") from exc
        return {"kind": "atomic", "atoms": atoms}
    raise DomainError(f"unknown measure spec {spec!r}")


def _cell_objects(cfg: RunConfig):
    u = weight_from_config(cfg.weight)
    mu = measure_from_config(cfg.measure, u=u)
    return u, mu


def _parse_h(spec):
    head, _, arg = spec.partition(":")
    if head == "power":
        return ("power", _spec_number(spec, arg, 2.0))
    raise DomainError(f"unknown h spec {spec!r} (expected power:p)")


def _write_artifacts(cfg: RunConfig, subcommand, report, csv_files=None, summary=""):
    parameters = cfg.parameters()
    config_hash = _param_hash(parameters)
    outdir = Path(cfg.out) / subcommand / config_hash
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": __version__,
        "config_hash": config_hash,
        "config": parameters,
        "report": report,
    }
    (outdir / "report.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for name, text in (csv_files or {}).items():
        (outdir / name).write_text(text)
    (outdir / "summary.txt").write_text(summary.rstrip() + "\n")
    return outdir


def run_lattice(cfg: RunConfig):
    lat = build_lattice(cfg.lattice_r, cfg.rmax)
    grid = audit_grid(4096, cfg.rmax)
    report = {
        "points": len(lat.points),
        "min_separation": lat.min_separation(),
        "covering_fraction": lat.covering_fraction(grid),
        "multiplicity": lat.multiplicity(grid),
        "multiplicity_bound": lat.multiplicity_bound,
    }
    summary = (
        f"lattice r={cfg.lattice_r} rmax={cfg.rmax}: {report['points']} points, "
        f"min separation {report['min_separation']:.6f}, covering "
        f"{report['covering_fraction']:.4f}, multiplicity {report['multiplicity']} "
        f"<= {report['multiplicity_bound']}"
    )
    return report, {"lattice.json": lat.to_json() + "\n"}, summary


def run_kernel(cfg: RunConfig):
    u, _ = _cell_objects(cfg)
    m = build_kernel_model(u, cfg.degree)
    probe = 0.4 + 0.3j
    repro = reproducing_check(m, np.array([1.0, 0.5, 0.25j]), probe)
    report = {
        "degree": m.degree,
        "is_radial": m.is_radial,
        "gram_residual": m.gram_residual,
        "gram_refinement_error": m.gram_refinement_error,
        "reproducing_residual_probe": repro,
        "kernel_diag_at_0": float(m.kernel_diag(np.array([0.0 + 0.0j]))[0]),
    }
    summary = (
        f"kernel model degree {m.degree} for weight {cfg.weight}: "
        f"refinement error {m.gram_refinement_error:.3e}, "
        f"reproducing residual {repro:.3e}"
    )
    return report, {"model.json": json.dumps(m.dump(), sort_keys=True) + "\n"}, summary


def run_weights(cfg: RunConfig):
    u, _ = _cell_objects(cfg)
    ladder = boundary_ladder(cfg.ladder_rings, cfg.ladder_samples)
    bp = weights.bekolle_constant(u, cfg.p, ladder=ladder, resolution=cfg.resolution)
    cp = weights.cp_constant(u, cfg.p, cfg.r, ladder=ladder, resolution=cfg.resolution)
    report = {
        "bp": {"value": bp.index_value, "trend": [[r, v] for r, v in bp.ring_trend], "verdict": bp.verdict},
        "cp": {"value": cp.index_value, "trend": [[r, v] for r, v in cp.ring_trend], "verdict": cp.verdict},
    }
    anchors = np.array([a for a, _ in bp.per_point])
    csv = profile_csv(anchors, {"bp_joint_average": np.array([v for _, v in bp.per_point])})
    summary = (
        f"[u]_Bp(p={cfg.p}) = {bp.index_value:.6g} (trend {bp.verdict}); "
        f"[u]_Cp(r={cfg.r}) = {cp.index_value:.6g} (trend {cp.verdict})"
    )
    return report, {"bp_per_anchor.csv": csv}, summary


def run_berezin(cfg: RunConfig):
    u, mu = _cell_objects(cfg)
    m = build_kernel_model(u, cfg.degree)
    lat = build_lattice(cfg.lattice_r, min(cfg.rmax, DEFAULTS.lattice_r_max))
    bz = transforms.berezin_profile(mu, m, lat.points)
    tb = bz if cfg.t == 2 else transforms.t_berezin_profile(mu, m, cfg.t, lat.points)
    av = transforms.average_profile(mu, u, cfg.r, lat.points)
    csv = profile_csv(lat.points, {"berezin": bz, "t_berezin": tb, "average": av})
    report = {
        "berezin_band": [float(bz.min()), float(bz.max())],
        "t_berezin_band": [float(tb.min()), float(tb.max())],
        "average_band": [float(av.min()), float(av.max())],
        "lattice_points": len(lat.points),
    }
    summary = (
        f"berezin band [{bz.min():.4g}, {bz.max():.4g}], t={cfg.t} band "
        f"[{tb.min():.4g}, {tb.max():.4g}], average band [{av.min():.4g}, {av.max():.4g}]"
    )
    return report, {"profiles.csv": csv}, summary


def run_toeplitz(cfg: RunConfig):
    u, mu = _cell_objects(cfg)
    m = build_kernel_model(u, cfg.degree)
    T = toeplitz.assemble(mu, m)
    spec = toeplitz.spectrum(T)
    trace = toeplitz.trace_identity_check(T, mu, m)
    report = {
        "degree": m.degree,
        "operator_norm": T.operator_norm(),
        "trace_residual": trace,
        "eigenvalue_band": [spec.eigenvalues[-1], spec.eigenvalues[0]],
    }
    summary = (
        f"Toeplitz matrix ({T.size}x{T.size}): ||T|| = {T.operator_norm():.6g}, "
        f"trace residual {trace:.3e}"
    )
    return report, {"spectrum.csv": spec.to_csv()}, summary


def run_criteria(cfg: RunConfig):
    u, mu = _cell_objects(cfg)
    m = build_kernel_model(u, cfg.degree)
    ladder = boundary_ladder(cfg.ladder_rings, cfg.ladder_samples)
    if cfg.index == "bound":
        rep = criteria.boundedness_index(mu, u, m, cfg.p, cfg.q, cfg.t, cfg.r, ladder)
    elif cfg.index == "compact":
        rep = criteria.compactness_index(mu, u, m, cfg.p, cfg.q, cfg.t, cfg.r, ladder)
    elif cfg.index == "qlp":
        rep = criteria.qlp_index(mu, u, m, cfg.p, cfg.q, cfg.t, cfg.r, reference=cfg.reference)
    elif cfg.index == "carleson":
        anchors = build_lattice(cfg.lattice_r, 0.9).points
        rep = criteria.carleson_test(mu, u, m, cfg.p, cfg.q, cfg.r, cfg.s, 1.5, anchors)
    elif cfg.index == "vanishing":
        rep = criteria.vanishing_carleson_test(mu, u, cfg.p, cfg.q, ladder)
    else:
        rep = criteria.theorem_consistency_report(mu, u, m, cfg.p, cfg.q, cfg.t, cfg.r, cfg.s)
    summary = f"{rep.name}: index {rep.index_value!r}, verdict {rep.verdict}"
    # the samples go to per_point.csv only, as in the berezin and weights cells
    return rep._fields(), {"per_point.csv": rep.per_point_csv()}, summary


def run_schatten(cfg: RunConfig):
    u, mu = _cell_objects(cfg)
    m = build_kernel_model(u, cfg.degree)
    h = _parse_h(cfg.h)
    integral = toeplitz.schatten_integral(mu, m, h, C=cfg.C)
    membership = toeplitz.schatten_membership_report(toeplitz.assemble(mu, m), h, C=cfg.C)
    report = {"integral": integral.to_dict(), "membership": membership.to_dict()}
    agree = integral.verdict == membership.verdict
    summary = (
        f"schatten h={cfg.h} C={cfg.C}: integral {integral.index_value:.6g} "
        f"({integral.verdict}), membership {membership.index_value:.6g} "
        f"({membership.verdict}), agreement={agree}"
    )
    return report, {}, summary


def run_verify(selected=None):
    results = verification.run_all(selected)
    summary = verification.render_summary(results)
    return results, {}, summary


RUNNERS = {
    "lattice": run_lattice,
    "kernel": run_kernel,
    "weights": run_weights,
    "berezin": run_berezin,
    "toeplitz": run_toeplitz,
    "criteria": run_criteria,
    "schatten": run_schatten,
}

SWEEP_FLAGS = ("p", "q", "t", "r", "s")


@functools.cache
def build_parser():
    """The CLI parser; its one cache entry is the parser, which parsing does not mutate."""
    parser = argparse.ArgumentParser(
        prog="bergman-lab",
        description="Numerical laboratory for weighted Bergman-space operator theory.",
    )
    parser.add_argument("--version", action="version", version=f"bergman-lab {__version__}")
    # the flags every subcommand takes, listed once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=str, help="JSON config file")
    shared.add_argument("--weight", type=str, help="weight spec, e.g. constant, standard:1")
    shared.add_argument("--measure", type=str, help="measure spec, e.g. power_density:0.4")
    for flag in SWEEP_FLAGS:
        shared.add_argument(f"--{flag}", type=str, help=f"{flag} value or comma-separated sweep")
    shared.add_argument("--degree", type=int, help="kernel truncation degree N")
    shared.add_argument("--rmax", type=float, help="outer truncation radius")
    shared.add_argument("--lattice-r", type=float, dest="lattice_r", help="lattice radius")
    shared.add_argument("--C", type=float, help="Schatten constant C")
    shared.add_argument("--h", type=str, help="Schatten h spec, e.g. power:2")
    shared.add_argument("--index", type=str, help="criteria index (bound, compact, qlp, carleson, vanishing, consistency)")
    shared.add_argument("--reference", type=str, help="qlp reference measure (u_dA or dA)")
    shared.add_argument("--out", type=str, help="artifact output directory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        sub.add_parser(name, parents=[shared], help=f"run the {name} experiment")
    # verify runs fixed checks: its config only names the artifact directory
    verify = sub.add_parser("verify", help="run the verify experiment")
    verify.add_argument("--out", type=str, help="artifact output directory")
    verify.add_argument("--only", type=str, help="comma-separated criterion numbers")
    return parser


def resolve_configs(args):
    """Base config from file + flags, then the sweep cross product."""
    base = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise DomainError(f"config file {path} does not exist")
        try:
            base = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file is not valid JSON: {exc}") from exc
        except OSError as exc:
            raise DomainError(str(exc)) from exc
        if not isinstance(base, dict):
            raise DomainError("config file must contain a JSON object")
    unknown = set(base) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise DomainError(f"unknown config fields: {sorted(unknown)}")
    if args.weight:
        base["weight"] = parse_weight_spec(args.weight)
    if args.measure:
        base["measure"] = parse_measure_spec(args.measure)
    for name in ("degree", "rmax", "lattice_r", "C", "h", "index", "reference", "out"):
        v = getattr(args, name, None)
        if v is not None:
            base[name] = v
    sweeps = {}
    for flag in SWEEP_FLAGS:
        v = getattr(args, flag, None)
        if v is not None:
            try:
                sweeps[flag] = [float(x) for x in v.split(",")]
            except ValueError as exc:
                raise DomainError(f"--{flag} must be numeric: {v!r}") from exc
    try:
        cfg = RunConfig(**base)
    except TypeError as exc:
        raise DomainError(f"invalid config: {exc}") from exc
    cells = []
    keys = sorted(sweeps)
    for combo in itertools.product(*(sweeps[k] for k in keys)):
        cells.append(replace(cfg, **dict(zip(keys, combo))))
    if not cells:
        cells = [cfg]
    for cell in cells:
        cell.validate()
    return cells


def _worker_count():
    try:
        n = int(os.environ.get("BERGMAN_LAB_THREADS", "1"))
    except ValueError:
        n = 1
    return max(1, n)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "verify":
            cfg = RunConfig() if args.out is None else RunConfig(out=args.out)
            try:
                selected = {int(x) for x in args.only.split(",")} if args.only else None
            except ValueError:
                raise DomainError(f"--only must be numeric: {args.only!r}") from None
            results, csvs, summary = run_verify(selected)
            _write_artifacts(cfg, "verify", results, csvs, summary)
            print(summary)
            return EXIT_OK if results["passed"] else EXIT_VERIFY_FAILED

        cells = resolve_configs(args)
        runner = RUNNERS[args.subcommand]

        def run_cell(cfg):
            report, csvs, summary = runner(cfg)
            outdir = _write_artifacts(cfg, args.subcommand, report, csvs, summary)
            return outdir, summary

        workers = _worker_count()
        if workers > 1 and len(cells) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(run_cell, cells))
        else:
            outcomes = [run_cell(cfg) for cfg in cells]
    except (DegeneracyError, PrecisionError) as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except BergmanLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    for outdir, summary in outcomes:
        print(f"[{outdir}] {summary}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

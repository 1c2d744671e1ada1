"""Per-layer tracing of bergman_lab from outside the library.

The tracer replaces public functions of each layer with timing wrappers for
the length of one traced pass and puts the originals back afterwards.  No
library file is edited: a function is rebound in every ``bergman_lab``
module that holds it by name (``mass`` sits in ``weights``, ``measures``,
``criteria``, ``transforms``, ``toeplitz``, ``verification`` and the package
namespace), methods are rebound on their class, and the NumPy/SciPy helpers
the library looks up at call time (``leggauss``, ``polyval``,
``roots_jacobi``, ``eigvalsh``) are rebound on their own modules.

A span records its name, job, start, end, parent and self time (duration
minus the time covered by child spans).  Spans stay in memory and are
written out once the pass ends.  The load is one serial process, so no layer
waits on another and no waiting time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# name -> unit of the metrics a traced pass reports: BENCHMARK.json's "per_layer"
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}


class Tracer:
    """Spans and counters of one traced pass, plus the patches that feed them."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, job, name, start, end, self_s, error)
        self.counts = defaultdict(float)  # (job, counter name) -> value
        self.job = None  # index of the running job; None records nothing
        self._stack = []  # [span id, seconds covered by children, name]
        self._next_id = 0
        self._restore = []
        self._seen = defaultdict(set)
        self._errors_seen = set()

    # -- counters -------------------------------------------------------
    def add(self, name, value=1):
        self.counts[(self.job, name)] += value

    def repeat(self, name, key):
        """Count a call whose key was already seen in this pass."""
        seen = self._seen[name]
        if key in seen:
            self.add(name + ".repeat")
        seen.add(key)

    # -- wrappers -------------------------------------------------------
    def timed(self, name, fn, after=None):
        """Span around fn; after(result, args, kwargs) adds counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0.0, name]
            tracer._stack.append(frame)
            tracer.add(name + ".calls")
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = tracer._note_error(name, exc)
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append(
                    (sid, parent[0] if parent else -1, tracer.job, name,
                     start, end, end - start - frame[1], error)
                )
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted(self, fn, before):
        """No span, only counters: for calls too small or too many to time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is not None:
                before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _note_error(self, name, exc):
        """True the first time a BergmanLabError leaves a span of this layer."""
        from bergman_lab.errors import BergmanLabError

        layer = name.split(".")[0]
        if not isinstance(exc, BergmanLabError) or (layer, id(exc)) in self._errors_seen:
            return False
        self._errors_seen.add((layer, id(exc)))
        self.add(layer + ".errors")
        return True

    # -- patching -------------------------------------------------------
    def rebind(self, module_name, attr, make):
        """Replace module_name.attr by make(original) wherever bergman_lab holds it."""
        owner = importlib.import_module(module_name)
        original = getattr(owner, attr)
        wrapper = make(original)
        holders = [owner] + [
            mod for name, mod in sorted(sys.modules.items())
            if (name == "bergman_lab" or name.startswith("bergman_lab."))
            and mod is not owner
        ]
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def rebind_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._restore.append((cls, attr, original))

    def restore(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def install(self):
        """Wrap every layer's public functions; undo with restore()."""
        import numpy as np

        from bergman_lab import cli, geometry, measures, toeplitz, verification

        add, timed, counted = self.add, self.timed, self.counted

        def span(module, attr, name, after=None):
            self.rebind(module, attr, lambda f: timed(name, f, after))

        def count(module, attr, before):
            self.rebind(module, attr, lambda f: counted(f, before))

        # geometry
        span("bergman_lab.geometry", "build_lattice", "geometry.build_lattice",
             lambda res, a, k: self.repeat(
                 "geometry.build_lattice",
                 (float(a[0]), float(a[1] if len(a) > 1 else k.get("r_max", 0.995)))))
        count("bergman_lab.geometry", "pseudo_distance",
              lambda a, k: add("geometry.pseudo_distance.calls"))
        for method in ("min_separation", "covering_fraction", "multiplicity"):
            self.rebind_method(geometry.Lattice, method,
                               lambda f: timed("geometry.certificates", f))

        # quadrature
        def escalated(rule, a, k):
            requested = a[1] if len(a) > 1 else k.get("resolution", 48)
            if rule.resolution > int(requested):
                add("quadrature.region_quadrature.escalated")

        span("bergman_lab.quadrature", "region_quadrature",
             "quadrature.region_quadrature", escalated)
        def rule_size(res, a, k):
            add("quadrature.leggauss.nodes", int(a[0]))
            self.repeat("quadrature.leggauss", int(a[0]))

        span("numpy.polynomial.legendre", "leggauss", "quadrature.leggauss", rule_size)
        # importing scipy.special here moves its one-time import out of the
        # traced jobs; untraced passes pay it in the first standard weight
        count("scipy.special", "roots_jacobi",
              lambda a, k: add("quadrature.roots_jacobi.calls"))

        # weights
        def closed_form(res, a, k):
            u, region = a[0], a[1]
            if u.kind == "constant" and (
                getattr(region, "euclid_radius", getattr(region, "radius", None)) is not None
            ):
                add("weights.mass.closed_form")

        span("bergman_lab.weights", "mass", "weights.mass", closed_form)
        span("bergman_lab.weights", "bekolle_constant", "weights.bekolle_constant")
        span("bergman_lab.weights", "cp_constant", "weights.cp_constant")

        # kernels
        def model_kind(res, a, k):
            u, degree = a[0], a[1] if len(a) > 1 else k["degree"]
            if not u.is_radial:
                add("kernels.build_kernel_model.general_calls")
            self.repeat("kernels.build_kernel_model",
                        (json.dumps(u.config(), sort_keys=True), int(degree)))

        span("bergman_lab.kernels", "build_kernel_model", "kernels.build_kernel_model",
             model_kind)
        span("numpy.polynomial.polynomial", "polyval", "kernels.polyval",
             lambda res, a, k: add("kernels.polyval.terms",
                                   np.size(a[0]) * len(np.atleast_1d(a[1]))))
        span("bergman_lab.kernels", "kernel_norm", "kernels.kernel_norm")
        span("bergman_lab.kernels", "reproducing_check", "kernels.reproducing_check")

        # measures
        def gram_kind(res, a, k):
            m, mu = a[0], a[1]
            if mu.kind == "atomic":
                add("measures.basis_gram.atomic_calls")
            elif m.is_radial and measures._radial_measure(mu):
                add("measures.basis_gram.diag_calls")
            else:
                add("measures.basis_gram.dense_calls")

        span("bergman_lab.measures", "basis_gram", "measures.basis_gram", gram_kind)
        self.rebind_method(measures.DiscMeasure, "integrate",
                           lambda f: timed("measures.integrate", f))
        self.rebind_method(measures.DiscMeasure, "disk_mass",
                           lambda f: counted(f, lambda a, k: add("measures.disk_mass.calls")))

        # transforms: points are counted once, at the outermost profile call
        def points_at(position):
            def before(a, k):
                # the top frame is this call's own span
                if not any(f[2].startswith("transforms.") for f in self._stack[:-1]):
                    add("transforms.points", np.size(a[position]))
            return before

        for attr, position in (("berezin_profile", 2), ("t_berezin_profile", 3),
                               ("average_profile", 3)):
            self.rebind("bergman_lab.transforms", attr,
                        lambda f, attr=attr, position=position: timed(
                            f"transforms.{attr}", counted(f, points_at(position))))
        span("bergman_lab.transforms", "profile_lp_norm", "transforms.profile_lp_norm")

        # toeplitz
        for attr in ("assemble", "trace_identity_check", "schatten_integral",
                     "schatten_membership_report", "essential_norm_estimate"):
            span("bergman_lab.toeplitz", attr, f"toeplitz.{attr}")
        self.rebind_method(toeplitz.ToeplitzMatrix, "eigenvalues",
                           lambda f: timed("toeplitz.eigenvalues", f))

        # numpy's leggauss also calls eigvalsh; only solves inside a toeplitz
        # span are Toeplitz eigen-solves
        def eig_n3(a, k):
            if self._stack and self._stack[-1][2].startswith("toeplitz."):
                add("toeplitz.eig_n3", float(np.shape(a[0])[-1]) ** 3)

        count("numpy.linalg", "eigvalsh", eig_n3)

        # criteria
        for attr in ("theorem_consistency_report", "compactness_index",
                     "boundedness_index", "qlp_index", "carleson_test",
                     "vanishing_carleson_test"):
            span("bergman_lab.criteria", attr, f"criteria.{attr}")

        # cli: main's self time is parsing, validation and artifact writes
        for key, runner in list(cli.RUNNERS.items()):
            cli.RUNNERS[key] = timed("cli.runner", runner)
            self._restore.append((cli.RUNNERS, key, runner))
        span("bergman_lab.cli", "main", "cli.emit")

        # verification: run_all iterates ALL_CHECKS at call time
        original = verification.ALL_CHECKS
        verification.ALL_CHECKS = tuple(
            timed(f"verification.check_{n:02d}", fn) for n, fn in enumerate(original, 1)
        )
        self._restore.append((verification, "ALL_CHECKS", original))

    # -- results --------------------------------------------------------
    def metrics(self, job_seconds):
        """PER_LAYER values for the pass plus a per-job breakdown.

        job_seconds[j] is the wall time of job j; the part of it outside
        every root span is the unwrapped remainder.
        """
        per_job = defaultdict(lambda: defaultdict(float))
        root_seconds = defaultdict(float)
        for _, parent, job, name, start, end, self_s, _ in self.spans:
            per_job[job][name + ".s"] += self_s
            if parent == -1:
                root_seconds[job] += end - start
        for (job, name), value in self.counts.items():
            per_job[job][name] += value
        for job, seconds in enumerate(job_seconds):
            per_job[job]["trace.total_s"] = seconds
            per_job[job]["trace.unwrapped_s"] = seconds - root_seconds[job]
        totals = defaultdict(float)
        for values in per_job.values():
            for name, value in values.items():
                totals[name] += value
        totals["trace.spans"] = len(self.spans)
        out = {}
        for name in PER_LAYER:
            if name.endswith("_frac"):
                base, _, counter = name[: -len("_frac")].rpartition(".")
                calls = totals[f"{base}.calls"]
                out[name] = totals[f"{base}.{counter}"] / calls if calls else 0.0
            else:
                out[name] = totals[name]
        breakdown = {
            str(job): {k: v for k, v in sorted(values.items()) if v}
            for job, values in sorted(per_job.items())
        }
        accounted = sum(v for k, v in totals.items()
                        if k.endswith(".s") and k != "trace.total_s")
        return out, breakdown, accounted

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,job,name,start,end,self_s,error\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

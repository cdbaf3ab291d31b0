"""Layer tracing applied to fstarq from outside.

``install(fstarq)`` replaces the public functions of each package module
(and the methods of the classes that do the array work) with wrappers that
record a span per call: name, start, end, parent span and thread id.  A
function imported into several modules is replaced everywhere it is bound,
so calls between modules are seen too.  Spans stay in memory; ``dump``
writes them out once the run is over.

Self time (``busy_s``) of a span is its duration minus the durations of
its child spans on the same thread.  Work handed to the verification
thread pool records the submitting span as its parent but runs on another
thread, so it is not subtracted from the submitter.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

VERIFY_CHECKS = ("moyal_genvalue", "imag_vanishing", "wigner_normalization",
                 "moyal_algebra", "commutator_correspondence", "associativity_scaling",
                 "spectrum_closed_form", "derivative_crosscheck")
POOLED_CHECKS = ("moyal_genvalue", "imag_vanishing")
PARTIAL_SOURCES = ("analytic", "poly", "explicit", "fd4", "cache")

# (module, attribute, span name) for plain functions
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("deformation", "amplitude_F", "deformation.amplitude_F"),
    ("deformation", "amplitude_F_deriv", "deformation.amplitude_F_deriv"),
    ("deformation", "series_terms", "deformation.series_terms"),
    ("deformation", "spectrum", "deformation.spectrum"),
    ("deformation", "parse_deformation", "deformation.parse_deformation"),
    ("symbols", "moyal_exact", "symbols.moyal_exact"),
    ("phasespace", "laguerre_series", "phasespace.laguerre_series"),
    ("phasespace", "laguerre", "phasespace.laguerre"),
    ("phasespace", "mesh", "phasespace.mesh"),
    ("phasespace", "partial_field", "phasespace.partial_field"),
    ("phasespace", "integrate", "phasespace.integrate"),
    ("phasespace", "gradient", "phasespace.gradient"),
    ("phasespace", "fock_wigner", "phasespace.fock_wigner"),
    ("phasespace", "fcs_wigner", "phasespace.fcs_wigner"),
    ("phasespace", "wigner_weights", "phasespace.wigner_weights"),
    ("phasespace", "field_from_poly", "phasespace.field_from_poly"),
    ("starproduct", "moyal_apply", "starproduct.moyal_apply"),
    ("starproduct", "fstar_apply", "starproduct.fstar_apply"),
    ("starproduct", "star_commutator", "starproduct.star_commutator"),
    ("genvalue", "genvalue_residual", "genvalue.genvalue_residual"),
    ("genvalue", "build_hamiltonian", "genvalue.build_hamiltonian"),
    ("genvalue", "ladder_fields", "genvalue.ladder_fields"),
    ("genvalue", "_region_norms", "genvalue.region_norms"),
    ("genvalue", "commutator_deviation", "genvalue.commutator_deviation"),
    ("genvalue", "associativity_defect", "genvalue.associativity_defect"),
    ("io", "field_to_csv", "io.field_to_csv"),
    ("io", "read_field_csv", "io.read_field_csv"),
    ("io", "canonical_json", "io.canonical_json"),
    ("io", "report_to_json", "io.report_to_json"),
    ("io", "spectrum_to_csv", "io.spectrum_to_csv"),
    ("verify", "run_verification", "verify.run_verification"),
]

# (module, class, method, span name)
METHODS = [
    ("phasespace", "FockWignerProfile", "deriv", "phasespace.profile_deriv"),
    ("phasespace", "MixtureWignerProfile", "deriv", "phasespace.profile_deriv"),
    ("genvalue", "HamiltonianProfile", "deriv", "phasespace.profile_deriv"),
    ("genvalue", "DeformationProfile", "deriv", "phasespace.profile_deriv"),
    ("phasespace", "AnalyticStructure", "evaluate", "phasespace.analytic_evaluate"),
    ("symbols", "PolySymbol", "eval_grid", "symbols.eval_grid"),
]

# Count metrics must repeat exactly between two traced runs of one op list.
COUNT_SUFFIXES = (".calls", ".point_steps", ".monomial_points", ".distinct_ratio",
                  ".bytes", ".hit_ratio", ".cache_hit_ratio", ".refused") + tuple(
                      "." + s for s in PARTIAL_SOURCES)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent, tid)
        self.self_time = collections.defaultdict(float)
        self.wall = collections.defaultdict(float)
        self.counts = collections.Counter()
        self.distinct = collections.defaultdict(set)
        self.pool_wait = 0.0
        self.paused = False
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else getattr(self._local, "remote_parent", None)

    @contextmanager
    def pause(self):
        """Run harness-side checks without recording them."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def call(self, name: str, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = self.current()
        span_id = next(self._ids)
        frame = [span_id, 0.0]                # id, time covered by children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            with self._lock:
                self.self_time[name] += duration - frame[1]
                self.wall[name] += duration
                self.counts[name + ".calls"] += 1

    def add(self, key: str, amount=1) -> None:
        if self.paused:
            return
        with self._lock:
            self.counts[key] += amount

    def note_distinct(self, key: str, item) -> None:
        if self.paused:
            return
        with self._lock:
            self.distinct[key].add(item)

    def dump(self, path: str, extra: dict) -> None:
        base = min((s[2] for s in self.spans), default=0.0)
        doc = dict(extra)
        doc["span_fields"] = ["id", "name", "start_s", "end_s", "parent", "thread"]
        doc["spans"] = [[s[0], s[1], round(s[2] - base, 9), round(s[3] - base, 9), s[4], s[5]]
                        for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Installing wrappers


def _rebind(fstarq, original, replacement) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for mod in [fstarq] + [getattr(fstarq, m) for m in
                           ("cli", "deformation", "expressions", "symbols", "phasespace",
                            "starproduct", "genvalue", "io", "verify")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap(tracer: Tracer, name: str, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None and not tracer.paused:
            before(args, kwargs)
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _profile_key(fstarq, profile):
    kind = type(profile).__name__
    if kind == "FockWignerProfile":
        return (kind, profile.n)
    if kind == "MixtureWignerProfile":
        return (kind, hashlib.blake2b(profile.weights.tobytes(), digest_size=16).hexdigest())
    if kind == "HamiltonianProfile":
        return (kind, fstarq.spec_to_text(profile.spec), profile.hbar, profile.omega)
    return (kind, fstarq.spec_to_text(profile.spec))


def _partial_source(field, i: int, j: int) -> str:
    """Which source partial_field will use, by the preference order it documents."""
    key = (i, j)
    if key == (0, 0):
        return "values"
    if key in (getattr(field, "_cache", None) or {}):
        return "cache"
    explicit = getattr(field, "explicit_partials", None)
    if explicit is not None and key in explicit:
        return "explicit"
    if getattr(field, "poly", None) is not None:
        return "poly"
    analytic = getattr(field, "analytic", None)
    if analytic is not None:
        cap = analytic.profile.max_order
        if cap is None or analytic.order_needed + i + j <= cap:
            return "analytic"
    return "fd4"


def install(fstarq) -> Tracer:
    tracer = Tracer()
    modules = {name: getattr(fstarq, name) for name in
               ("cli", "deformation", "symbols", "phasespace", "starproduct", "genvalue",
                "io", "verify")}
    context = threading.local()

    def before_laguerre_series(args, kwargs):
        _alpha, coeffs, x = args
        steps = max(len(coeffs) - 1, 0)
        tracer.add("phasespace.laguerre_series.point_steps", steps * int(np.size(x)))

    def before_partial(args, kwargs):
        field, i, j = args[:3]
        source = _partial_source(field, i, j)
        tracer.add(f"phasespace.partial_field.{source}")

    def before_csv_read(args, kwargs):
        tracer.add("io.read_field_csv.bytes", os.path.getsize(args[0]))

    before = {
        "phasespace.laguerre_series": before_laguerre_series,
        "phasespace.partial_field": before_partial,
        "io.read_field_csv": before_csv_read,
    }
    mesh_cache = modules["phasespace"].mesh
    for mod_name, attr, span in FUNCTIONS:
        original = getattr(modules[mod_name], attr)
        _rebind(fstarq, original, _wrap(tracer, span, original, before.get(span)))

    # field_to_csv: bytes are known once the file is written
    traced_to_csv = fstarq.io.field_to_csv

    def field_to_csv(field, path):
        traced_to_csv(field, path)
        tracer.add("io.field_to_csv.bytes", os.path.getsize(path))
    _rebind(fstarq, traced_to_csv, field_to_csv)

    # cli.main: count refusals (exit code 2)
    traced_main = fstarq.cli.main

    def main(argv=None):
        code = traced_main(argv)
        if code == 2:
            tracer.add("cli.main.refused")
        return code
    _rebind(fstarq, traced_main, main)

    for mod_name, cls_name, meth, span in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        original = getattr(cls, meth)
        if span == "phasespace.profile_deriv":
            def deriv(self, v, order, _orig=original, span=span):
                ctx = getattr(context, "grid_scale", None)
                if ctx is None and not tracer.paused:
                    ctx = hashlib.blake2b(np.ascontiguousarray(v, dtype=float).tobytes(),
                                          digest_size=16).hexdigest()
                tracer.note_distinct(span, (_profile_key(fstarq, self), ctx, order))
                return tracer.call(span, _orig, (self, v, order), {})
            setattr(cls, meth, functools.wraps(original)(deriv))
        elif span == "phasespace.analytic_evaluate":
            def evaluate(self, grid, _orig=original, span=span):
                saved = getattr(context, "grid_scale", None)
                context.grid_scale = (grid, self.scale)
                try:
                    return tracer.call(span, _orig, (self, grid), {})
                finally:
                    context.grid_scale = saved
            setattr(cls, meth, functools.wraps(original)(evaluate))
        else:
            def eval_grid(self, Q, P, _orig=original, span=span):
                points = np.broadcast(Q, P).size
                tracer.add("symbols.eval_grid.monomial_points", len(self.terms) * points)
                return tracer.call(span, _orig, (self, Q, P), {})
            setattr(cls, meth, functools.wraps(original)(eval_grid))

    # verification checks are read from the ALL_CHECKS tuple at call time
    verify = modules["verify"]
    verify.ALL_CHECKS = tuple(
        _wrap(tracer, "verify." + fn.__name__.removeprefix("check_"), fn)
        for fn in verify.ALL_CHECKS)

    class TracedPool(ThreadPoolExecutor):
        """Records each task's queue wait and parents its span on the submitter."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            submitted = time.perf_counter()

            def task():
                with tracer._lock:
                    tracer.pool_wait += time.perf_counter() - submitted
                tracer._local.remote_parent = parent
                try:
                    return tracer.call("verify.pool.task", fn, args, kwargs)
                finally:
                    tracer._local.remote_parent = None

            return super().submit(task)

    verify.ThreadPoolExecutor = TracedPool
    tracer.mesh_cache = mesh_cache
    tracer.mesh_info_start = mesh_cache.cache_info()
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics


BUSY = [
    "phasespace.profile_deriv", "phasespace.laguerre_series", "phasespace.analytic_evaluate",
    "phasespace.integrate", "symbols.eval_grid", "symbols.moyal_exact",
    "deformation.amplitude_F", "deformation.amplitude_F_deriv", "deformation.series_terms",
    "starproduct.moyal_apply", "starproduct.fstar_apply", "starproduct.star_commutator",
    "genvalue.genvalue_residual", "genvalue.build_hamiltonian", "genvalue.region_norms",
    "genvalue.associativity_defect", "genvalue.commutator_deviation",
    "io.field_to_csv", "io.read_field_csv", "io.canonical_json",
]
CALLS = ["phasespace.profile_deriv", "phasespace.laguerre_series",
         "phasespace.analytic_evaluate", "phasespace.mesh", "symbols.eval_grid", "cli.main"]


def layer_metrics(tracer: Tracer) -> dict:
    """Aggregate the spans into ``<module>.<function>.<quantity>`` values."""
    m = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = tracer.self_time.get(name, 0.0)
    for name in CALLS:
        m[f"{name}.calls"] = tracer.counts.get(name + ".calls", 0)
    calls = m["phasespace.profile_deriv.calls"]
    m["phasespace.profile_deriv.distinct_ratio"] = (
        len(tracer.distinct["phasespace.profile_deriv"]) / calls if calls else 0.0)
    m["phasespace.laguerre_series.point_steps"] = tracer.counts.get(
        "phasespace.laguerre_series.point_steps", 0)
    m["symbols.eval_grid.monomial_points"] = tracer.counts.get(
        "symbols.eval_grid.monomial_points", 0)
    sources = {s: tracer.counts.get(f"phasespace.partial_field.{s}", 0)
               for s in PARTIAL_SOURCES}
    for s, n in sources.items():
        m[f"phasespace.partial_field.{s}"] = n
    total = sum(sources.values())
    m["phasespace.partial_field.cache_hit_ratio"] = sources["cache"] / total if total else 0.0
    info = tracer.mesh_cache.cache_info()
    hits = info.hits - tracer.mesh_info_start.hits
    misses = info.misses - tracer.mesh_info_start.misses
    m["phasespace.mesh.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["io.field_to_csv.bytes"] = tracer.counts.get("io.field_to_csv.bytes", 0)
    m["io.read_field_csv.bytes"] = tracer.counts.get("io.read_field_csv.bytes", 0)
    m["cli.main.self_s"] = tracer.self_time.get("cli.main", 0.0)
    m["cli.main.refused"] = tracer.counts.get("cli.main.refused", 0)
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.wall_s"] = tracer.wall.get(f"verify.{check}", 0.0)
    m["verify.pool.wait_s"] = tracer.pool_wait
    return m


def count_keys(metrics: dict) -> list[str]:
    return sorted(k for k in metrics if k.endswith(COUNT_SUFFIXES))


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".speedup")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"

"""Seeded operation streams for the three workloads, and their output checks.

Every operation goes through a public entry point: ``fstarq.cli.main(argv)``
for the CLI commands, ``fstarq.read_field_csv`` for the read side.  The
library's own field builders are called only to check outputs, after the
timed loop.

Streams are stratified: each workload cycles through a fixed deck of
command kinds, and each kind walks a seeded permutation of its parameter
catalogue.  A round (``ROUND_OPS``) deals every kind its share and, where
the catalogue allows, every parameter slot of a kind once; a run ends on a
round boundary.  The seed changes the order and the pairing of parameters,
not the proportions, so a run's figures do not depend on which seed drew
more of the expensive requests.  The catalogues are finite so that every
request has an entry in ``reference.json`` (recorded by
``record_reference.py``), against which moved numbers are listed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time

REGISTRY_SPECS = ("identity", "sqrt_n", "qdef:q=1.2", "expr:sqrt(1+0.1*n)")
# Mild deformations, the range of the registry's own qdef example.  The
# commutator closed form loses accuracy further out (q=0.8: 2.8e-8,
# q=1.3: 3.0e-7, q=1.5: 6.3e-3 against the 1e-8 oracle); that is a
# correctness finding, not a benchmark input.
QDEF_Q = ("0.9", "0.95", "1.05", "1.1")
# as many values as DIAG_DECK has kinds (see diagnostics_stream)
EXPR_A = ("0.05", "0.2", "0.5", "1.0")
N_VALUES = tuple(range(11))
ZETA2 = ("0.5", "1.0", "2.0", "4.0")
GRID_SIDE = 513

# One spec "slot" per registry spec plus one seeded qdef and one seeded expr.
SPEC_SLOTS = REGISTRY_SPECS + ("qdef:*", "expr:*")

# One request of each kind per round: the repo holds no usage data that
# would justify weighting one diagnostic above another.
DIAG_DECK = ("residual", "commutator", "assoc", "spectrum")
FIELD_DECK = ("fock", "mixture", "commutator")
# Quick passes per full pass in ``verify``: ten quick passes take about as
# long as one full pass (2-vCPU VM: 0.85-1.3 s each against 11.8-16.1 s),
# so the 513^2 pass and the 257^2 passes each weigh about half of a round.
QUICK_PER_ROUND = 10


def catalogue_specs() -> list[str]:
    return (list(REGISTRY_SPECS) + [f"qdef:q={q}" for q in QDEF_Q]
            + [f"expr:sqrt(1+{a}*n)" for a in EXPR_A])


class Cycle:
    """Endless walk over a seeded permutation of ``items``."""

    def __init__(self, rng: random.Random, items):
        self.items = list(items)
        rng.shuffle(self.items)
        self.pos = 0

    def next(self):
        item = self.items[self.pos % len(self.items)]
        self.pos += 1
        return item


class PairedN:
    """Fock numbers in pairs (k, N - k), N = max(N_VALUES).  A residual's
    cost grows with n, and every pair sums to N, so an even number of draws
    costs about the same whichever pairs the seed dealt."""

    def __init__(self, rng: random.Random):
        top = max(N_VALUES)
        self.pairs = Cycle(rng, [(k, top - k) for k in range(top // 2 + 1)])
        self.pending: list[int] = []

    def next(self) -> int:
        if not self.pending:
            self.pending = list(self.pairs.next())
        return self.pending.pop(0)


# ---------------------------------------------------------------------------
# Operation streams


def diagnostics_stream(seed: int):
    """Closed-loop mix of residual, commutator, assoc and spectrum requests."""
    rng = random.Random(f"diagnostics:{seed}")
    specs = {kind: Cycle(rng, SPEC_SLOTS) for kind in sorted(set(DIAG_DECK))}
    # a round meets each seeded slot once per kind, len(DIAG_DECK) times in
    # all, so it draws every q and every a once
    qdef_q = Cycle(rng, QDEF_Q)
    expr_a = Cycle(rng, EXPR_A)
    n_cycle = PairedN(rng)

    def concrete(slot: str) -> str:
        if slot == "qdef:*":
            return f"qdef:q={qdef_q.next()}"
        if slot == "expr:*":
            return f"expr:sqrt(1+{expr_a.next()}*n)"
        return slot

    while True:
        deck = list(DIAG_DECK)
        rng.shuffle(deck)
        for kind in deck:
            spec = concrete(specs[kind].next())
            if kind == "residual":
                yield ["residual", "--spec", spec, "--n", str(n_cycle.next())]
            elif kind == "spectrum":
                yield ["spectrum", "--spec", spec, "--n-max", str(rng.choice(N_VALUES))]
            else:
                yield [kind, "--spec", spec]


def field_io_stream(seed: int):
    """Wigner exports (Fock states, coherent mixtures) and commutator exports.
    Mixtures and commutators each walk the registry specs, so a round of
    len(REGISTRY_SPECS) decks exports each spec once of each kind."""
    rng = random.Random(f"field-io:{seed}")
    fock = PairedN(rng)
    mixture_specs = Cycle(rng, REGISTRY_SPECS)
    zetas = Cycle(rng, ZETA2)
    comms = Cycle(rng, REGISTRY_SPECS)
    while True:
        deck = list(FIELD_DECK)
        rng.shuffle(deck)
        for kind in deck:
            if kind == "fock":
                yield ["wigner", "--n", str(fock.next())]
            elif kind == "mixture":
                yield ["wigner", "--spec", mixture_specs.next(), "--zeta2", zetas.next()]
            else:
                yield ["commutator", "--spec", comms.next()]


def verify_stream(seed: int):
    """Rounds of one full verification pass and QUICK_PER_ROUND quick passes.
    The suite has no inputs, so the seed does not change the stream."""
    del seed
    while True:
        yield ["verify"]
        for _ in range(QUICK_PER_ROUND):
            yield ["verify", "--quick"]


STREAMS = {"verify": verify_stream, "diagnostics": diagnostics_stream,
           "field-io": field_io_stream}
# Operations per round.  A diagnostics round is one deck per spec slot, so
# each kind meets each slot once; a field-io round is one deck per registry
# spec.  Every run ends on a round boundary, so its mix of kinds and specs
# is the same whatever the seed and however fast the run went.
ROUND_OPS = {
    "verify": 1 + QUICK_PER_ROUND,
    "diagnostics": len(DIAG_DECK) * len(SPEC_SLOTS),
    "field-io": len(FIELD_DECK) * len(REGISTRY_SPECS),
}


def op_kind(argv) -> str:
    """The deck kind an operation was dealt as."""
    if argv[0] == "verify":
        return "quick" if "--quick" in argv else "full"
    if argv[0] == "wigner":
        return "fock" if argv[1] == "--n" else "mixture"
    return argv[0]


def all_requests(workload: str) -> list[list[str]]:
    """Every request a stream can yield (for recording the reference)."""
    specs = catalogue_specs()
    if workload == "verify":
        return [["verify"], ["verify", "--quick"]]
    if workload == "diagnostics":
        out = []
        for spec in specs:
            out += [["residual", "--spec", spec, "--n", str(n)] for n in N_VALUES]
            out += [["commutator", "--spec", spec], ["assoc", "--spec", spec]]
            out += [["spectrum", "--spec", spec, "--n-max", str(n)] for n in N_VALUES]
        return out
    if workload == "field-io":
        out = [["wigner", "--n", str(n)] for n in N_VALUES]
        out += [["wigner", "--spec", s, "--zeta2", z] for s in REGISTRY_SPECS for z in ZETA2]
        out += [["commutator", "--spec", s] for s in REGISTRY_SPECS]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def request_key(argv) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# Running one operation


class Outcome:
    """What one operation produced: exit code, captured streams, timings."""

    def __init__(self, argv):
        self.argv = list(argv)
        self.key = request_key(argv)
        self.exit = None
        self.stdout = ""
        self.stderr = ""
        self.kind = op_kind(self.argv)
        self.calls: list[float] = []  # seconds of each call into fstarq
        self.status = "ok"          # ok | refused | failed
        self.problems: list[str] = []
        self.numbers: dict[str, float] = {}
        self.sha256: dict[str, str] = {}
        self.field_digest = None      # field-io: digest of the read-back field
        self.summary = None

    def fail(self, why: str) -> None:
        self.status = "failed"
        self.problems.append(why)


def call_cli(fstarq, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fstarq.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def error_line(stderr: str) -> str:
    lines = [ln for ln in stderr.splitlines() if ln.startswith("error:")]
    return lines[-1] if lines else ""


def run_operation(fstarq, workload: str, argv, tmpdir: str, reference: dict) -> Outcome:
    """Run one operation, time it, and check its output.  A field-io
    round trip is checked later, by ``check_fields``."""
    oc = Outcome(argv)
    ref = reference.get(workload, {}).get(oc.key)
    try:
        if workload == "verify":
            _run_verify(fstarq, oc, tmpdir, ref)
        elif workload == "diagnostics":
            _run_diagnostic(fstarq, oc, ref)
        else:
            _run_export(fstarq, oc, tmpdir, ref)
    except Exception as exc:  # the harness must keep running and count it
        oc.fail(f"raised {type(exc).__name__}: {exc}")
    return oc


def _expect_exit(oc: Outcome, ref) -> bool:
    """Compare the exit code with the reference; returns True when the
    operation produced output that should be checked."""
    ref_exit = None if ref is None else ref["exit"]
    if oc.exit == 0:
        return True
    if oc.exit == 2 and ref_exit == 2:
        oc.status = "refused"
        if error_line(oc.stderr) != ref.get("error"):
            oc.numbers["error"] = error_line(oc.stderr)
        return False
    oc.fail(f"exit code {oc.exit} (reference {ref_exit}): {error_line(oc.stderr)}")
    return False


def _finite(oc: Outcome, name: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value):
        oc.fail(f"{name} is not a finite number: {value!r}")
        return float("nan")
    return float(value)


# -- verify ----------------------------------------------------------------


def _run_verify(fstarq, oc: Outcome, tmpdir: str, ref) -> None:
    path = os.path.join(tmpdir, "summary.json")
    oc.exit, oc.stdout, oc.stderr, seconds = call_cli(fstarq, oc.argv + ["--out", path])
    oc.calls.append(seconds)
    with open(path, encoding="utf-8") as fh:
        oc.summary = json.load(fh)
    os.remove(path)
    checks = oc.summary.get("checks", [])
    for check in checks:
        oc.numbers[f"{check.get('name')}.observed"] = _finite(
            oc, f"{check.get('name')}.observed", check.get("observed"))
    if oc.exit != (0 if oc.summary.get("all_pass") else 1):
        oc.fail(f"exit code {oc.exit} does not match all_pass={oc.summary.get('all_pass')}")
    if ref is None:
        oc.fail("no reference summary")
        return
    ref_checks = ref["summary"]["checks"]
    if [c.get("name") for c in checks] != [c["name"] for c in ref_checks]:
        oc.fail("check names differ from the reference")
        return
    for got, want in zip(checks, ref_checks):
        name = want["name"]
        if got.get("tolerance") != want["tolerance"] or got.get("direction") != want["direction"]:
            oc.fail(f"{name}: tolerance or direction changed")
            continue
        observed = oc.numbers[f"{name}.observed"]
        holds = (observed >= want["tolerance"] if want["direction"] == ">="
                 else observed <= want["tolerance"])
        if got.get("passed") is not holds:
            oc.fail(f"{name}: passed={got.get('passed')} contradicts observed {observed!r}")
        if want["passed"] and not got.get("passed"):
            oc.fail(f"{name}: passed at the reference, fails now")
        elif got.get("passed") != want["passed"]:
            # a check that was red at the reference and is green now: moved, not failed
            oc.numbers[f"{name}.passed"] = got.get("passed")


# -- diagnostics -------------------------------------------------------------


def _run_diagnostic(fstarq, oc: Outcome, ref) -> None:
    oc.exit, oc.stdout, oc.stderr, seconds = call_cli(fstarq, oc.argv)
    oc.calls.append(seconds)
    if not _expect_exit(oc, ref):
        return
    command = oc.argv[0]
    spec = oc.argv[2]
    if command == "residual":
        _check_residual(oc, json.loads(oc.stdout), spec, int(oc.argv[4]))
    elif command == "commutator":
        _check_commutator(oc, json.loads(oc.stdout), spec)
    elif command == "assoc":
        _check_assoc(oc, oc.stdout, spec)
    else:
        _check_spectrum(oc, oc.stdout, spec, int(oc.argv[4]))


RESIDUAL_KEYS = ["identity", "spec", "n", "hbar", "omega", "order", "max_abs", "l2",
                 "imag_max", "witness", "grid", "extra"]


def _check_residual(oc: Outcome, doc: dict, spec: str, n: int) -> None:
    missing = [k for k in RESIDUAL_KEYS if k not in doc]
    if missing:
        oc.fail(f"residual report lacks {missing}")
        return
    if doc["spec"] != spec or doc["n"] != n or doc["grid"]["n_q"] != GRID_SIDE:
        oc.fail("residual report does not echo its request")
    for name in ("max_abs", "l2", "imag_max"):
        oc.numbers[name] = _finite(oc, name, doc[name])
    for name in ("q", "p", "re", "im"):
        oc.numbers[f"witness.{name}"] = _finite(oc, f"witness.{name}", doc["witness"][name])
    # oracle: the harmonic identity is exact under the Moyal product
    if spec == "identity" and not doc["max_abs"] <= 1e-8:
        oc.fail(f"identity residual max_abs {doc['max_abs']!r} > 1e-8 within r <= 4")


def _check_commutator(oc: Outcome, doc: dict, spec: str) -> None:
    if doc.get("identity") != "commutator" or doc.get("spec") != spec:
        oc.fail("commutator report does not echo its request")
        return
    match = _finite(oc, "closed_form_match", doc["extra"]["closed_form_match"])
    oc.numbers["closed_form_match"] = match
    # oracle: first-order closed form F(n) (f^2 + 2 n f f')
    if not match <= 1e-8:
        oc.fail(f"closed_form_match {match!r} > 1e-8")


def _check_assoc(oc: Outcome, text: str, spec: str) -> None:
    lines = text.splitlines()
    if not lines or lines[0] != "hbar,defect,slope" or len(lines) != 4:
        oc.fail(f"assoc CSV shape: {lines[:2]}")
        return
    slopes = set()
    for line in lines[1:]:
        hbar, defect, slope = line.split(",")
        value = _finite(oc, f"defect@{hbar}", float(defect))
        oc.numbers[f"defect@{hbar}"] = value
        if value < 0:
            oc.fail("negative defect norm")
        slopes.add(slope)
    if len(slopes) != 1:
        oc.fail("assoc rows disagree on the slope")
        return
    slope = slopes.pop()
    if spec == "identity":
        # polynomial inputs under the identity deformation: exact Moyal, zero defect
        if slope != "" or any(oc.numbers[k] != 0.0 for k in oc.numbers):
            oc.fail("identity associativity defect is not exactly zero")
        return
    oc.numbers["slope"] = _finite(oc, "slope", float(slope))
    # oracle: the first-order defect scales at least like hbar^2 (verify check 6)
    if not oc.numbers["slope"] >= 1.9:
        oc.fail(f"defect slope {oc.numbers['slope']!r} < 1.9")


def _check_spectrum(oc: Outcome, text: str, spec: str, n_max: int) -> None:
    lines = text.splitlines()
    if not lines or lines[0] != "n,energy" or len(lines) != n_max + 2:
        oc.fail(f"spectrum CSV shape: {lines[:2]}")
        return
    for line in lines[1:]:
        n_txt, e_txt = line.split(",")
        n, energy = int(n_txt), float(e_txt)
        oc.numbers[f"E_{n}"] = _finite(oc, f"E_{n}", energy)
        if spec == "identity" and energy != n + 0.5:
            oc.fail(f"identity E_{n} = {energy!r} is not {n + 0.5}")
        if spec == "sqrt_n":
            expected = ((n + 1) ** 2 + n ** 2) / 2.0
            if not abs(energy - expected) <= 1e-12 * expected:
                oc.fail(f"sqrt_n E_{n} = {energy!r}, closed form {expected!r}")


# -- field-io ----------------------------------------------------------------


def field_digest(field) -> str:
    """Digest of a field's values, shape and dtype: equal digests are a
    bit-exact match."""
    values = field.values
    h = hashlib.sha256(f"{values.dtype.str}{values.shape}".encode())
    h.update(values.tobytes())
    return h.hexdigest()


def _run_export(fstarq, oc: Outcome, tmpdir: str, ref) -> None:
    if oc.argv[0] == "wigner":
        out_path = os.path.join(tmpdir, "field.csv")
        csv_path = out_path
    else:
        out_path = os.path.join(tmpdir, "report.json")
        csv_path = os.path.join(tmpdir, "report.field.csv")
    oc.exit, oc.stdout, oc.stderr, seconds = call_cli(fstarq, oc.argv + ["--out", out_path])
    oc.calls.append(seconds)
    if not _expect_exit(oc, ref):
        return
    t0 = time.perf_counter()
    read_back = fstarq.read_field_csv(csv_path)
    oc.calls.append(time.perf_counter() - t0)
    # the field it must equal is built after the timed loop (check_fields),
    # so that no untimed library work sits between the timed calls
    oc.field_digest = field_digest(read_back)
    del read_back
    oc.sha256["field.csv"] = sha256_file(csv_path)
    if oc.argv[0] == "commutator":
        with open(out_path, encoding="utf-8") as fh:
            _check_commutator(oc, json.load(fh), oc.argv[2])
        os.remove(out_path)
    os.remove(csv_path)


def check_fields(fstarq, outcomes, checking=contextlib.nullcontext) -> None:
    """Check that every field-io CSV read back bit-exact: its read-back
    field must equal the field the library builds for the same request.
    Each distinct request is built once."""
    expected = {}
    for oc in outcomes:
        if oc.field_digest is None:
            continue
        if oc.key not in expected:
            with checking():
                expected[oc.key] = field_digest(_expected_field(fstarq, oc.argv))
        if oc.field_digest != expected[oc.key]:
            oc.fail("CSV round trip is not bit-exact")


def _expected_field(fstarq, argv):
    grid = fstarq.default_grid()
    if argv[0] == "commutator":
        return fstarq.commutator_deviation(fstarq.parse_deformation(argv[2]), grid)[0]
    if argv[1] == "--n":
        return fstarq.fock_wigner(int(argv[2]), grid)
    return fstarq.fcs_wigner(fstarq.parse_deformation(argv[2]), float(argv[4]), grid)


# ---------------------------------------------------------------------------
# Comparison with the reference


def moved_numbers(oc: Outcome, ref) -> list[str]:
    """Names of numbers that differ bitwise from the reference."""
    if ref is None:
        return []
    moved = []
    ref_numbers = ref.get("numbers", {})
    for name, value in oc.numbers.items():
        # repr of a float round-trips exactly and keeps the sign of zero
        if name not in ref_numbers or json.dumps(ref_numbers[name]) != json.dumps(value):
            moved.append(f"{oc.key}: {name}")
    for name, digest in oc.sha256.items():
        if ref.get("sha256", {}).get(name) != digest:
            moved.append(f"{oc.key}: sha256({name})")
    return moved


def reference_entry(oc: Outcome) -> dict:
    """The reference record of one request."""
    entry = {"exit": oc.exit}
    if oc.exit == 2:
        entry["error"] = error_line(oc.stderr)
    if oc.summary is not None:
        entry["summary"] = oc.summary
    if oc.numbers:
        entry["numbers"] = oc.numbers
    if oc.sha256:
        entry["sha256"] = oc.sha256
    return entry

"""One benchmark process: import fstarq from the checkout, warm up, run.

    python3 perfbench/worker.py setup
        Time the import of fstarq plus the warm-up request, print it, exit.
    python3 perfbench/worker.py run --workload W --seed S --seconds R
            [--ops N] [--trace FILE]
        Run the workload's seeded stream as one closed-loop client until R
        seconds have passed and the round in progress is done (or exactly N
        operations with --ops), check every output, and print one JSON line
        with the per-operation results.
        --trace wraps the package's layers first and writes the spans to FILE.

The working directory must be the root of a checkout (it holds ``src/``).
Everything the worker writes stays under ``.perfbench/`` there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WARMUP = ["residual", "--spec", "sqrt_n", "--n", "1"]


def import_fstarq(root: str):
    """Import fstarq from the checkout's ``src`` and time it with the warm-up request."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fstarq", "__init__.py")):
        raise SystemExit(f"no fstarq sources under {src}")
    sys.path.insert(0, src)
    from workloads import call_cli
    t0 = time.perf_counter()
    import fstarq
    import fstarq.cli
    code, _out, err, _s = call_cli(fstarq, WARMUP)
    setup_s = time.perf_counter() - t0
    if not fstarq.__file__.startswith(src + os.sep):
        raise SystemExit(f"imported fstarq from {fstarq.__file__}, not from {src}")
    if code != 0:
        raise SystemExit(f"warm-up request failed with exit code {code}: {err.strip()}")
    return fstarq, setup_s


def run(args, root: str) -> dict:
    fstarq, setup_s = import_fstarq(root)
    import tracing
    import workloads

    tracer = tracing.install(fstarq) if args.trace else None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    tmpdir = os.path.join(root, ".perfbench", f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)

    stream = workloads.STREAMS[args.workload](args.seed)
    round_ops = workloads.ROUND_OPS[args.workload]
    outcomes = []
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    try:
        while True:
            if args.ops is not None:
                if len(outcomes) >= args.ops:
                    break
            elif (time.perf_counter() - t0 >= args.seconds
                  and outcomes and len(outcomes) % round_ops == 0):
                break
            outcomes.append(workloads.run_operation(fstarq, args.workload, next(stream),
                                                    tmpdir, reference))
    finally:
        wall_s = time.perf_counter() - t0
        shutil.rmtree(tmpdir, ignore_errors=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    workloads.check_fields(fstarq, outcomes,
                           tracer.pause if tracer else contextlib.nullcontext)
    ops = []
    moved = []
    for oc in outcomes:
        moved += workloads.moved_numbers(oc, reference.get(args.workload, {}).get(oc.key))
        ops.append({"key": oc.key, "status": oc.status, "kind": oc.kind,
                    "calls": oc.calls, "problems": oc.problems})
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": ops,
        "moved": moved,
        "minor_faults": usage.ru_minflt - faults0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.dump(args.trace, {"workload": args.workload, "seed": args.seed,
                                 "ops": [op["key"] for op in ops], "wall_s": wall_s,
                                 "layers": result["layers"]})
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True, choices=("verify", "diagnostics", "field-io"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--trace", default=None)
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    root = os.getcwd()
    if args.mode == "setup":
        _fstarq, setup_s = import_fstarq(root)
        result = {"setup_s": setup_s}
    else:
        result = run(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

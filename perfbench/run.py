"""fstarq benchmark entry point.

    python3 perfbench/run.py --workload {verify,diagnostics,field-io}
                             --seed N --seconds R --trace {0,1}

Run from the root of a checkout.  Every process it starts is a fresh
interpreter that imports fstarq from ``src/`` of that checkout.

--trace 0 (end-to-end metrics, tracing off):
  * one workload process, a single closed-loop client that runs the
    seeded stream for R seconds, then finishes its round, and checks every
    output;
  * six set-up probes, three before the workload process and three after,
    each a fresh interpreter that imports fstarq and completes the warm-up
    request; ``setup_s`` is the median of those and of the workload
    process's own set-up.

--trace 1 (per-layer metrics): a fixed, seeded list of operations (so
count metrics can repeat exactly) is run with the layers wrapped, twice
more wrapped with FSTAR_THREADS=1, and once without wrappers; see
``per_layer``.  Spans of the first pass go to
``.perfbench/trace-<workload>-<seed>.json``.

Lines before the last are informational (environment, refusals, moved
numbers, per-command figures).  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify", "diagnostics", "field-io")
SETUP_PROBES = 6
DEADLINE_S = 170.0
# Operations in one traced pass: about 10-15 s of work each.
TRACE_OPS = {"verify": 4, "diagnostics": 24, "field-io": 4}
ENV_PREFIXES = ("OMP_", "OPENBLAS_", "MALLOC_", "MKL_")


class BenchError(Exception):
    pass


def worker(args: list[str], deadline: float, env=None) -> dict:
    """Run worker.py in a fresh interpreter and parse its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, capture_output=True,
                              text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:3]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:3]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {k: v for k, v in sorted(os.environ.items()) if k.startswith(ENV_PREFIXES)}
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed, "FSTAR_THREADS": os.environ.get("FSTAR_THREADS"), "env": env,
    }


def tail(values: list[float]) -> tuple[float, float] | tuple[None, None]:
    """Highest percentile with at least 10 samples beyond it, and its value;
    None when there are 20 samples or fewer, since then no percentile above
    the median has 10 beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return None, None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summarize_ops(results: list[dict]) -> dict:
    """Operation counts and problems, added up over the given passes."""
    ops = [op for res in results for op in res["ops"]]
    return {
        "attempted": len(ops),
        "failed": sum(op["status"] == "failed" for op in ops),
        "refused": sum(op["status"] == "refused" for op in ops),
        "problems": [f"{op['key']}: {p}" for op in ops for p in op["problems"]],
    }


def latencies_by_kind(ops: list) -> dict[str, list[float]]:
    """Seconds of each operation (all its calls into fstarq), by kind."""
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(sum(op["calls"]))
    return by_kind


def named_metrics(workload: str, ops: list, by_kind: dict, counts: dict,
                  tail_ms: float | None) -> dict:
    """The per-command figures behind the generic metrics, by name and unit."""
    def median(values, scale=1.0):
        return scale * statistics.median(values) if values else None

    named = {"error_rate": (counts["failed"] / counts["attempted"], "ratio")}
    if workload == "verify":
        named["verify_full_s"] = (median(by_kind["full"]), "s")
        named["verify_quick_s"] = (median(by_kind["quick"]), "s")
    elif workload == "diagnostics":
        for command in ("residual", "commutator", "assoc", "spectrum"):
            named[f"{command}_p50_ms"] = (median(by_kind[command], 1e3), "ms")
        named["request_tail_ms"] = (tail_ms, "ms")
    else:
        # an export and its read-back are the two calls of one operation
        named["export_s"] = (median([op["calls"][0] for op in ops]), "s")
        named["import_s"] = (median([op["calls"][1] for op in ops if len(op["calls"]) > 1]),
                             "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in named.items()}


def end_to_end(args, deadline: float) -> tuple[dict, dict, list]:
    import workloads

    # half the probes before the workload and half after, so the median
    # spans the run rather than one moment of a shared machine
    setups = [worker(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    res = worker(["run", "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)], deadline)
    setups.append(res["setup_s"])
    setups += [worker(["setup"], deadline)["setup_s"]
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    ops = res["ops"]
    latencies = [sum(op["calls"]) for op in ops]
    by_kind = latencies_by_kind(ops)
    if len(ops) % workloads.ROUND_OPS[args.workload]:
        raise BenchError(f"run ended inside a round ({len(ops)} operations)")
    counts = summarize_ops([res])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "ops_per_s": (len(ops) / sum(latencies), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    pct, tail_s = tail(latencies)
    tail_ms = None if tail_s is None else 1e3 * tail_s
    info = {
        "setup_samples_s": setups,
        # reported, not gated: on verify and field-io a run has too few
        # operations for a percentile above the median with 10 beyond it
        "op_tail_ms": tail_ms, "op_tail_percentile": pct, "op_samples": len(ops),
        "samples_by_kind": {kind: len(v) for kind, v in sorted(by_kind.items())},
        "refused": counts["refused"],
        "refused_share": counts["refused"] / counts["attempted"],
        "minor_faults": res["minor_faults"], "wall_s": res["wall_s"],
        "named": named_metrics(args.workload, ops, by_kind, counts, tail_ms),
    }
    return metrics, {**counts, "info": info}, res["moved"]


def per_layer(args, deadline: float, root: str) -> tuple[dict, dict, list]:
    """Four passes over one fixed, seeded op list: traced with the default
    worker pool, traced twice with FSTAR_THREADS=1, and untraced.

    Times come from the default pass.  Counts come from the single-worker
    passes, which must agree exactly: with two workers the verification
    threads race to fill the same derivative caches, so pooled counts can
    differ from run to run; ``verify.pool.count_drift`` says how many do.
    """
    import tracing

    trace_dir = os.path.join(root, ".perfbench")
    os.makedirs(trace_dir, exist_ok=True)
    base = ["run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--ops", str(TRACE_OPS[args.workload])]
    path = os.path.join(trace_dir, f"trace-{args.workload}-{args.seed}.json")
    single_env = dict(os.environ, FSTAR_THREADS="1")
    pooled = worker(base + ["--trace", path], deadline)
    singles = []
    for k in range(2):
        singles.append(worker(base + ["--trace", f"{path}.single{k}"], deadline,
                              env=single_env))
        os.remove(f"{path}.single{k}")
    plain = worker(base, deadline)

    layers = dict(pooled["layers"])
    count_names = tracing.count_keys(layers)
    first, second = (res["layers"] for res in singles)
    mismatches = [k for k in count_names if first[k] != second[k]]
    drift = [k for k in count_names if first[k] != layers[k]]
    for k in count_names:
        layers[k] = first[k]
    layers["process.minor_faults"] = pooled["minor_faults"]
    layers["trace.overhead_s"] = pooled["wall_s"] - plain["wall_s"]
    layers["trace.count_mismatches"] = len(mismatches)
    layers["verify.pool.count_drift"] = len(drift)
    walls = [sum(res["layers"][f"verify.{c}.wall_s"] for c in tracing.POOLED_CHECKS)
             for res in (singles[0], pooled)]
    layers["verify.pool.speedup"] = walls[0] / walls[1] if walls[1] > 0 else 0.0

    metrics = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}
    counts = summarize_ops([pooled] + singles + [plain])
    # the single-worker passes run the same op list, so their counts must
    # repeat; that comparison is one more checked operation
    counts["attempted"] += 1
    counts["failed"] += bool(mismatches)
    counts["problems"] += [f"count {k} differs between single-worker passes: "
                           f"{first[k]} != {second[k]}" for k in mismatches]
    counts["info"] = {"trace_file": os.path.relpath(path, root),
                      "traced_wall_s": pooled["wall_s"], "untraced_wall_s": plain["wall_s"],
                      "single_worker_wall_s": singles[0]["wall_s"],
                      "count_mismatches": mismatches, "pool_count_drift": drift}
    return metrics, counts, pooled["moved"]


def main() -> int:
    parser = argparse.ArgumentParser(description="fstarq benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fstarq", "__init__.py")):
        print(f"error: {root} holds no fstarq sources (src/fstarq); run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    try:
        print("env " + json.dumps(environment(args.seed)))
        if args.trace:
            metrics, counts, moved = per_layer(args, deadline, root)
        else:
            metrics, counts, moved = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("info " + json.dumps(counts.pop("info")))
    print("moved " + json.dumps({"count": len(moved), "numbers": moved}))
    if counts["problems"]:
        print("problems " + json.dumps(counts["problems"]))
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

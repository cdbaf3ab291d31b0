"""Record the outputs every benchmark request gives at the current commit.

    python3 perfbench/record_reference.py        # from the root of a checkout

Writes ``perfbench/reference.json``: for each request the exit code, the
error line of a refusal, the numbers the output checks extract, and the
sha256 of each exported CSV; for ``verify`` also the full summary.  Runs
report numbers that differ bitwise from it as moved.  Record it again only
in a change that is meant to move numbers, and say which.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import import_fstarq  # noqa: E402


def main() -> int:
    root = os.getcwd()
    fstarq, _ = import_fstarq(root)
    tmpdir = os.path.join(root, ".perfbench", "record")
    os.makedirs(tmpdir, exist_ok=True)
    reference = {}
    bad = []
    try:
        for workload in ("verify", "diagnostics", "field-io"):
            entries = reference[workload] = {}
            outcomes = []
            for argv in workloads.all_requests(workload):
                outcomes.append(workloads.run_operation(fstarq, workload, argv, tmpdir, {}))
                print(f"{outcomes[-1].key}: exit {outcomes[-1].exit}", file=sys.stderr)
            workloads.check_fields(fstarq, outcomes)
            for oc in outcomes:
                # with an empty reference a refusal and a verify summary are
                # reported as problems; anything else is a failed check
                problems = [p for p in oc.problems if p != "no reference summary"]
                if oc.exit != 2 and problems:
                    bad.append((oc.key, problems))
                entries[oc.key] = workloads.reference_entry(oc)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if bad:
        for key, problems in bad:
            print(f"check failed: {key}: {problems}", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

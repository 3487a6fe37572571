#!/usr/bin/env python3
"""Record the numbers each workload's outputs are checked against.

    python3 perfbench/record_references.py [--smoke] [--workload NAME ...]

For every input case (seed modulo N_CASES) this sets up the workload, runs
its CLI command once per distinct input (every probe, for localize_512) and
stores the checked numbers, rounded to 10 significant digits, and the
output digests in ``perfbench/references/<workload>[_smoke].json``. Run it
only on the commit whose outputs define correct, and say so when the
references change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import git_commit  # noqa: E402
from workloads import ATOL, N_CASES, REFERENCES, RTOL, WORKLOADS, run_cli  # noqa: E402


def rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [rounded(v) for v in obj]
    return obj


def record(wl, work: Path) -> dict:
    cases = {}
    for case in range(N_CASES):
        inputs, outputs = work / "inputs", work / "outputs"
        shutil.rmtree(work, ignore_errors=True)
        inputs.mkdir(parents=True)
        outputs.mkdir(parents=True)
        wl.setup(inputs, case)
        entries = {}
        i = 0
        while wl.reference_key(i) not in entries:
            code, _ = run_cli(wl.argv(inputs, outputs, i))
            if code != 0:
                raise SystemExit(f"{wl.name} case {case} command {i} exited {code}")
            got = wl.extract(outputs, i)
            problems = wl.extra_problems(outputs, i, got)
            if problems:
                raise SystemExit("; ".join(problems))
            entries[wl.reference_key(i)] = rounded(got)
            i += 1
        cases[str(case)] = entries
        print(f"{wl.name} case {case}: {len(entries)} reference(s)", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return cases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    args = parser.parse_args()
    REFERENCES.mkdir(exist_ok=True)
    for name in args.workload:
        wl = WORKLOADS[name](smoke=args.smoke)
        table = {
            "commit": git_commit(),
            "tolerance": {"rtol": RTOL, "atol": ATOL},
            "cases": record(wl, HERE / "_work" / f"references_{name}"),
        }
        suffix = "_smoke" if args.smoke else ""
        (REFERENCES / f"{name}{suffix}.json").write_text(json.dumps(table, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

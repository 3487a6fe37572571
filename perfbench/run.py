#!/usr/bin/env python3
"""prnukit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of evaluate_ci, estimate_512, localize_512, or ``all``. Each
run sets up the workload's inputs SETUP_REPEATS times, each in a fresh
process, then measures in another fresh process: the workload's prnukit
CLI command runs in-process in a closed loop, one command at a time, until
the commands have taken S seconds, and every command's outputs are checked
against the references recorded at the seed commit. With ``--trace 1`` the
loop runs once untraced and once with per-layer spans, and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, every sample, check problems, layer shares) goes to
``perfbench/results/``. Only the standard library is used here; the child
processes use the package and its dependencies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("evaluate_ci", "estimate_512", "localize_512")
SETUP_REPEATS = 3
# Run limit per workload, below the 180 s a run may take.
TIME_LIMIT_S = 175
# OpenBLAS threads by default; pinned so every compared run uses the same.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"images_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} phase ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} phase exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """Commit of the checkout, read without git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def images_per_s(m: dict) -> float:
    return len(m["op_s"]) * m["images_per_command"] / sum(m["op_s"])


def named_metrics(name: str, m: dict, setup_s: float) -> list:
    """The metrics the benchmark's README names for this workload."""
    ops = m["op_s"]
    rows = []
    if name == "evaluate_ci":
        rows.append(("evaluate_s", statistics.median(ops), "s"))
    elif name == "estimate_512":
        rows.append(("estimate_images_per_s", images_per_s(m), "1/s"))
    else:
        rows.append(("localize_probe_p50_ms", 1e3 * statistics.median(ops), "ms"))
        if len(ops) >= 100:  # ten samples beyond the 90th percentile
            rows.append(("localize_probe_p90_ms",
                         1e3 * statistics.quantiles(ops, n=10)[-1], "ms"))
    rows += [("peak_rss_mb", m["peak_rss_mb"], "MB"), ("setup_s", setup_s, "s"),
             ("error_rate", m["failed"] / m["attempted"], "ratio")]
    return rows


def run_workload(name: str, args, deadline: float) -> dict:
    work = WORK / name
    inputs, outputs = work / "inputs", work / "outputs"
    common = ["--workload", name, "--seed", args.seed, "--inputs", inputs]
    if args.smoke:
        common.append("--smoke")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            t0 = time.perf_counter()
            run_child(["setup", *common], deadline)
            setups.append(time.perf_counter() - t0)
        tag = f"{name}{'_smoke' if args.smoke else ''}_seed{args.seed}_trace{args.trace}"
        m = run_child(["measure", *common, "--outputs", outputs, "--seconds", args.seconds,
                       "--trace", args.trace, "--spans", RESULTS / f"{tag}_spans.json"],
                      deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = statistics.median(setups)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in m["per_layer"].items()}
    else:
        # Throughput over the whole loop: a mean, so a slow spell of the host
        # shifts it in proportion to its length rather than all or nothing.
        values = {"images_per_s": images_per_s(m),
                  "peak_rss_mb": m["peak_rss_mb"], "setup_s": setup_s}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    env = dict(m["env"], nproc=len(os.sched_getaffinity(0)), blas_threads_setting=BLAS_THREADS,
               git_commit=git_commit(), seed=args.seed, case=m["case"], smoke=args.smoke)
    record = {
        "workload": name, "env": env, "setup_s": setups, "named": named_metrics(name, m, setup_s),
        "correct": m["failed"] == 0, "attempted": m["attempted"], "failed": m["failed"],
        "metrics": metrics, **{k: m[k] for k in m if k not in ("env", "per_layer")},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(rec: dict, trace: int) -> None:
    name = rec["workload"]
    print(f"[{name}] env {json.dumps(rec['env'], sort_keys=True)}")
    print(f"[{name}] {len(rec['op_s'])} commands untraced, outputs_identical "
          f"{str(rec['outputs_identical']).lower()} (not a gate)")
    for metric, value, unit in rec["named"]:
        print(f"[{name}] {metric} = {value:.6g} {unit}")
    for problem in rec["problems"]:
        print(f"[{name}] check failed: {problem}")
    if trace:
        print(f"[{name}] tracing overhead {rec['metrics']['trace.overhead_s']['value']:+.4f} s"
              " per command (traced minus untraced median)")
        for group, share in sorted(rec["shares"].items(), key=lambda kv: -kv[1]):
            print(f"[{name}] self-time share {group:<22} {share:7.1%}")
        for prediction, held in rec["predictions"]:
            print(f"[{name}] prediction {'held' if held else 'DID NOT HOLD'}: {prediction}")
        if rec["absent"]:
            print(f"[{name}] absent names (0 calls): {', '.join(rec['absent'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: exercises every phase in seconds, times nothing")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        records = [run_workload(name, args, deadline) for name in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec, args.trace)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

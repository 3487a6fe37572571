"""One phase of a benchmark run, in its own process; started by run.py.

    child.py setup   --workload W --seed N --inputs DIR [--smoke]
    child.py measure --workload W --seed N --inputs DIR --outputs DIR
                     --seconds S --trace 0|1 --spans FILE [--smoke]

``setup`` makes the workload's inputs. ``measure`` runs the workload's CLI
command in a closed loop (one at a time) until the commands have taken
``--seconds``, checks every command's outputs, and reports its own peak
resident memory, which therefore excludes the set-up. With ``--trace 1`` it
runs the loop once untraced and once traced. The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The checkout's package, never a copy installed elsewhere.
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import prnukit  # noqa: E402
import prnukit.cli  # noqa: E402,F401
from tracing import Tracer  # noqa: E402
from workloads import N_CASES, WORKLOADS, run_cli  # noqa: E402

if Path(prnukit.__file__).resolve().parent != ROOT / "src" / "prnukit":
    sys.exit(f"prnukit imported from {prnukit.__file__}, not from {ROOT / 'src'}")

# Failures a check can meet on missing or malformed outputs.
_CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def environment() -> dict:
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_threads": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                env["blas_threads"] = getter()
                return env
    return env


def run_loop(wl, ref, inputs: Path, outputs: Path, first: int, seconds: float) -> dict:
    times, problems = [], []
    failed, identical = 0, True
    i = first
    while not times or sum(times) < seconds:
        argv = wl.argv(inputs, outputs, i)
        t0 = time.perf_counter()
        try:
            code, _ = run_cli(argv)
        except (Exception, SystemExit) as exc:  # a failed command is counted, not fatal
            code = repr(exc)
        times.append(time.perf_counter() - t0)
        found, same = [f"command {i} exited {code}"], False
        if code == 0:
            try:
                found, same = wl.check(outputs, i, ref)
            except _CHECK_ERRORS as exc:
                found = [f"command {i}: outputs unreadable: {exc!r}"]
        wl.cleanup(outputs, i)
        failed += bool(found)
        identical &= same
        problems += found
        i += 1
    return {"op_s": times, "failed": failed,
            "identical": identical, "problems": problems}


def predictions(wl, shares: dict) -> list:
    """[(prediction, held)] for the workload's self-time share predictions."""
    top = max(shares, key=shares.get)
    found = [(f"largest self-time group is {wl.largest} (measured: {top})", top == wl.largest)]
    for group, (lo, hi) in wl.share_bounds.items():
        share = shares[group]
        found.append((f"{group} self-time share {share:.1%} within [{lo:.0%}, {hi:.0%}]",
                      lo <= share <= hi))
    return found


def measure(wl, case: int, args) -> dict:
    ref = wl.reference(case)
    plain = run_loop(wl, ref, args.inputs, args.outputs, 0, args.seconds)
    out = {
        "op_s": plain["op_s"],
        "images_per_command": wl.images_per_command,
        "attempted": len(plain["op_s"]),
        "failed": plain["failed"],
        "outputs_identical": plain["identical"],
        "problems": plain["problems"][:20],
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = run_loop(wl, ref, args.inputs, args.outputs, len(plain["op_s"]), args.seconds)
        overhead = statistics.median(traced["op_s"]) - statistics.median(plain["op_s"])
        per_layer, shares = tracer.metrics(len(traced["op_s"]), overhead)
        verdicts = predictions(wl, shares)
        per_layer["trace.prediction_held"] = (int(all(ok for _, ok in verdicts)), "flag")
        out["attempted"] += len(traced["op_s"])
        out["failed"] += traced["failed"]
        out["outputs_identical"] &= traced["identical"]
        out["problems"] = (plain["problems"] + traced["problems"])[:20]
        out.update(traced_op_s=traced["op_s"], per_layer=per_layer, shares=shares,
                   predictions=verdicts, absent=tracer.absent)
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps(
            {"fields": ["name", "tag", "start", "end", "parent"], "spans": tracer.spans}))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["env"] = environment()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--outputs", type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](smoke=args.smoke)
    case = args.seed % N_CASES
    if args.phase == "setup":
        args.inputs.mkdir(parents=True, exist_ok=True)
        wl.setup(args.inputs, case)
        result = {"case": case}
    else:
        args.outputs.mkdir(parents=True, exist_ok=True)
        result = measure(wl, case, args)
        result["case"] = case
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

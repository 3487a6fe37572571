"""A small ``evaluate`` run checked against numbers recorded from an earlier commit.

The numbers are compared at rtol 1e-12 rather than by hash, so that an FFT
library's last-bit changes pass and a change to what the harness computes
does not. ``p_value`` is left out: it is a function of ``pce`` that
test_matching covers.

To re-record the reference (only for an output change made on purpose and
named in CHANGES.md), from the repository root:

    PYTHONPATH=src python tests/test_reference_report.py
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

from prnukit.evalharness import ExperimentConfig, run_evaluation

REFERENCE = Path(__file__).with_name("reference_report.json")
# Small patches, so the detection numbers are not saturated at AUC and TPR 1.
CONFIG = {
    "seed": 5,
    "sensor": {"width": 64, "height": 64},
    "n_estimation": 4,
    "n_test": 2,
    "patch_sizes": [32],
    "max_shift": 4,
}
RECORD_FIELDS = (
    "camera_fp", "camera_test", "pipeline_est", "pipeline_test", "patch_size", "origin", "image", "label",
    "pce", "peak_value", "peak",
)
RTOL = 1e-12


def report_numbers(out_dir) -> dict:
    """The summary, the correlation matrix and the records of one run, as JSON values read from its report."""
    run_evaluation(ExperimentConfig.from_json(CONFIG), out_dir)
    report = Path(out_dir) / "report"
    with open(report / "correlation.csv") as fh:
        header, *rows = csv.reader(fh)
    ids = header[1:]
    assert [row[0] for row in rows] == ids
    shifts = [[[0, 0] for _ in ids] for _ in ids]  # the file leaves out the diagonal's zero shifts
    with open(report / "alignment_shifts.csv") as fh:
        for row in csv.DictReader(fh):
            shifts[ids.index(row["pipeline_a"])][ids.index(row["pipeline_b"])] = [int(row["dx"]), int(row["dy"])]
    lines = (report / "score_records.jsonl").read_text().splitlines()
    records = [{key: rec[key] for key in RECORD_FIELDS} for rec in map(json.loads, lines)]
    return {
        "config": CONFIG,
        "summary": json.loads((report / "summary.json").read_text()),
        "matrix": {"ids": ids, "ncc": [[float(v) for v in row[1:]] for row in rows], "shifts": shifts},
        "records": records,
    }


def _assert_close(got, want, where="") -> None:
    """Equal structure and values, with floats equal to within RTOL."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_small_report_matches_the_reference(tmp_path):
    ref = json.loads(REFERENCE.read_text())
    assert ref["config"] == CONFIG
    got = report_numbers(tmp_path)
    _assert_close(got["summary"], ref["summary"], "summary")
    _assert_close(got["matrix"], ref["matrix"], "matrix")
    _assert_close(got["records"], ref["records"], "records")
    # the reference is not saturated: a detection change can move it
    cross = [row for row in ref["summary"]["detection"] if row["group"] == "cross"]
    assert cross and all(row["auc"] < 1.0 and row["tpr_at_target"] < 1.0 for row in cross)


def _write_reference(ref, path) -> None:
    # one line per part and per record, so that a diff of the file names what moved
    parts = [f'"{key}": {json.dumps(ref[key], sort_keys=True)}' for key in ("config", "summary", "matrix")]
    parts.append('"records": [\n' + ",\n".join(json.dumps(rec, sort_keys=True) for rec in ref["records"]) + "\n]")
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        numbers = report_numbers(tmp)
    _write_reference(numbers, REFERENCE)
    print(f"{len(numbers['records'])} records -> {REFERENCE}", file=sys.stderr)

"""Per-layer spans around prnukit's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``TARGETS`` with a
wrapper at every module-level name that refers to it, in every loaded
``prnukit`` module: the name the caller resolves (``prnukit.evalharness.develop``,
``prnukit.cli.residual``, ``prnukit.localization.pce``, ...). The package's
source is untouched. A name that no longer exists is reported as absent and
counts zero calls.

Each call records a span (name, tag, start, end, parent) in memory. A span's
self time is its duration minus the time its child spans cover; a layer's
self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

TARGETS = {
    "cli": ("main",),
    "ispsim": ("develop", "capture", "synth_scene", "synth_sensor"),
    "imaging": ("save_image", "load_image", "to_luminance"),
    "denoise": ("wavelet_denoise", "gaussian_denoise", "local_signal_variance"),
    "wavelets": ("decompose", "reconstruct"),
    "fingerprint": ("residual", "estimate_fingerprint", "clean_fingerprint"),
    "matching": ("match_patch", "cross_correlate", "pce", "align"),
    "localization": ("pce_map", "probability_map", "render_map"),
    "evalharness": (
        "build_dataset",
        "estimate_fingerprint_sets",
        "correlation_matrix",
        "pce_sweep",
        "summarize",
        "report",
    ),
}
LAYERS = tuple(TARGETS)
COMMANDS = ("evaluate", "estimate", "localize")
DEMOSAICS = ("bilinear", "edge_directed", "nearest")
# Layers that share one prediction are compared as one group.
GROUPS = (("ispsim",), ("imaging",), ("denoise", "wavelets"), ("fingerprint",),
          ("matching", "localization"), ("evalharness",), ("cli",))


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _pixels(arr) -> int:
    h, w = arr.shape[:2]
    return h * w


def _held_planes(a, k, r):
    # Computed: the images and residuals estimate_fingerprint holds, as float64.
    images = _arg(a, k, 0, "images")
    return {
        "fingerprint.images_aggregated": len(images),
        "fingerprint.planes_held_mb": 2 * len(images) * _pixels(images[0]) * 8 / 1e6,
    }


# Counts taken at the call boundary: (args, kwargs, result) -> {counter: amount}.
COUNTERS = {
    "imaging.save_image": lambda a, k, r: {
        "imaging.bytes_written": os.path.getsize(_arg(a, k, 1, "path"))},
    "imaging.load_image": lambda a, k, r: {
        "imaging.bytes_read": os.path.getsize(_arg(a, k, 0, "path"))},
    "denoise.wavelet_denoise": lambda a, k, r: {
        "denoise.wavelet_mpix": _arg(a, k, 0, "plane").size / 1e6},
    "fingerprint.estimate_fingerprint": _held_planes,
    # Computed: two forward and one inverse 2-D transform of the input shape.
    "matching.cross_correlate": lambda a, k, r: {
        "matching.fft_mpix": 3 * _pixels(_arg(a, k, 0, "a")) / 1e6},
    "localization.pce_map": lambda a, k, r: {"localization.windows": r.grid.size},
    "evalharness.pce_sweep": lambda a, k, r: {"evalharness.score_records": len(r)},
}
# Counters that keep the largest single-call amount instead of a sum.
PEAK_COUNTERS = {"fingerprint.planes_held_mb"}
TAGS = {
    "ispsim.develop": lambda a, k: getattr(_arg(a, k, 1, "config"), "demosaic", ""),
    "cli.main": lambda a, k: str(list(_arg(a, k, 0, "argv"))[0]),
}
_COUNT_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError)


def _per_function_metrics():
    # synth_sensor is wrapped only so that its time counts as ispsim's.
    out = []
    for layer in ("ispsim", "imaging", "denoise", "wavelets", "fingerprint"):
        out += [(f"{layer}.{fn}_s", "s") for fn in TARGETS[layer] if fn != "synth_sensor"]
    return out


# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    _per_function_metrics()
    + [("ispsim.develop_calls", "count")]
    + [(f"ispsim.develop.{d}_ms_per_call", "ms") for d in DEMOSAICS]
    + [("imaging.bytes_written", "B"), ("imaging.bytes_read", "B"),
       ("denoise.wavelet_mpix", "Mpix"),
       ("fingerprint.residual_calls", "count"), ("fingerprint.images_aggregated", "count"),
       ("fingerprint.planes_held_mb", "MB")]
    + [(f"matching.{fn}_{kind}", unit) for fn in TARGETS["matching"]
       for kind, unit in (("s", "s"), ("calls", "count"))]
    + [("matching.fft_mpix", "Mpix")]
    + [(f"localization.{fn}_s", "s") for fn in TARGETS["localization"]]
    + [("localization.pce_map.self_s", "s"), ("localization.windows", "count")]
    + [(f"evalharness.{fn}_s", "s") for fn in TARGETS["evalharness"]]
    + [("evalharness.build_dataset.self_s", "s"), ("evalharness.pce_sweep.self_s", "s"),
       ("evalharness.score_records", "count")]
    + [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead_s", "s"), ("trace.absent_names", "count"),
       ("trace.spans", "count"), ("trace.prediction_held", "flag")]
)


class Tracer:
    """Span recorder for one process; install once, before the traced run."""

    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent index]
        self._stack = []
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)
        self.absent = []
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"prnukit.{layer}")
            except ImportError:
                self.absent += [f"{layer}.{fn}" for fn in names]
                continue
            for fn in names:
                original = getattr(module, fn, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fn}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "prnukit" or name.startswith("prnukit.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, span_name, fn):
        layer = span_name.split(".", 1)[0]
        count, tag_of = COUNTERS.get(span_name), TAGS.get(span_name)

        def traced(*args, **kwargs):
            tag = ""
            if tag_of is not None:
                try:
                    tag = tag_of(args, kwargs)
                except _COUNT_ERRORS:
                    pass
            record = [span_name, tag, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    for key, amount in count(args, kwargs, result).items():
                        if key in PEAK_COUNTERS:
                            self.counts[key] = max(self.counts[key], amount)
                        else:
                            self.counts[key] += amount
                except _COUNT_ERRORS:
                    pass
            return result

        return functools.wraps(fn)(traced)

    def self_times(self) -> list:
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, n_ops: int, overhead_s: float) -> tuple:
        """(per-layer metrics per traced command, layer-group self-time shares).

        ``trace.prediction_held`` is left to the caller, which knows the
        workload's predictions.
        """
        own = self.self_times()
        total = defaultdict(float)
        calls = defaultdict(int)
        self_by = defaultdict(float)
        for (name, tag, start, end, _), s in zip(self.spans, own):
            keys = (name, f"{name}.{tag}") if tag else (name,)
            for key in keys:
                total[key] += end - start
                calls[key] += 1
                self_by[key] += s
            self_by[name.split(".", 1)[0]] += s

        busy = sum(self_by[layer] for layer in LAYERS)
        shares = {"+".join(g): sum(self_by[layer] for layer in g) / busy if busy else 0.0
                  for g in GROUPS}

        def per_op(v):
            return v / n_ops if n_ops else 0.0

        special = {"trace.overhead_s": overhead_s, "trace.absent_names": len(self.absent),
                   "trace.spans": per_op(len(self.spans))}
        values = {}
        for name, unit in PER_LAYER:
            if name == "trace.prediction_held":
                continue
            if name in special:
                v = special[name]
            elif name.endswith("_ms_per_call"):
                key = name[: -len("_ms_per_call")]
                v = 1e3 * total[key] / calls[key] if calls[key] else 0.0
            elif name.endswith(".errors"):
                v = self.errors[name.split(".", 1)[0]]
            elif name.endswith(".self_s"):
                key = name[: -len(".self_s")]
                if key.startswith("cli."):
                    key = "cli.main." + key.split(".", 1)[1]
                v = per_op(self_by[key])
            elif name.endswith("_calls"):
                v = per_op(calls[name[: -len("_calls")]])
            elif name.endswith("_s"):
                v = per_op(total[name[: -len("_s")]])
            elif name in PEAK_COUNTERS:
                v = self.counts[name]
            else:
                v = per_op(self.counts[name])
            values[name] = (v, unit)
        return values, shares

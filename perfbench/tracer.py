"""Per-layer spans and call counts, taken by wrapping pwlu's public functions.

Nothing in the package is edited.  `Tracer.install()` replaces each traced
function or method, wherever the package binds it, with a wrapper that
records the call's duration; `remove()` puts the originals back.  Spans
nest, so a span's self time is its duration minus the time of the spans
opened inside it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import pwlu
from pwlu import checkpoint, data, kernel, layers, optim, stats, trainer

PACKAGE_MODULES = (pwlu, kernel, stats, layers, optim, trainer, checkpoint, data)

# (span name, owner, attribute, end-to-end metric the span should move).
# A module-level function is replaced in every package module that binds it,
# so a call through `from .stats import update_stats` is traced as well.
SPANS = (
    ("layers.PwluActivation.forward", layers.PwluActivation, "forward",
     "train_iter_per_s, step_ms_p50, predict_samples_per_s on spirals and wide"),
    ("layers.PwluActivation.backward", layers.PwluActivation, "backward",
     "train_iter_per_s, step_ms_p50 on spirals and wide"),
    ("layers.PwluActivation.step", layers.PwluActivation, "step",
     "train_iter_per_s, step_ms_p50 on spirals and wide"),
    ("layers.Dense.forward", layers.Dense, "forward",
     "train_iter_per_s, predict_samples_per_s on wide and wide-relu"),
    ("layers.Dense.backward", layers.Dense, "backward", "train_iter_per_s on wide and wide-relu"),
    ("layers.Dense.step", layers.Dense, "step", "train_iter_per_s on wide and wide-relu"),
    ("layers.Relu.forward", layers.Relu, "forward", "train_iter_per_s on wide-relu"),
    ("layers.Relu.backward", layers.Relu, "backward", "train_iter_per_s on wide-relu"),
    ("layers.softmax_xent_forward", layers, "softmax_xent_forward",
     "train_iter_per_s on every training workload"),
    ("layers.Model.accuracy", layers.Model, "accuracy",
     "train_iter_per_s on spirals (per-epoch eval)"),
    ("layers.Model.predict", layers.Model, "predict", "predict_samples_per_s on every workload"),
    ("stats.update_stats", stats, "update_stats", "collect_step_ms_mean, step_ms_p95 on wide"),
    ("stats.Reservoir.extend", stats.Reservoir, "extend",
     "collect_step_ms_mean, step_ms_p95 on wide"),
    ("stats.realign_reset", stats, "realign_reset", "step_ms_p95 on spirals and wide"),
    ("stats.percentile_interval", stats, "percentile_interval", "step_ms_p95 on spirals and wide"),
    ("trainer.realign_now", trainer.Trainer, "realign_now", "step_ms_p95 on spirals and wide"),
    ("optim.sgd_momentum_step", optim, "sgd_momentum_step",
     "train_iter_per_s on wide and wide-relu"),
)

# Calls counted exactly, without timing: (name, owner, attribute, moves).
COUNTED = (
    ("kernel.PwluParams.validate", kernel.PwluParams, "validate",
     "train_iter_per_s on spirals (falls with a struct-of-arrays bank)"),
)

# Spans whose exact call count per iteration is reported beside their time.
COUNTED_SPANS = ("stats.update_stats", "stats.Reservoir.extend", "optim.sgd_momentum_step")

# The self time of this span is reported too: forward minus its stats children.
SELF_SPANS = ("layers.PwluActivation.forward",)


def moves() -> dict[str, str]:
    return {name: text for name, _, _, text in SPANS + COUNTED}


class Tracer:
    """Records spans while installed; collects across several installs."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.counts = defaultdict(int)
        self._open_child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open_child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open_child_time.pop()
                if self._open_child_time:
                    self._open_child_time[-1] += elapsed
                self.durations[name].append(elapsed)
                self.self_times[name].append(elapsed - children)
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapped_factory):
        original = getattr(owner, attr)
        wrapped = wrapped_factory(original)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for m in PACKAGE_MODULES if getattr(m, attr, None) is original]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr, _ in SPANS:
            self._patch(owner, attr, lambda fn, name=name: self._timed(name, fn))
        for name, owner, attr, _ in COUNTED:
            self._patch(owner, attr, lambda fn, name=name: self._counted(name, fn))

    def remove(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def metrics(self, iterations: int) -> dict[str, tuple[float, str]]:
        """Per-call median and per-iteration total of every span, plus exact counts.

        A span that never ran reports 0: the layer is absent from the workload.
        """
        out = {}

        def add(name, samples):
            seconds = np.asarray(samples, dtype=np.float64)
            median = float(np.median(seconds)) * 1e3 if seconds.size else 0.0
            out[f"{name}_ms"] = (median, "ms")
            out[f"{name}_ms_per_iter"] = (float(seconds.sum()) * 1e3 / iterations, "ms/iter")

        for span, *_ in SPANS:
            add(span, self.durations[span])
            if span in SELF_SPANS:
                add(f"{span}_self", self.self_times[span])
        for span in COUNTED_SPANS:
            out[f"{span}_calls"] = (len(self.durations[span]) / iterations, "calls/iter")
        for name, *_ in COUNTED:
            out[f"{name}_calls"] = (self.counts[name] / iterations, "calls/iter")
        return out

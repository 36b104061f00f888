"""The benchmark's workloads, their inputs, their timings and their correctness checks.

Every workload drives the library only through its public API, in one
process, as a closed loop with one caller.  Inputs are a deterministic
function of the seed.  An *iteration* is one `Trainer.step`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import resource
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from pwlu import (
    LabeledDataset,
    NonFiniteLossError,
    PwluActivation,
    Trainer,
    TrainSchedule,
    backward,
    build_fused,
    build_mlp,
    forward_fused,
    forward_reference,
    gen_spirals,
    load_model,
    save_checkpoint,
    standardize,
)
from tracer import Tracer

EPS = np.finfo(np.float64).eps
# A shared host's speed drifts by up to 2x over seconds to minutes, and
# slows interpreter, small-array and BLAS work by different amounts.  Every
# timed call is therefore followed by short probes of fixed work of the
# kinds the call spends its time in, and each time is reported at the
# reference speed: seconds / slowdown, where the slowdown at a call is the
# mean over its probe kinds of probe seconds / PROBE_REF_S, taken as the
# median over the calls around it.
# The probes' median times inside the workloads on a 2-vCPU x86-64 host in
# its usual state, so that reported times are close to wall time there.
PROBE_REF_S = {"interpreter": 1.2e-4, "array": 5.5e-4, "small": 4.0e-4, "rng": 3.3e-4}
PROBE_WINDOW = 5  # calls on each side of a call whose probes set its speed
SETUP_PROBES = 5  # set-ups are seconds apart: each takes its own median of probes
# Every unit of work sets up afresh and its set-ups are timed; cheap set-ups
# are repeated within the unit.  setup_s is the median over the whole run.
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 0.5
PREDICT_BATCH = 1024
# Kernel rows run each kernel over every PWLU unit, on the unit's inputs from
# at most this many test rows.
KERNEL_ROWS = 4096
KERNEL_REPEATS = 5
# Computed compulsory traffic per element: inputs read plus outputs written.
KERNEL_BYTES_PER_ELEM = {
    "relu": 16,
    "forward_reference": 16,
    "forward_fused_f64": 16,
    "forward_fused_f32": 8,
    "backward": 24,
}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    data: str  # "spirals" or "clusters"
    widths: tuple[int, ...]
    activation: str
    epochs: int
    # Epochs frozen and collecting before realignment.  ReLU workloads have no
    # realignment; their collect-phase metric covers the same opening epochs.
    collect_epochs: int
    batch_size: int
    n_train: int
    n_test: int
    acc_floor: float
    # Predict passes timed after each training schedule, each of this many
    # batches cycling through the full batches of the test set.  A slow batch
    # now and then is the host's, so batch times are the median at each
    # position over every pass of the run: more passes, steadier medians.
    predict_batches: int = 32
    predict_passes: int = 2
    # The probes whose slowdown on a shared host tracks that of the
    # workload's steps and predict batches, and of its set-ups, best.  Found
    # by timing candidates beside each as the host's speed drifted.
    probe: tuple[str, ...] = ("array",)
    setup_probe: tuple[str, ...] = ("interpreter", "rng")


SPIRALS = Workload("spirals", (2, 32, 32, 2), "pwlu", epochs=60, collect_epochs=5,
                   batch_size=64, n_train=1200, n_test=1200, acc_floor=0.9,
                   predict_batches=128, predict_passes=1, probe=("interpreter", "array"),
                   setup_probe=("array", "small"))
# Three epochs rather than six, so that one run repeats the schedule several
# times and position_median has repeats to take the median of.
WIDE = Workload("clusters", (784, 256, 256, 10), "pwlu", epochs=3, collect_epochs=1,
                batch_size=128, n_train=8192, n_test=2048, acc_floor=0.8)
WORKLOADS = {
    "spirals": SPIRALS,
    "wide": WIDE,
    "wide-relu": dataclasses.replace(WIDE, activation="relu"),
}

# Reduced sizes for the harness smoke test: same code paths, seconds not
# minutes.  Short training cannot reach the full-size floors, so the smoke
# floors only guard against chance level (0.5 spirals, 0.1 clusters).
SMOKE = {
    "spirals": dict(epochs=12, collect_epochs=2, n_train=400, acc_floor=0.6),
    "wide": dict(epochs=2, n_train=2048, n_test=1024, acc_floor=0.5),
    "wide-relu": dict(epochs=2, n_train=2048, n_test=1024, acc_floor=0.5),
}

LEARNING_RATE = 0.1  # the `pwlu train` default
CLUSTER_CLASSES = 10
CLUSTER_NOISE = 8.0  # test accuracy near 0.87: hard enough not to saturate
SPIRAL_NOISE = 0.02


def get_workload(name: str, smoke: bool) -> Workload:
    w = WORKLOADS[name]
    return dataclasses.replace(w, **SMOKE[name]) if smoke else w


# ---------------------------------------------------------------- inputs

def _cluster_split(centers, rows, rng) -> LabeledDataset:
    """Gaussian class clusters scaled to about unit variance per feature."""
    labels = rng.integers(0, centers.shape[0], rows)
    features = rng.standard_normal((rows, centers.shape[1]))
    features *= CLUSTER_NOISE
    for start in range(0, rows, PREDICT_BATCH):  # chunked: no second full-size array
        features[start:start + PREDICT_BATCH] += centers[labels[start:start + PREDICT_BATCH]]
    features *= 1.0 / np.sqrt(1.0 + CLUSTER_NOISE**2)
    return LabeledDataset(features, labels, name="clusters")


def _cluster_centers(w: Workload, seed: int):
    return np.random.default_rng([seed, 0]).standard_normal((CLUSTER_CLASSES, w.widths[0]))


def make_data(w: Workload, seed: int):
    """(train, test) datasets of the workload."""
    if w.data == "spirals":
        # the `pwlu train` recipe: test spirals from seed + 100000, moments fit on train
        train = gen_spirals(w.n_train // 2, SPIRAL_NOISE, seed)
        test = gen_spirals(w.n_test // 2, SPIRAL_NOISE, seed + 100_000)
        return standardize(train, test)
    centers = _cluster_centers(w, seed)
    return (_cluster_split(centers, w.n_train, np.random.default_rng([seed, 1])),
            _cluster_split(centers, w.n_test, np.random.default_rng([seed, 2])))


def build_model(w: Workload, seed: int):
    pwlu = w.activation == "pwlu"
    return build_mlp(list(w.widths), w.activation, np.random.default_rng(seed),
                     pwlu_frozen=pwlu, pwlu_collecting=pwlu, seed=seed)


def collect_iters(w: Workload) -> int:
    return w.collect_epochs * (w.n_train // w.batch_size)


def make_trainer(w: Workload, model, train, test, seed: int) -> Trainer:
    schedule = TrainSchedule(
        total_iterations=w.epochs * (w.n_train // w.batch_size),
        realign_iteration=collect_iters(w) if w.activation == "pwlu" else 0,
        base_lr=LEARNING_RATE,
        seed=seed,
    )
    return Trainer(model, schedule, train.features, train.labels, batch_size=w.batch_size,
                   test_features=test.features, test_labels=test.labels)


# ---------------------------------------------------------------- checks

class Checks:
    """Counts attempted operations and checks; every failure is kept."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_realignment(trainer: Trainer, checks: Checks) -> None:
    """Right after realignment every unit's boundaries are mean -/+ 3 std of its stats.

    `post_reports` is the trainer's snapshot of the boundaries taken inside
    `realign_now`, before any update moves them.
    """
    layers = {layer.name: layer for layer in trainer.model.pwlu_layers()}
    reports = trainer.post_reports
    checks.check(len(reports) == sum(l.n_units for l in layers.values()),
                 f"{len(reports)} post-realignment reports")
    for r in reports:
        s = layers[r.layer_name].stats[r.unit_index]
        tol = 4 * EPS * (abs(s.mean) + 3.0 * s.std)
        ok = (abs(r.b_l - (s.mean - 3.0 * s.std)) <= tol
              and abs(r.b_r - (s.mean + 3.0 * s.std)) <= tol)
        checks.check(ok, f"{r.layer_name}[{r.unit_index}] realigned to [{r.b_l}, {r.b_r}], "
                         f"stats mean {s.mean} std {s.std}")


def _within_8_eps(a, b, scale) -> bool:
    return bool(np.all(np.abs(a - b) <= 8 * EPS * scale))


def pwlu_inputs(model, x) -> list[tuple[object, np.ndarray]]:
    """(layer, input) for every PWLU layer of the model on batch x."""
    out = []
    for layer in model.layers:
        if isinstance(layer, PwluActivation):
            out.append((layer, x))
        x = layer.forward(x, training=False)
    return out


def check_bank_against_oracle(model, batch, checks: Checks) -> None:
    """Each PWLU layer, and the fused tables of its units, match the per-unit reference."""
    for layer, x in pwlu_inputs(model, batch):
        out = layer.forward(x, training=False)
        for u, params in enumerate(layer.units):
            xu = x[:, u]
            ref = forward_reference(xu, params)
            scale = np.maximum.reduce([np.abs(ref), np.abs(out[:, u]), np.ones_like(ref)])
            checks.check(_within_8_eps(out[:, u], ref, scale),
                         f"{layer.name}[{u}] bank forward differs from forward_reference")
            table = build_fused(params)
            fused = forward_fused(xu, table)
            idx = np.clip(np.floor((xu - table.left_boundary) * table.inv_interval_len),
                          -1, params.n_intervals).astype(np.int64) + 1
            operand = np.abs(xu * table.slopes[idx]) + np.abs(table.offsets[idx])
            scale = np.maximum.reduce([np.abs(ref), np.abs(fused), operand, np.ones_like(ref)])
            checks.check(_within_8_eps(fused, ref, scale),
                         f"{layer.name}[{u}] forward_fused differs from forward_reference")


# ---------------------------------------------------------------- timed phases

_PROBE_RNG = np.random.default_rng(20210408)
_PROBE_MATRIX = _PROBE_RNG.standard_normal((64, 64))
_PROBE_ROWS = _PROBE_RNG.standard_normal((64, 256))
_PROBE_TABLES = _PROBE_RNG.standard_normal((256, 18))
_PROBE_COLUMNS = np.arange(256)
_PROBE_SMALL = np.zeros(17)


def _probe_interpreter() -> None:
    """Interpreter and small numpy work, as in a model with tiny arrays."""
    total = 0.0
    for i in range(100):
        total += i * 0.5
    for _ in range(3):
        _PROBE_MATRIX @ _PROBE_MATRIX
        np.maximum(_PROBE_ROWS, total).sum(axis=0)


def _probe_array() -> None:
    """Per-column table lookups over a batch of 256-wide rows, which slow
    down like the Dense products and unit banks of a 256-unit layer."""
    idx = np.clip(((_PROBE_ROWS + 3.0) * 3.0).astype(np.intp), 0, 17)
    out = _PROBE_TABLES[_PROBE_COLUMNS, idx] * _PROBE_ROWS + _PROBE_TABLES[_PROBE_COLUMNS, idx]
    np.where(_PROBE_ROWS > 0, out, 0.0).sum(axis=0)


def _probe_small() -> None:
    """Many numpy calls on tiny arrays, as in building many small objects."""
    for _ in range(40):
        a = np.zeros(17)
        bool(np.all(a >= _PROBE_SMALL))
        float(a.sum())


def _probe_rng() -> None:
    """Normal draws into a fresh array, as in generating a data set."""
    np.random.default_rng(3).standard_normal((64, 256))


PROBES = {"interpreter": _probe_interpreter, "array": _probe_array, "small": _probe_small,
          "rng": _probe_rng}


def probe(kind: str) -> float:
    """Seconds of one probe of `kind`."""
    start = time.perf_counter()
    PROBES[kind]()
    return time.perf_counter() - start


class Series:
    """Wall seconds of a sequence of calls, each followed by probes of `kinds`."""

    def __init__(self, kinds: tuple[str, ...], probes: int = 1):
        self.kinds = kinds
        self.probes = probes
        self.wall: list[float] = []
        self.slowdown: list[float] = []

    def time(self, fn):
        start = time.perf_counter()
        result = fn()
        self.wall.append(time.perf_counter() - start)
        self.slowdown.append(float(np.mean([
            np.median([probe(kind) for _ in range(self.probes)]) / PROBE_REF_S[kind]
            for kind in self.kinds])))
        return result

    def normalised(self, window: int = PROBE_WINDOW) -> np.ndarray:
        """The calls' seconds at the reference speed."""
        slowdown = np.asarray(self.slowdown)
        if window and slowdown.size:
            padded = np.pad(slowdown, window, mode="edge")
            slowdown = np.median(
                np.lib.stride_tricks.sliding_window_view(padded, 2 * window + 1), axis=1)
        return np.asarray(self.wall) / slowdown


def timed_setup(fn, setups: Series):
    """Run fn() until SETUP_MIN_SECONDS are spent, at least once and at most
    SETUP_MAX_REPEATS times, timing each run into `setups`; return the last result."""
    spent, runs, result = 0.0, 0, None
    while not runs or (runs < SETUP_MAX_REPEATS and spent < SETUP_MIN_SECONDS):
        result = None  # release the previous copy before building the next
        result = setups.time(fn)
        spent += setups.wall[-1]
        runs += 1
    return result


def run_schedule(trainer: Trainer, checks: Checks, kinds: tuple[str, ...]) -> Series:
    """Step the trainer to the end of its schedule, timing every step."""
    steps = Series(kinds)
    while trainer.t < trainer.schedule.total_iterations:
        t = trainer.t
        try:
            loss = steps.time(trainer.step)
        except NonFiniteLossError as exc:
            checks.check(False, f"step {t} raised {exc}")
            break
        checks.check(bool(np.isfinite(loss)), f"step {t} loss {loss}")
    return steps


def train(w: Workload, model, data, seed: int, checks: Checks, scope=None):
    """Run the whole schedule on `model` inside `scope`, check it, return (trainer, run)."""
    train_set, test = data
    trainer = make_trainer(w, model, train_set, test, seed)
    with scope or contextlib.nullcontext():
        run = {"steps": run_schedule(trainer, checks, w.probe)}
    if trainer.schedule.realign_iteration:
        check_realignment(trainer, checks)
    run["acc"] = trainer.model.accuracy(test.features, test.labels)
    return trainer, run


def predict_pass(model, features, batches: int, checks: Checks,
                 kinds: tuple[str, ...]) -> tuple[np.ndarray, Series]:
    """Predict `batches` full batches, cycling through the full batches of `features`.

    Returns (labels, timed batches)."""
    full = features.shape[0] // PREDICT_BATCH
    labels, times = [], Series(kinds)
    for k in range(batches):
        start = (k % full) * PREDICT_BATCH
        batch = features[start:start + PREDICT_BATCH]
        pred = times.time(lambda: model.predict(batch))
        checks.check(pred.shape == (PREDICT_BATCH,), f"predict batch {k}")
        labels.append(pred)
    return np.concatenate(labels), times


def kernel_rows(model, batch) -> dict[str, float]:
    """ns per element of the single-unit kernels, run over every PWLU unit of the model."""
    per_unit = []
    rng = np.random.default_rng(0)
    for layer, x in pwlu_inputs(model, batch):
        for u, params in enumerate(layer.units):
            xu = np.ascontiguousarray(x[:, u])
            per_unit.append((xu, xu.astype(np.float32), rng.standard_normal(xu.size), params,
                             build_fused(params), build_fused(params, dtype=np.float32)))
    if not per_unit:
        return {row: 0.0 for row in KERNEL_BYTES_PER_ELEM}
    kernels = {
        "relu": lambda xu, x32, up, p, t64, t32: np.maximum(xu, 0.0),
        "forward_reference": lambda xu, x32, up, p, t64, t32: forward_reference(xu, p),
        "forward_fused_f64": lambda xu, x32, up, p, t64, t32: forward_fused(xu, t64),
        "forward_fused_f32": lambda xu, x32, up, p, t64, t32: forward_fused(x32, t32),
        "backward": lambda xu, x32, up, p, t64, t32: backward(xu, up, p),
    }
    elems = sum(args[0].size for args in per_unit)
    out = {}
    for name, fn in kernels.items():
        fn(*per_unit[0])  # warm-up
        totals = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            for args in per_unit:
                fn(*args)
            totals.append(time.perf_counter() - start)
        out[name] = float(np.median(totals)) / elems * 1e9
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- summaries

def _iqr_share(samples) -> float:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return float((q3 - q1) / med) if med else 0.0


def summary(value, unit, samples) -> dict:
    """A metric, with the count and spread (IQR / median) of the samples it summarises."""
    samples = np.atleast_1d(np.asarray(samples, dtype=np.float64))
    return {"value": float(value), "unit": unit, "n": int(samples.size),
            "spread": _iqr_share(samples)}


def position_median(series: list[Series]) -> np.ndarray:
    """Median seconds at each position over repeats of identical work, at the
    reference speed.

    Every repeat of a schedule (or predict pass) does the same work at the
    same position; percentiles and rates are then taken over the positions.
    """
    times = [s.normalised() for s in series]
    length = min(t.size for t in times)
    return np.median(np.stack([t[:length] for t in times]), axis=0)


def host_slowdown(series: list[Series]) -> float:
    """Median slowdown of the calls: how much slower than the reference the host ran."""
    return float(np.median(np.concatenate([s.slowdown for s in series])))


def setup_metric(setups: Series) -> dict:
    times = setups.normalised(window=0)
    return {"setup_s": summary(np.median(times), "s", times)}


def train_metrics(step_series: list[Series], collect_iters: int) -> dict:
    steps = position_median(step_series) * 1e3
    rates = [len(s.wall) / s.normalised().sum() for s in step_series]
    return {
        "train_iter_per_s": summary(steps.size / steps.sum() * 1e3, "1/s", rates),
        "step_ms_p50": summary(np.percentile(steps, 50), "ms", steps),
        "step_ms_p95": summary(np.percentile(steps, 95), "ms", steps),
        # A mean, not a median: while a reservoir fills, steps are about half
        # as long as once it samples, and on wide the two halves are equal in
        # number, so that a median falls in the gap between them.
        "collect_step_ms_mean": summary(np.mean(steps[:collect_iters]), "ms",
                                        steps[:collect_iters]),
    }


def predict_metrics(passes: list[Series]) -> dict:
    batches = position_median(passes) * 1e3
    rates = [len(s.wall) * PREDICT_BATCH / s.normalised().sum() for s in passes]
    return {
        "predict_samples_per_s": summary(batches.size * PREDICT_BATCH / batches.sum() * 1e3,
                                         "1/s", rates),
        "predict_batch_ms_p50": summary(np.percentile(batches, 50), "ms", batches),
        "predict_batch_ms_p95": summary(np.percentile(batches, 95), "ms", batches),
    }


# ---------------------------------------------------------------- runners

def repeat_until(seconds: float, trace: bool, work) -> dict[bool, list]:
    """Call work(traced) at least once, and again while the longest unit so
    far still fits in `seconds`.  A traced run pairs every untraced call with
    a traced one, so that the two can be compared."""
    start, longest = time.perf_counter(), 0.0
    out = {False: [], True: []}
    while not longest or time.perf_counter() - start + longest <= seconds:
        unit_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            out[traced].append(work(traced))
        longest = max(longest, time.perf_counter() - unit_start)
    return out


def trace_overhead(reps: dict[bool, list], seconds_of) -> float:
    """Traced minus untraced time of the same work, medians, in seconds at the
    reference speed."""
    return float(np.median([seconds_of(r) for r in reps[True]])
                 - np.median([seconds_of(r) for r in reps[False]]))


def checkpoint_times(trainer: Trainer, workdir: Path) -> tuple[float, float, int]:
    """(save seconds, load seconds, file bytes) of one checkpoint round trip."""
    path = workdir / "checkpoint.bin"
    start = time.perf_counter()
    save_checkpoint(path, trainer)
    save = time.perf_counter() - start
    start = time.perf_counter()
    load_model(path)
    load = time.perf_counter() - start
    return save, load, path.stat().st_size


def layer_metrics(tracer: Tracer, iterations: int, model, rows, ckpt) -> dict:
    save, load, size = ckpt
    out = {name: {"value": v, "unit": unit}
           for name, (v, unit) in tracer.metrics(iterations).items()}
    for row, ns in kernel_rows(model, rows).items():
        out[f"kernel.{row}_ns_per_elem"] = {"value": ns, "unit": "ns/elem"}
        out[f"kernel.{row}_bytes_per_elem"] = {"value": float(KERNEL_BYTES_PER_ELEM[row]),
                                               "unit": "B/elem"}
    out["checkpoint.save_ms"] = {"value": save * 1e3, "unit": "ms"}
    out["checkpoint.load_ms"] = {"value": load * 1e3, "unit": "ms"}
    out["checkpoint.bytes"] = {"value": float(size), "unit": "B"}
    return out


def check_checkpoint_round_trip(trainer: Trainer, workdir: Path, batch, checks: Checks) -> None:
    """A model saved and reloaded predicts exactly what the trained one does."""
    path = workdir / "round-trip.bin"
    save_checkpoint(path, trainer)
    loaded = load_model(path)
    path.unlink()
    checks.check(np.array_equal(loaded.predict(batch), trainer.model.predict(batch)),
                 "the reloaded checkpoint predicts differently")


def run_train(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Each unit of work sets up from scratch, trains the whole schedule and
    predicts `w.predict_passes` passes over the test set.  The first unit's
    trained model is also checked against the per-unit reference kernels and
    through a checkpoint round trip, outside the timed calls."""
    checks, tracer, setups, last = Checks(), Tracer(), Series(w.setup_probe, SETUP_PROBES), {}
    run_count = []

    def unit(traced):
        last.clear()  # release the previous unit's data before building the next
        data, model = timed_setup(lambda: (make_data(w, seed), build_model(w, seed)), setups)
        trainer, run = train(w, model, data, seed, checks, tracer if traced else None)
        passes = [predict_pass(trainer.model, data[1].features, w.predict_batches, checks,
                               w.probe) for _ in range(w.predict_passes)]
        run["labels"] = np.concatenate([labels for labels, _ in passes])
        run["predict"] = [times for _, times in passes]
        if not run_count:
            batch = data[1].features[:PREDICT_BATCH]
            check_bank_against_oracle(trainer.model, batch, checks)
            check_checkpoint_round_trip(trainer, workdir, batch, checks)
        run_count.append(traced)
        if traced:
            last["trainer"] = trainer
        return run

    reps = repeat_until(seconds, trace, unit)
    runs = reps[trace]
    every = reps[False] + reps[True]
    accs = [run["acc"] for run in every]
    checks.check(len(set(accs)) == 1, f"final test accuracy differs between repeats: {accs}")
    checks.check(all(np.array_equal(r["labels"], every[0]["labels"]) for r in every),
                 "predictions differ between repeats")
    checks.check(accs[0] >= w.acc_floor, f"final_test_acc {accs[0]} below floor {w.acc_floor}")

    metrics = setup_metric(setups)
    metrics |= train_metrics([run["steps"] for run in runs], collect_iters(w))
    metrics |= predict_metrics([times for run in runs for times in run["predict"]])
    metrics["final_test_acc"] = summary(accs[0], "fraction", accs)
    result = {"checks": checks, "metrics": metrics, "reps": len(runs),
              "host_slowdown": host_slowdown([run["steps"] for run in runs])}
    if trace:
        trainer = last["trainer"]
        iterations = sum(len(run["steps"].wall) for run in runs)
        result["per_layer"] = layer_metrics(tracer, iterations, trainer.model,
                                            trainer.test_features[:KERNEL_ROWS],
                                            checkpoint_times(trainer, workdir))
        result["trace_overhead_s"] = trace_overhead(
            reps, lambda run: run["steps"].normalised().sum())
    metrics["peak_rss_mb"] = summary(peak_rss_mb(), "MB", [peak_rss_mb()])
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 root: Path) -> dict:
    """Run one workload; the scratch directory lives inside `root` and is removed."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        return run_train(get_workload(name, smoke), seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

"""Acceptance suite: one test per contract-level criterion.

Each test prints a single machine-scannable line
``[criterion K] PASS ...`` or ``[criterion K] FAIL ...`` before asserting,
so a plain ``pytest -s tests/test_acceptance.py`` doubles as a report.
"""

import time

import numpy as np
import pytest

from pwlu.checkpoint import load_checkpoint, save_checkpoint
from pwlu.cli import main
from pwlu.data import gen_spirals, standardize
from pwlu.kernel import (
    PwluParams,
    backward,
    build_fused,
    forward_fused,
    forward_reference,
    init_pwlu_relu,
)
from pwlu.layers import PwluActivation, build_mlp
from pwlu.optim import TrainSchedule
from pwlu.stats import compute_iou, realign_reset
from pwlu.trainer import Trainer

EPS = np.finfo(np.float64).eps


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_params(rng) -> PwluParams:
    n = int(rng.choice([2, 4, 8, 16]))
    b_l = rng.uniform(-4.0, 1.0)
    b_r = b_l + rng.uniform(0.5, 6.0)
    return PwluParams(
        n_intervals=n,
        left_boundary=b_l,
        right_boundary=b_r,
        y_points=rng.normal(0.0, 2.0, size=n + 1),
        left_slope=rng.normal(),
        right_slope=rng.normal(),
    )


def off_grid_points(params, rng, count):
    """Points avoiding every segment edge so the finite-difference step
    never crosses a kink."""
    d = params.interval_len
    margin = max(1e-3 * d, 2e-4)
    inside = []
    for _ in range(count):
        if rng.random() < 0.3:
            side = rng.choice([-1.0, 1.0])
            base = params.left_boundary if side < 0 else params.right_boundary
            inside.append(base + side * rng.uniform(margin, 3.0))
        else:
            seg = int(rng.integers(0, params.n_intervals))
            lo = params.left_boundary + seg * d + margin
            hi = params.left_boundary + (seg + 1) * d - margin
            inside.append(rng.uniform(lo, hi))
    return np.array(inside)


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(1001)
    h = 1e-5
    start = time.perf_counter()
    worst = 0.0

    def check(analytic, fd):
        nonlocal worst
        err = abs(analytic - fd)
        rel = err / max(abs(fd), 1e-30)
        ok = err <= 1e-7 or rel <= 1e-4
        worst = max(worst, min(rel, err * 1e3))
        assert ok, (analytic, fd)

    for _ in range(1000):
        p = random_params(rng)
        x = off_grid_points(p, rng, 3)
        up = rng.normal(size=x.shape)
        g = backward(x, up, p)

        def loss(pp):
            return float(np.sum(forward_reference(x, pp) * up))

        for field in ("left_boundary", "right_boundary", "left_slope", "right_slope"):
            orig = getattr(p, field)
            setattr(p, field, orig + h)
            f_up = loss(p)
            setattr(p, field, orig - h)
            f_dn = loss(p)
            setattr(p, field, orig)
            check(getattr(g, field), (f_up - f_dn) / (2 * h))
        for j in range(p.n_intervals + 1):
            orig = p.y_points[j]
            p.y_points[j] = orig + h
            f_up = loss(p)
            p.y_points[j] = orig - h
            f_dn = loss(p)
            p.y_points[j] = orig
            check(g.y_points[j], (f_up - f_dn) / (2 * h))
        # input gradient too
        gx = g.input_grad
        for i in range(x.size):
            xs = x.copy()
            xs[i] += h
            f_up = loss_x = float(np.sum(forward_reference(xs, p) * up))
            xs[i] -= 2 * h
            f_dn = float(np.sum(forward_reference(xs, p) * up))
            check(gx[i], (f_up - f_dn) / (2 * h))
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10.0,
           f"gradient oracle: 1000 configs, all partials within tolerance "
           f"(worst rel ~{worst:.2e}), {elapsed:.1f}s < 10s")


def scan_oracle(x, p):
    """Independent linear-scan interpolation over the segment table."""
    grid = p.left_boundary + np.arange(p.n_intervals + 1) * p.interval_len
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        if xi < p.left_boundary:
            out[i] = (xi - p.left_boundary) * p.left_slope + p.y_points[0]
        elif xi >= p.right_boundary:
            out[i] = (xi - p.right_boundary) * p.right_slope + p.y_points[-1]
        else:
            j = 0
            while j < p.n_intervals - 1 and xi >= grid[j + 1]:
                j += 1
            t = (xi - grid[j]) / p.interval_len
            out[i] = p.y_points[j] + t * (p.y_points[j + 1] - p.y_points[j])
    return out


def test_criterion_2_branch_oracle_equivalence():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        p = random_params(rng)
        span = p.right_boundary - p.left_boundary
        x = rng.uniform(p.left_boundary - span, p.right_boundary + span, size=100_000)
        a = forward_reference(x, p)
        b = scan_oracle(x, p)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        worst = max(worst, float(np.max(np.abs(a - b) / (scale * EPS))))
        assert np.all(np.abs(a - b) <= 4 * EPS * scale)
    elapsed = time.perf_counter() - start
    report(2, elapsed < 5.0,
           f"reference matches linear-scan oracle at 1e5 points x 5 configs "
           f"(worst {worst:.2f} eps <= 4 eps), {elapsed:.1f}s < 5s")


def test_criterion_3_fused_equivalence():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        p = random_params(rng)
        span = p.right_boundary - p.left_boundary
        grid = p.left_boundary + np.arange(p.n_intervals + 1) * p.interval_len
        x = np.concatenate([
            rng.uniform(p.left_boundary - span, p.right_boundary + span,
                        size=100_000 - grid.size),
            grid,  # both boundaries and every demarcation point
        ])
        table = build_fused(p)
        a = forward_reference(x, p)
        b = forward_fused(x, table)
        # error scale of the multiply-add itself: x*S and O can cancel, so
        # the output magnitude alone understates the attainable precision
        idx = np.clip(np.floor((x - table.left_boundary) * table.inv_interval_len),
                      -1, p.n_intervals).astype(np.int64) + 1
        operand = np.abs(x * table.slopes[idx]) + np.abs(table.offsets[idx])
        scale = np.maximum.reduce([np.abs(a), np.abs(b), operand, np.ones_like(a)])
        worst = max(worst, float(np.max(np.abs(a - b) / (scale * EPS))))
        assert np.all(np.abs(a - b) <= 8 * EPS * scale)
        # branch semantics at the boundaries themselves
        assert forward_reference(np.array([p.left_boundary]), p)[0] == p.y_points[0]
        assert forward_reference(np.array([p.right_boundary]), p)[0] == p.y_points[-1]
    elapsed = time.perf_counter() - start
    report(3, elapsed < 5.0,
           f"fused single multiply-add matches reference at 1e5 points incl. "
           f"demarcations (worst {worst:.2f} eps <= 8 eps), {elapsed:.1f}s < 5s")


def test_criterion_4_relu_exact_at_init():
    rng = np.random.default_rng(1004)
    x = rng.normal(0.0, 4.0, size=10_000)
    ok = True
    for n, hw in ((16, 3.0), (8, 2.0), (4, 3.0)):
        p = init_pwlu_relu(n, hw)
        ok = ok and np.array_equal(forward_reference(x, p), np.maximum(x, 0.0))
    report(4, ok, "initialization reproduces max(x,0) bitwise on 1e4 random doubles")


def test_criterion_5_realignment_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    layer = PwluActivation(n_channels=4, n_intervals=16, half_width=3.0,
                           frozen=True, collecting=True, seed=0)
    for _ in range(400):
        layer.forward(rng.normal(5.0, 1.0, size=(64, 4)), training=True)
    pre_ious, post_ious, bounds_ok = [], [], True
    for u in range(4):
        p05, p95 = (q[u] for q in layer.reservoir.percentile_interval())
        pre = layer.units[u]
        pre_ious.append(compute_iou((pre.left_boundary, pre.right_boundary), (p05, p95)))
        post = realign_reset(pre.n_intervals, layer.stats[u])
        post_ious.append(compute_iou((post.left_boundary, post.right_boundary), (p05, p95)))
        bounds_ok = bounds_ok and abs(post.left_boundary - 2.0) <= 0.2 \
            and abs(post.right_boundary - 8.0) <= 0.2
    elapsed = time.perf_counter() - start
    ok = (bounds_ok and max(pre_ious) < 0.2 and min(post_ious) >= 0.5
          and elapsed < 120.0)
    report(5, ok,
           f"realignment: boundaries -> [2 +/- 0.2, 8 +/- 0.2], interval overlap "
           f"{max(pre_ious):.3f} < 0.2 pre to {min(post_ious):.3f} >= 0.5 post, "
           f"{elapsed:.1f}s < 120s")


def _spiral_fixture(seed):
    train = gen_spirals(600, 0.02, seed)
    test = gen_spirals(600, 0.02, seed + 100_000)
    return standardize(train, test)


def _train_variant(variant, seed, epochs=60, widths=(2, 32, 32, 2)):
    train, test = _spiral_fixture(seed)
    rng = np.random.default_rng(seed)
    realign = variant == "stat-realign"
    kwargs = dict(n_intervals=16, granularity="channel", seed=seed)
    if variant == "relu":
        model = build_mlp(list(widths), "relu", rng)
    elif variant == "fix-init":
        model = build_mlp(list(widths), "pwlu", rng, half_width=10.0, **kwargs)
    else:
        model = build_mlp(list(widths), "pwlu", rng, half_width=3.0,
                          pwlu_frozen=True, pwlu_collecting=True, **kwargs)
    ipe = train.features.shape[0] // 64
    sched = TrainSchedule(total_iterations=epochs * ipe,
                          realign_iteration=5 * ipe if realign else 0,
                          base_lr=0.1, seed=seed)
    trainer = Trainer(model, sched, train.features, train.labels, batch_size=64,
                      test_features=test.features, test_labels=test.labels)
    trainer.run()
    return model.accuracy(test.features, test.labels)


def test_criterion_6_two_phase_benefit_direction():
    start = time.perf_counter()
    seeds = range(5)
    acc = {v: np.array([_train_variant(v, s) for s in seeds])
           for v in ("relu", "fix-init", "stat-realign")}
    means = {v: a.mean() for v, a in acc.items()}
    relu_std = acc["relu"].std()
    elapsed = time.perf_counter() - start
    ok = (means["stat-realign"] >= means["fix-init"]
          and means["fix-init"] >= means["relu"] - 0.005
          and means["stat-realign"] - means["relu"] >= relu_std
          and elapsed < 600.0)
    report(6, ok,
           f"5-seed means: stat-realign {means['stat-realign']:.4f} >= "
           f"fix-init {means['fix-init']:.4f} >= relu {means['relu']:.4f} - 0.005; "
           f"margin {means['stat-realign'] - means['relu']:.4f} >= relu seed std "
           f"{relu_std:.4f}; {elapsed:.0f}s < 600s")


def test_criterion_7_interval_count_sweep(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "sweep"
    code = main(["sweep-n", "--dataset", "spirals", "--n-per-class", "200",
                 "--noise", "0.02", "--arch", "2,16,2", "--epochs", "8",
                 "--t-prime-epochs", "2", "--batch-size", "64",
                 "--n-list", "4,8,12,16,20", "--out", str(out)])
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    finite = True
    for n in (4, 8, 12, 16, 20):
        metrics = (out / f"n{n}" / "metrics.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[2]) for r in metrics]
        finite = finite and np.all(np.isfinite(losses))
    elapsed = time.perf_counter() - start
    ok = (code == 0 and [r[0] for r in rows] == ["4", "8", "12", "16", "20"]
          and all(r[-1] == "ok" for r in rows) and finite and elapsed < 1800.0)
    report(7, ok,
           f"sweep over {{4,8,12,16,20}}: one row per count, all finite-loss, "
           f"{elapsed:.0f}s < 1800s")


def test_criterion_8_determinism_and_persistence(tmp_path):
    args = ["train", "--dataset", "spirals", "--n-per-class", "100",
            "--noise", "0.05", "--arch", "2,8,2", "--epochs", "6",
            "--t-prime-epochs", "2", "--n-intervals", "8",
            "--batch-size", "32", "--seed", "11"]
    main([*args, "--out", str(tmp_path / "a")])
    main([*args, "--out", str(tmp_path / "b")])
    metrics_same = ((tmp_path / "a" / "metrics.csv").read_bytes()
                    == (tmp_path / "b" / "metrics.csv").read_bytes())

    def make_trainer():
        train, test = _spiral_fixture(11)
        model = build_mlp([2, 8, 2], "pwlu", np.random.default_rng(11),
                          n_intervals=8, pwlu_frozen=True, pwlu_collecting=True,
                          seed=11)
        sched = TrainSchedule(total_iterations=60, realign_iteration=20,
                              base_lr=0.1, seed=11)
        return Trainer(model, sched, train.features, train.labels, batch_size=32,
                       test_features=test.features, test_labels=test.labels)

    straight = make_trainer()
    straight.run()
    ref = tmp_path / "straight.bin"
    save_checkpoint(ref, straight)

    resume_ok = True
    for pause in (1, 19, 20, 21, 45):
        part = make_trainer()
        while part.t < pause:
            part.step()
        mid = tmp_path / f"mid{pause}.bin"
        save_checkpoint(mid, part)
        resumed = load_checkpoint(mid, part.train_features, part.train_labels,
                                  part.test_features, part.test_labels)
        resumed.run()
        out = tmp_path / f"resumed{pause}.bin"
        save_checkpoint(out, resumed)
        resume_ok = resume_ok and out.read_bytes() == ref.read_bytes()

    ok = metrics_same and resume_ok
    report(8, ok,
           "same seed gives byte-identical metrics; resume at t in "
           "{1,19,20,21,45} reproduces the straight run bitwise")


def test_criterion_9_inference_ordering():
    rng = np.random.default_rng(1009)
    p = init_pwlu_relu(16, 3.0)
    x = rng.normal(0.0, 2.0, size=1_000_000)
    table = build_fused(p)
    forward_reference(x, p)
    forward_fused(x, table)

    def mean_ms(fn, reps=30):
        samples = np.empty(reps)
        for i in range(reps):
            t0 = time.perf_counter()
            fn()
            samples[i] = time.perf_counter() - t0
        return samples.mean() * 1e3

    ref_ms = mean_ms(lambda: forward_reference(x, p))
    fused_ms = mean_ms(lambda: forward_fused(x, table))
    ok = fused_ms <= ref_ms
    report(9, ok,
           f"fused mean {fused_ms:.2f} ms <= reference mean {ref_ms:.2f} ms "
           f"on 1e6-element batches")

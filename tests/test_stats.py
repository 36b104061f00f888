"""Running statistics, realignment reset, percentile and IOU diagnostics."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pwlu.errors import DegenerateParameterError, EmptyBatchError, InsufficientSamplesError
from pwlu.kernel import PwluParams, forward_reference, init_pwlu_relu
from pwlu.stats import (
    AlignmentReport,
    Reservoir,
    RunningStats,
    compute_iou,
    percentile_interval,
    realign_reset,
    update_stats,
)


class TestUpdateStats:
    def test_mean_blend(self):
        s = update_stats(RunningStats(mean=0.0, std=1.0), np.ones(8))
        assert s.mean == pytest.approx(0.1)
        assert s.update_count == 1

    def test_std_blend_constant_batch(self):
        s = update_stats(RunningStats(mean=0.0, std=1.0), np.full(8, 3.0))
        assert s.std == pytest.approx(0.9)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            update_stats(RunningStats(), np.array([]))

    def test_monte_carlo_convergence(self):
        rng = np.random.default_rng(123)
        s = RunningStats(mean=0.0, std=1.0)
        for _ in range(200):
            s = update_stats(s, rng.normal(5.0, 2.0, size=256))
        assert abs(s.mean - 5.0) < 0.1
        assert abs(s.std - 2.0) < 0.15

    def test_deterministic_sequence(self):
        rng = np.random.default_rng(0)
        batches = [rng.normal(size=16) for _ in range(10)]
        runs = []
        for _ in range(2):
            s = RunningStats()
            for b in batches:
                s = update_stats(s, b)
            runs.append((s.mean, s.std))
        assert runs[0] == runs[1]


class TestRealignReset:
    def test_three_sigma_boundaries(self):
        p = init_pwlu_relu(16, 3.0)
        out = realign_reset(p, RunningStats(mean=2.0, std=0.5, update_count=10))
        assert out.left_boundary == pytest.approx(0.5)
        assert out.right_boundary == pytest.approx(3.5)
        np.testing.assert_allclose(out.y_points, np.maximum(out.grid(), 0.0))
        assert out.left_slope == 0.0 and out.right_slope == 1.0

    def test_small_case(self):
        p = init_pwlu_relu(2, 1.0)
        out = realign_reset(p, RunningStats(mean=0.0, std=1.0, update_count=1))
        assert (out.left_boundary, out.right_boundary) == (-3.0, 3.0)
        np.testing.assert_allclose(out.y_points, [0.0, 0.0, 3.0])

    def test_relu_gap_bounded_by_quarter_interval(self):
        p = init_pwlu_relu(8, 1.0)
        out = realign_reset(p, RunningStats(mean=0.7, std=0.9, update_count=5))
        d = out.interval_len
        xs = np.linspace(out.left_boundary, out.right_boundary, 20_001)
        dev = np.abs(forward_reference(xs, out) - np.maximum(xs, 0.0))
        assert dev.max() <= d / 4 + 1e-12
        # deviation confined to the single interval containing zero
        grid = out.grid()
        j = int(np.searchsorted(grid, 0.0)) - 1
        outside = (xs < grid[j]) | (xs > grid[j + 1])
        assert np.all(dev[outside] <= 1e-12)

    def test_requires_updates(self):
        p = init_pwlu_relu(4, 1.0)
        with pytest.raises(EmptyBatchError):
            realign_reset(p, RunningStats())

    def test_dead_unit_fallback(self, caplog):
        p = init_pwlu_relu(4, 1.0)
        with caplog.at_level("WARNING"):
            out = realign_reset(p, RunningStats(mean=2.0, std=0.0, update_count=3))
        assert out.left_boundary == pytest.approx(1.5)
        assert out.right_boundary == pytest.approx(2.5)
        assert any("half-width" in r.message for r in caplog.records)

    def test_odd_n_rejected(self):
        # the reset builds its unit as init_pwlu_relu does, which needs an even N
        p = PwluParams(3, -1.0, 1.0, np.zeros(4), 0.0, 1.0)
        with pytest.raises(DegenerateParameterError):
            realign_reset(p, RunningStats(mean=0.0, std=1.0, update_count=1))

    def test_idempotent_under_frozen_stats(self):
        p = init_pwlu_relu(8, 3.0)
        s = RunningStats(mean=-1.2, std=0.8, update_count=7)
        once = realign_reset(p, s)
        twice = realign_reset(once, s)
        assert once.left_boundary == twice.left_boundary
        assert once.right_boundary == twice.right_boundary
        np.testing.assert_array_equal(once.y_points, twice.y_points)


class TestComputeIou:
    def test_partial_overlap(self):
        assert compute_iou((0.0, 2.0), (1.0, 3.0)) == pytest.approx(1.0 / 3.0)

    def test_identical(self):
        assert compute_iou((-1.0, 4.0), (-1.0, 4.0)) == 1.0

    def test_disjoint(self):
        assert compute_iou((0.0, 1.0), (2.0, 3.0)) == 0.0

    def test_zero_length_union(self):
        assert compute_iou((1.0, 1.0), (1.0, 1.0)) == 1.0
        assert compute_iou((1.0, 1.0), (2.0, 2.0)) == 0.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            compute_iou((2.0, 1.0), (0.0, 1.0))

    @settings(deadline=None, max_examples=100)
    @given(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    )
    def test_symmetry(self, a, b):
        a = (min(a), max(a))
        b = (min(b), max(b))
        assert compute_iou(a, b) == compute_iou(b, a)
        assert 0.0 <= compute_iou(a, b) <= 1.0


class TestPercentileInterval:
    def test_one_to_hundred(self):
        assert percentile_interval(np.arange(1, 101)) == (5.0, 95.0)

    def test_all_equal(self):
        lo, hi = percentile_interval(np.full(50, 2.5))
        assert lo == hi == 2.5

    def test_one_to_twenty(self):
        assert percentile_interval(np.arange(1, 21)) == (1.0, 19.0)

    def test_too_few(self):
        with pytest.raises(InsufficientSamplesError):
            percentile_interval(np.arange(10))


def algorithm_r(capacity, seed, batches):
    """Per-item algorithm R over S streams that share one generator.

    Each (S, n) batch is drawn stream after stream: what Reservoir.extend
    computes with one draw and one scatter.
    """
    buffer, rng = np.zeros((len(batches[0]), capacity)), np.random.default_rng(seed)
    seen = 0
    for batch in batches:
        for s, row in enumerate(batch):
            for i, value in enumerate(row):
                if seen + i < capacity:
                    buffer[s, seen + i] = value
                else:
                    slot = rng.integers(0, seen + i + 1)
                    if slot < capacity:
                        buffer[s, slot] = value
        seen += batch.shape[1]
    return buffer, seen, rng


class TestReservoir:
    def test_fills_then_bounds(self):
        r = Reservoir(capacity=100, seed=1)
        r.extend(np.arange(50))
        assert r.values().size == 50
        r.extend(np.arange(500))
        assert r.values().size == 100
        assert r.seen == 550

    def test_deterministic(self):
        a, b = Reservoir(capacity=64, seed=9), Reservoir(capacity=64, seed=9)
        data = np.random.default_rng(4).normal(size=1000)
        a.extend(data)
        b.extend(data[:500])
        b.extend(data[500:])
        np.testing.assert_array_equal(a.buffer, b.buffer)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 5), st.integers(1, 12),
           st.lists(st.integers(0, 40), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    @example(3, 2, [1, 40, 7], 0)  # fills, then draws many slots twice in one call
    def test_streams_match_per_item_algorithm_r(self, streams, capacity, sizes, seed):
        data = np.random.default_rng(seed).normal(size=(streams, sum(sizes)))
        batches = np.split(data, np.cumsum(sizes)[:-1], axis=1)
        res = Reservoir(capacity=capacity, seed=seed, streams=streams)
        for batch in batches:
            res.extend(batch)
        buffer, seen, rng = algorithm_r(capacity, seed, batches)
        np.testing.assert_array_equal(res.buffer, buffer)
        assert res.seen == seen
        assert res.rng.bit_generator.state == rng.bit_generator.state
        if streams == 1:  # a one-unit bank draws what a one-stream reservoir draws
            single = Reservoir(capacity=capacity, seed=seed)
            for batch in batches:
                single.extend(batch[0])
            np.testing.assert_array_equal(single.buffer, buffer[0])

    def test_roughly_uniform(self):
        r = Reservoir(capacity=2000, seed=7)
        r.extend(np.arange(20_000))
        # retained sample should cover the whole stream, not just its head
        assert np.median(r.values()) == pytest.approx(10_000, rel=0.15)


class TestRealignIouExpectation:
    def test_gaussian_alignment_after_reset(self):
        rng = np.random.default_rng(77)
        mu, sigma = 1.5, 2.0
        p = init_pwlu_relu(16, 3.0)
        s = RunningStats()
        r = Reservoir(seed=5)
        for _ in range(300):
            batch = rng.normal(mu, sigma, size=128)
            s = update_stats(s, batch)
            r.extend(batch)
        out = realign_reset(p, s)
        p05, p95 = r.percentile_interval()
        iou = compute_iou((out.left_boundary, out.right_boundary), (p05, p95))
        # exact-Gaussian value is 1.645/3 ~ 0.548
        assert iou == pytest.approx(1.645 / 3.0, abs=0.05)


def test_alignment_report_csv(tmp_path):
    from pwlu.stats import write_alignment_csv

    p = init_pwlu_relu(4, 2.0)
    rep = AlignmentReport.from_unit("pwlu0", 3, p, -1.0, 1.0)
    assert rep.iou == pytest.approx(0.5)
    path = tmp_path / "align.csv"
    write_alignment_csv([rep], path)
    text = path.read_text().splitlines()
    assert text[0] == "layer_name,unit_index,b_l,b_r,p05,p95,iou"
    assert text[1].startswith("pwlu0,3,")

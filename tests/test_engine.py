"""Engine tests: layer gradients, optimizer semantics, the two-phase trainer, checkpoints."""

import hashlib
import json
import logging
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pwlu.checkpoint import load_checkpoint, load_model, save_checkpoint
from pwlu.data import gen_spirals, standardize
from pwlu.errors import (
    CheckpointError,
    DegenerateParameterError,
    NonFiniteLossError,
    PwluError,
    ShapeMismatchError,
)
from pwlu.kernel import (PwluParams, build_fused, forward_fused, forward_reference,
                         fused_table, init_pwlu_relu, interval_index, segment_table)
from pwlu.kernel import backward as kernel_backward
from pwlu.layers import (
    Dense,
    PwluActivation,
    Swish,
    bank_views,
    build_mlp,
    softmax_xent_backward,
    softmax_xent_forward,
)
from pwlu.optim import TrainSchedule, sgd_momentum_step
from pwlu.stats import (DEAD_STD_THRESHOLD, RESERVOIR_CAPACITY, Reservoir, RunningStats,
                        realign_reset, update_stats)
from pwlu.trainer import Trainer


def pwlu_checksum(model):
    h = hashlib.sha256()
    for layer in model.pwlu_layers():
        for p in layer.units:
            h.update(np.array([p.left_boundary, p.right_boundary,
                               p.left_slope, p.right_slope]).tobytes())
            h.update(p.y_points.tobytes())
    return h.hexdigest()


class TestLayers:
    def test_dense_identity(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 4, rng)
        layer.weight = np.eye(4)
        layer.bias = np.zeros(4)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_dense_forward_has_the_bits_of_matmul_plus_bias(self):
        rng = np.random.default_rng(3)
        layer = Dense(7, 5, rng)
        layer.bias = rng.normal(size=5)
        x = rng.normal(size=(9, 7))
        assert np.array_equal(layer.forward(x), x @ layer.weight + layer.bias)

    def test_dense_backward_without_input_grad(self):
        rng = np.random.default_rng(4)
        layer = Dense(6, 3, rng)
        x, g = rng.normal(size=(8, 6)), rng.normal(size=(8, 3))
        layer.forward(x)
        assert layer.backward(g).shape == x.shape
        g_weight, g_bias = layer.g_weight, layer.g_bias
        assert layer.backward(g, input_grad=False) is None
        assert np.array_equal(layer.g_weight, g_weight)
        assert np.array_equal(layer.g_bias, g_bias)

    @pytest.mark.parametrize("activation", ["relu", "pwlu"])
    def test_loss_and_backward_skips_only_the_first_input_gradient(self, monkeypatch,
                                                                   activation):
        rng = np.random.default_rng(6)
        model = build_mlp([5, 8, 8, 3], activation, rng, n_intervals=4)
        x, labels = rng.normal(size=(12, 5)), rng.integers(0, 3, size=12)
        seen = []
        for layer in model.layers:
            def spy(grad, input_grad=True, layer=layer, backward=layer.backward):
                out = backward(grad, input_grad=input_grad)
                seen.append((layer.name, input_grad, out is None))
                return out
            monkeypatch.setattr(layer, "backward", spy)
        model.loss_and_backward(x, labels)
        first = model.layers[0].name
        assert seen == [(l.name, l.name != first, l.name == first)
                        for l in reversed(model.layers)]
        got = [[getattr(l, f"g_{p}") for p in l.params] for l in model.layers]

        # A full backward with every input gradient, from the softmax gradient as grad / n.
        _, probs = softmax_xent_forward(model.forward(x, training=True), labels)
        grad = probs.copy()
        grad[np.arange(12), labels] -= 1.0
        grad = grad / 12
        assert np.array_equal(softmax_xent_backward(probs, labels), grad)
        for layer in reversed(model.layers):
            grad = layer.backward(grad, input_grad=True)
        want = [[getattr(l, f"g_{p}") for p in l.params] for l in model.layers]
        assert all(g is not None for grads in want for g in grads)
        for g, w in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(g, w))

    def test_softmax_xent_uniform(self):
        loss, _ = softmax_xent_forward(np.zeros((3, 7)), np.array([0, 3, 6]))
        assert loss == pytest.approx(np.log(7))

    def test_dense_finite_difference_grads(self):
        rng = np.random.default_rng(1)
        layer = Dense(5, 3, rng)
        x = rng.normal(size=(4, 5))
        labels = np.array([0, 1, 2, 1])

        def loss_of(w):
            saved = layer.weight
            layer.weight = w
            out = layer.forward(x)
            value, _ = softmax_xent_forward(out, labels)
            layer.weight = saved
            return value

        out = layer.forward(x)
        loss, probs = softmax_xent_forward(out, labels)
        from pwlu.layers import softmax_xent_backward

        layer.backward(softmax_xent_backward(probs, labels))
        h = 1e-6
        for i in range(5):
            for j in range(3):
                w_up = layer.weight.copy()
                w_dn = layer.weight.copy()
                w_up[i, j] += h
                w_dn[i, j] -= h
                fd = (loss_of(w_up) - loss_of(w_dn)) / (2 * h)
                assert abs(layer.g_weight[i, j] - fd) <= 1e-4 * max(1e-3, abs(fd))

    def test_dense_shape_mismatch(self):
        layer = Dense(5, 3, np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            layer.forward(np.zeros((2, 4)))

    def test_swish_gradient(self):
        layer = Swish()
        x = np.linspace(-3, 3, 31).reshape(1, -1)
        layer.forward(x)
        g = layer.backward(np.ones_like(x))
        h = 1e-6
        fd = (layer.forward(x + h) - layer.forward(x - h)) / (2 * h)
        np.testing.assert_allclose(g, fd, atol=1e-8)


# Finite float64 values, drawn often at the signed zeros, subnormals and +-1e300.
SGD_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300)
_edge_grid = np.array(np.meshgrid(SGD_EDGES, SGD_EDGES, SGD_EDGES)).reshape(3, -1)


@st.composite
def sgd_cases(draw):
    """(param, grad, velocity, lr, momentum): three same-shape finite float64 arrays."""
    shape = draw(hnp.array_shapes(max_dims=2, max_side=6))
    value = st.sampled_from(SGD_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
    param, grad, velocity = (draw(hnp.arrays(np.float64, shape, elements=value))
                             for _ in range(3))
    lr = draw(st.sampled_from((0.0, 0.1)) | st.floats(0.0, 10.0))
    momentum = draw(st.sampled_from((0.0, 0.9)) | st.floats(0.0, 1.0))
    return param, grad, velocity, lr, momentum


def old_sgd_step(param, grad, velocity, lr, momentum, weight_decay):
    """The full formula, decay term always formed, on copies of the arrays."""
    velocity = velocity * momentum
    velocity += grad
    return param - lr * (velocity + weight_decay * param), velocity


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSgdStep:
    @settings(deadline=None, max_examples=200)
    @given(sgd_cases(), st.sampled_from((0.0, 1e-4)) | st.floats(1e-12, 1.0))
    @example((*_edge_grid, 0.1, 0.9), 0.0)  # every combination of edge values
    @example((*_edge_grid, 0.0, 0.0), 0.0)
    def test_bits_of_the_formula_with_the_decay_term(self, case, weight_decay):
        param, grad, velocity, lr, momentum = case
        # Large finite values may overflow to inf, and lr = 0 times inf is NaN, on both sides.
        with np.errstate(over="ignore", invalid="ignore"):
            want_param, want_velocity = old_sgd_step(param, grad, velocity, lr, momentum,
                                                     weight_decay)
            param, velocity = param.copy(), velocity.copy()
            sgd_momentum_step(param, grad, velocity, lr, momentum, weight_decay)
        assert same_bits(param, want_param)
        assert same_bits(velocity, want_velocity)

    def test_plain_step(self):
        p = np.array([0.0])
        v = np.zeros(1)
        sgd_momentum_step(p, np.array([1.0]), v, lr=1.0, momentum=0.0, weight_decay=0.0)
        assert p[0] == -1.0

    def test_two_momentum_steps(self):
        p = np.array([0.0])
        v = np.zeros(1)
        for _ in range(2):
            sgd_momentum_step(p, np.array([1.0]), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p[0] == pytest.approx(-0.29)

    def test_frozen_pwlu_layer_unchanged(self):
        layer = PwluActivation(n_channels=3, n_intervals=4, half_width=2.0, frozen=True)
        x = np.random.default_rng(0).normal(size=(16, 3))
        layer.forward(x, training=True)
        layer.backward(np.ones_like(x))
        before = layer.units
        layer.step(lr=0.5, momentum=0.9, weight_decay=0.1)
        for b, a in zip(before, layer.units):
            assert b.left_boundary == a.left_boundary
            np.testing.assert_array_equal(b.y_points, a.y_points)


@st.composite
def banks(draw):
    """A PWLU bank with random unit parameters and inputs that hit every edge case.

    Each unit's column holds its grid points (boundaries included), +-inf,
    and random values around its interval; NaNs sit in a separate row.  A
    channel bank sometimes gets a (B, C, H, W) input, one unit per feature map.
    """
    granularity = draw(st.sampled_from(["channel", "layer"]))
    channels = draw(st.integers(1, 6))
    n = 2 * draw(st.integers(1, 8))
    layer = PwluActivation(channels, n_intervals=n, granularity=granularity)
    floats = st.floats(-4.0, 4.0)
    for u in range(layer.n_units):
        b_l = draw(floats)
        b_r = b_l + draw(st.floats(0.01, 8.0))
        layer.b_l[u], layer.b_r[u] = b_l, b_r
        layer.y[u] = draw(st.lists(floats, min_size=n + 1, max_size=n + 1))
        layer.k_l[u], layer.k_r[u] = draw(floats), draw(floats)
    values = []
    for p in layer.units:
        extra = draw(st.lists(st.floats(p.left_boundary - 2.0, p.right_boundary + 2.0),
                              min_size=1, max_size=8))
        values.append(np.concatenate([p.grid(), [p.right_boundary, np.inf, -np.inf], extra]))
    rows = max(v.size for v in values)
    x = np.stack([np.resize(v, rows) for v in values], axis=1)
    if granularity == "layer":
        x = np.resize(x.ravel(), (rows, channels))
    elif draw(st.booleans()):
        h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        batch = -(-rows // (h * w))
        x = np.moveaxis(np.resize(x, (batch, h, w, channels)), -1, 1)
    seed = draw(st.integers(0, 2**32 - 1))
    return layer, x, seed


class TestPwluBank:
    @staticmethod
    def unit_inputs(layer, x):
        """(unit index, params, that unit's inputs as one flat column)."""
        return [(u, p, x.ravel() if layer.granularity == "layer" else x[:, u].ravel())
                for u, p in enumerate(layer.units)]

    @settings(deadline=None, max_examples=60)
    @given(banks())
    @np.errstate(over="ignore", invalid="ignore")  # bank and oracle meet +-inf and NaN
    def test_forward_matches_single_unit_oracle(self, bank):
        layer, x, _ = bank
        out = layer.forward(x)
        out_cols = self.unit_inputs(layer, out)
        for (u, p, xu), (_, _, got) in zip(self.unit_inputs(layer, x), out_cols):
            np.testing.assert_array_equal(got, forward_reference(xu, p))
        nan_row = np.full((1, x.shape[1]), np.nan)
        nan_out = layer.forward(nan_row)
        assert np.isnan(nan_out).all()
        for (u, p, xu), (_, _, got) in zip(self.unit_inputs(layer, nan_row),
                                           self.unit_inputs(layer, nan_out)):
            np.testing.assert_array_equal(got, forward_reference(xu, p))

    @settings(deadline=None, max_examples=60)
    @given(banks())
    @np.errstate(over="ignore", invalid="ignore")  # bank and oracle meet +-inf
    def test_gradients_match_single_unit_oracle(self, bank):
        layer, x, seed = bank
        up = np.random.default_rng(seed).normal(size=x.shape)
        layer.forward(x)
        grad_in = layer.backward(up)
        up_cols = self.unit_inputs(layer, up)
        grad_cols = self.unit_inputs(layer, grad_in)
        for (u, p, xu), (_, _, upu), (_, _, giu) in zip(self.unit_inputs(layer, x),
                                                       up_cols, grad_cols):
            want = kernel_backward(xu, upu, p)
            np.testing.assert_array_equal(giu, want.input_grad)
            # per-unit sums run in another order; bound the error by the term sizes
            finite = np.isfinite(xu)
            scale = np.sum(np.abs(upu)) * (1.0 + np.max(np.abs(xu[finite]), initial=0.0))
            scale *= 1.0 + np.max(np.abs(np.concatenate(
                [np.diff(p.y_points) / p.interval_len, [p.left_slope, p.right_slope]])))
            tol = dict(rtol=1e-12, atol=1e-12 * scale)
            g_b_l, g_b_r, g_k_l, g_k_r, g_y = bank_views(layer.g_theta)
            np.testing.assert_allclose(g_b_l[u], want.left_boundary, **tol)
            np.testing.assert_allclose(g_b_r[u], want.right_boundary, **tol)
            np.testing.assert_allclose(g_k_l[u], want.left_slope, **tol)
            np.testing.assert_allclose(g_k_r[u], want.right_slope, **tol)
            np.testing.assert_allclose(g_y[u], want.y_points, **tol)

    @settings(deadline=None, max_examples=60)
    @given(banks())
    @np.errstate(over="ignore", invalid="ignore")  # +-inf meets zero outer slopes
    def test_infer_matches_per_unit_fused(self, bank):
        layer, x, _ = bank
        nan_row = np.full((1, x.shape[1]), np.nan)
        for xs in (x, nan_row):
            want = layer.forward(xs)
            kept = layer._cache
            out = layer.infer(xs)
            assert layer._cache is kept
            for (u, p, xu), (_, _, got) in zip(self.unit_inputs(layer, xs),
                                               self.unit_inputs(layer, out)):
                np.testing.assert_array_equal(got, forward_fused(xu, build_fused(p)))
            # the three-branch forward's values: equal where x is not finite,
            # within 8 eps of the multiply-add's operands elsewhere
            finite = np.isfinite(xs)
            np.testing.assert_array_equal(out[~finite], want[~finite])
            edges, slopes, heights = segment_table(layer.b_l, layer.b_r, layer.y,
                                                   layer.k_l, layer.k_r)
            scale = 1.0 + np.abs(xs[finite]) * np.abs(slopes).max() \
                + np.abs(edges * slopes).max() + np.abs(heights).max()
            assert np.all(np.abs(out[finite] - want[finite]) <= 8 * np.finfo(float).eps * scale)

    @settings(deadline=None, max_examples=60)
    @given(banks())
    @np.errstate(over="ignore", invalid="ignore")  # +-inf and NaN inputs
    def test_frozen_bank_computes_only_the_input_gradient(self, bank):
        layer, x, seed = bank
        x = np.concatenate([x, np.full((1,) + x.shape[1:], np.nan)])
        up = np.random.default_rng(seed).normal(size=x.shape)
        layer.forward(x)
        trained_in = layer.backward(up)
        trained = {p: getattr(layer, f"g_{p}") for p in layer.params}
        layer.frozen = True
        layer.forward(x)
        frozen_in = layer.backward(up)
        np.testing.assert_array_equal(frozen_in.view(np.uint64), trained_in.view(np.uint64))
        assert all(getattr(layer, f"g_{p}") is None for p in layer.params)
        layer.frozen = False
        layer.forward(x)
        layer.backward(up)
        for p, want in trained.items():
            np.testing.assert_array_equal(getattr(layer, f"g_{p}"), want)

    @settings(deadline=None, max_examples=30)
    @given(banks())
    @np.errstate(over="ignore", invalid="ignore")  # +-inf inputs
    def test_gradients_do_not_depend_on_memory_layout(self, bank):
        layer, x, seed = bank
        up = np.random.default_rng(seed).normal(size=x.shape)
        got = []
        for xs, ups in ((np.ascontiguousarray(x), np.ascontiguousarray(up)),
                        (np.asfortranarray(x), np.asfortranarray(up))):
            layer.forward(xs)
            got.append([layer.backward(ups)] + [getattr(layer, f"g_{p}") for p in layer.params])
        for a, b in zip(*got):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @settings(deadline=None, max_examples=60)
    @given(banks(), st.data())
    def test_realign_matches_per_unit_reset(self, bank, data):
        layer, _, _ = bank
        # std 0, tiny stds on both sides of the dead-unit threshold, and ordinary ones
        std = st.one_of(st.sampled_from([0.0, 1e-300, 5e-9, 1e-8, 2e-8]), st.floats(0.0, 5.0))
        means = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=layer.n_units,
                                   max_size=layer.n_units))
        stds = data.draw(st.lists(std, min_size=layer.n_units, max_size=layer.n_units))
        layer.running_stats = RunningStats(np.array(means), np.array(stds), update_count=1)
        layer.frozen = True
        warnings = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = warnings.append
        logging.getLogger("pwlu.stats").addHandler(handler)
        try:
            layer.realign()
        finally:
            logging.getLogger("pwlu.stats").removeHandler(handler)
        assert not layer.frozen
        assert len(warnings) == (1 if min(stds) < DEAD_STD_THRESHOLD else 0)
        bits = lambda v: np.asarray(v, dtype=np.float64).view(np.uint64)
        for u, stats in enumerate(layer.stats):
            want = realign_reset(layer.n_intervals, stats)
            for got, field in ((layer.b_l, "left_boundary"), (layer.b_r, "right_boundary"),
                               (layer.k_l, "left_slope"), (layer.k_r, "right_slope"),
                               (layer.y, "y_points")):
                np.testing.assert_array_equal(bits(got[u]), bits(getattr(want, field)))

    @settings(deadline=None, max_examples=60)
    @given(banks())
    def test_segments_match_per_unit_rule(self, bank):
        layer, x, _ = bank
        n = layer.n_intervals
        xc = layer._to_columns(np.concatenate([x, np.full((1,) + x.shape[1:], np.nan)]))
        seg, left, right = layer._segments(xc)
        for u, p in enumerate(layer.units):
            col = xc[:, u]
            want_left, want_right = col < p.left_boundary, col >= p.right_boundary
            want = np.where(want_left, 0, np.where(want_right, n + 1, interval_index(col, p) + 1))
            np.testing.assert_array_equal(left[:, u], want_left)
            np.testing.assert_array_equal(right[:, u], want_right)
            np.testing.assert_array_equal(seg[:, u], want + u * (n + 2))

    @pytest.mark.parametrize("frozen", [False, True], ids=["trained", "frozen"])
    def test_forward_and_backward_build_one_segment_table(self, monkeypatch, frozen):
        calls = []

        def counted(*args):
            calls.append(args)
            return segment_table(*args)

        monkeypatch.setattr("pwlu.layers.segment_table", counted)
        layer = PwluActivation(4, n_intervals=4, frozen=frozen)
        x = np.linspace(-4.0, 4.0, 20).reshape(5, 4)
        layer.forward(x, training=True)
        layer.backward(np.ones_like(x))
        assert len(calls) == 1

    def test_trained_step_is_one_optimizer_call(self, monkeypatch):
        layer = PwluActivation(4, n_intervals=4)
        layer.forward(np.linspace(-4.0, 4.0, 20).reshape(5, 4))
        layer.backward(np.ones((5, 4)))
        calls = []

        def counted(param, *args):
            calls.append(param)
            sgd_momentum_step(param, *args)

        monkeypatch.setattr("pwlu.layers.sgd_momentum_step", counted)
        layer.step(0.1, 0.9, 0.0)
        assert len(calls) == 1 and calls[0] is layer.theta

    @staticmethod
    def trained_bank(name="bank"):
        """A 4-unit bank after one unfrozen forward and backward."""
        layer = PwluActivation(4, n_intervals=4, name=name)
        x = np.linspace(-4.0, 4.0, 20).reshape(5, 4)
        layer.forward(x)
        layer.backward(np.ones_like(x))
        return layer

    # Each corrupts unit u: through its gradient, or (finite boundaries whose
    # width overflows to inf) by setting the boundaries the step leaves as they are.
    @pytest.mark.parametrize("corrupt", [
        lambda layer, u: bank_views(layer.g_theta)[4].__setitem__((u, 1), np.nan),
        lambda layer, u: bank_views(layer.g_theta)[3].__setitem__(u, -np.inf),
        lambda layer, u: layer.theta[:2].__setitem__((slice(None), u), (-1e308, 1e308)),
    ], ids=["nan_height", "infinite_outer_slope", "infinite_width"])
    def test_step_names_the_first_bad_unit(self, corrupt):
        layer = self.trained_bank(name="act1")
        for u in (2, 3):
            corrupt(layer, u)
        with np.errstate(over="ignore"), \
                pytest.raises(DegenerateParameterError, match=r"^act1: unit 2: "):
            layer.step(0.1, 0.9, 0.0)

    def test_healthy_step_builds_no_params(self, monkeypatch):
        layer = self.trained_bank()
        built = []
        post_init = PwluParams.__post_init__

        def counted(params):
            built.append(params)
            post_init(params)

        monkeypatch.setattr(PwluParams, "__post_init__", counted)
        before = layer.theta.copy()
        layer.step(0.1, 0.9, 0.0)
        assert not np.array_equal(layer.theta, before)
        assert built == []

    @pytest.mark.parametrize("granularity,channels", [("layer", 3), ("channel", 5)])
    def test_outer_slope_partials_add_in_element_order(self, granularity, channels):
        layer = PwluActivation(channels, n_intervals=4, granularity=granularity)
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 3.0, size=(40, channels))
        if granularity == "channel":
            x[:, -1] = rng.uniform(-2.9, 2.9, 40)  # a unit with no outer elements
        up = rng.normal(size=x.shape)
        layer.forward(x)
        layer.backward(up)
        _, _, g_k_l, g_k_r, _ = bank_views(layer.g_theta)
        bits = lambda v: np.float64(v).view(np.uint64)

        def fold(xs, ups, edge, outer):
            total = 0.0
            for xi, ui in zip(xs.tolist(), ups.tolist()):
                if outer(xi):
                    total += (xi - edge) * ui
            return total

        for u in range(layer.n_units):
            xs, ups = (x.ravel(), up.ravel()) if granularity == "layer" else (x[:, u], up[:, u])
            b_l, b_r = float(layer.b_l[u]), float(layer.b_r[u])
            assert bits(g_k_l[u]) == bits(fold(xs, ups, b_l, lambda v: v < b_l))
            assert bits(g_k_r[u]) == bits(fold(xs, ups, b_r, lambda v: v >= b_r))
        if granularity == "channel":
            assert bits(g_k_l[-1]) == bits(g_k_r[-1]) == bits(0.0)

    def test_empty_batch_backward_gives_zero_gradients(self):
        layer = PwluActivation(3, 4)
        layer.forward(np.zeros((0, 3)))
        grad_in = layer.backward(np.zeros((0, 3)))
        assert grad_in.shape == (0, 3)
        for p in layer.params:
            g = getattr(layer, f"g_{p}")
            assert g.dtype == np.float64 and g.shape == getattr(layer, p).shape
            assert not g.any()

    @pytest.mark.parametrize("method", ["forward", "infer"])
    def test_wrong_channel_count_rejected(self, method):
        layer = PwluActivation(3, n_intervals=4)
        with pytest.raises(ShapeMismatchError):
            getattr(layer, method)(np.zeros((5, 4)))

    @settings(deadline=None, max_examples=30)
    @given(banks())
    def test_units_read_only(self, bank):
        layer, _, _ = bank
        with pytest.raises(TypeError):
            layer.units[0] = layer.units[0]
        layer.units[0].y_points[:] = 99.0  # a snapshot, not a view of the bank
        assert not np.any(layer.y[0] == 99.0)

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from(["channel", "layer"]), st.integers(1, 5),
           st.lists(st.integers(1, 3000), min_size=1, max_size=4), st.integers(0, 1000))
    @example("channel", 3, [3000, 2000, 64], 7)  # fills the reservoirs, then replaces
    @example("layer", 2, [1500, 1500], 3)
    def test_collection_matches_per_unit_stats_and_reservoirs(self, granularity, channels,
                                                              sizes, seed):
        layer = PwluActivation(channels, n_intervals=4, granularity=granularity,
                               frozen=True, collecting=True, seed=seed)
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(rows, channels)) for rows in sizes]
        samples = Reservoir(seed=seed * 100003, streams=layer.n_units)
        for x in xs:
            layer.forward(x, training=True)
            samples.extend(x.reshape(1, -1) if granularity == "layer" else x.T)
        for u, got in enumerate(layer.stats):
            want = RunningStats()
            for x in xs:
                column = x.ravel() if granularity == "layer" else x[:, u]
                want = update_stats(want, column)
            assert (got.mean, got.std, got.update_count) \
                == (want.mean, want.std, want.update_count)
        # the bank feeds one row per unit; test_stats checks the sampling itself
        np.testing.assert_array_equal(layer.reservoir.buffer, samples.buffer)
        assert layer.reservoir.seen == samples.seen

    def test_collects_four_d_input_per_channel(self):
        rng = np.random.default_rng(5)
        layer = PwluActivation(3, n_intervals=4, frozen=True, collecting=True, seed=2)
        xs = [rng.normal(size=(4, 3, 5, 6)) for _ in range(2)]  # (B, C, H, W)
        for x in xs:
            assert layer.forward(x, training=True).shape == x.shape
        for u, got in enumerate(layer.stats):
            want = RunningStats()
            for x in xs:
                want = update_stats(want, x[:, u].ravel())
            assert (got.mean, got.std, got.update_count) \
                == (want.mean, want.std, want.update_count)
            np.testing.assert_array_equal(layer.reservoir.values()[u],
                                          np.concatenate([x[:, u].ravel() for x in xs]))


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(total_iterations=10, realign_iteration=10, base_lr=0.1)
        with pytest.raises(ValueError):
            TrainSchedule(total_iterations=10, realign_iteration=-1, base_lr=0.1)

    def test_cosine_curve(self):
        s = TrainSchedule(total_iterations=100, realign_iteration=0, base_lr=1.0)
        warm = 5
        assert s.lr_at(0) == pytest.approx(1.0 / warm)
        assert s.lr_at(warm) == pytest.approx(1.0)
        assert s.lr_at(99) < 0.01
        # deterministic function of t
        assert s.lr_at(37) == s.lr_at(37)


class TestInitPwluRelu:
    def test_grid_values(self):
        p = init_pwlu_relu(4, 2.0)
        np.testing.assert_array_equal(p.y_points, [0, 0, 0, 1, 2])

    def test_exact_relu(self):
        rng = np.random.default_rng(5)
        p = init_pwlu_relu(8, 2.0)
        xs = rng.normal(0, 5, size=10_000)
        np.testing.assert_array_equal(forward_reference(xs, p), np.maximum(xs, 0.0))

    def test_default_n16(self):
        p = init_pwlu_relu(16, 3.0)
        assert p.y_points.size == 17
        np.testing.assert_array_equal(p.y_points[:9], 0.0)

    def test_odd_n_rejected(self):
        with pytest.raises(DegenerateParameterError):
            init_pwlu_relu(3, 1.0)


def tiny_problem(seed=0, n=120):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    labels = (x[:, 0] * x[:, 1] > 0).astype(np.int64)
    return x, labels


class TestTwoPhaseTraining:
    def test_phase_one_immutability(self):
        x, labels = tiny_problem()
        model = build_mlp([2, 8, 2], "pwlu", np.random.default_rng(0),
                          n_intervals=4, pwlu_frozen=True, pwlu_collecting=True)
        sched = TrainSchedule(total_iterations=40, realign_iteration=20, base_lr=0.1, seed=0)
        trainer = Trainer(model, sched, x, labels, batch_size=16)
        checksum = pwlu_checksum(model)
        for _ in range(20):
            trainer.step()
            if trainer.t <= 20:
                assert pwlu_checksum(model) == checksum or trainer.t == 20

    def test_first_step_after_realign_trains_the_units(self):
        x, labels = tiny_problem(seed=5)
        model = build_mlp([2, 8, 2], "pwlu", np.random.default_rng(4),
                          n_intervals=4, pwlu_frozen=True, pwlu_collecting=True)
        sched = TrainSchedule(total_iterations=20, realign_iteration=10, base_lr=0.1, seed=4)
        trainer = Trainer(model, sched, x, labels, batch_size=16)
        layer = model.pwlu_layers()[0]
        while trainer.t < sched.realign_iteration:
            trainer.step()
        assert layer.frozen and layer.g_theta is None
        realign, realigned = trainer.realign_now, []

        def realign_and_keep():
            realign()
            realigned.append({p: getattr(layer, p).copy() for p in ("y", "b_l", "b_r")})

        trainer.realign_now = realign_and_keep
        trainer.step()  # realigns, then takes the first trained step
        assert len(realigned) == 1
        for p, before in realigned[0].items():
            assert not np.array_equal(getattr(layer, p), before), p

    def test_failed_realign_leaves_every_layer_untouched(self):
        x, labels = tiny_problem(seed=6)
        model = build_mlp([2, 4, 2], "pwlu", np.random.default_rng(6),
                          n_intervals=4, pwlu_frozen=True, pwlu_collecting=True)
        sched = TrainSchedule(total_iterations=20, realign_iteration=10, base_lr=0.1, seed=6)
        trainer = Trainer(model, sched, x, labels, batch_size=16)
        while trainer.t < sched.realign_iteration:
            trainer.step()
        layer = model.pwlu_layers()[0]
        mean = layer.running_stats.mean.copy()
        mean[1] = np.nan  # unit 0 is valid, so a per-unit loop would reset it first
        layer.running_stats = RunningStats(mean, layer.running_stats.std,
                                           layer.running_stats.update_count)
        before = {p: getattr(layer, p).copy() for p in layer.params}
        samples, seen = layer.reservoir.buffer.copy(), layer.reservoir.seen
        with pytest.raises(DegenerateParameterError):
            trainer.realign_now()
        for p, want in before.items():
            np.testing.assert_array_equal(getattr(layer, p), want)
        assert layer.frozen and layer.collecting
        np.testing.assert_array_equal(layer.reservoir.buffer, samples)
        assert layer.reservoir.seen == seen

    def test_realign_targets_input_distribution(self):
        # one frozen PWLU bank fed N(5,1) while boundaries start at [-3,3]
        rng = np.random.default_rng(0)
        layer = PwluActivation(n_channels=2, n_intervals=16, half_width=3.0,
                               frozen=True, collecting=True, seed=0)
        from pwlu.stats import compute_iou, realign_reset

        for _ in range(300):
            layer.forward(rng.normal(5.0, 1.0, size=(64, 2)), training=True)
        for u in range(2):
            pre = layer.units[u]
            p05, p95 = (q[u] for q in layer.reservoir.percentile_interval())
            pre_iou = compute_iou((pre.left_boundary, pre.right_boundary), (p05, p95))
            post = realign_reset(pre.n_intervals, layer.stats[u])
            post_iou = compute_iou((post.left_boundary, post.right_boundary), (p05, p95))
            assert abs(post.left_boundary - 2.0) < 0.2
            assert abs(post.right_boundary - 8.0) < 0.2
            assert pre_iou < 0.2 < 0.5 <= post_iou

    def test_zero_lr_yields_post_reset_relu_form(self):
        x, labels = tiny_problem(seed=2)
        model = build_mlp([2, 4, 2], "pwlu", np.random.default_rng(1),
                          n_intervals=4, pwlu_frozen=True, pwlu_collecting=True)
        sched = TrainSchedule(total_iterations=30, realign_iteration=15, base_lr=0.0, seed=1)
        trainer = Trainer(model, sched, x, labels, batch_size=16)
        trainer.run()
        for layer in model.pwlu_layers():
            for u, p in enumerate(layer.units):
                from pwlu.stats import realign_reset

                want = realign_reset(init_pwlu_relu(4, 3.0).n_intervals, layer.stats[u])
                assert p.left_boundary == want.left_boundary
                assert p.right_boundary == want.right_boundary
                np.testing.assert_array_equal(p.y_points, want.y_points)

    def test_disabled_realign_trains_from_fixed_boundaries(self):
        x, labels = tiny_problem(seed=3)
        model = build_mlp([2, 4, 2], "pwlu", np.random.default_rng(2), n_intervals=4)
        sched = TrainSchedule(total_iterations=10, realign_iteration=0, base_lr=0.2, seed=2)
        trainer = Trainer(model, sched, x, labels, batch_size=16)
        before = pwlu_checksum(model)
        trainer.run()
        assert not trainer.pre_reports and not trainer.post_reports
        assert pwlu_checksum(model) != before  # gradients applied from iteration 0

    @pytest.mark.parametrize("activation,widths,first_bad", [("relu", [2, 4, 2], "dense1"),
                                                             ("pwlu", [2, 8, 8, 2], "pwlu0")],
                             ids=["relu", "pwlu"])
    def test_nonfinite_loss_names_layer(self, activation, widths, first_bad):
        x, labels = tiny_problem(seed=4)
        model = build_mlp(widths, activation, np.random.default_rng(3))
        model.layers[0].weight *= 1e200
        sched = TrainSchedule(total_iterations=5, realign_iteration=0, base_lr=0.1, seed=3)
        trainer = Trainer(model, sched, x, labels, batch_size=16)
        with pytest.raises(NonFiniteLossError) as err, \
                np.errstate(over="ignore", invalid="ignore"):  # the diverged weights
            trainer.run()
        assert err.value.layer_name == first_bad

    def test_determinism(self):
        x, labels = tiny_problem(seed=5)

        def run_once():
            model = build_mlp([2, 6, 2], "pwlu", np.random.default_rng(7),
                              n_intervals=4, pwlu_frozen=True, pwlu_collecting=True)
            sched = TrainSchedule(total_iterations=30, realign_iteration=10,
                                  base_lr=0.1, seed=7)
            Trainer(model, sched, x, labels, batch_size=16).run()
            return pwlu_checksum(model)

        assert run_once() == run_once()


class TestInference:
    def test_predict_matches_forward_argmax(self):
        train, test = standardize(gen_spirals(600, 0.02, 0), gen_spirals(600, 0.02, 100_000))
        model = build_mlp([2, 32, 32, 2], "pwlu", np.random.default_rng(0),
                          pwlu_frozen=True, pwlu_collecting=True)
        ipe = train.features.shape[0] // 64
        sched = TrainSchedule(total_iterations=12 * ipe, realign_iteration=2 * ipe,
                              base_lr=0.1, seed=0)
        Trainer(model, sched, train.features, train.labels, batch_size=64).run()
        assert test.features.shape == (1200, 2)
        kept = [layer._cache for layer in model.pwlu_layers()]
        got = model.predict(test.features)
        # the fused path leaves the training forward's cache alone
        assert all(layer._cache is cache for layer, cache in zip(model.pwlu_layers(), kept))
        np.testing.assert_array_equal(got, model.forward(test.features).argmax(axis=1))


class TestBankTables:
    """The bank keeps its segment and fused tables per parameter write, never stale ones."""

    # (op, frozen): the frozen forward, and infer on a frozen and on a trained bank
    OPS = [("forward", True), ("infer", True), ("infer", False)]
    OP_IDS = ["frozen-forward", "frozen-infer", "trained-infer"]

    # In place through each view of theta.  The last turns the +0.0 height y[1, 0]
    # into -0.0, which == does not see; left of b_l > 0 with k_l = 0 the output does.
    WRITES = {
        "b_l": lambda layer: layer.b_l.__setitem__(1, 0.25),
        "b_r": lambda layer: layer.b_r.__setitem__(2, 5.0),
        "k_l": lambda layer: layer.k_l.__setitem__(0, 0.5),
        "k_r": lambda layer: layer.k_r.__setitem__(3, 2.0),
        "y": lambda layer: layer.y.__setitem__((1, 3), 0.5),
        "theta": lambda layer: layer.theta.__imul__(1.5),
        "signed_zero": lambda layer: layer.y.__setitem__((1, 0), -0.0),
    }

    @staticmethod
    def bank(frozen):
        """A collecting 4-unit bank on [0.5, 4.5], and inputs on both sides of it."""
        layer = PwluActivation(4, n_intervals=4, half_width=2.0, frozen=frozen, collecting=True)
        layer.b_l[:], layer.b_r[:] = 0.5, 4.5
        assert not np.signbit(layer.y[1, 0]) and layer.k_l[1] == 0.0
        return layer, np.linspace(-1.0, 6.0, 40).reshape(10, 4)

    @staticmethod
    def assert_fresh(layer, op, x):
        """layer's op on x, checked bit for bit against a new bank given the same theta."""
        fresh = PwluActivation(layer.n_channels, n_intervals=layer.n_intervals,
                               granularity=layer.granularity, frozen=layer.frozen)
        fresh.theta[:] = layer.theta
        got = getattr(layer, op)(x)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      getattr(fresh, op)(x).view(np.uint64))
        return got.copy()

    @pytest.mark.parametrize("op, frozen", OPS, ids=OP_IDS)
    @pytest.mark.parametrize("write", WRITES.values(), ids=WRITES.keys())
    def test_write_through_a_view_is_seen(self, op, frozen, write):
        layer, x = self.bank(frozen)
        before = self.assert_fresh(layer, op, x)
        write(layer)
        after = self.assert_fresh(layer, op, x)
        assert not np.array_equal(after.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("op, frozen", OPS, ids=OP_IDS)
    def test_realign_and_trained_step_are_seen(self, op, frozen):
        layer, x = self.bank(frozen=True)
        layer.forward(x, training=True)  # statistics for realign
        layer.frozen = frozen
        before = self.assert_fresh(layer, op, x)
        layer.realign()
        layer.frozen = frozen
        realigned = self.assert_fresh(layer, op, x)
        layer.frozen = False
        layer.forward(x)
        layer.backward(np.ones_like(x))
        layer.step(0.1, 0.9, 0.0)
        layer.frozen = frozen
        stepped = self.assert_fresh(layer, op, x)
        for a, b in ((before, realigned), (realigned, stepped)):
            assert not np.array_equal(a, b)

    @pytest.mark.parametrize("op, frozen", OPS, ids=OP_IDS)
    def test_loaded_model_is_seen(self, tmp_path, op, frozen):
        train = gen_spirals(60, 0.05, 1)
        model = build_mlp([2, 6, 2], "pwlu", np.random.default_rng(0), n_intervals=4,
                          pwlu_frozen=True, pwlu_collecting=True)
        sched = TrainSchedule(total_iterations=30, realign_iteration=10, base_lr=0.1, seed=0)
        trainer = Trainer(model, sched, train.features, train.labels, batch_size=16)
        trainer.run()
        save_checkpoint(tmp_path / "m.bin", trainer)
        layer = load_model(tmp_path / "m.bin").pwlu_layers()[0]
        layer.frozen = frozen
        x = np.random.default_rng(3).normal(size=(12, 6)) * 2.0
        before = self.assert_fresh(layer, op, x)
        np.testing.assert_array_equal(before, getattr(model.layers[1], op)(x))
        layer.theta *= 1.5
        assert not np.array_equal(self.assert_fresh(layer, op, x), before)

    def test_tables_are_built_once_per_write(self, monkeypatch):
        built = []
        for name, build in (("segment_table", segment_table), ("fused_table", fused_table)):
            def counted(*args, name=name, build=build):
                built.append(name)
                return build(*args)
            monkeypatch.setattr(f"pwlu.layers.{name}", counted)
        layer, x = self.bank(frozen=True)
        for _ in range(5):
            layer.forward(x)
        assert built == ["segment_table"]
        for _ in range(5):
            layer.infer(x)
        assert built == ["segment_table", "fused_table"]
        layer.frozen = False  # a trained forward runs after a step: it builds its own
        for _ in range(5):
            layer.forward(x)
        assert built == ["segment_table", "fused_table"] + ["segment_table"] * 5


class TestEndToEndGradients:
    def test_pwlu_network_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        model = build_mlp([2, 16, 16, 2], "pwlu", rng, n_intervals=4, half_width=2.0)
        x = rng.normal(size=(8, 2)) * 0.37 + 0.013  # keep off grid points
        labels = rng.integers(0, 2, size=8)

        def loss_value():
            logits = model.forward(x)
            value, _ = softmax_xent_forward(logits, labels)
            return value

        model.loss_and_backward(x, labels)
        h = 1e-5
        checked = 0
        for layer in model.pwlu_layers():
            grads = dict(zip(("b_l", "b_r", "k_l", "k_r", "y"), bank_views(layer.g_theta)))
            for u in range(min(3, layer.n_units)):
                for field in ("b_l", "b_r", "k_l", "k_r"):
                    values = getattr(layer, field)
                    orig = values[u]
                    values[u] = orig + h
                    up = loss_value()
                    values[u] = orig - h
                    dn = loss_value()
                    values[u] = orig
                    fd = (up - dn) / (2 * h)
                    analytic = grads[field][u]
                    assert abs(analytic - fd) <= max(1e-3 * abs(fd), 1e-6), (field, analytic, fd)
                    checked += 1
                for j in range(layer.n_intervals + 1):
                    orig = layer.y[u, j]
                    layer.y[u, j] = orig + h
                    up = loss_value()
                    layer.y[u, j] = orig - h
                    dn = loss_value()
                    layer.y[u, j] = orig
                    fd = (up - dn) / (2 * h)
                    analytic = grads["y"][u, j]
                    assert abs(analytic - fd) <= max(1e-3 * abs(fd), 1e-6), (j, analytic, fd)
                    checked += 1
        assert checked > 20


class TestCheckpoint:
    def make_trainer(self, seed=0, total=40, realign=15, batch_size=16, activation="pwlu"):
        train = gen_spirals(60, 0.05, 1)
        test = gen_spirals(60, 0.05, 2)
        train, test = standardize(train, test)
        model = build_mlp([2, 6, 2], activation, np.random.default_rng(seed), n_intervals=4,
                          pwlu_frozen=realign > 0, pwlu_collecting=realign > 0, seed=seed)
        sched = TrainSchedule(total_iterations=total, realign_iteration=realign,
                              base_lr=0.1, seed=seed)
        return Trainer(model, sched, train.features, train.labels, batch_size=batch_size,
                       test_features=test.features, test_labels=test.labels)

    @pytest.mark.parametrize("pause_at", [10, 20])  # before and after realignment at 15
    def test_save_load_save_roundtrip(self, tmp_path, pause_at):
        trainer = self.make_trainer()
        for _ in range(pause_at):
            trainer.step()
        if pause_at > 15:
            # the reservoir samples are freed once the reports are made
            for layer in trainer.model.pwlu_layers():
                assert not layer.collecting
                assert layer.reservoir.buffer.shape == (layer.n_units, 0)
            assert len(trainer.post_reports) == sum(
                layer.n_units for layer in trainer.model.pwlu_layers())
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(p1, trainer)
        loaded = load_checkpoint(p1, trainer.train_features, trainer.train_labels,
                                 trainer.test_features, trainer.test_labels)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("pause_at", [7, 15, 23])
    def test_resume_matches_straight_run(self, tmp_path, pause_at):
        straight = self.make_trainer()
        straight.run()

        part = self.make_trainer()
        while part.t < pause_at:
            part.step()
        path = tmp_path / "mid.bin"
        save_checkpoint(path, part)
        resumed = load_checkpoint(path, part.train_features, part.train_labels,
                                  part.test_features, part.test_labels)
        resumed.run()

        assert pwlu_checksum(resumed.model) == pwlu_checksum(straight.model)
        for la, lb in zip(resumed.model.layers, straight.model.layers):
            if hasattr(la, "weight"):
                np.testing.assert_array_equal(la.weight, lb.weight)
                np.testing.assert_array_equal(la.bias, lb.bias)
        assert resumed.metrics == straight.metrics

    def test_resume_while_reservoirs_replace(self, tmp_path):
        # 256 samples per unit and step: full (4096) after 16 steps, realigned at 24
        def make():
            return self.make_trainer(total=30, realign=24, batch_size=256)

        def run_to(trainer, t):
            while trainer.t < t:
                trainer.step()

        straight, part = make(), make()
        run_to(part, 20)
        assert all(layer.reservoir.seen > layer.reservoir.capacity
                   for layer in part.model.pwlu_layers())
        path = tmp_path / "mid.bin"
        save_checkpoint(path, part)
        resumed = load_checkpoint(path, part.train_features, part.train_labels,
                                  part.test_features, part.test_labels)
        for trainer in (straight, resumed):
            run_to(trainer, 24)  # the last collecting step
        for la, lb in zip(resumed.model.pwlu_layers(), straight.model.pwlu_layers()):
            np.testing.assert_array_equal(la.reservoir.buffer, lb.reservoir.buffer)
            assert la.reservoir.seen == lb.reservoir.seen == 24 * 256
            assert la.reservoir.rng.bit_generator.state == lb.reservoir.rng.bit_generator.state
        resumed.run()
        straight.run()
        assert resumed.pre_reports and resumed.pre_reports == straight.pre_reports
        assert resumed.post_reports == straight.post_reports
        assert pwlu_checksum(resumed.model) == pwlu_checksum(straight.model)
        assert resumed.metrics == straight.metrics

    @pytest.mark.parametrize("activation", ["relu", "swish", "pwlu"])
    def test_every_layer_type_round_trips(self, tmp_path, activation):
        realign = 15 if activation == "pwlu" else 0
        trainer = self.make_trainer(realign=realign, activation=activation)
        for _ in range(20):
            trainer.step()
        path = tmp_path / "c.bin"
        save_checkpoint(path, trainer)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        assert [meta["type"] for meta in header["layers"]] == ["dense", activation, "dense"]
        loaded, x = load_model(path), trainer.test_features
        assert [type(la) for la in loaded.layers] == [type(la) for la in trainer.model.layers]
        np.testing.assert_array_equal(loaded.forward(x), trainer.model.forward(x))
        np.testing.assert_array_equal(loaded.predict(x), trainer.model.predict(x))

    def test_trailing_bytes_rejected(self, tmp_path):
        trainer = self.make_trainer()
        path = tmp_path / "c.bin"
        save_checkpoint(path, trainer)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_model(path)

    @pytest.mark.parametrize("where,field,value", [
        ("bank", "reservoir_seen", "3"),
        ("bank", "reservoir_seen", -5),
        ("bank", "reservoir_seen", 3.5),
        ("bank", "stats_count", "3"),
        ("bank", "stats_count", True),
        ("bank", "frozen", "no"),
        ("bank", "collecting", 1),
        ("bank", "n_intervals", 4.0),
        ("trainer", "t", "3"),
        ("trainer", "t", -3),
        ("trainer", "epoch_loss_count", "3"),
        ("trainer", "epoch_loss_sum", "0.5"),
        ("trainer", "batch_size", 0),
        ("schedule", "base_lr", "0.1"),
        ("schedule", "momentum", "0.9"),
        ("schedule", "weight_decay", None),
        ("schedule", "warmup_frac", "0.05"),
        ("schedule", "realign_iteration", 10.5),
        ("schedule", "total_iterations", 30.5),
        ("schedule", "seed", True),
        ("trainer", "metrics", "x"),
        pytest.param("trainer", "metrics", [1], id="trainer-metrics-list_of_int"),
        ("bank", "reservoir_rng", "v2_list"),  # one state per unit, as v2 stored
        ("dense", "in_dim", 0),
        ("dense", "out_dim", True),
        ("bank", "granularity", 3),
    ])
    def test_header_fields_checked(self, tmp_path, where, field, value):
        # a corrupt header scalar fails on load, naming the field, not at a later step
        trainer = self.make_trainer()
        for _ in range(5):
            trainer.step()
        path = tmp_path / "c.bin"
        save_checkpoint(path, trainer)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        record = header
        if where == "bank":
            record = next(meta for meta in header["layers"] if meta["type"] == "pwlu")
        elif where == "dense":
            record = next(meta for meta in header["layers"] if meta["type"] == "dense")
        elif where == "schedule":
            record = header["schedule"]
        if value == "v2_list":
            value = [record[field]] * record["n_channels"]
        record[field] = value
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:])
        # the generator's state setter rejects a list; the loader reports it as corrupt
        match = "corrupt" if field == "reservoir_rng" else field
        with pytest.raises(CheckpointError, match=match):
            if where in ("bank", "dense"):
                load_model(path)
            else:
                load_checkpoint(path, trainer.train_features, trainer.train_labels)

    def test_bank_fields_stay_views_of_theta(self, tmp_path):
        def assert_views(layer):
            # writing a field through its attribute must write that part of theta
            saved = layer.theta.copy()
            names = ("b_l", "b_r", "k_l", "k_r", "y")
            for i, (name, want) in enumerate(zip(names, bank_views(layer.theta))):
                field = getattr(layer, name)
                field[...] = np.arange(field.size).reshape(field.shape) + 100.0 * i
                np.testing.assert_array_equal(want, field, err_msg=name)
            layer.theta[...] = saved

        layer = PwluActivation(3, n_intervals=4, frozen=True, collecting=True)
        assert_views(layer)
        x = np.random.default_rng(0).normal(size=(16, 3))
        layer.forward(x, training=True)
        layer.realign()
        assert_views(layer)
        layer.forward(x)
        layer.backward(np.ones_like(x))
        layer.step(0.1, 0.9, 0.0)
        assert_views(layer)

        trainer = self.make_trainer()
        for _ in range(20):  # past realignment at 15
            trainer.step()
        path = tmp_path / "c.bin"
        save_checkpoint(path, trainer)
        assert_views(load_model(path).pwlu_layers()[0])
        loaded = load_checkpoint(path, trainer.train_features, trainer.train_labels)
        assert_views(loaded.model.pwlu_layers()[0])

    def test_collecting_follows_the_reservoir(self, tmp_path):
        path = tmp_path / "c.bin"

        def saved_reservoir_shape():
            raw = path.read_bytes()
            (hlen,) = struct.unpack("<I", raw[8:12])
            bank = next(meta for meta in json.loads(raw[12:12 + hlen])["layers"]
                        if meta["type"] == "pwlu")
            return tuple(dict(bank["arrays"])["reservoir"])

        idle = self.make_trainer(realign=0)
        layer = idle.model.pwlu_layers()[0]
        assert not layer.collecting
        with pytest.raises(AttributeError):
            layer.collecting = True  # read from the reservoir, never set
        save_checkpoint(path, idle)
        assert saved_reservoir_shape() == (layer.n_units, 0)

        # 256 samples per unit and step: the reservoirs replace from step 16, realigned at 24
        trainer = self.make_trainer(total=30, realign=24, batch_size=256)
        layer = trainer.model.pwlu_layers()[0]
        fresh = layer.reservoir.rng.bit_generator.state
        while trainer.t < 20:
            trainer.step()
        save_checkpoint(path, trainer)
        loaded = load_model(path).pwlu_layers()[0]
        assert loaded.collecting
        assert loaded.reservoir.buffer.shape == (layer.n_units, RESERVOIR_CAPACITY)
        np.testing.assert_array_equal(loaded.reservoir.buffer, layer.reservoir.buffer)

        while trainer.t < 24:
            trainer.step()
        state = layer.reservoir.rng.bit_generator.state
        assert state != fresh  # slots were drawn
        trainer.step()  # realigns, then trains
        assert not layer.collecting and not layer.frozen
        assert layer.reservoir.buffer.shape == (layer.n_units, 0)
        assert layer.reservoir.rng.bit_generator.state == state
        save_checkpoint(path, trainer)
        assert saved_reservoir_shape() == (layer.n_units, 0)
        assert load_model(path).pwlu_layers()[0].reservoir.rng.bit_generator.state == state

    @pytest.mark.parametrize("corrupt", [
        lambda layer: layer.b_r.__setitem__(0, layer.b_l[0]),
        lambda layer: layer.y.__setitem__((0, 1), np.nan),
    ], ids=["collapsed_interval", "nan_height"])
    def test_bad_bank_parameters_rejected(self, tmp_path, corrupt):
        # the array tail is outside input too: the loader checks what it sets
        trainer = self.make_trainer()
        corrupt(trainer.model.pwlu_layers()[0])
        path = tmp_path / "c.bin"
        save_checkpoint(path, trainer)
        with pytest.raises(DegenerateParameterError):
            load_model(path)

    def test_fuzzed_checkpoints_never_crash_raw(self, tmp_path):
        # truncated or corrupted files must fail with the package's own error types
        trainer = self.make_trainer()
        for _ in range(20):
            trainer.step()
        path = tmp_path / "c.bin"
        save_checkpoint(path, trainer)
        good = path.read_bytes()
        (hlen,) = struct.unpack("<I", good[8:12])
        rng = np.random.default_rng(13)
        cuts = [0, 7, 8, 11, 12, 13, 12 + hlen - 1, 12 + hlen, len(good) - 1]
        cuts += rng.integers(0, len(good), 40).tolist()
        corrupted = [good[:cut] for cut in cuts]
        for _ in range(150):
            raw = bytearray(good)
            k = int(rng.integers(8, 12 + hlen))
            raw[k] = int(rng.integers(0, 256))
            corrupted.append(bytes(raw))
        for raw in corrupted:
            path.write_bytes(raw)
            try:
                load_checkpoint(path, trainer.train_features, trainer.train_labels)
            except PwluError:
                pass

    def test_load_model_only(self, tmp_path):
        trainer = self.make_trainer()
        trainer.run()
        path = tmp_path / "m.bin"
        save_checkpoint(path, trainer)
        model = load_model(path)
        x = trainer.test_features
        np.testing.assert_array_equal(model.forward(x), trainer.model.forward(x))

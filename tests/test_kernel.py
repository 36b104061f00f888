"""Kernel tests: forward branches, analytic gradients vs finite differences, fused path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwlu.errors import DegenerateParameterError, ShapeMismatchError
from pwlu.kernel import (
    BLOCK_ELEMS,
    PwluParams,
    backward,
    build_fused,
    forward_fused,
    fused_table,
    forward_reference,
    init_pwlu_relu,
    interval_index,
)

EPS = np.finfo(np.float64).eps


def make_params(n, b_l, b_r, y, k_l, k_r):
    return PwluParams(n, b_l, b_r, np.asarray(y, dtype=np.float64), k_l, k_r)


# Fixed hand case used across several tests: a V shape on [-1, 1].
V_PARAMS = dict(n=2, b_l=-1.0, b_r=1.0, y=[1.0, -1.0, 1.0], k_l=-2.0, k_r=2.0)


def v_params():
    return make_params(**V_PARAMS)


def random_params(rng, n=None):
    n = n or int(rng.choice([2, 4, 8, 16]))
    b_l = rng.uniform(-3.0, -0.5)
    b_r = rng.uniform(0.5, 3.0)
    return make_params(n, b_l, b_r, rng.normal(size=n + 1), rng.normal(), rng.normal())


def oracle_forward(x, params):
    """Independent evaluation: np.interp over the grid inside the boundaries,
    explicit outer lines outside.  Shares no code with forward_reference."""
    x = np.asarray(x, dtype=np.float64)
    grid = params.grid()
    out = np.interp(x, grid, params.y_points)
    left = x < params.left_boundary
    right = x >= params.right_boundary
    out[left] = (x[left] - params.left_boundary) * params.left_slope + params.y_points[0]
    out[right] = (x[right] - params.right_boundary) * params.right_slope + params.y_points[-1]
    return out


def scan_forward_scalar(x, params):
    """Naive per-branch linear scan over the intervals."""
    grid = params.grid()
    if x < params.left_boundary:
        return (x - params.left_boundary) * params.left_slope + params.y_points[0]
    if x >= params.right_boundary:
        return (x - params.right_boundary) * params.right_slope + params.y_points[-1]
    for j in range(params.n_intervals):
        if grid[j] <= x < grid[j + 1] or j == params.n_intervals - 1:
            k = (params.y_points[j + 1] - params.y_points[j]) / params.interval_len
            return (x - grid[j]) * k + params.y_points[j]
    raise AssertionError("unreachable")


class TestIntervalIndex:
    def test_hand_case(self):
        p = make_params(4, -2.0, 2.0, np.zeros(5), 0.0, 1.0)
        assert interval_index(0.5, p) == 2

    def test_left_boundary_is_zero(self):
        p = make_params(4, -2.0, 2.0, np.zeros(5), 0.0, 1.0)
        assert interval_index(-2.0, p) == 0

    def test_just_below_right_boundary(self):
        p = make_params(4, -2.0, 2.0, np.zeros(5), 0.0, 1.0)
        x = 2.0 - 1e-12
        idx = int(interval_index(x, p))
        # brute-force scan over the four intervals
        grid = p.grid()
        expected = max(j for j in range(4) if grid[j] <= x)
        assert idx == expected == 3

    def test_clamped_at_rounding(self):
        p = make_params(3, -1.0, 1.0, np.zeros(4), 0.0, 1.0)
        x = np.nextafter(1.0, 0.0)
        assert int(interval_index(x, p)) <= 2


class TestForwardReference:
    def test_relu_init_values(self):
        p = init_pwlu_relu(4, 2.0)
        np.testing.assert_array_equal(p.y_points, [0, 0, 0, 1, 2])
        out = forward_reference(np.array([0.5, -5.0, 3.0]), p)
        np.testing.assert_array_equal(out, [0.5, 0.0, 3.0])

    def test_v_shape_interior(self):
        assert forward_reference(np.array([0.5]), v_params())[0] == pytest.approx(0.0)

    def test_v_shape_left_region(self):
        assert forward_reference(np.array([-5.0]), v_params())[0] == pytest.approx(9.0)

    def test_rejects_nonfinite_params(self):
        with pytest.raises(DegenerateParameterError):
            make_params(2, -1.0, 1.0, [np.nan, 0.0, 1.0], 0.0, 1.0)
        with pytest.raises(DegenerateParameterError):
            make_params(2, 1.0, 1.0, [0.0, 0.0, 0.0], 0.0, 1.0)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_params(rng)
            xs = rng.uniform(p.left_boundary - 2, p.right_boundary + 2, size=50)
            got = forward_reference(xs, p)
            want = [scan_forward_scalar(x, p) for x in xs]
            np.testing.assert_allclose(got, want, rtol=4 * EPS, atol=4 * EPS)

    def test_matches_interp_oracle_bulk(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_params(rng)
            xs = rng.uniform(p.left_boundary - 2, p.right_boundary + 2, size=10_000)
            got = forward_reference(xs, p)
            want = oracle_forward(xs, p)
            scale = np.maximum(np.abs(got), np.abs(want))
            assert np.all(np.abs(got - want) <= 4 * EPS * np.maximum(scale, 1.0))


class TestBackward:
    def test_v_shape_interior_partials(self):
        g = backward(np.array([0.5]), np.array([1.0]), v_params())
        assert g.input_grad[0] == pytest.approx(2.0)
        np.testing.assert_allclose(g.y_points, [0.0, 0.5, 0.5])
        assert g.left_boundary == pytest.approx(-0.5)
        # K_idx*(B_L - x)/(B_R - B_L) = 2*(-1.5)/2; finite differences agree.
        assert g.right_boundary == pytest.approx(-1.5)

    def test_nan_input(self):
        g = backward(np.array([np.nan, 0.5]), np.ones(2), v_params())
        assert np.isnan(g.left_boundary) and np.isnan(g.y_points[:2]).all()

    def test_left_region_rows(self):
        p = v_params()
        g = backward(np.array([-3.0]), np.array([1.0]), p)
        assert g.y_points[0] == 1.0
        assert g.right_slope == 0.0
        assert g.right_boundary == 0.0
        assert g.left_slope == pytest.approx(-2.0)

    def test_zero_upstream(self):
        p = v_params()
        g = backward(np.array([0.5, -3.0, 4.0]), np.zeros(3), p)
        assert np.all(g.input_grad == 0)
        assert np.all(g.y_points == 0)
        assert g.left_boundary == g.right_boundary == 0.0
        assert g.left_slope == g.right_slope == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            backward(np.zeros(3), np.zeros(4), v_params())

    def test_linearity_in_upstream(self):
        rng = np.random.default_rng(3)
        p = random_params(rng)
        x = rng.uniform(p.left_boundary - 1, p.right_boundary + 1, size=40)
        u1, u2 = rng.normal(size=40), rng.normal(size=40)
        g1 = backward(x, u1, p)
        g2 = backward(x, u2, p)
        g12 = backward(x, u1 + u2, p)
        np.testing.assert_allclose(g12.y_points, g1.y_points + g2.y_points, atol=1e-12)
        np.testing.assert_allclose(g12.input_grad, g1.input_grad + g2.input_grad, atol=1e-12)
        assert g12.left_boundary == pytest.approx(g1.left_boundary + g2.left_boundary)
        assert g12.right_slope == pytest.approx(g1.right_slope + g2.right_slope)

    def test_batch_accumulation_is_sum(self):
        p = v_params()
        x = np.array([0.5, 0.5])
        g2 = backward(x, np.ones(2), p)
        g1 = backward(x[:1], np.ones(1), p)
        np.testing.assert_allclose(g2.y_points, 2 * g1.y_points)


def fd_partials(x, params):
    """Central finite differences of forward_reference w.r.t. every trainable scalar."""
    h = 1e-5

    def f(p):
        return forward_reference(np.array([x]), p)[0]

    out = {}
    base = dict(
        n_intervals=params.n_intervals,
        left_boundary=params.left_boundary,
        right_boundary=params.right_boundary,
        y_points=params.y_points.copy(),
        left_slope=params.left_slope,
        right_slope=params.right_slope,
    )
    for field in ("left_boundary", "right_boundary", "left_slope", "right_slope"):
        up = dict(base, **{field: base[field] + h})
        dn = dict(base, **{field: base[field] - h})
        out[field] = (f(PwluParams(**up)) - f(PwluParams(**dn))) / (2 * h)
    out["y_points"] = np.zeros_like(params.y_points)
    for j in range(params.n_intervals + 1):
        yu, yd = base["y_points"].copy(), base["y_points"].copy()
        yu[j] += h
        yd[j] -= h
        out["y_points"][j] = (
            f(PwluParams(**dict(base, y_points=yu))) - f(PwluParams(**dict(base, y_points=yd)))
        ) / (2 * h)
    return out


def assert_close_fd(analytic, numeric):
    err = abs(analytic - numeric)
    assert err <= 1e-7 or err <= 1e-4 * abs(numeric), (analytic, numeric)


class TestGradientFiniteDifferences:
    def test_random_configurations(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_params(rng)
            d = p.interval_len
            margin = max(1e-3 * d, 1e-4)
            while True:
                x = rng.uniform(p.left_boundary - 2, p.right_boundary + 2)
                dist = np.min(np.abs(x - p.grid()))
                if dist > margin:
                    break
            g = backward(np.array([x]), np.array([1.0]), p)
            fd = fd_partials(x, p)
            assert_close_fd(g.left_boundary, fd["left_boundary"])
            assert_close_fd(g.right_boundary, fd["right_boundary"])
            assert_close_fd(g.left_slope, fd["left_slope"])
            assert_close_fd(g.right_slope, fd["right_slope"])
            for j in range(p.n_intervals + 1):
                assert_close_fd(g.y_points[j], fd["y_points"][j])


class TestFused:
    def test_v_shape_table(self):
        t = build_fused(v_params())
        np.testing.assert_array_equal(t.slopes, [-2, -2, 2, 2])
        np.testing.assert_array_equal(t.offsets, [-1, -1, -1, -1])

    def test_relu_init_fused_is_relu(self):
        rng = np.random.default_rng(0)
        t = build_fused(init_pwlu_relu(4, 2.0))
        xs = rng.normal(0, 3, size=1000)
        np.testing.assert_array_equal(forward_fused(xs, t), np.maximum(xs, 0.0))

    def test_identity_init_table(self):
        n = 4
        grid = np.linspace(-2, 2, n + 1)
        p = make_params(n, -2.0, 2.0, grid, 1.0, 1.0)
        t = build_fused(p)
        np.testing.assert_allclose(t.slopes, 1.0)
        np.testing.assert_allclose(t.offsets, 0.0, atol=1e-15)

    def test_left_region_value(self):
        t = build_fused(v_params())
        assert forward_fused(np.array([-5.0]), t)[0] == pytest.approx(9.0)

    def test_right_boundary_exact(self):
        p = v_params()
        t = build_fused(p)
        assert forward_fused(np.array([p.right_boundary]), t)[0] == p.y_points[-1]

    def test_random_equivalence(self):
        rng = np.random.default_rng(5)
        p = random_params(rng)
        d = p.interval_len
        xs = rng.uniform(p.left_boundary - 5 * d, p.right_boundary + 5 * d, size=100_000)
        t = build_fused(p)
        a = forward_reference(xs, p)
        b = forward_fused(xs, t)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        assert np.max(np.abs(a - b) / scale) <= 8 * EPS

    def test_nan_gives_nan(self):
        for dtype in (np.float64, np.float32):
            out = forward_fused(np.array([np.nan, 0.5]), build_fused(v_params(), dtype=dtype))
            assert np.isnan(out[0]) and out[1] == 0.0

    def test_single_precision_table(self):
        p = v_params()
        t32 = build_fused(p, dtype=np.float32)
        xs = np.linspace(-3, 3, 100)
        np.testing.assert_allclose(
            forward_fused(xs, t32), forward_reference(xs, p), rtol=1e-5, atol=1e-5
        )

    def test_degenerate_rejected(self):
        p = v_params()
        p.right_boundary = p.left_boundary
        with pytest.raises(DegenerateParameterError):
            build_fused(p)


def single_pass_fused(x, table):
    """forward_fused as one pass over the whole array, floor before clamp: the
    oracle whose bits the blocked evaluation must keep."""
    x = np.asarray(x, dtype=table.slopes.dtype)
    n = table.n_intervals
    raw = np.asarray(x - table.left_boundary)
    np.multiply(raw, table.inv_interval_len, out=raw)
    np.floor(raw, out=raw)
    np.fmax(raw, -1, out=raw)
    np.fmin(raw, n, out=raw)
    start = (n + 2) * np.arange(table.slopes.size // (n + 2)).reshape(table.slopes.shape[:-1])
    idx = raw.astype(np.int64)
    idx += start + 1
    out = table.slopes.take(idx, mode="clip")
    out *= x
    out += table.offsets.take(idx, out=raw, mode="clip")
    return out


def assert_same_bits(got, want):
    """Same type (a scalar stays a scalar), dtype, shape and bytes."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


# Values that take the clamp's edges: NaN, the infinities, and finite values
# whose index overflows int64 unless clamped first.
SPECIALS = [np.nan, np.inf, -np.inf, 1e308, -1e308]


def row_counts(units):
    """Row counts around the blocks of `units` columns, with rows = BLOCK_ELEMS // units:
    1, rows - 1, rows, rows + 1, the last count split into one block and the first
    into two (1.5 blocks' worth of elements, rounded), and 3 rows + 7, three
    blocks whose last is short."""
    rows, two = BLOCK_ELEMS // units, -(-3 * BLOCK_ELEMS // (2 * units))
    return st.sampled_from([1, rows - 1, rows, rows + 1, two - 1, two, 3 * rows + 7])


@st.composite
def fused_inputs(draw, shape, table_dtype, bank):
    """x of `shape` and a random table, of one unit (scalar parameters) or, with
    `bank`, of shape[-1] units: x normal around the intervals, with SPECIALS
    put at drawn places."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 16]))
    u = shape[-1:] if bank else ()
    b_l = rng.normal(size=u)
    b_r = b_l + rng.uniform(0.1, 4.0, size=u)
    k_l, k_r = rng.normal(size=u), rng.normal(size=u)
    if draw(st.booleans()):  # a zero outer slope: 0 * inf is NaN on both paths
        k_l = k_l * 0.0
    table = fused_table(b_l, b_r, rng.normal(size=u + (n + 1,)), k_l, k_r, table_dtype)
    x = rng.normal(scale=3.0, size=shape)
    if x.size:
        at = draw(st.lists(st.integers(0, x.size - 1), max_size=12))
        x.reshape(-1)[at] = [SPECIALS[i % len(SPECIALS)] for i in range(len(at))]
        if draw(st.booleans()):  # the last row holds them all: the short block's
            x.reshape(-1)[-min(x.size, 5):] = SPECIALS[:min(x.size, 5)]
    x_dtype = draw(st.sampled_from([np.float64, np.float32]))
    with np.errstate(over="ignore"):
        return x.astype(x_dtype), table


def assert_blocked_is_single_pass(x, table):
    with np.errstate(all="ignore"):  # 1e308 overflows; 0 * inf is invalid
        got = forward_fused(x, table)  # first: its empty blocks hold none of the oracle's bits
        want = single_pass_fused(x, table)
    assert_same_bits(got, want)


class TestBlockedFused:
    """The blocked forward_fused has the bits of one pass over the whole array.

    Row counts from `row_counts`, around one, two and three blocks.  Mutants
    this class catches: an off-by-one block end (the loop stops a row
    early), a short last block whose gathers read the rows at the end of the
    index buffer, left from the block before, and the floor taken into the
    index before the clamp (+inf and 1e308 overflow int64 to its least value
    and land on the left segment).
    """

    @settings(deadline=None, max_examples=60)
    @given(st.data(), st.sampled_from([1, 3, 32, 256]), st.sampled_from([np.float64, np.float32]))
    def test_bank_columns(self, data, units, table_dtype):
        elements = data.draw(row_counts(units))
        x, table = data.draw(fused_inputs((elements, units), table_dtype, bank=True))
        assert_blocked_is_single_pass(x, table)

    @settings(deadline=None, max_examples=40)
    @given(st.data(), st.sampled_from([np.float64, np.float32]))
    def test_one_unit_any_shape(self, data, table_dtype):
        ndim = data.draw(st.sampled_from([0, 1, 3]))
        if ndim == 0:
            shape = ()
        else:
            size = data.draw(row_counts(1))
            shape = (size,) if ndim == 1 else data.draw(st.sampled_from(
                [(1, size, 1), (size, 1, 1), (1, 1, size)]))
        x, table = data.draw(fused_inputs(shape, table_dtype, bank=False))
        assert_blocked_is_single_pass(x, table)
        if ndim == 0:  # a Python float too
            assert_blocked_is_single_pass(float(x), table)

    def test_empty_input(self):
        table = build_fused(v_params())
        assert_blocked_is_single_pass(np.empty((0, 3)), table)

    def test_bank_table_rejects_inputs_whose_last_axis_is_not_its_units(self):
        table = fused_table(np.zeros(4), np.ones(4), np.zeros((4, 3)), np.zeros(4), np.ones(4))
        with pytest.raises(ShapeMismatchError):
            forward_fused(np.zeros((8, 1)), table)
        assert forward_fused(np.zeros((2, 3, 4)), table).shape == (2, 3, 4)


class TestProperties:
    def test_relu_reproduction_exact(self):
        rng = np.random.default_rng(9)
        p = init_pwlu_relu(16, 3.0)
        xs = rng.normal(0, 4, size=10_000)
        np.testing.assert_array_equal(forward_reference(xs, p), np.maximum(xs, 0.0))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
    def test_continuity(self, seed, n):
        rng = np.random.default_rng(seed)
        p = random_params(rng, n=n)
        k_all = np.concatenate(
            ([p.left_slope, p.right_slope], np.diff(p.y_points) / p.interval_len)
        )
        lip = np.max(np.abs(k_all))
        xs = np.concatenate(
            [
                p.grid(),
                [p.left_boundary, p.right_boundary],
                rng.uniform(p.left_boundary - 1, p.right_boundary + 1, size=50),
            ]
        )
        eps = 1e-9
        f_lo = forward_reference(xs - eps, p)
        f_hi = forward_reference(xs + eps, p)
        assert np.all(np.abs(f_hi - f_lo) <= lip * 2 * eps + 1e-12)

"""Piecewise linear activation unit: reference forward, analytic backward, fused inference.

The unit is a scalar function made of N uniform linear segments over
[left_boundary, right_boundary] with learnable segment heights, plus two
learnable slopes outside the boundaries.  The reference forward and backward
here are one-unit oracles; the bank forward and backward in :mod:`pwlu.layers`
and `fused_table`, for one unit or a bank, all read one `segment_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameterError, ShapeMismatchError

# Boundary intervals narrower than this are rejected: segment math divides
# by the interval length.
MIN_BOUNDARY_WIDTH = 1e-12


@dataclass(eq=False)
class PwluParams:
    """Learnable parameters of one activation unit (floats), or of a bank ((U,) arrays).

    n_intervals is a structural hyperparameter; everything else is trained
    by gradient.  y_points holds the heights at the n_intervals + 1 grid
    points that demarcate the segments, shape (N+1,) or (U, N+1) for a bank.
    """

    n_intervals: int
    left_boundary: float | np.ndarray
    right_boundary: float | np.ndarray
    y_points: np.ndarray
    left_slope: float | np.ndarray
    right_slope: float | np.ndarray

    def __post_init__(self):
        self.y_points = np.asarray(self.y_points, dtype=np.float64)
        # Only an ndarray makes a bank: a list (say, from a shape file) is still rejected.
        for name in ("left_boundary", "right_boundary", "left_slope", "right_slope"):
            v = getattr(self, name)
            bank = isinstance(v, np.ndarray) and v.ndim > 0
            setattr(self, name, np.asarray(v, dtype=np.float64) if bank else float(v))
        self.validate()

    @property
    def interval_len(self) -> float | np.ndarray:
        return (self.right_boundary - self.left_boundary) / self.n_intervals

    def grid(self) -> np.ndarray:
        """Demarcation points B_0..B_N (B_0 = left boundary, B_N = right), along the last axis."""
        d = np.asarray(self.interval_len)[..., None]
        return np.asarray(self.left_boundary)[..., None] + np.arange(self.n_intervals + 1) * d

    def validate(self) -> None:
        if self.n_intervals < 1:
            raise DegenerateParameterError(f"n_intervals must be >= 1, got {self.n_intervals}")
        shape = np.shape(self.left_boundary)
        if self.y_points.shape != shape + (self.n_intervals + 1,):
            raise DegenerateParameterError(
                f"y_points must have shape {shape + (self.n_intervals + 1,)}, "
                f"got {self.y_points.shape}"
            )
        width = np.subtract(self.right_boundary, self.left_boundary)
        bad = np.flatnonzero(~wide_enough(width))
        if bad.size:
            u = bad[0]
            lo, hi = np.ravel(self.left_boundary)[u], np.ravel(self.right_boundary)[u]
            unit = f"unit {u}: " if shape else ""
            raise DegenerateParameterError(
                f"{unit}boundary interval [{lo}, {hi}] is degenerate (width {width.ravel()[u]})"
            )
        # A finite width implies finite boundaries.
        finite = (np.isfinite(self.left_slope) & np.isfinite(self.right_slope)
                  & np.isfinite(self.y_points).all(axis=-1))
        bad = np.flatnonzero(~finite)
        if bad.size:
            unit = f"unit {bad[0]}: " if shape else ""
            raise DegenerateParameterError(f"{unit}parameters contain non-finite values")


def wide_enough(width):
    """Which boundary intervals the parameter rule accepts: finite and at least
    MIN_BOUNDARY_WIDTH wide (NaN and inf fail)."""
    return np.isfinite(width) & (width >= MIN_BOUNDARY_WIDTH)


@dataclass(eq=False)
class PwluGrads:
    """Loss partials for one unit, summed over all batch elements.

    input_grad matches the input shape; the remaining fields mirror the
    trainable fields of :class:`PwluParams`.
    """

    left_boundary: float
    right_boundary: float
    y_points: np.ndarray
    left_slope: float
    right_slope: float
    input_grad: np.ndarray


@dataclass(eq=False)
class FusedPwluTable:
    """Precomputed slope/offset lookup for the single multiply-add fast path.

    slopes and offsets have n_intervals + 2 entries covering the extended
    segment index -1..n_intervals (stored with offset +1): -1 is the region
    left of the boundary, n_intervals the region right of it.  A bank's
    table holds U units: (U,) left_boundary and inv_interval_len, and
    (U, n_intervals + 2) slopes and offsets.  `starts`, derived, is the flat
    index u*(N+2) + 1 of each unit's segment 0 in slopes and offsets, shape
    (U,), or (1,) for one unit; it is made with the table, which a bank
    builds once per parameter write, so `forward_fused` makes no index grid.
    """

    n_intervals: int
    left_boundary: float | np.ndarray
    inv_interval_len: float | np.ndarray
    slopes: np.ndarray
    offsets: np.ndarray
    starts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.starts = np.arange(1, self.slopes.size, self.n_intervals + 2)


def interval_index(x, params: PwluParams):
    """Index of the segment containing x, for x inside the boundary interval.

    Floating-point floor can land exactly on n_intervals for x just below
    the right boundary; the result is clamped to n_intervals - 1.  NaN gets
    index 0, so the segment arithmetic carries it through to a NaN output.
    """
    raw = np.floor((np.asarray(x, dtype=np.float64) - params.left_boundary) / params.interval_len)
    return np.clip(np.nan_to_num(raw, nan=0.0), 0, params.n_intervals - 1).astype(np.int64)


def forward_reference(x, params: PwluParams) -> np.ndarray:
    """Exact three-branch evaluation of the piecewise linear unit."""
    params.validate()
    x = np.asarray(x, dtype=np.float64)
    b_l, b_r = params.left_boundary, params.right_boundary
    y = params.y_points
    d = params.interval_len

    left = x < b_l
    right = x >= b_r
    mid = ~(left | right)

    out = np.empty_like(x)
    out[left] = (x[left] - b_l) * params.left_slope + y[0]
    out[right] = (x[right] - b_r) * params.right_slope + y[params.n_intervals]
    xm = x[mid]
    idx = interval_index(xm, params)
    k = (y[idx + 1] - y[idx]) / d
    b_idx = b_l + idx * d
    out[mid] = (xm - b_idx) * k + y[idx]
    return out


def backward(x, upstream, params: PwluParams) -> PwluGrads:
    """Analytic partials of the unit, accumulated over the batch.

    The segment index is treated as a constant of the input, so boundary
    partials inside the interval reduce to
    d/dB_L = K_idx * (x - B_R) / (B_R - B_L) and
    d/dB_R = K_idx * (B_L - x) / (B_R - B_L).
    Per-element contributions are summed; input_grad stays elementwise.
    """
    params.validate()
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if x.shape != upstream.shape:
        raise ShapeMismatchError(f"input shape {x.shape} != upstream shape {upstream.shape}")

    b_l, b_r = params.left_boundary, params.right_boundary
    n = params.n_intervals
    y = params.y_points
    d = params.interval_len
    width = b_r - b_l

    left = x < b_l
    right = x >= b_r
    mid = ~(left | right)

    u_l, u_r, u_m = upstream[left], upstream[right], upstream[mid]
    x_l, x_r, x_m = x[left], x[right], x[mid]

    idx = interval_index(x_m, params)
    k = (y[idx + 1] - y[idx]) / d
    b_idx = b_l + idx * d

    input_grad = np.empty_like(x)
    input_grad[left] = u_l * params.left_slope
    input_grad[right] = u_r * params.right_slope
    input_grad[mid] = u_m * k

    g_bl = -params.left_slope * u_l.sum() + np.sum(u_m * k * (x_m - b_r) / width)
    g_br = -params.right_slope * u_r.sum() + np.sum(u_m * k * (b_l - x_m) / width)
    g_kl = np.sum(u_l * (x_l - b_l))
    g_kr = np.sum(u_r * (x_r - b_r))

    g_y = np.zeros(n + 1)
    # np.add.at processes indices in order, keeping accumulation deterministic.
    np.add.at(g_y, idx, u_m * (b_idx + d - x_m) / d)
    np.add.at(g_y, idx + 1, u_m * (x_m - b_idx) / d)
    g_y[0] += u_l.sum()
    g_y[n] += u_r.sum()

    return PwluGrads(
        left_boundary=float(g_bl),
        right_boundary=float(g_br),
        y_points=g_y,
        left_slope=float(g_kl),
        right_slope=float(g_kr),
        input_grad=input_grad,
    )


def segment_table(b_l, b_r, y, k_l, k_r):
    """Left edge, slope and height of every extended segment of one unit or a bank.

    b_l, b_r, k_l and k_r are scalars or (U,) arrays and y has shape
    (..., N+1); each result has shape (..., N+2).  Segment 0 lies left of the
    boundary interval, 1..N are the interior segments and N+1 lies right of
    it, so x in segment j evaluates to (x - edge_j) * slope_j + height_j.

    The three are views of one fresh (3, ..., N+2) array.  Its slices are
    written in the operation order of b_l + arange(N) * d, diff(y) / d and
    (y_0, y_0, ..., y_N), so they have those expressions' bits.
    """
    n = y.shape[-1] - 1
    table = np.empty((3,) + y.shape[:-1] + (n + 2,))
    edges, slopes, heights = table
    edges[..., 0], edges[..., n + 1] = b_l, b_r
    # b_l and d as (..., 1) columns, read back from the table: no asarray of a scalar
    b_l = edges[..., :1]
    d = (edges[..., n + 1:] - b_l) / n
    edges[..., 1:n + 1] = b_l + np.arange(n) * d
    slopes[..., 0], slopes[..., n + 1] = k_l, k_r
    slopes[..., 1:n + 1] = (y[..., 1:] - y[..., :-1]) / d
    heights[..., 1:], heights[..., 0] = y, y[..., 0]
    return edges, slopes, heights


def fused_table(b_l, b_r, y, k_l, k_r, dtype=np.float64) -> FusedPwluTable:
    """Slope/offset table of one unit (scalars) or a bank ((U,) arrays).

    Entry j of the segment table stores its slope S_j and the offset
    O_j = height_j - edge_j*S_j, so that x*S + O reproduces all three
    branches of the reference forward.
    """
    edges, slopes, heights = segment_table(b_l, b_r, y, k_l, k_r)
    n = y.shape[-1] - 1
    return FusedPwluTable(
        n_intervals=n,
        left_boundary=dtype(b_l),
        inv_interval_len=dtype(1.0 / ((b_r - b_l) / n)),
        slopes=slopes.astype(dtype),
        offsets=(heights - edges * slopes).astype(dtype),
    )


def build_fused(params: PwluParams, dtype=np.float64) -> FusedPwluTable:
    """Precompute one unit's slope/offset table for constant-time inference."""
    params.validate()
    return fused_table(params.left_boundary, params.right_boundary, params.y_points,
                       params.left_slope, params.right_slope, dtype)


# The elements forward_fused evaluates at a time, give or take half: the rows
# are split evenly into round(elements / BLOCK_ELEMS) blocks, at least one.
# A block's float and index buffers then take about 256 KB each, and with its
# slices of x and of the output the working set (about 1 MB) stays in a core's
# 2 MB L2 cache, where the whole-array passes over a 1024x256 bank streamed
# 2 MB arrays through memory.  1024-row predicts of a 784-256-256-10 PWLU
# model against the single pass (2-core Xeon, numpy 2.4, 150 order-balanced
# pairs in each of 3 processes): 2**14 +9.9-12.2%, 2**15 +10.5-13.4%, 2**16
# +9.2-14.2%, 2**17 +4.4-7.6%; 2**16 against 2**15 in one process, 1.1-2.9%
# slower.  Rounding, not a ceiling, keeps a batch a little over one block in
# one: a second block costs seven more calls, which made the 1200x32 spirals
# test-set eval 2.6-4.3% slower than one pass.
BLOCK_ELEMS = 2**15


def forward_fused(x, table: FusedPwluTable):
    """Single multiply-add evaluation via the precomputed table.

    A one-unit table takes x of any shape; a bank table takes x whose last
    axis holds the U units, usually (elements, U) columns.  The extended
    index clamp(floor((x - B_L)/d), -1, N) folds the two outer branches into
    the same gather as the interior segments.  The clamp comes first, which
    is the same on the integers -1 and N: fmax sends NaN to -1, the left
    branch, whose multiply-add keeps it NaN, and +-inf lands on the outer
    segments.

    The columns (x viewed as (-1, 1) for one unit) are evaluated in blocks of
    rows of about BLOCK_ELEMS elements, through one float and one int64
    buffer reused by every block, into the block's slice of one output.
    Every element goes through the same operations in the same order as in
    one pass over the whole array, so the result has the same bits.  0-d x
    gives a scalar.
    """
    x = np.asarray(x, dtype=table.slopes.dtype)
    n, starts = table.n_intervals, table.starts
    k = starts.size
    if k > 1 and x.shape[-1:] != (k,):  # reshaped to columns, it would mix units up
        raise ShapeMismatchError(f"a table of {k} units takes (..., {k}) inputs, got {x.shape}")
    cols = x.reshape(-1, k)
    out = np.empty(cols.shape, x.dtype)
    m = cols.shape[0]
    rows = -(-m // ((2 * cols.size + BLOCK_ELEMS) // (2 * BLOCK_ELEMS) or 1))
    block = cols[:rows].shape  # the first block's: the largest
    buf, index = np.empty(block, x.dtype), np.empty(block, np.int64)
    r = 0
    while r < m:
        xb, ob, raw, idx = cols[r:r + rows], out[r:r + rows], buf[:m - r], index[:m - r]
        np.subtract(xb, table.left_boundary, out=raw)
        np.multiply(raw, table.inv_interval_len, out=raw)
        np.fmax(raw, -1, out=raw)
        np.fmin(raw, n, out=raw)
        np.floor(raw, out=idx, casting="unsafe")  # whole numbers: the cast truncates nothing
        idx += starts
        # The clamp keeps idx in range, so "clip" changes no index; the default
        # mode ("raise") would buffer the take into out= in a temporary.
        table.slopes.take(idx, out=ob, mode="clip")
        ob *= xb
        ob += table.offsets.take(idx, out=raw, mode="clip")
        r += rows
    return out.reshape(x.shape)[()]


def init_pwlu_relu(n_intervals: int, half_width, center=0.0) -> PwluParams:
    """ReLU-shaped initialization on the interval [center - half_width, center + half_width].

    half_width and center are floats for one unit, or (U,) arrays for a bank.
    Requires an even segment count so that with center 0, 0 falls exactly on a
    grid point, which makes the initialized unit reproduce max(x, 0) exactly.
    """
    if n_intervals % 2 != 0:
        raise DegenerateParameterError(
            f"ReLU initialization needs an even interval count, got {n_intervals}"
        )
    if not np.all(np.greater(half_width, 0)):
        raise DegenerateParameterError(f"half_width must be positive, got {half_width}")
    left = np.asarray(center - half_width)
    d = np.asarray(2.0 * half_width / n_intervals)
    grid = left[..., None] + np.arange(n_intervals + 1) * d[..., None]
    return PwluParams(
        n_intervals=n_intervals,
        left_boundary=left,
        right_boundary=center + half_width,
        y_points=np.maximum(grid, 0.0),
        left_slope=np.zeros(left.shape),
        right_slope=np.ones(left.shape),
    )

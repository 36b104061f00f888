"""Minimal dense-tensor layers: linear, fixed activations, and the PWLU bank.

Tensors are plain float64 numpy arrays.  Every layer caches what its own
backward pass needs; backward returns the input gradient and writes the
parameter gradients into the layer's gradient arrays for the optimizer step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateParameterError, ShapeMismatchError, SharedLayerError
from .kernel import PwluParams, forward_fused, fused_table, init_pwlu_relu, segment_table
from .optim import sgd_momentum_step
from .stats import RESERVOIR_CAPACITY, Reservoir, RunningStats, realign_reset, update_stats


class Layer:
    """One layer of a `Model`.

    A layer with trained arrays keeps them, their gradients and their
    velocities in rows 0, 1 and 2 of one (3, size) block (`_bind`): its own
    until a `Model` copies it into the model's buffers and rebinds the layer
    to its slice of them.
    """

    # The type name: the checkpoint manifest's `type` and, for an activation, `build_mlp`'s.
    kind = ""
    # Trained arrays, each with a gradient g_<name> and a velocity v_<name>;
    # the optimizer step and the checkpoint both read this list.
    params: tuple[str, ...] = ()
    # Whether the optimizer's weight decay applies to the trained arrays.
    decays = True
    # Whether a step updates the trained arrays (a layer with none has nothing to update).
    trains = True
    # Whether a `Model` has bound the trained arrays to its buffers.
    _in_model = False

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Store the parameter gradients and return the input gradient.

        With input_grad=False a layer may skip the input gradient and return
        None; a layer that needs it for its own parameter gradients ignores the flag.
        """
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference output; equal to the forward unless a layer has a faster form."""
        return self.forward(x)

    def _own_block(self) -> None:
        """Move the trained arrays into row 0 of a new zero (3, size) block and bind
        them, their gradients and velocities to it."""
        block = np.zeros((3, sum(getattr(self, name).size for name in self.params)))
        np.concatenate([getattr(self, name).ravel() for name in self.params], out=block[0])
        self._bind(block)

    def _bind(self, block) -> None:
        """Rebind the trained arrays, their g_ and their v_ as views of rows 0, 1
        and 2 of `block`, in `params` order; `Model` binds every layer to a slice
        of its own block."""
        self._block = block
        start = 0
        for name in self.params:
            shape = getattr(self, name).shape
            end = start + math.prod(shape)
            views = block[:, start:end].reshape((3,) + shape)
            for prefix, view in zip(("", "g_", "v_"), views):
                setattr(self, prefix + name, view)
            start = end

    def _after_step(self) -> None:
        """Whatever the layer's parameters need after an update; nothing by default."""

    def step(self, lr: float, momentum: float, weight_decay: float) -> None:
        """Apply one SGD-with-momentum update to this layer's parameters alone, in
        one call over its block.  `Model.step` does the same for all its layers."""
        if self.params and self.trains:
            sgd_momentum_step(*self._block, lr, momentum, weight_decay if self.decays else 0.0)
            self._after_step()


class Dense(Layer):
    """Fully connected layer: y = x @ W + b."""

    kind = "dense"
    params = ("weight", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "dense"):
        self.name = name
        self.weight = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, out_dim))
        self.in_dim, self.out_dim = self.weight.shape
        self.bias = np.zeros(out_dim)
        self._own_block()
        self._x = None

    def forward(self, x, training=False):
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise ShapeMismatchError(
                f"{self.name}: expected (batch, {self.weight.shape[0]}), got {x.shape}"
            )
        self._x = x
        out = x @ self.weight
        out += self.bias  # in place: the bits of x @ W + b, one temporary fewer
        return out

    def backward(self, grad_out, input_grad=True):
        # Into the gradient views: the bits of x.T @ grad_out and grad_out.sum(axis=0)
        np.matmul(self._x.T, grad_out, out=self.g_weight)
        np.add.reduce(grad_out, axis=0, out=self.g_bias)
        return grad_out @ self.weight.T if input_grad else None


class Relu(Layer):
    kind = "relu"

    def __init__(self, name: str = "relu"):
        self.name = name
        self._mask = None

    def forward(self, x, training=False):
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out, input_grad=True):
        return grad_out * self._mask


class Swish(Layer):
    """x * sigmoid(x), the fixed-shape baseline."""

    kind = "swish"

    def __init__(self, name: str = "swish"):
        self.name = name
        self._x = None
        self._sig = None

    def forward(self, x, training=False):
        self._x = x
        self._sig = 1.0 / (1.0 + np.exp(-x))
        return x * self._sig

    def backward(self, grad_out, input_grad=True):
        s = self._sig
        return grad_out * (s + self._x * s * (1.0 - s))


def bank_views(theta: np.ndarray):
    """Views b_l, b_r, k_l, k_r of shape (U,) and y of shape (U, N+1) of an (N+5, U) bank array."""
    # Rows, not columns: the math over (elements, U) columns is faster on contiguous (U,) views.
    return theta[0], theta[1], theta[2], theta[3], theta[4:].T


class PwluActivation(Layer):
    """A bank of piecewise linear units with running input statistics.

    granularity "channel" keeps one unit per channel (axis 1 of the input);
    "layer" shares a single unit across the whole tensor.  While `frozen`,
    backward computes only the input gradient, which still flows to earlier
    layers, and writes no bit of g_theta, and a step leaves theta and
    v_theta untouched.  While `collecting`, each training forward
    updates the running mean/std and the reservoir sample of every unit.
    `collecting` is true while the reservoir has slots: from construction
    with collecting=True until `realign` frees the samples.

    The parameters of all units are stored once, in one (N+5, U) array
    `theta`; b_l, b_r, k_l, k_r (U,) and y (U, N+1) are views of it
    (`bank_views`), written in place, never rebound.  `v_theta` and `g_theta`
    share its layout; in a `Model` all three are views of the model's buffers,
    updated in the model's one optimizer call.  A trained backward writes
    every entry of `g_theta`.  After an update `_after_step` keeps the
    intervals above their floor and checks the parameter rule, in full only
    when `within_floor_and_rule`, four array operations, cannot show that
    nothing needs doing.  `units` is a read-only snapshot of the parameters
    as one-unit PwluParams.  The statistics are over units too:
    `running_stats`, with (U,) mean and std, and the U streams of
    `reservoir`, which share one generator; `stats` is a read-only snapshot
    of them as RunningStats.  `realign` resets the whole
    bank from `running_stats` in one array operation.  A forward keeps what
    backward reads in one tuple, `_cache`: the (elements, U) input columns,
    the segment index, the outer masks, each element's edge, its offset
    x - edge and its slope, and the (U,) width b_r - b_l and interval length
    d.  A training forward of a trained bank writes the segment index into
    plane 0 of a (2, elements, U) index pair, whose plane 1 the backward
    fills with the upper height's index; any other forward keeps the
    (elements, U) index alone.  The segment and fused tables are built once
    per parameter write and kept in `_tables` (see `_table`) for `infer` and
    the frozen forward; the trained forward builds its own.
    """

    kind = "pwlu"
    params = ("theta",)
    decays = False

    def __init__(self, n_channels: int, n_intervals: int = 16, granularity: str = "channel",
                 half_width: float = 3.0, frozen: bool = False, collecting: bool = False,
                 seed: int = 0, name: str = "pwlu"):
        if granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")
        self.name = name
        self.granularity = granularity
        self.n_channels = n_channels
        self.n_intervals = n_intervals
        self.n_units = n_channels if granularity == "channel" else 1
        # Unit u's entries in the (U, N+2) segment tables start at flat index u*(N+2),
        # its left outer segment; its interior segment 1 is one further.
        self._starts1 = np.arange(self.n_units) * (n_intervals + 2) + 1
        self.theta = np.empty((n_intervals + 5, self.n_units))  # its values are written next
        self._own_block()
        self._write(init_pwlu_relu(n_intervals, half_width, center=np.zeros(self.n_units)))
        self.running_stats = RunningStats(np.zeros(self.n_units), np.ones(self.n_units))
        self.reservoir = Reservoir(RESERVOIR_CAPACITY if collecting else 0,
                                   seed=seed * 100003, streams=self.n_units)
        self.frozen = frozen
        self._cache = None
        self._tables = [None, None, None]  # theta's bytes, its segment table, its fused table

    def _bind(self, block):
        super()._bind(block)
        self.b_l, self.b_r, self.k_l, self.k_r, self.y = bank_views(self.theta)

    @property
    def trains(self) -> bool:
        """A frozen bank is left as it is by a step."""
        return not self.frozen

    @property
    def collecting(self) -> bool:
        """Whether a training forward feeds the statistics: while the bank holds sample slots."""
        return self.reservoir.capacity > 0

    @property
    def units(self) -> tuple[PwluParams, ...]:
        """A read-only snapshot of every unit's parameters."""
        fields = zip(self.b_l, self.b_r, self.y.copy(), self.k_l, self.k_r)
        return tuple(PwluParams(self.n_intervals, *unit) for unit in fields)

    @property
    def stats(self) -> tuple[RunningStats, ...]:
        """A read-only snapshot of every unit's running statistics."""
        s = self.running_stats
        return tuple(RunningStats(mean, std, s.update_count)
                     for mean, std in zip(s.mean.tolist(), s.std.tolist()))

    def realign(self) -> None:
        """Reset every unit to ReLU shape on mean -/+ 3 std of its inputs, unfreeze, free samples.

        The whole new bank is built and validated before any of it is written,
        so an error leaves the layer as it was, samples included.  The
        velocities and the reservoir generator's state are kept.
        """
        self._write(realign_reset(self.n_intervals, self.running_stats))
        self.frozen = False
        # A fresh array: a zero-width view would keep the samples alive.
        self.reservoir.buffer = np.zeros((self.n_units, 0))

    def _write(self, new: PwluParams) -> None:
        self.b_l[:], self.b_r[:], self.y[:] = new.left_boundary, new.right_boundary, new.y_points
        self.k_l[:], self.k_r[:] = new.left_slope, new.right_slope

    def check_params(self) -> None:
        """Raise DegenerateParameterError, naming the layer and its first bad unit, for
        a non-finite parameter or a collapsed interval: `PwluParams.validate` on the
        views of theta."""
        try:  # PwluParams wraps the views of theta without a copy
            PwluParams(self.n_intervals, self.b_l, self.b_r, self.y, self.k_l, self.k_r)
        except DegenerateParameterError as exc:
            raise DegenerateParameterError(f"{self.name}: {exc}") from exc

    def _table(self, slot, build):
        """Table `slot` (1 segment, 2 fused) of theta as it is now, built by `build`.

        The key is theta's bytes, not a flag, so a write through any view is
        seen, and so is +0.0 made -0.0, which == would miss.
        """
        key = self.theta.tobytes()
        if key != self._tables[0]:
            self._tables = [key, None, None]
        if self._tables[slot] is None:
            self._tables[slot] = build(self.b_l, self.b_r, self.y, self.k_l, self.k_r)
        return self._tables[slot]

    def _to_columns(self, x):
        """Flatten to (elements, units): channel axis last, all else merged."""
        if self.granularity == "layer":
            return x.reshape(-1, 1)
        if x.ndim == 2:  # (batch, channels) already is; moving axis 1 to the end is the identity
            return x
        return np.moveaxis(x, 1, -1).reshape(-1, self.n_channels)

    def _from_columns(self, cols, like):
        if cols.shape == like.shape:  # (batch, channels): the columns are the tensor
            return cols
        if self.granularity == "layer" or like.ndim == 2:
            return cols.reshape(like.shape)
        moved_shape = like.shape[:1] + like.shape[2:] + (self.n_channels,)
        return np.moveaxis(cols.reshape(moved_shape), -1, 1)

    def _segments(self, xc, d, seg):
        """Extended segment of every element of xc (elements, units), d the (U,) interval length.

        Writes its flat index into the (U, N+2) segment tables to seg, an
        int64 array of xc's shape, and returns the masks of elements left and
        right of the interval, which set the outer segments.
        """
        n = self.n_intervals
        raw = xc - self.b_l
        raw /= d
        # Non-finite inputs (diverged upstream weights) must not crash the
        # index gather: fmax sends NaN and -inf to 0, fmin +inf to N-1.  The
        # output stays non-finite and the trainer's loss check names the layer.
        np.floor(raw, out=raw)
        np.fmax(raw, 0, out=raw)
        np.fmin(raw, n - 1, out=raw)
        seg[...] = raw  # whole numbers: the cast truncates nothing
        left, right = xc < self.b_l, xc >= self.b_r
        np.putmask(seg, left, -1)
        np.putmask(seg, right, n)
        seg += self._starts1
        return left, right

    def _check_channels(self, x):
        if self.granularity == "channel" and (x.ndim < 2 or x.shape[1] != self.n_channels):
            raise ShapeMismatchError(
                f"{self.name}: expected channel axis of size {self.n_channels}, got {x.shape}"
            )

    def forward(self, x, training=False):
        self._check_channels(x)
        xc = self._to_columns(x)
        if training and self.collecting:
            # Contiguous rows reduce in the same order as each unit's values alone.
            rows = np.ascontiguousarray(xc.T)
            self.running_stats = update_stats(self.running_stats, rows)
            self.reservoir.extend(rows)
        width = self.b_r - self.b_l
        d = width / self.n_intervals
        # A trained backward follows: it fills plane 1.  Any other forward keeps the
        # index alone: a pair on every forward raised perfbench `wide`'s peak RSS
        # by 4% (162.5 to 169.0 MB), through glibc's dynamic mmap threshold.
        if training and not self.frozen:
            index = np.empty((2,) + xc.shape, np.int64)
            seg = index[0]
        else:
            seg = index = np.empty(xc.shape, np.int64)
        left, right = self._segments(xc, d, seg)
        # A trained forward follows a step, so a kept table would never be read.
        edges, slopes, heights = (self._table(1, segment_table) if self.frozen else
                                  segment_table(self.b_l, self.b_r, self.y, self.k_l, self.k_r))
        edge, slope = edges.take(seg), slopes.take(seg)
        offset = xc - edge
        # Backward reads these, not the parameters: step() changes them only after it.
        self._cache = xc, index, left, right, edge, offset, slope, width, d
        out = offset * slope
        out += heights.take(seg)  # in place: the bits of (xc - edge) * slope + height
        return self._from_columns(out, x)

    def infer(self, x):
        """The forward's values from the fused table, within 8 eps; `_cache` is left alone.

        The table is built once per parameter write (see `_table`).
        """
        self._check_channels(x)
        table = self._table(2, fused_table)
        if self.granularity == "channel" and x.ndim > 2:  # the channel axis moves last
            return self._from_columns(forward_fused(self._to_columns(x), table), x)
        # (batch, channels), or any shape for one unit: forward_fused views it as columns
        return forward_fused(x, table)

    def backward(self, grad_out, input_grad=True):
        # grad_in is always made: the parameter gradients are built from it.
        xc, index, left, right, edge, offset, slope, width, d = self._cache
        up = self._to_columns(grad_out)
        if xc.shape != up.shape:
            raise ShapeMismatchError(
                f"{self.name}: input columns {xc.shape} != upstream {up.shape}"
            )
        grad_in = slope * up  # up * slope bit for bit: multiplication commutes
        # A frozen bank's step leaves theta alone, so no gradient is computed or written.
        if not self.frozen:
            self._param_grads(xc, up, grad_in, index, left, right, edge, offset, width, d)
        return self._from_columns(grad_in, grad_out)

    def _param_grads(self, xc, up, grad_in, index, left, right, edge, offset, width, d):
        """Write every entry of g_theta from one backward's columns and the forward's `_cache`.

        Each quantity is built in place in a few reused buffers, in the
        operation order of the expression in its comment, so it has that
        expression's bits.
        """
        n, units = self.n_intervals, self.n_units
        if index.ndim == 2:  # the forward kept the segment index alone
            index = np.stack((index, index))
        # Flat indices, not masks: a scatter to the outer elements costs less
        # than a masked pass over all of them, even when half lie outside.
        outside_at = (left | right).ravel().nonzero()[0]
        # Outer bin u is unit u's left region, bin U + u its right one.
        outer_bin = outside_at % units
        outer_bin += units * right.take(outside_at)
        # planes[0] is each element's lower height weight, up * (edge + d - xc) / d,
        # and planes[1] its upper one, moment / d, where moment = up * (xc - edge)
        # is also the outer slope partial; planes[2:] are its interval terms of
        # g_b_l and g_b_r.
        planes = np.empty((4,) + xc.shape)
        lower, moment, mid_l, mid_r = planes
        np.add(edge, d, out=lower)
        lower -= xc
        lower *= up
        lower /= d
        np.multiply(offset, up, out=moment)

        # Each outer sum reads only its region's elements, so an infinite input
        # adds nothing outside it.  bincount adds each bin's values from 0.0 in
        # element order (the flat indices run row by row; index % U is the unit).
        g_theta = self.g_theta
        g_y = bank_views(g_theta)[4]
        up_outer = np.bincount(outer_bin, up.take(outside_at), 2 * units)
        g_theta[2:4] = np.bincount(outer_bin, moment.take(outside_at),
                                   2 * units).reshape(2, units)

        # grad_in * (xc - b_r) / width and grad_in * (b_l - xc) / width in the interval
        np.subtract(xc, self.b_r, out=mid_l)
        np.subtract(self.b_l, xc, out=mid_r)
        mid = planes[2:]
        mid *= grad_in
        mid /= width
        moment /= d
        # The sums run over whole planes with the outer elements set to 0.0:
        # not 0 * inf, which an infinite input would give.
        planes.reshape(4, -1)[:, outside_at] = 0.0
        # -k_l * up_l + (interval sum) and -k_r * up_r + (interval sum)
        g_theta[:2] = (-self.theta[2:4]) * up_outer.reshape(2, units) \
            + np.add.reduce(mid, axis=1)

        # Height j of unit u is bin u*(N+2) + j + 1: an element's lower height is
        # its table index, its upper height the next (outer elements add zeros).
        # bincount adds in input order, all lower weights first, so runs sum alike.
        np.add(index[0], 1, out=index[1])
        bins = units * (n + 2)
        g_y[:] = np.bincount(index.ravel(), weights=planes[:2].ravel(),
                             minlength=bins)[:bins].reshape(-1, n + 2)[:, 1:]
        g_y[:, 0] += up_outer[:units]
        g_y[:, n] += up_outer[units:]

    def _after_step(self):
        # Unit parameters never receive weight decay (`decays`); decaying the
        # heights would bias every learned shape toward the zero function.
        if not within_floor_and_rule(self.theta):
            self._floor_and_check()

    def _floor_and_check(self):
        """Widen every interval narrower than its floor, then apply the parameter rule."""
        b_l, b_r = self.b_l, self.b_r
        width = b_r - b_l
        min_width = np.maximum(FLOOR, FLOOR_PER_MAGNITUDE * np.abs(self.theta[:2]).sum(axis=0))
        if not (width >= min_width).all():  # some width is narrow, or NaN
            narrow = width < min_width
            center = 0.5 * (b_l[narrow] + b_r[narrow])
            b_l[narrow] = center - 0.5 * min_width[narrow]
            b_r[narrow] = center + 0.5 * min_width[narrow]
        self.check_params()


def within_floor_and_rule(theta: np.ndarray) -> bool:
    """A test of a bank's (N+5, U) parameters in three reductions and one
    subtraction that implies `_floor_and_check` would change and raise nothing.

    Every entry lies in [lo, hi], and hi - lo is finite, so both are and no width overflows.
    Each unit's floor is at most max(FLOOR, 2 * FLOOR_PER_MAGNITUDE * max(hi, -lo)) (doubling
    is exact, and rounding keeps order), so a narrowest width clearing that clears every floor
    and the rule's MIN_BOUNDARY_WIDTH <= FLOOR.  False only sends the bank to the full code.
    """
    lo, hi = float(np.minimum.reduce(theta, None)), float(np.maximum.reduce(theta, None))
    if not hi - lo < math.inf:  # false too for NaN, and for an infinite lo or hi
        return False
    floor = max(FLOOR, 2 * FLOOR_PER_MAGNITUDE * max(hi, -lo))
    return float(np.minimum.reduce(theta[1] - theta[0])) >= floor


def softmax_xent_forward(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, probs); probs are cached by the caller for backward.
    """
    if logits.shape[0] != labels.shape[0]:
        raise ShapeMismatchError(f"{logits.shape[0]} logits rows vs {labels.shape[0]} labels")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = -np.log(probs[np.arange(n), labels] + 1e-300).mean()
    return float(loss), probs


def softmax_xent_backward(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    n = probs.shape[0]
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n  # in place: the bits of grad / n, one temporary fewer
    return grad


class Model:
    """A plain sequential stack with a softmax cross-entropy head.

    The model owns one flat float64 buffer each for the parameters, their
    gradients and their velocities, `buffers`, the rows of one (3, size)
    block.  Every layer's trained arrays and their g_ and v_ arrays are views
    of them (`Layer._bind`): the Dense layers' first, then the PWLU banks'.
    So a step is one `sgd_momentum_step` per run of adjacent trained arrays
    that share a weight decay: one while `weight_decay` is 0 or while every
    bank is frozen, else one for the Dense layers and one for the trained
    banks, which never decay.  The model copies the layers' own blocks into
    its block in one call and rebinds their arrays; from then on they are
    written in place, never rebound.  A layer with trained arrays takes one
    place in one model: listing it twice, or building a second model on it,
    raises SharedLayerError, since its second backward would overwrite the
    first's gradient, or only one of the two models could step it.
    """

    def __init__(self, layers: list[Layer]):
        self.layers = layers
        owners = sorted((layer for layer in layers if layer.params), key=lambda l: not l.decays)
        for i, layer in enumerate(owners):
            if layer in owners[:i]:
                raise SharedLayerError(f"{layer.name} is listed twice; a layer with trained "
                                       f"arrays takes one place in a model")
            if layer._in_model:
                raise SharedLayerError(f"{layer.name} is already bound to another model's "
                                       f"buffers; build the new model on new layers")
        block = np.concatenate([layer._block for layer in owners] or [np.empty((3, 0))], axis=1)
        self.buffers = tuple(block)  # parameters, gradients, velocities
        # (layer, start, end) of each layer's slice of the buffers, in their order
        self._slices = []
        start = 0
        for layer in owners:
            end = start + layer._block.shape[1]
            layer._bind(block[:, start:end])
            layer._in_model = True
            self._slices.append((layer, start, end))
            start = end

    def forward(self, x, training=False):
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def loss_and_backward(self, x, labels):
        logits = self.forward(x, training=True)
        loss, probs = softmax_xent_forward(logits, labels)
        grad = softmax_xent_backward(probs, labels)
        # Nothing reads the first layer's input gradient, so it is not made.
        for i in range(len(self.layers) - 1, -1, -1):
            grad = self.layers[i].backward(grad, input_grad=i > 0)
        return loss, logits

    def step(self, lr, momentum, weight_decay):
        """One SGD-with-momentum update per run of trained layers with one decay,
        then each trained layer's `_after_step`: a bank's floor and check."""
        runs, stepped = [], []  # runs: [start, end, decay] of adjacent trained slices
        for layer, start, end in self._slices:
            if layer.trains:
                decay = weight_decay if layer.decays else 0.0
                if runs and runs[-1][1] == start and runs[-1][2] == decay:
                    runs[-1][1] = end
                else:
                    runs.append([start, end, decay])
                stepped.append(layer)
        params, grads, velocities = self.buffers
        for start, end, decay in runs:
            sgd_momentum_step(params[start:end], grads[start:end], velocities[start:end],
                              lr, momentum, decay)
        for layer in stepped:
            layer._after_step()

    def predict(self, x):
        for layer in self.layers:
            x = layer.infer(x)
        return x.argmax(axis=1)

    def accuracy(self, x, labels):
        return float((self.predict(x) == labels).mean())

    def pwlu_layers(self) -> list[PwluActivation]:
        return [l for l in self.layers if isinstance(l, PwluActivation)]

    def first_nonfinite_layer(self, x) -> str | None:
        """Name of the first layer whose forward output is non-finite, if any."""
        for layer in self.layers:
            x = layer.forward(x, training=False)
            if not np.all(np.isfinite(x)):
                return layer.name
        return None


# Layer types by name (`build_mlp` and the CLI choose among ACTIVATIONS), and bank granularities.
ACTIVATIONS = {cls.kind: cls for cls in (Relu, Swish, PwluActivation)}
LAYER_TYPES = {Dense.kind: Dense, **ACTIVATIONS}
GRANULARITIES = ("layer", "channel")
# The interval floor max(FLOOR, FLOOR_PER_MAGNITUDE * (|b_l| + |b_r|)) keeps an interval from
# collapsing under a large boundary step; it is relative so it survives large magnitudes.
FLOOR, FLOOR_PER_MAGNITUDE = 1e-6, 1e-9


def build_mlp(widths: list[int], activation: str, rng: np.random.Generator,
              n_intervals: int = 16, granularity: str = "channel", half_width: float = 3.0,
              pwlu_frozen: bool = False, pwlu_collecting: bool = False,
              seed: int = 0) -> Model:
    """MLP with the chosen activation after every hidden linear layer."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    act = ACTIVATIONS[activation]
    layers: list[Layer] = []
    for i in range(len(widths) - 1):
        layers.append(Dense(widths[i], widths[i + 1], rng, name=f"dense{i}"))
        if i == len(widths) - 2:
            break
        name = f"{activation}{i}"
        if act is PwluActivation:
            layers.append(PwluActivation(
                n_channels=widths[i + 1], n_intervals=n_intervals, granularity=granularity,
                half_width=half_width, frozen=pwlu_frozen, collecting=pwlu_collecting,
                seed=seed + i, name=name))
        else:
            layers.append(act(name=name))
    return Model(layers)

"""Minimal dense-tensor layers: linear, fixed activations, and the PWLU bank.

Tensors are plain float64 numpy arrays.  Every layer caches what its own
backward pass needs; backward returns the input gradient and stores the
parameter gradients on the layer for the optimizer step.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateParameterError, ShapeMismatchError
from .kernel import (PwluParams, forward_fused, fused_table, init_pwlu_relu, parameters_ok,
                     segment_table)
from .optim import sgd_momentum_step
from .stats import RESERVOIR_CAPACITY, Reservoir, RunningStats, realign_reset, update_stats


class Layer:
    # The type name: the checkpoint manifest's `type` and, for an activation, `build_mlp`'s.
    kind = ""
    # Trained arrays, each with a gradient g_<name> and a velocity v_<name>;
    # the optimizer step and the checkpoint both read this list.
    params: tuple[str, ...] = ()

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

    def step(self, lr: float, momentum: float, weight_decay: float) -> None:
        """Apply one SGD-with-momentum update to this layer's parameters."""
        for p in self.params:
            sgd_momentum_step(getattr(self, p), getattr(self, f"g_{p}"), getattr(self, f"v_{p}"),
                              lr, momentum, weight_decay)


class Dense(Layer):
    """Fully connected layer: y = x @ W + b."""

    kind = "dense"
    params = ("weight", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "dense"):
        self.name = name
        self.weight = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, out_dim))
        self.in_dim, self.out_dim = self.weight.shape
        self.bias = np.zeros(out_dim)
        self.v_weight = np.zeros_like(self.weight)
        self.v_bias = np.zeros_like(self.bias)
        self.g_weight = np.zeros_like(self.weight)
        self.g_bias = np.zeros_like(self.bias)
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
        self.g_weight = self._x.T @ grad_out
        self.g_bias = grad_out.sum(axis=0)
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
    layers, and sets g_theta to None, so the optimizer step leaves the unit
    parameters untouched.  While `collecting`, each training forward
    updates the running mean/std and the reservoir sample of every unit.
    `collecting` is true while the reservoir has slots: from construction
    with collecting=True until `realign` frees the samples.

    The parameters of all units are stored once, in one (N+5, U) array
    `theta`; b_l, b_r, k_l, k_r (U,) and y (U, N+1) are views of it
    (`bank_views`), written in place, never rebound.  `v_theta` and `g_theta`
    share its layout; `g_theta` is None until an unfrozen backward.  `units`
    is a read-only snapshot of the parameters as one-unit PwluParams.  The
    statistics are over units too: `running_stats`, with (U,) mean and std,
    and the U streams of `reservoir`, which share one generator; `stats` is
    a read-only snapshot of them as RunningStats.  `realign` resets the whole
    bank from `running_stats` in one array operation.  A forward keeps what
    backward reads in one tuple, `_cache`: the (elements, U) input columns,
    the segment indices and outer masks, and each element's edge, its offset
    x - edge and its slope.  The segment and fused tables are built once per
    parameter write and kept in `_tables` (see `_table`) for `infer` and the
    frozen forward; the trained forward builds its own.
    """

    kind = "pwlu"
    params = ("theta",)

    def __init__(self, n_channels: int, n_intervals: int = 16, granularity: str = "channel",
                 half_width: float = 3.0, frozen: bool = False, collecting: bool = False,
                 seed: int = 0, name: str = "pwlu"):
        if granularity not in ("channel", "layer"):
            raise ValueError(f"granularity must be 'channel' or 'layer', got {granularity!r}")
        self.name = name
        self.granularity = granularity
        self.n_channels = n_channels
        self.n_intervals = n_intervals
        self.n_units = n_channels if granularity == "channel" else 1
        # Unit u's entries in the (U, N+2) segment tables start at flat index u*(N+2).
        self._starts = np.arange(self.n_units) * (n_intervals + 2)
        self.theta = np.empty((n_intervals + 5, self.n_units))
        self.b_l, self.b_r, self.k_l, self.k_r, self.y = bank_views(self.theta)
        self._write(init_pwlu_relu(n_intervals, half_width, center=np.zeros(self.n_units)))
        self.v_theta = np.zeros_like(self.theta)
        self.g_theta = None
        self.running_stats = RunningStats(np.zeros(self.n_units), np.ones(self.n_units))
        self.reservoir = Reservoir(RESERVOIR_CAPACITY if collecting else 0,
                                   seed=seed * 100003, streams=self.n_units)
        self.frozen = frozen
        self._cache = None
        self._tables = [None, None, None]  # theta's bytes, its segment table, its fused table

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
        """Raise DegenerateParameterError for a non-finite parameter or a collapsed interval.

        The rule is tested on the views of theta; a PwluParams is built only
        when it fails, to name the first bad unit.
        """
        if parameters_ok(self.b_r - self.b_l, self.theta):
            return
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
        if self.granularity == "layer" or like.ndim == 2:
            return cols.reshape(like.shape)
        moved_shape = like.shape[:1] + like.shape[2:] + (self.n_channels,)
        return np.moveaxis(cols.reshape(moved_shape), -1, 1)

    def _segments(self, xc):
        """Extended segment of every element of xc (elements, units).

        Returns its flat index into the (U, N+2) segment tables and the masks
        of elements left and right of the interval, which set the outer segments.
        """
        n = self.n_intervals
        raw = (xc - self.b_l) / ((self.b_r - self.b_l) / n)
        # Non-finite inputs (diverged upstream weights) must not crash the
        # index gather: fmax sends NaN and -inf to 0, fmin +inf to N-1.  The
        # output stays non-finite and the trainer's loss check names the layer.
        np.floor(raw, out=raw)
        np.fmax(raw, 0, out=raw)
        seg = np.fmin(raw, n - 1, out=raw).astype(np.int64) + 1
        left, right = xc < self.b_l, xc >= self.b_r
        np.putmask(seg, left, 0)
        np.putmask(seg, right, n + 1)
        seg += self._starts
        return seg, left, right

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
        seg, left, right = self._segments(xc)
        # A trained forward follows a step, so a kept table would never be read.
        edges, slopes, heights = (self._table(1, segment_table) if self.frozen else
                                  segment_table(self.b_l, self.b_r, self.y, self.k_l, self.k_r))
        edge, slope = edges.take(seg), slopes.take(seg)
        offset = xc - edge
        # Backward reads these, not the parameters: step() changes them only after it.
        self._cache = xc, seg, left, right, edge, offset, slope
        out = offset * slope
        out += heights.take(seg)  # in place: the bits of (xc - edge) * slope + height
        return self._from_columns(out, x)

    def infer(self, x):
        """The forward's values from the fused table, within 8 eps; `_cache` is left alone.

        The table is built once per parameter write (see `_table`).
        """
        self._check_channels(x)
        table = self._table(2, fused_table)
        return self._from_columns(forward_fused(self._to_columns(x), table), x)

    def backward(self, grad_out, input_grad=True):
        # grad_in is always made: the parameter gradients are built from it.
        xc, seg, left, right, edge, offset, slope = self._cache
        up = self._to_columns(grad_out)
        if xc.shape != up.shape:
            raise ShapeMismatchError(
                f"{self.name}: input columns {xc.shape} != upstream {up.shape}"
            )
        grad_in = slope * up  # up * slope bit for bit: multiplication commutes
        # step() reads no gradient while frozen, so none is computed or kept.
        self.g_theta = None if self.frozen else self._param_grads(
            xc, up, grad_in, edge, offset, seg, left, right)
        return self._from_columns(grad_in, grad_out)

    def _param_grads(self, xc, up, grad_in, edge, offset, seg, left, right):
        """The g_theta of one backward's columns; edge is each element's left edge
        and offset its xc - edge.

        Each quantity is built in place in a few reused buffers, in the
        operation order of the expression in its comment, so it has that
        expression's bits.
        """
        b_l, b_r = self.b_l, self.b_r
        n, units = self.n_intervals, self.n_units
        width = b_r - b_l
        d = width / n
        # Flat indices, not masks: a scatter to the outer elements costs less
        # than a masked pass over all of them, even when half lie outside.
        left_at, right_at = np.flatnonzero(left), np.flatnonzero(right)
        outside_at = np.concatenate((left_at, right_at))
        # weights[0] is each element's lower height weight, up * (edge + d - xc) / d,
        # and weights[1] its upper one, moment / d, where moment = up * (xc - edge)
        # is also the outer slope partial.
        weights = np.empty((2,) + xc.shape)
        lower, moment = weights
        np.add(edge, d, out=lower)
        lower -= xc
        lower *= up
        lower /= d
        np.multiply(offset, up, out=moment)

        # Each outer sum reads only its region's elements, so an infinite input
        # adds nothing outside it.  bincount adds each unit's values from 0.0 in
        # element order (the flat indices run row by row; index % U is the unit).
        left_unit, right_unit = left_at % units, right_at % units

        def outer_sum(values, at, unit):
            return np.bincount(unit, values.take(at), units)

        g_theta = np.empty_like(self.theta)
        g_b_l, g_b_r, g_k_l, g_k_r, g_y = bank_views(g_theta)
        up_l, up_r = outer_sum(up, left_at, left_unit), outer_sum(up, right_at, right_unit)
        g_k_l[:] = outer_sum(moment, left_at, left_unit)
        g_k_r[:] = outer_sum(moment, right_at, right_unit)

        # The interval sums run over the whole scratch buffer with the outer
        # elements set to 0.0: not 0 * inf, which an infinite input would give.
        scratch = np.empty(xc.shape)

        def mid_sum(values):
            np.put(values, outside_at, 0.0)
            return values.sum(axis=0)

        # grad_in * (xc - b_r) / width and grad_in * (b_l - xc) / width in the interval
        np.subtract(xc, b_r, out=scratch)
        scratch *= grad_in
        scratch /= width
        g_b_l[:] = (-self.k_l) * up_l + mid_sum(scratch)
        np.subtract(b_l, xc, out=scratch)
        scratch *= grad_in
        scratch /= width
        g_b_r[:] = (-self.k_r) * up_r + mid_sum(scratch)

        # Height j of unit u is bin u*(N+2) + j + 1: an element's lower height is
        # its table index, its upper height the next (outer elements add zeros).
        # bincount adds in input order, all lower weights first, so runs sum alike.
        moment /= d
        weights.reshape(2, -1)[:, outside_at] = 0.0
        index = np.empty(weights.shape, np.int64)
        index[0] = seg
        np.add(seg, 1, out=index[1])
        bins = units * (n + 2)
        g_y[:] = np.bincount(index.ravel(), weights=weights.ravel(),
                             minlength=bins)[:bins].reshape(-1, n + 2)[:, 1:]
        g_y[:, 0] += up_l
        g_y[:, n] += up_r
        return g_theta

    def step(self, lr, momentum, weight_decay):
        # Unit parameters never receive weight decay; decaying the heights
        # would bias every learned shape toward the zero function.
        if self.frozen or self.g_theta is None:
            return
        super().step(lr, momentum, 0.0)
        b_l, b_r = self.b_l, self.b_r
        width = b_r - b_l
        # Keep the interval from collapsing under a large boundary step;
        # the floor is relative so it survives large magnitudes.
        min_width = np.maximum(1e-6, 1e-9 * (np.abs(b_l) + np.abs(b_r)))
        narrow = width < min_width
        if narrow.any():
            center = 0.5 * (b_l[narrow] + b_r[narrow])
            b_l[narrow] = center - 0.5 * min_width[narrow]
            b_r[narrow] = center + 0.5 * min_width[narrow]
            width = b_r - b_l
        if not parameters_ok(width, self.theta):
            self.check_params()  # raises, naming the first bad unit


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
    """A plain sequential stack with a softmax cross-entropy head."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

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
        for layer in self.layers:
            layer.step(lr, momentum, weight_decay)

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


# Every layer type by its name; `build_mlp` and the CLI choose among ACTIVATIONS.
ACTIVATIONS = {cls.kind: cls for cls in (Relu, Swish, PwluActivation)}
LAYER_TYPES = {Dense.kind: Dense, **ACTIVATIONS}


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

"""Minimal dense-tensor layers: linear, conv, fixed activations, and the PWLU bank.

Tensors are plain float64 numpy arrays.  Every layer caches what its own
backward pass needs; backward returns the input gradient and stores the
parameter gradients on the layer for the optimizer step.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateParameterError, ShapeMismatchError
from .kernel import MIN_BOUNDARY_WIDTH, PwluParams, init_pwlu_relu, segment_table
from .optim import sgd_momentum_step
from .stats import RESERVOIR_CAPACITY, Reservoir, RunningStats, update_stats


class Layer:
    name = "layer"
    # Trained arrays, each with a gradient g_<name> and a velocity v_<name>;
    # the optimizer step and the checkpoint both read this list.
    params: tuple[str, ...] = ()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def step(self, lr: float, momentum: float, weight_decay: float) -> None:
        """Apply one SGD-with-momentum update to this layer's parameters."""
        for p in self.params:
            sgd_momentum_step(getattr(self, p), getattr(self, f"g_{p}"), getattr(self, f"v_{p}"),
                              lr, momentum, weight_decay)


class Dense(Layer):
    """Fully connected layer: y = x @ W + b."""

    params = ("weight", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "dense"):
        self.name = name
        self.weight = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, out_dim))
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
        return x @ self.weight + self.bias

    def backward(self, grad_out):
        self.g_weight = self._x.T @ grad_out
        self.g_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight.T


class Conv2d(Layer):
    """2-D convolution (stride 1, symmetric zero padding) via im2col."""

    params = ("weight", "bias")

    def __init__(self, in_ch: int, out_ch: int, ksize: int, rng: np.random.Generator,
                 padding: int = 0, name: str = "conv"):
        self.name = name
        self.ksize = ksize
        self.padding = padding
        fan_in = in_ch * ksize * ksize
        self.weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_ch, in_ch, ksize, ksize))
        self.bias = np.zeros(out_ch)
        self.v_weight = np.zeros_like(self.weight)
        self.v_bias = np.zeros_like(self.bias)
        self.g_weight = np.zeros_like(self.weight)
        self.g_bias = np.zeros_like(self.bias)
        self._cols = None
        self._x_shape = None

    def _im2col(self, x):
        b, c, h, w = x.shape
        k = self.ksize
        oh, ow = h - k + 1, w - k + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        # (b, c, oh, ow, k, k) -> (b*oh*ow, c*k*k)
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, c * k * k)
        return cols, oh, ow

    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[1] != self.weight.shape[1]:
            raise ShapeMismatchError(
                f"{self.name}: expected (batch, {self.weight.shape[1]}, H, W), got {x.shape}"
            )
        if self.padding:
            p = self.padding
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        self._x_shape = x.shape
        cols, oh, ow = self._im2col(x)
        self._cols = cols
        w_flat = self.weight.reshape(self.weight.shape[0], -1)
        out = cols @ w_flat.T + self.bias
        return out.reshape(x.shape[0], oh, ow, -1).transpose(0, 3, 1, 2)

    def backward(self, grad_out):
        b, oc, oh, ow = grad_out.shape
        g_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, oc)
        w_flat = self.weight.reshape(oc, -1)
        self.g_weight = (g_flat.T @ self._cols).reshape(self.weight.shape)
        self.g_bias = g_flat.sum(axis=0)

        g_cols = g_flat @ w_flat
        k = self.ksize
        _, c, h, w = self._x_shape
        gx = np.zeros(self._x_shape)
        g_cols = g_cols.reshape(b, oh, ow, c, k, k)
        for i in range(k):
            for j in range(k):
                gx[:, :, i:i + oh, j:j + ow] += g_cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        if self.padding:
            p = self.padding
            gx = gx[:, :, p:-p, p:-p]
        return gx


class Relu(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name
        self._mask = None

    def forward(self, x, training=False):
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        return grad_out * self._mask


class Swish(Layer):
    """x * sigmoid(x), the fixed-shape baseline."""

    def __init__(self, name: str = "swish"):
        self.name = name
        self._x = None
        self._sig = None

    def forward(self, x, training=False):
        self._x = x
        self._sig = 1.0 / (1.0 + np.exp(-x))
        return x * self._sig

    def backward(self, grad_out):
        s = self._sig
        return grad_out * (s + self._x * s * (1.0 - s))


class PwluActivation(Layer):
    """A bank of piecewise linear units with running input statistics.

    granularity "channel" keeps one unit per channel (axis 1 of the input);
    "layer" shares a single unit across the whole tensor.  While `frozen`,
    the optimizer step leaves the unit parameters untouched (gradients still
    flow to earlier layers).  While `collecting`, each training forward
    updates the running mean/std and the reservoir sample of every unit;
    `stop_collecting` ends that and frees the samples.

    The parameters of all units are stored once, as arrays over units:
    b_l, b_r, k_l, k_r of shape (U,) and y of shape (U, N+1), with
    velocities v_* and gradients g_* of the same shapes.  `units` is a
    read-only snapshot of them as PwluParams; `set_unit` writes one unit.
    So are `running_stats`, with (U,) mean and std, and the U streams of
    `reservoir`, which share one generator; `stats` is a read-only snapshot
    of them as RunningStats.
    """

    params = ("b_l", "b_r", "y", "k_l", "k_r")

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
        init = init_pwlu_relu(n_intervals, half_width)
        self.b_l = np.full(self.n_units, init.left_boundary)
        self.b_r = np.full(self.n_units, init.right_boundary)
        self.y = np.tile(init.y_points, (self.n_units, 1))
        self.k_l = np.full(self.n_units, init.left_slope)
        self.k_r = np.full(self.n_units, init.right_slope)
        for p in self.params:
            setattr(self, f"v_{p}", np.zeros_like(getattr(self, p)))
            # None until the first backward pass; step() does nothing before it.
            setattr(self, f"g_{p}", None)
        self.running_stats = RunningStats(np.zeros(self.n_units), np.ones(self.n_units))
        self.reservoir = Reservoir(RESERVOIR_CAPACITY if collecting else 0,
                                   seed=seed * 100003, streams=self.n_units)
        self.frozen = frozen
        self.collecting = collecting
        self._x = None

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

    def set_unit(self, u: int, params: PwluParams) -> None:
        """Overwrite unit u's parameters; its velocities are kept."""
        self.b_l[u] = params.left_boundary
        self.b_r[u] = params.right_boundary
        self.y[u] = params.y_points
        self.k_l[u] = params.left_slope
        self.k_r[u] = params.right_slope

    def stop_collecting(self) -> None:
        """End collection and free the reservoir samples; the generator keeps its state."""
        self.collecting = False
        # A fresh array: a zero-width view would keep the samples alive.
        self.reservoir.buffer = np.zeros((self.n_units, 0))

    def check_params(self) -> None:
        """Raise DegenerateParameterError for a non-finite parameter or a collapsed interval."""
        width = self.b_r - self.b_l
        # A finite width implies finite boundaries.
        finite = all(np.isfinite(a).all() for a in (width, self.y, self.k_l, self.k_r))
        if not finite or (width < MIN_BOUNDARY_WIDTH).any():
            raise DegenerateParameterError(
                f"{self.name}: non-finite parameters or a collapsed boundary interval"
            )

    def _to_columns(self, x):
        """Flatten to (elements, units): channel axis last, all else merged."""
        if self.granularity == "layer":
            return x.reshape(-1, 1)
        return np.moveaxis(x, 1, -1).reshape(-1, self.n_channels)

    def _from_columns(self, cols, like):
        if self.granularity == "layer":
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
        # index gather; the output stays non-finite and the trainer's loss
        # check reports the offending layer.
        raw[~np.isfinite(raw)] = 0.0
        seg = np.clip(np.floor(raw, out=raw), 0, n - 1, out=raw).astype(np.int64) + 1
        left, right = xc < self.b_l, xc >= self.b_r
        seg[left] = 0
        seg[right] = n + 1
        seg += np.arange(self.n_units) * (n + 2)
        return seg, left, right

    def forward(self, x, training=False):
        if self.granularity == "channel" and (x.ndim < 2 or x.shape[1] != self.n_channels):
            raise ShapeMismatchError(
                f"{self.name}: expected channel axis of size {self.n_channels}, got {x.shape}"
            )
        self._x = x
        xc = self._to_columns(x)
        if training and self.collecting:
            # Contiguous rows reduce in the same order as each unit's values alone.
            rows = np.ascontiguousarray(xc.T)
            self.running_stats = update_stats(self.running_stats, rows)
            self.reservoir.extend(rows)
        seg = self._segments(xc)[0]
        edges, slopes, heights = segment_table(self.b_l, self.b_r, self.y, self.k_l, self.k_r)
        out = (xc - edges.take(seg)) * slopes.take(seg) + heights.take(seg)
        return self._from_columns(out, x)

    def backward(self, grad_out):
        xc = self._to_columns(self._x)
        up = self._to_columns(grad_out)
        if xc.shape != up.shape:
            raise ShapeMismatchError(
                f"{self.name}: input shape {self._x.shape} != upstream {grad_out.shape}"
            )
        seg, left, right = self._segments(xc)
        edges, slopes, _ = segment_table(self.b_l, self.b_r, self.y, self.k_l, self.k_r)
        edge = edges.take(seg)
        b_l, b_r = self.b_l, self.b_r
        n = self.n_intervals
        width = b_r - b_l
        d = width / n
        mid = ~(left | right)

        grad_in = up * slopes.take(seg)
        moment = up * (xc - edge)  # outer slope partial; d times the upper height's weight

        # Each region's terms are selected, not multiplied by a 0/1 mask: an
        # infinite input must add nothing outside its region, not 0 * inf.
        up_l = np.where(left, up, 0.0).sum(axis=0)
        up_r = np.where(right, up, 0.0).sum(axis=0)
        self.g_b_l = (-self.k_l) * up_l \
            + np.where(mid, grad_in * (xc - b_r) / width, 0.0).sum(axis=0)
        self.g_b_r = (-self.k_r) * up_r \
            + np.where(mid, grad_in * (b_l - xc) / width, 0.0).sum(axis=0)
        self.g_k_l = np.where(left, moment, 0.0).sum(axis=0)
        self.g_k_r = np.where(right, moment, 0.0).sum(axis=0)

        # Height j of unit u is bin u*(N+2) + j + 1: an element's lower height is
        # its table index, its upper height the next (outer elements add zeros).
        # bincount adds in input order, all lower weights first, so runs sum alike.
        bins = self.n_units * (n + 2)
        g_y = np.bincount(
            np.concatenate((seg.ravel(), seg.ravel() + 1)),
            weights=np.concatenate((np.where(mid, up * (edge + d - xc) / d, 0.0).ravel(),
                                    np.where(mid, moment / d, 0.0).ravel())),
            minlength=bins)[:bins].reshape(-1, n + 2)[:, 1:]
        g_y[:, 0] += up_l
        g_y[:, n] += up_r
        self.g_y = g_y
        return self._from_columns(grad_in, grad_out)

    def step(self, lr, momentum, weight_decay):
        # Unit parameters never receive weight decay; decaying the heights
        # would bias every learned shape toward the zero function.
        if self.frozen or self.g_y is None:
            return
        super().step(lr, momentum, 0.0)
        # Keep the interval from collapsing under a large boundary step;
        # the floor is relative so it survives large magnitudes.
        min_width = np.maximum(1e-6, 1e-9 * (np.abs(self.b_l) + np.abs(self.b_r)))
        narrow = self.b_r - self.b_l < min_width
        if narrow.any():
            center = 0.5 * (self.b_l[narrow] + self.b_r[narrow])
            self.b_l[narrow] = center - 0.5 * min_width[narrow]
            self.b_r[narrow] = center + 0.5 * min_width[narrow]
        self.check_params()


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
    return grad / n


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
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return loss, logits

    def step(self, lr, momentum, weight_decay):
        for layer in self.layers:
            layer.step(lr, momentum, weight_decay)

    def predict(self, x):
        return self.forward(x, training=False).argmax(axis=1)

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


def build_mlp(widths: list[int], activation: str, rng: np.random.Generator,
              n_intervals: int = 16, granularity: str = "channel", half_width: float = 3.0,
              pwlu_frozen: bool = False, pwlu_collecting: bool = False,
              seed: int = 0) -> Model:
    """MLP with the chosen activation after every hidden linear layer."""
    layers: list[Layer] = []
    for i in range(len(widths) - 1):
        layers.append(Dense(widths[i], widths[i + 1], rng, name=f"dense{i}"))
        if i < len(widths) - 2:
            if activation == "relu":
                layers.append(Relu(name=f"relu{i}"))
            elif activation == "swish":
                layers.append(Swish(name=f"swish{i}"))
            elif activation == "pwlu":
                layers.append(
                    PwluActivation(
                        n_channels=widths[i + 1],
                        n_intervals=n_intervals,
                        granularity=granularity,
                        half_width=half_width,
                        frozen=pwlu_frozen,
                        collecting=pwlu_collecting,
                        seed=seed + i,
                        name=f"pwlu{i}",
                    )
                )
            else:
                raise ValueError(f"unknown activation {activation!r}")
    return Model(layers)

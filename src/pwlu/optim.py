"""SGD with momentum and the one-cycle cosine learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sgd_momentum_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
                      lr: float, momentum: float, weight_decay: float) -> None:
    """In-place heavy-ball update: v <- m*v + g; p <- p - lr*(v + wd*p).

    The gradient is spent: `grad` is the scratch in which the update is
    formed, so no temporary of the parameters' size is made, and it holds
    lr*(v + wd*p) afterwards.  Each product and sum is the formula's up to
    the order of its operands, so it has the formula's bits.

    With wd == 0 the decay term is not formed: p - lr*v has the bits of
    p - lr*(v + 0*p) for every finite p.  0*p is a zero, so adding it can change
    only the sign of a zero v, and only where p is +0 or positive; p minus
    either zero is p there.
    """
    velocity *= momentum
    velocity += grad
    if weight_decay:
        np.multiply(param, weight_decay, out=grad)
        grad += velocity
        grad *= lr
    else:
        np.multiply(velocity, lr, out=grad)
    param -= grad


@dataclass(frozen=True)
class TrainSchedule:
    """Iteration budget, realignment point, and the learning-rate curve.

    realign_iteration = 0 disables the statistics-driven reset (the
    fixed-initialization baseline).  The curve is a one-cycle cosine from
    base_lr down to 0 with a short linear warmup.
    """

    total_iterations: int
    realign_iteration: int
    base_lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    warmup_frac: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.total_iterations < 0:
            raise ValueError("total_iterations must be >= 0")
        ok = self.realign_iteration == 0 or (
            0 < self.realign_iteration < self.total_iterations
        )
        if not ok:
            raise ValueError(
                f"realign_iteration {self.realign_iteration} must lie in "
                f"[0, {self.total_iterations})"
            )

    def lr_at(self, t: int) -> float:
        if self.total_iterations == 0:
            return 0.0
        warm = max(1, round(self.warmup_frac * self.total_iterations))
        if t < warm:
            return self.base_lr * (t + 1) / warm
        span = max(1, self.total_iterations - warm)
        return float(0.5 * self.base_lr * (1.0 + np.cos(np.pi * (t - warm) / span)))

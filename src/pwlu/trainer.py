"""Two-phase training loop: freeze-and-collect, realign, then full gradient training."""

from __future__ import annotations

import csv

import numpy as np

from .errors import NonFiniteLossError
from .layers import Model
from .optim import TrainSchedule
from .stats import AlignmentReport, compute_iou


def iters_per_epoch(n_train: int, batch_size: int) -> int:
    """The iterations in one epoch: n_train // batch_size, and at least one."""
    return max(1, n_train // batch_size)


class Trainer:
    """Single-threaded step loop over a fixed dataset.

    Batches are drawn with replacement from one seeded generator, so the
    whole trajectory is a deterministic function of (model init, schedule,
    data).  When the schedule has a realignment point, every PWLU layer is
    expected to start frozen and collecting; at that iteration the units
    are reset from their running statistics and unfrozen, and their
    reservoir samples are freed.
    """

    def __init__(self, model: Model, schedule: TrainSchedule,
                 train_features: np.ndarray, train_labels: np.ndarray,
                 batch_size: int = 64,
                 test_features: np.ndarray | None = None,
                 test_labels: np.ndarray | None = None):
        self.model = model
        self.schedule = schedule
        self.train_features = train_features
        self.train_labels = train_labels
        self.test_features = test_features
        self.test_labels = test_labels
        self.batch_size = batch_size
        self.iters_per_epoch = iters_per_epoch(train_features.shape[0], batch_size)
        self.rng = np.random.default_rng(schedule.seed)
        self.t = 0
        self.epoch_loss_sum = 0.0
        self.epoch_loss_count = 0
        self.metrics: list[dict] = []
        self.pre_reports: list[AlignmentReport] = []
        self.post_reports: list[AlignmentReport] = []

    @staticmethod
    def _alignment_reports(layer, p05, p95) -> list[AlignmentReport]:
        columns = zip(layer.b_l.tolist(), layer.b_r.tolist(), p05, p95,
                      compute_iou((layer.b_l, layer.b_r), (p05, p95)))
        return [AlignmentReport(layer.name, u, *row) for u, row in enumerate(columns)]

    def realign_now(self) -> None:
        """Reset every PWLU unit from its running statistics, unfreeze, and end collection."""
        self.pre_reports, self.post_reports = [], []
        for layer in self.model.pwlu_layers():
            # Realignment frees the samples, so both reports share one sort taken before it.
            p05, p95 = layer.reservoir.percentile_interval()
            self.pre_reports += self._alignment_reports(layer, p05, p95)
            layer.realign()
            self.post_reports += self._alignment_reports(layer, p05, p95)

    def step(self) -> float:
        if self.schedule.realign_iteration > 0 and self.t == self.schedule.realign_iteration:
            self.realign_now()
        idx = self.rng.integers(0, self.train_features.shape[0], self.batch_size)
        xb = self.train_features[idx]
        yb = self.train_labels[idx]
        loss, logits = self.model.loss_and_backward(xb, yb)
        if not (np.isfinite(loss) and np.all(np.isfinite(logits))):
            layer = self.model.first_nonfinite_layer(xb) or "loss"
            raise NonFiniteLossError(layer, self.t)
        self.model.step(
            self.schedule.lr_at(self.t), self.schedule.momentum, self.schedule.weight_decay
        )
        self.epoch_loss_sum += loss
        self.epoch_loss_count += 1
        self.t += 1
        if self.t % self.iters_per_epoch == 0:
            self._record_epoch()
        return loss

    def _record_epoch(self) -> None:
        row = {
            "epoch": self.t // self.iters_per_epoch,
            "iteration": self.t,
            "train_loss": self.epoch_loss_sum / max(1, self.epoch_loss_count),
            "lr": self.schedule.lr_at(self.t - 1),
        }
        if self.test_features is not None:
            row["test_accuracy"] = self.model.accuracy(self.test_features, self.test_labels)
        self.metrics.append(row)
        self.epoch_loss_sum = 0.0
        self.epoch_loss_count = 0

    def run(self) -> list[dict]:
        while self.t < self.schedule.total_iterations:
            self.step()
        return self.metrics

    def write_metrics_csv(self, path) -> None:
        fields = ["epoch", "iteration", "train_loss", "lr"]
        if self.test_features is not None:
            fields.append("test_accuracy")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for row in self.metrics:
                writer.writerow([repr(row[f]) if isinstance(row[f], float) else row[f]
                                 for f in fields])

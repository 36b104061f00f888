"""Walkthrough: two-phase training on the spirals task.

Trains the same 2-32-32-2 network three ways (fixed ReLU, PWLU with fixed
wide boundaries, PWLU with statistic-based realignment) and prints the
alignment diagnostic around the realignment step.

Run:  python demos/train_spirals.py
"""

import numpy as np

from pwlu import TrainSchedule, Trainer, build_mlp, gen_spirals, standardize
from pwlu.trainer import iters_per_epoch

SEED = 0
EPOCHS = 60
BATCH = 64

train = gen_spirals(600, 0.02, SEED)
test = gen_spirals(600, 0.02, SEED + 100_000)
train, test = standardize(train, test)
ipe = iters_per_epoch(train.features.shape[0], BATCH)


def run(label, activation, half_width=3.0, realign=False):
    rng = np.random.default_rng(SEED)
    model = build_mlp([2, 32, 32, 2], activation, rng,
                      n_intervals=16, half_width=half_width,
                      pwlu_frozen=realign, pwlu_collecting=realign, seed=SEED)
    schedule = TrainSchedule(
        total_iterations=EPOCHS * ipe,
        realign_iteration=5 * ipe if realign else 0,
        base_lr=0.1, seed=SEED,
    )
    trainer = Trainer(model, schedule, train.features, train.labels,
                      batch_size=BATCH, test_features=test.features,
                      test_labels=test.labels)
    trainer.run()
    acc = model.accuracy(test.features, test.labels)
    print(f"{label:<28s} test accuracy {acc:.4f}")
    return trainer


run("relu", "relu")
run("pwlu fixed boundaries", "pwlu", half_width=10.0)
trainer = run("pwlu with realignment", "pwlu", realign=True)

print("\nboundary/percentile overlap around the realignment step:")
print(f"{'unit':<24s} {'pre IOU':>8s} {'post IOU':>9s}")
for pre, post in zip(trainer.pre_reports, trainer.post_reports):
    unit = f"{pre.layer_name}[{pre.unit_index}]"
    print(f"{unit:<24s} {pre.iou:8.3f} {post.iou:9.3f}")

"""Walkthrough: inspecting learned activation shapes.

Trains a small PWLU network, exports every unit's curve, and renders a
coarse ASCII sketch of each so the learned nonlinearity is visible without
a plotting stack. The same CSV/JSON pair feeds any plotting tool.

Run:  python demos/shape_gallery.py
"""

import tempfile
from pathlib import Path

import numpy as np

from pwlu import (TrainSchedule, Trainer, build_mlp, export_shapes,
                  forward_reference, gen_spirals, load_shape_params,
                  standardize)
from pwlu.trainer import iters_per_epoch

train = gen_spirals(300, 0.02, 0)
test = gen_spirals(300, 0.02, 100_000)
train, test = standardize(train, test)

model = build_mlp([2, 8, 2], "pwlu", np.random.default_rng(0), n_intervals=8,
                  pwlu_frozen=True, pwlu_collecting=True, seed=0)
ipe = iters_per_epoch(train.features.shape[0], 64)
schedule = TrainSchedule(total_iterations=40 * ipe, realign_iteration=5 * ipe,
                         base_lr=0.1, seed=0)
Trainer(model, schedule, train.features, train.labels, batch_size=64).run()

out = Path(tempfile.mkdtemp())
export_shapes(model, out / "shapes.csv", out / "shapes.json")
print(f"exported to {out}/shapes.csv (+ .json sidecar)\n")


def sketch(params, width=61, height=11):
    span = params.right_boundary - params.left_boundary
    xs = np.linspace(params.left_boundary - 0.2 * span,
                     params.right_boundary + 0.2 * span, width)
    ys = forward_reference(xs, params)
    lo, hi = ys.min(), ys.max()
    rows = np.round((ys - lo) / max(hi - lo, 1e-12) * (height - 1)).astype(int)
    canvas = [[" "] * width for _ in range(height)]
    for col, row in enumerate(rows):
        canvas[height - 1 - row][col] = "*"
    return "\n".join("".join(r) for r in canvas)


for layer, unit, params in load_shape_params(out / "shapes.json"):
    print(f"{layer} unit {unit}: boundaries "
          f"[{params.left_boundary:.2f}, {params.right_boundary:.2f}], "
          f"outer slopes ({params.left_slope:.2f}, {params.right_slope:.2f})")
    print(sketch(params))
    print()

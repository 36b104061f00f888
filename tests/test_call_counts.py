"""Calls per PWLU bank operation, per model step and per training iteration, at a
spirals shape, bounded.

At 64x32 a bank's cost is per call, not per element, so the number of calls
is the exact part of its cost.  A trained forward reads the segment table
that the model's step keeps, so the `iteration` row (a `loss_and_backward`
and a step of the spirals model) pins the net of the two.  Two more rows pin
the blocks of `forward_fused`: `infer` at the 1024x256 shape of a wide
predict runs eight and pins the calls each makes, and at the 1200x32 shape
of the spirals test-set eval, a little over one block's elements, it runs
one.  A call is counted by the rule of `demos/bank_bench.py` (`calls`): a
call instruction run in a frame of the `pwlu` package, after one warm-up
call.  Numpy functions, ufuncs and methods all count, whatever numpy
implements them in; what runs inside numpy or inside operators does not.
The count depends on the package's code, not on numpy's; the test names the
numpy and Python versions when it fails all the same.  A change that lowers
a count lowers its bound.
"""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

from pwlu import PwluActivation, build_mlp

BANK_BENCH = Path(__file__).resolve().parents[1] / "demos" / "bank_bench.py"

COUNTED_WITH = {"numpy": "2.4.6", "python": "3.11"}
# At most this many calls per operation of a 64x32 bank, per step and per
# iteration of the trained 2-32-32-2 spirals model, and per `infer` at two more shapes.
BOUNDS = {
    "forward": 13,
    "backward": 12,
    "step": 12,
    "frozen-forward": 13,
    "frozen-backward": 2,
    "infer": 17,
    "model-step": 28,
    "iteration": 108,
    "infer-1024x256": 66,
    "infer-1200x32": 17,
}


def load_calls():
    spec = importlib.util.spec_from_file_location("bank_bench", BANK_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calls


def ops():
    """Each operation of a trained and a frozen 64x32 bank, a step and an iteration
    of a trained spirals model and an infer at 1024x256 and 1200x32, ready to call again."""
    x = np.random.default_rng(0).normal(size=(64, 32))
    up = np.random.default_rng(1).normal(size=x.shape)
    trained = PwluActivation(32)
    frozen = PwluActivation(32, frozen=True)
    frozen.theta[:] = trained.theta
    trained.forward(x, training=True)
    trained.backward(up)
    frozen.forward(x, training=True)
    rng = np.random.default_rng(2)
    model = build_mlp([2, 32, 32, 2], "pwlu", rng)
    batch = rng.normal(size=(64, 2)), rng.integers(0, 2, 64)
    model.loss_and_backward(*batch)
    wide, x_wide = PwluActivation(256), rng.normal(size=(1024, 256))
    x_eval = rng.normal(size=(1200, 32))
    # lr 0: every call steps the same parameters
    return {
        "forward": lambda: trained.forward(x, training=True),
        "backward": lambda: trained.backward(up),
        "step": lambda: trained.step(0.0, 0.9, 0.0),
        "frozen-forward": lambda: frozen.forward(x, training=True),
        "frozen-backward": lambda: frozen.backward(up),
        "infer": lambda: trained.infer(x),
        "model-step": lambda: model.step(0.0, 0.9, 0.0),
        "iteration": lambda: (model.loss_and_backward(*batch), model.step(0.0, 0.9, 0.0)),
        "infer-1024x256": lambda: wide.infer(x_wide),
        "infer-1200x32": lambda: trained.infer(x_eval),
    }


@pytest.mark.parametrize("op", BOUNDS)
def test_bank_op_stays_within_its_call_count(op):
    calls = load_calls()
    fn = ops()[op]
    fn()  # warm-up
    count = calls(fn)
    env = {"numpy": np.__version__, "python": platform.python_version()}
    assert count <= BOUNDS[op], (
        f"{op}: {count} calls > bound {BOUNDS[op]} "
        f"(bounds counted with {COUNTED_WITH}, this run {env})")

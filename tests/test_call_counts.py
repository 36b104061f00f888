"""C-level calls per PWLU bank operation at a spirals shape, bounded.

At 64x32 a bank's cost is per call, not per element, so the number of
C-level calls is the exact part of its cost.  A call is counted by the rule
of `demos/bank_bench.py`: a `c_call` event of `sys.setprofile`, after one
warm-up call.  Ufuncs and numpy's C-level dispatchers (`np.concatenate`,
`np.bincount`, ...) make no such event, so the count depends on the numpy
and Python versions; the test names both when it fails.  A change that
lowers a count lowers its bound.
"""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

from pwlu import PwluActivation

BANK_BENCH = Path(__file__).resolve().parents[1] / "demos" / "bank_bench.py"

COUNTED_WITH = {"numpy": "2.4.6", "python": "3.11"}
# At most this many C-level calls per operation of a 64x32 bank.
BOUNDS = {
    "forward": 6,
    "backward": 13,
    "step": 8,
    "frozen-forward": 5,
    "frozen-backward": 0,
    "infer": 8,
}


def load_c_calls():
    spec = importlib.util.spec_from_file_location("bank_bench", BANK_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.c_calls


def bank_ops():
    """Each operation of a trained and a frozen 64x32 bank, ready to call again."""
    x = np.random.default_rng(0).normal(size=(64, 32))
    up = np.random.default_rng(1).normal(size=x.shape)
    trained = PwluActivation(32)
    frozen = PwluActivation(32, frozen=True)
    frozen.theta[:] = trained.theta
    trained.forward(x, training=True)
    trained.backward(up)
    frozen.forward(x, training=True)
    return {
        "forward": lambda: trained.forward(x, training=True),
        "backward": lambda: trained.backward(up),
        "step": lambda: trained.step(0.0, 0.9, 0.0),  # lr 0: every call steps the same theta
        "frozen-forward": lambda: frozen.forward(x, training=True),
        "frozen-backward": lambda: frozen.backward(up),
        "infer": lambda: trained.infer(x),
    }


@pytest.mark.parametrize("op", BOUNDS)
def test_bank_op_stays_within_its_call_count(op):
    c_calls = load_c_calls()
    fn = bank_ops()[op]
    fn()  # warm-up
    count = c_calls(fn)
    env = {"numpy": np.__version__, "python": platform.python_version()}
    assert count <= BOUNDS[op], (
        f"{op}: {count} C calls > bound {BOUNDS[op]} "
        f"(bounds counted with {COUNTED_WITH}, this run {env})")

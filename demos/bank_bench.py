"""Per-layer cost: Dense, ReLU and a PWLU bank, forward, backward and step.

For each shape (batch x channels) it prints the median microseconds of one
call and the number of calls it makes.  A call is a call instruction run in
a frame of the `pwlu` package (`calls`): a numpy function, ufunc, method or
package function called from the package's own code, whatever numpy
implements it in.  What runs inside numpy, or inside operators such as
`a - b`, is not counted, so the count is the Python-level overhead that
dominates small shapes.  The Dense layer maps channels to channels, as the
one that feeds a bank.  The step uses lr 0, so that every repeat steps the
same parameters.

The bank is trained (neither frozen nor collecting) for forward, backward and
step.  Two more rows time the paths that read the bank's kept tables, which
are built once per parameter write: `frozen-fwd`, the training forward of a
frozen bank that is not collecting, which is the collect phase's read of the
kept table without its statistics update, and `infer`, the fused inference
path (predict and eval).  1024x32 is the spirals predict batch.

Run:  python demos/bank_bench.py
"""

import dis
import sys
import time
from pathlib import Path

import numpy as np

import pwlu
from pwlu import Dense, PwluActivation, Relu

SHAPES = ((64, 32), (128, 256), (1024, 32))
REPEATS = 7  # medians over this many timed runs
MIN_RUN_SECONDS = 0.02  # each run repeats the call until at least this long

PACKAGE = str(Path(pwlu.__file__).resolve().parent)
# The call instructions of every CPython version since 3.10.
CALL_OPS = {dis.opmap[name] for name in ("CALL", "CALL_KW", "CALL_FUNCTION", "CALL_METHOD",
                                         "CALL_FUNCTION_KW", "CALL_FUNCTION_EX")
            if name in dis.opmap}


def calls(fn) -> int:
    """Call instructions run in pwlu frames while fn() runs (fn itself lies outside)."""
    count = 0

    def instructions(frame, event, arg):
        nonlocal count
        if event == "opcode" and frame.f_code.co_code[frame.f_lasti] in CALL_OPS:
            count += 1
        return instructions

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        frame.f_trace_opcodes = True
        return instructions

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def median_us(fn) -> float:
    """Median microseconds of one call of fn()."""
    fn()
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - start >= MIN_RUN_SECONDS:
            break
        loops *= 2
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        runs.append((time.perf_counter() - start) / loops)
    return float(np.median(runs)) * 1e6


def layer_calls(layer, x):
    """The layer's forward, backward and step (and a bank's two table readers),
    each ready to call again."""
    up = np.random.default_rng(1).normal(size=x.shape)
    layer.forward(x, training=True)
    layer.backward(up)
    calls = {
        "forward": lambda: layer.forward(x, training=True),
        "backward": lambda: layer.backward(up),
        "step": lambda: layer.step(0.0, 0.9, 0.0),
    }
    if isinstance(layer, PwluActivation):
        frozen = PwluActivation(layer.n_channels, frozen=True)
        frozen.theta[:] = layer.theta
        calls["frozen-fwd"] = lambda: frozen.forward(x, training=True)
        calls["infer"] = lambda: layer.infer(x)
    return calls


def main():
    print(f"{'shape':>9} {'layer':<5} {'op':<10} {'median us':>10} {'calls':>8}")
    for batch, channels in SHAPES:
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, channels))
        layers = {
            "dense": Dense(channels, channels, rng),
            "relu": Relu(),
            "pwlu": PwluActivation(channels),  # trained: not frozen, not collecting
        }
        for name, layer in layers.items():
            for op, fn in layer_calls(layer, x).items():
                print(f"{batch:>4}x{channels:<4} {name:<5} {op:<10} "
                      f"{median_us(fn):10.1f} {calls(fn):8d}")


if __name__ == "__main__":
    main()

"""Per-layer cost: Dense, ReLU and a trained PWLU bank, forward, backward and step.

For each shape (batch x channels) it prints the median microseconds of one
call and the number of C-level calls it makes.  A C call is a `c_call`
event of `sys.setprofile`: a builtin function or method called from Python.
Ufuncs are not builtin functions, so arithmetic on arrays counts nothing;
the count is the Python-level overhead that dominates small shapes.  The
Dense layer maps channels to channels, as the one that feeds a bank.  The
step uses lr 0, so that every repeat steps the same parameters.

Run:  python demos/bank_bench.py
"""

import sys
import time

import numpy as np

from pwlu import Dense, PwluActivation, Relu

SHAPES = ((64, 32), (128, 256))
REPEATS = 7  # medians over this many timed runs
MIN_RUN_SECONDS = 0.02  # each run repeats the call until at least this long


def c_calls(fn) -> int:
    """C-level calls made by fn(), without the profiler's own."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "c_call"

    def counted(f):
        nonlocal count
        count = 0
        sys.setprofile(profile)
        try:
            f()
        finally:
            sys.setprofile(None)
        return count

    return counted(fn) - counted(lambda: None)


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
    """The layer's forward, backward and step, each ready to call again."""
    up = np.random.default_rng(1).normal(size=x.shape)
    layer.forward(x, training=True)
    layer.backward(up)
    return {
        "forward": lambda: layer.forward(x, training=True),
        "backward": lambda: layer.backward(up),
        "step": lambda: layer.step(0.0, 0.9, 0.0),
    }


def main():
    print(f"{'shape':>9} {'layer':<5} {'op':<8} {'median us':>10} {'C calls':>8}")
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
                print(f"{batch:>4}x{channels:<4} {name:<5} {op:<8} "
                      f"{median_us(fn):10.1f} {c_calls(fn):8d}")


if __name__ == "__main__":
    main()

"""Golden outputs: the sha256 of what fixed CLI runs write, and of a fixed bank corpus.

A change that keeps every output's bits (a refactor, a speed-up) keeps this
test green.  A change that alters bits on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.  The hashes also depend on the numpy version and
on the BLAS kernels it picks, so the file records both and a failure names them.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from pwlu.cli import main
from pwlu.layers import PwluActivation

GOLDEN = Path(__file__).with_name("golden.json")

# Each command's output directory and its argv; "export" exports the seed-0 checkpoint.
RUNS = {
    "seed0": ["train", "--seed", "0"],
    "seed1-layer": ["train", "--seed", "1", "--granularity", "layer",
                    "--epochs", "12", "--t-prime-epochs", "2"],
    "sweep": ["sweep-n", "--n-list", "4,8"],
}
TRAIN_FILES = ("metrics.csv", "alignment_pre.csv", "alignment_post.csv", "checkpoint.bin")
# config.txt is left out: it names the output directory.
FILES = {
    "seed0": TRAIN_FILES,
    "seed1-layer": TRAIN_FILES,
    "sweep": ("sweep.csv", *(f"n{n}/{name}" for n in (4, 8) for name in TRAIN_FILES)),
    "export": ("shapes.csv", "shapes.json"),
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(key, "")) for key in
                        ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):  # numpy < 1.26 prints its config and returns None
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def output_hashes(root: Path) -> dict:
    """Run every command in RUNS and the export under root; the sha256 of each file in FILES."""
    for name, argv in RUNS.items():
        assert main([*argv, "--out", str(root / name)]) == 0, name
    assert main(["export", "--checkpoint", str(root / "seed0" / "checkpoint.bin"),
                 "--out", str(root / "export")]) == 0
    return {f"{run}/{name}": hashlib.sha256((root / run / name).read_bytes()).hexdigest()
            for run, names in FILES.items() for name in names}


def random_bank(rng: np.random.Generator):
    """A bank with random parameters and an input that hits every edge case.

    Each unit's column holds its grid points (boundaries included), +-inf and
    random values around its interval, and one row of NaN.  Half of the inputs
    are (B, C, H, W) tensors.
    """
    granularity = ("channel", "layer")[rng.integers(2)]
    channels = int(rng.integers(1, 7))
    n = 2 * int(rng.integers(1, 9))
    layer = PwluActivation(channels, n_intervals=n, granularity=granularity)
    units = layer.n_units
    layer.b_l[:] = rng.uniform(-4.0, 4.0, units)
    layer.b_r[:] = layer.b_l + rng.uniform(0.01, 8.0, units)
    layer.y[:] = rng.uniform(-4.0, 4.0, (units, n + 1))
    layer.k_l[:], layer.k_r[:] = rng.uniform(-4.0, 4.0, (2, units))
    columns = [np.concatenate([p.grid(), [p.right_boundary, np.inf, -np.inf],
                               rng.uniform(p.left_boundary - 2.0, p.right_boundary + 2.0,
                                           int(rng.integers(1, 9)))])
               for p in layer.units]
    rows = max(c.size for c in columns)
    x = np.stack([np.resize(c, rows) for c in columns], axis=1)
    x = np.concatenate([x, np.full((1, units), np.nan)])
    if granularity == "layer":
        x = np.resize(x.ravel(), (-(-x.size // channels), channels))
    if rng.integers(2):
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        batch = -(-x.shape[0] // (h * w))
        x = np.moveaxis(np.resize(x, (batch, h, w, channels)), -1, 1)
    return layer, x


def bank_corpus_hash(n_banks: int = 200, seed: int = 0) -> str:
    """One sha256 over forward, infer, grad_in and g_theta of frozen and trained banks."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    with np.errstate(over="ignore", invalid="ignore"):  # the inputs hold +-inf and NaN
        for _ in range(n_banks):
            layer, x = random_bank(rng)
            up = rng.normal(size=x.shape)
            for frozen in (True, False):
                layer.frozen = frozen
                out = layer.forward(x)
                grad_in = layer.backward(up)
                arrays = [out, layer.infer(x), grad_in]
                if not layer.frozen:
                    arrays.append(layer.g_theta)
                for arr in arrays:
                    digest.update(arr.tobytes())
    return digest.hexdigest()


def current_hashes(root: Path) -> dict:
    return {**output_hashes(root), "bank_corpus": bank_corpus_hash()}


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    recorded, current = golden["sha256"], current_hashes(tmp_path)
    differ = sorted(key for key in recorded.keys() | current.keys()
                    if recorded.get(key) != current.get(key))
    assert not differ, (f"differ from {GOLDEN.name}: {', '.join(differ)}; recorded with "
                        f"{golden['environment']}, now {environment()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = current_hashes(Path(tmp))
    GOLDEN.write_text(json.dumps({"environment": environment(), "sha256": hashes},
                                 indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(hashes)} hashes to {GOLDEN}\n")

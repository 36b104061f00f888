"""Dataset generation, IDX loading, and shape export round trips."""

import json
import struct

import numpy as np
import pytest

from pwlu.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    export_shapes,
    gen_spirals,
    load_idx,
    load_shape_params,
    standardize,
)
from pwlu.errors import BadMagicError, CountMismatchError, ShapeFileError, TruncatedPayloadError
from pwlu.kernel import forward_reference
from pwlu.layers import build_mlp


class TestSpirals:
    def test_counts_and_labels(self):
        ds = gen_spirals(100, 0.1, 0)
        assert ds.features.shape == (200, 2)
        assert ds.labels.shape == (200,)
        assert np.bincount(ds.labels).tolist() == [100, 100]
        assert ds.num_classes == 2

    def test_deterministic(self):
        a = gen_spirals(50, 0.05, 42)
        b = gen_spirals(50, 0.05, 42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_jitter(self):
        a = gen_spirals(50, 0.05, 1)
        b = gen_spirals(50, 0.05, 2)
        assert not np.array_equal(a.features, b.features)

    def test_single_point_per_class(self):
        ds = gen_spirals(1, 0.0, 0)
        assert ds.features.shape == (2, 2)
        # frac=0 for both points, classes differ only by the pi phase offset
        np.testing.assert_allclose(ds.features[0], -ds.features[1], atol=1e-12)

    def test_noise_zero_is_exact_curve(self):
        ds = gen_spirals(10, 0.0, 7)
        radii = np.hypot(ds.features[:, 0], ds.features[:, 1])
        frac = np.tile(np.arange(10) / 9.0, 2)
        np.testing.assert_allclose(radii, 0.2 + frac, atol=1e-12)


class TestStandardize:
    def test_train_moments(self):
        train = gen_spirals(200, 0.1, 0)
        test = gen_spirals(50, 0.1, 1)
        strain, stest = standardize(train, test)
        np.testing.assert_allclose(strain.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(strain.features.std(axis=0), 1.0, atol=1e-12)
        # test split shares the train transform, so its moments need not be 0/1
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)
        np.testing.assert_allclose(stest.features, (test.features - mean) / std)

    def test_constant_feature_left_centered(self):
        from pwlu.data import LabeledDataset

        feats = np.column_stack([np.full(30, 4.0), np.arange(30.0)])
        ds = LabeledDataset(feats, np.zeros(30, dtype=np.int64))
        out = standardize(ds)
        np.testing.assert_array_equal(out.features[:, 0], 0.0)


def write_idx_images(path, images):
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.size))
        fh.write(labels.astype(np.uint8).tobytes())


class TestIdxLoader:
    def make_pair(self, tmp_path, n=6):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(n, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        return ip, lp, images, labels

    def test_round_trip(self, tmp_path):
        ip, lp, images, labels = self.make_pair(tmp_path)
        ds = load_idx(str(ip), str(lp))
        assert ds.features.shape == (6, 12)
        np.testing.assert_allclose(ds.features,
                                   images.reshape(6, -1).astype(np.float64) / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_bad_magic(self, tmp_path):
        ip, lp, *_ = self.make_pair(tmp_path)
        raw = bytearray(ip.read_bytes())
        raw[3] ^= 0xFF
        ip.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_idx(str(ip), str(lp))

    def test_truncated_payload(self, tmp_path):
        ip, lp, *_ = self.make_pair(tmp_path)
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-5])
        with pytest.raises(TruncatedPayloadError):
            load_idx(str(ip), str(lp))

    def test_truncated_header(self, tmp_path):
        ip, lp, *_ = self.make_pair(tmp_path)
        ip.write_bytes(ip.read_bytes()[:10])
        with pytest.raises(TruncatedPayloadError):
            load_idx(str(ip), str(lp))

    def test_count_mismatch(self, tmp_path):
        ip, lp, *_ = self.make_pair(tmp_path)
        write_idx_labels(lp, np.zeros(5, dtype=np.uint8))
        with pytest.raises(CountMismatchError):
            load_idx(str(ip), str(lp))

    def test_fuzzed_headers_never_crash_raw(self, tmp_path):
        # corrupted headers must fail with the loader's own error types
        ip, lp, *_ = self.make_pair(tmp_path)
        good = ip.read_bytes()
        rng = np.random.default_rng(9)
        for _ in range(50):
            raw = bytearray(good)
            k = int(rng.integers(0, 16))
            raw[k] = int(rng.integers(0, 256))
            ip.write_bytes(bytes(raw))
            try:
                load_idx(str(ip), str(lp))
            except (BadMagicError, TruncatedPayloadError, CountMismatchError):
                pass


class TestShapeExport:
    def make_model(self):
        return build_mlp([2, 5, 2], "pwlu", np.random.default_rng(3), n_intervals=4)

    def test_round_trip(self, tmp_path):
        model = self.make_model()
        csv_path = tmp_path / "shapes.csv"
        json_path = tmp_path / "shapes.json"
        export_shapes(model, str(csv_path), str(json_path))

        entries = load_shape_params(str(json_path))
        units = [(layer.name, u, p)
                 for layer in model.pwlu_layers()
                 for u, p in enumerate(layer.units)]
        assert len(entries) == len(units) == 5
        for (name, u, orig), (ename, eu, loaded) in zip(units, entries):
            assert (name, u) == (ename, eu)
            assert loaded.left_boundary == orig.left_boundary
            assert loaded.right_boundary == orig.right_boundary
            np.testing.assert_array_equal(loaded.y_points, orig.y_points)

    def test_csv_points_lie_on_curve(self, tmp_path):
        import csv as csv_mod

        model = self.make_model()
        csv_path = tmp_path / "shapes.csv"
        json_path = tmp_path / "shapes.json"
        export_shapes(model, str(csv_path), str(json_path))
        by_key = {(layer.name, u): p
                  for layer in model.pwlu_layers()
                  for u, p in enumerate(layer.units)}
        with open(csv_path) as fh:
            rows = list(csv_mod.DictReader(fh))
        assert rows
        seen_outside = False
        for row in rows:
            p = by_key[(row["layer"], int(row["unit"]))]
            x, y = float(row["x"]), float(row["y"])
            assert y == forward_reference(np.array([x]), p)[0]
            if x < p.left_boundary or x > p.right_boundary:
                seen_outside = True
        assert seen_outside  # export must cover the outer-slope regions

    @pytest.mark.parametrize("corrupt", [
        lambda path: path.write_text(json.dumps(
            [{k: v for k, v in e.items() if k != "right_slope"}
             for e in json.loads(path.read_text())])),
        lambda path: path.write_text("not json"),
        lambda path: path.write_text('{"layer": "pwlu1", "unit": 0}'),
        lambda path: path.unlink(),
        lambda path: path.write_text(json.dumps(
            [{**e, "y_points": e["y_points"][:-1]} for e in json.loads(path.read_text())])),
    ], ids=["missing_field", "not_json", "top_level_object", "missing_file", "short_y_points"])
    def test_malformed_sidecar_rejected(self, tmp_path, corrupt):
        json_path = tmp_path / "s.json"
        export_shapes(self.make_model(), str(tmp_path / "s.csv"), str(json_path))
        corrupt(json_path)
        with pytest.raises(ShapeFileError, match="s.json"):
            load_shape_params(str(json_path))

    def test_json_is_plain_data(self, tmp_path):
        model = self.make_model()
        export_shapes(model, str(tmp_path / "s.csv"), str(tmp_path / "s.json"))
        entries = json.loads((tmp_path / "s.json").read_text())
        assert all(isinstance(e["y_points"], list) for e in entries)

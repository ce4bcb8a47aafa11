"""Checkpoint file round trips, byte determinism, and corruption handling."""

import numpy as np
import pytest

from mobicast.errors import CheckpointError, NumericsError
from mobicast.params import clone_params, load_params, save_params
from mobicast.rng import Rng


def random_params(seed, n_tensors=5):
    rng = Rng(seed)
    out = {}
    for k in range(n_tensors):
        r = 1 + int(rng.random() * 6)
        c = 1 + int(rng.random() * 6)
        out[f"t{k}.w"] = rng.normal((r, c))
    return out


class TestCloneParams:
    def test_clone_is_deep(self):
        params = {"a": np.ones((2, 2))}
        cl = clone_params(params)
        cl["a"][0, 0] = 7.0
        assert params["a"][0, 0] == 1.0


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        params = random_params(3)
        buffers = {"bn.mean": np.zeros((1, 4)), "bn.var": np.ones((1, 4))}
        meta = {"epoch": 17, "val_error": 2.5, "config": {"hidden": 64}}
        save_params(path, params, buffers, meta)
        p2, b2, m2 = load_params(path)
        assert m2 == meta
        assert p2.keys() == params.keys() and b2.keys() == buffers.keys()
        for name in params:
            np.testing.assert_array_equal(p2[name], params[name])
        for name in buffers:
            np.testing.assert_array_equal(b2[name], buffers[name])

    def test_bytes_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        params = random_params(4)
        save_params(a, params, {}, {"k": 1})
        save_params(b, dict(reversed(list(params.items()))), {}, {"k": 1})
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_rejects_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"NOT-A-CHECKPOINT")
        with pytest.raises(CheckpointError, match="magic"):
            load_params(path)

    def test_rejects_truncated_blob(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_params(path, {"w": np.ones((3, 3))}, {}, {})
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-8])
        with pytest.raises(CheckpointError, match="blob too short"):
            load_params(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_params(path, {"w": np.ones((2, 2))}, {}, {})
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 16)
        with pytest.raises(CheckpointError, match="trailing"):
            load_params(path)

    def test_rejects_future_version(self, tmp_path):
        import json
        path = str(tmp_path / "model.ckpt")
        save_params(path, {}, {}, {})
        with open(path, "rb") as fh:
            raw = fh.read()
        magic_len = raw.index(b"\n") + 1
        hlen = int.from_bytes(raw[magic_len:magic_len + 8], "little")
        header = json.loads(raw[magic_len + 8:magic_len + 8 + hlen])
        header["format_version"] = 99
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        with open(path, "wb") as fh:
            fh.write(raw[:magic_len])
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
        with pytest.raises(CheckpointError, match="format_version"):
            load_params(path)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_rejects_version_that_is_not_an_int(self, tmp_path, version):
        import json
        path = str(tmp_path / "model.ckpt")
        save_params(path, {}, {}, {})
        with open(path, "rb") as fh:
            raw = fh.read()
        magic_len = raw.index(b"\n") + 1
        hlen = int.from_bytes(raw[magic_len:magic_len + 8], "little")
        header = json.loads(raw[magic_len + 8:magic_len + 8 + hlen])
        header["format_version"] = version   # equal to 1 in Python, not a JSON 1
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        with open(path, "wb") as fh:
            fh.write(raw[:magic_len])
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
        with pytest.raises(CheckpointError, match=f"format_version {version!r}"):
            load_params(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_params(str(tmp_path / "nope.ckpt"))

    def test_refuses_non_finite(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        with pytest.raises(NumericsError):
            save_params(path, {"w": np.array([[np.nan]])}, {}, {})

"""Checkpoint container tests: layout, endianness, corruption handling."""

import struct
from pathlib import Path

import numpy as np
import pytest

from vidtext.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from vidtext.errors import DataError


@pytest.fixture
def sample(tmp_path):
    arrays = {
        "w": np.arange(6.0).reshape(2, 3),
        "b": np.array([1.5]),
        "scalar": np.array(3.25),
    }
    meta = {"model_kind": "pretrain", "step": 7, "config": {"d": 16}}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays, meta)
    return path, arrays, meta


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, sample):
        path, arrays, meta = sample
        loaded, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == np.float64

    def test_layout_is_little_endian_with_magic_and_version(self, sample):
        path, arrays, _ = sample
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert struct.unpack("<I", raw[4:8])[0] == FORMAT_VERSION
        hlen = struct.unpack("<Q", raw[8:16])[0]
        # first payload array is "b" (names are sorted); little-endian 1.5
        assert raw[16 + hlen : 24 + hlen] == struct.pack("<d", 1.5)

    def test_save_is_deterministic(self, sample, tmp_path):
        path, arrays, meta = sample
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, arrays, meta)
        assert again.read_bytes() == path.read_bytes()


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, sample):
        path, _, _ = sample
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, sample):
        path, _, _ = sample
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, sample):
        path, _, _ = sample
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_short_preamble(self, sample):
        path, _, _ = sample
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, sample):
        path, _, _ = sample
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(DataError, match="after its last array"):
            load_checkpoint(path)


def with_header(path, header: bytes, payload: bytes = b"") -> None:
    path.write_bytes(
        MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(header)) + header + payload
    )


@pytest.mark.parametrize(
    "header",
    [
        b"{not json",
        b"\xff\xfe\x00",
        b"[]",
        b'{"meta": {}}',
        b'{"arrays": []}',
        b'{"meta": [], "arrays": []}',
        b'{"meta": {}, "arrays": [{"name": "w"}]}',
        b'{"meta": {}, "arrays": [{"shape": [2]}]}',
        b'{"meta": {}, "arrays": ["w"]}',
        b'{"meta": {}, "arrays": [{"name": 3, "shape": [1]}]}',
        b'{"meta": {}, "arrays": [{"name": "w", "shape": [-1]}]}',
        b'{"meta": {}, "arrays": [{"name": "w", "shape": [1.5]}]}',
        b'{"meta": {}, "arrays": [{"name": "w", "shape": 2}]}',
    ],
)
def test_malformed_header_is_a_data_error(tmp_path, header):
    path = tmp_path / "bad.ckpt"
    with_header(path, header, b"\0" * 16)
    with pytest.raises(DataError, match="malformed header"):
        load_checkpoint(path)


def test_well_formed_header_still_loads(tmp_path):
    path = tmp_path / "ok.ckpt"
    with_header(path, b'{"meta": {"step": 1}, "arrays": [{"name": "w", "shape": [2]}]}',
                struct.pack("<2d", 1.0, 2.0))
    arrays, meta = load_checkpoint(path)
    assert meta == {"step": 1}
    np.testing.assert_array_equal(arrays["w"], [1.0, 2.0])


class TestAtomicSave:
    def test_failed_save_leaves_previous_file_and_no_temp(self, sample, monkeypatch):
        path, arrays, meta = sample
        before = path.read_bytes()
        real_open = Path.open

        class FailingWriter:
            """Raises on the fifth write, after the preamble and header."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 5:
                    raise OSError("no space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

        monkeypatch.setattr(Path, "open", lambda self, *a, **k: FailingWriter(real_open(self, *a, **k)))
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, {**arrays, "w": arrays["w"] + 1.0}, {**meta, "step": 8})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_save_replaces_an_existing_file(self, sample):
        path, arrays, meta = sample
        save_checkpoint(path, {"x": np.ones(2)}, {"step": 9})
        loaded, loaded_meta = load_checkpoint(path)
        assert loaded_meta == {"step": 9} and list(loaded) == ["x"]
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

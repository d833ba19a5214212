import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from ptqtune import (GraphError, QuantConfig, build_cache, load_cache, load_dataset,
                     load_model, load_quantized, make_dataset, quantize_model,
                     run_quantized, save_cache, save_dataset, save_model, save_quantized)
from ptqtune import container
from ptqtune.container import (MAGIC, VERSION, canonical_json, file_format,
                               read_container, write_container)


def test_round_trip_preserves_bytes_and_header(tmp_path):
    path = tmp_path / "x.qtm"
    bufs = [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.array([-5, 0, 7], dtype=np.int8),
        np.array([2 ** 40], dtype=np.int64),
    ]
    header = {"nested": {"a": [1, 2]}}
    write_container(str(path), "qtm", header, bufs)
    h2, bufs2 = read_container(str(path), "qtm")
    assert h2 == {"nested": {"a": [1, 2]}}
    assert len(bufs2) == 3
    for a, b in zip(bufs, bufs2):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_buffers_are_written_as_raw_little_endian_bytes(tmp_path):
    """The file is the preamble, the header and each buffer's C-order
    little-endian bytes, whatever the order and byte order of the arrays
    written; each comes back writable, in native byte order."""
    path = tmp_path / "b.qtm"
    bufs = [np.arange(12, dtype=">f4").reshape(3, 4), np.arange(6, dtype=np.int64)[::2],
            np.asfortranarray(np.arange(6, dtype=np.int16).reshape(2, 3)),
            np.zeros((0, 3), np.int8), np.array([True, False])]
    write_container(str(path), "qtm", {}, bufs)
    blob = canonical_json({"buffers": [{"dtype": a.dtype.newbyteorder("<").name,
                                        "shape": list(a.shape)} for a in bufs],
                           "format": "qtm", "version": VERSION})
    data = b"".join(np.asarray(a, a.dtype.newbyteorder("<")).tobytes() for a in bufs)
    assert path.read_bytes() == MAGIC + b"HDR %d\n" % len(blob) + blob + data
    _, back = read_container(str(path), "qtm")
    for a, b in zip(bufs, back):
        assert b.dtype.isnative and b.flags.writeable and b.shape == a.shape
        assert np.array_equal(a, b)


def test_a_buffer_of_objects_is_rejected(tmp_path):
    path = tmp_path / "o.qtm"
    write_container(str(path), "qtm", {}, [np.zeros(2, np.int64)])
    for dtype in ("object", "O,i4"):
        rewrite_header(path, lambda h: h["buffers"][0].update(dtype=dtype))
        with pytest.raises(ValueError, match="holds objects"):
            read_container(str(path), "qtm")


def test_a_short_read_is_rejected(tmp_path):
    """A file that is shorter than its size said when it was opened (it
    shrank while being read) raises ValueError."""
    path = tmp_path / "s.qtm"
    write_container(str(path), "qtm", {}, [np.zeros(1000, dtype=np.float32)])
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-100])
    with mock.patch.object(container.os, "fstat",
                           return_value=SimpleNamespace(st_size=size)), \
            pytest.raises(ValueError, match="truncated buffer payload"):
        read_container(str(path), "qtm")


def test_magic_is_first_bytes(tmp_path):
    path = tmp_path / "m.qtm"
    write_container(str(path), "qtm", {}, [])
    assert path.read_bytes().startswith(MAGIC)


def test_empty_file_is_malformed(tmp_path):
    path = tmp_path / "empty.qtm"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        read_container(str(path), "qtm")


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.qtm"
    path.write_bytes(b"NOPE\n" + b"x" * 64)
    with pytest.raises(ValueError):
        read_container(str(path), "qtm")


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.qtm"
    write_container(str(path), "qtm", {}, [np.zeros(1000, dtype=np.float32)])
    raw = path.read_bytes()
    path.write_bytes(raw[:-100])
    with pytest.raises(ValueError):
        read_container(str(path), "qtm")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.qtm"
    write_container(str(path), "qtm", {}, [np.zeros(10, dtype=np.float32)])
    path.write_bytes(path.read_bytes() + b"garbage!")
    with pytest.raises(ValueError, match="8 bytes after the last buffer"):
        read_container(str(path), "qtm")


def test_reserved_header_key_rejected(tmp_path):
    for key in ("format", "version", "meta", "buffers"):
        with pytest.raises(ValueError, match="reserved"):
            write_container(str(tmp_path / "r.qtm"), "qtm", {key: []}, [])


def test_big_endian_input_reads_back_equal(tmp_path):
    path = tmp_path / "be.qtm"
    be = np.arange(5, dtype=">f4")
    write_container(str(path), "qtm", {}, [be])
    _, (out,) = read_container(str(path), "qtm")
    assert np.array_equal(out.astype(np.float64), be.astype(np.float64))


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the container at ``path`` in
    place, keeping its buffers, as a file written by other code would."""
    raw = path.read_bytes()
    line_end = raw.index(b"\n", len(MAGIC)) + 1
    header_end = line_end + int(raw[len(MAGIC) + 4:line_end - 1])
    header = json.loads(raw[line_end:header_end])
    edit(header)
    blob = canonical_json(header)
    path.write_bytes(MAGIC + b"HDR %d\n" % len(blob) + blob + raw[header_end:])


def test_envelope_is_written_once_and_meta_read_back(tmp_path):
    path = tmp_path / "e.qtm"
    write_container(str(path), "qtm", {"payload": 1}, [], meta={"seed": 3})
    h, _ = read_container(str(path), "qtm")
    assert h == {"payload": 1, "meta": {"seed": 3}}
    for meta in (None, {}):
        write_container(str(path), "qtm", {"payload": 1}, [], meta=meta)
        assert read_container(str(path), "qtm")[0] == {"payload": 1}
        assert path.read_bytes().endswith(
            b'{"buffers":[],"format":"qtm","payload":1,"version":%d}' % VERSION)


@pytest.mark.parametrize("version", [VERSION + 1, 0, True, float(VERSION), str(VERSION), None])
def test_other_version_rejected(tmp_path, version):
    path = tmp_path / "v.qtm"
    write_container(str(path), "qtm", {}, [])
    rewrite_header(path, lambda h: h.pop("version") if version is None
                   else h.update(version=version))
    with pytest.raises(ValueError, match="version"):
        read_container(str(path), "qtm")


def test_other_format_rejected_and_file_format_reads_the_tag(tmp_path):
    path = tmp_path / "f.qds"
    write_container(str(path), "qds", {}, [np.zeros(3)])
    assert file_format(str(path)) == "qds"
    with pytest.raises(ValueError, match="format 'qds' is not 'qtm'"):
        read_container(str(path), "qtm")
    path.write_bytes(b"NOPE\n")
    with pytest.raises(ValueError):
        file_format(str(path))


def test_loaders_reject_another_version(tmp_path, lenet, ds):
    cache = build_cache(lenet, ds, "S1", seed=0)
    qg = quantize_model(lenet, cache, QuantConfig(cache="S1"))
    formats = [
        ("m.qtm", lambda p: save_model(lenet, p), load_model, GraphError),
        ("d.qds", lambda p: save_dataset(make_dataset(n_calib=2, n_eval=2), p),
         load_dataset, ValueError),
        ("c.qcal", lambda p: save_cache(cache, p), load_cache, ValueError),
        ("q.qtm8", lambda p: save_quantized(qg, p), load_quantized, ValueError),
    ]
    for name, save, load, error in formats:
        path = tmp_path / name
        for edit in (lambda h: h.update(version=2), lambda h: h.pop("version")):
            save(str(path))
            load(str(path))
            rewrite_header(path, edit)
            with pytest.raises(error, match="version"):
                load(str(path))


def test_canonical_json_is_key_sorted_and_stable():
    a = canonical_json({"b": 1, "a": {"z": 0, "y": [1, 2]}})
    b = canonical_json({"a": {"y": [1, 2], "z": 0}, "b": 1})
    assert a == b
    assert a.index(b'"a"') < a.index(b'"b"')


def test_loaders_reject_corrupt_files_with_value_error_only(tmp_path, lenet, ds):
    cache = build_cache(lenet, ds, "S1", seed=0)
    qg = quantize_model(lenet, cache, QuantConfig(cache="S1", mixed="FirstLastFp32"))
    formats = [
        ("m.qtm", lambda p: save_model(lenet, p), load_model, GraphError),
        ("d.qds", lambda p: save_dataset(make_dataset(n_calib=2, n_eval=2), p),
         load_dataset, ValueError),
        ("c.qcal", lambda p: save_cache(cache, p), load_cache, ValueError),
        ("q.qtm8", lambda p: save_quantized(qg, p), load_quantized, ValueError),
    ]
    images = ds.eval_images[:2]
    rng = np.random.default_rng(17)
    for name, save, load, error in formats:
        path = tmp_path / name
        save(str(path))
        raw = path.read_bytes()
        path.write_bytes(raw + b"garbage!")
        with pytest.raises(error, match="8 bytes after the last buffer"):
            load(str(path))
        line_end = raw.index(b"\n", len(MAGIC)) + 1
        header_end = line_end + int(raw[len(MAGIC) + 4:line_end - 1])
        variants = [raw[:n] for n in rng.integers(0, len(raw), size=60)]
        for bit in rng.integers(0, 8 * header_end, size=300):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            variants.append(bytes(flipped))
        for data in variants:
            path.write_bytes(data)
            try:
                loaded = load(str(path))
            except error:
                continue
            if load is load_quantized:
                # a graph that loads names only tensors that exist and runs
                # on images of its declared input shape; only images of
                # another shape may fail, and then with ValueError
                try:
                    with np.errstate(all="ignore"):
                        run_quantized(loaded, images)
                except KeyError as e:
                    pytest.fail(f"loaded .qtm8 has a dangling name: {e!r}")
                except ValueError:
                    if tuple(loaded.graph.input_shape) == images.shape[1:]:
                        raise

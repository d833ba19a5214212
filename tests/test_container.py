import numpy as np
import pytest

from ptqtune import (GraphError, QuantConfig, build_cache, load_cache, load_dataset,
                     load_model, load_quantized, make_dataset, quantize_model,
                     run_quantized, save_cache, save_dataset, save_model, save_quantized)
from ptqtune.container import MAGIC, canonical_json, read_container, write_container


def test_round_trip_preserves_bytes_and_header(tmp_path):
    path = tmp_path / "x.qtm"
    bufs = [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.array([-5, 0, 7], dtype=np.int8),
        np.array([2 ** 40], dtype=np.int64),
    ]
    header = {"format": "qtm", "version": 1, "nested": {"a": [1, 2]}}
    write_container(str(path), header, bufs)
    h2, bufs2 = read_container(str(path))
    assert h2["format"] == "qtm"
    assert h2["nested"] == {"a": [1, 2]}
    assert len(bufs2) == 3
    for a, b in zip(bufs, bufs2):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_magic_is_first_bytes(tmp_path):
    path = tmp_path / "m.qtm"
    write_container(str(path), {"format": "qtm"}, [])
    assert path.read_bytes().startswith(MAGIC)


def test_empty_file_is_malformed(tmp_path):
    path = tmp_path / "empty.qtm"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        read_container(str(path))


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.qtm"
    path.write_bytes(b"NOPE\n" + b"x" * 64)
    with pytest.raises(ValueError):
        read_container(str(path))


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.qtm"
    write_container(str(path), {"format": "qtm"}, [np.zeros(1000, dtype=np.float32)])
    raw = path.read_bytes()
    path.write_bytes(raw[:-100])
    with pytest.raises(ValueError):
        read_container(str(path))


def test_reserved_header_key_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_container(str(tmp_path / "r.qtm"), {"buffers": []}, [])


def test_big_endian_input_reads_back_equal(tmp_path):
    path = tmp_path / "be.qtm"
    be = np.arange(5, dtype=">f4")
    write_container(str(path), {"format": "qtm"}, [be])
    _, (out,) = read_container(str(path))
    assert np.array_equal(out.astype(np.float64), be.astype(np.float64))


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

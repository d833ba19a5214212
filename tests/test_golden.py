"""Golden digests of the quantized executors.

For each model below, every Generic and IntegerOnly configuration on the S1
and S2 caches runs on 16 eval images, and each group of outputs is folded
into one SHA-256, so that a failure names the model and the group that
moved:

  run_quantized     logits, and the ``return_codes`` bytes or error
  run_integer_only  codes or error, for the IntegerOnly configurations
  optrace           both ``OpTrace`` event lists
  sink              every ``run_quantized`` sink value, cast to float64 so
                    that the carrier's dtype does not enter the digest
  qtm8              the ``save_quantized`` bytes
  qcal              the ``save_cache`` bytes of the S1, S2 and S3 caches
  kl_ranges         ``clipped_range(h, "KL")`` as float64 bytes, for every
                    tensor of the S1, S2 and S3 caches

The fp32 steps (calibration, mixed-precision layers) run through BLAS, so
the digest file records the numpy version and BLAS build it was made with;
on any other the test fails and names the mismatch.  Regenerating the file
is a behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ptqtune import (OpTrace, build_cache, clipped_range, enumerate_space,
                     generate_fixture, make_dataset, quantize_model, run_integer_only,
                     run_quantized, save_cache, save_quantized)
from ptqtune.quantize import GENERIC, INTEGER_ONLY
from test_intexec import concat_graph

DIGESTS = Path(__file__).parent / "golden_digests.json"
GROUPS = ("run_quantized", "run_integer_only", "optrace", "sink", "qtm8",
          "qcal", "kl_ranges")
RECIPES = ("lenet-ish", "resnet-toy", "mobile-toy",
           "conv+relu+maxpool+dwconv+relu+pwconv+avgpool+fc",
           "conv+avgpool+conv+relu+fc+relu+fc+softmax",
           "conv+fc")
MODELS = RECIPES + ("concat",)
N_IMAGES = 16


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def golden_configs():
    """Every Generic and IntegerOnly config on S1/S2, Generic first."""
    seen = enumerate_space(GENERIC)
    seen += [c for c in enumerate_space(INTEGER_ONLY) if c not in seen]
    return [c for c in seen if c.cache in ("S1", "S2")]


def _model(name: str):
    return concat_graph() if name == "concat" else generate_fixture(name, seed=1)


def _array(h, a: np.ndarray) -> None:
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def _outcome(h, fn) -> None:
    """Fold ``fn()``'s array, or its exception type and message, into ``h``."""
    try:
        out = fn()
    except Exception as e:  # noqa: BLE001 - the error is the pinned outcome
        h.update(f"{type(e).__name__}: {e}".encode())
        return
    _array(h, out)


def digests(g, d) -> dict[str, str]:
    hs = {name: hashlib.sha256() for name in GROUPS}
    images = d.eval_images[:N_IMAGES]
    caches = {c: build_cache(g, d, c, seed=0) for c in ("S1", "S2", "S3")}
    with tempfile.TemporaryDirectory() as tmp:
        for size_class, cache in caches.items():
            path = os.path.join(tmp, f"{size_class}.qcal")
            save_cache(cache, path)
            hs["qcal"].update(Path(path).read_bytes())
            for tid in sorted(cache.histograms):
                hs["kl_ranges"].update(tid.encode())
                _array(hs["kl_ranges"],
                       np.array(clipped_range(cache.histograms[tid], "KL"), dtype=np.float64))
        for cfg in golden_configs():
            key = json.dumps(cfg.to_dict(), sort_keys=True).encode()
            for h in hs.values():
                h.update(key)
            qg = quantize_model(g, caches[cfg.cache], cfg)
            trace = OpTrace()

            def sink(t, v):
                hs["sink"].update(t.encode())
                _array(hs["sink"], np.asarray(v, dtype=np.float64))

            _array(hs["run_quantized"], run_quantized(qg, images, trace=trace, sink=sink))
            _outcome(hs["run_quantized"], lambda: run_quantized(qg, images, return_codes=True))
            hs["optrace"].update(trace.to_csv().encode())
            if INTEGER_ONLY.contains(cfg):
                itrace = OpTrace()
                _outcome(hs["run_integer_only"],
                         lambda: run_integer_only(qg, images, trace=itrace))
                hs["optrace"].update(itrace.to_csv().encode())
            path = os.path.join(tmp, "model.qtm8")
            save_quantized(qg, path)
            hs["qtm8"].update(Path(path).read_bytes())
    return {name: h.hexdigest() for name, h in hs.items()}


@pytest.fixture(scope="module")
def pinned():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = environment()
    assert want["environment"] == got, (
        f"digests were made under {want['environment']}, this is {got}; "
        "the fp32 steps may round differently here")
    return want


@pytest.mark.parametrize("name", MODELS)
def test_executor_outputs_match_golden_digests(name, pinned, ds):
    got = digests(_model(name), ds)
    moved = [grp for grp in GROUPS if got[grp] != pinned["models"][name][grp]]
    assert not moved, f"{name}: digests changed for {moved}"


def main() -> None:
    d = make_dataset(seed=0)
    out = {"environment": environment(),
           "images": N_IMAGES,
           "configs": len(golden_configs()),
           "models": {name: digests(_model(name), d) for name in MODELS}}
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

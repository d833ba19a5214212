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

Beside them, five lenet-ish campaigns (budget 24, seed 0, Generic space,
200 eval images), one per strategy, pin the config, ``top1`` and
``error_msg`` of every trial, in order; xgb-t transfers from a resnet-toy
grid campaign of the same budget.  For xgb and xgb-t the ``save_gbt``
bytes of the last surrogate trained are pinned as a SHA-256.

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
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ptqtune import (OpTrace, build_cache, clipped_range, enumerate_space,
                     extract_features, generate_fixture, make_accuracy_evaluator,
                     make_dataset, quantize_model, run_integer_only, run_quantized,
                     run_strategy, save_cache, save_gbt, save_quantized)
from ptqtune import gbt
from ptqtune.quantize import GENERIC, INTEGER_ONLY
from ptqtune.tuner import STRATEGIES
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
CAMPAIGN = {"model": "lenet-ish", "transfer_model": "resnet-toy",
            "transfer_strategy": "grid", "budget": 24, "seed": 0}


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


@contextmanager
def trained_surrogates():
    """Collect every model ``gbt.train`` returns while the block runs."""
    models = []
    train = gbt.train

    def recording(*args, **kwargs):
        models.append(train(*args, **kwargs))
        return models[-1]

    gbt.train = recording
    try:
        yield models
    finally:
        gbt.train = train


def _trial(r) -> str:
    return f"{'/'.join(map(str, r.config.to_dict().values()))} {r.top1!r} {r.error_msg}"


def campaigns(d) -> dict[str, dict]:
    """Per strategy, the trial rows of its ``CAMPAIGN`` and, for the guided
    ones, the SHA-256 of the last surrogate's ``save_gbt`` bytes."""
    space = enumerate_space(GENERIC)
    budget, seed = CAMPAIGN["budget"], CAMPAIGN["seed"]

    def run(strategy, model, seed_db=None):
        g = generate_fixture(model, seed=1)
        evaluate = make_accuracy_evaluator(g, d, seed=seed, profile=GENERIC)
        return run_strategy(strategy, extract_features(g), space, evaluate, budget=budget,
                            seed=seed, seed_db=seed_db, model_name=g.name)

    transfer = run(CAMPAIGN["transfer_strategy"], CAMPAIGN["transfer_model"])
    out = {"transfer": {"trials": [_trial(r) for r in transfer.trials], "surrogate": None}}
    with tempfile.TemporaryDirectory() as tmp:
        for strategy in STRATEGIES:
            with trained_surrogates() as models:
                res = run(strategy, CAMPAIGN["model"],
                          transfer.trials if strategy == "xgb-t" else None)
            surrogate = None
            if models:
                path = os.path.join(tmp, "surrogate.json")
                save_gbt(models[-1], path)
                surrogate = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            out[strategy] = {"trials": [_trial(r) for r in res.trials],
                             "surrogate": surrogate}
    return out


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


@pytest.fixture(scope="module")
def campaigns_run(ds):
    return campaigns(ds)


@pytest.mark.parametrize("strategy", ("transfer",) + STRATEGIES)
def test_campaigns_match_golden_trials(strategy, pinned, campaigns_run):
    assert {k: pinned["campaigns"][k] for k in CAMPAIGN} == CAMPAIGN
    got, want = campaigns_run[strategy], pinned["campaigns"]["strategies"][strategy]
    assert len(got["trials"]) == len(want["trials"])
    moved = [i + 1 for i, (a, b) in enumerate(zip(got["trials"], want["trials"])) if a != b]
    assert not moved, f"{strategy}: trials {moved} changed, first {got['trials'][moved[0] - 1]}"
    assert got["surrogate"] == want["surrogate"], f"{strategy}: the last surrogate changed"


def main() -> None:
    d = make_dataset(seed=0)
    out = {"environment": environment(),
           "images": N_IMAGES,
           "configs": len(golden_configs()),
           "models": {name: digests(_model(name), d) for name in MODELS},
           "campaigns": {**CAMPAIGN, "strategies": campaigns(d)}}
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

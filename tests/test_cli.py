"""End-to-end command-line workflow on a small generated workspace."""

import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from ptqtune import (OpTrace, Scheme, TuningRecord, build_cache, evaluate_quantized,
                     load_dataset, load_db, load_model, load_quantized, make_dataset,
                     quantize_model, recipe_feature_counts, record_db, run_quantized,
                     save_dataset, save_quantized)
from ptqtune.cli import main
from ptqtune.container import read_container
from ptqtune.quantize import QuantConfig


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with generated fixtures and a small eval split."""
    root = tmp_path_factory.mktemp("cli-ws")
    rc = main(["gen-fixtures", "--out", str(root), "--seed", "1",
               "--n-calib", "260", "--n-eval", "40"])
    assert rc == 0
    return root


def run_ok(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


def test_gen_fixtures_writes_models_dataset_manifest(ws):
    manifest = json.loads((ws / "manifest.json").read_text())
    assert set(manifest["models"]) == {"lenet-ish-s1", "resnet-toy-s1", "mobile-toy-s1"}
    assert (ws / "dataset.qds").exists()
    for name in manifest["models"].values():
        g = load_model(str(ws / name))
        assert g.output_classes == 10
    d = load_dataset(str(ws / "dataset.qds"))
    assert len(d.eval_images) == 40


def test_calibrate_then_quantize_then_eval_matches_in_process(ws, capsys):
    model = str(ws / "lenet-ish-s1.qtm")
    dataset = str(ws / "dataset.qds")
    cache_p = str(ws / "lenet.qcal")
    run_ok(capsys, "calibrate", "--model", model, "--dataset", dataset,
           "--size-class", "S2", "--seed", "0", "--out", cache_p)

    q_p = str(ws / "lenet.qtm8")
    out = run_ok(capsys, "quantize", "--model", model, "--cache-file", cache_p,
                 "--scheme", "Asymmetric", "--out", q_p)
    report = json.loads(out.strip().splitlines()[-1])
    assert report["config"]["scheme"] == "Asymmetric"

    out = run_ok(capsys, "eval", "--model", q_p, "--dataset", dataset)
    cli_top1 = float(out.split()[1])

    g = load_model(model)
    d = load_dataset(dataset)
    cache = build_cache(g, d, "S2", seed=0)
    qg = quantize_model(g, cache, QuantConfig(cache="S2", scheme=Scheme.Asymmetric))
    in_process = evaluate_quantized(qg, d).top1
    assert cli_top1 == pytest.approx(in_process, abs=1e-4)


def test_eval_fp32_model(ws, capsys):
    out = run_ok(capsys, "eval", "--model", str(ws / "lenet-ish-s1.qtm"),
                 "--dataset", str(ws / "dataset.qds"))
    assert out.startswith("top1 ")
    assert out.strip().endswith("on 40 images")


def test_eval_on_an_empty_split_fails(ws, tmp_path, capsys):
    g = load_model(str(ws / "lenet-ish-s1.qtm"))
    cache = build_cache(g, load_dataset(str(ws / "dataset.qds")), "S1", seed=0)
    q_p = str(tmp_path / "p2.qtm8")
    save_quantized(quantize_model(g, cache, QuantConfig(cache="S1",
                                                        scheme=Scheme.SymmetricPower2)), q_p)
    empty = str(tmp_path / "empty.qds")
    save_dataset(make_dataset(n_calib=1, n_eval=0), empty)
    for argv in (["--model", str(ws / "lenet-ish-s1.qtm")], ["--model", q_p],
                 ["--model", q_p, "--integer-only"]):
        rc = main(["eval", "--dataset", empty, *argv])
        assert rc == 1
        assert "empty batch" in capsys.readouterr().err


def test_integer_only_eval_and_trace(ws, capsys):
    model = str(ws / "lenet-ish-s1.qtm")
    dataset = str(ws / "dataset.qds")
    cache_p = str(ws / "lenet-s1.qcal")
    run_ok(capsys, "calibrate", "--model", model, "--dataset", dataset,
           "--size-class", "S1", "--seed", "0", "--out", cache_p)
    q_p = str(ws / "lenet-p2.qtm8")
    run_ok(capsys, "quantize", "--model", model, "--cache-file", cache_p,
           "--scheme", "SymmetricPower2",
           "--profile", "integer-only", "--out", q_p)

    trace_p = ws / "trace.csv"
    out = run_ok(capsys, "eval", "--model", q_p, "--dataset", dataset,
                 "--integer-only", "--trace", str(trace_p))
    int_top1 = float(out.split()[1])
    lines = trace_p.read_text().strip().splitlines()
    assert lines[0] == "node,category"
    cats = {line.split(",")[1] for line in lines[1:]}
    assert cats.isdisjoint({"float_mul", "float_add", "float_kernel"})

    out = run_ok(capsys, "eval", "--model", q_p, "--dataset", dataset)
    assert float(out.split()[1]) == pytest.approx(int_top1, abs=1e-9)


def test_simulated_eval_traces_the_one_full_run(ws, capsys):
    model = str(ws / "lenet-ish-s1.qtm")
    dataset = str(ws / "dataset.qds")
    cache_p = str(ws / "lenet-trace.qcal")
    run_ok(capsys, "calibrate", "--model", model, "--dataset", dataset,
           "--size-class", "S1", "--seed", "0", "--out", cache_p)
    q_p = str(ws / "lenet-trace.qtm8")
    run_ok(capsys, "quantize", "--model", model, "--cache-file", cache_p, "--out", q_p)

    trace_p = ws / "trace-sim.csv"
    out = run_ok(capsys, "eval", "--model", q_p, "--dataset", dataset,
                 "--trace", str(trace_p))
    assert float(out.split()[1]) == float(run_ok(capsys, "eval", "--model", q_p,
                                                 "--dataset", dataset).split()[1])
    assert out.strip().endswith("on 40 images")
    # events are per node, not per image: one image traces the same CSV
    qg, d = load_quantized(q_p), load_dataset(dataset)
    one = OpTrace()
    run_quantized(qg, d.eval_images[:1], trace=one)
    assert trace_p.read_text() == one.to_csv()
    assert one.events


def test_quantize_takes_the_size_class_from_the_cache_file(ws, capsys):
    model, cache_p, q_p = (str(ws / f) for f in ("lenet-ish-s1.qtm", "s2.qcal", "s2.qtm8"))
    run_ok(capsys, "calibrate", "--model", model, "--dataset", str(ws / "dataset.qds"),
           "--size-class", "S2", "--seed", "0", "--out", cache_p)
    out = run_ok(capsys, "quantize", "--model", model, "--cache-file", cache_p, "--out", q_p)
    assert json.loads(out.strip().splitlines()[-1])["config"]["cache"] == "S2"
    assert load_quantized(q_p).config.cache == "S2"

    never = ws / "never.qtm8"
    rc = main(["quantize", "--model", model, "--cache-file", cache_p,
               "--profile", "integer-only", "--scheme", "Asymmetric", "--out", str(never)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "not allowed by profile IntegerOnly" in err
    assert not never.exists()  # failed commands leave no artifacts


def test_tune_grid_full_budget_covers_the_space(ws, capsys):
    out_dir = ws / "tune-grid"
    run_ok(capsys, "tune", "--model", str(ws / "lenet-ish-s1.qtm"),
           "--dataset", str(ws / "dataset.qds"), "--strategy", "grid",
           "--budget", "96", "--workers", "4", "--out", str(out_dir))
    records = load_db(str(out_dir / "db.jsonl"))
    assert len(records) == 97  # fp32 baseline row + 96 trials
    assert records[0].config is None
    configs = {r.config for r in records[1:]}
    assert len(configs) == 96
    result = json.loads((out_dir / "result.json").read_text())
    assert result["n_trials"] == 96
    assert result["best_top1"] == max(r.top1 for r in records[1:])
    assert 1 <= result["trials_to_best"] <= 96


def check_campaign(out_dir, budget):
    """One baseline row, ``budget`` distinct trials numbered 1..budget, and a
    ``result.json`` that agrees with them."""
    records = load_db(str(out_dir / "db.jsonl"))
    assert [r.config is None for r in records] == [True] + [False] * budget
    trials = records[1:]
    assert [r.trial for r in trials] == list(range(1, budget + 1))
    assert len({r.config for r in trials}) == budget
    result = json.loads((out_dir / "result.json").read_text())
    best = max(r.top1 for r in trials)
    assert result["n_trials"] == budget
    assert result["best_top1"] == best
    assert result["trials_to_best"] == next(r.trial for r in trials if r.top1 == best)
    return records, result


def test_tune_twice_into_one_directory_rewrites_the_db(ws, tmp_path, capsys):
    out_dir = tmp_path / "tune-twice"
    for seed in ("1", "2"):
        run_ok(capsys, "tune", "--model", str(ws / "lenet-ish-s1.qtm"),
               "--dataset", str(ws / "dataset.qds"), "--strategy", "random",
               "--budget", "3", "--seed", seed, "--out", str(out_dir))
    _, result = check_campaign(out_dir, 3)
    assert json.loads((out_dir / "manifest.json").read_text())["flags"]["seed"] == 2
    assert result["flags"]["seed"] == 2


def test_tune_xgb_t_transfers_from_another_models_db(ws, tmp_path, capsys):
    # campaigns outside ws, which the convergence report walks
    donor = tmp_path / "tune-donor"
    run_ok(capsys, "tune", "--model", str(ws / "lenet-ish-s1.qtm"),
           "--dataset", str(ws / "dataset.qds"), "--strategy", "grid",
           "--budget", "8", "--out", str(donor))
    check_campaign(donor, 8)
    out_dir = tmp_path / "tune-xgb-t"
    run_ok(capsys, "tune", "--model", str(ws / "resnet-toy-s1.qtm"),
           "--dataset", str(ws / "dataset.qds"), "--strategy", "xgb-t",
           "--budget", "4", "--seed", "3", "--transfer-db", str(donor / "db.jsonl"),
           "--out", str(out_dir))
    records, result = check_campaign(out_dir, 4)
    assert {r.model_name for r in records} == {"resnet-toy-s1"}
    assert result["strategy"] == "xgb-t"
    assert result["flags"]["transfer_db"] == str(donor / "db.jsonl")


def test_every_artifact_echoes_its_flags_under_meta(ws, capsys):
    manifest = json.loads((ws / "manifest.json").read_text())
    flags = manifest["flags"]
    assert flags["seed"] == 1 and flags["n_eval"] == 40
    for name in manifest["models"].values():
        assert read_container(str(ws / name), "qtm")[0]["meta"] == flags
    assert read_container(str(ws / "dataset.qds"), "qds")[0]["meta"] == flags

    model = str(ws / "mobile-toy-s1.qtm")
    dataset = str(ws / "dataset.qds")
    cache_p = str(ws / "mobile-meta.qcal")
    run_ok(capsys, "calibrate", "--model", model, "--dataset", dataset,
           "--size-class", "S1", "--seed", "4", "--out", cache_p)
    assert read_container(cache_p, "qcal")[0]["meta"] == {
        "model": model, "dataset": dataset, "size_class": "S1", "seed": 4, "out": cache_p}

    q_p = str(ws / "mobile-meta.qtm8")
    run_ok(capsys, "quantize", "--model", model, "--cache-file", cache_p,
           "--clipping", "KL", "--profile", "generic", "--out", q_p)
    meta = read_container(q_p, "qtm8")[0]["meta"]
    flags = QuantConfig(cache="S1", clipping="KL").to_dict()
    del flags["cache"]  # taken from the cache file, not a flag
    assert meta == {"model": model, "cache_file": cache_p, "profile": "generic",
                    "out": q_p, **flags}


def test_tune_checks_the_request_before_calibrating(ws, tmp_path, capsys):
    with mock.patch("ptqtune.cli.make_accuracy_evaluator",
                    side_effect=AssertionError("calibrated")):
        rc = main(["tune", "--model", str(ws / "lenet-ish-s1.qtm"),
                   "--dataset", str(ws / "dataset.qds"), "--strategy", "xgb-t",
                   "--budget", "4", "--out", str(tmp_path / "never")])
    assert rc == 1
    assert capsys.readouterr().err == "error: xgb-t requires a transfer database\n"
    assert not (tmp_path / "never").exists()


def test_tune_rejects_a_transfer_db_without_features_before_calibrating(ws, tmp_path, capsys):
    db = tmp_path / "bare.jsonl"
    record_db(str(db), [TuningRecord("donor", None, QuantConfig(), 0.5, 0.0, 1)])
    assert json.loads(db.read_text())["features"] is None
    with mock.patch("ptqtune.tuner.build_cache") as calibrate:
        rc = main(["tune", "--model", str(ws / "lenet-ish-s1.qtm"),
                   "--dataset", str(ws / "dataset.qds"), "--strategy", "xgb-t",
                   "--budget", "4", "--transfer-db", str(db), "--out", str(tmp_path / "never")])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: xgb-t transfer records of trials [1] have no model features\n"
    assert not (tmp_path / "never").exists()
    calibrate.assert_not_called()


def test_tune_rejects_a_transfer_db_with_a_count_that_is_not_an_integer(ws, tmp_path, capsys):
    # before, a null count passed the request check and raised a TypeError
    # inside the picker, after all three caches were calibrated
    db = tmp_path / "null.jsonl"
    feats = recipe_feature_counts("resnet-toy")
    record_db(str(db), [TuningRecord("donor", feats, QuantConfig(), 0.5, 0.0, 1)])
    db.write_text(db.read_text().replace(f'"n_nodes": {feats.n_nodes}', '"n_nodes": null'))
    with mock.patch("ptqtune.tuner.build_cache") as calibrate:
        rc = main(["tune", "--model", str(ws / "lenet-ish-s1.qtm"),
                   "--dataset", str(ws / "dataset.qds"), "--strategy", "xgb-t",
                   "--budget", "4", "--transfer-db", str(db), "--out", str(tmp_path / "never")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {db}:1: not a tuning record")
    assert not (tmp_path / "never").exists()
    calibrate.assert_not_called()


def test_tune_rejects_a_transfer_db_with_a_count_a_float_cannot_hold(ws, tmp_path, capsys):
    # before, the surrogate's float encoding of such a count raised an
    # OverflowError inside the picker, after all three caches were calibrated
    db = tmp_path / "huge.jsonl"
    feats = recipe_feature_counts("resnet-toy")
    record_db(str(db), [TuningRecord("donor", feats, QuantConfig(), 0.5, 0.0, 1)])
    db.write_text(db.read_text().replace(f'"n_nodes": {feats.n_nodes}', f'"n_nodes": {10**400}'))
    with mock.patch("ptqtune.tuner.build_cache") as calibrate:
        rc = main(["tune", "--model", str(ws / "lenet-ish-s1.qtm"),
                   "--dataset", str(ws / "dataset.qds"), "--strategy", "xgb-t",
                   "--budget", "4", "--transfer-db", str(db), "--out", str(tmp_path / "never")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {db}:1: not a tuning record")
    assert not (tmp_path / "never").exists()
    calibrate.assert_not_called()

def test_gen_fixtures_rejects_a_nan_noise_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "ws"
    rc = main(["gen-fixtures", "--out", str(out), "--n-calib", "2", "--n-eval", "2",
               "--noise", "nan"])
    assert rc == 1
    assert capsys.readouterr().err == "error: noise nan is not a finite number >= 0\n"
    assert not out.exists() or not any(out.iterdir())


def test_tune_rejects_fewer_than_one_worker_before_calibrating(ws, tmp_path, capsys):
    with mock.patch("ptqtune.cli.make_accuracy_evaluator",
                    side_effect=AssertionError("calibrated")):
        rc = main(["tune", "--model", str(ws / "lenet-ish-s1.qtm"),
                   "--dataset", str(ws / "dataset.qds"), "--strategy", "grid",
                   "--budget", "4", "--workers", "0", "--out", str(tmp_path / "never")])
    assert rc == 1
    assert capsys.readouterr().err == "error: workers 0 is not >= 1\n"
    assert not (tmp_path / "never").exists()


def test_tune_budget_validation(ws, capsys):
    rc = main(["tune", "--model", str(ws / "lenet-ish-s1.qtm"),
               "--dataset", str(ws / "dataset.qds"), "--strategy", "grid",
               "--budget", "97", "--out", str(ws / "never")])
    assert rc == 1
    assert "budget" in capsys.readouterr().err


def test_analyze_entropy_and_convergence(ws, tmp_path, capsys):
    run_ok(capsys, "tune", "--model", str(ws / "lenet-ish-s1.qtm"),
           "--dataset", str(ws / "dataset.qds"), "--strategy", "grid",
           "--budget", "8", "--out", str(tmp_path / "tune-grid"))
    out = run_ok(capsys, "analyze", "entropy",
                 "--db", str(tmp_path / "tune-grid" / "db.jsonl"))
    lines = out.strip().splitlines()
    assert lines[0].startswith("dimension,entropy_bits")
    assert len(lines) == 6

    out = run_ok(capsys, "analyze", "convergence", "--results", str(tmp_path))
    rows = out.strip().splitlines()
    assert rows[0].startswith("strategy,runs")
    assert any(r.startswith("grid,1,") for r in rows)


def test_unknown_flag_fails_with_usage(ws, capsys):
    rc = main(["eval", "--model", "x", "--dataset", "y", "--frobnicate"])
    err = capsys.readouterr().err
    assert rc != 0
    assert "usage:" in err


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ptqtune.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "quantize" in proc.stdout and "tune" in proc.stdout

"""Command-line entry point.

Wires the library into the two-phase workflow: calibrate -> quantize or
tune -> evaluate -> analyze.  Every command takes its randomness from an
explicit ``--seed`` and echoes its flags into the artifacts it writes, so
any output can be regenerated from its own metadata.  Exit code is 0 only
when the requested artifact was fully produced; on failure the partial
outputs are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .analysis import convergence_report, diversity_report
from .calibration import SIZE_CLASSES, build_cache, load_cache, save_cache
from .container import file_format
from .dataset import load_dataset, make_dataset, save_dataset
from .fixtures import FIXTURE_RECIPES, generate_fixture
from .fp32 import evaluate_top1, top1_from_scores
from .intexec import OpTrace, run_integer_only, run_quantized
from .ir import extract_features, load_model, save_model
from .quantize import (DIMENSIONS, QuantConfig, _plain, load_quantized, model_size,
                       quantize_model, save_quantized)
from .tuner import (PROFILES, STRATEGIES, TuningRecord, _check_request, enumerate_space,
                    load_db, make_accuracy_evaluator, record_db, run_strategy)


class _Artifacts:
    """Tracks files created by a command so failures leave nothing behind."""

    def __init__(self):
        self.paths: list[str] = []

    def note(self, path: str) -> str:
        self.paths.append(path)
        return path

    def discard(self) -> None:
        for p in self.paths:
            try:
                os.remove(p)
            except OSError:
                pass


def _flags(args: argparse.Namespace) -> dict:
    skip = {"func", "command", "analysis"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_json(path: str, payload: dict, arts: _Artifacts) -> None:
    arts.note(path)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_text(path: str, text: str, arts: _Artifacts) -> None:
    arts.note(path)
    with open(path, "w") as f:
        f.write(text)


def _emit(text: str, out: str | None, arts: _Artifacts) -> None:
    if out:
        _write_text(out, text, arts)
    else:
        sys.stdout.write(text)


def cmd_gen_fixtures(args, arts: _Artifacts) -> None:
    d = make_dataset(n_calib=args.n_calib, n_eval=args.n_eval,
                     seed=args.seed, noise=args.noise)
    os.makedirs(args.out, exist_ok=True)
    flags = _flags(args)
    produced = {}
    for recipe in args.recipes:
        g = generate_fixture(recipe, seed=args.seed)
        path = os.path.join(args.out, f"{g.name}.qtm")
        save_model(g, path, meta=flags)
        arts.note(path)
        produced[g.name] = os.path.basename(path)
    ds_path = os.path.join(args.out, "dataset.qds")
    save_dataset(d, ds_path, meta=flags)
    arts.note(ds_path)
    manifest = {"command": "gen-fixtures", "flags": flags,
                "models": produced, "dataset": os.path.basename(ds_path),
                "written_at": time.time()}
    _write_json(os.path.join(args.out, "manifest.json"), manifest, arts)
    print(f"wrote {len(produced)} models + dataset to {args.out}")


def cmd_calibrate(args, arts: _Artifacts) -> None:
    g = load_model(args.model)
    d = load_dataset(args.dataset)
    cache = build_cache(g, d, args.size_class, seed=args.seed)
    arts.note(args.out)
    save_cache(cache, args.out, meta=_flags(args))
    print(f"calibrated {len(cache.histograms)} tensors "
          f"({args.size_class}={SIZE_CLASSES[args.size_class]} images) -> {args.out}")


def cmd_quantize(args, arts: _Artifacts) -> None:
    g = load_model(args.model)
    cache = load_cache(args.cache_file)
    cfg = QuantConfig(cache=cache.size_class,
                      **{name: getattr(args, name) for name in DIMENSIONS if name != "cache"})
    profile = PROFILES[args.profile] if args.profile else None
    qg = quantize_model(g, cache, cfg, profile=profile)
    arts.note(args.out)
    save_quantized(qg, args.out, meta=_flags(args))
    report = {"model": g.name, "config": cfg.to_dict(),
              "size_bytes": model_size(qg), "out": args.out}
    print(json.dumps(report, sort_keys=True))


def _load_any_model(path: str):
    """Return ('fp32', Graph) or ('int8', QuantizedGraph) based on the header."""
    fmt = file_format(path)
    if fmt == "qtm":
        return "fp32", load_model(path)
    if fmt == "qtm8":
        return "int8", load_quantized(path)
    raise ValueError(f"{path}: container format {fmt!r} is not a model")


def cmd_eval(args, arts: _Artifacts) -> None:
    kind, model = _load_any_model(args.model)
    d = load_dataset(args.dataset)
    report = {"model_path": args.model, "kind": kind, "flags": _flags(args)}
    if kind == "fp32":
        if args.trace or args.integer_only:
            raise ValueError("--trace/--integer-only need a quantized model")
        res = evaluate_top1(model, d)
        report["model"] = model.name
    else:
        report["model"] = model.graph.name
        report["config"] = model.config.to_dict()
        trace = OpTrace() if args.trace else None
        if args.integer_only:
            scores = run_integer_only(model, d.eval_images, trace=trace).astype("float32")
        else:
            scores = run_quantized(model, d.eval_images, trace=trace)
        res = top1_from_scores(scores, d.eval_labels)
        if args.trace:
            _write_text(args.trace, trace.to_csv(), arts)
            report["trace"] = args.trace
    report["top1"] = res.top1
    report["n_evaluated"] = res.n_evaluated
    if args.out:
        _write_json(args.out, report, arts)
    print(f"top1 {res.top1:.4f} on {res.n_evaluated} images")


def cmd_tune(args, arts: _Artifacts) -> None:
    g = load_model(args.model)
    d = load_dataset(args.dataset)
    profile = PROFILES[args.profile]
    space = enumerate_space(profile)
    seed_db = load_db(args.transfer_db) if args.transfer_db else None
    features = extract_features(g)
    _check_request(args.strategy, features, space, args.budget, seed_db,
                   args.workers)  # before calibrating
    evaluate = make_accuracy_evaluator(g, d, seed=args.seed, profile=profile)
    baseline = evaluate_top1(g, d)
    result = run_strategy(args.strategy, features, space, evaluate,
                          budget=args.budget, seed=args.seed, seed_db=seed_db,
                          model_name=g.name, workers=args.workers)

    os.makedirs(args.out, exist_ok=True)
    db_path = os.path.join(args.out, "db.jsonl")
    arts.note(db_path)
    baseline_row = TuningRecord(model_name=g.name, features=features,
                                config=None, top1=baseline.top1,
                                timestamp=time.time(), trial=0)
    record_db(db_path, [baseline_row] + result.trials)
    flags = _flags(args)
    _write_json(os.path.join(args.out, "result.json"), {
        "strategy": result.strategy,
        "best_config": result.best_config.to_dict(),
        "best_top1": result.best_top1,
        "trials_to_best": result.trials_to_best,
        "n_trials": len(result.trials),
        "baseline_top1": baseline.top1,
        "flags": flags,
    }, arts)
    _write_json(os.path.join(args.out, "manifest.json"), {
        "command": "tune", "flags": flags,
        "outputs": ["db.jsonl", "result.json"],
        "written_at": time.time(),
    }, arts)
    print(f"{result.strategy}: best top1 {result.best_top1:.4f} "
          f"(baseline {baseline.top1:.4f}) at trial {result.trials_to_best} "
          f"of {len(result.trials)} -> {args.out}")


def cmd_analyze(args, arts: _Artifacts) -> None:
    if args.analysis == "entropy":
        report = diversity_report(load_db(args.db), threshold_pts=args.threshold)
        _emit(report.to_csv(), args.out, arts)
        return
    # convergence: gather result.json files under --results
    rows = []
    for root, _dirs, files in sorted(os.walk(args.results)):
        if "result.json" in files:
            with open(os.path.join(root, "result.json")) as f:
                rows.append(json.load(f))
    if not rows:
        raise ValueError(f"no result.json files under {args.results}")
    _emit(convergence_report(rows), args.out, arts)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ptqtune",
                                description="post-training int8 quantization "
                                            "with auto-tuned configurations")
    sub = p.add_subparsers(dest="command", required=True)

    gf = sub.add_parser("gen-fixtures", help="generate toy models + dataset")
    gf.add_argument("--out", required=True)
    gf.add_argument("--seed", type=int, default=1)
    gf.add_argument("--recipes", nargs="+", default=list(FIXTURE_RECIPES))
    gf.add_argument("--n-calib", type=int, default=300)
    gf.add_argument("--n-eval", type=int, default=200)
    gf.add_argument("--noise", type=float, default=0.25)
    gf.set_defaults(func=cmd_gen_fixtures)

    ca = sub.add_parser("calibrate", help="build an activation-histogram cache")
    ca.add_argument("--model", required=True)
    ca.add_argument("--dataset", required=True)
    ca.add_argument("--size-class", choices=sorted(SIZE_CLASSES), default="S3")
    ca.add_argument("--seed", type=int, default=0)
    ca.add_argument("--out", required=True)
    ca.set_defaults(func=cmd_calibrate)

    qz = sub.add_parser("quantize", help="quantize a model under one config")
    qz.add_argument("--model", required=True)
    qz.add_argument("--cache-file", required=True)
    defaults = QuantConfig().to_dict()
    for name, values in DIMENSIONS.items():  # one flag per dimension
        if name == "cache":  # the size class stored in --cache-file
            continue
        if isinstance(defaults[name], bool):
            qz.add_argument(f"--{name}", action="store_true")
        else:
            qz.add_argument(f"--{name}", choices=[_plain(v) for v in values],
                            default=defaults[name])
    qz.add_argument("--profile", choices=sorted(PROFILES), default=None)
    qz.add_argument("--out", required=True)
    qz.set_defaults(func=cmd_quantize)

    ev = sub.add_parser("eval", help="top-1 accuracy of a model (.qtm or .qtm8)")
    ev.add_argument("--model", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--trace", default=None,
                    help="write the operation trace of one forward pass as CSV")
    ev.add_argument("--integer-only", action="store_true",
                    help="run the integer-only path (requires an eligible model)")
    ev.add_argument("--out", default=None, help="write the report as JSON")
    ev.set_defaults(func=cmd_eval)

    tu = sub.add_parser("tune", help="search the configuration space")
    tu.add_argument("--model", required=True)
    tu.add_argument("--dataset", required=True)
    tu.add_argument("--profile", choices=sorted(PROFILES), default="generic")
    tu.add_argument("--strategy", choices=STRATEGIES, default="xgb")
    tu.add_argument("--budget", type=int, required=True)
    tu.add_argument("--seed", type=int, default=0)
    tu.add_argument("--transfer-db", default=None)
    tu.add_argument("--workers", type=int, default=1)
    tu.add_argument("--out", required=True, help="campaign output directory")
    tu.set_defaults(func=cmd_tune)

    an = sub.add_parser("analyze", help="reports over tuning databases")
    ansub = an.add_subparsers(dest="analysis", required=True)
    ent = ansub.add_parser("entropy", help="config-diversity entropy per dimension")
    ent.add_argument("--db", required=True)
    ent.add_argument("--threshold", type=float, default=1.0)
    ent.add_argument("--out", default=None)
    ent.set_defaults(func=cmd_analyze)
    conv = ansub.add_parser("convergence", help="trials-to-best across campaigns")
    conv.add_argument("--results", required=True)
    conv.add_argument("--out", default=None)
    conv.set_defaults(func=cmd_analyze)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse prints usage itself
        return int(e.code or 0)
    arts = _Artifacts()
    try:
        args.func(args, arts)
    except Exception as e:
        arts.discard()
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

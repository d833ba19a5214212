"""The three benchmark workloads.

Each workload is a closed loop with one client in this process.  It builds
its inputs from the workload seed in ``setup``, then repeats ``unit`` (one
pass of its operations) and turns the passes into metrics in ``report``.
Calls into ``ptqtune`` go through module attributes (``cli.main``,
``intexec.run_quantized``, ...) so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ptqtune import (calibration, cli, dataset, fixtures, intexec, ir,
                     quantize, tuner)
from ptqtune.schemes import Scheme

import harness

RECIPES = ("lenet-ish", "resnet-toy", "mobile-toy")
clock = time.perf_counter


@dataclass
class Outcome:
    """What a workload measured: its own named metrics with units, the
    headline metrics every workload reports, and the failure accounting."""

    named: dict[str, tuple[float, str]]
    ops_per_s: float
    op_ms: list[float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def percentiles(prefix: str, ms: list[float]) -> dict[str, tuple[float, str]]:
    """p50 and p90 of ``ms``, each only when enough samples lie beyond it
    (a traced run makes fewer passes than a measured one)."""
    out = {}
    for q in (0.5, 0.9):
        if len(ms) * (1 - q) >= harness.MIN_BEYOND:
            out[f"{prefix}_p{round(q * 100)}"] = (harness.percentile(ms, q), "ms")
    return out


# ------------------------------------------------------------------ tune-xgb
class TuneXgb:
    """``ptqtune tune`` (xgb strategy, generic profile, one worker) once per
    preset fixture, each call writing a real campaign directory."""

    name = "tune-xgb"
    # 3 campaigns x 47 gaps between trial records = 141 samples, so that p90
    # has 14 beyond it and sits below the <= 9 trials that run lazy KL sweeps
    budget = 48
    setup_repeats = 5
    trace_units = 1

    def setup(self, seed: int, workdir: str) -> dict:
        d = dataset.make_dataset(seed=seed)
        ds_path = os.path.join(workdir, "dataset.qds")
        dataset.save_dataset(d, ds_path)
        graphs, models = [], []
        for recipe in RECIPES:
            g = fixtures.generate_fixture(recipe, seed=seed)
            path = os.path.join(workdir, f"{g.name}.qtm")
            ir.save_model(g, path)
            graphs.append(g)
            models.append(path)
        return {"seed": seed, "workdir": workdir, "dataset": d,
                "dataset_path": ds_path, "graphs": graphs, "models": models}

    def unit(self, state: dict, k: int) -> list[dict]:
        campaigns = []
        for path in state["models"]:
            out = os.path.join(state["workdir"], f"pass{k}",
                               os.path.basename(path)[: -len(".qtm")])
            argv = ["tune", "--model", path, "--dataset", state["dataset_path"],
                    "--profile", "generic", "--strategy", "xgb",
                    "--budget", str(self.budget), "--seed", str(state["seed"]),
                    "--workers", "1", "--out", out]
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                t0 = clock()
                rc = cli.main(argv)
                wall = clock() - t0
            camp = check_campaign(out, rc, self.budget, log.getvalue())
            camp["wall_s"] = wall
            campaigns.append(camp)
        return campaigns

    def enough(self, units: list) -> bool:
        return True

    def report(self, state: dict, units: list[list[dict]]) -> Outcome:
        camps = [c for unit in units for c in unit]
        trials = sum(c["trials"] for c in camps)
        failed = sum(c["failed"] for c in camps)
        wall = sum(c["wall_s"] for c in camps)
        gaps = [g for c in camps for g in c["gaps_ms"]]
        first = units[0]  # deterministic for the seed: every pass repeats it
        named = {
            "trials_per_s": (trials / wall, "1/s"),
            **percentiles("trial_ms", gaps),
            "best_top1": (sum(c["best_top1"] for c in first) / len(first), "ratio"),
            "trials_to_best": (statistics.median(c["trials_to_best"] for c in first), "count"),
        }
        return Outcome(named=named, ops_per_s=trials / wall, op_ms=gaps,
                       attempted=trials, failed=failed,
                       problems=[p for c in camps for p in c["problems"]])


def check_campaign(out: str, rc: int, budget: int, log: str) -> dict:
    """Parse and verify one campaign directory written by ``ptqtune tune``.

    The database must hold exactly ``budget`` distinct configurations,
    numbered 1..budget, plus one fp32 baseline row, and ``result.json``'s
    best must be the maximum over those records.  A campaign that fails a
    check counts all of its trials as failed.
    """
    camp = {"trials": budget, "failed": budget, "gaps_ms": [], "best_top1": 0.0,
            "trials_to_best": 0, "problems": []}
    if rc != 0:
        camp["problems"].append(f"{out}: tune exited {rc}: {log.strip()[-200:]}")
        return camp
    try:
        with open(os.path.join(out, "db.jsonl"), encoding="utf-8") as f:
            rows = [json.loads(line) for line in f if line.strip()]
        with open(os.path.join(out, "result.json"), encoding="utf-8") as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        camp["problems"].append(f"{out}: unreadable campaign output: {e}")
        return camp
    trials = sorted((r for r in rows if r["config"] is not None), key=lambda r: r["trial"])
    problems = []
    if len(rows) - len(trials) != 1:
        problems.append(f"{out}: {len(rows) - len(trials)} baseline rows, expected 1")
    if [r["trial"] for r in trials] != list(range(1, budget + 1)):
        problems.append(f"{out}: trial numbers are not 1..{budget}")
    if len({json.dumps(r["config"], sort_keys=True) for r in trials}) != budget:
        problems.append(f"{out}: fewer than {budget} distinct configurations")
    best = max((r["top1"] for r in trials), default=0.0)
    if result.get("best_top1") != best or result.get("n_trials") != budget:
        problems.append(f"{out}: result.json best {result.get('best_top1')} "
                        f"!= max over records {best}")
    first_best = next((r["trial"] for r in trials if r["top1"] == best), 0)
    if result.get("trials_to_best") != first_best:
        problems.append(f"{out}: trials_to_best {result.get('trials_to_best')} "
                        f"!= {first_best}")
    camp["problems"] = problems
    if problems:
        return camp
    attempted, failed = harness.count_failed_trials(rows)
    camp.update(trials=attempted, failed=failed, best_top1=best,
                trials_to_best=first_best,
                gaps_ms=[(b["timestamp"] - a["timestamp"]) * 1e3
                         for a, b in zip(trials, trials[1:])])
    return camp


# ---------------------------------------------------------- surrogate-search
def response_table(space: list, rng: np.random.Generator, sigma: float = 0.01) -> dict:
    """The frozen 96-point response surface of acceptance criterion 7: two
    dominant dimensions (cache, clipping), minor effects, seeded noise."""
    table = {}
    for cfg in space:
        v = (0.55 + 0.25 * (cfg.cache == "S3")
             + 0.12 * (cfg.clipping == "Max")
             + 0.03 * (cfg.mixed == "FirstLastFp32")
             + 0.02 * (cfg.scheme == Scheme.Asymmetric)
             + 0.005 * (cfg.granularity == "Channel"))
        table[cfg] = v + sigma * rng.standard_normal()
    return table


class SurrogateSearch:
    """Cold (``xgb``) and warm-started (``xgb-t``) ``run_strategy`` over
    frozen response tables; the evaluator is a dict lookup, so the time
    between evaluator calls is the surrogate's.

    Each table gets two cold campaigns (two tuner seeds: the cold start is
    random) and one warm one (xgb-t starts from the donor records and draws
    nothing at random, so a second seed would repeat it).  Warm picks train
    on 96+ rows and cost about twice a cold pick; at one to one the median
    pick would sit on the sparse edge between the two groups.
    """

    name = "surrogate-search"
    budget = 32
    setup_repeats = 12  # one set-up takes ~2 ms
    campaigns = (("xgb", 0), ("xgb", 1), ("xgb-t", 0))  # (strategy, seed offset)
    min_units = 6  # tables behind trials_to_best{,_t}; each adds ~85 picks
    trace_units = 6
    donor_stream = 7777

    def setup(self, seed: int, workdir: str) -> dict:
        space = tuner.enumerate_space(tuner.GENERIC)
        donor_feats = fixtures.recipe_feature_counts("resnet-toy")
        donor = response_table(space, np.random.default_rng([seed, self.donor_stream]))
        donor_db = [tuner.TuningRecord(model_name="donor", features=donor_feats,
                                       config=c, top1=v, timestamp=0.0, trial=i + 1)
                    for i, (c, v) in enumerate(donor.items())]
        tables = [response_table(space, np.random.default_rng([seed, k]))
                  for k in range(self.min_units)]
        return {"seed": seed, "space": space, "donor_db": donor_db, "tables": tables,
                "features": fixtures.recipe_feature_counts("lenet-ish")}

    def unit(self, state: dict, k: int) -> list[dict]:
        space = state["space"]
        if k < len(state["tables"]):
            table = state["tables"][k]
        else:
            table = response_table(space, np.random.default_rng([state["seed"], k]))
        # tune_xgb measures its first max(3, ceil(5% of space)) trials at
        # random when it has no transfer records; those picks are not guided
        n_cold = max(3, math.ceil(0.05 * len(space)))
        out = []
        for strategy, offset in self.campaigns:
            calls: list[tuple[float, float, object]] = []

            def evaluate(cfg, _calls=calls, _table=table):
                t_in = clock()
                v = _table[cfg]
                _calls.append((t_in, clock(), cfg))
                return v

            res = tuner.run_strategy(
                strategy, state["features"], space, evaluate, budget=self.budget,
                seed=1000 * state["seed"] + 2 * k + offset,
                seed_db=state["donor_db"] if strategy == "xgb-t" else None,
                model_name="lenet-ish")
            first_guided = n_cold - 1 if strategy == "xgb" else 0
            picks = [(calls[i + 1][0] - calls[i][1]) * 1e3
                     for i in range(first_guided, len(calls) - 1)]
            out.append(check_search(strategy, res, calls, table, self.budget, picks))
        return out

    def enough(self, units: list) -> bool:
        return len(units) >= self.min_units

    def report(self, state: dict, units: list[list[dict]]) -> Outcome:
        camps = [c for unit in units for c in unit]
        picks = [p for c in camps for p in c["picks_ms"]]
        failed = sum(len(c["picks_ms"]) for c in camps if c["problems"])
        quality = [c for unit in units[: self.min_units] for c in unit]
        per_s = len(picks) / (sum(picks) / 1e3)
        named = {
            "picks_per_s": (per_s, "1/s"),
            **percentiles("pick_ms", picks),
            "trials_to_best": (statistics.median(
                c["trials_to_best"] for c in quality if c["strategy"] == "xgb"), "count"),
            "trials_to_best_t": (statistics.median(
                c["trials_to_best"] for c in quality if c["strategy"] == "xgb-t"), "count"),
        }
        return Outcome(named=named, ops_per_s=per_s, op_ms=picks,
                       attempted=len(picks), failed=failed,
                       problems=[p for c in camps for p in c["problems"]])


def check_search(strategy: str, res, calls: list, table: dict, budget: int,
                 picks: list[float]) -> dict:
    """A campaign must measure exactly ``budget`` distinct configurations,
    record them in evaluation order, and report the first best trial."""
    problems = []
    seen = [c for _, _, c in calls]
    if len(seen) != budget or len(set(seen)) != budget:
        problems.append(f"{strategy}: {len(seen)} evaluations of "
                        f"{len(set(seen))} distinct configs, budget {budget}")
    if [r.config for r in res.trials] != seen:
        problems.append(f"{strategy}: records differ from the evaluated configs")
    values = [table[c] for c in seen]
    best = max(values, default=0.0)
    if res.best_top1 != best or res.trials_to_best != values.index(best) + 1:
        problems.append(f"{strategy}: best {res.best_top1}@{res.trials_to_best} "
                        f"!= {best}@{values.index(best) + 1 if values else 0}")
    return {"strategy": strategy, "trials_to_best": res.trials_to_best,
            "picks_ms": picks, "problems": problems}


# -------------------------------------------------------------- deploy-int8
class DeployInt8:
    """Every IntegerOnly configuration of every preset, saved as ``.qtm8``;
    each operation loads one artifact, runs the integer-only and simulated
    paths on the eval split and compares them bit for bit."""

    name = "deploy-int8"
    setup_repeats = 1  # ~8 s of calibration and KL sweeps; one is steady
    min_samples = 100
    trace_units = 36  # one pass over the artifacts
    # 100 artifacts (the p90 floor) on a 200-image split take ~55 s; half
    # the split keeps the run inside the benchmark's time budget
    n_eval = 100

    def setup(self, seed: int, workdir: str) -> dict:
        d = dataset.make_dataset(seed=seed, n_eval=self.n_eval)
        space = tuner.enumerate_space(tuner.INTEGER_ONLY)
        graphs, per_graph = [], []
        for recipe in RECIPES:
            g = fixtures.generate_fixture(recipe, seed=seed)
            caches = {sc: calibration.build_cache(g, d, sc, seed)
                      for sc in quantize.CACHE_SIZES}
            paths = []
            for i, cfg in enumerate(space):
                qg = quantize.quantize_model(g, caches[cfg.cache], cfg,
                                             profile=tuner.INTEGER_ONLY)
                paths.append(os.path.join(workdir, f"{g.name}-{i:02d}.qtm8"))
                quantize.save_quantized(qg, paths[-1])
            graphs.append(g)
            per_graph.append(paths)
        # interleave presets so that any prefix of the cycle is balanced
        artifacts = [p for group in zip(*per_graph) for p in group]
        return {"dataset": d, "graphs": graphs, "artifacts": artifacts}

    def unit(self, state: dict, k: int) -> dict:
        d = state["dataset"]
        images, labels = d.eval_images, d.eval_labels
        path = state["artifacts"][k % len(state["artifacts"])]
        t0 = clock()
        qg = quantize.load_quantized(path)
        trace = intexec.OpTrace()
        codes = intexec.run_integer_only(qg, images, trace=trace)
        sim = intexec.run_quantized(qg, images, return_codes=True)
        ok = (codes.shape == (len(images), qg.graph.output_classes)
              and np.array_equal(codes, sim) and trace.float_ops() == 0)
        ms = (clock() - t0) * 1e3
        return {"ms": ms, "images": len(images),
                "top1": float(np.mean(np.argmax(codes, axis=-1) == labels)),
                "problem": None if ok else
                f"{os.path.basename(path)}: integer-only codes differ from "
                f"simulation or float ops {trace.float_ops()} > 0"}

    def enough(self, units: list) -> bool:
        return len(units) >= self.min_samples

    def report(self, state: dict, units: list[dict]) -> Outcome:
        ms = [r["ms"] for r in units]
        per_s = sum(r["images"] for r in units) / (sum(ms) / 1e3)
        first_pass = units[: len(state["artifacts"])]
        named = {
            "images_per_s": (per_s, "1/s"),
            **percentiles("deploy_ms", ms),
            "int8_top1": (sum(r["top1"] for r in first_pass) / len(first_pass), "ratio"),
        }
        problems = [r["problem"] for r in units if r["problem"]]
        return Outcome(named=named, ops_per_s=per_s, op_ms=ms, attempted=len(units),
                       failed=len(problems), problems=problems)


WORKLOADS = {w.name: w for w in (TuneXgb(), SurrogateSearch(), DeployInt8())}

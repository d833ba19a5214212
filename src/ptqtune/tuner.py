"""Configuration search over the quantization space.

Four strategies share one contract: evaluate at most ``budget`` *distinct*
configurations from an enumerated space, record every measurement, return
the history best.

  tune_xgb     model-guided loop: pick the unexplored config the boosted-tree
               cost model ranks highest, measure it, append to the database,
               retrain.  Starts with max(3, ceil(5% of space)) random trials
               when the database is empty; pre-seeding it with records from
               other models (``seed_db``) skips the cold start — that is the
               transfer-learning variant.
  tune_random  uniform sampling without replacement.
  tune_grid    fixed-stride traversal of the enumeration order.
  tune_genetic generational GA over binary-encoded configs (one-point
               crossover, per-bit mutation, tournament selection, elitism);
               decoded out-of-range dimension values are repaired by
               clamping; fitness calls are memoized so only first
               evaluations consume budget.

Failed evaluations are recorded with accuracy 0.0 and the exception that
failed them, and consume their trial.
The tuning database is a line-oriented JSON log that round-trips exactly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import gbt
from .calibration import build_cache
from .dataset import Dataset
from .intexec import evaluate_quantized
from .ir import Graph, ModelFeatures
from .quantize import CACHE_SIZES, DIMENSIONS, QuantConfig, TargetProfile, quantize_model
from .quantize import GENERIC, INTEGER_ONLY, PROFILES  # noqa: F401  (re-exported)

Evaluator = Callable[[QuantConfig], float]

DB_SCHEMA_VERSION = 1


def enumerate_space(profile: TargetProfile) -> list[QuantConfig]:
    """Every config the profile allows, in ``DIMENSIONS`` order: the product
    over each dimension of its pinned value, or of all its values."""
    pins = profile.pins
    allowed = [(pins[name],) if name in pins else values for name, values in DIMENSIONS.items()]
    return [QuantConfig(*values) for values in product(*allowed)]


@dataclass
class TuningRecord:
    model_name: str
    features: ModelFeatures | None
    config: QuantConfig | None  # None marks an fp32 baseline row
    top1: float
    timestamp: float
    trial: int
    error: bool = False
    error_msg: str | None = None  # "<exception type>: <message>" of a failed trial

    def to_json(self) -> str:
        d = {
            "v": DB_SCHEMA_VERSION,
            "model": self.model_name,
            "features": self.features.to_dict() if self.features else None,
            "config": self.config.to_dict() if self.config else None,
            "top1": self.top1,
            "timestamp": self.timestamp,
            "trial": self.trial,
            "error": self.error,
        }
        if self.error:
            d["error_msg"] = self.error_msg
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TuningRecord":
        d = json.loads(line)
        if d.get("v", DB_SCHEMA_VERSION) != DB_SCHEMA_VERSION:
            raise ValueError(f"unsupported record schema version {d['v']}")
        return cls(
            model_name=d["model"],
            features=ModelFeatures.from_dict(d["features"]) if d["features"] else None,
            config=QuantConfig.from_dict(d["config"]) if d["config"] else None,
            top1=float(d["top1"]),
            timestamp=float(d["timestamp"]),
            trial=int(d["trial"]),
            error=bool(d.get("error", False)),
            error_msg=d.get("error_msg"),
        )


@dataclass
class SearchResult:
    strategy: str
    best_config: QuantConfig
    best_top1: float
    trials_to_best: int  # 1-based index of the first trial reaching the best
    trials: list[TuningRecord]


def record_db(path: str, records: list[TuningRecord], append: bool = True) -> None:
    with open(path, "a" if append else "w", encoding="utf-8") as f:
        for r in records:
            f.write(r.to_json() + "\n")


def load_db(path: str) -> list[TuningRecord]:
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(TuningRecord.from_json(line))
    return out


def _check_space(space: list[QuantConfig], budget: int) -> None:
    if not space:
        raise ValueError("empty search space")
    if not 1 <= budget <= len(space):
        raise ValueError(f"budget {budget} not in [1, {len(space)}]")
    if len(set(space)) != len(space):
        raise ValueError("search space contains duplicates")


class _Campaign:
    """Shared measurement bookkeeping: no revisits, failures recorded as 0."""

    def __init__(self, model_name: str, features: ModelFeatures | None,
                 space: list[QuantConfig], evaluate: Evaluator, budget: int):
        self.model_name = model_name
        self.features = features
        self.space = space
        self.evaluate = evaluate
        self.budget = budget
        self.explored = np.zeros(len(space), dtype=bool)
        self.trials: list[TuningRecord] = []

    @property
    def exhausted(self) -> bool:
        return len(self.trials) >= self.budget or bool(self.explored.all())

    def _safe_eval(self, i: int) -> tuple[float, str | None]:
        """(top1, None), or (0.0, why) when the evaluator raised."""
        try:
            return float(self.evaluate(self.space[i])), None
        except Exception as e:
            return 0.0, f"{type(e).__name__}: {e}"

    def record(self, i: int, top1: float, error_msg: str | None) -> None:
        assert not self.explored[i], "strategy revisited a configuration"
        self.explored[i] = True
        self.trials.append(TuningRecord(
            model_name=self.model_name, features=self.features,
            config=self.space[i], top1=top1, timestamp=time.time(),
            trial=len(self.trials) + 1, error=error_msg is not None,
            error_msg=error_msg))

    def measure(self, i: int) -> float:
        top1, error_msg = self._safe_eval(i)
        self.record(i, top1, error_msg)
        return top1

    def measure_many(self, picks: list[int], workers: int = 1) -> None:
        """Measure a pre-decided pick list; records stay in pick order."""
        if workers <= 1:
            for i in picks:
                self.measure(i)
            return
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            outcomes = list(ex.map(self._safe_eval, picks))
        for i, (top1, error_msg) in zip(picks, outcomes):
            self.record(i, top1, error_msg)

    def result(self, strategy: str) -> SearchResult:
        if not self.trials:
            raise ValueError("no trials executed")
        best_top1 = max(r.top1 for r in self.trials)
        first = next(r for r in self.trials if r.top1 == best_top1)
        return SearchResult(strategy=strategy, best_config=first.config,
                            best_top1=best_top1, trials_to_best=first.trial,
                            trials=self.trials)


def tune_random(features: ModelFeatures | None, space: list[QuantConfig],
                evaluate: Evaluator, budget: int, seed: int = 0,
                model_name: str = "", workers: int = 1) -> SearchResult:
    _check_space(space, budget)
    rng = np.random.default_rng(seed)
    camp = _Campaign(model_name, features, space, evaluate, budget)
    picks = [int(i) for i in rng.permutation(len(space))[:budget]]
    camp.measure_many(picks, workers)
    return camp.result("random")


def tune_grid(features: ModelFeatures | None, space: list[QuantConfig],
              evaluate: Evaluator, budget: int,
              model_name: str = "", workers: int = 1) -> SearchResult:
    _check_space(space, budget)
    camp = _Campaign(model_name, features, space, evaluate, budget)
    # budget <= len(space), so the strides are distinct
    picks = [(k * len(space)) // budget for k in range(budget)]
    camp.measure_many(picks, workers)
    return camp.result("grid")


SURROGATE_HYPER = {"n_trees": 30, "max_depth": 4}


def tune_xgb(features: ModelFeatures, space: list[QuantConfig],
             evaluate: Evaluator, budget: int, seed: int = 0,
             seed_db: list[TuningRecord] | None = None,
             model_name: str = "") -> SearchResult:
    _check_space(space, budget)
    rng = np.random.default_rng(seed)
    camp = _Campaign(model_name, features, space, evaluate, budget)
    enc = np.stack([gbt.encode(features, c) for c in space])

    X_rows: list[np.ndarray] = []
    y_rows: list[float] = []
    for rec in seed_db or []:
        if rec.config is None:
            continue
        X_rows.append(gbt.encode(rec.features, rec.config))
        y_rows.append(rec.top1)

    n_cold = 0 if X_rows else max(3, math.ceil(0.05 * len(space)))
    while not camp.exhausted:
        if len(camp.trials) < n_cold:
            i = int(rng.choice(np.flatnonzero(~camp.explored)))
        else:
            model = gbt.train(np.stack(X_rows), np.asarray(y_rows), **SURROGATE_HYPER)
            preds = gbt.predict(model, enc)
            preds = np.where(camp.explored, -np.inf, preds)
            i = int(np.argmax(preds))  # ties -> enumeration order
        top1 = camp.measure(i)
        X_rows.append(enc[i])
        y_rows.append(top1)
    return camp.result("xgb-t" if seed_db else "xgb")


@dataclass
class GAParams:
    population: int = 8
    elitism: int = 1
    crossover_p: float = 0.8
    mutation_p: float = 0.1
    tournament: int = 2
    max_generations: int = 1000
    initial: list[list[int]] | None = None


def _space_dims(space: list[QuantConfig]) -> tuple[list[list], dict[tuple, int]]:
    """Per-dimension value lists (first-seen order) + value-tuple -> index map."""
    dims: list[list] = [[] for _ in DIMENSIONS]
    index: dict[tuple, int] = {}
    for i, cfg in enumerate(space):
        key = tuple(getattr(cfg, f) for f in DIMENSIONS)
        index[key] = i
        for d, v in zip(dims, key):
            if v not in d:
                d.append(v)
    if int(np.prod([len(d) for d in dims])) != len(space):
        raise ValueError("space is not a full cross product; GA encoding unavailable")
    return dims, index


def _genome_bits(dims: list[list]) -> list[int]:
    return [max(1, math.ceil(math.log2(len(d)))) if len(d) > 1 else 0 for d in dims]


def _decode(genome: list[int], dims: list[list], bits: list[int],
            index: dict[tuple, int]) -> int:
    pos = 0
    key = []
    for d, nb in zip(dims, bits):
        v = 0
        for b in genome[pos:pos + nb]:
            v = (v << 1) | int(b)
        pos += nb
        key.append(d[min(v, len(d) - 1)])  # clamp repair for unused codes
    return index[tuple(key)]


def _mutate(genome: list[int], p: float, rng: np.random.Generator) -> list[int]:
    return [(1 - b) if rng.random() < p else b for b in genome]


def _crossover(a: list[int], b: list[int], p: float,
               rng: np.random.Generator) -> tuple[list[int], list[int]]:
    if len(a) > 1 and rng.random() < p:
        cut = int(rng.integers(1, len(a)))
        return a[:cut] + b[cut:], b[:cut] + a[cut:]
    return list(a), list(b)


def _tournament(fitness: list[float], k: int, rng: np.random.Generator) -> int:
    picks = rng.integers(0, len(fitness), size=k)
    return int(max(picks, key=lambda i: fitness[i]))


def _evolve(pop: list[list[int]], fitness: list[float], params: GAParams,
            rng: np.random.Generator) -> list[list[int]]:
    order = sorted(range(len(pop)), key=lambda i: -fitness[i])
    nxt = [list(pop[i]) for i in order[: params.elitism]]
    while len(nxt) < len(pop):
        a = pop[_tournament(fitness, params.tournament, rng)]
        b = pop[_tournament(fitness, params.tournament, rng)]
        c1, c2 = _crossover(a, b, params.crossover_p, rng)
        nxt.append(_mutate(c1, params.mutation_p, rng))
        if len(nxt) < len(pop):
            nxt.append(_mutate(c2, params.mutation_p, rng))
    return nxt


def tune_genetic(features: ModelFeatures | None, space: list[QuantConfig],
                 evaluate: Evaluator, budget: int, seed: int = 0,
                 params: GAParams | None = None,
                 model_name: str = "") -> SearchResult:
    _check_space(space, budget)
    params = params or GAParams()
    rng = np.random.default_rng(seed)
    dims, index = _space_dims(space)
    bits = _genome_bits(dims)
    nbits = sum(bits)
    camp = _Campaign(model_name, features, space, evaluate, budget)
    memo: dict[int, float] = {}

    def fitness_of(genome: list[int]) -> float | None:
        """Memoized fitness; returns None when the budget ran out first."""
        i = _decode(genome, dims, bits, index)
        if i in memo:
            return memo[i]
        if camp.exhausted:
            return None
        memo[i] = camp.measure(i)
        return memo[i]

    if params.initial is not None:
        pop = [list(g) for g in params.initial]
    else:
        pop = [list(rng.integers(0, 2, size=nbits)) for _ in range(params.population)]

    for _ in range(params.max_generations):
        fitness = []
        for genome in pop:
            f = fitness_of(genome)
            if f is None:
                break
            fitness.append(f)
        if camp.exhausted or len(fitness) < len(pop):
            break
        pop = _evolve(pop, fitness, params, rng)
    # a stalled population (e.g. zero mutation) may leave budget unused;
    # spend the remainder uniformly so the budget contract holds
    while not camp.exhausted:
        camp.measure(int(rng.choice(np.flatnonzero(~camp.explored))))
    return camp.result("genetic")


STRATEGIES = ("xgb", "xgb-t", "random", "grid", "genetic")


def run_strategy(strategy: str, features: ModelFeatures | None,
                 space: list[QuantConfig], evaluate: Evaluator, budget: int,
                 seed: int = 0, seed_db: list[TuningRecord] | None = None,
                 model_name: str = "", workers: int = 1) -> SearchResult:
    """Dispatch a named search strategy.

    ``workers`` only affects strategies whose trial list is fixed up front
    (random, grid); the adaptive ones evaluate sequentially by design.
    """
    if strategy == "xgb":
        return tune_xgb(features, space, evaluate, budget, seed, model_name=model_name)
    if strategy == "xgb-t":
        if not seed_db:
            raise ValueError("xgb-t requires a transfer database")
        return tune_xgb(features, space, evaluate, budget, seed,
                        seed_db=seed_db, model_name=model_name)
    if strategy == "random":
        return tune_random(features, space, evaluate, budget, seed,
                           model_name=model_name, workers=workers)
    if strategy == "grid":
        return tune_grid(features, space, evaluate, budget,
                         model_name=model_name, workers=workers)
    if strategy == "genetic":
        return tune_genetic(features, space, evaluate, budget, seed, model_name=model_name)
    raise ValueError(f"unknown strategy {strategy!r}")


def make_accuracy_evaluator(g: Graph, d: Dataset, seed: int,
                            profile: TargetProfile | None = None) -> Evaluator:
    """Build the measured evaluator: calibrate once per cache size, then
    quantize + score the eval split for each requested configuration."""
    caches = {sc: build_cache(g, d, sc, seed) for sc in CACHE_SIZES}

    def evaluate(cfg: QuantConfig) -> float:
        qg = quantize_model(g, caches[cfg.cache], cfg, profile=profile)
        return evaluate_quantized(qg, d).top1

    return evaluate

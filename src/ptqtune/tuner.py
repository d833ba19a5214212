"""Configuration search over the quantization space.

``run_strategy`` runs every strategy as one campaign under one contract:
evaluate at most ``budget`` *distinct* configurations from an enumerated
space, record every measurement, return the first trial reaching the
history best.  A strategy is a picker that only decides what to measure:
a generator that yields lists of space indices.  ``run_strategy`` measures
each list into the campaign, the one record every picker reads results
from, before resuming the picker, and spends any budget left at the end
on uniform picks.

  xgb      model-guided loop: pick the unexplored config the boosted-tree
           cost model ranks highest, measure it, append to the database,
           retrain.  Starts with max(3, ceil(5% of space)) uniform picks.
  xgb-t    the same loop, transfer-learning variant: records from other
           models (``seed_db``) pre-seed the database and replace the
           cold start.
  random   uniform sampling without replacement.
  grid     fixed-stride traversal of the enumeration order.
  genetic  generational GA over binary-encoded configs from a random
           first population (one-point crossover, per-bit mutation,
           tournament selection, elitism; the parameters are the module
           constants ``_POPULATION`` .. ``_MAX_GENERATIONS``); decoded
           out-of-range dimension values are repaired by clamping; a
           genome that decodes to a measured config reuses that
           measurement, so only new configs consume budget.

Failed evaluations (the evaluator raised, or scored NaN or inf) are
recorded with accuracy 0.0 and why they failed, and consume their trial.
The tuning database is a line-oriented JSON log that round-trips exactly;
``record_db`` writes a whole campaign's log as a fresh file.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

import numpy as np

from . import gbt
from .calibration import build_cache
from .dataset import Dataset
from .intexec import evaluate_quantized
from .ir import Graph, ModelFeatures, is_integer
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


def _finite_top1(v) -> float:
    """``v`` as a float top1; NaN or inf raise ValueError."""
    top1 = float(v)
    if not math.isfinite(top1):
        raise ValueError(f"top1 {top1} is not finite")
    return top1


def _finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# what each field of a stored record must hold to be written back as read;
# checked on load only, since campaigns build records by the hundred
_RECORD_FIELDS: dict[str, tuple[Callable[[object], bool], str]] = {
    "v": (lambda v: is_integer(v) and v == DB_SCHEMA_VERSION,
          f"the schema version {DB_SCHEMA_VERSION}"),
    "model": (lambda v: isinstance(v, str), "a string"),
    "top1": (_finite_number, "a finite number"),
    "timestamp": (_finite_number, "a finite number"),
    "trial": (lambda v: is_integer(v) and v >= 0, "an integer >= 0"),
    "error": (lambda v: isinstance(v, bool), "a bool"),
    "error_msg": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


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
        if not isinstance(d, dict):
            raise ValueError(f"a record is a JSON object, not {type(d).__name__}")
        d = {"v": DB_SCHEMA_VERSION, "error": False, "error_msg": None, **d}
        for key, (ok, what) in _RECORD_FIELDS.items():
            if not ok(d[key]):
                raise ValueError(f"{key} {d[key]!r} is not {what}")
        return cls(
            model_name=d["model"],
            features=None if d["features"] is None else ModelFeatures.from_dict(d["features"]),
            config=None if d["config"] is None else QuantConfig.from_dict(d["config"]),
            top1=float(d["top1"]),
            timestamp=float(d["timestamp"]),
            trial=d["trial"],
            error=d["error"],
            error_msg=d["error_msg"],
        )


@dataclass
class SearchResult:
    strategy: str
    best_config: QuantConfig
    best_top1: float
    trials_to_best: int  # 1-based index of the first trial reaching the best
    trials: list[TuningRecord]


def record_db(path: str, records: list[TuningRecord]) -> None:
    """Write ``records`` as a fresh tuning database at ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(r.to_json() + "\n")


def load_db(path: str) -> list[TuningRecord]:
    """Every record of a tuning database; a line that is not a record
    raises ValueError naming the path and line number."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(TuningRecord.from_json(line))
            except (ValueError, KeyError, TypeError, OverflowError) as e:
                raise ValueError(f"{path}:{lineno}: not a tuning record: {e!r}") from e
    return out


def _check_request(strategy: str, features: ModelFeatures | None, space: list[QuantConfig],
                   budget: int, seed_db: list[TuningRecord] | None, workers: int = 1) -> None:
    """Reject a campaign request before anything is calibrated or measured.
    The surrogate encodes model features, so xgb and xgb-t need them, and
    so does every configured record of xgb-t's transfer database.  The
    genetic picker's encoding needs a space that is a full cross product."""
    if strategy not in _PICKERS:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy in ("xgb", "xgb-t") and features is None:
        raise ValueError(f"{strategy} requires model features")
    if strategy == "xgb-t":
        if not seed_db:
            raise ValueError("xgb-t requires a transfer database")
        bare = [r.trial for r in seed_db if r.config is not None and r.features is None]
        if bare:
            raise ValueError(f"xgb-t transfer records of trials {bare} have no model features")
    if not space:
        raise ValueError("empty search space")
    if not 1 <= budget <= len(space):
        raise ValueError(f"budget {budget} not in [1, {len(space)}]")
    if len(set(space)) != len(space):
        raise ValueError("search space contains duplicates")
    if strategy == "genetic":
        _space_dims(space)  # the GA encoding needs a full cross product
    if workers < 1:
        raise ValueError(f"workers {workers} is not >= 1")


class _Campaign:
    """The one record of a search: what was measured, in which order, and
    what each config scored.  No revisits; failures are recorded as 0."""

    def __init__(self, model_name: str, features: ModelFeatures | None,
                 space: list[QuantConfig], evaluate: Evaluator, budget: int):
        self.model_name = model_name
        self.features = features
        self.space = space
        self.evaluate = evaluate
        self.budget = budget
        self.explored = np.zeros(len(space), dtype=bool)
        self.top1 = np.zeros(len(space))  # per config, read once explored
        self.picks: list[int] = []  # space indices in trial order
        self.trials: list[TuningRecord] = []

    @property
    def exhausted(self) -> bool:
        return len(self.trials) >= self.budget

    def unexplored(self, rng: np.random.Generator) -> int:
        """A uniform pick among the configs not yet measured."""
        return int(rng.choice(np.flatnonzero(~self.explored)))

    def _safe_eval(self, i: int) -> tuple[float, str | None]:
        """(top1, None), or (0.0, why) when scoring raised or was not finite."""
        try:
            return _finite_top1(self.evaluate(self.space[i])), None
        except Exception as e:
            return 0.0, f"{type(e).__name__}: {e}"

    def measure(self, picks: list[int], workers: int) -> None:
        """Evaluate ``picks``, ``workers`` at a time, and record each result
        as it arrives, in pick order.  A single worker (or pick) runs on the
        calling thread."""
        parallel = min(workers, len(picks)) > 1
        with ThreadPoolExecutor(workers) if parallel else nullcontext() as pool:
            outcomes = pool.map(self._safe_eval, picks) if pool else map(self._safe_eval, picks)
            for i, (top1, error_msg) in zip(picks, outcomes):
                assert not self.explored[i], "strategy revisited a configuration"
                self.explored[i] = True
                self.top1[i] = top1
                self.picks.append(i)
                self.trials.append(TuningRecord(
                    model_name=self.model_name, features=self.features,
                    config=self.space[i], top1=top1, timestamp=time.time(),
                    trial=len(self.trials) + 1, error=error_msg is not None,
                    error_msg=error_msg))


# A picker takes the campaign, the campaign's RNG and the transfer database
# (read by xgb-t alone) and yields lists of space indices to measure.

def _random(camp: _Campaign, rng: np.random.Generator,
            seed_db: list[TuningRecord] | None) -> Iterator[list[int]]:
    yield [int(i) for i in rng.permutation(len(camp.space))[:camp.budget]]


def _grid(camp: _Campaign, rng: np.random.Generator,
          seed_db: list[TuningRecord] | None) -> Iterator[list[int]]:
    # budget <= len(space), so the strides are distinct
    yield [(k * len(camp.space)) // camp.budget for k in range(camp.budget)]


def _xgb(camp: _Campaign, rng: np.random.Generator,
         seed_db: list[TuningRecord] | None) -> Iterator[list[int]]:
    enc = np.stack([gbt.encode(camp.features, c) for c in camp.space])
    seed = [r for r in seed_db or [] if r.config is not None]
    X_seed = np.array([gbt.encode(r.features, r.config) for r in seed]).reshape(-1, enc.shape[1])
    y_seed = np.array([r.top1 for r in seed])

    n_cold = 0 if seed else max(3, math.ceil(0.05 * len(camp.space)))
    while not camp.exhausted:
        if len(camp.trials) < n_cold:
            yield [camp.unexplored(rng)]
            continue
        model = gbt.train(np.concatenate([X_seed, enc[camp.picks]]),
                          np.concatenate([y_seed, camp.top1[camp.picks]]))
        preds = np.where(camp.explored, -np.inf, gbt.predict(model, enc))
        yield [int(np.argmax(preds))]  # ties -> enumeration order


# the genetic strategy's parameters; module constants so tests can patch them
_POPULATION = 8
_ELITISM = 1
_CROSSOVER_P = 0.8
_MUTATION_P = 0.1
_TOURNAMENT = 2
_MAX_GENERATIONS = 1000


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


def _evolve(pop: list[list[int]], fitness: list[float],
            rng: np.random.Generator) -> list[list[int]]:
    order = sorted(range(len(pop)), key=lambda i: -fitness[i])
    nxt = [list(pop[i]) for i in order[:_ELITISM]]
    while len(nxt) < len(pop):
        a = pop[_tournament(fitness, _TOURNAMENT, rng)]
        b = pop[_tournament(fitness, _TOURNAMENT, rng)]
        c1, c2 = _crossover(a, b, _CROSSOVER_P, rng)
        nxt.append(_mutate(c1, _MUTATION_P, rng))
        if len(nxt) < len(pop):
            nxt.append(_mutate(c2, _MUTATION_P, rng))
    return nxt


def _genetic(camp: _Campaign, rng: np.random.Generator,
             seed_db: list[TuningRecord] | None) -> Iterator[list[int]]:
    dims, index = _space_dims(camp.space)
    bits = _genome_bits(dims)
    pop = [list(rng.integers(0, 2, size=sum(bits))) for _ in range(_POPULATION)]
    for _ in range(_MAX_GENERATIONS):
        fitness = []
        for genome in pop:
            i = _decode(genome, dims, bits, index)
            if not camp.explored[i]:  # a measured config reuses its result
                if camp.exhausted:
                    return
                yield [i]
            fitness.append(camp.top1[i])
        if camp.exhausted:
            return
        pop = _evolve(pop, fitness, rng)


# name -> picker; the order is that of STRATEGIES
_PICKERS: dict[str, Callable[..., Iterator[list[int]]]] = {
    "xgb": lambda camp, rng, seed_db: _xgb(camp, rng, None),  # cold start, whatever seed_db holds
    "xgb-t": _xgb,
    "random": _random,
    "grid": _grid,
    "genetic": _genetic,
}
STRATEGIES = tuple(_PICKERS)


def run_strategy(strategy: str, features: ModelFeatures | None,
                 space: list[QuantConfig], evaluate: Evaluator, budget: int,
                 seed: int = 0, seed_db: list[TuningRecord] | None = None,
                 model_name: str = "", workers: int = 1) -> SearchResult:
    """Run a named search strategy as one campaign: check the request
    (``_check_request``), measure what the strategy picks, and report the
    first trial that reaches the best.

    Each list of picks is evaluated ``workers`` at a time; ``workers`` below
    1 is rejected.  random and grid pick their whole budget in one list;
    xgb, xgb-t and genetic pick one config per list, so only the first two
    run trials in parallel.  Budget a picker leaves unspent (a stalled
    genetic population) goes to uniform picks.  ``features`` is read by xgb
    and xgb-t, and ``seed_db`` by xgb-t; each requires what it reads.
    """
    _check_request(strategy, features, space, budget, seed_db, workers)
    camp = _Campaign(model_name, features, space, evaluate, budget)
    rng = np.random.default_rng(seed)
    for picks in _PICKERS[strategy](camp, rng, seed_db):
        camp.measure(picks, workers)
    while not camp.exhausted:
        camp.measure([camp.unexplored(rng)], workers)
    best_top1 = max(r.top1 for r in camp.trials)
    first = next(r for r in camp.trials if r.top1 == best_top1)
    return SearchResult(strategy=strategy, best_config=first.config,
                        best_top1=best_top1, trials_to_best=first.trial,
                        trials=camp.trials)


def make_accuracy_evaluator(g: Graph, d: Dataset, seed: int,
                            profile: TargetProfile | None = None) -> Evaluator:
    """Build the measured evaluator: calibrate once per cache size, then
    quantize + score the eval split for each requested configuration.  The
    evaluator keeps one memo of ``g``'s config-free prefix on the eval split
    (see ``intexec``), shared by its trials and threads, so each config-free
    fp32 output is computed once per evaluator."""
    caches = {sc: build_cache(g, d, sc, seed) for sc in CACHE_SIZES}
    memo: dict = {}

    def evaluate(cfg: QuantConfig) -> float:
        qg = quantize_model(g, caches[cfg.cache], cfg, profile=profile)
        return evaluate_quantized(qg, d, memo=memo).top1

    return evaluate

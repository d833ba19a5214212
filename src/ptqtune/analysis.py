"""Diversity and convergence analysis over tuning databases.

The diversity report asks: among configurations whose accuracy stays within
a drop threshold of their model's fp32 baseline, how spread out is each
configuration dimension?  Per-dimension spread is Shannon entropy (base 2),
so 0 means "every surviving config agrees on this dimension" and log2(k)
means "uniform over all k choices".

The convergence report tabulates search strategies against the random
baseline: median trials-to-best and the speedup ratio.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import quantize
from .tuner import TuningRecord

# the dimensions a Generic search varies
DIMENSIONS: dict[str, tuple] = {name: values for name, values in quantize.DIMENSIONS.items()
                                if name not in quantize.GENERIC.pins}


def shannon_entropy(freqs) -> float:
    """Base-2 entropy of a count/weight vector; zero entries contribute 0."""
    f = np.asarray(freqs, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("negative frequency")
    total = f.sum()
    if total <= 0:
        raise ValueError("empty frequency vector")
    p = f[f > 0] / total
    # 0.0 - s rather than -s: a dimension all survivors agree on reads +0.0
    return float(0.0 - (p * np.log2(p)).sum())


@dataclass
class DiversityReport:
    threshold_pts: float
    n_samples: int
    entropy: dict[str, float]  # per dimension; NaN when no survivors

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("dimension,entropy_bits,max_bits,n_samples,threshold_pts\n")
        for dim, domain in DIMENSIONS.items():
            h = self.entropy[dim]
            out.write(f"{dim},{'' if math.isnan(h) else f'{h:.6f}'},"
                      f"{math.log2(len(domain)):.6f},{self.n_samples},"
                      f"{self.threshold_pts}\n")
        return out.getvalue()


def diversity_report(db: list[TuningRecord], threshold_pts: float = 1.0) -> DiversityReport:
    """Entropy per config dimension over records within ``threshold_pts``
    percentage points of their model's fp32 baseline (config=None rows)."""
    baselines: dict[str, float] = {}
    for r in db:
        if r.config is None:
            baselines[r.model_name] = r.top1
    survivors = []
    for r in db:
        if r.config is None:
            continue
        if r.model_name not in baselines:
            raise ValueError(f"no fp32 baseline row for model {r.model_name!r}")
        drop_pts = (baselines[r.model_name] - r.top1) * 100.0
        if drop_pts <= threshold_pts:
            survivors.append(r)
    entropy: dict[str, float] = {}
    for dim, domain in DIMENSIONS.items():
        if not survivors:
            entropy[dim] = math.nan
            continue
        values = [getattr(r.config, dim) for r in survivors]
        counts = [values.count(d) for d in domain]
        entropy[dim] = shannon_entropy(counts)
    return DiversityReport(threshold_pts=threshold_pts,
                           n_samples=len(survivors), entropy=entropy)


def convergence_report(results: list[dict]) -> str:
    """CSV: per strategy, median trials-to-best, mean best accuracy, and
    convergence speedup relative to the random baseline, over ``result.json``
    rows (their ``strategy``, ``trials_to_best`` and ``best_top1``)."""
    by_strategy: dict[str, list[dict]] = {}
    for r in results:
        by_strategy.setdefault(r["strategy"], []).append(r)
    med = {s: float(np.median([int(r["trials_to_best"]) for r in rs]))
           for s, rs in by_strategy.items()}
    base = med.get("random")
    out = io.StringIO()
    out.write("strategy,runs,median_trials_to_best,mean_best_top1,speedup_vs_random\n")
    for s, rs in by_strategy.items():
        mean_best = float(np.mean([float(r["best_top1"]) for r in rs]))
        speedup = "" if base is None or med[s] == 0 else f"{base / med[s]:.3f}"
        out.write(f"{s},{len(rs)},{med[s]:.1f},{mean_best:.6f},{speedup}\n")
    return out.getvalue()

"""Benchmark entry point.

    python3 perfbench/run.py --workload tune-xgb --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced on the
same inputs and reports per-layer metrics and the tracing overhead.
``--workload all`` runs every workload, each in its own process.  The last
line of standard output is one JSON object (see ``SCHEMA.md``); a fuller
record, stamped with the environment, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import harness  # imports no numpy: the BLAS pin in main() must come first

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("tune-xgb", "surrogate-search", "deploy-int8")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "op_ms_p90": "ms", "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="minimum length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_units(w, state, seconds: float, fixed: int | None, between=None) -> list:
    """Repeat the workload's unit until ``seconds`` have passed and it has
    enough samples, or exactly ``fixed`` times; call ``between()`` after
    each unit."""
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(w.unit(state, len(units)))
        if between is not None:
            between()
        if fixed is not None:
            if len(units) >= fixed:
                return units
        elif time.perf_counter() - t0 >= seconds and w.enough(units):
            return units


class SetUps:
    """Times each set-up of a workload in its own directory."""

    def __init__(self, w, seed: int, workdir: str):
        self.w, self.seed, self.workdir = w, seed, workdir
        self.times: list[float] = []

    def __call__(self) -> tuple[dict, str]:
        sub = os.path.join(self.workdir, f"setup{len(self.times)}")
        os.makedirs(sub)
        t0 = time.perf_counter()
        state = self.w.setup(self.seed, sub)
        self.times.append(time.perf_counter() - t0)
        return state, sub

    def repeat(self) -> None:
        """One more set-up, discarded, while fewer than the workload asks
        for have run."""
        if len(self.times) < self.w.setup_repeats:
            shutil.rmtree(self()[1])


def measure(w, args, workdir: str) -> tuple[dict, object, dict]:
    # the set-up is repeated after each unit and then up to setup_repeats,
    # so the median of a set-up of a few ms samples the host's speed over
    # the whole run rather than over one instant
    setups = SetUps(w, args.seed, workdir)
    state, _ = setups()
    units = run_units(w, state, args.seconds, None, between=setups.repeat)
    while len(setups.times) < w.setup_repeats:
        setups.repeat()
    outcome = w.report(state, units)
    metrics = {
        "setup_s": statistics.median(setups.times),
        "ops_per_s": outcome.ops_per_s,
        "op_ms_p50": harness.percentile(outcome.op_ms, 0.5),
        "op_ms_p90": harness.percentile(outcome.op_ms, 0.9),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    named = dict(outcome.named)
    named["setup_s"] = (metrics["setup_s"], "s")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MiB")
    named["failed_ratio"] = (harness.failed_ratio(outcome.failed, outcome.attempted), "ratio")
    result = {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}
    extra = {"named": named, "setup_times_s": setups.times, "samples": len(outcome.op_ms),
             "op_ms": outcome.op_ms}
    return result, outcome, extra


def measure_traced(w, args, workdir: str) -> tuple[dict, object, dict]:
    import layers

    t0 = time.perf_counter()
    state, _ = SetUps(w, args.seed, os.path.join(workdir, "untraced"))()
    plain = w.report(state, run_units(w, state, 0.0, w.trace_units))
    untraced_s = time.perf_counter() - t0

    tracer, samples = harness.Tracer(), {}
    layers.install(tracer, samples)
    try:
        t0 = time.perf_counter()
        state, _ = SetUps(w, args.seed, os.path.join(workdir, "traced"))()
        outcome = w.report(state, run_units(w, state, 0.0, w.trace_units))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    node_s = layers.breakdown(state.get("graphs", []), samples, state.get("dataset"))
    per_layer = layers.per_layer_metrics(tracer.spans, node_s, untraced_s, traced_s)
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    outcome.problems += plain.problems
    result = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
    os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "traces", f"{w.name}-seed{args.seed}.spans.json")
    tracer.dump(spans_path)
    return result, outcome, {"named": outcome.named, "spans_file": spans_path,
                             "samples": len(outcome.op_ms)}


def run_all(args) -> int:
    """Run each workload in its own process (each reports its own peak RSS)."""
    summary, rc = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if summary[name] is None:
            rc = proc.returncode or 1
    print(json.dumps({"workloads": summary}, sort_keys=True))
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ptqtune", "__init__.py")):
        print(f"perfbench: no ptqtune sources under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one BLAS thread: every workload is a single-threaded closed loop
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, src)

    import workloads

    w = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{w.name}-", dir=OUT_DIR)
    try:
        if args.trace:
            metrics, outcome, extra = measure_traced(w, args, workdir)
        else:
            metrics, outcome, extra = measure(w, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = harness.environment()
    correct = not outcome.problems and outcome.failed == 0
    line = {"correct": correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "problems": outcome.problems,
              "named_metrics": {k: {"value": v, "unit": u}
                                for k, (v, u) in extra.pop("named").items()},
              **extra, "result": line}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results",
                           f"{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"# {w.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, entry in record["named_metrics"].items():
        print(f"# {w.name} {name} = {entry['value']:.6g} {entry['unit']}")
    for problem in outcome.problems:
        print(f"# FAILED CHECK: {problem}")
    print(json.dumps(line, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the ramm harness: one workload, closed loop, in one process.

    python3 perfbench/run.py --workload finetune-r4 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. The run
sets the workload up several times (median reported as ``setup_s``), then
repeats timed rounds of identical work until ``--seconds`` have passed and
reports medians over rounds. ``--trace 1`` instead sets up once with spans
on, runs one round untraced and one traced, and reports the per-layer split
(see ``perfbench/tracing.py``). The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# units of the workload-specific figures printed above the result line
FIGURE_UNITS = {
    "eval.items_per_s": "1/s", "eval.required_acc": "ratio",
    "retrieve.have_answer_pct": "%", "index.save_s": "s", "index.load_s": "s",
}

def _pin_blas() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    """Import the package from ./src only; an installed copy does not count."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ramm

    if not Path(ramm.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ramm imported from {ramm.__file__}, not from {src}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(name: str, value: float, unit: str) -> None:
    print(f"metric {name} {value:.6g} {unit}")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: 1000 samples leave ten above the p99."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload, seed: int, seconds: float, work: Path, import_s: float,
            unit_of: dict[str, str]):
    setups = []
    for _ in range(workload.setup_repeats):
        t0 = perf_counter()
        state = workload.setup(work, seed)
        setups.append(perf_counter() - t0)
    rounds, failed = [], 0
    start = perf_counter()
    # start another round only while it is expected to end within `seconds`
    while (len(rounds) < workload.min_rounds
           or (perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds):
        try:
            rounds.append(workload.round(state))
        except Exception:
            traceback.print_exc()
            failed += workload.attempted_per_round
            break
    attempted = workload.attempted_per_round * len(rounds) + failed
    problems = [p for rnd in rounds for p in rnd.problems]
    print(f"workload {workload.name} seed {seed} setups {len(setups)} "
          f"rounds {len(rounds)}")
    if not rounds:
        return False, attempted, failed, {}

    main_s = sum(rnd.main_s for rnd in rounds)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": (main_s + sum(rnd.followup_s for rnd in rounds)) / len(rounds),
        "throughput_per_s": sum(rnd.units for rnd in rounds) / main_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    for name, value in metrics.items():
        _emit(name, value, unit_of[name])
    _emit(workload.throughput_name, metrics["throughput_per_s"], "1/s")
    _emit(workload.followup_name,
          statistics.median(rnd.followup_s for rnd in rounds), "s")
    for name, unit in FIGURE_UNITS.items():
        if name in rounds[0].figures:
            _emit(name, statistics.median(rnd.figures[name] for rnd in rounds), unit)
    latencies = [ms for rnd in rounds for ms in rnd.latencies_ms]
    if latencies:
        _emit("retrieve.query_p50_ms", statistics.median(latencies), "ms")
        _emit("retrieve.query_p99_ms", _percentile(latencies, 0.99), "ms")
        _emit("retrieve.query_samples", len(latencies), "count")
    _emit("failed_share", failed / attempted, "ratio")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return not problems and not failed, attempted, failed, metrics


def measure_traced(workload, seed: int, work: Path, spans_path: Path, env: dict):
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(workloads)
    tracer.run_id = "setup"
    state = workload.setup(work, seed)
    tracer.run_id = None
    rounds = []
    walls = []
    for run_id in (None, "round"):
        tracer.run_id = run_id
        t0 = perf_counter()
        rounds.append(workload.round(state))
        walls.append(perf_counter() - t0)
    tracer.run_id = None
    overhead = walls[1] / walls[0] - 1.0
    metrics = tracer.metrics(overhead)
    tracer.write(spans_path, {"workload": workload.name, "seed": seed, **env})
    for name, value in metrics.items():
        print(f"layer {name} {value:.6g}")
    problems = [p for rnd in rounds for p in rnd.problems]
    if tracer.pool_violations:
        problems.append(f"{tracer.pool_violations} pools outside [r, 2r]")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return not problems, 2 * workload.attempted_per_round, 0, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_blas()
    import numpy  # noqa: F401  (loaded after the BLAS pin, outside import_s)

    t0 = perf_counter()
    try:
        _import_program()
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    # one directory per workload, kept between runs: set-up rewrites files
    # in place, which times steadier than creating hundreds of new ones
    work = WORK / args.workload
    if args.trace:
        spans = WORK / "spans" / f"{args.workload}-s{args.seed}.jsonl"
        correct, attempted, failed, metrics = measure_traced(
            workload, args.seed, work, spans, env)
    else:
        correct, attempted, failed, metrics = measure(
            workload, args.seed, args.seconds, work, import_s, units)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

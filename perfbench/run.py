"""Benchmark for progtab: end-to-end time, memory and accuracy per workload,
and per-layer self times from a separate traced run.

    python3 perfbench/run.py                       # every workload, each in its own process
    python3 perfbench/run.py --workload vime-medium --seed 3 --trace 0

Run from the root of a progtab checkout; the package is imported from its
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each workload
measures for ``run_seconds`` of the repository's ``BENCHMARK.json`` once
untraced and once traced; ``--seconds`` is accepted because the benchmark's
command is invoked with it, and defaults to that value. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. A copy
of each run's output, with the machine it ran on, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("vime-medium", "cmixup-medium", "highcard-encodings")
# fresh processes timing set-up besides the run's own, half of them before
# the rounds and half after, so that the median spans the run
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 600

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("test_accuracy", "fraction", "higher"),
]
TIMED_SPANS = [
    "data.synthesize", "data.split", "data.scale", "encoding.fit", "encoding.encode",
    "nn.forward", "nn.backward", "nn.step", "nn.loss_supcon", "vime.corrupt",
    "vime.pretext_train", "vime.semisup_train", "vime.predict", "cmixup.encoder_train",
    "cmixup.propagate", "cmixup.latent_mixup", "cmixup.classify", "progressive.run",
    "progressive.refine", "progressive.update_representation",
]
COUNTERS = [
    "encoding.fit_calls", "encoding.encode_calls", "encoding.encoded_mb",
    "nn.forward_rows", "nn.backward_calls", "nn.step_calls", "nn.loss_supcon_calls",
    "vime.corrupt_calls", "cmixup.propagate_calls", "cmixup.propagate_rows",
    "cmixup.mixup_pairs",
]
PER_LAYER = (
    [(f"{span}_s", "s", "lower") for span in TIMED_SPANS]
    + [(name, "MB" if name.endswith("_mb") else "count", "lower") for name in COUNTERS]
    + [("progressive.kept_rows", "count", "higher"),
       ("progressive.kept_precision", "fraction", "higher"),
       ("trace.wall_s", "s", "lower"),
       ("trace.untimed_s", "s", "lower")]
)


def run_seconds() -> float:
    """How long each workload measures, per mode, from ``BENCHMARK.json``."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


# One BLAS thread. Two, on two shared vCPUs, cut a round by 5-25% but spin
# at barriers for nearly twice the CPU time, and a stall of either vCPU
# holds up both; one thread keeps the run-to-run spread of wall_s low.
BLAS_THREADS = 1


def limit_blas_threads() -> None:
    """Pin BLAS to ``BLAS_THREADS``; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _child(args: list[str]) -> str:
    """Run this script in a fresh process; return its last stdout line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_probe(workload: str, seed: int) -> float:
    """Time from importing progtab to the first call into training."""
    t0 = time.perf_counter()
    from perfbench import workloads

    workloads.make_inputs(workloads.WORKLOADS[workload].preset, seed)
    return time.perf_counter() - t0


@dataclass
class Round:
    wall_s: float
    legs: list  # workloads.LegResult, one per leg that ran to its end
    failures: list[str]
    spans: list  # tracing.Span, empty when untraced
    counters: dict


def run_round(legs, tracer) -> Round:
    """Run every leg once, traced when a tracer is given."""
    from perfbench.workloads import Stopwatch

    results, failures = [], []
    with tracer if tracer is not None else nullcontext():
        watch = Stopwatch()
        for name, leg in legs:
            try:
                results.append(leg(watch))
            except Exception as exc:  # a failed leg is counted, the round goes on
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
        wall = watch.elapsed()
    if tracer is None:
        return Round(wall, results, failures, [], {})
    return Round(wall, results, failures, list(tracer.spans), dict(tracer.counters))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    def probe_setup(times: int) -> list[float]:
        return [float(_child(["--workload", name, "--seed", str(seed), "--setup-probe"]))
                for _ in range(0 if trace else times)]

    samples = probe_setup(SETUP_PROBES // 2)
    t0 = time.perf_counter()
    from perfbench import tracing, workloads

    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(tracing.progtab_targets()) if trace else None
    with tracer if tracer is not None else nullcontext():
        inputs = workloads.make_inputs(workload.preset, seed)
    samples.append(time.perf_counter() - t0)
    setup_own = tracing.self_times(tracer.spans) if tracer is not None else {}

    problems = workload.input_problems(inputs)
    legs = workload.legs(inputs)
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(run_round(legs, tracer))
        took = time.perf_counter() - round_start
        if time.perf_counter() - start + took > seconds:
            break
    samples += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    failures = [f for r in rounds for f in r.failures]
    first = rounds[0]
    for i, r in enumerate(rounds[1:], 2):
        if [(x.name, x.accuracy) for x in r.legs] != [(x.name, x.accuracy) for x in first.legs]:
            problems.append(f"round {i}: leg accuracies differ from round 1")
        if r.counters != first.counters:
            problems.append(f"round {i}: traced counts differ from round 1")
    problems.extend(dict.fromkeys(f"{leg.name}: {p}" for r in rounds for leg in r.legs
                                  for p in leg.problems))
    accuracies = [leg.accuracy for leg in first.legs]

    if not trace:
        values = {
            "setup_s": statistics.median(samples),
            "wall_s": statistics.median([r.wall_s for r in rounds]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_accuracy": statistics.fmean(accuracies) if accuracies else 0.0,
        }
        specs = END_TO_END
    else:
        own = [tracing.self_times(r.spans) for r in rounds]
        values = {f"{span}_s": setup_own.get(span, 0.0)
                  + statistics.median([o.get(span, 0.0) for o in own])
                  for span in TIMED_SPANS}
        values.update({key: first.counters.get(key, 0) for key in COUNTERS})
        kept = sum(leg.kept_rows for leg in first.legs)
        values["progressive.kept_rows"] = kept
        values["progressive.kept_precision"] = (
            sum(leg.kept_correct for leg in first.legs) / kept if kept else 0.0)
        values["trace.wall_s"] = statistics.median([r.wall_s for r in rounds])
        values["trace.untimed_s"] = statistics.median(
            [r.wall_s - tracing.top_level_time(r.spans) for r in rounds])
        specs = PER_LAYER

    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(legs),
        "failed": len(failures),
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit, _ in specs},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_info(),
        "setup_samples_s": samples,
        "rounds": [{"wall_s": r.wall_s, "legs": {x.name: x.accuracy for x in r.legs}}
                   for r in rounds],
        "problems": problems, "failures": failures, "result": result,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {name} seed {seed}: {len(rounds)} round(s), trace {int(trace)}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for leg in first.legs:
        print(f"leg {leg.name}: test accuracy {leg.accuracy:.4f}")
    for p in problems + failures:
        print(f"problem: {p}")
    for m, unit, _ in specs:
        print(f"{m} = {values[m]:.6g} {unit}")
    return result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each run in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            line = _child(["--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", trace])
            result = json.loads(line)
            combined["correct"] = combined["correct"] and result["correct"]
            if trace == "0":
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for metric, v in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = v
                print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload in this process (default: all, each in its own)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload and mode "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print the set-up time of one fresh process and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "progtab" / "__init__.py").is_file():
        print(f"no progtab sources under {ROOT / 'src'}; run from a progtab checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else run_seconds()
    limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.workload is None:
        result = run_all(args.seed, seconds)
    elif args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    else:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

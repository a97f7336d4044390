"""
Repeat the benchmark over seeds 1 to 10 and summarize each metric.

    python3 perfbench/collect.py [--trace] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, one process at a
time, from the root of the checkout, with the run length ``run_seconds``
from ``BENCHMARK.json``.  For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median.  With ``--trace`` it adds one traced run
per workload and the share of package time each layer took in it.
``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output, exit {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    result["report"] = lines[:-1]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def layer_shares(metrics: dict) -> dict:
    """Self time of each layer and of the named functions, as a share of the
    time spent inside the package during the traced batch."""
    own = {layer: metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS}
    total = sum(own.values())
    shares = {f"{layer}.self_s": value / total for layer, value in own.items()} if total else {}
    for name, entry in metrics.items():
        if total and name.endswith(".self_s") and name.count(".") == 2:
            shares[name] = entry["value"] / total
    return shares


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {}
    for workload in workloads.WORKLOADS:
        results = [run(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {
            "seeds": [SEEDS[0], SEEDS[-1]],
            "run_seconds": seconds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] and r["exit_code"] == 0 for r in results),
            "metrics": {},
            "report_of_first_run": results[0]["report"],
        }
        print(f"{workload}: {len(results)} runs, {entry['attempted']} ops, {entry['failed']} failed,"
              f" all correct: {entry['all_correct']}")
        for name in results[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            print(f"  {name:12s} median {stats['median']:.6g} {stats['unit']}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.3f}")
        if args.trace:
            traced = run(workload, SEEDS[0], seconds, 1)
            entry["traced"] = {"seed": SEEDS[0], "metrics": traced["metrics"],
                               "shares_of_package_time": layer_shares(traced["metrics"]),
                               "report": traced["report"]}
            print(f"  trace_overhead_ratio {traced['metrics']['trace_overhead_ratio']['value']:.3f}")
            for name, share in sorted(entry["traced"]["shares_of_package_time"].items(), key=lambda kv: -kv[1]):
                if share >= 0.01:
                    print(f"  share {name:40s} {share:.3f}")
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

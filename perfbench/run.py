"""
Benchmark of the forgottenmonoid package, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  One process, one thread, one closed-loop
client.  The run builds a batch of operations from the seed, then repeats
the batch, clearing every module-level cache before each repetition, in
groups of a fixed number of batches, until S seconds of timed work have
passed and the last group is complete.  Each answer is checked by
independent code after its repetition, outside the timed region.  Every
operation runs under a deadline (SIGALRM); an overrun counts as a failed
operation.  Within a group each operation's latency is its best over the
group's batches; ``wall_s`` is the median over groups of the sum of those
bests.  See README.md for why.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run alternates untraced batches
with batches that have spans around every call into a package module, and
reports per-layer metrics.  The lines before it are a readable report.
The exit code is 0 when every answer was correct, 1 when any operation
failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "forgottenmonoid"
ENTRY_POINTS = (
    "canonical_of", "canonical_of_key", "equivalent", "foata", "ns_map",
    "next_lambda_down", "insert",
)
# Set-up is repeated in every run and its best reported: a single set-up
# takes 25 to 200 ms, short enough for one stall on a shared machine to
# move it by a third.
SETUPS = 21
# Percentile q is reported only with at least ten samples beyond it.
PERCENTILES = ((50, "op_p50_ms"), (90, "op_p90_ms"), (99, "op_p99_ms"))
# Deadlines stretch by this factor while spans are being recorded.
TRACE_SLACK = 10.0


class Overrun(BaseException):
    """Raised by SIGALRM inside an operation that passed its deadline."""


def _alarm(signum, frame):
    raise Overrun


def import_package() -> types.SimpleNamespace:
    """Import forgottenmonoid from the checkout afresh, dropping any copy
    imported before, so every set-up pays the whole import."""
    for name in [m for m in sys.modules if m == "forgottenmonoid" or m.startswith("forgottenmonoid.")]:
        del sys.modules[name]
    root = importlib.import_module("forgottenmonoid")
    if Path(root.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"forgottenmonoid was imported from {root.__file__}, not {PACKAGE}")
    api = types.SimpleNamespace(root=root, ClassKey=root.ClassKey)
    for name in spans.LAYERS:
        setattr(api, name, importlib.import_module(f"forgottenmonoid.{name}"))
    return api


def entry_table(api) -> dict:
    entry = {name: getattr(api.root, name) for name in ENTRY_POINTS}
    entry["cli.main"] = api.cli.main
    for check in api.verify.SUITES["all"]:
        entry[f"verify.{check.__name__}"] = check
    return entry


def module_caches(api) -> dict:
    return {
        "qsym._fundamental": api.qsym._fundamental,
        "qsym._ribbons_by_recoil": api.qsym._ribbons_by_recoil,
        "verify.closure_partition": api.verify.closure_partition,
    }


def fresh_state(api, caches: dict) -> None:
    """Empty every module-level cache of the package and collect garbage,
    so each batch starts from the same state whatever ran before it."""
    for cache in caches.values():
        cache.cache_clear()
    api.words._normal_form_cache.clear()
    gc.collect()


def cache_report(api, caches: dict) -> str:
    parts = []
    for name, cache in caches.items():
        info = cache.cache_info()
        parts.append(f"{name} entries={info.currsize} hits={info.hits} misses={info.misses}")
    parts.append(f"words._normal_form_cache entries={len(api.words._normal_form_cache)}")
    return "; ".join(parts)


def _reference() -> int:
    """A fixed pure-Python loop, used only to compare the speed of CPUs."""
    p = tuple(range(40, 0, -1))
    count = 0
    for i, x in enumerate(p):
        for y in p[i + 1:]:
            count += y < x
    return count


class CpuPicker:
    """Moves the process to the fastest of its allowed CPUs.

    On a machine shared with other tenants one virtual CPU can run far
    slower than another for seconds or minutes.  Every PICK_EVERY_S of
    timed work, between operations and outside their timing, each CPU runs
    a short reference loop and the process is pinned to the fastest."""

    PICK_EVERY_S = 0.25
    MAX_CPUS = 8

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))[:self.MAX_CPUS]
        self.since = float("inf")

    def maybe_pick(self, elapsed: float = 0.0) -> None:
        self.since += elapsed
        if self.since < self.PICK_EVERY_S or len(self.cpus) < 2:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            best = float("inf")
            for _ in range(10):
                start = time.perf_counter()
                _reference()
                best = min(best, time.perf_counter() - start)
            speed[cpu] = best
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.since = 0.0


PICKER = CpuPicker()


def run_op(op, entry: dict, deadline: float):
    """Run one operation; returns (seconds, result, error)."""
    result = error = None
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = time.perf_counter()
    try:
        try:
            result = op.call(entry)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overrun:
        error = f"overran the {deadline:g} s deadline"
    except (Exception, SystemExit) as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    return elapsed, result, error


class Batch:
    """One timed pass over the operations, checked after it ends."""

    def __init__(self, ops, entry, deadline, memo):
        self.latencies = []
        outcomes = []
        start = time.perf_counter()
        for op in ops:
            elapsed, result, error = run_op(op, entry, deadline)
            PICKER.maybe_pick(elapsed)
            self.latencies.append(elapsed)
            outcomes.append((result, error))
        self.wall = time.perf_counter() - start
        # Read before the checks run, so the checker's memory is not counted.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.errors = [check_answer(i, op, result, error, memo)
                       for i, (op, (result, error)) in enumerate(zip(ops, outcomes))]
        self.failed = sum(e is not None for e in self.errors)


def check_answer(index, op, result, error, memo) -> str | None:
    """Check one answer; an answer equal to one already checked for the
    same operation is not checked again."""
    if error is not None:
        return f"{op.label}: {error}"
    fingerprint = hash(result)
    if memo.get(index) == fingerprint:
        return None
    try:
        reason = op.check(result)
    except (ValueError, LookupError, TypeError) as exc:  # malformed output
        reason = f"{op.label}: unreadable answer ({type(exc).__name__}: {exc})"
    if reason is None:
        memo[index] = fingerprint
    return reason


def group_bests(batches, size: int) -> list[list[float]]:
    """For each group of `size` consecutive batches, each operation's best
    latency in it.  On a shared machine a best is far steadier than any one
    pass; the group size is fixed so that a faster program gets more groups
    but never a deeper minimum."""
    return [[min(times) for times in zip(*(b.latencies for b in batches[i:i + size]))]
            for i in range(0, len(batches), size)]


def median_sum(groups) -> float:
    return statistics.median(sum(group) for group in groups)


def percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q / 100 * len(sorted_values)))]


def setup(name: str, seed: int):
    """Import the package and build the batch, SETUPS times; the last
    import is the one measured.  Returns (seconds per set-up, api, ops)."""
    samples = []
    for _ in range(SETUPS):
        PICKER.maybe_pick(float("inf"))
        gc.collect()
        start = time.perf_counter()
        api = import_package()
        ops = workloads.WORKLOADS[name](seed, api)
        samples.append(time.perf_counter() - start)
    return samples, api, ops


def end_to_end(args, ops, entry, api, caches, deadline, lines):
    memo: dict = {}
    batches = []
    timed = 0.0
    size = workloads.GROUP_SIZE[args.workload]
    while len(batches) % size or timed < args.seconds:
        fresh_state(api, caches)
        PICKER.maybe_pick()
        batch = Batch(ops, entry, deadline, memo)
        batches.append(batch)
        timed += batch.wall
    groups = group_bests(batches, size)
    lines.append("batch walls: " + " ".join(f"{b.wall:.4f}" for b in batches) + " s")
    lines.append("group sums of bests: " + " ".join(f"{sum(g):.4f}" for g in groups) + " s")
    lines.append(f"caches after the last batch: {cache_report(api, caches)}")
    best = sorted(statistics.median(times) for times in zip(*groups))
    attempted = len(ops) * len(batches)
    failed = sum(b.failed for b in batches)
    wall_s = median_sum(groups)
    metrics = {
        "wall_s": (wall_s, "s"),
        "ops_per_s": ((attempted - failed) / len(batches) / wall_s, "1/s"),
        "peak_rss_mb": (batches[0].peak_rss_mb, "MB"),
    }
    notes = {
        "peak_rss_mb": "set-up and the first batch, before its answers are checked",
        "wall_s": f"median over {len(groups)} groups of {size} batches of {len(ops)} ops,"
                  " each op at its best in the group",
    }
    extra = []
    for q, name in PERCENTILES:
        beyond = len(best) * (100 - q) // 100
        if beyond >= 10:
            extra.append(f"{name:13s} {percentile(best, q) * 1e3:.6g} ms ({len(best)} ops)")
        else:
            extra.append(f"{name:13s} not reported: {len(best)} ops leave {beyond} beyond it, 10 needed")
    extra.append(f"failed_ratio  {failed / attempted:.6g} ({failed}/{attempted})")
    errors = [e for b in batches for e in b.errors if e is not None]
    return metrics, notes, extra, attempted, failed, errors


def per_layer(args, ops, entry, api, caches, deadline, lines):
    """Alternate untraced and traced batches, grouped as in end_to_end;
    spans come from the last traced batch, walls from the group bests."""
    memo: dict = {}
    plain, traced = [], []
    timed = 0.0
    size = workloads.GROUP_SIZE[args.workload]
    while len(plain) % size or timed < args.seconds:
        fresh_state(api, caches)
        PICKER.maybe_pick()
        plain.append(Batch(ops, entry, deadline, memo))
        fresh_state(api, caches)
        PICKER.maybe_pick()
        tracer = spans.Tracer(api)
        tracer.install(entry)
        try:
            traced.append(Batch(ops, entry, deadline * TRACE_SLACK, memo))
        finally:
            tracer.uninstall()
        timed += plain[-1].wall + traced[-1].wall
    metrics = tracer.metrics(api, caches)
    plain_groups, traced_groups = group_bests(plain, size), group_bests(traced, size)
    by_label: dict[str, float] = {}
    for op, times in zip(ops, zip(*plain_groups)):
        by_label[op.label] = by_label.get(op.label, 0.0) + statistics.median(times)
    for check in spans.VERIFY_CHECKS:
        metrics[f"verify.check.{check}.wall_s"] = (by_label.get(f"check {check}", 0.0), "s")
    for sub in spans.SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_s"] = (by_label.get(f"cli {sub}", 0.0), "s")
    untraced_s, traced_s = median_sum(plain_groups), median_sum(traced_groups)
    metrics["trace_overhead_ratio"] = (traced_s / untraced_s, "ratio")
    lines.append(f"untraced {untraced_s:.4f} s, traced {traced_s:.4f} s"
                 f" (median over {len(plain_groups)} groups of {size} batches, each op at its best in the group)")
    lines.append("spans of the last traced batch by self time (parent -> function: calls, total s, self s):")
    for parent, child, n, total, own in tracer.spans()[:25]:
        lines.append(f"  {parent} -> {child}: {n}, {total:.4f}, {own:.4f}")
    batches = plain + traced
    attempted = len(ops) * len(batches)
    failed = sum(b.failed for b in batches)
    errors = [e for b in batches for e in b.errors if e is not None]
    return metrics, {}, [], attempted, failed, errors


def run_probes(entry, lines) -> int:
    """Cap-edge probes, run after the measured batches: `ribbons --vars` at
    n = 8 and 9, both inside the CLI's closure cap.  Returns how many failed."""
    failures = 0
    for op, (n, inv, one_first) in zip(workloads.cap_probes(), workloads.CAP_PROBES):
        elapsed, result, error = run_op(op, entry, workloads.OP_DEADLINE_S)
        reason = check_answer(0, op, result, error, {})
        failures += reason is not None
        status = "ok" if reason is None else f"FAILED ({reason})"
        lines.append(f"cap probe ribbons --key {n},{inv},{'1n' if one_first else 'n1'} --vars: {elapsed:.3f} s, {status}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    try:
        setup_samples, api, ops = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    entry = entry_table(api)
    caches = module_caches(api)
    deadline = workloads.DEADLINES[args.workload]
    lines = [f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per batch, trace {args.trace}"]
    lines.append("set-ups: " + " ".join(f"{t:.4f}" for t in setup_samples) + " s")

    measure = per_layer if args.trace else end_to_end
    metrics, notes, extra, attempted, failed, errors = measure(args, ops, entry, api, caches, deadline, lines)
    if args.trace:
        probe_failures = run_probes(entry, lines) if args.workload == "ribbon_session" else 0
        metrics["cli.cap_probe_failures"] = (probe_failures, "count")
    else:
        metrics["setup_s"] = (min(setup_samples), "s")
        notes["setup_s"] = f"best of {SETUPS} set-ups"
        if args.workload == "ribbon_session":
            run_probes(entry, lines)

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:13s} {value:.6g} {unit}{note}")
    lines += extra
    for error in errors[:10]:
        lines.append(f"error: {error}")
    print("\n".join(lines))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

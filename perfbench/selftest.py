"""
Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Feeds the harness one deliberately wrong answer, one exception and one
operation that overruns its deadline, and exits nonzero unless each is
counted as a failed operation and every other answer passes its check.
"""

from __future__ import annotations

import signal
import sys
import time

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.PACKAGE.parent))
    api = run.import_package()
    signal.signal(signal.SIGALRM, run._alarm)
    entry = run.entry_table(api)
    ops = workloads.keyed_queries(1, api)[:200]
    target = next(i for i, op in enumerate(ops) if op.label == "canonical_of")
    honest = entry["canonical_of"]
    calls = []

    def one_wrong(p):
        calls.append(p)
        answer = honest(p)
        return tuple(reversed(answer)) if len(calls) == 1 else answer

    entry["canonical_of"] = one_wrong
    ops[target + 1:target + 1] = [
        workloads.Op("raises", lambda e: 1 // 0, lambda r: None),
        workloads.Op("sleeps", lambda e: time.sleep(1.0), lambda r: None),
    ]
    batch = run.Batch(ops, entry, 0.2, {})
    wrong = [e for e in batch.errors if e is not None]
    expected = {
        "wrong answer": wrong and wrong[0].startswith("canonical_of"),
        "exception": any(e.startswith("raises: raised ZeroDivisionError") for e in wrong),
        "overrun": any(e.startswith("sleeps: overran") for e in wrong),
    }
    for name, seen in expected.items():
        print(f"{name}: {'counted' if seen else 'MISSED'}")
    print(f"{batch.failed} of {len(ops)} operations failed")
    return 0 if batch.failed == 3 and all(expected.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

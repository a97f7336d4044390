"""
The four workloads: seeded inputs, the call each operation makes into the
package, and the independent check of its answer.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  A workload builds one batch of operations
from its seed; the run repeats that batch with cleared caches while its time
lasts.  Input sizes are stratified (a fixed number of operations per size)
so that different seeds give batches of the same cost and the figures of
different seeds can be compared.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import oracle

# Anything the CLI allows without --force should finish in about a second
# (ROADMAP, north-star aim 3); the deadline allows twice that for a loaded
# machine.
OP_DEADLINE_S = 2.0
# The slowest verify check took about 4 s when this benchmark was written;
# 5x that, as for the ROADMAP's bench gates.
CHECK_DEADLINE_S = 20.0


@dataclass(frozen=True)
class Op:
    """One operation: `call` runs it against the entry table, `check`
    returns None for a correct answer or the reason it is wrong."""

    label: str
    call: Callable[[dict], object]
    check: Callable[[object], str | None]


def cli_call(entry: dict, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = entry["cli.main"](argv)
    return code, out.getvalue()


def _random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, n + 1), n))


def _random_key(rng: random.Random, n: int) -> tuple[int, int, bool]:
    one_first = rng.random() < 0.5
    lo, hi = oracle.inv_range(n, one_first)
    return n, rng.randint(lo, hi), one_first


def _shuffle_in_class(rng: random.Random, p: tuple[int, ...]) -> tuple[int, ...]:
    """A random walk of window rewrites; the result stays in p's class."""
    for _ in range(2 * len(p)):
        i = rng.randrange(len(p) - 2)
        rewrites = oracle.window_rewrites(p[i:i + 3])
        if rewrites:
            p = p[:i] + rng.choice(sorted(rewrites)) + p[i + 3:]
    return p


def _fixed_order(ops: list[Op]) -> list[Op]:
    """Interleave the operations in an order that does not depend on the
    seed.  In the CLI workloads the first call to need a cache entry pays
    for it, and the peak memory depends on which calls run together, so a
    seed-dependent order would change the cost of each call."""
    random.Random(0).shuffle(ops)
    return ops


def _expect(label: str, ok: bool) -> str | None:
    return None if ok else label


# ---------------------------------------------------------------------------
# keyed_queries: closed-form library calls, no BFS, no polynomials, no CLI


def _check_canonical(p):
    return lambda r: _expect(f"canonical_of{p} = {r}", r == oracle.lexmin(*oracle.key_of(p)))


def _check_canonical_key(n, inv, one_first):
    return lambda r: _expect(f"canonical_of_key{(n, inv, one_first)} = {r}", r == oracle.lexmin(n, inv, one_first))


def _check_equivalent(p, q):
    return lambda r: _expect(f"equivalent{p, q} = {r}", r is (oracle.key_of(p) == oracle.key_of(q)))


def _check_foata(p):
    def check(r):
        ok = (
            oracle.is_permutation(r, len(p))
            and oracle.inversions(r) == oracle.major(p)
            and oracle.descents(oracle.inverse(r)) == oracle.descents(oracle.inverse(p))
        )
        return _expect(f"foata{p} = {r}", ok)
    return check


def _check_ns(p):
    def check(r):
        n = len(p)
        ok = (
            oracle.is_permutation(r, n)
            and oracle.descents(r) == oracle.descents(p)
            and oracle.inversions(r) == oracle.major(oracle.inverse(p))
            and oracle.one_before_n(r) == (p.index(n - 1) < p.index(n))
        )
        return _expect(f"ns_map{p} = {r}", ok)
    return check


def _walk(entry, p):
    steps = []
    while p is not None:
        steps.append(p)
        p = entry["next_lambda_down"](p)
    return tuple(steps)


def _check_walk(p):
    def check(steps):
        key = oracle.key_of(p)
        ok = (
            steps[0] == p
            and all(a > b for a, b in zip(steps, steps[1:]))
            and all(oracle.is_lambda(s) and oracle.key_of(s) == key for s in steps[1:])
            and steps[-1] == oracle.lexmin(*key)
        )
        return _expect(f"lambda walk from {p} ended at {steps[-1]}", ok)
    return check


def _check_insert(w, i):
    def check(r):
        n = len(w) + 1
        ok = (
            oracle.is_permutation(r, n)
            and oracle.inversions(r) == oracle.inversions(w) + n - 1 - i
            and r == oracle.lexmin(*oracle.key_of(oracle.appended(w, i)))
        )
        return _expect(f"insert({w}, {i}) = {r}", ok)
    return check


def keyed_queries(seed: int, api) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for n in range(10, 61):
        for _ in range(20):
            p = _random_perm(rng, n)
            ops.append(Op("canonical_of", lambda e, p=p: e["canonical_of"](p), _check_canonical(p)))
        for _ in range(15):
            key = _random_key(rng, n)
            obj = api.ClassKey(*key)
            ops.append(Op("canonical_of_key", lambda e, k=obj: e["canonical_of_key"](k),
                          _check_canonical_key(*key)))
        for j in range(16):
            p = _random_perm(rng, n)
            q = _shuffle_in_class(rng, p) if j % 2 else _random_perm(rng, n)
            ops.append(Op("equivalent", lambda e, p=p, q=q: e["equivalent"](p, q), _check_equivalent(p, q)))
        for _ in range(8):
            p = _random_perm(rng, n)
            ops.append(Op("foata", lambda e, p=p: e["foata"](p), _check_foata(p)))
            p = _random_perm(rng, n)
            ops.append(Op("ns_map", lambda e, p=p: e["ns_map"](p), _check_ns(p)))
    for n in range(10, 41):
        for _ in range(2):
            rising = sorted(x for x in range(1, n) if rng.random() < 0.5)
            p = tuple(rising) + (n,) + tuple(sorted(set(range(1, n)) - set(rising), reverse=True))
            ops.append(Op("lambda_walk", lambda e, p=p: _walk(e, p), _check_walk(p)))
    for n in range(5, 17):
        for _ in range(4):
            w = oracle.lexmin(*_random_key(rng, n - 1))
            i = rng.randrange(n)
            ops.append(Op("insert", lambda e, w=w, i=i: e["insert"](w, i), _check_insert(w, i)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# CLI workloads


def _payload(result) -> dict | None:
    code, text = result
    if code != 0:
        return None
    return json.loads(text)


def _key_text(n: int, inv: int, one_first: bool) -> str:
    return f"{n},{inv},{'1n' if one_first else 'n1'}"


def _check_ribbons(n, inv, one_first, m):
    key_json = {"n": n, "inv": inv, "oneBeforeN": one_first}

    def check(result):
        payload = _payload(result)
        if payload is None:
            return f"ribbons {_key_text(n, inv, one_first)} exited {result[0]}"
        if payload["key"] != key_json:
            return f"ribbons echoed key {payload['key']}"
        if payload["compositions"] != oracle.ribbon_compositions(n, inv, one_first):
            return f"ribbons {_key_text(n, inv, one_first)}: wrong compositions"
        if m is not None:
            expected = {"m": m, "degree": n, "terms": oracle.class_sum_terms(n, inv, one_first, m)}
            if payload.get("vars") != m or payload.get("sum") != expected:
                return f"ribbons {_key_text(n, inv, one_first)} --vars {m}: wrong sum"
        return None
    return check


def _ribbons_op(n: int, inv: int, one_first: bool, m: int | None = None) -> Op:
    argv = ["ribbons", "--key", _key_text(n, inv, one_first)]
    if m is not None:
        argv += ["--vars"] if m == n else ["--vars", str(m)]
    argv.append("--json")
    return Op("cli ribbons", lambda e, argv=argv: cli_call(e, argv), _check_ribbons(n, inv, one_first, m))


# (n, m) pairs for `ribbons --vars`: each is filled once per batch, then read.
VARS_PAIRS = ((5, 5), (6, 6), (7, 7), (7, 4))
# Where in a sign's inversion range the keys of the costlier operations
# sit; spreading them the same way for every seed keeps batches of
# different seeds at the same cost.  class-of takes the exact spot: a BFS
# closure costs the class size, and at n = 9 a key one inversion away can
# change a batch's cost by a tenth.
KEY_SPOTS = (0.2, 0.4, 0.6, 0.8)

# Ribbon sums at n = 8 and 9 are inside the CLI's closure cap (n <= 9), so
# they must finish within the deadline; when this benchmark was written
# they did not.
CAP_PROBES = ((8, 10, False), (9, 18, True))


def _spot_key(n: int, spot: float, one_first: bool, shift: int = 0) -> tuple[int, int, bool]:
    lo, hi = oracle.inv_range(n, one_first)
    inv = lo + round(spot * (hi - lo)) + shift
    return n, min(hi, max(lo, inv)), one_first


def ribbon_session(seed: int, api) -> list[Op]:
    rng = random.Random(seed)
    ops = [_ribbons_op(*_random_key(rng, n)) for n in range(10, 17) for _ in range(4 if n < 15 else 2)]
    for n, m in VARS_PAIRS:
        ops += [_ribbons_op(*_spot_key(n, spot, k % 2 == 0, rng.choice((-1, 0, 1))), m)
                for k, spot in enumerate(KEY_SPOTS)]
    return _fixed_order(ops)


def cap_probes() -> list[Op]:
    return [_ribbons_op(n, inv, one_first, n) for n, inv, one_first in CAP_PROBES]


def _check_class_of(p):
    def check(result):
        key = oracle.key_of(p)
        payload = _payload(result)
        if payload is None:
            return f"class-of {p} exited {result[0]}"
        members = {tuple(m) for m in payload["members"]}
        closed = all(q in members for m in members for q in oracle.moves(m))
        ok = (
            p in members
            and closed
            and all(oracle.key_of(m) == key for m in members)
            and payload["size"] == len(members) == len(payload["members"])
            and tuple(payload["canonical"]) == min(members) == oracle.lexmin(*key)
            and payload["key"] == {"n": key[0], "inv": key[1], "oneBeforeN": key[2]}
        )
        return _expect(f"class-of {p}: members not one closed class of its key", ok)
    return check


def _check_commute(i, j, q):
    def check(result):
        ok = _payload(result) == {"i": i, "j": j, "alphabet": q, "commutes": True}
        return _expect(f"commute {i} {j} --alphabet {q} returned {result}", ok)
    return check


def _check_confluence(q, max_len, limit):
    def check(result):
        payload = _payload(result)
        expected = [
            {"word": w, "endpoints": ends}
            for w, ends in oracle.confluence_counterexamples(max_len, q)[:limit]
        ]
        ok = payload == {"alphabet": q, "maxLen": max_len, "counterexamples": expected}
        return _expect(f"confluence q={q} len={max_len} limit={limit}: wrong list", ok)
    return check


def closure_session(seed: int, api) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n in (7, 8, 9):
        for k, spot in enumerate(KEY_SPOTS):
            canonical = oracle.lexmin(*_spot_key(n, spot, k % 2 == 0))
            for p in (_shuffle_in_class(rng, canonical), _shuffle_in_class(rng, canonical)):
                argv = ["class-of", "".join(map(str, p)), "--json"]
                ops.append(Op("cli class-of", lambda e, argv=argv: cli_call(e, argv), _check_class_of(p)))
    for q in (3, 4, 5):
        for i in range(1, q + 1):
            for j in range(i + 1, min(q, 8 - i) + 1):
                # Both orientations occur; a fixed one keeps the cost the same for every seed.
                a, b = (i, j) if (i + j) % 2 else (j, i)
                argv = ["commute", str(a), str(b), "--alphabet", str(q), "--json"]
                ops.append(Op("cli commute", lambda e, argv=argv: cli_call(e, argv), _check_commute(a, b, q)))
    for q in (3, 4):
        for max_len in (5, 6):
            limit = rng.randint(20, 30)
            argv = ["confluence", "--alphabet", str(q), "--max-len", str(max_len), "--limit", str(limit), "--json"]
            ops.append(Op("cli confluence", lambda e, argv=argv: cli_call(e, argv),
                          _check_confluence(q, max_len, limit)))
    return _fixed_order(ops)


# ---------------------------------------------------------------------------
# verify_all: the paper-reproduction path, one operation per check


def _check_passed(name):
    return lambda r: _expect(f"verify check {name} failed: {r}", r[1] is True)


def verify_all(seed: int, api) -> list[Op]:
    ops = []
    for check in api.verify.SUITES["all"]:
        name = check.__name__.removeprefix("check_")
        fn = f"verify.{check.__name__}"

        def call(e, fn=fn):
            r = e[fn]()
            return r.name, r.passed, r.detail, r.counterexample
        ops.append(Op(f"check {name}", call, _check_passed(name)))
    return ops


WORKLOADS: dict[str, Callable] = {
    "verify_all": verify_all,
    "keyed_queries": keyed_queries,
    "ribbon_session": ribbon_session,
    "closure_session": closure_session,
}

DEADLINES = {
    "verify_all": CHECK_DEADLINE_S,
    "keyed_queries": OP_DEADLINE_S,
    "ribbon_session": OP_DEADLINE_S,
    "closure_session": OP_DEADLINE_S,
}

# Batches per group: each operation's latency is its best within a group.
# Fixed from the batch times at the seed commit so that a 20 s run holds one
# group (verify_all) or three to six (the others); a change to the package
# changes how many groups fit, never how deep a best goes.
GROUP_SIZE = {
    "verify_all": 3,
    "keyed_queries": 8,
    "ribbon_session": 4,
    "closure_session": 5,
}

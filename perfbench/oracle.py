"""
Independent answers for the benchmark's output checks.

Nothing here imports forgottenmonoid: every expected value is recomputed
from definitions (inversions, descents, the four window rules) so that a
wrong answer from the package cannot also be the checker's answer.  The
only result of the paper used is the class theorem that ``verify`` checks
exhaustively: a forgotten class is the set of permutations with one
inversion count and one relative order of the letters 1 and n.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from functools import lru_cache

# (lhs, rhs) over the symbols a < b < c; each rule applies in both directions.
RULES = (("aba", "baa"), ("bab", "bba"), ("acb", "bac"), ("bca", "cab"))


def inversions(p) -> int:
    """Pairs in decreasing order, counted against a sorted suffix."""
    suffix: list[int] = []
    count = 0
    for x in reversed(p):
        count += bisect_left(suffix, x)
        insort(suffix, x)
    return count


def one_before_n(p) -> bool:
    return p.index(min(p)) < p.index(max(p))


def key_of(p) -> tuple[int, int, bool]:
    return len(p), inversions(p), one_before_n(p)


def descents(p) -> frozenset[int]:
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def major(p) -> int:
    return sum(descents(p))


def inverse(p) -> tuple[int, ...]:
    q = [0] * len(p)
    for position, value in enumerate(p, 1):
        q[value - 1] = position
    return tuple(q)


def is_permutation(p, n: int) -> bool:
    return len(p) == n and sorted(p) == list(range(1, n + 1))


def is_lambda(p) -> bool:
    top = p.index(max(p))
    return all(p[i] < p[i + 1] for i in range(top)) and all(
        p[i] > p[i + 1] for i in range(top, len(p) - 1)
    )


def inv_range(n: int, one_first: bool) -> tuple[int, int]:
    """Inversion counts of the permutations of n letters whose least letter
    comes before (one_first) or after their greatest."""
    if one_first:
        return 0, (n - 1) * (n - 2) // 2
    return n - 1, n * (n - 1) // 2


def lexmin(n: int, inv: int, one_first: bool) -> tuple[int, ...] | None:
    """
    Lexicographically least permutation of 1..n with `inv` inversions and
    letter 1 before n iff `one_first`, by a greedy scan; by the class
    theorem this is the canonical word of the key.  None if no such word.
    """
    avail = list(range(1, n + 1))
    out: list[int] = []
    need = inv
    decided = False
    while avail:
        size = len(avail) - 1
        start = max(0, need - size * (size - 1) // 2)
        for j in range(start, min(need, size) + 1):
            x = avail[j]
            now_decided = decided
            if not decided and x in (1, n):
                if (x == 1) != one_first:
                    continue
                now_decided = True
            lo, hi = (0, size * (size - 1) // 2) if now_decided else inv_range(size, one_first)
            if lo <= need - j <= hi:
                break
        else:
            return None
        out.append(avail.pop(j))
        need -= j
        decided = now_decided
    return tuple(out)


def appended(w, i: int) -> tuple[int, ...]:
    """Standardization of w with letter i appended (ties rank left first)."""
    return tuple(x if x <= i else x + 1 for x in w) + (i + 1,)


# ---------------------------------------------------------------------------
# window rules


def _match(pattern: str, window) -> dict[str, int] | None:
    values: dict[str, int] = {}
    for symbol, letter in zip(pattern, window):
        if values.setdefault(symbol, letter) != letter:
            return None
    ordered = [values[s] for s in "abc" if s in values]
    if len(set(ordered)) != len(ordered) or ordered != sorted(ordered):
        return None
    return values


@lru_cache(maxsize=None)
def window_rewrites(window: tuple[int, int, int]) -> frozenset[tuple[int, int, int]]:
    found = set()
    for lhs, rhs in RULES:
        for src, dst in ((lhs, rhs), (rhs, lhs)):
            values = _match(src, window)
            if values is not None:
                found.add(tuple(values[s] for s in dst))
    return frozenset(found)


def moves(w) -> set[tuple[int, ...]]:
    result = set()
    for i in range(len(w) - 2):
        for window in window_rewrites(tuple(w[i:i + 3])):
            result.add(w[:i] + window + w[i + 3:])
    return result


def descending_endpoints(w) -> set[tuple[int, ...]]:
    ends, seen, stack = set(), set(), [tuple(w)]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        lower = [u for u in moves(current) if u < current]
        stack.extend(lower)
        if not lower:
            ends.add(current)
    return ends


@lru_cache(maxsize=None)
def confluence_counterexamples(max_len: int, q: int) -> tuple:
    """Every word of length 3..max_len over 1..q, in scan order, whose
    descending rewrites stall on more than one word."""
    found = []
    for length in range(3, max_len + 1):
        for w in itertools.product(range(1, q + 1), repeat=length):
            ends = descending_endpoints(w)
            if len(ends) > 1:
                found.append((list(w), [list(e) for e in sorted(ends)]))
    return tuple(found)


# ---------------------------------------------------------------------------
# ribbons and quasi-symmetric sums


def ribbon_compositions(n: int, inv: int, one_first: bool) -> list[list[int]]:
    """Compositions of n with major index inv (cut sets summing to inv),
    not ending in 1 for 1-before-n keys and ending in 1 otherwise."""
    found = []

    def extend(smallest: int, remaining: int, cuts: list[int]) -> None:
        if remaining == 0:
            marks = [0] + cuts + [n]
            parts = [b - a for a, b in zip(marks, marks[1:])]
            if (parts[-1] == 1) != one_first:
                found.append(parts)
            return
        for c in range(smallest, min(remaining, n - 1) + 1):
            extend(c + 1, remaining - c, cuts + [c])

    extend(1, inv, [])
    return sorted(found)


@lru_cache(maxsize=None)
def members_by_key(n: int) -> dict[tuple[int, int, bool], list[frozenset[int]]]:
    """Descent sets of every permutation of 1..n, grouped by class key."""
    groups: dict[tuple[int, int, bool], list[frozenset[int]]] = {}
    for p in itertools.permutations(range(1, n + 1)):
        groups.setdefault(key_of(p), []).append(descents(p))
    return groups


def class_sum_terms(n: int, inv: int, one_first: bool, m: int) -> list[dict]:
    """
    The class's sum of fundamental quasi-symmetric functions in m variables.
    A monomial x^e fixes the weakly increasing index sequence, so its
    coefficient in F_D is 1 exactly when D lies inside the cut set of the
    nonzero parts of e; the class coefficient counts such members.
    """
    members = members_by_key(n)[(n, inv, one_first)]
    terms = []
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        marks = (-1,) + bars + (n + m - 1,)
        exponents = [b - a - 1 for a, b in zip(marks, marks[1:])]
        cuts = set(itertools.accumulate(e for e in exponents if e))
        cuts.discard(n)
        coeff = sum(1 for d in members if d <= cuts)
        if coeff:
            terms.append({"exp": exponents, "coeff": coeff})
    return sorted(terms, key=lambda t: t["exp"])

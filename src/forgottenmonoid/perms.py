"""
Permutations, words, and compositions in one-line notation.

Conventions used throughout the package:

- A permutation of size n is a tuple containing each of 1..n exactly once,
  e.g. ``(3, 1, 4, 2)`` for the one-line word 3142.
- A word is any tuple of integers; repeated letters are allowed.
- A composition of n is a tuple of positive integers summing to n.
- Statistics use 1-based positions: descents of a length-n word live in
  1..n-1, and a composition of n corresponds to the subset of 1..n-1 formed
  by its partial sums.

Everything here is a pure function over immutable tuples.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from operator import gt, le, lt
from typing import Iterator, Sequence

Perm = tuple[int, ...]
Word = tuple[int, ...]
Composition = tuple[int, ...]


class ParseError(ValueError):
    """A text form could not be read."""


def check_permutation(word: Sequence[int]) -> Perm:
    """Validate one-line notation (each of 1..n exactly once) and return a tuple."""
    p = tuple(word)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def check_composition(parts: Sequence[int]) -> Composition:
    """Validate a composition (positive parts, nonempty) and return a tuple."""
    c = tuple(parts)
    if not c or any(x < 1 for x in c):
        raise ValueError(f"not a composition: {c!r}")
    return c


def inversion_number(word: Sequence[int]) -> int:
    """
    Number of pairs appearing in decreasing order of value.

    Scans right to left, bisecting each letter into a sorted list of the
    letters already seen; the insertion point counts the strictly smaller
    letters to its right, so repeated letters are never counted as
    inversions.  O(n log n) comparisons; the list insertions move O(n^2)
    pointers in all, by memmove.

    >>> inversion_number((4, 3, 2, 1))
    6
    >>> inversion_number((3, 1, 4, 2))
    3
    """
    seen: list[int] = []
    count = 0
    for x in reversed(word):
        i = bisect_left(seen, x)
        count += i
        seen.insert(i, x)
    return count


def descent_set(word: Sequence[int]) -> set[int]:
    """Positions i (1-based) with word[i] > word[i+1]."""
    return {i for i in range(1, len(word)) if word[i - 1] > word[i]}


def composition_from_subset(subset: set[int], n: int) -> Composition:
    """
    The composition of n whose partial sums are the given subset of 1..n-1.

    >>> composition_from_subset({2}, 4)
    (2, 2)
    >>> composition_from_subset(set(), 4)
    (4,)
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cuts = sorted(subset)
    if any(not 1 <= c <= n - 1 for c in cuts):
        raise ValueError(f"subset {subset!r} not contained in 1..{n - 1}")
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(n - prev)
    return tuple(parts)


def descent_composition(word: Sequence[int]) -> Composition:
    """Lengths of the maximal weakly increasing runs of the word."""
    return composition_from_subset(descent_set(word), len(word))


def recoil_composition(p: Sequence[int]) -> Composition:
    """Descent composition of the inverse permutation."""
    return descent_composition(inverse(p))


def major_index(word: Sequence[int]) -> int:
    """Sum of the descent positions."""
    return sum(descent_set(word))


def composition_maj(parts: Sequence[int]) -> int:
    """
    Major index of a composition (c_1..c_l): sum of (l - i) * c_i.

    >>> composition_maj((1, 1, 1, 1, 4))
    10
    """
    check_composition(parts)
    length = len(parts)
    return sum((length - i) * c for i, c in enumerate(parts, 1))


def inverse(p: Sequence[int]) -> Perm:
    """
    Inverse permutation in one-line notation.

    >>> inverse((2, 3, 4, 1))
    (4, 1, 2, 3)
    """
    q = [0] * len(p)
    for pos, v in enumerate(p, 1):
        q[v - 1] = pos
    return tuple(q)


def reverse(word: Sequence[int]) -> Word:
    """The word read from right to left."""
    return tuple(reversed(word))


def complement(p: Sequence[int]) -> Perm:
    """Replace every letter x by n + 1 - x."""
    return tuple(map((len(p) + 1).__sub__, p))


def schuetzenberger(p: Sequence[int]) -> Perm:
    """
    Schuetzenberger involution: reversal followed by complementation.

    >>> schuetzenberger((8, 4, 2, 9, 5, 6, 1, 3, 7))
    (3, 7, 9, 4, 5, 1, 8, 6, 2)
    """
    return tuple(map((len(p) + 1).__sub__, reversed(p)))


def standardize(word: Sequence[int]) -> Perm:
    """
    The permutation with the same relative order as the word; equal letters
    are ranked left to right.

    >>> standardize((1, 2, 1))
    (1, 3, 2)
    >>> standardize((1, 3, 6, 5, 4, 2, 0))
    (2, 4, 7, 6, 5, 3, 1)
    """
    if not word:
        raise ValueError("cannot standardize the empty word")
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    result = [0] * len(word)
    for rank, i in enumerate(order, 1):
        result[i] = rank
    return tuple(result)


def is_lambda_shaped(p: Sequence[int]) -> bool:
    """True iff the word strictly increases to its maximum, then strictly
    decreases.  The peak may sit at either end."""
    if not p:
        raise ValueError("the empty word has no shape")
    peak = p.index(max(p))
    return all(map(lt, p[:peak], p[1:peak + 1])) and all(map(gt, p[peak:], p[peak + 1:]))


def is_v_shaped(p: Sequence[int]) -> bool:
    """True iff the word strictly decreases to its minimum, then strictly
    increases.  The valley may sit at either end."""
    if not p:
        raise ValueError("the empty word has no shape")
    valley = p.index(min(p))
    return all(map(gt, p[:valley], p[1:valley + 1])) and all(map(lt, p[valley:], p[valley + 1:]))


def avoids_pattern(p: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    True iff no subsequence of p is order-isomorphic to the pattern, a
    nonempty permutation; equal letters of p rank left to right, as in
    standardize.

    Each of the C(n, k) windows is read in the order of the pattern's
    inverse and tested as one chain of k - 1 comparisons that stops at the
    first failure: O(k * C(n, k)) comparisons at worst, and most windows
    fail within the first two.

    >>> avoids_pattern((1, 2, 4, 5, 3), (2, 1, 3))
    True
    >>> avoids_pattern((3, 1, 4, 2), (3, 1, 2))
    False
    """
    k = len(pattern)
    if k == 0 or sorted(pattern) != list(range(1, k + 1)):
        raise ValueError(f"pattern must be a nonempty permutation, got {tuple(pattern)!r}")
    if k > len(p):
        return True
    # Ranks r and r + 1 sit at window positions a and b.  Equal letters rank
    # left to right, so they pass the step only when a < b: <= there, < else.
    order = [i - 1 for i in inverse(pattern)]
    steps = [(a, b, lt if a > b else le) for a, b in zip(order, order[1:])]
    for window in itertools.combinations(p, k):
        for a, b, op in steps:
            if not op(window[a], window[b]):
                break
        else:
            return False
    return True


def all_permutations(n: int) -> Iterator[Perm]:
    """All permutations of 1..n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def sweep(n: int) -> Iterator[tuple[Perm, int, bool]]:
    """
    Each p of all_permutations(n), in that order, with inversion_number(p)
    and whether 1 comes before n; n must be at least 2.

    Lexicographic order is that of the Lehmer codes, whose digit sum is inv
    (Knuth, TAOCP vol. 3, 5.1.1): S_m's inversion numbers are S_(m-1)'s
    shifted by each first digit 0..m-1 in turn.  1 comes before m in every p
    starting with 1, in none starting with m, and otherwise as in S_(m-1).
    Both are lists up to S_(n-1) and lazy chains at the top level.

    >>> [inv for _, inv, _ in sweep(4)][:8]
    [0, 1, 1, 2, 2, 3, 1, 2]
    >>> next(q for q in sweep(3) if not q[2])
    ((2, 3, 1), 2, False)
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    invs, signs = [0], [True]  # S_1; its sign is repeated m - 2 = 0 times
    for m in range(2, n):
        size = len(invs)
        invs = [d + c for d in range(m) for c in invs]
        signs = [True] * size + signs * (m - 2) + [False] * size
    size = len(invs)
    return zip(
        all_permutations(n),
        itertools.chain(*[map(d.__add__, invs) for d in range(n)]),
        itertools.chain(itertools.repeat(True, size), *[signs] * (n - 2), itertools.repeat(False, size)),
    )


def _subsets_with_sum(m: int, total: int) -> list[list[int]]:
    """Every subset of 1..m that sums to total, as an increasing list, built
    largest element first: y is taken only while the remainder left after
    it is at most 1 + 2 + .. + (y - 1), so every branch ends in a hit."""
    found: list[list[int]] = []
    chosen: list[int] = []  # largest first

    def extend(remainder: int, largest: int) -> None:
        if remainder == 0:
            found.append(chosen[::-1])
        for y in range(min(largest, remainder), 0, -1):
            if remainder - y > y * (y - 1) // 2:
                break
            chosen.append(y)
            extend(remainder - y, y - 1)
            chosen.pop()

    extend(total, m)
    return found


def all_compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n."""
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            yield composition_from_subset(set(cuts), n)


DECIMAL = "[0-9]+"  # the one integer rule of every text form: ASCII digits only


def parse_permutation(text: str) -> Perm:
    """
    Read a permutation from text: either a comma list ("8,4,2,9,5,6,1,3,7")
    or, for n <= 9, a contiguous digit string ("3142"), with no sign,
    underscore, whitespace or non-ASCII digit.
    """
    if re.fullmatch(f"{DECIMAL}(,{DECIMAL})*", text, re.ASCII):
        try:
            return check_permutation(map(int, text.split(",") if "," in text else text))
        except ValueError:
            pass
    raise ParseError(f"cannot read permutation from {text!r}")


def format_permutation(p: Sequence[int]) -> str:
    return ",".join(map(str, p))

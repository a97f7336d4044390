"""
Sums of ribbon Schur functions, the Foata transform, and the ribbon
expansion of forgotten-class sums.

A class's sum of fundamentals is evaluated in finitely many variables (n by
default, which determine a degree-n function) in closed form by
``class_qsym_sum``, as a plain map from exponent vectors to nonzero
coefficients.  ``verify`` holds the descent-histogram and M-basis oracles.
``_fundamental`` and ``_ribbons_by_recoil`` are oracles too; they stay here
only because ``perfbench`` clears and reads their caches by name.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from itertools import repeat
from operator import add, sub
from typing import Sequence

from .forgotten import ClassKey, descent_class_counts
from .perms import Composition, _subsets_with_sum, check_permutation, inverse


@lru_cache(maxsize=None)
def _fundamental(n: int, descents: frozenset[int], num_vars: int) -> Counter[tuple[int, ...]]:
    """
    Gessel's fundamental F_D in num_vars variables, as its monomials'
    exponent vectors: one per weakly increasing index sequence that
    increases strictly at every position of D.  ``verify`` sums these over
    BFS classes as an oracle for ``class_qsym_sum`` that shares nothing
    with its closed form.  Do not mutate.

    >>> sorted(_fundamental(2, frozenset(), 2).items())
    [((0, 2), 1), ((1, 1), 1), ((2, 0), 1)]
    >>> _fundamental(2, frozenset({1}), 2)
    Counter({(1, 1): 1})
    """
    counts: Counter[tuple[int, ...]] = Counter()
    exponents = [0] * num_vars

    def extend(position: int, minimum: int) -> None:
        if position > n:
            counts[tuple(exponents)] += 1
            return
        for value in range(minimum, num_vars + 1):
            exponents[value - 1] += 1
            extend(position + 1, value + 1 if position in descents else value)
            exponents[value - 1] -= 1

    extend(1, 1)
    return counts


@lru_cache(maxsize=256)
def _ribbons_by_recoil(parts: Composition) -> Counter[int]:
    """
    Descent histogram of the permutations with recoil composition parts: the
    inverses of the q whose descents are exactly the partial sums of parts,
    x being a descent of the inverse iff x + 1 precedes x.  Do not mutate.
    """
    n = sum(parts)
    falls = set(itertools.accumulate(parts[:-1]))
    histogram: Counter[int] = Counter()

    def extend(last: int, descents: int, unused: frozenset[int]) -> None:
        if not unused:
            histogram[descents] += 1
        falling = n - len(unused) in falls
        for x in unused:
            if (x < last) == falling:
                placed_above = x < n and x + 1 not in unused
                extend(x, descents | 1 << (x - 1) if placed_above else descents, unused - {x})

    extend(0, 0, frozenset(range(1, n + 1)))
    return histogram


def foata(p: Sequence[int]) -> tuple[int, ...]:
    """
    Foata's second fundamental transform: a bijection carrying the major
    index to the inversion number while preserving the recoil composition.
    Each letter a is appended after cutting the image built so far behind
    every letter greater than a (if the image ends above a) or smaller than
    a (otherwise) and rotating the last letter of every block to its front.

    Every block ends in exactly one cut letter, so if c_1..c_m are the cut
    letters in order of appearance, the rotated blocks read c_1, then the
    image without its last letter (which is c_m) with each c_j relabeled
    c_(j+1), then a.  For n <= 255 the image is a ``bytes`` object and each step is
    that one relabeling by ``bytes.translate``; longer words take the list
    loop that rotates block by block.

    >>> foata((1, 3, 2))
    (3, 1, 2)
    >>> foata((2, 3, 1))
    (2, 3, 1)
    """
    return _foata(check_permutation(p))


_BYTES = bytes(range(256))


def _foata(p: Sequence[int]) -> tuple[int, ...]:
    """foata without validating p."""
    if len(p) > 255:
        return _foata_loop(p)
    image = bytes(p[:1])
    for a in p[1:]:
        # the letters on the same side of a as the last letter, in order
        cut = image.translate(None, _BYTES[:a] if image[-1] > a else _BYTES[a:])
        image = cut[:1] + image[:-1].translate(bytes.maketrans(cut[:-1], cut[1:])) + _BYTES[a : a + 1]
    return tuple(image)


def _foata_loop(p: Sequence[int]) -> tuple[int, ...]:
    """_foata block by block, for letters of any size."""
    image: list[int] = []
    for a in p:
        if image:
            cut_above = image[-1] > a
            rebuilt: list[int] = []
            start = 0
            for pos, letter in enumerate(image):
                if (letter > a) if cut_above else (letter < a):
                    rebuilt.append(letter)
                    rebuilt.extend(image[start:pos])
                    start = pos + 1
            image = rebuilt
        image.append(a)
    return tuple(image)


def ns_map(p: Sequence[int]) -> tuple[int, ...]:
    """
    The inverse-conjugated Foata transform: preserves descent sets, carries
    the major index of the inverse to the inversion number, and puts 1
    before n exactly when n - 1 preceded n.

    >>> ns_map((1, 3, 2))
    (2, 3, 1)
    """
    return inverse(_foata(inverse(check_permutation(p))))


def compositions_with_maj(n: int, maj: int) -> set[Composition]:
    """
    All compositions of n with the given major index, the sum of their
    partial sums below n: those are the subsets of 1..n-1 summing to maj.

    >>> sorted(compositions_with_maj(5, 3))
    [(1, 1, 3), (3, 2)]
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if maj < 0:
        raise ValueError(f"major index must be nonnegative, got {maj}")
    return {tuple(map(sub, [*cuts, n], [0, *cuts])) for cuts in _subsets_with_sum(n - 1, maj)}


def class_qsym_sum(key: ClassKey, num_vars: int) -> dict[tuple[int, ...], int]:
    """
    The class's sum of fundamentals in num_vars variables, in closed form,
    its exponent vectors in lexicographic order.  The sum is symmetric, by
    the ribbon theorem, so x^e takes the M coefficient of the partition
    sorted(e): descent_class_counts of that partition at the key, computed
    once per partition, with one q-multinomial memo per call.

    The vectors are built from the last variable forwards, each tagged with
    its multiset of entries as a sum of weights (num_vars + 1)^e, so no
    vector is sorted.

    >>> class_qsym_sum(ClassKey(3, 1, True), 2)
    {(1, 2): 1, (2, 1): 1}
    """
    if num_vars < 1:
        raise ValueError(f"need at least one variable, got {num_vars}")
    n, memo = key.n, {}
    weight = [(num_vars + 1) ** e for e in range(n + 1)]
    # vectors[m]: the vectors over the variables left that sum to m, in
    # lexicographic order; tags[m]: their multisets
    vectors, tags = [[(m,)] for m in range(n + 1)], [[w] for w in weight]
    for left in range(num_vars - 1, 0, -1):
        sums = range(0 if left > 1 else n, n + 1)
        vectors = [[v for e in range(m + 1) for v in map(add, repeat((e,)), vectors[m - e])] for m in sums]
        tags = [[t for e in range(m + 1) for t in map(add, repeat(weight[e]), tags[m - e])] for m in sums]
    coefficients = {
        tag: descent_class_counts(tuple(sorted(filter(None, exponents), reverse=True)), memo)[key.one_before_n][key.inv]
        for tag, exponents in dict(zip(tags[-1], vectors[-1])).items()
    }
    return {v: c for v, c in zip(vectors[-1], map(coefficients.get, tags[-1])) if c}


def ribbon_expansion(key: ClassKey) -> frozenset[Composition]:
    """
    The ribbons summing to the class's quasi-symmetric sum, by composition:
    those with major index equal to the class's inversion count, not ending
    in 1 for 1-before-n classes and ending in 1 otherwise.  ``verify`` checks
    this against the lambda and v expansions and the sign pairing.
    """
    return frozenset(
        parts
        for parts in compositions_with_maj(key.n, key.inv)
        if (parts[-1] == 1) != key.one_before_n
    )

"""
Quasi-symmetric functions truncated to finitely many variables, ribbon Schur
functions, the Foata transform, and the ribbon expansion of forgotten-class
sums.

Two homogeneous degree-n quasi-symmetric functions agree iff their
truncations to n variables agree, so n variables is the default everywhere a
polynomial identity is checked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .forgotten import ClassKey, canonical_of_key, lambda_members, v_members
from .perms import (
    Composition,
    all_permutations,
    check_composition,
    descent_set,
    inverse,
    recoil_composition,
    reverse,
)
from .words import word_closure


class TruncatedPolynomial:
    """
    Homogeneous integer polynomial in a fixed number of commuting variables,
    stored sparsely by exponent vector.  Instances are treated as immutable.
    """

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars: int, degree: int, terms: dict[tuple[int, ...], int] | None = None):
        if num_vars < 1:
            raise ValueError(f"need at least one variable, got {num_vars}")
        self.num_vars = num_vars
        self.degree = degree
        clean: dict[tuple[int, ...], int] = {}
        for exponents, coeff in (terms or {}).items():
            if not coeff:
                continue
            if len(exponents) != num_vars or sum(exponents) != degree:
                raise ValueError(f"bad exponent vector {exponents!r} for m={num_vars}, degree={degree}")
            clean[tuple(exponents)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, num_vars: int, degree: int) -> "TruncatedPolynomial":
        return cls(num_vars, degree)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "TruncatedPolynomial") -> None:
        if self.num_vars != other.num_vars or self.degree != other.degree:
            raise ValueError(
                f"shape mismatch: (m={self.num_vars}, deg={self.degree})"
                f" vs (m={other.num_vars}, deg={other.degree})"
            )

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exponents, coeff in other.terms.items():
            terms[exponents] = terms.get(exponents, 0) + coeff
        return TruncatedPolynomial(self.num_vars, self.degree, terms)

    def __sub__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exponents, coeff in other.terms.items():
            terms[exponents] = terms.get(exponents, 0) - coeff
        return TruncatedPolynomial(self.num_vars, self.degree, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.degree, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exponents in sorted(self.terms, reverse=True):
            coeff = self.terms[exponents]
            monomial = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(exponents, 1)
                if e
            )
            pieces.append(f"{coeff:+d}*{monomial}" if monomial else f"{coeff:+d}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"TruncatedPolynomial(m={self.num_vars}, degree={self.degree}, {len(self.terms)} terms)"

    def to_json_dict(self) -> dict:
        return {
            "m": self.num_vars,
            "degree": self.degree,
            "terms": [
                {"exp": list(exponents), "coeff": self.terms[exponents]}
                for exponents in sorted(self.terms)
            ],
        }


def is_symmetric(p: TruncatedPolynomial) -> bool:
    """True iff p is invariant under every adjacent swap of its variables."""
    for j in range(p.num_vars - 1):
        swapped: dict[tuple[int, ...], int] = {}
        for exponents, coeff in p.terms.items():
            e = list(exponents)
            e[j], e[j + 1] = e[j + 1], e[j]
            swapped[tuple(e)] = coeff
        if swapped != p.terms:
            return False
    return True


@lru_cache(maxsize=None)
def _fundamental(n: int, descents: frozenset[int], num_vars: int) -> TruncatedPolynomial:
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
    return TruncatedPolynomial(num_vars, n, dict(counts))


def fundamental_qsym(n: int, descents: Iterable[int], num_vars: int) -> TruncatedPolynomial:
    """
    Gessel's fundamental quasi-symmetric function: the sum of monomials
    x_{i_1} .. x_{i_n} over weakly increasing index sequences that increase
    strictly at every position of the descent set, truncated to num_vars
    variables.

    >>> sorted(fundamental_qsym(2, set(), 2).terms)
    [(0, 2), (1, 1), (2, 0)]
    >>> fundamental_qsym(2, {1}, 2).terms
    {(1, 1): 1}
    """
    descents = frozenset(descents)
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if any(not 1 <= d <= n - 1 for d in descents):
        raise ValueError(f"descents {sorted(descents)} not contained in 1..{n - 1}")
    return _fundamental(n, descents, num_vars)


@lru_cache(maxsize=None)
def _ribbons_by_recoil(n: int, num_vars: int) -> dict[Composition, TruncatedPolynomial]:
    sums: dict[Composition, Counter] = {}
    for p in all_permutations(n):
        poly = fundamental_qsym(n, frozenset(descent_set(p)), num_vars)
        bucket = sums.setdefault(recoil_composition(p), Counter())
        bucket.update(poly.terms)
    return {
        parts: TruncatedPolynomial(num_vars, n, dict(counter))
        for parts, counter in sums.items()
    }


def ribbon_schur(parts: Sequence[int], num_vars: int) -> TruncatedPolynomial:
    """
    The ribbon Schur function of a composition, computed as the sum of
    fundamental quasi-symmetric functions over all permutations whose recoil
    composition equals it.
    """
    parts = check_composition(parts)
    return _ribbons_by_recoil(sum(parts), num_vars)[parts]


def foata(p: Sequence[int]) -> tuple[int, ...]:
    """
    Foata's second fundamental transform: a bijection carrying the major
    index to the inversion number while preserving the recoil composition.
    Each letter a is appended after cutting the image built so far behind
    every letter greater than a (if the image ends above a) or smaller than
    a (otherwise) and rotating the last letter of every block to its front.

    >>> foata((1, 3, 2))
    (3, 1, 2)
    >>> foata((2, 3, 1))
    (2, 3, 1)
    """
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
    return inverse(foata(inverse(p)))


def compositions_with_maj(n: int, maj: int) -> set[Composition]:
    """
    All compositions of n with the given major index.

    The major index of a composition is the sum of its partial sums below n,
    so the hits are the subsets of 1..n-1 that sum to maj.  They are built
    largest part first, and a part y is taken only while the remainder left
    after it is at most 1 + 2 + .. + (y - 1), so every branch ends in a hit.

    >>> sorted(compositions_with_maj(5, 3))
    [(1, 1, 3), (3, 2)]
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if maj < 0:
        raise ValueError(f"major index must be nonnegative, got {maj}")
    found: set[Composition] = set()
    cuts: list[int] = []  # partial sums, largest first

    def extend(remainder: int, largest: int) -> None:
        if remainder == 0:
            ascending = cuts[::-1]
            found.add(tuple(b - a for a, b in zip([0, *ascending], [*ascending, n])))
            return
        for y in range(min(largest, remainder), 0, -1):
            if remainder - y > y * (y - 1) // 2:
                break
            cuts.append(y)
            extend(remainder - y, y - 1)
            cuts.pop()

    if maj <= n * (n - 1) // 2:
        extend(maj, n - 1)
    return found


@dataclass(frozen=True)
class RibbonSum:
    """A 0-1 sum of ribbon Schur functions, recorded by its compositions."""

    n: int
    compositions: frozenset[Composition]

    def __str__(self) -> str:
        if not self.compositions:
            return "0"
        return " + ".join(
            "r[" + ",".join(map(str, parts)) + "]" for parts in sorted(self.compositions)
        )

    def evaluate(self, num_vars: int) -> TruncatedPolynomial:
        total = TruncatedPolynomial.zero(num_vars, self.n)
        for parts in self.compositions:
            total = total + ribbon_schur(parts, num_vars)
        return total


def expansion_by_lambda(key: ClassKey) -> set[Composition]:
    """Reversed recoil compositions of the class's lambda-shaped members."""
    return {reverse(recoil_composition(w)) for w in lambda_members(key)}


def expansion_by_v(key: ClassKey) -> set[Composition]:
    """Recoil compositions of the class's v-shaped members."""
    return {recoil_composition(w) for w in v_members(key)}


def ribbon_expansion(key: ClassKey) -> RibbonSum:
    """
    The set of ribbon compositions whose ribbon Schur functions sum to the
    class's quasi-symmetric sum: the compositions with major index equal to
    the class's inversion count, keeping those not ending in 1 for
    1-before-n classes and those ending in 1 otherwise.  ``verify`` checks
    this against the lambda and v expansions (``check_composition_partition``)
    and the pairing of signs to endings (``check_sign_pairing``).
    """
    return RibbonSum(key.n, frozenset(
        parts
        for parts in compositions_with_maj(key.n, key.inv)
        if (parts[-1] == 1) != key.one_before_n
    ))


def class_qsym_sum(key: ClassKey, num_vars: int) -> TruncatedPolynomial:
    """Sum of fundamental quasi-symmetric functions over the keyed class."""
    total: Counter[tuple[int, ...]] = Counter()
    for member in word_closure(canonical_of_key(key)):
        poly = fundamental_qsym(key.n, frozenset(descent_set(member)), num_vars)
        total.update(poly.terms)
    return TruncatedPolynomial(num_vars, key.n, dict(total))

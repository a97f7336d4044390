"""
The general rewriting relations on words with repeated letters, normal forms
by exhaustive closure, and noncommutative polynomials over a finite ordered
alphabet.

The four window rules (a < b < c throughout) are

    aba <-> baa,   bab <-> bba,   acb <-> bac,   bca <-> cab.

This is the package's one rule table; on permutations only the last two
rules act.  No orientation of these rules is assumed confluent; a class's
normal form is simply the lexicographically least word of its closure, which
is cheap to compute at the word lengths used here.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Sequence

from .perms import Word, check_word

_normal_form_cache: dict[Word, Word] = {}


def _rewrite_window(x: int, y: int, z: int) -> tuple[int, int, int] | None:
    if x < z < y:  # acb -> bac
        return (z, x, y)
    if y < x < z:  # bac -> acb
        return (y, z, x)
    if z < x < y:  # bca -> cab
        return (y, z, x)
    if y < z < x:  # cab -> bca
        return (z, x, y)
    if x == z and x < y:  # aba -> baa
        return (y, x, x)
    if y == z and y < x:  # baa -> aba
        return (y, x, y)
    if x == z and y < x:  # bab -> bba
        return (x, x, y)
    if x == y and z < x:  # bba -> bab
        return (x, z, x)
    return None


def general_moves(w: Sequence[int]) -> set[Word]:
    """
    All words obtained by rewriting one three-letter window.

    >>> general_moves((1, 2, 1))
    {(2, 1, 1)}
    >>> general_moves((1, 1, 1))
    set()
    """
    w = tuple(w)
    moves: set[Word] = set()
    for i in range(len(w) - 2):
        window = _rewrite_window(w[i], w[i + 1], w[i + 2])
        if window is not None:
            moves.add(w[:i] + window + w[i + 3:])
    return moves


def word_closure(w: Sequence[int]) -> set[Word]:
    """The full rewriting class of w, by breadth-first search; on a
    permutation only the distinct-letter rules act, so this is its forgotten
    class."""
    start = tuple(w)
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for u in general_moves(current):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def word_normal_form(w: Sequence[int]) -> Word:
    """
    The lexicographically least word of w's class; equal normal forms
    characterize equivalence.

    >>> word_normal_form((2, 1, 1))
    (1, 2, 1)
    """
    w = tuple(w)
    cached = _normal_form_cache.get(w)
    if cached is not None:
        return cached
    closure = word_closure(w)
    normal = min(closure)
    for member in closure:
        _normal_form_cache[member] = normal
    return normal


class NCPolynomial:
    """
    Integer combination of words over the alphabet 1..alphabet_size, with
    word concatenation as the (noncommutative) product.  Instances are
    treated as immutable; arithmetic returns new objects.
    """

    __slots__ = ("alphabet_size", "terms")

    def __init__(self, alphabet_size: int, terms: dict[Word, int] | None = None):
        if alphabet_size < 1:
            raise ValueError(f"alphabet size must be positive, got {alphabet_size}")
        self.alphabet_size = alphabet_size
        clean: dict[Word, int] = {}
        for word, coeff in (terms or {}).items():
            if coeff:
                clean[check_word(word, alphabet_size)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, alphabet_size: int) -> "NCPolynomial":
        return cls(alphabet_size)

    @classmethod
    def monomial(cls, alphabet_size: int, word: Sequence[int], coeff: int = 1) -> "NCPolynomial":
        return cls(alphabet_size, {tuple(word): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "NCPolynomial") -> None:
        if self.alphabet_size != other.alphabet_size:
            raise ValueError(
                f"alphabet mismatch: {self.alphabet_size} vs {other.alphabet_size}"
            )

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, 0) + coeff
        return NCPolynomial(self.alphabet_size, terms)

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial(self.alphabet_size, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __mul__(self, other: "NCPolynomial") -> "NCPolynomial":
        self._check_compatible(other)
        terms: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                terms[word] = terms.get(word, 0) + c1 * c2
        return NCPolynomial(self.alphabet_size, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.alphabet_size == other.alphabet_size and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.alphabet_size, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for word in sorted(self.terms):
            coeff = self.terms[word]
            pieces.append(f"{coeff:+d}*({','.join(map(str, word))})")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"NCPolynomial(q={self.alphabet_size}, {self})"


def elementary_e(k: int, alphabet_size: int) -> NCPolynomial:
    """
    The noncommutative elementary symmetric function: the sum of all strictly
    decreasing words of length k over 1..alphabet_size.

    >>> str(elementary_e(2, 3))
    '+1*(2,1) +1*(3,1) +1*(3,2)'
    """
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    if k > alphabet_size:
        return NCPolynomial.zero(alphabet_size)
    terms = {
        tuple(reversed(combo)): 1
        for combo in itertools.combinations(range(1, alphabet_size + 1), k)
    }
    return NCPolynomial(alphabet_size, terms)


def reduce_poly(p: NCPolynomial) -> NCPolynomial:
    """Image of p in the quotient: each word replaced by its normal form."""
    terms: dict[Word, int] = {}
    for word, coeff in p.terms.items():
        normal = word_normal_form(word)
        terms[normal] = terms.get(normal, 0) + coeff
    return NCPolynomial(p.alphabet_size, terms)


def commute_check(i: int, j: int, alphabet_size: int) -> bool:
    """True iff e_i and e_j commute in the quotient over 1..alphabet_size."""
    if i < 1 or j < 1:
        raise ValueError(f"degrees must be positive, got ({i}, {j})")
    ei = elementary_e(i, alphabet_size)
    ej = elementary_e(j, alphabet_size)
    return reduce_poly(ei * ej - ej * ei).is_zero()


def descent_endpoints(w: Sequence[int]) -> set[Word]:
    """All words reachable from w by lexicographically decreasing rewrites
    only, admitting no further decreasing rewrite."""
    endpoints: set[Word] = set()
    seen: set[Word] = set()
    stack = [tuple(w)]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        lower = [u for u in general_moves(current) if u < current]
        if lower:
            stack.extend(lower)
        else:
            endpoints.add(current)
    return endpoints


def orientation_counterexamples(
    max_len: int, alphabet_size: int, limit: int | None = None
) -> list[tuple[Word, tuple[Word, ...]]]:
    """
    Words for which orienting every rule toward the lexicographically
    smaller side is not confluent: greedy descending rewrites can stall on
    different irreducible words.  Such words are why normal forms here are
    computed from full closures instead of directed rewriting.

    >>> orientation_counterexamples(4, 3, limit=1)
    [((2, 2, 1, 3), ((1, 2, 3, 2), (2, 1, 2, 3)))]
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    found: list[tuple[Word, tuple[Word, ...]]] = []
    for length in range(3, max_len + 1):
        for w in itertools.product(range(1, alphabet_size + 1), repeat=length):
            endpoints = descent_endpoints(w)
            if len(endpoints) > 1:
                found.append((w, tuple(sorted(endpoints))))
                if limit is not None and len(found) >= limit:
                    return found
    return found

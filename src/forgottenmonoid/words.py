"""
The general rewriting relations on words with repeated letters, normal forms
by exhaustive closure, and the commutation of the noncommutative elementary
symmetric functions e_k in the quotient.

The four window rules (a < b < c throughout) are

    aba <-> baa,   bab <-> bba,   acb <-> bac,   bca <-> cab.

This is the package's one rule table; on permutations only the last two
rules act.  No orientation of these rules is assumed confluent; a class's
normal form is simply the lexicographically least word of its closure, which
is cheap to compute at the word lengths used here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

from .perms import Word

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


def _window_masks(letters: bytes) -> dict[int, int]:
    """The rule table over these letters as {window code: xor mask}: a
    three-byte window code xor its mask is the code of the window's image."""
    masks = {}
    for x, y, z in itertools.product(set(letters), repeat=3):
        if image := _rewrite_window(x, y, z):
            a, b, c = image
            masks[x << 16 | y << 8 | z] = (x ^ a) << 16 | (y ^ b) << 8 | z ^ c
    return masks


def word_closure(w: Sequence[int]) -> set[Word]:
    """The full rewriting class of w; on a permutation only the distinct-letter
    rules act, so this is its forgotten class.  The search codes each word as
    an integer, one byte per letter (so letters lie in 0..255, else
    ValueError), and rewrites its windows by the xor masks of _window_masks."""
    start = bytes(w)
    n = len(start)
    get = _window_masks(start).get
    shifts = range(0, 8 * n - 16, 8)
    stack = [int.from_bytes(start, "big")]
    seen = set(stack)
    while stack:
        current = stack.pop()
        for shift in shifts:
            mask = get(current >> shift & 0xFFFFFF)
            if mask:
                u = current ^ mask << shift
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return {tuple(c.to_bytes(n, "big")) for c in seen}


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
    _normal_form_cache.update(dict.fromkeys(closure, normal))
    return normal


def commute_check(i: int, j: int, alphabet_size: int) -> bool:
    """
    True iff e_i and e_j commute in the quotient over 1..alphabet_size, e_k
    being the sum of the strictly decreasing words of length k.  A word of
    e_i e_j splits into its two factors one way only, so both products are
    0-1 sums of words, compared here as the normal forms of the words they
    do not share.
    """
    if i < 1 or j < 1:
        raise ValueError(f"degrees must be positive, got ({i}, {j})")
    if alphabet_size < 1:
        raise ValueError(f"alphabet size must be positive, got {alphabet_size}")
    if alphabet_size > 255:
        raise ValueError(f"letters are coded as bytes, so at most 255 of them, got {alphabet_size}")
    alphabet = range(alphabet_size, 0, -1)
    e_i = list(itertools.combinations(alphabet, i))
    e_j = list(itertools.combinations(alphabet, j))
    ij = {u + v for u in e_i for v in e_j}
    ji = {v + u for u in e_i for v in e_j}
    shared = ij & ji
    return Counter(map(word_normal_form, ij - shared)) == Counter(map(word_normal_form, ji - shared))


def orientation_counterexamples(
    max_len: int, alphabet_size: int, limit: int | None = None
) -> list[tuple[Word, tuple[Word, ...]]]:
    """
    Words for which orienting every rule toward the lexicographically
    smaller side is not confluent: greedy descending rewrites can stall on
    different irreducible words.  Such words are why normal forms here are
    computed from full closures instead of directed rewriting.

    Each length is scanned in lexicographic order, which meets every lower
    move of w before w: w's stalls are the union of theirs, or w alone.
    Words are coded as in word_closure (letters at most 255), so that order
    is integer order and only the descending masks are kept.

    >>> orientation_counterexamples(4, 3, limit=1)
    [((2, 2, 1, 3), ((1, 2, 3, 2), (2, 1, 2, 3)))]
    """
    if max_len < 3:
        raise ValueError(f"max_len must be at least 3, got {max_len}")
    if alphabet_size > 255:
        raise ValueError(f"letters are coded as bytes, so at most 255 of them, got {alphabet_size}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    masks = _window_masks(bytes(range(1, alphabet_size + 1)))
    get = {window: mask for window, mask in masks.items() if window ^ mask < window}.get
    found: list[tuple[Word, tuple[Word, ...]]] = []
    for length in range(3, max_len + 1):
        shifts = range(0, 8 * length - 16, 8)
        stalls: dict[int, frozenset[Word]] = {}
        for w in itertools.product(range(1, alphabet_size + 1), repeat=length):
            code = int.from_bytes(bytes(w), "big")
            lower = [stalls[code ^ mask << shift] for shift in shifts if (mask := get(code >> shift & 0xFFFFFF))]
            ends = stalls[code] = frozenset().union(*lower) if lower else frozenset((w,))
            if len(ends) > 1:
                found.append((w, tuple(sorted(ends))))
                if limit is not None and len(found) >= limit:
                    return found
    return found

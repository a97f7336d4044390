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

The one class search codes a word by the rank of each letter among its own
distinct letters, one hex digit per letter, so a word has at most 16
distinct letters.  commute_check counts each class of the two products by
sign on these codes, searching only until the class holds no more of their
words, and keeps no state between calls.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .perms import Word

_normal_form_cache: dict[Word, Word] = {}
_HEX = b"0123456789abcdef"


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


def _window_masks(letters: Iterable[int], bits: int = 8) -> dict[int, int]:
    """The rule table over these letters as {window code: xor mask}: a window
    code (bits per letter) xor its mask is the code of the window's image."""
    masks = {}
    for x, y, z in itertools.product(set(letters), repeat=3):
        if image := _rewrite_window(x, y, z):
            a, b, c = image
            masks[(x << bits | y) << bits | z] = ((x ^ a) << bits | y ^ b) << bits | z ^ c
    return masks


def _rank_rules(k: int) -> list[int]:
    """The rule table over the ranks 0..k-1 as a list of xor masks (0: no
    rule), indexed by the nibble code of a three-letter window."""
    rules = [0] * (0x111 * k)
    for window, mask in _window_masks(range(k), 4).items():
        rules[window] = mask
    return rules


def _rank_code(w: bytes) -> tuple[bytes, int]:
    """w's distinct letters in order, and w coded by their ranks, one hex
    digit per letter; rank order is letter order, so the rules and the
    lexicographic order carry over."""
    letters = bytes(sorted(set(w)))
    if len(letters) > 16:
        raise ValueError(f"letters are coded by rank in one hex digit, so at most 16 distinct ones, got {len(letters)}")
    return letters, int(w.translate(bytes.maketrans(letters, _HEX[:len(letters)])), 16)


def _class_codes(code: int, n: int, rules: list[int]) -> Iterator[int]:
    """The codes of the class of the n-letter word with this rank code, each
    yielded once as the search meets it, so a caller may stop early."""
    shifts = range(0, 4 * n - 8, 4)
    stack = [code]
    seen = set(stack)
    yield code
    while stack:
        current = stack.pop()
        for shift in shifts:
            mask = rules[current >> shift & 0xFFF]
            if mask:
                u = current ^ mask << shift
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
                    yield u


def word_closure(w: Sequence[int]) -> set[Word]:
    """The full rewriting class of w; on a permutation only the distinct-letter
    rules act, so this is its forgotten class.  Letters lie in 0..255 and a
    word has at most 16 distinct ones, else ValueError: the search codes each
    word by _rank_code and rewrites its windows by the masks of _rank_rules."""
    start = bytes(w)
    n = len(start)
    if n < 3:
        return {tuple(start)}
    letters, code = _rank_code(start)
    ranks = bytes.maketrans(_HEX[:len(letters)], letters)
    return {tuple(f"{c:0{n}x}".encode().translate(ranks)) for c in _class_codes(code, n, _rank_rules(len(letters)))}


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
    0-1 sums of words.  The words they do not share count +1 and -1, and
    the products commute iff every class's signs sum to 0.  Words are
    grouped by content, which a class keeps, and each search stops once it
    has met every word left in its group.
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
    signed: dict[bytes, dict[int, int]] = {}
    for sign, terms in ((1, ij - shared), (-1, ji - shared)):
        for w in terms:
            signed.setdefault(bytes(sorted(w)), {})[_rank_code(bytes(w))[1]] = sign
    rules = _rank_rules(max(map(len, map(set, signed)), default=0))
    for coded in signed.values():
        while coded:
            code, total = coded.popitem()
            for u in _class_codes(code, i + j, rules):
                if not coded:
                    break
                total += coded.pop(u, 0)
            if total:
                return False
    return True


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
    Words are coded one byte per letter (letters at most 255, and the
    alphabet may pass the 16 ranks of word_closure), so that order is
    integer order and only the descending masks are kept.

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

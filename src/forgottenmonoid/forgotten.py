"""
Forgotten equivalence on permutations.

Two permutations are related when one is obtained from the other by rewriting
three consecutive letters acb <-> bac or bca <-> cab (a < b < c): the
distinct-letter rules of ``words``, whose moves and exhaustive closures act
on permutations unchanged.  A class is determined completely by the
inversion number together with the relative order of the letters 1 and n;
each class contains a unique lexicographically minimal word, built from the
key and parameterized by two compact families sigma(k, a) and tau(k, a).
``verify`` checks it against the paper's other characterization, the unique
avoider of 213, 312, 13452 and 34521.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence

from .perms import (
    DECIMAL,
    Perm,
    ParseError,
    _rises_then_falls,
    _subsets_with_sum,
    check_permutation,
    complement,
    inverse,
    inversion_number,
    sweep,
)

FAMILIES = ("sigma", "tau")


def inv_bounds(n: int, one_before_n: bool) -> tuple[int, int]:
    """Inversion range available to a class of the given sign."""
    if one_before_n:
        return 0, (n - 1) * (n - 2) // 2
    return n - 1, n * (n - 1) // 2


@dataclass(frozen=True)
class ClassKey:
    """Complete invariant of a forgotten class: size, inversion count, and
    whether letter 1 precedes letter n."""

    n: int
    inv: int
    one_before_n: bool

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"class keys need n >= 2, got n={self.n}")
        lo, hi = inv_bounds(self.n, self.one_before_n)
        if not lo <= self.inv <= hi:
            sign = "1n" if self.one_before_n else "n1"
            raise ValueError(
                f"inversion count {self.inv} outside [{lo}, {hi}] for sign {sign} at n={self.n}"
            )

    def __str__(self) -> str:
        return f"{self.n},{self.inv},{'1n' if self.one_before_n else 'n1'}"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "inv": self.inv, "oneBeforeN": self.one_before_n}


def parse_class_key(text: str) -> ClassKey:
    """Read a key from its "n,inv,1n" / "n,inv,n1" text form, with the
    integers of parse_permutation."""
    match = re.fullmatch(f"({DECIMAL}),({DECIMAL}),(1n|n1)", text, re.ASCII)
    if not match:
        raise ParseError(f"cannot read class key from {text!r} (want e.g. 8,10,n1)")
    return ClassKey(int(match[1]), int(match[2]), match[3] == "1n")


def _key_pair(p: Perm) -> tuple[int, bool]:
    """(inv, one_before_n) of a permutation of size >= 2, unvalidated: the
    class key without its size, for loops that compare keys at one n."""
    return inversion_number(p), p.index(1) < p.index(len(p))


def class_key(p: Sequence[int]) -> ClassKey:
    """The invariant triple of p's class; p must be a permutation."""
    p = check_permutation(p)
    if len(p) < 2:
        raise ValueError("class keys need permutations of size >= 2")
    return ClassKey(len(p), *_key_pair(p))


def equivalent(p: Sequence[int], q: Sequence[int]) -> bool:
    """True iff p and q lie in the same forgotten class (same key)."""
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    p = check_permutation(p)
    if len(p) < 2:
        raise ValueError("class keys need permutations of size >= 2")
    return _key_pair(p) == _key_pair(check_permutation(q))


@dataclass(frozen=True)
class CanonicalForm:
    """
    Compact parameterization of a canonical word.

    sigma(k, a) is 1, 2, .., k, a, n and tau(k, a) is 2, 3, .., k, a, n, each
    followed by the remaining letters in decreasing order; a == n collapses
    onto the previous prefix, so (k, n) is identified with (k-1, k) on
    construction and only (1, n) survives as a primitive point.
    """

    family: str
    k: int
    a: int
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError(f"canonical forms need n >= 2, got n={self.n}")
        k, a, n = self.k, self.a, self.n
        if a == n and 2 <= k <= n - 1:
            k, a = k - 1, k
        elif (k, a) == (0, 1):
            k, a = 1, n
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)
        normalized = (1 <= k <= n - 2 and k < a <= n - 1) or (k, a) == (1, n)
        if not normalized:
            raise ValueError(f"parameters (k={k}, a={a}) outside the domain for n={n}")

    def __str__(self) -> str:
        return f"{self.family}({self.k},{self.a};n={self.n})"


def normalized_forms(n: int, family: str) -> Iterator[CanonicalForm]:
    """The full normalized domain of one family, C(n-1, 2) + 1 forms."""
    for k in range(1, n - 1):
        for a in range(k + 1, n):
            yield CanonicalForm(family, k, a, n)
    yield CanonicalForm(family, 1, n, n)


def canonical_word(form: CanonicalForm) -> Perm:
    """
    The permutation named by a canonical form.

    >>> canonical_word(CanonicalForm("sigma", 1, 3, 6))
    (1, 3, 6, 5, 4, 2)
    >>> canonical_word(CanonicalForm("tau", 1, 4, 5))
    (4, 5, 3, 2, 1)
    """
    n, k, a = form.n, form.k, form.a
    rising = range(1 if form.family == "sigma" else 2, k + 1)
    peak = (n,) if a == n else (a, n)
    tail = (1,) if form.family == "tau" else ()
    return (*rising, *peak, *range(n - 1, a, -1), *range(a - 1, k, -1), *tail)


def form_inversions(form: CanonicalForm) -> int:
    """Inversion count of the canonical word, in closed form."""
    base = math.comb(form.n - form.k, 2)
    if form.family == "sigma":
        return base + form.a - form.n
    return base + form.a - 1


def form_from_inversions(family: str, inv: int, n: int) -> CanonicalForm:
    """
    The unique form of the family with the given inversion count; inverse of
    form_inversions on the normalized domain.

    >>> str(form_from_inversions("sigma", 13, 7))
    'sigma(1,5;n=7)'
    >>> str(form_from_inversions("tau", 13, 7))
    'tau(2,4;n=7)'
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    lo, hi = inv_bounds(n, family == "sigma")
    if not lo <= inv <= hi:
        raise ValueError(f"inversion count {inv} outside [{lo}, {hi}] for {family} at n={n}")
    if family == "sigma":
        # inv splits as C(m, 2) + b with 0 <= b < m against the largest
        # triangular number, m(m - 1) <= 2 inv; the form is then
        # (n - m - 1, n + b - m).
        m = (1 + math.isqrt(8 * inv + 1)) // 2
        return CanonicalForm("sigma", n - m - 1, n + inv - math.comb(m, 2) - m, n)
    # tau ranges tile differently: for each m = n - k the reachable counts
    # are C(m, 2) + n - m .. C(m, 2) + n - 2, plus the decreasing word on top;
    # m is the largest with C(m, 2) - m <= inv - n, that is m(m - 3) <= 2(inv - n).
    if inv == math.comb(n, 2):
        return CanonicalForm("tau", 1, n, n)
    m = (3 + math.isqrt(8 * (inv - n) + 9)) // 2
    return CanonicalForm("tau", n - m, inv - math.comb(m, 2) + 1, n)


def form_of_key(key: ClassKey) -> CanonicalForm:
    return form_from_inversions("sigma" if key.one_before_n else "tau", key.inv, key.n)


def canonical_of_key(key: ClassKey) -> Perm:
    """The canonical (lexicographically minimal) word of the keyed class."""
    return canonical_word(form_of_key(key))


def canonical_of(p: Sequence[int]) -> Perm:
    """
    The canonical word of p's forgotten class.

    >>> canonical_of((3, 1, 4, 2))
    (1, 4, 3, 2)
    >>> canonical_of((2, 4, 1, 3))
    (2, 3, 4, 1)
    """
    return canonical_of_key(class_key(p))


def is_canonical(p: Sequence[int]) -> bool:
    """True iff the permutation p is the canonical word of its own key."""
    p = check_permutation(p)
    return len(p) < 2 or p == canonical_of_key(ClassKey(len(p), *_key_pair(p)))


def lex_enumerate(n: int) -> list[Perm]:
    """
    All canonical words of size n in lexicographic order; there are
    n^2 - 3n + 4 of them for n >= 2.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n == 1:
        return [(1,)]
    words = [canonical_word(form) for family in FAMILIES for form in normalized_forms(n, family)]
    return sorted(words)


def classes_count(n: int) -> int:
    """Number of forgotten classes of size-n permutations."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    return n * n - 3 * n + 4


def all_class_keys(n: int) -> list[ClassKey]:
    """Every key at size n, ordered by inversion count with 1-before-n first."""
    keys = [ClassKey(n, i, True) for i in range(inv_bounds(n, True)[1] + 1)]
    keys += [ClassKey(n, i, False) for i in range(n - 1, inv_bounds(n, False)[1] + 1)]
    return sorted(keys, key=lambda k: (k.inv, not k.one_before_n))


def _member_blocks(key: ClassKey) -> Iterator[tuple[Perm, Perm, tuple[int, bool | None], Sequence[itemgetter]]]:
    """
    The members of the keyed class in lexicographic order, in blocks that
    share a prefix: each (prefix, unused, entry, getters) stands for the
    members prefix + get((0,) + unused), get in getters.  They are built
    letter by letter as an inversion table: the c-th smallest unused letter
    (from 0) adds c inversions, m letters hold at most C(m, 2), and the
    first of 1 and n placed fixes the sign.  While 1 and n are both unused, m letters
    with n before 1 hold exactly m-1 to C(m, 2) inversions and with 1
    before n exactly 0 to C(m, 2) - (m-1), so a child is pushed only if the
    letters it leaves can still meet both the count and the sign: every
    prefix on the stack extends to a member, and the walk costs O(n) prefixes
    per member.

    A block is yielded with t = min(5, n) letters left.  Their inversions
    depend only on their rank order, and so does the sign while 1 and n
    (ranks 0 and t-1) are both unused, so a table built per call from
    sweep(t) maps (inversions left, sign or None once fixed) to the
    arrangements of S_t in lexicographic order, each as an itemgetter over
    the unused letters after a pad; entry is that key, so blocks with equal
    unused letters and entries have the same tails.  The table costs
    t! <= 120 itemgetters per call and holds no state between calls.
    """
    n, want = key.n, key.one_before_n
    t = min(5, n)
    tails: dict[tuple[int, bool | None], list[itemgetter]] = {}
    for p, inv, one_first in sweep(t):
        get = itemgetter(*p)  # 1-based, over the unused letters after a pad
        tails.setdefault((inv, one_first), []).append(get)
        tails.setdefault((inv, None), []).append(get)
    # (prefix, unused letters increasing, inversions owed, sign fixed); children
    # go on the stack in reverse, so they pop in lexicographic order.  Until
    # the sign is fixed, 1 and n are both unused: increasing puts 1 first.
    stack = [((), tuple(range(1, n + 1)), key.inv, False)]
    while stack:
        prefix, unused, rem, signed = stack.pop()
        m = len(unused)
        if m == t or not rem:
            # with no inversions owed the letters left are increasing, so the
            # block is reached at once
            entry = rem, None if signed else want
            yield prefix + unused[:m - t], unused[m - t:], entry, tails.get(entry, ())
            continue
        for c in reversed(range(max(0, rem - (m - 1) * (m - 2) // 2), min(m - 1, rem) + 1)):
            x = unused[c]
            if not signed:
                # 1 or n fixes the sign; any other letter leaves m-1 letters
                # that must still hold rem - c inversions with the wanted sign
                if x in (1, n):
                    if (x == 1) != want:
                        continue
                elif rem - c > (m - 2) * (m - 3) // 2 if want else rem - c < m - 2:
                    continue
            stack.append((prefix + (x,), unused[:c] + unused[c + 1:], rem - c, signed or x in (1, n)))


def class_members(key: ClassKey) -> list[Perm]:
    """
    Every member of the keyed class in lexicographic order, with no closure:
    the blocks of _member_blocks flattened, one call and one tuple
    concatenation per member.

    >>> class_members(ClassKey(4, 1, True))
    [(1, 2, 4, 3), (1, 3, 2, 4), (2, 1, 3, 4)]
    """
    members: list[Perm] = []
    for prefix, unused, _, getters in _member_blocks(key):
        tail = (0,) + unused
        members += [prefix + get(tail) for get in getters]
    return members


def _q_multinomial(parts: tuple[int, ...], memo: dict[tuple[int, ...], list[int]]) -> list[int]:
    """
    Coefficients of the q-multinomial [m; parts]_q, m = sum(parts), for
    positive parts in decreasing order: the words with those letter
    multiplicities by inversion number.  Each part r joins the t letters of
    the parts before it as [t + r; r]_q, one factor [t + j]_q / [j]_q at a
    time: a difference at stride t + j, then running sums at stride j, each
    one pass over a result that stays a polynomial.  Every prefix of parts
    is kept in memo.

    >>> _q_multinomial((2, 2), {})
    [1, 1, 2, 1, 1]
    """
    k = len(parts)
    while k and parts[:k] not in memo:
        k -= 1
    f = memo[parts[:k]] if k else [1]
    for k in range(k, len(parts)):
        t = sum(parts[:k])
        for j in range(1, parts[k] + 1):
            g = f + [0] * t
            g[t + j:] = map(int.__sub__, g[t + j:], f)
            for start in range(j):
                g[start::j] = itertools.accumulate(g[start::j])
            f = g
        memo[parts[:k + 1]] = f
    return f


def descent_class_counts(
    parts: Sequence[int], memo: dict[tuple[int, ...], list[int]] | None = None
) -> tuple[list[int], list[int]]:
    """
    For a composition parts of n >= 2 (zero parts allowed): the number of
    permutations with every descent among the partial sums of parts in each
    class, as (n-before-1, 1-before-n) lists indexed by inversion number.

    These permutations are the ordered set partitions of 1..n into
    increasing blocks of sizes parts, counted by inversions by [n; parts]_q
    (MacMahon).  With 1 in block a and n in block b, 1 precedes n iff
    a <= b, the two letters add s = sum(parts[:a]) + sum(parts[b + 1:]) -
    [b < a] inversions, and the others give [n - 2; parts - e_a - e_b]_q.
    Parts (1,) * n give every class size.  memo keeps q-multinomials across
    the calls that share it.

    >>> descent_class_counts((2, 1))
    ([0, 0, 1, 0], [1, 1, 0, 0])
    """
    n = sum(parts)
    before = [0, *itertools.accumulate(parts)]
    rests: dict[tuple[int, int, bool], tuple[int, ...]] = {}  # by the sizes of blocks a and b
    ways: dict[tuple[bool, int, tuple[int, ...]], int] = {}
    for a, b in itertools.product(range(len(parts)), repeat=2):
        if parts[a] > (a == b) and parts[b]:
            sizes = (parts[a], parts[b], a == b)
            if sizes not in rests:
                rest = list(parts)
                rest[a] -= 1
                rest[b] -= 1
                rests[sizes] = tuple(sorted(filter(None, rest), reverse=True))
            group = (a <= b, before[a] + n - before[b + 1] - (b < a), rests[sizes])
            ways[group] = ways.get(group, 0) + 1
    counts = ([0] * (n * (n - 1) // 2 + 1), [0] * (n * (n - 1) // 2 + 1))
    memo = {} if memo is None else memo
    for (one_first, s, rest), w in ways.items():
        row, poly = counts[one_first], _q_multinomial(rest, memo)
        row[s:s + len(poly)] = [x + w * c for x, c in zip(row[s:], poly)]
    return counts


def class_sizes(n: int) -> dict[ClassKey, int]:
    """
    Every class size at size n, in closed form: descent_class_counts of the
    parts (1,) * n, which bound no descent.

    >>> list(class_sizes(3).values())
    [1, 2, 2, 1]
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    counts = descent_class_counts((1,) * n)
    return {key: counts[key.one_before_n][key.inv] for key in all_class_keys(n)}


def insert_form(w: Sequence[int], i: int) -> CanonicalForm:
    """
    Insert letter i (0 <= i <= n-1) into a canonical word of size n-1: the
    form of the canonical word of size n whose class also contains the
    standardization of w with i appended.  Its inversion count is
    inv(w) + n - 1 - i; the family flips exactly for i = 0 out of sigma and
    i = n - 1 out of tau.

    Canonicity of w is checked by closed form, against the canonical word
    of w's own key: the lexicographically minimal word of a class is its
    unique pattern avoider.  w is validated and its inversions counted once.

    >>> str(insert_form((1, 3, 6, 5, 4, 2), 0))
    'tau(2,4;n=7)'
    """
    w = check_permutation(w)
    n = len(w) + 1
    if not w:
        raise ValueError("cannot insert into the empty word")
    inv, from_sigma = _key_pair(w) if len(w) > 1 else (0, True)
    if len(w) > 1 and w != canonical_of_key(ClassKey(len(w), inv, from_sigma)):
        raise ValueError(f"{w!r} is not a canonical word")
    if not 0 <= i <= n - 1:
        raise ValueError(f"inserted letter {i} outside 0..{n - 1}")
    if from_sigma:
        family = "tau" if i == 0 else "sigma"
    else:
        family = "sigma" if i == n - 1 else "tau"
    return form_from_inversions(family, inv + n - 1 - i, n)


def insert(w: Sequence[int], i: int) -> Perm:
    """
    The canonical word of insert_form(w, i).

    >>> insert((1, 3, 6, 5, 4, 2), 3)
    (1, 2, 7, 6, 5, 4, 3)
    """
    return canonical_word(insert_form(w, i))


def lambda_members(key: ClassKey) -> set[Perm]:
    """
    All lambda-shaped permutations in the keyed class.  A lambda word is
    fixed by its rising letters (the peak n included), and its inversion
    count is C(n, 2) minus the sum of the gaps n - x over the rising
    letters x below n: a subset of 1..n-1 with a fixed sum.
    """
    n = key.n
    members: set[Perm] = set()
    for gaps in _subsets_with_sum(n - 1, math.comb(n, 2) - key.inv):
        rising = [n - g for g in reversed(gaps)]
        if (1 in rising) == key.one_before_n:
            rest = sorted(set(range(1, n)) - set(rising), reverse=True)
            members.add(tuple(rising) + (n,) + tuple(rest))
    return members


def v_members(key: ClassKey) -> set[Perm]:
    """
    All v-shaped permutations in the keyed class: the complements of the
    lambda members of the class with C(n, 2) - inv inversions and the other
    sign, since x -> n + 1 - x turns lambda words into v words, inversions
    into non-inversions, and 1 before n into n before 1.
    """
    mirror = ClassKey(key.n, math.comb(key.n, 2) - key.inv, not key.one_before_n)
    return set(map(complement, lambda_members(mirror)))


def next_lambda_down(p: Sequence[int]) -> Perm | None:
    """
    One step of the lambda rewriting walk: a lexicographically smaller
    lambda-shaped permutation with the same key, or None when p is already
    canonical.  The step is read off the rising prefix, which ends in the
    peak n: b is its largest letter before the last one below n whose
    predecessor b - 1 is a falling letter other than 1, and c..e is the run
    of consecutive rising letters after b.  Swapping the values b - 1 and b
    takes one inversion off; swapping the values e and e + 1 when e + 1 < n,
    or else the adjacent letters n - 1 and n, puts it back.  Each swap moves
    a letter by one to a value absent from its side, so both sides stay
    monotone.  No such b means p is canonical.

    >>> next_lambda_down((1, 3, 5, 6, 7, 8, 4, 2))
    (1, 3, 4, 6, 8, 7, 5, 2)
    >>> next_lambda_down((1, 2, 3, 8, 7, 6, 5, 4)) is None
    True
    """
    p = check_permutation(p)  # O(n) here: Timsort sees a lambda as two runs
    if not p:
        raise ValueError("the empty word has no shape")
    n = len(p)
    peak = p.index(n)  # a permutation's maximum is n
    if not _rises_then_falls(p, peak):
        raise ValueError(f"{p!r} is not lambda-shaped")
    i = peak - 2
    while i > 0 and p[i - 1] == p[i] - 1:
        i -= 1
    if i < 0 or p[i] < 3:
        return None
    j = i + 1
    while j < peak - 1 and p[j + 1] == p[j] + 1:
        j += 1
    b, e = p[i], p[j]
    q = list(p)
    q[i], q[q.index(b - 1, peak)] = b - 1, b
    if e + 1 < n:
        q[j], q[q.index(e + 1, peak)] = e + 1, e
    else:
        q[peak - 1], q[peak] = n, n - 1
    return tuple(q)


def coforgotten_equivalent(p: Sequence[int], q: Sequence[int]) -> bool:
    """Forgotten equivalence of the inverse permutations."""
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return equivalent(inverse(check_permutation(p)), inverse(check_permutation(q)))

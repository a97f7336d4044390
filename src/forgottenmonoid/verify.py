"""
Exhaustive desk-scale verification suites.

Every claimed property of the package is checked here by brute force over
complete symmetric groups, word spaces, or parameter domains, each up to a
default size bound chosen so the whole run stays interactive.  Each check is
declared with @check, which files it under its suite, clamps its bound and
times it; checks return structured results so both the command line and the
test suite can drive them.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import gt
from typing import Callable, Iterable, NamedTuple, Sequence

from . import forgotten, qsym, words
from .forgotten import ClassKey, _key_pair, class_key
from .perms import (
    Composition,
    Perm,
    Word,
    all_compositions,
    all_permutations,
    avoids_pattern,
    composition_from_subset,
    composition_maj,
    descent_composition,
    descent_set,
    inverse,
    inversion_number,
    is_lambda_shaped,
    is_v_shaped,
    major_index,
    recoil_composition,
    reverse,
    schuetzenberger,
    standardize,
    sweep,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: str | None = None
    elapsed: float = 0.0  # seconds

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: {self.detail} ({self.elapsed:.2f}s)"
        if self.counterexample:
            text += f" | counterexample: {self.counterexample}"
        return text


class _Failure(NamedTuple):
    detail: str
    counterexample: str | None


def _fail(detail: str, counterexample: object) -> _Failure:
    return _Failure(detail, repr(counterexample))


# A check body returns its detail on a pass and a _Failure on a failure.
Outcome = str | _Failure
Check = Callable[..., CheckResult]

SUITES: dict[str, list[Check]] = {}
MIN_MAX_N = 3  # the smallest sweep bound at which every check does work


def check(suite: str, default_max_n: int | None = None, *, name: str | None = None):
    """
    Register a check body in SUITES[suite] and SUITES["all"], in the order
    the checks are defined, as check_x(max_n=None, force=False).

    A body with a default bound takes the sweep bound: default_max_n, or
    max_n clamped to it unless force is set.  A body without one takes
    nothing and ignores max_n.  A max_n below MIN_MAX_N raises ValueError,
    even with force, since some sweep would then check nothing.  The
    registered check times the body and wraps its outcome in a CheckResult
    reported under `name`, by default the function name without its
    "check_" prefix.
    """

    def register(body: Callable[..., Outcome]) -> Check:
        reported = name or body.__name__.removeprefix("check_")

        def run(max_n: int | None = None, force: bool = False) -> CheckResult:
            if max_n is not None and max_n < MIN_MAX_N:
                raise ValueError(f"max_n must be at least {MIN_MAX_N}, got {max_n}")
            started = time.perf_counter()
            if default_max_n is None:
                outcome = body()
            elif max_n is None:
                outcome = body(default_max_n)
            else:
                outcome = body(max_n if force else min(max_n, default_max_n))
            elapsed = time.perf_counter() - started
            if isinstance(outcome, _Failure):
                return CheckResult(reported, False, outcome.detail, outcome.counterexample, elapsed)
            return CheckResult(reported, True, outcome, None, elapsed)

        run.__name__ = run.__qualname__ = body.__name__
        SUITES.setdefault(suite, []).append(run)
        SUITES.setdefault("all", []).append(run)
        return run

    return register


def _words_upto(max_len: int, alphabet: int):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(1, alphabet + 1), repeat=length)


@lru_cache(maxsize=8)
def closure_partition(n: int, alphabet: int | None = None) -> tuple[frozenset[Word], ...]:
    """Forgotten classes by one exhaustive closure each, in the order of their
    least words: of S_n, or with alphabet=q of the words of length 1..n over 1..q."""
    seen: set[Word] = set()
    classes: list[frozenset[Word]] = []
    rules = words._rank_rules(n if alphabet is None else min(n, alphabet))  # one table for the space
    for w in all_permutations(n) if alphabet is None else _words_upto(n, alphabet):
        if w not in seen:
            members = frozenset(words._closure(bytes(w), rules))
            seen |= members
            classes.append(members)
    return tuple(classes)


def _reversal_closed(members: Iterable[Word]) -> bool:
    """True iff the members' descent compositions form a reversal-closed multiset."""
    comps = Counter(map(descent_composition, members))
    return comps == Counter(reverse(c) for c in comps.elements())


# ---------------------------------------------------------------------------
# classes suite


@check("classes", 8)
def check_move_soundness(hi: int) -> Outcome:
    moves = 0
    for n in range(2, hi + 1):
        for p, inv, one_first in sweep(n):
            for q in words.general_moves(p):
                moves += 1
                if _key_pair(q) != (inv, one_first):
                    return _fail(f"a rewrite changed the class key at n={n}", (p, q))
    return f"{moves} rewrites preserve the key (n <= {hi})"


@check("classes", 7)
def check_key_matches_closure(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        classes = closure_partition(n)
        by_key: dict[tuple[int, bool], set[Perm]] = {}
        for p, inv, one_first in sweep(n):
            by_key.setdefault((inv, one_first), set()).add(p)
        key_classes = {frozenset(v) for v in by_key.values()}
        if key_classes != set(classes):
            for members in classes:
                if frozenset(members) not in key_classes:
                    return _fail(f"closure class is not a key class at n={n}", sorted(members)[0])
            for members in key_classes:
                if members not in set(classes):
                    return _fail(f"key class is not a closure class at n={n}", sorted(members)[0])
        for members in classes:
            listed = sorted(members)
            if forgotten.class_members(class_key(listed[0])) != listed:
                return _fail(f"class_members differs from the sorted closure class at n={n}", listed[0])
    return f"key partition equals closure partition, and class_members lists each class, for n <= {hi}"


@check("classes", 8)
def check_class_count(hi: int) -> Outcome:
    counts = []
    for n in range(2, hi + 1):
        classes = closure_partition(n)
        expected = forgotten.classes_count(n)
        if len(classes) != expected:
            return _fail(f"expected {expected} classes at n={n}, found {len(classes)}", n)
        if forgotten.class_sizes(n) != {class_key(min(c)): len(c) for c in classes}:
            return _fail(f"class_sizes differs from the closure class sizes at n={n}", n)
        counts.append(f"{n}:{len(classes)}")
    return f"class counts {' '.join(counts)}; class_sizes equals the closure sizes"


_TABLE_N2 = [{"12"}, {"21"}]
_TABLE_N3 = [{"123"}, {"132", "213"}, {"231", "312"}, {"321"}]
_TABLE_N4 = [
    {"1234"},
    {"1243", "1324", "2134"},
    {"1342", "1423", "2143", "2314", "3124"},
    {"1432", "3142", "3214"},
    {"2341", "2413", "4123"},
    {"2431", "3241", "3412", "4132", "4213"},
    {"3421", "4231", "4312"},
    {"4321"},
]
_CLASS_N5 = {
    "12543", "13452", "13524", "14253", "14325", "15234", "21453", "21534",
    "23154", "23415", "24135", "31254", "31425", "32145", "41235",
}


def _digits(p: Iterable[int]) -> str:
    return "".join(map(str, p))


@check("classes")
def check_small_tables() -> Outcome:
    for n, table in ((2, _TABLE_N2), (3, _TABLE_N3), (4, _TABLE_N4)):
        classes = closure_partition(n)
        found = {frozenset(_digits(p) for p in members) for members in classes}
        expected = {frozenset(row) for row in table}
        if found != expected:
            return _fail(f"class table differs at n={n}", sorted(found ^ expected))
    fifteen = {_digits(p) for p in words.word_closure((1, 2, 5, 4, 3))}
    if fifteen != _CLASS_N5:
        return _fail("the fifteen-element class at n=5 differs", sorted(fifteen ^ _CLASS_N5))
    return "class tables for n=2,3,4 and the 15-element class at n=5 reproduced"


@check("classes", 8)
def check_partition_totals(hi: int) -> Outcome:
    for n in range(2, min(hi, 7) + 1):
        classes = closure_partition(n)
        total = sum(len(members) for members in classes)
        if total != math.factorial(n):
            return _fail(f"closure classes cover {total} of {math.factorial(n)} at n={n}", n)
    for n in range(2, hi + 1):
        keys = {(inv, one_first) for _, inv, one_first in sweep(n)}
        if len(keys) != forgotten.classes_count(n):
            return _fail(f"{len(keys)} distinct keys at n={n}", n)
    return f"classes partition S_n (n <= {min(hi, 7)}); key counts match for n <= {hi}"


@check("classes", 7)
def check_boundary_elements(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        for members in closure_partition(n):
            sample = next(iter(members))
            first, last = (1, n) if class_key(sample).one_before_n else (n, 1)
            if not any(p[0] == first for p in members):
                return _fail(f"no member starting with {first} at n={n}", sample)
            if not any(p[-1] == last for p in members):
                return _fail(f"no member ending with {last} at n={n}", sample)
    return f"every class has the expected boundary elements (n <= {hi})"


@check("classes", 8)
def check_inverse_on_lex(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        for w in forgotten.lex_enumerate(n):
            if class_key(w) != class_key(inverse(w)):
                return _fail(f"canonical word and inverse split at n={n}", w)
    return f"canonical words share their inverse's class (n <= {hi})"


@check("classes", 9)
def check_schuetzenberger_key(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        for p, inv, one_first in sweep(n):
            if _key_pair(schuetzenberger(p)) != (inv, one_first):
                return _fail(f"involution changed the key at n={n}", p)
    return f"the involution preserves every class key (n <= {hi})"


@check("classes", 6)
def check_schuetzenberger_membership(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        for members in closure_partition(n):
            if {schuetzenberger(p) for p in members} != members:
                return _fail(f"involution left the closure at n={n}", min(members))
    return f"the involution stays inside each closure (n <= {hi})"


@check("classes", 6)
def check_coforgotten(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        classes = closure_partition(n)
        inverted = {frozenset(inverse(p) for p in members) for members in classes}
        by_key: dict[ClassKey, set[Perm]] = {}
        for p in all_permutations(n):
            by_key.setdefault(class_key(inverse(p)), set()).add(p)
        if {frozenset(v) for v in by_key.values()} != inverted:
            return _fail(f"coforgotten partition mismatch at n={n}", n)
        if len(inverted) != forgotten.classes_count(n):
            return _fail(f"{len(inverted)} coforgotten classes at n={n}", n)
    return f"coforgotten classes are inverted classes, count matches (n <= {hi})"


@check("classes", 7)
def check_reversal_closure_classes(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        for members in closure_partition(n):
            if not _reversal_closed(members):
                return _fail(f"descent multiset not reversal-closed at n={n}", sorted(members)[0])
    return f"descent-composition multisets are reversal-closed (n <= {hi})"


# ---------------------------------------------------------------------------
# canonical suite

# The oracle for the closed form: each class's canonical word is its unique
# avoider of these four patterns, the paper's second characterization.
_FORBIDDEN_PATTERNS = ((2, 1, 3), (3, 1, 2), (1, 3, 4, 5, 2), (3, 4, 5, 2, 1))


def _avoids_forbidden(p: Perm) -> bool:
    return all(avoids_pattern(p, pattern) for pattern in _FORBIDDEN_PATTERNS)


_LEX_LISTS = {
    1: ["1"],
    2: ["12", "21"],
    3: ["123", "132", "231", "321"],
    4: ["1234", "1243", "1342", "1432", "2341", "2431", "3421", "4321"],
    5: [
        "12345", "12354", "12453", "12543", "13542", "14532", "15432",
        "23451", "23541", "24531", "25431", "35421", "45321", "54321",
    ],
}


@check("canonical")
def check_lex_lists() -> Outcome:
    for n, expected in _LEX_LISTS.items():
        got = [_digits(w) for w in forgotten.lex_enumerate(n)]
        if got != sorted(expected):
            return _fail(f"canonical list differs at n={n}", got)
    return "canonical lists for n <= 5 reproduced verbatim"


@check("canonical", 12)
def check_lex_count(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        members = forgotten.lex_enumerate(n)
        if len(members) != forgotten.classes_count(n):
            return _fail(f"{len(members)} canonical words at n={n}", n)
        if members != sorted(set(members)):
            return _fail(f"canonical list unsorted or duplicated at n={n}", n)
        for w in members:
            if not _avoids_forbidden(w):
                return _fail(f"enumerated word contains a forbidden pattern at n={n}", w)
    return f"|Lex(n)| = n^2-3n+4 and all members avoid the patterns (n <= {hi})"


@check("canonical", 7)
def check_lex_bruteforce(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        filtered = [p for p in all_permutations(n) if _avoids_forbidden(p)]
        if filtered != forgotten.lex_enumerate(n):
            return _fail(f"pattern filter disagrees with enumeration at n={n}", n)
    return f"pattern-avoidance filter reproduces the enumeration (n <= {hi})"


@check("canonical", 7)
def check_canonical_lexmin(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        for members in closure_partition(n):
            smallest = min(members)
            for p in members:
                if forgotten.canonical_of(p) != smallest:
                    return _fail(f"canonical_of missed the lex minimum at n={n}", p)
    return f"canonical_of always returns the class lex minimum (n <= {hi})"


@check("canonical", 12)
def check_form_formulas(hi: int) -> Outcome:
    checked = 0
    for n in range(2, hi + 1):
        for family in forgotten.FAMILIES:
            for form in forgotten.normalized_forms(n, family):
                checked += 1
                word = forgotten.canonical_word(form)
                if forgotten.form_inversions(form) != inversion_number(word):
                    return _fail("closed-form inversion count wrong", form)
                if forgotten.form_from_inversions(family, forgotten.form_inversions(form), n) != form:
                    return _fail("round trip through inversion count failed", form)
            lo, hi_inv = forgotten.inv_bounds(n, family == "sigma")
            for inv in range(lo, hi_inv + 1):
                form = forgotten.form_from_inversions(family, inv, n)
                if forgotten.form_inversions(form) != inv:
                    return _fail("inverse map hit the wrong inversion count", (family, inv, n))
    return f"{checked} forms round-trip exactly (n <= {hi})"


@check("canonical", name="compact_form_examples")
def check_section5_examples() -> Outcome:
    sigma = forgotten.canonical_word(forgotten.form_from_inversions("sigma", 13, 7))
    tau = forgotten.canonical_word(forgotten.form_from_inversions("tau", 13, 7))
    if _digits(sigma) != "1576432":
        return _fail("sigma word with 13 inversions at n=7 wrong", sigma)
    if _digits(tau) != "2476531":
        return _fail("tau word with 13 inversions at n=7 wrong", tau)
    if inversion_number(sigma) != 13 or inversion_number(tau) != 13:
        return _fail("worked example words have the wrong inversion count", (sigma, tau))
    return "n=7, 13-inversion words are 1576432 and 2476531"


@check("canonical", 8)
def check_lambda_chain(hi: int) -> Outcome:
    chain = [(1, 3, 5, 6, 7, 8, 4, 2), (1, 3, 4, 6, 8, 7, 5, 2), (1, 2, 5, 6, 8, 7, 4, 3),
             (1, 2, 4, 7, 8, 6, 5, 3), (1, 2, 3, 8, 7, 6, 5, 4)]
    for before, after in zip(chain, chain[1:]):
        if forgotten.next_lambda_down(before) != after:
            return _fail("documented rewriting chain not followed", before)
    if forgotten.next_lambda_down(chain[-1]) is not None:
        return _fail("walk did not stop at the canonical word", chain[-1])
    for n in range(2, hi + 1):
        for bits in range(1 << (n - 1)):
            rising = [x for x in range(1, n) if bits >> (x - 1) & 1]
            p = tuple(rising) + (n,) + tuple(sorted(set(range(1, n)) - set(rising), reverse=True))
            key = class_key(p)
            current = p
            for _ in range(2 ** n):
                step = forgotten.next_lambda_down(current)
                if step is None:
                    break
                if not is_lambda_shaped(step) or class_key(step) != key or not step < current:
                    return _fail(f"bad rewriting step at n={n}", (current, step))
                current = step
            else:
                return _fail(f"walk did not terminate at n={n}", p)
            if current != forgotten.canonical_of(p):
                return _fail(f"walk ended off the canonical word at n={n}", p)
    return f"lambda walks reach the canonical word (n <= {hi})"


@check("canonical")
def check_lambda_members_examples() -> Outcome:
    plus = {_digits(w) for w in forgotten.lambda_members(ClassKey(8, 10, True))}
    minus = {_digits(w) for w in forgotten.lambda_members(ClassKey(8, 10, False))}
    if plus != {"12387654", "12478653", "12568743", "13468752", "13567842"}:
        return _fail("lambda members of the 1-before-n class at (8, 10)", sorted(plus))
    if minus != {"23458761", "23467851"}:
        return _fail("lambda members of the n-before-1 class at (8, 10)", sorted(minus))
    if forgotten.lambda_members(ClassKey(6, 0, True)) != {tuple(range(1, 7))}:
        return _fail("inversion-free class should contain only the identity", 6)
    return "documented lambda member sets reproduced"


@check("canonical", 8)
def check_lambda_v_membership(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        shaped_l: dict[tuple[int, bool], set[Perm]] = {}
        shaped_v: dict[tuple[int, bool], set[Perm]] = {}
        for p, inv, one_first in sweep(n):
            if is_lambda_shaped(p):
                shaped_l.setdefault((inv, one_first), set()).add(p)
            if is_v_shaped(p):
                shaped_v.setdefault((inv, one_first), set()).add(p)
        for key in forgotten.all_class_keys(n):
            pair = (key.inv, key.one_before_n)
            if forgotten.lambda_members(key) != shaped_l.get(pair, set()):
                return _fail(f"lambda_members disagrees with the scan at n={n}", key)
            if forgotten.v_members(key) != shaped_v.get(pair, set()):
                return _fail(f"v_members disagrees with the scan at n={n}", key)
    return f"shape member enumerations match full scans (n <= {hi})"


# ---------------------------------------------------------------------------
# insertion suite

_INSERTION_TABLE = ["2476531", "1476532", "1376542", "1276543", "1267543", "1257643", "1247653"]


@check("insertion")
def check_insertion_table() -> Outcome:
    w = (1, 3, 6, 5, 4, 2)
    got = [_digits(forgotten.insert(w, i)) for i in range(7)]
    if got != _INSERTION_TABLE:
        return _fail("insertion table for 136542 differs", got)
    return "insertion table for 136542, i=0..6 reproduced"


@check("insertion", 8)
def check_insertion_exhaustive(hi: int) -> Outcome:
    checked = 0
    for n in range(2, hi + 1):
        for w in forgotten.lex_enumerate(n - 1):
            base = inversion_number(w)
            for i in range(n):
                checked += 1
                result = forgotten.insert(w, i)
                if not _avoids_forbidden(result):
                    return _fail(f"insertion left the canonical set at n={n}", (w, i))
                if inversion_number(result) != base + n - 1 - i:
                    return _fail(f"wrong inversion count at n={n}", (w, i))
                if class_key(result) != class_key(standardize(w + (i,))):
                    return _fail(f"insertion disagrees with standardization at n={n}", (w, i))
    return f"{checked} insertions match standardization (n <= {hi})"


# ---------------------------------------------------------------------------
# commutation suite


@check("commutation", 6)
def check_word_move_soundness(max_len: int) -> Outcome:
    moves = 0
    for w in _words_upto(max_len, 4):
        letters = Counter(w)
        inv = inversion_number(w)
        for i in range(len(w) - 2):
            window = words._rewrite_window(w[i], w[i + 1], w[i + 2])
            if window is None:
                continue
            moves += 1
            u = w[:i] + window + w[i + 3:]
            if Counter(u) != letters:
                return _fail("a rewrite changed the letter multiset", (w, u))
            # the two equal-letter rules shift the window's inversion count
            # by exactly one; the distinct-letter rules preserve it
            expected_shift = 0 if len({w[i], w[i + 1], w[i + 2]}) == 3 else 1
            if abs(inversion_number(u) - inv) != expected_shift:
                return _fail("a rewrite moved the inversion count unexpectedly", (w, u))
    return (
        f"{moves} word rewrites preserve the multiset, with inversions fixed on distinct-letter"
        f" windows and shifted by one on repeated-letter windows (len <= {max_len}, q <= 4)"
    )


# The paper's rewrites on permutations, 132 <-> 213 and 231 <-> 312, as a
# literal table on standardized windows: an oracle for the rule table in words.
_PERMUTATION_REWRITES = {(1, 3, 2): (2, 1, 3), (2, 1, 3): (1, 3, 2), (2, 3, 1): (3, 1, 2), (3, 1, 2): (2, 3, 1)}


@check("commutation")
def check_restriction_consistency() -> Outcome:
    for length in range(3, 5):
        for letters in itertools.permutations(range(1, 5), length):
            p = standardize(letters)
            expected = set()
            for i in range(length - 2):
                image = _PERMUTATION_REWRITES.get(standardize(p[i:i + 3]))
                if image is not None:
                    low = sorted(p[i:i + 3])
                    expected.add(p[:i] + tuple(low[r - 1] for r in image) + p[i + 3:])
            got = {standardize(u) for u in words.general_moves(letters)}
            if got != expected:
                return _fail("distinct-letter words deviate from permutation rewrites", letters)
    return "word rewrites restrict to permutation rewrites on distinct letters"


@check("commutation", 6)
def check_normal_form_invariance(max_len: int) -> Outcome:
    classes = closure_partition(max_len, 4)
    for closure in classes:
        normal = min(closure)
        for u in closure:
            if words.word_normal_form(u) != normal:
                return _fail("normal form differs inside one class", (normal, u))
    return f"{len(classes)} word classes share one normal form each (len <= {max_len}, q <= 4)"


@check("commutation", name="elementary_commutation")
def check_commutation() -> Outcome:
    for i, j in itertools.product(range(1, 4), repeat=2):
        for alphabet in (2, 3, 4, i + j):
            if not words.commute_check(i, j, alphabet):
                return _fail(f"e_{i} and e_{j} fail to commute over q={alphabet}", (i, j, alphabet))
    return "e_i e_j = e_j e_i in the quotient for i,j <= 3, q <= 4 and q = i + j, so for every q by relabeling"


@check("commutation", 6)
def check_reversal_closure_words(max_len: int) -> Outcome:
    classes = closure_partition(max_len, 4)
    for closure in classes:
        if not _reversal_closed(closure):
            return _fail("descent multiset of a word class not reversal-closed", min(closure))
    return f"{len(classes)} word classes have reversal-closed descent multisets (len <= {max_len}, q <= 4)"


# ---------------------------------------------------------------------------
# ribbon suite


def _expansion_by_lambda(key: ClassKey) -> set[Composition]:
    """Reversed recoil compositions of the class's lambda-shaped members."""
    return {reverse(recoil_composition(w)) for w in forgotten.lambda_members(key)}


def _expansion_by_v(key: ClassKey) -> set[Composition]:
    """Recoil compositions of the class's v-shaped members."""
    return {recoil_composition(w) for w in forgotten.v_members(key)}


def _descent_histogram(perms: Iterable[Sequence[int]]) -> Counter[int]:
    """The multiset of descent sets of perms, each a bit mask with bit i - 1 for descent i."""
    perms = list(perms)
    bits = [1 << i for i in range(max(map(len, perms), default=1) - 1)]
    return Counter(sum(itertools.compress(bits, map(gt, p, p[1:]))) for p in perms)


def _monomial_coefficients(histogram: Counter[int], n: int) -> dict[Composition, int]:
    """
    The coefficient of each M_alpha in the sum of F_D over a histogram: F_D
    sums the M_U over U containing D, so M_U counts the D inside U.

    >>> _monomial_coefficients(_descent_histogram([(1, 3, 2), (2, 1, 3)]), 3)
    {(3,): 0, (1, 2): 1, (2, 1): 1, (1, 1, 1): 2}
    """
    counts = [histogram[mask] for mask in range(1 << (n - 1))]
    for bit in range(n - 1):
        for mask in range(len(counts)):
            if mask >> bit & 1:
                counts[mask] += counts[mask ^ 1 << bit]
    return {
        composition_from_subset({i + 1 for i in range(n - 1) if mask >> i & 1}, n): count
        for mask, count in enumerate(counts)
    }


@check("ribbon")
def check_sign_pairing() -> Outcome:
    adopted_ok = True
    literal_ok = True
    witness = None
    for n in (4, 5):
        for key in forgotten.all_class_keys(n):
            by_lambda = _expansion_by_lambda(key)
            stratum = qsym.compositions_with_maj(n, key.inv)
            ends = {parts for parts in stratum if parts[-1] == 1}
            not_ends = stratum - ends
            adopted = not_ends if key.one_before_n else ends
            literal = ends if key.one_before_n else not_ends
            if by_lambda != adopted:
                adopted_ok = False
                witness = key
            if by_lambda != literal:
                literal_ok = False
    if not adopted_ok:
        return _fail("adopted sign pairing contradicted on n=4,5", witness)
    detail = "1-before-n classes pair with compositions NOT ending in 1 (checked on all keys of n=4,5)"
    if literal_ok:
        detail += "; the opposite pairing also fits, which should not happen"
        return _Failure(detail, None)
    detail += "; the opposite pairing is refuted"
    return detail


@check("ribbon", 8)
def check_ribbon_theorem(hi: int) -> Outcome:
    keys = 0
    for n in range(2, hi + 1):
        # the closed form of every class at once, for each partition of n
        memo: dict[tuple[int, ...], list[int]] = {}
        closed = {
            parts: forgotten.descent_class_counts(parts, memo)
            for parts in all_compositions(n)
            if list(parts) == sorted(parts, reverse=True)
        }
        for members in closure_partition(n):
            key = class_key(min(members))
            keys += 1
            expansion = qsym.ribbon_expansion(key)
            histogram = _descent_histogram(members)
            if histogram != sum(map(qsym._ribbons_by_recoil, expansion), Counter()):
                return _fail(f"class descent sets differ from its ribbons' at n={n}", key)
            coefficients = _monomial_coefficients(histogram, n)
            if any(c != coefficients[tuple(sorted(parts))] for parts, c in coefficients.items()):
                return _fail(f"class sum is not symmetric at n={n}", key)
            if any(counts[key.one_before_n][key.inv] != coefficients[parts] for parts, counts in closed.items()):
                return _fail(f"class sum differs from its q-multinomial closed form at n={n}", key)
            if n <= 6:
                fundamentals: Counter[tuple[int, ...]] = Counter()
                for member in members:
                    fundamentals.update(qsym._fundamental(n, frozenset(descent_set(member)), n))
                if qsym.class_qsym_sum(key, n) != fundamentals:
                    return _fail(f"class sum differs from its ribbon sum at n={n}", key)
    return f"{keys} class descent histograms match their ribbon sums and the q-multinomial closed form, and are symmetric (n <= {hi}; class_qsym_sum against sums of fundamentals, n <= {min(hi, 6)})"


@check("ribbon")
def check_s8_expansions() -> Outcome:
    plus = qsym.ribbon_expansion(ClassKey(8, 10, True))
    minus = qsym.ribbon_expansion(ClassKey(8, 10, False))
    if plus != frozenset({(1, 1, 1, 1, 4), (2, 1, 2, 3), (1, 3, 1, 3), (1, 2, 3, 2), (4, 2, 2)}):
        return _fail("expansion of the 1-before-n class at (8, 10)", sorted(plus))
    if minus != frozenset({(1, 1, 5, 1), (3, 4, 1)}):
        return _fail("expansion of the n-before-1 class at (8, 10)", sorted(minus))
    return "both 10-inversion expansions at n=8 reproduced"


@check("ribbon", 8)
def check_multiplicity_freeness(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        for key in forgotten.all_class_keys(n):
            lam = forgotten.lambda_members(key)
            if len({recoil_composition(w) for w in lam}) != len(lam):
                return _fail(f"lambda members share a recoil composition at n={n}", key)
            vee = forgotten.v_members(key)
            if len({recoil_composition(w) for w in vee}) != len(vee):
                return _fail(f"v members share a recoil composition at n={n}", key)
    return f"shape members have pairwise distinct recoils (n <= {hi})"


@check("ribbon", 8)
def check_composition_partition(hi: int) -> Outcome:
    keys = 0
    for n in range(2, hi + 1):
        strata: dict[int, set[Composition]] = {}
        for parts in all_compositions(n):
            strata.setdefault(composition_maj(parts), set()).add(parts)
        for k in range(n * (n - 1) // 2 + 1):
            stratum = strata.get(k, set())
            covered: set[Composition] = set()
            for one_before_n, sign in ((True, "1-before-n"), (False, "n-before-1")):
                lo, top = forgotten.inv_bounds(n, one_before_n)
                if not lo <= k <= top:
                    if any((parts[-1] == 1) != one_before_n for parts in stratum):
                        return _fail(f"compositions exist outside the {sign} range at n={n}", k)
                    continue
                key = ClassKey(n, k, one_before_n)
                keys += 1
                expansion = qsym.ribbon_expansion(key)
                if not expansion == _expansion_by_lambda(key) == _expansion_by_v(key):
                    return _fail(f"maj, lambda and v expansions disagree at n={n}", key)
                if covered & expansion:
                    return _fail(f"expansions overlap at n={n}", k)
                covered |= expansion
            if covered != stratum:
                return _fail(f"expansions fail to cover the major-index stratum at n={n}", k)
    return f"maj, lambda and v expansions agree on {keys} keys and each pair partitions its major-index stratum (n <= {hi})"


# ---------------------------------------------------------------------------
# foata suite


@check("foata", 7)
def check_foata_core(hi: int) -> Outcome:
    for n in range(1, hi + 1):
        images = set()
        for p in all_permutations(n):
            image = qsym.foata(p)
            images.add(image)
            if inversion_number(image) != major_index(p):
                return _fail(f"inv of the image differs from maj at n={n}", p)
            if recoil_composition(image) != recoil_composition(p):
                return _fail(f"recoil composition not preserved at n={n}", p)
            if n >= 2 and (image[0] < image[-1]) != (p[-2] < p[-1]):
                return _fail(f"endpoint sign property violated at n={n}", p)
        if len(images) != math.factorial(n):
            return _fail(f"transform not bijective at n={n}", n)
    return f"maj -> inv, recoils kept, bijective, endpoint signs agree (n <= {hi})"


@check("foata", 7)
def check_ns_properties(hi: int) -> Outcome:
    for n in range(1, hi + 1):
        images = set()
        for p in all_permutations(n):
            image = qsym.ns_map(p)
            images.add(image)
            if descent_set(image) != descent_set(p):
                return _fail(f"descent set not preserved at n={n}", p)
            if inversion_number(image) != major_index(inverse(p)):
                return _fail(f"inv of the image differs from maj of the inverse at n={n}", p)
            if n >= 2:
                one_first = image.index(1) < image.index(n)
                pre = p.index(n - 1) < p.index(n)
                if one_first != pre:
                    return _fail(f"sign transfer violated at n={n}", p)
        if len(images) != math.factorial(n):
            return _fail(f"map not bijective at n={n}", n)
    return f"descents kept, maj of inverse -> inv, bijective (n <= {hi})"


@check("foata", 7)
def check_ns_image(hi: int) -> Outcome:
    for n in range(2, hi + 1):
        sources: dict[tuple[int, bool], set[Perm]] = {}
        targets: dict[tuple[int, bool], set[Perm]] = {}
        for p, inv, one_first in sweep(n):
            sources.setdefault(
                (major_index(inverse(p)), p.index(n - 1) < p.index(n)), set()
            ).add(p)
            targets.setdefault((inv, one_first), set()).add(p)
        for bucket, members in sources.items():
            image = {qsym.ns_map(p) for p in members}
            if image != targets.get(bucket, set()):
                return _fail(f"image of a maj stratum is not the matching class at n={n}", bucket)
    return f"maj strata map onto forgotten classes (n <= {hi})"


def run_suite(suite: str, max_n: int | None = None, force: bool = False) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [run(max_n=max_n, force=force) for run in SUITES[suite]]

import itertools
import math
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from forgottenmonoid.forgotten import (
    CanonicalForm,
    ClassKey,
    _key_pair,
    _member_blocks,
    _q_multinomial,
    all_class_keys,
    canonical_of,
    canonical_of_key,
    canonical_word,
    class_key,
    class_members,
    class_sizes,
    classes_count,
    descent_class_counts,
    coforgotten_equivalent,
    equivalent,
    form_from_inversions,
    form_inversions,
    form_of_key,
    insert,
    insert_form,
    inv_bounds,
    is_canonical,
    lambda_members,
    lex_enumerate,
    next_lambda_down,
    normalized_forms,
    parse_class_key,
    v_members,
)
from forgottenmonoid.perms import (
    ParseError,
    _subsets_with_sum,
    all_compositions,
    all_permutations,
    avoids_pattern,
    check_permutation,
    descent_set,
    inverse,
    inversion_number,
    is_lambda_shaped,
    is_v_shaped,
    standardize,
)
from forgottenmonoid.words import general_moves, word_closure

# the paper's pattern characterization of canonical words, the oracle for
# is_canonical, which reads the key
FORBIDDEN_PATTERNS = ((2, 1, 3), (3, 1, 2), (1, 3, 4, 5, 2), (3, 4, 5, 2, 1))


def avoids_forbidden(p):
    return all(avoids_pattern(p, pattern) for pattern in FORBIDDEN_PATTERNS)


PAPER_CLASS_N5 = {
    (1, 2, 5, 4, 3), (1, 3, 4, 5, 2), (1, 3, 5, 2, 4), (1, 4, 2, 5, 3),
    (1, 4, 3, 2, 5), (1, 5, 2, 3, 4), (2, 1, 4, 5, 3), (2, 1, 5, 3, 4),
    (2, 3, 1, 5, 4), (2, 3, 4, 1, 5), (2, 4, 1, 3, 5), (3, 1, 2, 5, 4),
    (3, 1, 4, 2, 5), (3, 2, 1, 4, 5), (4, 1, 2, 3, 5),
}


def digits(p):
    return "".join(map(str, p))


def set_based_lambda_step(p):
    """Oracle for next_lambda_down: the step built from sets and sorts."""
    p = check_permutation(p)
    if not is_lambda_shaped(p):
        raise ValueError(f"{p!r} is not lambda-shaped")
    n = len(p)
    rising = set(p[: p.index(n) + 1])
    floor = 1 if 1 in rising else 2
    candidates = [
        b for b in rising if floor < b < n and b - 1 not in rising and any(b < c < n for c in rising)
    ]
    if not candidates:
        return None
    b = max(candidates)
    c = min(x for x in rising if b < x < n)
    d = next((x for x in range(c + 1, n) if x not in rising), None)
    rising.discard(b)
    rising.add(b - 1)
    if d is None:
        rising.discard(n - 1)
    else:
        rising.discard(d - 1)
        rising.add(d)
    rest = sorted(set(range(1, n + 1)) - rising, reverse=True)
    return tuple(sorted(rising) + rest)


def linear_search_form(family, inv, n):
    """Oracle for form_from_inversions on its domain: the ranges searched in turn."""
    if family == "sigma":
        m = 1
        while math.comb(m + 1, 2) <= inv:
            m += 1
        b = inv - math.comb(m, 2)
        return CanonicalForm("sigma", n - m - 1, n + b - m, n)
    if inv == math.comb(n, 2):
        return CanonicalForm("tau", 1, n, n)
    for m in range(2, n):
        base = math.comb(m, 2)
        if base + n - m <= inv <= base + n - 2:
            return CanonicalForm("tau", n - m, inv - base + 1, n)
    raise AssertionError(f"no tau form for inv={inv}, n={n}")


def set_difference_word(form):
    """Oracle for canonical_word: the falling letters as a sorted set difference."""
    n = form.n
    rising = list(range(1 if form.family == "sigma" else 2, form.k + 1))
    rising += [n] if form.a == n else [form.a, n]
    return tuple(rising + sorted(set(range(1, n + 1)) - set(rising), reverse=True))


def lambda_word(n, rising):
    return tuple(rising) + (n,) + tuple(sorted(set(range(1, n)) - set(rising), reverse=True))


class TestElementaryMoves:
    def test_examples(self):
        assert general_moves((1, 2, 3)) == set()
        assert general_moves((1, 3, 2)) == {(2, 1, 3)}
        assert general_moves((2, 3, 1)) == {(3, 1, 2)}

    def test_moves_are_symmetric(self):
        for p in all_permutations(5):
            for q in general_moves(p):
                assert p in general_moves(q)

    def test_window_count_bound(self):
        for p in all_permutations(5):
            assert len(general_moves(p)) <= len(p) - 2


class TestClosure:
    def test_identity_is_alone(self):
        assert word_closure(tuple(range(1, 7))) == {tuple(range(1, 7))}

    def test_paper_class_at_n5(self):
        assert word_closure((1, 2, 5, 4, 3)) == PAPER_CLASS_N5

    def test_size_example(self):
        assert len(word_closure((2, 1, 4, 3))) == 5


class TestClassKey:
    def test_examples(self):
        assert class_key(tuple(range(1, 7))) == ClassKey(6, 0, True)
        assert class_key((1, 2, 5, 4, 3)) == ClassKey(5, 3, True)
        assert class_key((4, 1, 2, 3)) == ClassKey(4, 3, False)

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            class_key((1,))

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError, match="not a permutation"):
            canonical_of((1, 1, 3))
        with pytest.raises(ValueError, match="not a permutation"):
            equivalent((1, 1, 3), (1, 2, 3))
        with pytest.raises(ValueError, match="not a permutation"):
            class_key((2, 2))

    def test_bounds_enforced(self):
        ClassKey(5, 6, True)  # top of the 1-before-n range
        with pytest.raises(ValueError):
            ClassKey(5, 7, True)
        with pytest.raises(ValueError):
            ClassKey(5, 3, False)
        with pytest.raises(ValueError):
            ClassKey(1, 0, True)

    def test_text_and_json_round_trip(self):
        key = ClassKey(8, 10, False)
        assert str(key) == "8,10,n1"
        assert parse_class_key(str(key)) == key
        assert key.to_json_dict() == {"n": 8, "inv": 10, "oneBeforeN": False}
        with pytest.raises(ParseError):
            parse_class_key("8,10")
        with pytest.raises(ParseError):
            parse_class_key("8,10,yes")

    @pytest.mark.parametrize("bad", ["8,1_0,n1", "\uff18,10,n1", "+8,10,n1", " 8,10,n1", "8, 10,n1", "8,10,n1\n", "8,\u0661\u0660,n1"])
    def test_key_text_is_ascii_decimals_only(self, bad):
        with pytest.raises(ParseError):
            parse_class_key(bad)

    @given(st.integers(2, 60).flatmap(lambda n: st.sampled_from(all_class_keys(n))))
    def test_key_text_round_trip(self, key):
        assert parse_class_key(str(key)) == key

    @given(st.integers(2, 60).flatmap(lambda n: st.permutations(list(range(1, n + 1)))).map(tuple))
    def test_key_pair_matches_class_key(self, p):
        key = class_key(p)
        assert _key_pair(p) == (key.inv, key.one_before_n)


class TestEquivalence:
    def test_examples(self):
        assert equivalent((1, 2, 5, 4, 3), (1, 2, 5, 4, 3))
        assert equivalent((2, 3, 4, 1), (4, 1, 2, 3))
        assert not equivalent((1, 4, 3, 2), (2, 3, 4, 1))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            equivalent((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("p, q, message", [
        ((1, 2), (1, 2, 3), "size mismatch: 2 vs 3"),
        ((1, 3), (1, 2), "not a permutation of 1..2: (1, 3)"),
        ((2, 1), (2, 2), "not a permutation of 1..2: (2, 2)"),
        ((1,), (1,), "class keys need permutations of size >= 2"),
        ((1,), (2,), "class keys need permutations of size >= 2"),
        ((), (), "class keys need permutations of size >= 2"),
    ])
    def test_error_texts(self, p, q, message):
        # p is validated and sized before q is read
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            equivalent(p, q)

    def test_agrees_with_closure_at_n5(self):
        # the key shortcut against the breadth-first oracle
        for p in all_permutations(5):
            closure = word_closure(p)
            for q in all_permutations(5):
                assert equivalent(p, q) == (q in closure)


class TestCanonicalForms:
    def test_identifications_applied(self):
        assert CanonicalForm("sigma", 2, 5, 5) == CanonicalForm("sigma", 1, 2, 5)
        assert CanonicalForm("tau", 3, 6, 6) == CanonicalForm("tau", 2, 3, 6)
        assert CanonicalForm("sigma", 0, 1, 5) == CanonicalForm("sigma", 1, 5, 5)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            CanonicalForm("sigma", 3, 3, 6)  # needs a > k
        with pytest.raises(ValueError):
            CanonicalForm("sigma", 0, 2, 6)  # k = 0 only pairs with a = 1
        with pytest.raises(ValueError):
            CanonicalForm("tau", 2, 8, 6)  # a beyond n
        with pytest.raises(ValueError):
            CanonicalForm("delta", 1, 2, 4)

    def test_str(self):
        assert str(CanonicalForm("sigma", 1, 3, 6)) == "sigma(1,3;n=6)"

    def test_words(self):
        assert canonical_word(CanonicalForm("sigma", 1, 3, 6)) == (1, 3, 6, 5, 4, 2)
        assert canonical_word(CanonicalForm("sigma", 4, 5, 6)) == tuple(range(1, 7))
        assert canonical_word(CanonicalForm("tau", 1, 4, 5)) == (4, 5, 3, 2, 1)
        assert canonical_word(CanonicalForm("tau", 1, 5, 5)) == (5, 4, 3, 2, 1)

    def test_inversion_formulas_against_brute_force(self):
        for n in range(2, 10):
            for family in ("sigma", "tau"):
                for form in normalized_forms(n, family):
                    assert form_inversions(form) == inversion_number(canonical_word(form))

    def test_inversion_examples(self):
        assert form_inversions(CanonicalForm("sigma", 1, 3, 6)) == 7
        assert form_inversions(CanonicalForm("sigma", 4, 5, 6)) == 0
        assert form_inversions(CanonicalForm("tau", 1, 7, 7)) == 21

    def test_form_from_inversions_worked_example(self):
        assert canonical_word(form_from_inversions("sigma", 13, 7)) == (1, 5, 7, 6, 4, 3, 2)
        assert canonical_word(form_from_inversions("tau", 13, 7)) == (2, 4, 7, 6, 5, 3, 1)

    def test_round_trip(self):
        for n in range(2, 11):
            for family in ("sigma", "tau"):
                lo, hi = inv_bounds(n, family == "sigma")
                for inv in range(lo, hi + 1):
                    form = form_from_inversions(family, inv, n)
                    assert form_inversions(form) == inv
                for form in normalized_forms(n, family):
                    assert form_from_inversions(family, form_inversions(form), n) == form

    def test_form_from_inversions_against_linear_search(self):
        for n in range(2, 81):
            for family in ("sigma", "tau"):
                lo, hi = inv_bounds(n, family == "sigma")
                for inv in range(lo, hi + 1):
                    assert form_from_inversions(family, inv, n) == linear_search_form(family, inv, n)

    def test_canonical_word_against_set_difference(self):
        for n in range(2, 31):
            for family in ("sigma", "tau"):
                for form in normalized_forms(n, family):
                    assert canonical_word(form) == set_difference_word(form), form

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            form_from_inversions("sigma", 7, 5)
        with pytest.raises(ValueError):
            form_from_inversions("tau", 3, 5)


class TestCanonicalElements:
    def test_examples(self):
        assert canonical_of(tuple(range(1, 6))) == tuple(range(1, 6))
        assert canonical_of((3, 1, 4, 2)) == (1, 4, 3, 2)
        assert canonical_of((2, 4, 1, 3)) == (2, 3, 4, 1)

    def test_lex_minimum_of_closure(self):
        for n in range(2, 6):
            for p in all_permutations(n):
                assert canonical_of(p) == min(word_closure(p))

    def test_lex_lists(self):
        assert lex_enumerate(1) == [(1,)]
        assert lex_enumerate(2) == [(1, 2), (2, 1)]
        assert lex_enumerate(3) == [(1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1)]
        assert [digits(w) for w in lex_enumerate(4)] == [
            "1234", "1243", "1342", "1432", "2341", "2431", "3421", "4321",
        ]

    def test_counts(self):
        for n in range(2, 13):
            assert len(lex_enumerate(n)) == classes_count(n) == n * n - 3 * n + 4

    def test_is_canonical_examples(self):
        assert is_canonical(tuple(range(1, 8)))
        assert is_canonical((1, 2, 4, 5, 3))
        assert not is_canonical((1, 3, 4, 5, 2))

    def test_is_canonical_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            is_canonical((1, 1, 3))
        with pytest.raises(ValueError):
            is_canonical((2, 2))

    def test_is_canonical_matches_enumeration(self):
        for n in range(2, 7):
            members = set(lex_enumerate(n))
            for p in all_permutations(n):
                assert is_canonical(p) == avoids_forbidden(p) == (p in members)

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_is_canonical_above_the_pattern_range(self, n):
        # no pattern scan: each canonical word passes, and one adjacent
        # transposition of it passes exactly when it is canonical too
        members = lex_enumerate(n)
        canonical = set(members)
        hits = 0
        for index, w in enumerate(members):
            assert is_canonical(w), w
            j = index % (n - 1)
            swapped = (*w[:j], w[j + 1], w[j], *w[j + 2:])
            verdict = is_canonical(swapped)
            assert verdict == (swapped in canonical), swapped
            hits += verdict
        assert 0 < hits < len(members)


class TestInsertion:
    TABLE = ["2476531", "1476532", "1376542", "1276543", "1267543", "1257643", "1247653"]

    def test_table(self):
        w = (1, 3, 6, 5, 4, 2)
        assert [digits(insert(w, i)) for i in range(7)] == self.TABLE

    def test_standardization_consistency(self):
        for n in range(2, 7):
            for w in lex_enumerate(n - 1):
                for i in range(n):
                    result = insert(w, i)
                    assert avoids_forbidden(result)
                    assert inversion_number(result) == inversion_number(w) + n - 1 - i
                    assert equivalent(result, standardize(w + (i,)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            insert((1, 3, 4, 5, 2), 0)  # not canonical
        with pytest.raises(ValueError):
            insert((1, 3, 6, 5, 4, 2), 7)  # letter out of range
        with pytest.raises(ValueError):
            insert((1, 3, 6, 5, 4, 2), -1)

    def test_form_is_the_form_of_the_result(self):
        for m in range(1, 11):
            for w in lex_enumerate(m):
                for i in range(m + 1):
                    assert insert_form(w, i) == form_of_key(class_key(insert(w, i))), (w, i)

    def test_size_one_base(self):
        assert insert((1,), 0) == (2, 1)
        assert insert((1,), 1) == (1, 2)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty word"):
            insert((), 0)

    def test_rejects_exactly_the_non_canonical(self):
        # the closed-form canonicity test against the pattern-avoidance oracle
        for n in range(1, 8):
            for w in all_permutations(n):
                avoids = avoids_forbidden(w)
                assert is_canonical(w) == avoids, w
                if avoids:
                    insert(w, 0)
                else:
                    with pytest.raises(ValueError, match="not a canonical word"):
                        insert(w, 0)


class TestShapeMembers:
    def test_lambda_examples(self):
        assert lambda_members(ClassKey(6, 0, True)) == {tuple(range(1, 7))}
        assert {digits(w) for w in lambda_members(ClassKey(8, 10, True))} == {
            "12387654", "12478653", "12568743", "13468752", "13567842",
        }
        assert {digits(w) for w in lambda_members(ClassKey(8, 10, False))} == {
            "23458761", "23467851",
        }

    def test_against_full_scan(self):
        for n in range(2, 7):
            for key in all_class_keys(n):
                scan_l = {p for p in all_permutations(n) if is_lambda_shaped(p) and class_key(p) == key}
                scan_v = {p for p in all_permutations(n) if is_v_shaped(p) and class_key(p) == key}
                assert lambda_members(key) == scan_l
                assert v_members(key) == scan_v

    def test_against_all_subsets(self):
        # oracles: filter all 2^(n-1) sets of rising (falling) letters by sign and inversions
        def lambda_filter(key):
            n, members = key.n, set()
            for bits in range(1 << (n - 1)):
                rising = [x for x in range(1, n) if bits >> (x - 1) & 1]
                if (1 in rising) == key.one_before_n and sum(n - x for x in rising) == math.comb(n, 2) - key.inv:
                    rest = sorted(set(range(1, n)) - set(rising), reverse=True)
                    members.add(tuple(rising) + (n,) + tuple(rest))
            return members

        def v_filter(key):
            n, members = key.n, set()
            for bits in range(1 << (n - 1)):
                falling = [x for x in range(2, n + 1) if bits >> (x - 2) & 1]
                if (n in falling) != key.one_before_n and sum(x - 1 for x in falling) == key.inv:
                    rest = sorted(set(range(2, n + 1)) - set(falling))
                    members.add(tuple(sorted(falling, reverse=True)) + (1,) + tuple(rest))
            return members

        for n in range(7, 12):
            for key in all_class_keys(n):
                assert lambda_members(key) == lambda_filter(key), key
                assert v_members(key) == v_filter(key), key

    def test_v_members_match_the_falling_letter_walk(self):
        # oracle: a v word is fixed by its falling letters (the valley 1
        # included), whose drops x - 1 are a subset of 1..n-1 summing to inv
        def v_walk(key):
            n, members = key.n, set()
            for drops in _subsets_with_sum(n - 1, key.inv):
                falling = [d + 1 for d in drops]
                if (n in falling) != key.one_before_n:
                    rest = sorted(set(range(2, n + 1)) - set(falling))
                    members.add(tuple(reversed(falling)) + (1,) + tuple(rest))
            return members

        for n in range(2, 15):
            for key in all_class_keys(n):
                assert v_members(key) == v_walk(key), key

    def test_every_class_has_both_shapes(self):
        for n in range(2, 8):
            for key in all_class_keys(n):
                assert lambda_members(key)
                assert v_members(key)


class TestLambdaWalk:
    def test_documented_chain(self):
        chain = ["13567842", "13468752", "12568743", "12478653", "12387654"]
        perms = [tuple(int(c) for c in w) for w in chain]
        for before, after in zip(perms, perms[1:]):
            assert next_lambda_down(before) == after
        assert next_lambda_down(perms[-1]) is None

    def test_all_have_ten_inversions(self):
        chain = ["13567842", "13468752", "12568743", "12478653", "12387654"]
        for w in chain:
            assert inversion_number(tuple(int(c) for c in w)) == 10

    def test_rejects_non_lambda(self):
        with pytest.raises(ValueError):
            next_lambda_down((3, 1, 4, 2))

    def test_against_set_based_step_exhaustive(self):
        for n in range(1, 15):
            for bits in range(1 << (n - 1)):
                p = lambda_word(n, [x for x in range(1, n) if bits >> (x - 1) & 1])
                assert next_lambda_down(p) == set_based_lambda_step(p), p

    def test_against_set_based_step_random(self):
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(15, 60)
            p = lambda_word(n, [x for x in range(1, n) if rng.random() < 0.5])
            assert next_lambda_down(p) == set_based_lambda_step(p), p

    @pytest.mark.parametrize("bad", [(1, 4, 2), (1, 3, 1)])
    def test_rejects_a_non_permutation(self, bad):
        # (1, 3, 1) is lambda-shaped: a letter may sit on both sides of the peak
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            next_lambda_down(bad)

    def test_walk_reaches_canonical(self):
        for n in range(2, 8):
            for key in all_class_keys(n):
                for start in lambda_members(key):
                    current = start
                    while (step := next_lambda_down(current)) is not None:
                        assert is_lambda_shaped(step)
                        assert class_key(step) == key
                        assert step < current
                        current = step
                    assert current == canonical_of_key(key)


class TestCoforgotten:
    def test_examples(self):
        assert coforgotten_equivalent((2, 3, 4, 1), (2, 3, 4, 1))
        # inverses are 4123 and 2341, which share the key (4, 3, n-before-1)
        assert inverse((2, 3, 4, 1)) == (4, 1, 2, 3)
        assert coforgotten_equivalent((2, 3, 4, 1), (4, 1, 2, 3))

    @pytest.mark.parametrize("bad, other", [((5, 1), (1, 2)), ((1, 1, 3), (1, 2, 3))])
    def test_rejects_a_non_permutation(self, bad, other):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            coforgotten_equivalent(bad, other)

    def test_counts(self):
        assert classes_count(4) == 8
        assert classes_count(7) == 32
        with pytest.raises(ValueError):
            classes_count(1)


class TestKeyListing:
    def test_ordering_matches_tables(self):
        keys = all_class_keys(4)
        assert [str(k) for k in keys] == [
            "4,0,1n", "4,1,1n", "4,2,1n", "4,3,1n", "4,3,n1", "4,4,n1", "4,5,n1", "4,6,n1",
        ]

    def test_counts_and_sizes(self):
        for n in range(2, 9):
            keys = all_class_keys(n)
            assert len(keys) == classes_count(n)
            assert len(set(keys)) == len(keys)

    def test_class_sizes_sum_to_factorial(self):
        for n in range(2, 7):
            total = sum(len(word_closure(canonical_of_key(key))) for key in all_class_keys(n))
            assert total == math.factorial(n)


class TestClosedFormClasses:
    def test_members_are_the_sorted_closure(self):
        for n in range(2, 9):
            for key in all_class_keys(n):
                assert class_members(key) == sorted(word_closure(canonical_of_key(key))), key

    def test_member_blocks_flatten_to_the_members(self):
        # the CLI formats a block's prefix once, so every block has members,
        # its t = min(5, n) unused letters in increasing order after its
        # prefix; it formats a tail list once per (unused letters, entry), so
        # blocks with one entry, in any class of S_n, share their arrangements
        # of S_t: those with entry[0] inversions and, unless entry[1] is
        # None, 1 before t as entry[1] says
        for n in range(2, 10):
            t = min(5, n)
            arrangements = {}
            for key in all_class_keys(n):
                flat = []
                for prefix, unused, entry, getters in _member_blocks(key):
                    assert getters and len(unused) == t and list(unused) == sorted(unused), key
                    assert sorted(prefix + unused) == list(range(1, n + 1)), key
                    ranks = [get(tuple(range(t + 1))) for get in getters]
                    assert arrangements.setdefault(entry, ranks) == ranks, (key, entry)
                    for r in ranks:
                        assert inversion_number(r) == entry[0] and entry[1] in (None, r.index(1) < r.index(t)), key
                    flat += [prefix + get((0,) + unused) for get in getters]
                assert flat == class_members(key), key

    def test_sizes_match_scan_of_s_n(self):
        for n in range(2, 9):
            assert class_sizes(n) == Counter(class_key(p) for p in all_permutations(n)), n

    def test_sizes_cover_every_key_and_sum_to_factorial(self):
        for n in range(2, 51):
            sizes = class_sizes(n)
            assert list(sizes) == all_class_keys(n)
            assert sum(sizes.values()) == math.factorial(n)

    def test_sizes_equal_the_factorial_closed_form(self):
        # with 1 and n at positions a < b the other letters give [n-2]_q!, and
        # the pair adds s = a - 1 + n - b inversions (1 first) or 2n - 3 - s
        # (n first), each in s + 1 ways
        factorial = [1]
        for n in range(2, 61):
            if n > 3:  # times 1 + q + ... + q^(n-3)
                prefix = [0, *itertools.accumulate(factorial)]
                factorial = [prefix[min(i + 1, len(factorial))] - prefix[max(0, i + 3 - n)]
                             for i in range(len(factorial) + n - 3)]
            if n > 30 and n % 10:
                continue
            pad = [0] * (2 * n)
            padded = pad + factorial + pad
            expected = {
                key: sum((s + 1) * padded[2 * n + key.inv - (s if key.one_before_n else 2 * n - 3 - s)]
                         for s in range(n - 1))
                for key in all_class_keys(n)
            }
            assert class_sizes(n) == expected, n

    def test_descent_class_counts_match_scan_of_s_n(self):
        for n in range(2, 7):
            for parts in all_compositions(n):
                cuts = set(itertools.accumulate(parts))
                expected = ([0] * (math.comb(n, 2) + 1), [0] * (math.comb(n, 2) + 1))
                for p in all_permutations(n):
                    if descent_set(p) <= cuts:
                        expected[p.index(1) < p.index(n)][inversion_number(p)] += 1
                assert descent_class_counts(parts) == expected, parts
                assert descent_class_counts((*parts, 0)) == expected, parts

    def test_q_multinomials_count_word_inversions(self):
        for parts in [(1,), (3,), (2, 2), (3, 1), (2, 1, 1), (3, 2, 2), (4, 2, 1), (2, 2, 1, 1)]:
            letters = [letter for letter, size in enumerate(parts) for _ in range(size)]
            counts = Counter(inversion_number(w) for w in set(itertools.permutations(letters)))
            expected = [counts[i] for i in range(max(counts) + 1)]
            assert _q_multinomial(parts, {}) == expected, parts

    @pytest.mark.parametrize("n", [12, 20, 30, 50])
    def test_members_of_small_classes_at_large_n(self, n):
        # keys next to their inversion bounds, where a walk that fixes the
        # sign too late explores about 2^inv dead prefixes
        started = time.perf_counter()
        for key, size in class_sizes(n).items():
            if size <= 2_000:
                members = class_members(key)
                assert len(members) == size, key
                assert members == sorted(set(members)), key
                assert all(class_key(p) == key for p in members), key
                assert members[0] == canonical_of_key(key), key
        assert time.perf_counter() - started < 2.0

    def test_sizes_need_n_at_least_2(self):
        with pytest.raises(ValueError):
            class_sizes(1)

    @settings(max_examples=15, deadline=None)
    @given(st.permutations(range(1, 10)))
    def test_closure_at_n9_matches_members(self, p):
        p = tuple(p)
        members = class_members(class_key(p))
        assert sorted(word_closure(p)) == members
        assert members[0] == canonical_of(p)

    @settings(max_examples=3, deadline=None)
    @given(st.permutations(range(1, 11)))
    def test_closure_at_n10_matches_members(self, p):
        # at n = 10 the walk places five letters before it reads the tail table
        p = tuple(p)
        assert sorted(word_closure(p)) == class_members(class_key(p))

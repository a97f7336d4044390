import itertools
import math
import re
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from forgottenmonoid import qsym, verify
from forgottenmonoid.forgotten import ClassKey, all_class_keys, canonical_of_key, class_members
from forgottenmonoid.perms import (
    all_compositions,
    all_permutations,
    check_permutation,
    composition_from_subset,
    composition_maj,
    descent_set,
    inverse,
    inversion_number,
    major_index,
    recoil_composition,
)
from forgottenmonoid.qsym import (
    RibbonSum,
    class_qsym_sum,
    compositions_with_maj,
    foata,
    ns_map,
    ribbon_expansion,
)
from forgottenmonoid.words import word_closure


def fundamental(n, descents, m):
    return qsym._fundamental(n, frozenset(descents), m)


def histogram_sum(histogram, n, m):
    """
    The sum of F_D over a descent histogram in m variables, as its nonzero
    coefficients in lexicographic order: x^e takes the M coefficient at e's
    nonzero parts.
    """
    coefficients = verify._monomial_coefficients(histogram, n)
    terms = {}
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        marks = (-1, *bars, n + m - 1)
        exponents = tuple(b - a - 1 for a, b in zip(marks, marks[1:]))
        coeff = coefficients[tuple(filter(None, exponents))]
        if coeff:
            terms[exponents] = coeff
    return terms


def ribbon_schur(parts, m):
    """One ribbon in m variables, from its recoil class's descent histogram."""
    return histogram_sum(qsym._ribbons_by_recoil(parts), sum(parts), m)


def member_sum(key, m):
    """The keyed class's sum in m variables, from the descent histogram of its members."""
    return histogram_sum(verify._descent_histogram(class_members(key)), key.n, m)


def class_sum(key, m):
    """The sum of F_D over the keyed class in m variables, from its BFS closure."""
    total = Counter()
    for member in word_closure(canonical_of_key(key)):
        total.update(fundamental(key.n, descent_set(member), m))
    return total


def symmetric(terms):
    """Every rearrangement of an exponent vector has the same coefficient."""
    return all(
        terms.get(rearranged) == coeff
        for exponents, coeff in terms.items()
        for rearranged in itertools.permutations(exponents)
    )


@lru_cache(maxsize=None)
def by_recoil(n):
    """All of S_n grouped by recoil composition."""
    groups = {}
    for p in all_permutations(n):
        groups.setdefault(recoil_composition(p), []).append(p)
    return groups


class TestTruncatedPolynomial:
    """The term maps of class_qsym_sum: homogeneous of degree n in m variables."""

    def test_validation(self):
        for n in range(2, 7):
            for key in all_class_keys(n):
                for m in range(1, n + 2):
                    terms = class_qsym_sum(key, m)
                    assert all(len(exp) == m and sum(exp) == n and coeff for exp, coeff in terms.items())
        # r[1,2] in two variables: the zero coefficients at (3, 0) and (0, 3) are left out
        assert class_qsym_sum(ClassKey(3, 1, True), 2) == {(1, 2): 1, (2, 1): 1}


class TestFundamental:
    def test_one_variable(self):
        assert fundamental(4, set(), 1) == {(4,): 1}
        assert fundamental(4, {2}, 1) == {}

    def test_two_variable_examples(self):
        assert fundamental(2, set(), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
        assert fundamental(2, {1}, 2) == {(1, 1): 1}

    def test_monomial_count_without_descents(self):
        # weakly increasing sequences are multisets: stars and bars
        for n in range(1, 6):
            for m in range(1, 5):
                assert sum(fundamental(n, set(), m).values()) == math.comb(n + m - 1, n)

    def test_full_descents_give_elementary_monomials(self):
        terms = fundamental(3, {1, 2}, 4)
        assert all(set(exp) <= {0, 1} for exp in terms)
        assert sum(terms.values()) == math.comb(4, 3)


class TestRibbonSchur:
    """One ribbon, as the M-basis oracle over its recoil class's descent histogram."""

    def test_single_part_is_complete_homogeneous(self):
        for n in range(1, 6):
            assert ribbon_schur((n,), n) == fundamental(n, set(), n)

    def test_column_example(self):
        assert ribbon_schur((1, 1), 2) == {(1, 1): 1}

    def test_matches_class_sum_for_paper_class(self):
        key = ClassKey(5, 3, True)
        total = Counter(ribbon_schur((1, 1, 3), 5)) + Counter(ribbon_schur((3, 2), 5))
        assert class_sum(key, 5) == total

    def test_symmetric(self):
        for parts in [(2, 1), (1, 2), (3,), (1, 1, 1)]:
            assert symmetric(ribbon_schur(parts, 4))

    def test_histograms_match_scan_of_s_n(self):
        for n in range(1, 8):
            for parts in all_compositions(n):
                assert qsym._ribbons_by_recoil(parts) == verify._descent_histogram(by_recoil(n)[parts]), parts

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.sampled_from(list(all_compositions(n))), st.integers(1, n))))
    def test_matches_sum_of_fundamentals(self, case):
        parts, m = case
        total = Counter()
        for p in by_recoil(sum(parts))[parts]:
            total.update(fundamental(len(p), descent_set(p), m))
        assert ribbon_schur(parts, m) == total


class TestMonomialCoefficients:
    def test_single_fundamental(self):
        # F_D is the sum of M_U over the cut sets U that contain D
        for n in range(1, 6):
            for p in all_permutations(n):
                descents = descent_set(p)
                expected = {
                    composition_from_subset(set(cuts), n): int(descents <= set(cuts))
                    for r in range(n)
                    for cuts in itertools.combinations(range(1, n), r)
                }
                assert verify._monomial_coefficients(verify._descent_histogram([p]), n) == expected, p

    def test_descent_histogram_matches_descent_set_masks(self):
        def masks(perms):
            return Counter(sum(1 << (i - 1) for i in descent_set(p)) for p in perms)

        for n in range(1, 8):
            assert verify._descent_histogram(all_permutations(n)) == masks(all_permutations(n)), n
        mixed = [(2, 1), (1, 3, 2), (3, 1, 2), (4, 1, 3, 2)]
        assert verify._descent_histogram(iter(mixed)) == masks(mixed)


class TestFoata:
    def test_examples(self):
        assert foata(tuple(range(1, 7))) == tuple(range(1, 7))
        assert foata((1, 3, 2)) == (3, 1, 2)
        assert foata((2, 3, 1)) == (2, 3, 1)

    def test_maj_to_inv_and_recoils(self):
        for n in range(1, 6):
            for p in all_permutations(n):
                image = foata(p)
                assert inversion_number(image) == major_index(p)
                assert recoil_composition(image) == recoil_composition(p)

    def test_bijective(self):
        for n in range(1, 6):
            assert len({foata(p) for p in all_permutations(n)}) == math.factorial(n)

    def test_endpoint_sign(self):
        for p in all_permutations(5):
            image = foata(p)
            assert (image[0] < image[-1]) == (p[-2] < p[-1])

    def test_prefix_extreme_words_are_fixed(self):
        # appending only new minima or maxima leaves the transform inert
        assert foata((3, 2, 1, 4)) == (3, 2, 1, 4)
        assert foata((2, 3, 4, 1, 5)) == (2, 3, 4, 1, 5)

    def test_rejects_a_repeated_letter(self):
        # unchecked, a repeated last letter would never close a block and be lost
        with pytest.raises(ValueError, match=re.escape("(1, 1)")):
            foata((1, 1))


class TestNsMap:
    def test_examples(self):
        assert ns_map(tuple(range(1, 6))) == tuple(range(1, 6))
        assert ns_map((1, 3, 2)) == (2, 3, 1)

    def test_rejects_a_letter_above_n(self):
        with pytest.raises(ValueError, match=re.escape("(5, 1)")):
            ns_map((5, 1))

    def test_validates_once(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return check_permutation(p)

        monkeypatch.setattr(qsym, "check_permutation", counting)
        for p in all_permutations(4):
            calls.clear()
            ns_map(p)
            assert calls == [p]

    def test_descents_kept_and_bijective(self):
        for n in range(1, 6):
            images = set()
            for p in all_permutations(n):
                image = ns_map(p)
                images.add(image)
                assert descent_set(image) == descent_set(p)
                assert inversion_number(image) == major_index(inverse(p))
            assert len(images) == math.factorial(n)

    def test_sign_transfer(self):
        for p in all_permutations(5):
            image = ns_map(p)
            assert (image.index(1) < image.index(5)) == (p.index(4) < p.index(5))


class TestCompositionsWithMaj:
    def test_zero_maj(self):
        assert compositions_with_maj(6, 0) == {(6,)}

    def test_paper_seven_compositions(self):
        assert compositions_with_maj(8, 10) == {
            (1, 1, 1, 1, 4), (2, 1, 2, 3), (1, 3, 1, 3), (1, 2, 3, 2),
            (4, 2, 2), (1, 1, 5, 1), (3, 4, 1),
        }

    def test_ending_filters(self):
        stratum = compositions_with_maj(5, 3)
        assert {parts for parts in stratum if parts[-1] != 1} == {(3, 2), (1, 1, 3)}
        assert {parts for parts in stratum if parts[-1] == 1} == set()

    def test_matches_scan_of_all_compositions(self):
        for n in range(1, 11):
            for k in range(math.comb(n, 2) + 2):
                expected = {parts for parts in all_compositions(n) if composition_maj(parts) == k}
                assert compositions_with_maj(n, k) == expected, (n, k)

    def test_negative_maj_raises(self):
        with pytest.raises(ValueError):
            compositions_with_maj(5, -1)


class TestRibbonExpansion:
    def test_inversion_free_class(self):
        assert ribbon_expansion(ClassKey(6, 0, True)).compositions == frozenset({(6,)})

    def test_s8_examples(self):
        plus = ribbon_expansion(ClassKey(8, 10, True))
        minus = ribbon_expansion(ClassKey(8, 10, False))
        assert plus.compositions == frozenset(
            {(1, 1, 1, 1, 4), (2, 1, 2, 3), (1, 3, 1, 3), (1, 2, 3, 2), (4, 2, 2)}
        )
        assert str(minus) == "r[1,1,5,1] + r[3,4,1]"

    def test_disagreement_fails_verify(self, monkeypatch):
        monkeypatch.setattr(verify, "_expansion_by_v", lambda key: {(key.n,), (1,) * key.n})
        assert not verify.check_composition_partition(max_n=4).passed

    @settings(max_examples=40, deadline=None)
    @given(st.integers(9, 14).flatmap(lambda n: st.sampled_from(all_class_keys(n))))
    def test_agrees_with_shape_members(self, key):
        assert ribbon_expansion(key).compositions == verify._expansion_by_lambda(key) == verify._expansion_by_v(key)

    def test_empty_sum_prints_zero(self):
        assert str(RibbonSum(4, frozenset())) == "0"


class TestClassSums:
    def test_inversion_free_class_is_complete_homogeneous(self):
        key = ClassKey(5, 0, True)
        assert class_sum(key, 3) == fundamental(5, set(), 3)

    def test_n4_minus_class(self):
        key = ClassKey(4, 3, False)
        total = Counter()
        for parts in ribbon_expansion(key).compositions:
            total.update(ribbon_schur(parts, 4))
        assert class_sum(key, 4) == total

    def test_full_theorem_small(self):
        # in the F basis: the ribbons' recoil classes have the class's descent sets
        for n in range(2, 6):
            for key in all_class_keys(n):
                ribbons = sum(map(qsym._ribbons_by_recoil, ribbon_expansion(key).compositions), Counter())
                assert ribbons == verify._descent_histogram(word_closure(canonical_of_key(key))), key
                assert symmetric(class_sum(key, n))

    def test_wrong_expansion_fails_verify(self, monkeypatch):
        monkeypatch.setattr(qsym, "ribbon_expansion", lambda key: RibbonSum(key.n, frozenset({(key.n,)})))
        assert not verify.check_ribbon_theorem(max_n=4).passed

    def test_dropped_term_fails_verify(self, monkeypatch):
        closed_form = qsym.class_qsym_sum
        monkeypatch.setattr(qsym, "class_qsym_sum", lambda key, m: dict(list(closed_form(key, m).items())[1:]))
        results = {r.name: r for r in verify.run_suite("ribbon", max_n=4)}
        assert not results["ribbon_theorem"].passed
        assert "class sum differs from its ribbon sum" in results["ribbon_theorem"].detail

    def test_dropped_descent_set_fails_verify(self, monkeypatch):
        # check_ribbon_theorem reads the recoil histograms through qsym, whose cache perfbench clears
        by_recoil = qsym._ribbons_by_recoil

        def dropping(parts):
            histogram = Counter(by_recoil(parts))
            del histogram[max(histogram)]
            return histogram

        monkeypatch.setattr(qsym, "_ribbons_by_recoil", dropping)
        result = verify.check_ribbon_theorem(max_n=4)
        assert not result.passed
        assert "class descent sets differ from its ribbons'" in result.detail


class TestClassQsymSum:
    """The closed form against the members' descent histograms and BFS closures."""

    def test_equals_evaluate_for_every_small_key(self):
        for n in range(2, 8):
            for key in all_class_keys(n):
                for m in range(1, n + 1):
                    terms = class_qsym_sum(key, m)
                    expected = member_sum(key, m)
                    assert terms == expected, (key, m)
                    assert list(terms) == list(expected), (key, m)

    def test_equals_bfs_class_sum(self):
        for n in range(2, 7):
            for key in all_class_keys(n):
                for m in range(1, n + 1):
                    assert class_qsym_sum(key, m) == class_sum(key, m), (key, m)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(8, 9).flatmap(
        lambda n: st.tuples(st.sampled_from(all_class_keys(n)), st.integers(1, n))))
    def test_equals_evaluate_at_n8_n9(self, case):
        key, m = case
        assert class_qsym_sum(key, m) == member_sum(key, m)

    def test_more_variables_than_n(self):
        for key in all_class_keys(4):
            assert class_qsym_sum(key, 6) == class_sum(key, 6)

    def test_needs_a_variable(self):
        for m in (0, -3):
            with pytest.raises(ValueError, match=f"need at least one variable, got {m}"):
                class_qsym_sum(ClassKey(4, 3, False), m)

    def test_no_state_between_calls(self):
        keys = [(key, m) for n in (5, 7) for key in all_class_keys(n)[::5] for m in (2, n)]
        forward = [class_qsym_sum(key, m) for key, m in keys]
        backward = [class_qsym_sum(key, m) for key, m in reversed(keys)]
        assert forward == backward[::-1]
        cached = {name for name, value in vars(qsym).items() if hasattr(value, "cache_info")}
        assert cached == {"_fundamental", "_ribbons_by_recoil"}

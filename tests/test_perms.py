import itertools

import pytest
from hypothesis import given, strategies as st

from forgottenmonoid.perms import (
    ParseError,
    _subsets_with_sum,
    all_permutations,
    avoids_pattern,
    complement,
    composition_from_subset,
    composition_maj,
    descent_composition,
    descent_set,
    format_permutation,
    inverse,
    inversion_number,
    is_lambda_shaped,
    is_v_shaped,
    major_index,
    parse_permutation,
    recoil_composition,
    reverse,
    schuetzenberger,
    standardize,
    sweep,
)

permutations = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple)

small_words = st.lists(st.integers(1, 4), min_size=1, max_size=8).map(tuple)

long_words = st.lists(st.integers(1, 12), max_size=60).map(tuple)

# Permutations of size up to 9 and words with many ties, for the pattern scan.
scan_words = st.one_of(
    st.integers(0, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))).map(tuple),
    st.lists(st.integers(1, 3), max_size=9).map(tuple),
)

patterns = st.integers(1, 5).flatmap(
    lambda k: st.permutations(list(range(1, k + 1)))
).map(tuple)


def brute_inversions(word):
    return sum(
        1 for i, j in itertools.combinations(range(len(word)), 2) if word[i] > word[j]
    )


def scan_avoids(word, pattern):
    """Reference pattern scan: standardize every window and compare."""
    if len(pattern) > len(word):
        return True
    return all(
        standardize(window) != tuple(pattern)
        for window in itertools.combinations(word, len(pattern))
    )


# Literal references for the kernels written with map and slices.
def ref_complement(p):
    return tuple(len(p) + 1 - x for x in p)


def ref_lambda_shaped(p):
    peak = p.index(max(p))
    return all(p[i] < p[i + 1] for i in range(peak)) and all(p[i] > p[i + 1] for i in range(peak, len(p) - 1))


def ref_v_shaped(p):
    valley = p.index(min(p))
    return all(p[i] > p[i + 1] for i in range(valley)) and all(p[i] < p[i + 1] for i in range(valley, len(p) - 1))


def small_perms(hi):
    return (p for n in range(1, hi + 1) for p in all_permutations(n))


def small_tied_words(hi):
    return (w for length in range(1, hi + 1) for w in itertools.product(range(1, 4), repeat=length))


class TestSweep:
    def test_matches_a_recount_on_every_permutation(self):
        for n in range(2, 9):
            expected = [(p, inversion_number(p), p.index(1) < p.index(n)) for p in all_permutations(n)]
            assert list(sweep(n)) == expected, n

    def test_needs_two_letters(self):
        for n in (1, 0, -1):
            with pytest.raises(ValueError, match="n >= 2"):
                sweep(n)


class TestStatistics:
    def test_inversregion_examples(self):
        assert inversion_number(tuple(range(1, 8))) == 0
        assert inversion_number((4, 3, 2, 1)) == 6
        assert inversion_number((3, 1, 4, 2)) == 3

    @given(small_words)
    def test_inversions_match_brute_force(self, w):
        assert inversion_number(w) == brute_inversions(w)

    @given(long_words)
    def test_inversions_match_brute_force_on_long_words(self, w):
        # repeated letters never count as inversions
        assert inversion_number(w) == brute_inversions(w)

    def test_descent_sets(self):
        assert descent_set(tuple(range(1, 9))) == set()
        assert descent_set((3, 1, 4, 2)) == {1, 3}
        assert descent_set((1, 2, 5, 4, 3)) == {3, 4}

    def test_major_index_sums_descents(self):
        assert major_index((3, 1, 4, 2)) == 4
        assert major_index((1, 3, 2)) == 2

    def test_composition_maj(self):
        assert composition_maj((1, 1, 1, 1, 4)) == 10
        assert composition_maj((7,)) == 0
        assert composition_maj((3, 2)) == 3

    @given(permutations)
    def test_inverse_preserves_inversions(self, p):
        assert inversion_number(inverse(p)) == inversion_number(p)


class TestCompositions:
    def test_subset_round_trip_examples(self):
        assert composition_from_subset(set(), 4) == (4,)
        assert composition_from_subset({2}, 4) == (2, 2)
        assert composition_from_subset({1, 2}, 5) == (1, 1, 3)

    def test_bad_subset_rejected(self):
        with pytest.raises(ValueError):
            composition_from_subset({4}, 4)
        with pytest.raises(ValueError):
            composition_from_subset({0}, 4)

    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, max(n - 1, 1))))))
    def test_subset_round_trip(self, case):
        n, subset = case
        subset = {x for x in subset if x < n}
        parts = composition_from_subset(subset, n)
        assert sum(parts) == n
        assert set(itertools.accumulate(parts[:-1])) == subset

    def test_subsets_with_sum_against_all_subsets(self):
        for m in range(13):
            by_sum: dict[int, list[list[int]]] = {}
            for r in range(m + 1):
                for subset in itertools.combinations(range(1, m + 1), r):
                    by_sum.setdefault(sum(subset), []).append(list(subset))
            for total in range(-1, m * (m + 1) // 2 + 2):
                assert sorted(_subsets_with_sum(m, total)) == sorted(by_sum.get(total, [])), (m, total)

    def test_descent_composition_is_runs(self):
        assert descent_composition(tuple(range(1, 6))) == (5,)
        assert descent_composition((3, 1, 4, 2)) == (1, 2, 1)

    def test_recoil_composition_examples(self):
        # recoils of 3142 are the descents of its inverse 2413
        assert inverse((3, 1, 4, 2)) == (2, 4, 1, 3)
        assert recoil_composition((3, 1, 4, 2)) == (2, 2)
        # 12543 is an involution, so recoils equal descents
        assert inverse((1, 2, 5, 4, 3)) == (1, 2, 5, 4, 3)
        assert recoil_composition((1, 2, 5, 4, 3)) == (3, 1, 1)


class TestSymmetries:
    def test_inverse_example(self):
        assert inverse((2, 3, 4, 1)) == (4, 1, 2, 3)

    def test_schuetzenberger_example(self):
        assert schuetzenberger((8, 4, 2, 9, 5, 6, 1, 3, 7)) == (3, 7, 9, 4, 5, 1, 8, 6, 2)
        assert schuetzenberger(tuple(range(1, 8))) == tuple(range(1, 8))

    def test_complement_and_involution_match_references(self):
        for p in small_perms(7):
            assert complement(p) == ref_complement(p)
            assert schuetzenberger(p) == ref_complement(p[::-1])

    @given(permutations)
    def test_schuetzenberger_involution(self, p):
        assert schuetzenberger(schuetzenberger(p)) == p
        assert inversion_number(schuetzenberger(p)) == inversion_number(p)

    @given(permutations)
    def test_schuetzenberger_reverses_descent_composition(self, p):
        assert descent_composition(schuetzenberger(p)) == reverse(descent_composition(p))

    @given(permutations)
    def test_complement_reverse_commute_to_involution(self, p):
        assert complement(complement(p)) == p
        assert reverse(reverse(p)) == p
        assert inverse(inverse(p)) == p


class TestStandardize:
    def test_examples(self):
        assert standardize((3, 7, 9)) == (1, 2, 3)
        assert standardize((1, 2, 1)) == (1, 3, 2)
        assert standardize((1, 3, 6, 5, 4, 2, 0)) == (2, 4, 7, 6, 5, 3, 1)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            standardize(())

    @given(permutations)
    def test_idempotent_on_permutations(self, p):
        assert standardize(p) == p

    @given(small_words)
    def test_preserves_descent_set(self, w):
        assert descent_set(standardize(w)) == descent_set(w)


class TestShapes:
    def test_lambda_examples(self):
        assert is_lambda_shaped(tuple(range(1, 7)))
        assert is_lambda_shaped(tuple(range(6, 0, -1)))
        assert is_lambda_shaped((1, 3, 4, 5, 2))
        assert not is_lambda_shaped((3, 1, 4, 2))

    def test_v_examples(self):
        assert is_v_shaped((4, 1, 2, 3, 5))
        assert is_v_shaped(tuple(range(1, 7)))
        assert not is_v_shaped((2, 3, 1))

    def test_empty_word_rejected(self):
        for predicate in (is_lambda_shaped, is_v_shaped):
            with pytest.raises(ValueError, match="empty word"):
                predicate(())

    def test_match_references_on_permutations_and_tied_words(self):
        for w in itertools.chain(small_perms(7), small_tied_words(5)):
            assert is_lambda_shaped(w) == ref_lambda_shaped(w), w
            assert is_v_shaped(w) == ref_v_shaped(w), w

    def test_shapes_swap_under_complement(self):
        for p in itertools.permutations(range(1, 6)):
            assert is_lambda_shaped(p) == is_v_shaped(complement(p))


class TestPatterns:
    def test_word_contains_itself(self):
        assert not avoids_pattern((2, 1, 3), (2, 1, 3))
        assert not avoids_pattern((1, 3, 4, 5, 2), (1, 3, 4, 5, 2))

    def test_lex_member_avoids_all_four(self):
        for pattern in [(2, 1, 3), (3, 1, 2), (1, 3, 4, 5, 2), (3, 4, 5, 2, 1)]:
            assert avoids_pattern((1, 2, 4, 5, 3), pattern)

    def test_against_brute_force(self):
        pattern = (2, 1, 3)
        for p in itertools.permutations(range(1, 6)):
            contains = any(
                standardize(sub) == pattern
                for sub in itertools.combinations(p, 3)
            )
            assert avoids_pattern(p, pattern) == (not contains)

    def test_longer_pattern_always_avoided(self):
        assert avoids_pattern((2, 1), (2, 1, 3))

    def test_non_permutation_pattern_rejected(self):
        for bad in ((), (1, 1), (2, 3), (0, 1), (1, 3), (2,)):
            with pytest.raises(ValueError):
                avoids_pattern((1, 2, 3), bad)

    def test_matches_window_scan_on_all_small_words(self):
        small_patterns = [p for k in range(1, 5) for p in itertools.permutations(range(1, k + 1))]
        for length in range(6):
            for w in itertools.product(range(1, 4), repeat=length):
                for pattern in small_patterns:
                    assert avoids_pattern(w, pattern) == scan_avoids(w, pattern), (w, pattern)

    @given(scan_words, patterns)
    def test_matches_window_scan(self, w, pattern):
        assert avoids_pattern(w, pattern) == scan_avoids(w, pattern)


class TestTextForms:
    def test_parse_digit_string(self):
        assert parse_permutation("3142") == (3, 1, 4, 2)

    def test_parse_comma_list(self):
        assert parse_permutation("8,4,2,9,5,6,1,3,7") == (8, 4, 2, 9, 5, 6, 1, 3, 7)

    def test_format_round_trip(self):
        for text in ("3,1,4,2", "1", "2,1"):
            assert format_permutation(parse_permutation(text)) == text

    def test_parse_rejects_non_permutations(self):
        for bad in ("", "1,1,2", "0,1", "abc", "1 2 3"):
            with pytest.raises(ParseError):
                parse_permutation(bad)

    @pytest.mark.parametrize("bad", ["\u0661\u0662", "+2,1", " 2 , 1 ", "2,1 ", "1_0,9,8,7,6,5,4,3,2,1", "\uff12\uff11", "2,,1", "2,1,"])
    def test_parse_accepts_ascii_decimals_only(self, bad):
        with pytest.raises(ParseError):
            parse_permutation(bad)

    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))), st.booleans())
    def test_parse_format_round_trip(self, p, digit_string):
        p = tuple(p)
        text = "".join(map(str, p)) if digit_string and len(p) <= 9 else format_permutation(p)
        assert parse_permutation(text) == p

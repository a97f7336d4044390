import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from forgottenmonoid import qsym, verify
from forgottenmonoid.forgotten import ClassKey, all_class_keys
from forgottenmonoid.perms import (
    all_compositions,
    all_permutations,
    composition_maj,
    descent_set,
    inverse,
    inversion_number,
    major_index,
    recoil_composition,
)
from forgottenmonoid.qsym import (
    RibbonSum,
    TruncatedPolynomial,
    class_qsym_sum,
    compositions_with_maj,
    foata,
    fundamental_qsym,
    is_symmetric,
    ns_map,
    ribbon_expansion,
    ribbon_schur,
)


class TestTruncatedPolynomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedPolynomial(2, 3, {(1, 1): 1})  # degree mismatch
        with pytest.raises(ValueError):
            TruncatedPolynomial(2, 2, {(1, 1, 0): 1})  # wrong arity
        with pytest.raises(ValueError):
            TruncatedPolynomial(0, 1)

    def test_arithmetic(self):
        a = TruncatedPolynomial(2, 2, {(2, 0): 1, (1, 1): 2})
        b = TruncatedPolynomial(2, 2, {(1, 1): 2})
        assert (a - b).terms == {(2, 0): 1}
        assert (a - a).is_zero()
        assert a + b == TruncatedPolynomial(2, 2, {(2, 0): 1, (1, 1): 4})
        with pytest.raises(ValueError):
            a + TruncatedPolynomial(3, 2, {(1, 1, 0): 1})


class TestFundamental:
    def test_one_variable(self):
        assert fundamental_qsym(4, set(), 1).terms == {(4,): 1}
        assert fundamental_qsym(4, {2}, 1).is_zero()

    def test_two_variable_examples(self):
        assert fundamental_qsym(2, set(), 2).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
        assert fundamental_qsym(2, {1}, 2).terms == {(1, 1): 1}

    def test_monomial_count_without_descents(self):
        # weakly increasing sequences are multisets: stars and bars
        for n in range(1, 6):
            for m in range(1, 5):
                poly = fundamental_qsym(n, set(), m)
                assert sum(poly.terms.values()) == math.comb(n + m - 1, n)

    def test_full_descents_give_elementary_monomials(self):
        poly = fundamental_qsym(3, {1, 2}, 4)
        assert all(set(exp) <= {0, 1} for exp in poly.terms)
        assert sum(poly.terms.values()) == math.comb(4, 3)

    def test_bad_descents_rejected(self):
        with pytest.raises(ValueError):
            fundamental_qsym(3, {3}, 2)


class TestRibbonSchur:
    def test_single_part_is_complete_homogeneous(self):
        for n in range(1, 6):
            assert ribbon_schur((n,), n) == fundamental_qsym(n, set(), n)

    def test_column_example(self):
        assert ribbon_schur((1, 1), 2).terms == {(1, 1): 1}

    def test_matches_class_sum_for_paper_class(self):
        key = ClassKey(5, 3, True)
        total = ribbon_schur((1, 1, 3), 5) + ribbon_schur((3, 2), 5)
        assert class_qsym_sum(key, 5) == total

    def test_symmetric(self):
        for parts in [(2, 1), (1, 2), (3,), (1, 1, 1)]:
            assert is_symmetric(ribbon_schur(parts, 4))


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


class TestNsMap:
    def test_examples(self):
        assert ns_map(tuple(range(1, 6))) == tuple(range(1, 6))
        assert ns_map((1, 3, 2)) == (2, 3, 1)

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
        monkeypatch.setattr(qsym, "expansion_by_v", lambda key: {(key.n,), (1,) * key.n})
        assert not verify.check_composition_partition(max_n=4).passed

    @settings(max_examples=40, deadline=None)
    @given(st.integers(9, 14).flatmap(lambda n: st.sampled_from(all_class_keys(n))))
    def test_agrees_with_shape_members(self, key):
        assert ribbon_expansion(key).compositions == qsym.expansion_by_lambda(key) == qsym.expansion_by_v(key)

    def test_empty_sum_prints_zero(self):
        assert str(RibbonSum(4, frozenset())) == "0"


class TestClassSums:
    def test_inversion_free_class_is_complete_homogeneous(self):
        key = ClassKey(5, 0, True)
        assert class_qsym_sum(key, 3) == fundamental_qsym(5, set(), 3)

    def test_n4_minus_class(self):
        key = ClassKey(4, 3, False)
        total = TruncatedPolynomial.zero(4, 4)
        for parts in ribbon_expansion(key).compositions:
            total = total + ribbon_schur(parts, 4)
        assert class_qsym_sum(key, 4) == total

    def test_full_theorem_small(self):
        for n in range(2, 6):
            for key in all_class_keys(n):
                expansion = ribbon_expansion(key)
                class_sum = class_qsym_sum(key, n)
                assert class_sum == expansion.evaluate(n)
                assert is_symmetric(class_sum)

    def test_symmetry_detector(self):
        assert is_symmetric(fundamental_qsym(4, set(), 3))
        assert not is_symmetric(TruncatedPolynomial(2, 3, {(2, 1): 1}))

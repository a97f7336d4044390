import itertools

import pytest

from forgottenmonoid.perms import inversion_number, standardize
from forgottenmonoid.words import (
    NCPolynomial,
    commute_check,
    descent_endpoints,
    elementary_e,
    general_moves,
    orientation_counterexamples,
    reduce_poly,
    word_closure,
    word_normal_form,
)

# The paper's rewrites on permutations, 132 <-> 213 and 231 <-> 312, on
# standardized windows: an oracle that does not use the words rule table.
PERMUTATION_REWRITES = {(1, 3, 2): (2, 1, 3), (2, 1, 3): (1, 3, 2), (2, 3, 1): (3, 1, 2), (3, 1, 2): (2, 3, 1)}


def permutation_moves(p):
    moves = set()
    for i in range(len(p) - 2):
        window = p[i:i + 3]
        image = PERMUTATION_REWRITES.get(standardize(window))
        if image is not None:
            low = sorted(window)
            moves.add(p[:i] + tuple(low[r - 1] for r in image) + p[i + 3:])
    return moves


class TestGeneralMoves:
    def test_examples(self):
        assert general_moves((1, 1, 1)) == set()
        assert general_moves((1, 2, 1)) == {(2, 1, 1)}
        assert general_moves((1, 3, 2)) == {(2, 1, 3)}

    def test_moves_are_symmetric(self):
        for w in itertools.product(range(1, 4), repeat=4):
            for u in general_moves(w):
                assert w in general_moves(u)

    def test_restriction_to_permutations(self):
        for n in range(1, 8):
            for p in itertools.permutations(range(1, n + 1)):
                assert general_moves(p) == permutation_moves(p)


class TestClosure:
    def test_increasing_word_is_alone(self):
        assert word_closure((1, 2, 3)) == {(1, 2, 3)}

    def test_examples(self):
        assert word_closure((1, 2, 1)) == {(1, 2, 1), (2, 1, 1)}
        assert word_normal_form((1, 2, 1)) == (1, 2, 1)
        assert word_closure((2, 1, 2)) == {(2, 1, 2), (2, 2, 1)}
        assert word_normal_form((2, 1, 2)) == (2, 1, 2)

    def test_normal_form_is_class_invariant(self):
        for w in itertools.product(range(1, 4), repeat=5):
            normal = word_normal_form(w)
            closure = word_closure(w)
            assert normal in closure
            assert all(word_normal_form(u) == normal for u in closure)

    def test_moves_preserve_multiset(self):
        for w in itertools.product(range(1, 4), repeat=5):
            for u in general_moves(w):
                assert sorted(u) == sorted(w)


class TestNCPolynomial:
    def test_zero_and_unit(self):
        zero = NCPolynomial.zero(2)
        assert zero.is_zero()
        unit = NCPolynomial.monomial(2, ())
        p = elementary_e(1, 2)
        assert unit * p == p == p * unit

    def test_zero_coefficients_pruned(self):
        p = NCPolynomial(2, {(1,): 1}) - NCPolynomial(2, {(1,): 1})
        assert p.is_zero() and p.terms == {}

    def test_alphabet_checks(self):
        with pytest.raises(ValueError):
            NCPolynomial(2, {(3,): 1})
        with pytest.raises(ValueError):
            elementary_e(1, 2) + elementary_e(1, 3)

    def test_product_expansion(self):
        e1 = elementary_e(1, 2)
        assert (e1 * e1).terms == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}

    def test_commutator_terms(self):
        e1, e2 = elementary_e(1, 2), elementary_e(2, 2)
        diff = e1 * e2 - e2 * e1
        assert diff.terms == {(1, 2, 1): 1, (2, 2, 1): 1, (2, 1, 1): -1, (2, 1, 2): -1}

    def test_text_form(self):
        e1, e2 = elementary_e(1, 2), elementary_e(2, 2)
        assert str(e1 * e2 - e2 * e1) == "+1*(1,2,1) -1*(2,1,1) -1*(2,1,2) +1*(2,2,1)"
        assert str(NCPolynomial.zero(3)) == "0"


class TestElementary:
    def test_examples(self):
        assert elementary_e(1, 2).terms == {(1,): 1, (2,): 1}
        assert elementary_e(2, 2).terms == {(2, 1): 1}
        assert elementary_e(2, 3).terms == {(2, 1): 1, (3, 1): 1, (3, 2): 1}

    def test_degenerate_degrees(self):
        assert elementary_e(0, 3).terms == {(): 1}
        assert elementary_e(4, 3).is_zero()
        with pytest.raises(ValueError):
            elementary_e(-1, 3)

    def test_term_counts(self):
        import math

        for q in range(1, 6):
            for k in range(q + 1):
                assert len(elementary_e(k, q).terms) == math.comb(q, k)


class TestReduction:
    def test_zero(self):
        assert reduce_poly(NCPolynomial.zero(2)).is_zero()

    def test_two_letter_commutator_reduces_to_zero(self):
        e1, e2 = elementary_e(1, 2), elementary_e(2, 2)
        assert reduce_poly(e1 * e2 - e2 * e1).is_zero()

    def test_three_letter_commutator_reduces_to_zero(self):
        e1, e2 = elementary_e(1, 3), elementary_e(2, 3)
        assert reduce_poly(e1 * e2 - e2 * e1).is_zero()

    def test_idempotent_and_linear(self):
        p = elementary_e(1, 3) * elementary_e(2, 3)
        q = elementary_e(2, 3) * elementary_e(1, 3)
        assert reduce_poly(reduce_poly(p)) == reduce_poly(p)
        assert reduce_poly(p - q) == reduce_poly(p) - reduce_poly(q)

    def test_commute_check_examples(self):
        assert commute_check(1, 2, 2)
        assert commute_check(1, 2, 3)
        assert commute_check(2, 3, 4)
        with pytest.raises(ValueError):
            commute_check(0, 2, 3)


class TestOrientation:
    def test_descending_endpoints_stay_in_class(self):
        # a descending stall need not be the class minimum: from 12123 no
        # move decreases, yet the class minimum is 11232
        for w in itertools.product(range(1, 4), repeat=5):
            closure = word_closure(w)
            endpoints = descent_endpoints(w)
            assert endpoints
            assert endpoints <= closure
        assert descent_endpoints((1, 2, 1, 2, 3)) == {(1, 2, 1, 2, 3)}
        assert word_normal_form((1, 2, 1, 2, 3)) == (1, 1, 2, 3, 2)

    def test_descending_rewrites_are_not_confluent(self):
        found = orientation_counterexamples(4, 3, limit=1)
        assert found == [((2, 2, 1, 3), ((1, 2, 3, 2), (2, 1, 2, 3)))]
        # only one stall point is the true class minimum
        word, endpoints = found[0]
        assert word_normal_form(word) in endpoints
        assert any(e != word_normal_form(word) for e in endpoints)

    def test_two_letter_alphabet_has_no_short_counterexamples(self):
        assert orientation_counterexamples(4, 2) == []

import itertools
import math
from collections import Counter, deque
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from forgottenmonoid import verify, words
from forgottenmonoid.cli import main
from forgottenmonoid.perms import inversion_number, standardize
from forgottenmonoid.words import (
    commute_check,
    general_moves,
    orientation_counterexamples,
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


def bfs_closure(w):
    """The class of w by plain breadth-first search over general_moves."""
    seen = {tuple(w)}
    queue = deque(seen)
    while queue:
        for u in general_moves(queue.popleft()):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def assert_closures_match_bfs(ws):
    """word_closure(w) equals the BFS class of w, one BFS per class."""
    classes = {}
    for w in ws:
        if w not in classes:
            members = frozenset(bfs_closure(w))
            classes.update(dict.fromkeys(members, members))
        assert word_closure(w) == classes[w], w


class TestCodedClosure:
    """word_closure searches rank-coded words; plain BFS is the oracle."""

    def test_all_short_words_match_bfs(self):
        assert_closures_match_bfs(
            w for length in range(7) for w in itertools.product(range(1, 5), repeat=length)
        )

    def test_all_small_permutations_match_bfs(self):
        assert_closures_match_bfs(p for n in range(8) for p in itertools.permutations(range(1, n + 1)))

    def test_masks_rewrite_each_window_to_its_image(self):
        masks = words._window_masks(bytes(range(1, 7)))
        windows = list(itertools.product(range(1, 7), repeat=3))
        for window in windows:
            code = int.from_bytes(bytes(window), "big")
            image = words._rewrite_window(*window)
            if image is None:
                assert code not in masks, window
            else:
                assert (code ^ masks[code]).to_bytes(3, "big") == bytes(image), window
        assert len(masks) == sum(words._rewrite_window(*window) is not None for window in windows)

    def test_rank_rules_rewrite_each_window_to_its_image(self):
        rules = words._rank_rules(16)
        assert len(rules) == 0x111 * 16
        for window in itertools.product(range(16), repeat=3):
            code = window[0] << 8 | window[1] << 4 | window[2]
            image = words._rewrite_window(*window)
            expected = 0 if image is None else code ^ (image[0] << 8 | image[1] << 4 | image[2])
            assert rules[code] == expected, window

    def test_verify_partition_matches_bfs(self):
        ws = [w for length in range(1, 5) for w in itertools.product(range(1, 4), repeat=length)]
        classes = verify.closure_partition(4, 3)
        assert classes == tuple(dict.fromkeys(frozenset(bfs_closure(w)) for w in ws))

    def test_extreme_letters_round_trip(self):
        assert word_closure((0, 255, 0)) == {(0, 255, 0), (255, 0, 0)}
        assert_closures_match_bfs(itertools.product((0, 1, 254, 255), repeat=5))

    def test_gapped_and_high_letters_match_bfs(self):
        assert_closures_match_bfs(itertools.product((3, 90, 200, 255), repeat=6))
        assert_closures_match_bfs(itertools.permutations((3, 17, 90, 128, 200, 255)))

    def test_near_increasing_sixteen_letter_words_match_bfs(self):
        # 16 distinct letters, every rank digit 0..f used; one transposition of
        # letters at most two apart (classes of 15 and 664 members)
        increasing = tuple(range(5, 245, 15))
        assert len(increasing) == 16
        ws = [increasing]
        for i, j in itertools.combinations(range(16), 2):
            w = list(increasing)
            w[i], w[j] = w[j], w[i]
            if j - i <= 2:
                ws.append(tuple(w))
        assert_closures_match_bfs(ws)

    def test_seventeen_distinct_letters_are_rejected(self):
        assert len(word_closure(tuple(range(1, 17)))) == 1
        with pytest.raises(ValueError, match="at most 16 distinct ones, got 17"):
            word_closure(tuple(range(1, 18)))

    @pytest.mark.parametrize("w", [(256,), (1, 256, 2), (-1,), (2, -1, 3)])
    def test_letters_outside_a_byte_are_rejected(self, w):
        with pytest.raises(ValueError):
            word_closure(w)


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


def elementary(k, q):
    """e_k over 1..q, as its strictly decreasing words of length k."""
    return [tuple(reversed(combo)) for combo in itertools.combinations(range(1, q + 1), k)]


def product(first, second):
    return Counter(u + v for u in first for v in second)


def brute_commutes(i, j, q, closure=word_closure):
    """commute_check from the full products, each word reduced by an uncached closure."""
    def reduced(a, b):
        return Counter(min(closure(w)) for w in product(elementary(a, q), elementary(b, q)).elements())
    return reduced(i, j) == reduced(j, i)


def singleton(code, n, rules):
    """A class search with no rules: every class is its one word."""
    return {code}


def unreachable(code, n, rules):
    raise AssertionError(f"class of {code:0{n}x} requested")


class TestCommuteProducts:
    """e_i e_j and e_j e_i as the 0-1 word sums that commute_check compares."""

    def test_zero_and_unit(self, monkeypatch):
        # e_k = 0 for k > q, and 0 commutes with everything
        monkeypatch.setattr(words, "_class_codes", singleton)
        assert commute_check(4, 1, 3) and commute_check(1, 4, 3)

    def test_zero_coefficients_pruned(self, monkeypatch):
        # words both products share cancel before any class is searched
        monkeypatch.setattr(words, "_class_codes", unreachable)
        for q in range(1, 5):
            for i in range(1, 4):
                assert commute_check(i, i, q)

    def test_alphabet_checks(self):
        for q in (0, -1):
            with pytest.raises(ValueError):
                commute_check(1, 2, q)
        # letters are coded as bytes; refused even where no class is searched
        with pytest.raises(ValueError, match="at most 255 of them, got 256"):
            commute_check(1, 1, 256)

    def test_product_expansion(self):
        e1 = elementary(1, 2)
        assert product(e1, e1) == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}
        # each word of e_i e_j splits one way only: every coefficient is 1
        for q in range(1, 6):
            for i in range(1, q + 1):
                for j in range(1, q + 1):
                    assert set(product(elementary(i, q), elementary(j, q)).values()) == {1}

    def test_commutator_terms(self):
        e1, e2 = elementary(1, 2), elementary(2, 2)
        ij, ji = set(product(e1, e2)), set(product(e2, e1))
        assert ij - ji == {(1, 2, 1), (2, 2, 1)}
        assert ji - ij == {(2, 1, 1), (2, 1, 2)}
        assert sorted(map(word_normal_form, ij - ji)) == sorted(map(word_normal_form, ji - ij)) == [(1, 2, 1), (2, 1, 2)]

    def test_text_form(self, capsys, monkeypatch):
        assert main(["commute", "1", "2", "--alphabet", "2"]) == 0
        assert capsys.readouterr().out == "e_1 e_2 = e_2 e_1 over 1..2\n"
        monkeypatch.setattr(words, "_class_codes", singleton)
        assert main(["commute", "1", "2", "--alphabet", "2"]) == 0
        assert capsys.readouterr().out == "e_1 e_2 != e_2 e_1 over 1..2\n"


class TestElementary:
    """The brute force's own e_k."""

    def test_examples(self):
        assert elementary(1, 2) == [(1,), (2,)]
        assert elementary(2, 2) == [(2, 1)]
        assert elementary(2, 3) == [(2, 1), (3, 1), (3, 2)]

    def test_degenerate_degrees(self):
        assert elementary(0, 3) == [()]
        assert elementary(4, 3) == []
        for i, j in [(0, 2), (2, 0), (-1, 2)]:
            with pytest.raises(ValueError):
                commute_check(i, j, 3)

    def test_term_counts(self):
        for q in range(1, 6):
            for k in range(q + 1):
                assert len(elementary(k, q)) == math.comb(q, k)


class TestReduction:
    def test_zero(self, monkeypatch):
        # both products are 0, so nothing is reduced
        monkeypatch.setattr(words, "_class_codes", unreachable)
        assert commute_check(4, 5, 3)

    def test_two_letter_commutator_reduces_to_zero(self):
        assert commute_check(1, 2, 2)
        assert brute_commutes(1, 2, 2)

    def test_three_letter_commutator_reduces_to_zero(self):
        assert commute_check(1, 2, 3)
        assert brute_commutes(1, 2, 3)

    def test_idempotent_and_linear(self):
        for w in product(elementary(1, 3), elementary(2, 3)) + product(elementary(2, 3), elementary(1, 3)):
            assert word_normal_form(word_normal_form(w)) == word_normal_form(w)
        for q in range(1, 5):
            for i in range(1, 4):
                for j in range(1, 4):
                    assert commute_check(i, j, q) == commute_check(j, i, q)

    def test_commute_check_examples(self):
        assert commute_check(1, 2, 2)
        assert commute_check(1, 2, 3)
        assert commute_check(2, 3, 4)
        with pytest.raises(ValueError):
            commute_check(0, 2, 3)

    def test_identity_normal_form_does_not_commute(self, monkeypatch):
        # without the quotient e_1 e_2 != e_2 e_1, so the check is not vacuous
        monkeypatch.setattr(words, "_class_codes", singleton)
        assert not commute_check(1, 2, 2)
        e1, e2 = elementary(1, 2), elementary(2, 2)
        assert product(e1, e2) != product(e2, e1)

    def test_matches_brute_force_in_either_order_and_keeps_no_state(self):
        cases = [(i, j, q) for q in range(1, 5) for i in range(1, 6) for j in range(1, 7 - i)]
        expected = {case: brute_commutes(*case) for case in cases}
        words._normal_form_cache.clear()
        for case in cases + cases[::-1]:
            assert commute_check(*case) == expected[case], case
        assert not words._normal_form_cache

    @pytest.mark.parametrize("distinct", [True, False])
    def test_matches_brute_force_on_half_the_rules(self, monkeypatch, distinct):
        # only the distinct-letter rules, or only the repeated-letter ones:
        # classes split and some products do not commute, so each search that
        # stops early must still sum its own class alone
        rewrite = words._rewrite_window
        monkeypatch.setattr(words, "_rewrite_window",
                            lambda x, y, z: rewrite(x, y, z) if (len({x, y, z}) == 3) == distinct else None)
        cases = [(i, j, q) for q in range(1, 5) for i in range(1, 5) for j in range(1, 6 - i)]
        found = {case: commute_check(*case) for case in cases}
        assert found == {case: brute_commutes(*case, closure=bfs_closure) for case in cases}
        assert not all(found.values())

    @pytest.mark.parametrize("q", [17, 30])
    def test_matches_brute_force_beyond_sixteen_letters(self, q):
        # each word has at most i + j distinct letters, however large q is
        for i, j in [(1, 1), (1, 2), (2, 1)]:
            assert commute_check(i, j, q) == brute_commutes(i, j, q), (i, j, q)


def descent_endpoints(w):
    """Every word reachable from w by lexicographically decreasing rewrites
    that admits none, by a search from w alone: the oracle for the
    confluence scan, which reads them off the words scanned before w."""
    endpoints = set()
    seen = set()
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


def searched_counterexamples(max_len, q):
    """orientation_counterexamples by a search per word."""
    found = []
    for length in range(3, max_len + 1):
        for w in itertools.product(range(1, q + 1), repeat=length):
            endpoints = descent_endpoints(w)
            if len(endpoints) > 1:
                found.append((w, tuple(sorted(endpoints))))
    return found


@lru_cache(maxsize=None)
def listed_up_to_length_8():
    """The scan over 1..4 to length 8, built once, by word."""
    return dict(orientation_counterexamples(8, 4))


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

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_scan_matches_per_word_search(self, q):
        expected = searched_counterexamples(6, q)
        for max_len in range(3, 7):
            full = orientation_counterexamples(max_len, q)
            assert full == [c for c in expected if len(c[0]) <= max_len]
            # every limit up to 250, then every 50th, and one past the end
            limits = {*range(1, min(len(full), 250) + 1), *range(250, len(full), 50), len(full) + 1}
            for limit in limits:
                assert orientation_counterexamples(max_len, q, limit=limit) == full[:limit]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda q: st.lists(st.integers(1, q), min_size=7, max_size=8)).map(tuple))
    def test_long_words_listed_with_searched_stalls(self, w):
        # descending moves keep a word's letters, so the scan over 1..4 covers every q <= 4
        endpoints = descent_endpoints(w)
        expected = tuple(sorted(endpoints)) if len(endpoints) > 1 else None
        assert listed_up_to_length_8().get(w) == expected

    @pytest.mark.parametrize("max_len", [2, 0, -4])
    def test_rejects_lengths_below_3(self, max_len):
        # no word shorter than 3 has a move, so such a scan would check nothing
        with pytest.raises(ValueError, match="max_len"):
            orientation_counterexamples(max_len, 3)

    def test_rejects_alphabets_beyond_a_byte(self):
        with pytest.raises(ValueError, match="255"):
            orientation_counterexamples(3, 256, limit=1)

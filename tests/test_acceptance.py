"""
Acceptance suite: every exit criterion is run at its stated (exact) bound and
reported on one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.
"""

import time

from forgottenmonoid import verify


def _report(number: int, title: str, results, elapsed: float | None = None, budget: float | None = None) -> None:
    ok = all(r.passed for r in results)
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.1f}s"
        if budget is not None:
            ok = ok and elapsed < budget
            timing += f" of {budget:.0f}s allowed"
        timing += "]"
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:>2}] {status} {title}{timing}")
    for r in results:
        assert r.passed, r.line()
    if budget is not None:
        assert elapsed is not None and elapsed < budget, f"criterion {number} overran: {elapsed:.1f}s"


def test_criterion_01_class_counts_by_bfs():
    verify.closure_partition.cache_clear()
    started = time.monotonic()
    result = verify.check_class_count(max_n=8)
    elapsed = time.monotonic() - started
    _report(1, "BFS finds n^2-3n+4 classes for n=2..8", [result], elapsed, budget=60.0)


def test_criterion_02_characterization():
    results = [verify.check_key_matches_closure(max_n=7)]
    _report(2, "key equivalence matches closure membership on all of S_n, n<=7", results)


def test_criterion_03_tables_reproduced():
    results = [verify.check_small_tables()]
    _report(3, "class tables for n=2,3,4 and the 15-element class at n=5", results)


def test_criterion_04_canonical_elements():
    results = [
        verify.check_lex_lists(),
        verify.check_lex_count(max_n=12),
        verify.check_lex_bruteforce(max_n=7),
        verify.check_canonical_lexmin(max_n=7),
    ]
    _report(4, "canonical lists verbatim (n<=5), counts (n<=12), lex minima (n<=7)", results)


def test_criterion_05_corollaries():
    results = [
        verify.check_inverse_on_lex(max_n=8),
        verify.check_schuetzenberger_key(max_n=9),
        verify.check_schuetzenberger_membership(max_n=6),
    ]
    _report(5, "inverse and involution corollaries (n<=8 / n<=9 / n<=6)", results)


def test_criterion_06_compact_form_formulas():
    results = [
        verify.check_form_formulas(max_n=12),
        verify.check_section5_examples(),
    ]
    _report(6, "inversion formulas round-trip (n<=12) and the n=7 worked examples", results)


def test_criterion_07_insertion():
    results = [
        verify.check_insertion_table(),
        verify.check_insertion_exhaustive(max_n=8),
    ]
    _report(7, "insertion table for 136542 and standardization consistency (n<=8)", results)


def test_criterion_08_commutation():
    started = time.monotonic()
    result = verify.check_commutation()
    elapsed = time.monotonic() - started
    _report(8, "e_i e_j = e_j e_i in the quotient (i,j<=3, q=2,3,4)", [result], elapsed, budget=300.0)


def test_criterion_09_ribbon_theorem():
    started = time.monotonic()
    results = [
        verify.check_sign_pairing(),
        verify.check_ribbon_theorem(max_n=8),
        verify.check_s8_expansions(),
    ]
    elapsed = time.monotonic() - started
    _report(9, "class sums equal ribbon sums, symmetric, methods agree (n<=8)", results, elapsed, budget=600.0)


def test_criterion_10_foata_and_ns():
    results = [
        verify.check_foata_core(max_n=7),
        verify.check_ns_properties(max_n=7),
        verify.check_ns_image(max_n=7),
    ]
    _report(10, "Foata and NS properties, exhaustively for n<=7", results)


def test_criterion_11_reversal_closure():
    results = [
        verify.check_reversal_closure_classes(max_n=7),
        verify.check_reversal_closure_words(max_n=6),
    ]
    _report(11, "descent multisets reversal-closed (classes n<=7, words len<=6 q<=4)", results)

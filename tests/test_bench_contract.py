"""The package names that perfbench/ drives from outside.

The benchmark clears and reports the module caches, calls the root exports
below as entry points, and runs every check of the `all` suite.  Renaming
any of them would crash the benchmark, so the rename fails here first.
"""

import inspect

import forgottenmonoid
from forgottenmonoid import cli, qsym, verify, words

ENTRY_POINTS = (
    "canonical_of", "canonical_of_key", "equivalent", "foata", "ns_map",
    "next_lambda_down", "insert",
)


def test_function_caches_expose_clear_and_info():
    for cache in (qsym._fundamental, qsym._ribbons_by_recoil, verify.closure_partition):
        cache.cache_clear()
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_normal_form_cache_is_a_clearable_sized_mapping():
    words._normal_form_cache.clear()
    assert len(words._normal_form_cache) == 0


def test_root_exports_the_entry_points():
    for name in ENTRY_POINTS + ("ClassKey",):
        assert callable(getattr(forgottenmonoid, name)), name
    assert callable(cli.main)


def test_all_suite_holds_35_named_checks():
    checks = verify.SUITES["all"]
    assert len(checks) == 35
    assert len({check.__name__ for check in checks}) == 35
    assert all(check.__name__.startswith("check_") for check in checks)


# The suites and their order as the benchmark's per-check metrics name them.
SUITE_CHECKS = {
    "classes": [
        "check_move_soundness", "check_key_matches_closure", "check_class_count",
        "check_small_tables", "check_partition_totals", "check_boundary_elements",
        "check_inverse_on_lex", "check_schuetzenberger_key",
        "check_schuetzenberger_membership", "check_coforgotten",
        "check_reversal_closure_classes",
    ],
    "canonical": [
        "check_lex_lists", "check_lex_count", "check_lex_bruteforce",
        "check_canonical_lexmin", "check_form_formulas", "check_section5_examples",
        "check_lambda_chain", "check_lambda_members_examples",
        "check_lambda_v_membership",
    ],
    "insertion": ["check_insertion_table", "check_insertion_exhaustive"],
    "commutation": [
        "check_word_move_soundness", "check_restriction_consistency",
        "check_normal_form_invariance", "check_commutation",
        "check_reversal_closure_words",
    ],
    "ribbon": [
        "check_sign_pairing", "check_ribbon_theorem", "check_s8_expansions",
        "check_multiplicity_freeness", "check_composition_partition",
    ],
    "foata": ["check_foata_core", "check_ns_properties", "check_ns_image"],
}


def test_suites_hold_the_pinned_checks_in_order():
    assert set(verify.SUITES) == set(SUITE_CHECKS) | {"all"}
    for suite, names in SUITE_CHECKS.items():
        assert [check.__name__ for check in verify.SUITES[suite]] == names, suite
    assert [check.__name__ for check in verify.SUITES["all"]] == [
        name for names in SUITE_CHECKS.values() for name in names
    ]


def test_registered_checks_are_plain_module_functions():
    # perfbench/spans.py wraps only functions defined in the module itself
    for check in verify.SUITES["all"]:
        assert inspect.isfunction(check), check
        assert check.__module__ == "forgottenmonoid.verify"
        assert getattr(verify, check.__name__) is check
        assert list(inspect.signature(check).parameters) == ["max_n", "force"]


def test_max_n_is_clamped_to_the_default_bound_unless_forced():
    assert "(n <= 12)" in verify.check_form_formulas(max_n=14).detail
    assert "(n <= 14)" in verify.check_form_formulas(max_n=14, force=True).detail
    assert "(n <= 5)" in verify.check_form_formulas(max_n=5).detail

"""The package names that perfbench/ drives from outside.

The benchmark clears and reports the module caches, calls the root exports
below as entry points, and runs every check of the `all` suite.  Renaming
any of them would crash the benchmark, so the rename fails here first.
"""

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

from forgottenmonoid import verify, words


def test_swept_checks_pass_at_their_default_bounds():
    # no acceptance test runs these three at their default bounds
    for run in (verify.check_move_soundness, verify.check_partition_totals, verify.check_lambda_v_membership):
        result = run()
        assert result.passed, result.line()
        assert result.detail.rstrip(")").endswith("n <= 8"), result.detail


def test_commutation_suite_closes_each_word_class_twice(monkeypatch):
    # once for the shared partition, once for the first normal form of the
    # class; the reversal check reads the cached partition and closes nothing
    closures = []
    close = words._closure  # the search under word_closure and closure_partition

    def counting(start, rules):
        closures.append(start)
        return close(start, rules)

    monkeypatch.setattr(words, "_closure", counting)
    verify.closure_partition.cache_clear()
    words._normal_form_cache.clear()
    calls = {}
    for run in verify.SUITES["commutation"]:
        before = len(closures)
        assert run().passed
        calls[run.__name__] = len(closures) - before
    assert sum(calls.values()) == 1350
    assert calls["check_normal_form_invariance"] == 1350
    assert calls["check_reversal_closure_words"] == 0


def test_closure_partition_builds_one_rule_table_per_space(monkeypatch):
    tables = []
    build = words._rank_rules
    monkeypatch.setattr(words, "_rank_rules", lambda k: tables.append(k) or build(k))
    verify.closure_partition.cache_clear()
    try:
        assert sum(map(len, verify.closure_partition(6))) == 720
        assert sum(map(len, verify.closure_partition(5, 2))) == 2 + 4 + 8 + 16 + 32
    finally:
        verify.closure_partition.cache_clear()
    assert tables == [6, 2]


def test_schuetzenberger_membership_fails_on_an_image_outside_the_class(monkeypatch):
    # 2143 lies in the class {1342, 1423, 2143, 2314, 3124}; the identity does not
    image = verify.schuetzenberger

    def moved(p):
        return (1, 2, 3, 4) if p == (2, 1, 4, 3) else image(p)

    monkeypatch.setattr(verify, "schuetzenberger", moved)
    result = verify.check_schuetzenberger_membership()
    assert not result.passed
    assert result.detail == "involution left the closure at n=4"
    assert result.counterexample == repr((1, 3, 4, 2))

from forgottenmonoid import verify


def test_swept_checks_pass_at_their_default_bounds():
    # no acceptance test runs these three at their default bounds
    for run in (verify.check_move_soundness, verify.check_partition_totals, verify.check_lambda_v_membership):
        result = run()
        assert result.passed, result.line()
        assert result.detail.rstrip(")").endswith("n <= 8"), result.detail

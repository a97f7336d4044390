import dataclasses
import json
import math
import random
import re
import time

from collections import Counter

import pytest

from forgottenmonoid import cli, forgotten, qsym, verify
from forgottenmonoid.cli import (
    CANONICAL_CAP, CONFLUENCE_LIMIT, CONFLUENCE_SCAN_CAP, ITEM_CAP, LISTING_CAP, SHAPE_CAP, main,
)
from forgottenmonoid.perms import descent_set, format_permutation
from forgottenmonoid.words import word_closure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_classes_n3(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "3")
        assert code == 0
        assert out.splitlines() == [
            "3,0,1n  canonical=1,2,3  size=1",
            "3,1,1n  canonical=1,3,2  size=2",
            "3,2,n1  canonical=2,3,1  size=2",
            "3,3,n1  canonical=3,2,1  size=1",
        ]

    def test_classes_n2(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "2")
        assert code == 0
        assert out.splitlines() == [
            "2,0,1n  canonical=1,2  size=1",
            "2,1,n1  canonical=2,1  size=1",
        ]

    def test_classes_n4_has_eight_records(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "4", "--json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["classes"]) == 8
        sizes = [record["size"] for record in payload["classes"]]
        assert sum(sizes) == 24

    def test_classes_large_n_has_sizes(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "12", "--json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["classes"]) == 112
        assert sum(record["size"] for record in payload["classes"]) == math.factorial(12)

    def test_class_of(self, capsys):
        code, out, _ = run(capsys, "class-of", "12543")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key: 5,3,1n"
        assert lines[1] == "canonical: 1,2,5,4,3"
        assert lines[2] == "size: 15"

    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "canonical", "--key", "8,10,n1")
        assert code == 0
        assert out.splitlines()[0] == "canonical: 2,3,4,5,8,7,6,1"

    def test_insert(self, capsys):
        code, out, _ = run(capsys, "insert", "136542", "0")
        assert code == 0
        assert out.splitlines()[0] == "result: 2,4,7,6,5,3,1"

    @pytest.mark.parametrize("argv, expected", [
        (("insert", "136542", "0"), (0, "result: 2,4,7,6,5,3,1\nform: tau(2,4;n=7)\n", "")),
        (("insert", "136542", "0", "--json"), (0, '{"result": [2, 4, 7, 6, 5, 3, 1], "form": "tau(2,4;n=7)"}\n', "")),
        (("insert", "1", "1"), (0, "result: 1,2\nform: sigma(1,2;n=2)\n", "")),
        (("insert", "2,3,1", "3", "--json"), (0, '{"result": [1, 3, 4, 2], "form": "sigma(1,3;n=4)"}\n', "")),
        (("insert", "13452", "0"), (3, "", "domain error: (1, 3, 4, 5, 2) is not a canonical word\n")),
        (("insert", "13452", "0", "--json"), (3, "", "domain error: (1, 3, 4, 5, 2) is not a canonical word\n")),
        (("insert", "1,2", "9"), (3, "", "domain error: inserted letter 9 outside 0..2\n")),
        (("insert", "1,2", " +0", "--json"), (2, "", (
            "usage: forgot insert [-h] [--json] [--force] word letter\n"
            "forgot insert: error: argument letter: invalid integer value: ' +0'\n"
        ))),
    ])
    def test_insert_output_is_exact(self, capsys, argv, expected):
        assert run(capsys, *argv) == expected

    def test_ribbons_by_key(self, capsys):
        code, out, _ = run(capsys, "ribbons", "--key", "8,10,n1")
        assert code == 0
        assert out.strip() == "r[1,1,5,1] + r[3,4,1]"

    def test_ribbons_empty_sum_prints_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(qsym, "ribbon_expansion", lambda key: frozenset())
        assert run(capsys, "ribbons", "--key", "4,2,1n") == (0, "0\n", "")

    def test_ribbons_by_perm(self, capsys):
        code, out, _ = run(capsys, "ribbons", "--perm", "12543")
        assert code == 0
        assert out.strip() == "r[1,1,3] + r[3,2]"

    def test_ribbons_with_vars_matches_class_sum(self, capsys):
        # the sum of F_D over the BFS class of 12543, by _fundamental
        total = Counter()
        for member in word_closure((1, 2, 5, 4, 3)):
            total.update(qsym._fundamental(5, frozenset(descent_set(member)), 5))
        code, out, _ = run(capsys, "ribbons", "--key", "5,3,1n", "--vars", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vars"] == 5
        assert payload["sum"] == {"m": 5, "degree": 5, "terms": [
            {"exp": list(exponents), "coeff": total[exponents]} for exponents in sorted(total)
        ]}

    def test_ribbons_sum_text_and_json(self, capsys):
        code, out, _ = run(capsys, "ribbons", "--key", "3,1,1n", "--vars", "2")
        assert (code, out) == (0, "r[1,2]\nsum[m=2]: +1*x1^2*x2 +1*x1*x2^2\n")
        code, out, _ = run(capsys, "ribbons", "--key", "3,1,1n", "--vars", "2", "--json")
        assert code == 0
        # the zero coefficients at (3, 0) and (0, 3) are left out
        assert json.loads(out)["sum"] == {"m": 2, "degree": 3, "terms": [
            {"exp": [1, 2], "coeff": 1}, {"exp": [2, 1], "coeff": 1},
        ]}

    def test_ribbons_zero_sum_text_and_json(self, capsys):
        code, out, _ = run(capsys, "ribbons", "--key", "3,3,n1", "--vars", "1")
        assert (code, out) == (0, "r[1,1,1]\nsum[m=1]: 0\n")
        code, out, _ = run(capsys, "ribbons", "--key", "3,3,n1", "--vars", "1", "--json")
        assert code == 0
        assert json.loads(out)["sum"] == {"m": 1, "degree": 3, "terms": []}

    def test_ribbons_requires_one_input(self, capsys):
        code, _, err = run(capsys, "ribbons")
        assert code == 3
        assert "exactly one" in err

    def test_phi_and_ns(self, capsys):
        assert run(capsys, "phi", "132")[1].strip() == "3,1,2"
        assert run(capsys, "ns", "132")[1].strip() == "2,3,1"

    def test_commute(self, capsys):
        code, out, _ = run(capsys, "commute", "2", "3", "--alphabet", "4", "--json")
        assert code == 0
        assert json.loads(out)["commutes"] is True

    def test_confluence_text_lists_the_json_counterexamples(self, capsys):
        argv = ("confluence", "--alphabet", "4", "--max-len", "6", "--limit", "100000")
        code, out, _ = run(capsys, *argv)
        found = json.loads(run(capsys, *argv, "--json")[1])["counterexamples"]

        def text(w):
            return "(" + ",".join(map(str, w)) + ")"

        assert code == 0 and len(found) == 1663
        assert out.splitlines() == [
            "1663 counterexample(s) to descending-rewrite confluence (len <= 6, q = 4):",
            *(f"  {text(c['word'])} stalls at {'  '.join(map(text, c['endpoints']))}" for c in found),
        ]

    def test_verify_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "insertion", "--max-n", "5")
        assert code == 0
        assert "2/2 checks passed" in out
        assert out.count("[PASS]") == 2

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "foata", "--max-n", "4", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert {check["name"] for check in payload["checks"]} == {
            "foata_core", "ns_properties", "ns_image",
        }
        for check in payload["checks"]:
            assert isinstance(check["elapsed"], float) and check["elapsed"] >= 0

    @pytest.mark.parametrize("suite", sorted(set(verify.SUITES) - {"all"}))
    def test_verify_json_records_are_check_results(self, capsys, suite):
        fields = ["name", "passed", "detail", "counterexample", "elapsed"]
        assert [field.name for field in dataclasses.fields(verify.CheckResult)] == fields
        code, out, _ = run(capsys, "verify", suite, "--max-n", "3", "--json")
        assert code == 0
        records = json.loads(out)["checks"]
        assert [list(record) for record in records] == [fields] * len(verify.SUITES[suite])

    def test_verify_reports_a_failing_check(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "SUITES", {})
        verify.check("insertion", name="forced")(lambda: verify._fail("forced failure", (2, 1)))
        verify.SUITES["insertion"].insert(0, verify.check_insertion_table)
        code, out, _ = run(capsys, "verify", "insertion")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("[PASS] insertion_table: ")
        assert re.fullmatch(r"\[FAIL\] forced: forced failure \(\d+\.\d\ds\) \| counterexample: \(2, 1\)", lines[1])
        assert lines[2:] == ["1/2 checks passed"]
        code, out, _ = run(capsys, "verify", "insertion", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert [record["passed"] for record in payload["checks"]] == [True, False]
        forced = payload["checks"][1]
        assert isinstance(forced.pop("elapsed"), float)
        assert forced == {"name": "forced", "passed": False, "detail": "forced failure", "counterexample": "(2, 1)"}

    @pytest.mark.parametrize("argv", [
        ("classes", "--n", "6"),
        ("canonical", "--key", "8,10,n1", "--json"),
        ("insert", "13452", "0"),
        ("class-of", "1,1,2"),
    ])
    def test_profile_leaves_stdout_and_exit_code(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        profiled_code, profiled_out, profiled_err = run(capsys, "--profile", *argv)
        assert (profiled_code, profiled_out) == (code, out)
        assert profiled_err.startswith(err)
        assert "ncalls" in profiled_err and "cumulative" in profiled_err
        assert "ncalls" not in err

    def test_consecutive_calls_keep_their_own_options(self, capsys):
        # one parser serves every call: a --json call leaves nothing behind
        code, out, _ = run(capsys, "classes", "--n", "3", "--json")
        assert code == 0
        assert len(json.loads(out)["classes"]) == 4
        code, out, _ = run(capsys, "classes", "--n", "3")
        assert code == 0
        assert out.splitlines()[0] == "3,0,1n  canonical=1,2,3  size=1"


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "class-of", "1,1,2")
        assert code == 2
        assert "parse error" in err

    def test_domain_error_is_3(self, capsys):
        code, _, err = run(capsys, "insert", "13452", "0")
        assert code == 3
        assert "domain error" in err

    def test_class_size_cap_is_domain_error(self, capsys):
        code, out, err = run(capsys, "class-of", "2,3,6,10,9,8,7,5,4,1")
        assert (code, out) == (3, "")
        assert err == "domain error: 152378 members beyond the cap 100000 (use --force)\n"

    def test_commute_cap(self, capsys):
        # the cap bounds min(q, i + j), the letters searched: 2 3 at 6 searches 5
        code, out, err = run(capsys, "commute", "3", "3", "--alphabet", "6")
        assert (code, out) == (3, "")
        assert err == "domain error: 6 letters beyond the cap 5 (use --force)\n"

    def test_commute_alphabet_beyond_a_byte(self, capsys):
        code, out, err = run(capsys, "commute", "2", "1", "--alphabet", "256")
        assert (code, out, err) == (0, "e_2 e_1 = e_1 e_2 over 1..256\n", "")

    def test_commute_empty_alphabet(self, capsys):
        code, out, err = run(capsys, "commute", "1", "2", "--alphabet", "0")
        assert (code, out) == (3, "")
        assert err == "domain error: alphabet size must be positive, got 0\n"

    def test_key_out_of_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "canonical", "--key", "5,9,1n")
        assert code == 3

    def test_bad_key_text_is_parse_error(self, capsys):
        code, _, err = run(capsys, "canonical", "--key", "5,3")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("class-of", "\u0661\u0662"),
        ("class-of", "+2,1"),
        ("class-of", " 2 , 1 "),
        ("canonical", "--key", "8,1_0,n1"),
        ("canonical", "--key", "\uff18,10,n1"),
    ])
    def test_non_ascii_decimal_text_is_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error")

    @pytest.mark.parametrize("max_n", ["-3", "2"])
    def test_verify_bound_below_3_is_domain_error(self, capsys, max_n):
        code, out, err = run(capsys, "verify", "all", "--max-n", max_n)
        assert code == 3
        assert out == ""
        assert "domain error" in err

    def test_verify_bound_3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "3")
        assert code == 0
        assert out.splitlines()[-1] == "35/35 checks passed"

    @pytest.mark.parametrize("m", ["-3", "-1"])
    def test_ribbons_negative_vars_is_domain_error(self, capsys, m):
        code, out, err = run(capsys, "ribbons", "--key", "4,3,n1", "--vars", m, "--json")
        assert code == 3
        assert out == ""
        assert "domain error" in err

    def test_ribbons_vars_above_n_needs_force(self, capsys):
        code, out, err = run(capsys, "ribbons", "--key", "4,3,n1", "--vars", "60", "--json")
        assert code == 3
        assert out == "" and "--force" in err
        code, out, _ = run(capsys, "ribbons", "--key", "4,3,n1", "--vars", "5", "--force", "--json")
        assert code == 0
        assert json.loads(out)["vars"] == 5

    @pytest.mark.parametrize("limit", ["0", "-2"])
    def test_confluence_limit_below_1_is_domain_error(self, capsys, limit):
        code, out, err = run(capsys, "confluence", "--limit", limit)
        assert code == 3
        assert out == ""
        assert "domain error" in err

    @pytest.mark.parametrize("max_len", ["2", "0", "-4"])
    def test_confluence_max_len_below_3_is_domain_error(self, capsys, max_len):
        code, out, err = run(capsys, "confluence", "--max-len", max_len)
        assert code == 3
        assert out == ""
        assert "domain error" in err and "max_len" in err

    @pytest.mark.parametrize("argv", [
        ("classes", "--n", "\u0663"),
        ("insert", "1,2", " +0"),
        ("commute", "1", "+2"),
        ("ribbons", "--key", "5,3,1n", "--vars", " 1_0"),
        ("verify", "classes", "--max-n", "\uff14"),
    ])
    def test_integer_option_beyond_ascii_decimal_is_usage_error(self, capsys, argv):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid integer value" in captured.err

    def test_unknown_suite_is_usage_error(self):
        assert main(["verify", "nonsense"]) == 2

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["commute", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: forgot commute")


class TestCaps:
    @pytest.mark.parametrize("key", ["20,95,1n", "20,120,n1"])
    def test_ribbons_at_shape_cap_within_a_second(self, capsys, key):
        started = time.perf_counter()
        code, out, _ = run(capsys, "ribbons", "--key", key, "--json")
        elapsed = time.perf_counter() - started
        assert code == 0
        assert json.loads(out)["key"]["n"] == SHAPE_CAP
        assert elapsed < 1.0

    @pytest.mark.parametrize("key", ["8,10,n1", "9,18,1n"])
    def test_ribbons_with_vars_at_n8_n9_within_a_second(self, capsys, key):
        started = time.perf_counter()
        code, out, _ = run(capsys, "ribbons", "--key", key, "--vars", "--json")
        elapsed = time.perf_counter() - started
        assert code == 0
        payload = json.loads(out)
        assert payload["vars"] == payload["key"]["n"] <= 9
        assert elapsed < 1.0

    @pytest.mark.parametrize("key, m", [("10,20,1n", 10), ("20,95,1n", 6), ("16,60,n1", 7)])
    def test_ribbons_vars_at_term_cap_within_a_second(self, capsys, key, m):
        n = int(key.split(",")[0])
        # the largest M allowed at this n: one more variable is past the cap
        assert math.comb(n + m - 1, m - 1) <= ITEM_CAP < math.comb(n + m, m)
        for fmt in (["--json"], []):
            started = time.perf_counter()
            code, out, _ = run(capsys, "ribbons", "--key", key, "--vars", str(m), *fmt)
            elapsed = time.perf_counter() - started
            assert code == 0
            assert elapsed < 1.0
        assert out.splitlines()[-1].startswith(f"sum[m={m}]: +")

    @pytest.mark.parametrize("key, m", [("17,60,1n", "7"), ("20,95,1n", "7"), ("11,25,1n", "11")])
    def test_ribbons_vars_beyond_term_cap_needs_force(self, capsys, key, m):
        code, out, err = run(capsys, "ribbons", "--key", key, "--vars", m, "--json")
        assert code == 3
        assert out == ""
        assert "terms" in err and "--force" in err

    def test_ribbons_vars_beyond_term_cap_runs_under_force(self, capsys):
        # 100,947 exponent vectors, the fewest past the cap at n <= 20
        code, out, _ = run(capsys, "ribbons", "--key", "17,60,1n", "--vars", "7", "--force", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vars"] == 7
        terms = payload["sum"]["terms"]
        assert ITEM_CAP // 2 < len(terms) <= math.comb(23, 6)
        assert all(len(t["exp"]) == 7 and sum(t["exp"]) == 17 and t["coeff"] > 0 for t in terms)

    def test_ribbons_term_cap_is_exact(self, capsys, monkeypatch):
        terms = math.comb(9 + 9 - 1, 9 - 1)  # the benchmark's 9,18,1n probe
        assert terms <= ITEM_CAP
        monkeypatch.setattr(cli, "ITEM_CAP", terms)
        code, out, _ = run(capsys, "ribbons", "--key", "9,18,1n", "--vars", "--json")
        assert code == 0 and json.loads(out)["vars"] == 9
        monkeypatch.setattr(cli, "ITEM_CAP", terms - 1)
        code, out, err = run(capsys, "ribbons", "--key", "9,18,1n", "--vars", "--json")
        assert code == 3 and out == ""
        assert err == f"domain error: {terms} terms in 9 variables beyond the cap {terms - 1} (use --force)\n"

    @pytest.mark.parametrize("key, form", [
        (f"{CANONICAL_CAP},0,1n", f"sigma({CANONICAL_CAP - 2},{CANONICAL_CAP - 1};n={CANONICAL_CAP})"),
        (f"{CANONICAL_CAP},{math.comb(CANONICAL_CAP, 2)},n1", f"tau(1,{CANONICAL_CAP};n={CANONICAL_CAP})"),
    ])
    def test_canonical_at_cap_within_a_second(self, capsys, key, form):
        for fmt in (["--json"], []):
            started = time.perf_counter()
            code, out, _ = run(capsys, "canonical", "--key", key, *fmt)
            elapsed = time.perf_counter() - started
            assert code == 0
            assert elapsed < 1.0
        assert out.endswith(f"\nform: {form}\n")

    @pytest.mark.parametrize("n", [CANONICAL_CAP + 1, 10 ** 100])
    def test_canonical_beyond_cap_refused_at_once(self, capsys, n):
        started = time.perf_counter()
        code, out, err = run(capsys, "canonical", "--key", f"{n},0,1n")
        elapsed = time.perf_counter() - started
        assert (code, out) == (3, "")
        assert err == f"domain error: n={n} beyond the canonical cap {CANONICAL_CAP} (use --force)\n"
        assert elapsed < 0.5

    def test_canonical_beyond_cap_runs_under_force(self, capsys):
        code, out, _ = run(capsys, "canonical", "--key", f"{CANONICAL_CAP + 1},0,1n", "--force", "--json")
        assert code == 0
        assert len(json.loads(out)["canonical"]) == CANONICAL_CAP + 1

    @pytest.mark.parametrize("command, transform", [("phi", qsym.foata), ("ns", qsym.ns_map)])
    def test_transform_at_cap_runs(self, capsys, monkeypatch, command, transform):
        monkeypatch.setattr(cli, "TRANSFORM_CAP", 5)
        code, out, _ = run(capsys, command, "2,5,1,4,3", "--json")
        assert code == 0
        assert json.loads(out) == {"input": [2, 5, 1, 4, 3], "result": list(transform((2, 5, 1, 4, 3)))}

    @pytest.mark.parametrize("command, transform", [("phi", qsym.foata), ("ns", qsym.ns_map)])
    def test_transform_beyond_cap_needs_force(self, capsys, monkeypatch, command, transform):
        monkeypatch.setattr(cli, "TRANSFORM_CAP", 5)
        expected = transform((2, 5, 1, 4, 6, 3))
        with monkeypatch.context() as patched:
            # refused before the transform runs
            patched.setattr(qsym, "_foata", lambda p: pytest.fail("transform ran past the cap"))
            code, out, err = run(capsys, command, "2,5,1,4,6,3")
        assert (code, out) == (3, "")
        assert err == "domain error: n=6 beyond the transform cap 5 (use --force)\n"
        code, out, _ = run(capsys, command, "2,5,1,4,6,3", "--force")
        assert code == 0 and out == ",".join(map(str, expected)) + "\n"

    def test_class_of_largest_class_at_n9_within_a_second(self, capsys):
        started = time.perf_counter()
        code, out, _ = run(capsys, "class-of", "1,2,3,9,8,7,6,5,4", "--json")
        elapsed = time.perf_counter() - started
        assert code == 0
        payload = json.loads(out)
        assert payload["key"] == {"n": 9, "inv": 15, "oneBeforeN": True}
        assert payload["size"] == len(payload["members"]) == 18126
        assert elapsed < 1.0

    def test_class_of_largest_class_under_item_cap_within_a_second(self, capsys):
        for fmt in (["--json"], []):
            started = time.perf_counter()
            code, out, _ = run(capsys, "class-of", "1,2,6,10,9,8,7,5,4,3", *fmt)
            elapsed = time.perf_counter() - started
            assert code == 0
            assert elapsed < 1.0
        assert out.splitlines()[:3] == ["key: 10,24,1n", "canonical: 1,2,6,10,9,8,7,5,4,3", "size: 97862"]

    @pytest.mark.parametrize("n", [30, LISTING_CAP])
    def test_class_of_near_inversion_bounds_within_a_second(self, capsys, n):
        # n before 1 with the fewest inversions, and its reverse, 1 before n
        # with the most: n - 1 members each
        for p, key in [
            ([n, *range(1, n)], {"n": n, "inv": n - 1, "oneBeforeN": False}),
            ([*range(n - 1, 0, -1), n], {"n": n, "inv": math.comb(n - 1, 2), "oneBeforeN": True}),
        ]:
            started = time.perf_counter()
            code, out, _ = run(capsys, "class-of", ",".join(map(str, p)), "--json")
            elapsed = time.perf_counter() - started
            assert code == 0
            payload = json.loads(out)
            assert payload["key"] == key
            assert payload["size"] == len(payload["members"]) == n - 1
            assert p in payload["members"]
            assert elapsed < 1.0

    def test_class_size_cap_is_exact(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ITEM_CAP", 15)  # the size of 12543's class
        code, out, _ = run(capsys, "class-of", "12543")
        assert code == 0 and out.splitlines()[2] == "size: 15"
        monkeypatch.setattr(cli, "ITEM_CAP", 14)
        with monkeypatch.context() as patched:
            # refused before any member is built
            patched.setattr(forgotten, "_member_blocks", lambda key: pytest.fail("members built past the cap"))
            code, out, err = run(capsys, "class-of", "12543")
        assert (code, out) == (3, "")
        assert err == "domain error: 15 members beyond the cap 14 (use --force)\n"

    def test_class_of_beyond_listing_cap_refused_before_counting(self, capsys, monkeypatch):
        n = LISTING_CAP + 1
        monkeypatch.setattr(forgotten, "descent_class_counts", lambda parts: pytest.fail("class size counted"))
        code, out, err = run(capsys, "class-of", ",".join(map(str, range(1, n + 1))))
        assert (code, out) == (3, "")
        assert err == f"domain error: n={n} beyond the listing cap {LISTING_CAP} (use --force)\n"

    def test_class_of_small_class_at_n30(self, capsys):
        identity = list(range(1, 31))
        code, out, _ = run(capsys, "class-of", ",".join(map(str, identity)))
        assert code == 0
        assert out.splitlines()[2] == "size: 1"
        code, out, _ = run(capsys, "class-of", ",".join(map(str, identity)), "--json")
        assert code == 0
        assert json.loads(out) == {
            "key": {"n": 30, "inv": 0, "oneBeforeN": True}, "canonical": identity, "size": 1, "members": [identity],
        }

    def test_class_of_force_lifts_both_caps(self, capsys, monkeypatch):
        monkeypatch.setattr(forgotten, "descent_class_counts", lambda parts: pytest.fail("class size counted"))
        code, out, _ = run(capsys, "class-of", ",".join(map(str, range(1, LISTING_CAP + 2))), "--force")
        assert code == 0 and out.splitlines()[2] == "size: 1"
        monkeypatch.setattr(cli, "ITEM_CAP", 14)
        code, out, _ = run(capsys, "class-of", "12543", "--force")
        assert code == 0 and out.splitlines()[2] == "size: 15"

    def test_commute_has_no_degree_cap(self, capsys):
        # the cap bounds min(q, i + j), not the degrees; e_k is 0 for k > q,
        # and 4 5 is the slowest pair at the cap
        code, out, _ = run(capsys, "commute", "4", "5", "--alphabet", "5")
        assert code == 0
        assert out == "e_4 e_5 = e_5 e_4 over 1..5\n"

    @pytest.mark.parametrize("n", [9, LISTING_CAP])
    def test_classes_with_sizes_within_a_second(self, capsys, n):
        started = time.perf_counter()
        code, out, _ = run(capsys, "classes", "--n", str(n), "--json")
        elapsed = time.perf_counter() - started
        assert code == 0
        sizes = [record["size"] for record in json.loads(out)["classes"]]
        assert len(sizes) == n * n - 3 * n + 4
        assert sum(sizes) == math.factorial(n)
        assert elapsed < 1.0

    @pytest.mark.parametrize("q, max_len", [(5, 6), (3, 8), (46, 3), (5, 7), (4, 8), (3, 10)])
    def test_confluence_full_scan_under_scan_cap_about_a_second(self, capsys, q, max_len):
        # 46 letters is the largest alphabet under the cap; the last three are
        # the longest full scans under it, measured at 0.9-1.3 s
        assert sum(q ** length for length in range(3, max_len + 1)) <= CONFLUENCE_SCAN_CAP
        started = time.perf_counter()
        code, out, _ = run(capsys, "confluence", "--alphabet", str(q), "--max-len", str(max_len),
                           "--limit", "100000", "--json")
        elapsed = time.perf_counter() - started
        assert code == 0
        assert len(json.loads(out)["counterexamples"]) < 100000
        assert elapsed < 1.5

    @pytest.mark.parametrize("q, max_len", [(4, 9), (5, 8), (3, 11)])
    def test_confluence_beyond_scan_cap_needs_force(self, capsys, q, max_len):
        # the cap counts the words of a full scan, whatever the limit
        assert sum(q ** length for length in range(3, max_len + 1)) > CONFLUENCE_SCAN_CAP
        argv = ("confluence", "--alphabet", str(q), "--max-len", str(max_len))
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and "--force" in err
        code, out, _ = run(capsys, *argv, "--force", "--json")
        assert code == 0
        assert len(json.loads(out)["counterexamples"]) == CONFLUENCE_LIMIT

    @pytest.mark.parametrize("q, max_len", [(10 ** 9, 10 ** 9), (1, 10 ** 9)])
    def test_confluence_huge_scan_refused_at_once(self, capsys, q, max_len):
        started = time.perf_counter()
        code, out, err = run(capsys, "confluence", "--alphabet", str(q), "--max-len", str(max_len))
        elapsed = time.perf_counter() - started
        assert code == 3
        assert out == "" and "--force" in err
        assert elapsed < 0.5

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_confluence_default_limit_at_length_cap_within_a_second(self, capsys, q):
        # length 8 is the longest under the scan cap for 4 letters; 5 letters
        # pass the cap there, so they are refused and then forced, and the
        # limit still stops the forced scan early
        argv = ("confluence", "--alphabet", str(q), "--max-len", "8", "--json")
        if sum(q ** length for length in range(3, 9)) > CONFLUENCE_SCAN_CAP:
            code, out, err = run(capsys, *argv)
            assert code == 3
            assert out == "" and "--force" in err
            argv += ("--force",)
        started = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        elapsed = time.perf_counter() - started
        assert code == 0
        # 2 letters have no counterexample, and 3 letters already have 5 of length <= 5
        found = json.loads(out)["counterexamples"]
        assert len(found) == (CONFLUENCE_LIMIT if q >= 3 else 0)
        assert all(len(c["word"]) <= 5 for c in found)
        assert elapsed < 1.0


class TestClassOfOutput:
    """class-of writes members from the walk's blocks; the reference formats
    the list of class_members with format_permutation and json.dumps."""

    @staticmethod
    def expected(key):
        members = forgotten.class_members(key)
        text = "\n".join([
            f"key: {key}",
            f"canonical: {format_permutation(members[0])}",
            f"size: {len(members)}",
            "members: " + " ".join(map(format_permutation, members)),
        ])
        payload = {"key": key.to_json_dict(), "canonical": members[0], "size": len(members), "members": members}
        return members[-1], text + "\n", json.dumps(payload) + "\n"

    def check(self, capsys, key):
        last, text, as_json = self.expected(key)
        perm = ",".join(map(str, last))
        assert run(capsys, "class-of", perm) == (0, text, ""), key
        assert run(capsys, "class-of", perm, "--json") == (0, as_json, ""), key

    def test_every_class_up_to_n9(self, capsys):
        for n in range(2, 10):
            for key in forgotten.all_class_keys(n):
                self.check(capsys, key)

    def test_seeded_keys_under_the_item_cap_up_to_n50(self, capsys):
        rng = random.Random(27)
        for n in range(10, 51, 3):
            self.check(capsys, rng.choice([key for key, size in forgotten.class_sizes(n).items() if size <= ITEM_CAP]))


class TestJsonRoundTrips:
    def test_class_of_payload_round_trips(self, capsys):
        _, out, _ = run(capsys, "class-of", "3142", "--json")
        payload = json.loads(out)
        assert json.dumps(payload) == out.strip()
        assert payload["key"] == {"n": 4, "inv": 3, "oneBeforeN": True}
        assert payload["canonical"] == [1, 4, 3, 2]

    def test_ribbons_payload_round_trips(self, capsys):
        _, out, _ = run(capsys, "ribbons", "--key", "8,10,1n", "--json")
        payload = json.loads(out)
        assert json.dumps(payload) == out.strip()
        assert [1, 1, 1, 1, 4] in payload["compositions"]

    def test_text_key_round_trips(self, capsys):
        _, out, _ = run(capsys, "class-of", "12543")
        key_text = out.splitlines()[0].split(": ")[1]
        code, out2, _ = run(capsys, "canonical", "--key", key_text)
        assert code == 0
        assert out2.splitlines()[0] == "canonical: 1,2,5,4,3"

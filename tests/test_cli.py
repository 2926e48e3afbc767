"""End-to-end CLI behavior: grammars, exit codes, JSON shapes, determinism."""

import json

import pytest

from congroup import cli
from congroup.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeriesCommand:
    def test_mul(self, capsys):
        code, out, _ = run(capsys, "series", "mul", "--p", "2", "1*t^0 + 1*t^1", "1*t^0 + 1*t^1")
        assert code == 0 and out.strip() == "1*t^0 + 1*t^2"

    def test_intmul_mod_four(self, capsys):
        code, out, _ = run(capsys, "series", "intmul", "--p", "2", "--m", "2", "--k", "2", "1*t^0 + 3*t^1")
        assert code == 0 and out.strip() == "2*t^0 + 2*t^1"

    def test_abs(self, capsys):
        code, out, _ = run(capsys, "series", "abs", "--p", "3", "1*t^-2 + 1*t^0")
        assert code == 0 and out.strip() == "|x| = 3^2"

    def test_bad_series_is_usage_error(self, capsys):
        # a superscript digit passes str.isdigit but not int()
        for text in ("nope", "t^\u00b2"):
            code, _, err = run(capsys, "series", "add", "--p", "2", text, "0")
            assert code == 1 and "series :=" in err

    def test_bad_flag_exit_one(self, capsys):
        code, _, _ = run(capsys, "series", "frobnicate", "--p", "2", "0")
        assert code == 1

    def test_large_prime(self, capsys):
        code, out, _ = run(capsys, "series", "mul", "--p", "1000000000000000003", "1*t^0", "1*t^1")
        assert code == 0 and out == "1*t^1\n"

    def test_prime_above_cap(self, capsys):
        code, out, err = run(capsys, "series", "mul", "--p", "18446744073709551629", "1*t^0", "1*t^1")
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 1 and out == ""
        assert errors == ["error: p = 18446744073709551629 is too large: p must be a prime below 2**64"]


class TestCocycleCommand:
    def test_eval_example(self, capsys):
        code, out, _ = run(capsys, "cocycle", "eval", "--p", "2", "--spec", "eta:1", "t^0", "t^2")
        assert code == 0 and out.strip() == "1*t^1 + O(t^2)"

    def test_check_passes(self, capsys):
        code, out, _ = run(
            capsys, "cocycle", "check", "--p", "3", "--spec", "omega:1", "--count", "40", "--seed", "1"
        )
        assert code == 0 and "0 failed" in out

    def test_check_json_deterministic(self, capsys):
        args = ("cocycle", "check", "--p", "2", "--spec", "eta:11", "--count", "25", "--seed", "9", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        blob = json.loads(out1)
        assert blob["identity"]["failed"] == 0 and blob["format"] == 1

    def test_bmap_window(self, capsys):
        code, out, _ = run(capsys, "cocycle", "bmap", "--p", "2", "--spec", "eta:101", "--window=2:6", "--json")
        blob = json.loads(out)
        assert blob["entries"]["2"].startswith("1*t^1")
        assert blob["entries"]["6"].startswith("1*t^3")

    def test_xform_spec_parsing(self, capsys):
        spec = "xform(eta:101;a=1*t^0 + 1*t^1;b=1*t^0 + 1*t^1;cob=0:1*t^0)"
        code, out, _ = run(capsys, "cocycle", "eval", "--p", "2", "--spec", spec, "t^0", "t^2")
        assert code == 0

    def test_param_file_spec(self, capsys, tmp_path):
        blob = {"format": 1, "window": [-2, 2], "entries": {"2": "1*t^0", "-1": "1*t^1"}}
        path = tmp_path / "param.json"
        path.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "cocycle", "eval", "--p", "2", "--spec", f"param:@{path}", "t^0", "t^2")
        assert code == 0 and out.strip() == "1*t^0"

    def test_bad_spec_grammar_excerpt(self, capsys):
        code, _, err = run(capsys, "cocycle", "eval", "--p", "2", "--spec", "zeta:1", "t^0", "t^0")
        assert code == 1 and "spec :=" in err

    def test_eval_short_bit_window_is_error(self, capsys):
        code, out, err = run(capsys, "cocycle", "eval", "--p", "2", "--spec", "eta:1", "t^0", "t^10")
        assert code == 1 and out == ""
        assert err == "error: WindowTooSmall: eta evaluation needs bits through s_5, window has 1\n"

    def test_eval_empty_window_prints_sound_zero(self, capsys, recwarn):
        # recwarn takes the EmptyWindowWarning that evaluate may emit here
        code, out, _ = run(capsys, "cocycle", "eval", "--p", "2", "--spec", "omega:0", "1*t^3 + O(t^4)", "O(t^2)")
        assert code == 0 and out == "O(t^2)\n"

    def test_eval_xform_short_bit_window_is_sound_zero(self, capsys, recwarn):
        spec = "xform(eta:1;a=1*t^0;b=1*t^0)"
        code, out, _ = run(capsys, "cocycle", "eval", "--p", "2", "--spec", spec, "t^0", "t^10")
        assert code == 0 and out == "O(t^5)\n"


class TestExtCommand:
    def test_mul_example(self, capsys):
        code, out, _ = run(capsys, "ext", "mul", "--p", "2", "--spec", "eta:1", "(0 ; t^0)", "(0 ; t^2)")
        assert code == 0 and out.strip() == "(1*t^1 + O(t^2) ; 1*t^0 + 1*t^2)"

    def test_mul_short_bit_window_keeps_sound_zero(self, capsys):
        code, out, _ = run(capsys, "ext", "mul", "--p", "2", "--spec", "eta:1", "(1*t^0 ; 1*t^0)", "(0 ; 1*t^20)")
        assert code == 0 and out == "(1*t^0 + O(t^10) ; 1*t^0 + 1*t^20)\n"

    def test_center_fail_exit_two(self, capsys):
        code, out, _ = run(capsys, "ext", "center", "--p", "2", "--spec", "eta:1", "(0 ; t^0)", "--probes", "2")
        assert code == 2 and "FAIL" in out and "witness=" in out

    def test_center_kernel_passes(self, capsys):
        code, out, _ = run(capsys, "ext", "center", "--p", "2", "--spec", "eta:1", "(1*t^0 ; 0)")
        assert code == 0 and "PASS" in out

    def test_bad_element_grammar(self, capsys):
        code, _, err = run(capsys, "ext", "inv", "--p", "2", "--spec", "eta:1", "t^0")
        assert code == 1 and "element :=" in err


class TestFingerprintCommand:
    def test_spec_example(self, capsys):
        code, out, _ = run(
            capsys,
            "fingerprint", "--p", "2",
            "--spec", "xform(eta:101;a=1*t^0 + 1*t^1;b=1*t^0 + 1*t^1)",
            "--window", "3", "--json",
        )
        blob = json.loads(out)
        assert code == 0 and blob["bits"] == "101" and blob["c"] == 0
        assert blob["status"] == "OK" and len(blob["profile"]) == 3

    def test_random_probes(self, capsys):
        code, out, _ = run(
            capsys, "fingerprint", "--p", "2", "--spec", "eta:1101", "--window", "4",
            "--probes", "random:3", "--seed", "11", "--json",
        )
        assert code == 0 and json.loads(out)["bits"] == "1101"

    def test_budget_too_high_fails(self, capsys):
        code, _, err = run(capsys, "fingerprint", "--p", "2", "--spec", "eta:10", "--window", "2", "--budget", "40")
        assert code == 1 and "WindowTooSmall" in err


class TestSectionCommand:
    def test_modred_lift(self, capsys):
        code, out, _ = run(
            capsys, "section", "--ctx", "modred:2,2,1", "--input", "1*t^0 + 1*t^3", "--upto", "5"
        )
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "1*t^0 + 1*t^3"
        assert lines[1] == "agrees-through=t^5"

    def test_extproj_element_output(self, capsys):
        code, out, _ = run(
            capsys, "section", "--ctx", "extproj:eta:1", "--p", "2", "--input", "1*t^0 + 1*t^2", "--upto", "4"
        )
        assert code == 0 and out.splitlines()[0] == "(1*t^1 + O(t^2) ; 1*t^0 + 1*t^2)"

    def test_verify_clean(self, capsys):
        code, out, _ = run(
            capsys, "section", "--ctx", "modred:3,2,1", "--upto", "8", "--verify", "30", "--seed", "3"
        )
        assert code == 0 and "0 failed" in out

    def test_bad_ctx(self, capsys):
        code, _, err = run(capsys, "section", "--ctx", "nonsense:1")
        assert code == 1 and "ctx :=" in err


class TestClassifyCommand:
    def test_abelian_tables_differ(self, capsys):
        _, four, _ = run(capsys, "classify", "abelian", "--orders", "4", "--json")
        _, klein, _ = run(capsys, "classify", "abelian", "--orders", "2,2", "--json")
        assert four != klein
        assert json.loads(four)["nu"] == [{"mult": 1, "n": 2, "p": 2}]

    def test_poly_places(self, capsys):
        code, out, _ = run(capsys, "classify", "poly", "--place", "inf", "--poly", "x - 1/2", "--json")
        assert code == 0 and json.loads(out) == {"contractive": True, "format": 1, "test": "schur-cohn"}
        code, out, _ = run(capsys, "classify", "poly", "--place", "p:2", "--poly", "x^2 - 2", "--json")
        assert json.loads(out)["test"] == "p-adic-valuation" and json.loads(out)["contractive"]

    def test_spec_canonicalization(self, capsys, tmp_path):
        blob = {
            "format": 1,
            "blocks": [
                {"place": "inf", "poly": "x - 1/2", "n": 2, "mult": 1},
                {"place": 2, "poly": "x^2 - 2", "n": 1, "mult": 1},
                {"place": "inf", "poly": "x - 1/2", "n": 2, "mult": 2},
            ],
            "nu": [{"p": 3, "n": 1, "mult": 1}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "classify", "spec", "--file", str(path))
        got = json.loads(out)
        assert code == 0
        assert got["blocks"][0]["place"] == 2  # finite places sort first
        assert got["blocks"][1]["mult"] == 3  # duplicates merged

    def test_abelian_large_semiprime(self, capsys):
        code, out, _ = run(capsys, "classify", "abelian", "--orders", "1000000016000000063")
        assert code == 0 and out == "nu(1000000007, 1) = 1\nnu(1000000009, 1) = 1\n"

    def test_abelian_order_above_cap(self, capsys):
        code, out, err = run(capsys, "classify", "abelian", "--orders", str(2**64 + 1))
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 1 and out == ""
        assert errors == [
            "error: BadParams: cyclic factor order 18446744073709551617 is too large: orders must lie below 2**64"
        ]

    def test_compdata(self, capsys):
        code, out, _ = run(capsys, "classify", "compdata", "--p", "5", "--m", "2", "--json")
        blob = json.loads(out)
        assert blob["length"] == 2 and blob["delta"] == 25


class TestSelftestCommand:
    def test_subset_runs_clean(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "0", "--only", "8,10")
        assert code == 0
        assert "PASS criterion 8" in out and "PASS criterion 10" in out

    def test_unknown_criterion_is_usage_error(self, capsys):
        code, out, err = run(capsys, "selftest", "--only", "99")
        assert code == 1 and out == "" and "criterion numbers 1..10" in err

    def test_non_integer_criterion_is_usage_error(self, capsys):
        code, out, err = run(capsys, "selftest", "--only", "x")
        assert code == 1 and out == "" and "criterion numbers 1..10" in err

    def test_json_is_only_json(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "0", "--only", "8", "--json")
        blob = json.loads(out)
        assert code == 0 and blob["format"] == 1
        assert [(r["number"], r["passed"]) for r in blob["results"]] == [(8, True)]


NO_POLY_SPEC = json.dumps({"format": 1, "blocks": [{"place": "inf", "n": 1, "mult": 1}]})


@pytest.mark.parametrize(
    "argv, spec_text",
    [
        (["classify", "spec", "--file", "{spec}"], None),
        (["classify", "spec", "--file", "{spec}"], "{not json"),
        (["classify", "spec", "--file", "{spec}"], NO_POLY_SPEC),
        (["fingerprint", "--p", "2", "--spec", "eta:1101", "--window", "4", "--probes", "random:x"], None),
        (["ext", "center", "--p", "2", "--spec", "eta:1", "(0 ; t^0)", "--probes", "a,b"], None),
        (["classify", "poly", "--poly", "x - 1/2", "--place", "p:x"], None),
        (["classify", "poly", "--poly", "x - 1/2", "--place", "p:4"], None),
        (["classify", "poly", "--poly", "x - 1/0"], None),
        (["classify", "poly"], None),
    ],
    ids=[
        "spec-missing-file",
        "spec-bad-json",
        "spec-block-without-poly",
        "fingerprint-probes",
        "center-probes",
        "poly-place",
        "poly-place-composite",
        "poly-zero-denominator",
        "poly-empty",
    ],
)
def test_bad_input_is_one_error_line(capsys, tmp_path, argv, spec_text):
    path = tmp_path / "spec.json"
    if spec_text is not None:
        path.write_text(spec_text)
    code, out, err = run(capsys, *(a.replace("{spec}", str(path)) for a in argv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_between_calls(self, capsys):
        code, out, _ = run(capsys, "series", "intmul", "--p", "5", "--k", "3", "1*t^0 + 1*t^1")
        assert code == 0 and out == "3*t^0 + 3*t^1\n"
        code, out, _ = run(capsys, "series", "intmul", "--p", "5", "1*t^0 + 1*t^1")
        assert code == 0 and out == "1*t^0 + 1*t^1\n"

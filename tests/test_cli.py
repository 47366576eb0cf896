from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import run_cli
from fanodescent import cli, coeffs
from fanodescent.cli import RunReport, parse_split_vector_file
from fanodescent.descent import catalogue
from fanodescent.theorems import THM4, THM5, THM5_STRONG, proof_trace

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "verify_full.json": (["verify", "--max-i", "12", "--max-n", "12", "--json"], 0),
    "verify_minimal.json": (["verify", "--max-i", "1", "--json"], 0),
    "verify_flip_b1.json": (
        ["verify", "--max-i", "2", "--max-n", "4", "--flip-b1", "--json"],
        1,
    ),
    "chain_p4.json": (["chain", "projective_space", "4", "--json"], 0),
    "chain_q5.json": (["chain", "quadric", "5", "--json"], 0),
    "chain_g25.json": (["chain", "grassmannian", "2", "5", "--json"], 0),
    "check_q6_thm5_maxm.json": (
        ["check", "quadric", "6", "--theorem", "thm5", "--json"],
        0,
    ),
    "check_p7_thm4_m7.json": (
        ["check", "projective_space", "7", "--theorem", "thm4", "--m", "7", "--json"],
        0,
    ),
    "check_q7_strong_m4.json": (
        ["check", "quadric", "7", "--theorem", "thm5-strong", "--m", "4", "--json"],
        1,
    ),
    "verify_minimal.txt": (["verify", "--max-i", "1"], 0),
    "chain_q5.txt": (["chain", "quadric", "5"], 0),
    "chain_g25.txt": (["chain", "grassmannian", "2", "5"], 0),
    "check_p7_thm4_m7.txt": (["check", "projective_space", "7", "--theorem", "thm4", "--m", "7"], 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_outputs(name):
    argv, expected_code = GOLDEN_CASES[name]
    code, out, _ = run_cli(argv)
    assert code == expected_code
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_reports_are_deterministic_across_runs(name):
    argv, _ = GOLDEN_CASES[name]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_no_floating_point_in_output(name):
    argv, _ = GOLDEN_CASES[name]
    _, out, _ = run_cli(argv)
    assert not re.search(r"\d+\.\d+", out)


def test_json_reports_round_trip():
    for name in GOLDEN_CASES:
        if not name.endswith(".json"):
            continue
        text = (GOLDEN / name).read_text()
        report = RunReport.from_json(text)
        assert RunReport.from_json(report.to_json()) == report
        assert json.loads(report.to_json()) == json.loads(text)


def _written(obj) -> str:
    out: list[str] = []
    cli._write_json(obj, out, "\n")
    return "".join(out)


def _sweep_argv() -> list[list[str]]:
    argv = []
    for i in range(1, 17):
        for n in (1, 5, 16):
            argv.append(["verify", "--max-i", str(i), "--max-n", str(n)])
            argv.append(["verify", "--max-i", str(i), "--max-n", str(n), "--flip-b1"])
    for n in range(1, 26):
        argv.append(["chain", "projective_space", str(n)])
        argv.append(["chain", "quadric", str(n)])
    argv += [["chain", "grassmannian", str(k), str(m)] for k, m in [(2, 6), (2, 4), (2, 5), (3, 7)]]
    argv += [
        ["chain", "quadric", "5", "--degrees", "1,1,1"],
        ["chain", "projective_space", "6", "--degrees", "2,1"],
        ["chain", "quadric", "8", "--degrees", "1"],
    ]
    for flag in [t.replace("_", "-") for t in cli.THEOREMS]:
        for family, n in [("projective_space", 9), ("quadric", 9), ("quadric", 6)]:
            argv.append(["check", family, str(n), "--theorem", flag])
            for m in range(1, n + 1, 2):
                argv.append(["check", family, str(n), "--theorem", flag, "--m", str(m)])
    return argv


def test_json_writer_matches_json_dumps_on_goldens():
    for name in GOLDEN_CASES:
        if name.endswith(".json"):
            obj = json.loads((GOLDEN / name).read_text())
            assert _written(obj) == json.dumps(obj, indent=2)


def test_json_writer_matches_json_dumps_on_report_sweep():
    parser = cli.build_parser()
    codes = set()
    for argv in _sweep_argv():
        args = parser.parse_args(argv + ["--json"])
        report = cli._COMMANDS[args.command](args)
        codes.add(report.exit_code)
        assert report.to_json() == json.dumps(report.as_dict(), indent=2), argv
    assert codes == {0, 1}  # passing reports and reports with discrepancies


@pytest.mark.parametrize(
    "obj",
    [
        'say "hi"',
        "back\\slash and /",
        "\x00\x01\x1f\t\n\r\x7f",
        "caf\u00e9 \u2203 \U0001d4aa",
        {"": "", "caf\u00e9": ["\u2203"]},
        {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]},
        [],
        {},
        [-1, 0, 1, -(10**399), 10**399, 7 * 10**399 + 3],
        [True, False, None, {"t": True, "f": False, "n": None}],
        [[1, [2, [3, []]]], {"x": {"y": {"z": -0}}}],
    ],
    ids=["quotes", "backslash", "control", "non_ascii", "non_ascii_keys", "empty_nested",
         "empty_list", "empty_dict", "big_ints", "literals", "deep"],
)
def test_json_writer_matches_json_dumps_on_synthetic_values(obj):
    assert _written(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [0.5, float("nan"), {1: "int key"}, {None: "null key"}, {1, 2}, ["nested", [1.0]],
     {"k": {0.0: 1}}, (1, 2), b"bytes", Fraction(1, 2)],
    ids=["float", "nan", "int_key", "none_key", "set", "nested_float", "float_key",
         "tuple", "bytes", "fraction"],
)
def test_json_writer_refuses_anything_else(obj):
    with pytest.raises(TypeError):
        _written(obj)
    report = RunReport("verify", {}, {"value": obj}, "pass", 0)
    with pytest.raises(TypeError):
        report.to_json()


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.text(max_size=4)
)


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
        max_leaves=12,
    )


@st.composite
def _trees_reusing_lists(draw):
    # One list object reached several times, at the same indent and at
    # others, and itself holding another reused list.
    inner = draw(st.lists(_JSON_LEAVES, min_size=1, max_size=3))
    shared = draw(st.lists(_json_trees(_JSON_LEAVES | st.just(inner)), min_size=1, max_size=3))
    tree = draw(_json_trees(_JSON_LEAVES | st.just(inner) | st.just(shared)))
    return [shared, shared, {"again": shared, "tree": tree}, [inner, [shared], tree], inner]


@given(_trees_reusing_lists())
def test_json_writer_matches_json_dumps_on_reused_lists(obj):
    assert _written(obj) == json.dumps(obj, indent=2)


def test_json_writer_refuses_a_float_in_a_reused_list():
    reused = ["x", [1, 0.5]]
    for obj in ([reused, reused], {"a": reused, "b": [reused]}, [[reused], reused]):
        with pytest.raises(TypeError, match="float"):
            _written(obj)


def test_verify_shares_one_list_among_passing_depths():
    args = cli.build_parser().parse_args(["verify", "--max-i", "12", "--json"])
    report = cli.cmd_verify(args)
    depths = report.results["reports"]
    assert [d["passed"] for d in depths] == [True] * 12
    assert all(d["checks"] is depths[0]["checks"] for d in depths)
    copy = RunReport.from_json(report.to_json())
    assert copy == report
    assert copy.results["reports"][0]["checks"] is not copy.results["reports"][1]["checks"]
    assert cli.render_verify(copy) == cli.render_verify(report)
    assert copy.to_json() == report.to_json()


def test_verify_text_names_a_failing_composition_identity():
    # Every depth passes, so the first failure is the composition identity's.
    data = json.loads((GOLDEN / "verify_minimal.json").read_text())
    data["results"]["composition_identity"] = {
        "name": "composition_symmetric_identity",
        "ok": False,
        "discrepancies": [
            {"location": "(k,n)=(2,5)", "expected": "4", "actual": "7/2", "diff": "-1/2"}
        ],
    }
    data["results"]["all_ok"] = False
    data["status"], data["exit_code"] = "fail", 1
    report = RunReport.from_json(json.dumps(data))
    assert cli.render_verify(report).splitlines()[-3:] == [
        "  1      11      ok",
        "composition/symmetric identity: FAIL",
        "result: FAILED at composition_symmetric_identity (k,n)=(2,5): "
        "expected 4, got 7/2 (diff -1/2)",
    ]


def test_check_text_reports_a_failed_certificate():
    data = json.loads((GOLDEN / "check_p7_thm4_m7.json").read_text())
    data["results"]["certificate"]["all_positive"] = False
    text = cli.render_check(RunReport.from_json(json.dumps(data)))
    golden = (GOLDEN / "check_p7_thm4_m7.txt").read_text().rstrip("\n")
    assert "certificate: all bounds positive" in golden.splitlines()
    assert text == golden.replace("certificate: all bounds positive", "certificate: FAILED")


def test_verify_gives_each_failing_depth_its_own_list():
    args = cli.build_parser().parse_args(
        ["verify", "--max-i", "2", "--max-n", "4", "--flip-b1", "--json"]
    )
    report = cli.cmd_verify(args)
    depths = report.results["reports"]
    assert [d["passed"] for d in depths] == [False, False]
    assert depths[0]["checks"] is not depths[1]["checks"]
    golden = json.loads((GOLDEN / "verify_flip_b1.json").read_text())
    assert [d["checks"] for d in depths] == [d["checks"] for d in golden["results"]["reports"]]
    assert RunReport.from_json(report.to_json()) == report


@pytest.mark.parametrize("value", ["0.5", "1e3", "-0.0", "NaN", "-Infinity"])
def test_from_json_refuses_floats(value):
    # The same rule as on output, but caught on input: to_json is never reached.
    text = (
        '{"schema_version": 1, "command": "verify", "parameters": {"max_i": %s}, '
        '"results": {}, "status": "pass", "exit_code": 0}' % value
    )
    with pytest.raises(TypeError, match="cannot read float"):
        RunReport.from_json(text)


@pytest.mark.parametrize("name", ["verify_full.json", "verify_flip_b1.json"])
def test_verify_reads_toeplitz_rows(monkeypatch, name):
    # verify must confront the generating polynomials with another route:
    # it builds each polynomial (i, j) once for its identity, and its table
    # never fills a row from them.
    calls = []
    closed = coeffs._generating_numerators

    def counted(i, j):
        calls.append((i, j))
        return closed(i, j)

    monkeypatch.setattr(coeffs, "_generating_numerators", counted)
    argv, expected_code = GOLDEN_CASES[name]
    code, out, _ = run_cli(argv)
    assert code == expected_code
    assert out == (GOLDEN / name).read_text()
    max_i = int(argv[argv.index("--max-i") + 1])
    assert calls == [(i, j) for i in range(1, max_i + 1) for j in (1, 2)]


@pytest.mark.parametrize(
    "family, n, flag, m, theorem",
    [
        ("projective_space", 7, "thm4", 7, THM4),
        ("quadric", 9, "thm5", 5, THM5),
        ("quadric", 8, "thm5-strong", 4, THM5_STRONG),
    ],
)
def test_check_certificate_matches_proof_trace(family, n, flag, m, theorem):
    argv = ["check", family, str(n), "--theorem", flag, "--m", str(m), "--json"]
    code, out, _ = run_cli(argv)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["theorem"] == theorem
    cert = proof_trace(catalogue(family, [n]).vector, m, theorem)
    assert results["certificate"]["levels"] == [
        {
            "level": lv.level,
            "dim_bound": str(lv.dim_bound),
            "c1_margin": str(lv.c1_margin),
            "t2ch2_bound": str(lv.t2ch2_bound),
            "t2ch2_asserted": lv.t2ch2_asserted,
        }
        for lv in cert.per_level
    ]
    assert len(cert.per_level) == m - 1


# --- exit-code contract -------------------------------------------------------


def test_exit_zero_on_pass():
    code, _, _ = run_cli(["check", "quadric", "4", "--theorem", "thm5", "--m", "2"])
    assert code == 0


def test_exit_one_on_hypothesis_failure():
    code, out, _ = run_cli(["check", "quadric", "6", "--theorem", "thm4", "--m", "3"])
    assert code == 1
    assert "FAIL" in out


def test_exit_one_on_flipped_bernoulli_hook():
    code, out, _ = run_cli(["verify", "--max-i", "1", "--flip-b1"])
    assert code == 1
    assert "(i,j,k)=(1,1,1)" in out
    assert "expected 1/2, got -1/2 (diff -1)" in out


def test_exit_two_on_unknown_manifold():
    code, _, err = run_cli(["chain", "enriques_surface", "3"])
    assert code == 2
    assert "unknown manifold" in err


def test_exit_two_on_bad_parameters():
    assert run_cli(["chain", "projective_space"])[0] == 2
    assert run_cli(["chain", "projective_space", "x"])[0] == 2
    assert run_cli(["chain", "quadric", "3", "7"])[0] == 2
    assert run_cli(["check", "--theorem", "thm4"])[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "projective_space", "1_0"],
        ["chain", "projective_space", "\uff13"],
        ["chain", "projective_space", " 3"],
        ["chain", "grassmannian", "2", "5\n"],
        ["chain", "quadric", "5", "--degrees", "1,1_0"],
        ["chain", "quadric", "5", "--degrees", "1,\u0661"],
        ["verify", "--max-i", "\uff13"],
        ["verify", "--max-n", "1_0"],
        ["verify", "--max-i", "3.0"],
        ["check", "projective_space", "4", "--theorem", "thm4", "--m", "\u0663"],
        ["check", "projective_space", "0x4", "--theorem", "thm4"],
        ["chain", "quadric", "5", "--degrees", "1,,1"],
        ["chain", "quadric", "5", "--degrees", "1,1,"],
    ],
)
def test_non_ascii_or_separated_integers_exit_two(argv):
    # int() alone accepts digit separators, other scripts' digits and
    # surrounding whitespace; the command line takes [+-]digits only.
    code, out, _ = run_cli(argv)
    assert code == 2
    assert out == ""


def test_signed_ascii_integers_parse():
    assert run_cli(["chain", "projective_space", "+3"])[0] == 0
    assert run_cli(["verify", "--max-i", "+2", "--max-n", "03"])[0] == 0
    assert run_cli(["chain", "quadric", "5", "--degrees", "+1,1,2"])[0] == 0


def test_exit_two_on_invalid_flags():
    assert run_cli(["verify", "--max-i", "0"])[0] == 2
    assert run_cli(["check", "quadric", "4", "--theorem", "thm9"])[0] == 2
    assert run_cli(["chain", "quadric", "5", "--degrees", "1,0"])[0] == 2
    assert run_cli(["frobnicate"])[0] == 2


def test_exit_two_when_m_exceeds_dimension():
    code, _, err = run_cli(["check", "quadric", "3", "--theorem", "thm4", "--m", "4"])
    assert code == 2
    assert "exceeds the manifold dimension" in err


def test_exit_two_for_grassmannian_gate():
    code, _, err = run_cli(["check", "grassmannian", "2", "5", "--theorem", "thm4"])
    assert code == 2
    assert "no split vector" in err


def test_version_flag():
    code, out, _ = run_cli(["--version"])
    assert code == 0


# --- one parser per process ----------------------------------------------------


def test_reused_parser_keeps_no_state_between_calls(tmp_path):
    path = tmp_path / "q6.txt"
    path.write_text("6\n6 2 0 -1/3 -1/5 -7/90\n")

    code, out, err = run_cli(["verify", "--max-i", "0"])
    assert (code, out) == (2, "") and "usage:" in err
    assert run_cli(["--help"]) == (0, cli.build_parser().format_help(), "")
    assert run_cli(["--version"]) == (0, f"fanodescent {cli.__version__}\n", "")

    assert run_cli(["verify", "--max-i", "2", "--max-n", "4", "--flip-b1", "--json"])[0] == 1
    code, out, _ = run_cli(["verify", "--max-i", "2", "--max-n", "4", "--json"])
    assert code == 0
    assert json.loads(out)["parameters"]["flip_b1"] is False

    custom = run_cli(["chain", "quadric", "5", "--degrees", "1,1,1"])
    assert custom[0] == 0 and "expected chain" not in custom[1]
    assert run_cli(["chain", "quadric", "5"]) == (0, (GOLDEN / "chain_q5.txt").read_text(), "")

    code, out, _ = run_cli(["check", "--input", str(path), "--theorem", "thm5", "--json"])
    assert code == 0
    assert json.loads(out)["parameters"]["input"] == str(path)
    code, out, _ = run_cli(["check", "quadric", "6", "--theorem", "thm5", "--json"])
    assert code == 0
    assert json.loads(out)["parameters"] == {
        "name": "quadric", "params": [6], "input": None, "theorem": "thm5", "m": None
    }

    for name, (argv, expected_code) in GOLDEN_CASES.items():
        assert run_cli(argv) == (expected_code, (GOLDEN / name).read_text(), ""), name


def test_main_builds_at_most_one_parser_per_process(monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(10):
        assert run_cli(["verify", "--max-i", "1"])[0] == 0
        assert run_cli(["chain", "quadric", "5", "--json"])[0] == 0
    assert len(built) <= 1


# --- vector files ---------------------------------------------------------------


def test_parse_split_vector_file(tmp_path):
    path = tmp_path / "vector.txt"
    path.write_text("# a projective 4-space\n4\n5 5/2 5/6 5/24\n")
    v = parse_split_vector_file(path)
    assert v.dim == 4
    assert str(v.ch(2)) == "5/2"


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "no data"),
        ("x\n1", "first token"),
        ("0\n", "dimension must be >= 1"),
        ("3\n1 2", "expected 3 scalars"),
        ("2\n1 1/0", "bad rational"),
        ("2\n1 nope", "bad rational"),
        ("2\n1 0.5", "bad rational"),
        ("2\n1 1e3", "bad rational"),
        ("2\n1 1_0", "bad rational"),
        ("2\n1 1/2.0", "bad rational"),
        ("1_0\n" + "1 " * 10, "first token"),
    ],
)
def test_bad_vector_files_exit_two(tmp_path, content, message):
    path = tmp_path / "vector.txt"
    path.write_text(content)
    code, _, err = run_cli(["chain", "--input", str(path)])
    assert code == 2
    assert message in err


def test_signed_integer_and_fraction_tokens_parse(tmp_path):
    path = tmp_path / "vector.txt"
    path.write_text("+3\n-2 +5/2 -1/6\n")
    v = parse_split_vector_file(path)
    assert v.scalars == (-2, Fraction(5, 2), Fraction(-1, 6))


def test_chain_from_input_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4\n5 5/2 5/6 5/24\n")
    code, out, _ = run_cli(["chain", "--input", str(path)])
    assert code == 0
    assert "N (first non-Fano member): 4" in out
    # no catalogue expectation line for file input
    assert "expected chain" not in out


# More digits than the default limit of int <-> str conversion (4300).
_SEVENS = "7" * 4400


@pytest.mark.parametrize(
    "argv, content, printed",
    [
        # r_3 is printed with the start scalars; the chain stops at a non-Fano member.
        (["chain", "--json"], f"3\n3 -1/2 1/{_SEVENS}\n", [f'"1/{_SEVENS}"']),
        # r_1 = 2 + 1/777...7 meets the threshold 2 at m = 1.
        (["check", "--theorem", "thm4", "--m", "1"], f"1\n1{'5' * 4400}/{_SEVENS}\n",
         [f"1{'5' * 4400}/{_SEVENS}", f"1/{_SEVENS}"]),
    ],
    ids=["chain-json", "check-text"],
)
def test_numbers_past_the_int_digit_limit_print_exactly(tmp_path, argv, content, printed):
    path = tmp_path / "vector.txt"
    path.write_text(content)
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli([*argv, "--input", str(path)])
    assert (code, err) == (0, "")
    for number in printed:
        assert number in out
    # The process-wide limit is left as it was.
    assert sys.get_int_max_str_digits() == limit


_LONG = f"1{'0' * 4400}"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() reads integers of any length"
)
@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["check", "projective_space", "3", "--theorem", "thm4", "--m", _LONG], "argument --m: "),
        (["verify", "--max-i", _LONG], "argument --max-i: "),
        (["verify", "--max-n", f"+{_LONG}"], "argument --max-n: "),
        (["chain", "quadric", "5", "--degrees", f"1,{_LONG}"], "argument --degrees: "),
        (["chain", "projective_space", f"-{_LONG}"], "error: manifold parameters: "),
    ],
    ids=["m", "max-i", "max-n", "degrees", "manifold"],
)
def test_integer_arguments_past_the_int_digit_limit_are_refused_by_length(argv, prefix):
    # An argument too long for int() is refused with its digit count; the
    # token itself is not echoed.
    code, out, err = run_cli(argv)
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (2, "")
    assert _LONG not in err
    assert err.rstrip("\n").endswith(
        f"{prefix}integer has too many digits: 4401 (the limit is {limit})"
    )


def test_refusal_past_the_int_digit_limit_keeps_its_text(tmp_path):
    # r_1 = 1/777...7 is not an integer degree: the library's own refusal,
    # with the number digit for digit, not Python's conversion error.
    path = tmp_path / "vector.txt"
    path.write_text(f"1\n1/{_SEVENS}\n")
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(["chain", "--input", str(path), "--json"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: anticanonical degree 1/{_SEVENS} is not an integer; ")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "command", [["chain"], ["check", "--theorem", "thm4"]], ids=["chain", "check"]
)
@pytest.mark.parametrize(
    "content, refusal",
    [
        (f"4{'0' * 4400}\n1\n", f"expected 4{'0' * 4400} scalars after the dimension, got 1"),
        (f"-{_SEVENS}\n1\n", f"dimension must be >= 1, got -{_SEVENS}"),
    ],
    ids=["too-many", "negative"],
)
def test_dimension_past_the_int_digit_limit_keeps_its_refusal(tmp_path, command, content, refusal):
    # The dimension token is read and printed exactly, like the scalars.
    path = tmp_path / "vector.txt"
    path.write_text(content)
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli([*command, "--input", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {refusal}\n"
    assert sys.get_int_max_str_digits() == limit


def test_check_from_input_file(tmp_path):
    path = tmp_path / "q6.txt"
    path.write_text("6\n6 2 0 -1/3 -1/5 -7/90\n")
    code, out, _ = run_cli(["check", "--input", str(path), "--theorem", "thm5"])
    assert code == 0
    assert "max m: 3" in out


def test_input_and_name_are_mutually_exclusive(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1\n2\n")
    code, _, err = run_cli(["chain", "quadric", "4", "--input", str(path)])
    assert code == 2
    assert "not both" in err


def test_missing_input_file_exits_two(tmp_path):
    code, _, _ = run_cli(["chain", "--input", str(tmp_path / "absent.txt")])
    assert code == 2


# --- resource exhaustion -----------------------------------------------------------


@pytest.mark.parametrize("error", [MemoryError(), RecursionError("maximum recursion depth")])
def test_resource_errors_exit_two(monkeypatch, error):
    # Exhausted memory or stack is an error (2), not a failed check (1).
    def exhausted(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "verify", exhausted)
    code, out, err = run_cli(["verify", "--max-i", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {type(error).__name__}")


# --- degrees flag ----------------------------------------------------------------


def test_chain_with_custom_degrees():
    code, out, _ = run_cli(["chain", "quadric", "5", "--degrees", "1,1,1"])
    assert code == 0
    assert "terminal: negative_dimension" in out
    assert "N (first non-Fano member): undetermined" in out
    assert "expected chain" not in out


def test_chain_degrees_rejected_for_grassmannian():
    code, _, err = run_cli(["chain", "grassmannian", "2", "5", "--degrees", "1"])
    assert code == 2
    assert "--degrees" in err


# --- subprocess smoke -------------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fanodescent", "chain", "quadric", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "N (first non-Fano member): 3" in proc.stdout

import contextlib
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordalg import rowen
from wordalg.cli import emit_report, run
from wordalg.monalg import HorizonWarning

REPO = Path(__file__).resolve().parent.parent
REPO_MORPHISMS = REPO / "morphisms"

SUB_XY = "x y\nx -> xy\ny -> yyx\nweights: 1 2\n"
TM = "x y\nx -> xy\ny -> yx\nweights: 1 2\n"


@pytest.fixture()
def sub_xy_file(tmp_path):
    path = tmp_path / "sub_xy.morph"
    path.write_text(SUB_XY)
    return str(path)


@pytest.fixture()
def tm_file(tmp_path):
    path = tmp_path / "tm.morph"
    path.write_text(TM)
    return str(path)


@pytest.fixture(autouse=True)
def _quiet_horizon_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        yield


def _record(capsys):
    out = capsys.readouterr().out.strip()
    rec = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        rec[key] = value
    return out, rec


def test_emit_report_is_flat_key_value():
    assert emit_report({"a": "1", "b": "x,y"}) == "a: 1\nb: x,y"


def test_word_command(sub_xy_file, capsys):
    code = run(["word", "--spec", sub_xy_file, "--start", "x", "--length", "5"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "xyyyx"


def test_analyze_command(sub_xy_file, capsys):
    code = run(["analyze", "--spec", sub_xy_file])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["matrix"] == "1,1;1,2"
    assert rec["det"] == "1"
    assert rec["primitive"] == "true"


def test_analyze_command_takes_no_start_letter(sub_xy_file):
    # the report covers every letter, so a start letter is a usage error
    assert run(["analyze", "--spec", sub_xy_file, "--start", "x"]) == 2


def test_analyze_command_swap_is_not_primitive(tmp_path, capsys):
    spec = tmp_path / "swap.morph"
    spec.write_text("x y\nx -> y\ny -> x\n")
    assert run(["analyze", "--spec", str(spec)]) == 0
    assert _record(capsys)[1]["primitive"] == "false"


def test_certify_command_positive(sub_xy_file, capsys):
    code = run(["certify", "--spec", sub_xy_file, "--weights", "1,2", "--u", "xyy"])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["verdict"] == "CERTIFIED"
    assert rec["gcd_sequence"] == "5,13"


def test_certify_command_negative(tm_file, capsys):
    code = run(["certify", "--spec", tm_file, "--weights", "1,2"])
    out, rec = _record(capsys)
    assert code == 1
    assert rec["verdict"] == "NOT_APPLICABLE"
    assert rec["reason"] == "det=0"


def test_scan_command(tm_file, capsys):
    code = run(["scan", "--spec", tm_file, "--dmax", "4", "--horizons", "1000,5000"])
    out, rec = _record(capsys)
    assert code == 1  # flagged differences mean a negative verdict
    assert "3" in rec["flagged"].split(",")


def test_scan_command_certified(sub_xy_file, capsys):
    code = run(["scan", "--spec", sub_xy_file, "--dmax", "4", "--horizons", "1000,5000"])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["flagged"] == ""


def test_scan_command_certified_flags_no_degree_its_covering_check_bounds(capsys):
    # at 1e5 every degree up to 200 of x -> xy, y -> yyx has reached its
    # supremum and the covering words prove it, so lengths that grew from
    # their 1e3 values flag nothing; degree 54 grows 13 -> 22
    code = run(["scan", "--spec", str(REPO_MORPHISMS / "sub_xy.morph"), "--weights", "1,2", "--dmax", "200",
                "--horizons", "1000,100000"])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["flagged"] == ""
    assert rec["ap_lengths_d54"] == "13,22"


def test_free_command_cubes(capsys):
    code = run([
        "free", "--view", "cubes", "--letters", "xyzw",
        "--gens", "1*x + 1*y;1*z + 1*w", "--Lfree", "3",
    ])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["freeness_verdict"] == "independent"
    assert rec["rank"] == "14"


def test_free_command_tilde_with_primed_names(capsys):
    code = run([
        "free", "--view", "tilde", "--horizon", "20000",
        "--gens", "1*x + 1*y;1*x' + 1*y'", "--Lfree", "3",
    ])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["freeness_verdict"] == "independent"
    assert rec["rank"] == "14"


def test_free_command_prime_after_whitespace(capsys):
    # a prime mark follows its letter directly, as in x'
    code = run(["free", "--view", "tilde", "--horizon", "20000", "--gens", "1*x '", "--Lfree", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: dangling prime mark in \"1*x '\"\n"


MALFORMED_LITERALS = {
    "1*'x": "dangling prime mark in \"1*'x\"",
    "1'*x": "dangling prime mark in \"1'*x\"",
    "'1*x": "dangling prime mark in \"'1*x\"",
    ";1*x": "empty polynomial literal",
}


@pytest.mark.parametrize("gens", list(MALFORMED_LITERALS))
def test_free_command_malformed_literals_exit_two(gens, capsys):
    code = run(["free", "--view", "tilde", "--horizon", "20000", "--gens", gens, "--Lfree", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {MALFORMED_LITERALS[gens]}\n"


def test_free_command_zero_denominator_exits_two(capsys):
    code = run(["free", "--view", "free", "--letters", "xy", "--gens", "1/0*x", "--Lfree", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_free_command_rejects_coefficient_exponents(capsys):
    # 1e1000000000 would otherwise become a billion-digit integer
    for gens in ("1e1000000000*x", "2E3*x", "1/2*x + 1.5e-3*y"):
        code = run(["free", "--view", "free", "--letters", "xy", "--gens", gens, "--Lfree", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "exponent" in captured.err


def test_free_command_coefficient_forms(capsys):
    code = run(["free", "--view", "free", "--letters", "xy", "--gens", "3*x + -1/2*y;1.5*x + .25*y", "--Lfree", "1"])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["generators"] == "3*x + -1/2*y; 3/2*x + 1/4*y"


# literals from a small grammar that mixes well-formed terms with the usual
# mistakes: zero denominators, nan, stray `*`, foreign letters and primes
fuzz_coefficients = st.sampled_from(["1", "-1", "2", "1/2", "0", "1/0", "nan", "", "-", "2147483647"])
fuzz_monomials = st.text(alphabet="xyzq'*", max_size=4)
fuzz_terms = st.one_of(
    st.builds("{}*{}".format, fuzz_coefficients, fuzz_monomials),
    st.sampled_from(["*", "x", "1*", "'", "1*x'"]),
)
fuzz_literals = st.lists(fuzz_terms, max_size=3).map(" + ".join)


@given(
    view=st.sampled_from(["free", "cubes"]),
    letters=st.text(alphabet="xyz", max_size=3),
    gens=st.lists(fuzz_literals, max_size=3).map(";".join),
    lfree=st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_free_command_fuzzed_argv_never_escapes(view, letters, gens, lfree):
    _assert_never_escapes(["free", "--view", view, "--letters", letters, "--gens", gens, "--Lfree", str(lfree)])


def _assert_never_escapes(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("view, letters, message", [
    ("cubes", "xx", "error: duplicate letters in ('x', 'x')\n"),
    ("free", "x y", "error: letters must be single symbols, got ' '\n"),
])
def test_free_command_view_letters_are_checked(view, letters, message, capsys):
    _assert_usage_error(["free", "--view", view, "--letters", letters, "--gens", "1*x"], message, capsys)


def test_free_command_free_view_takes_more_letters_than_an_alphabet(capsys):
    # the free and cube views index no letter codes, so they have no size cap
    assert run(["free", "--view", "free", "--letters", "abcdefghijk", "--gens", "1*a;1*k", "--Lfree", "2"]) == 0
    assert _record(capsys)[1]["freeness_verdict"] == "independent"


def test_free_command_dependent(capsys):
    code = run([
        "free", "--view", "free", "--letters", "xy",
        "--gens", "1*x;2*x", "--Lfree", "2",
    ])
    out, rec = _record(capsys)
    assert code == 1
    assert rec["freeness_verdict"] == "dependent"


def test_theorem32_command(capsys):
    code = run(["theorem32", "--horizon", "20000", "--Lfree", "3", "--dmax", "4"])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["all_clear"] == "true"
    assert rec["certificate_verdict"] == "CERTIFIED"
    assert rec["sum_sets_equal"] == "true"


def test_rowen_command(capsys):
    code = run(["rowen", "--N", "512", "--horizon", "10000", "--maxlen", "5"])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["bits_match_substitution"] == "true"
    assert rec["word_prefix_16"] == "yxxyxyyxxyyxyxxy"
    assert rec["nilpotency_index_a"] == "3"
    assert rec["nilpotency_index_b"] == "3"
    assert rec["correspondence_mismatches"] == "0"


def test_rowen_command_single_word(capsys):
    code = run(["rowen", "--N", "512", "--horizon", "10000", "--word", "aaa"])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["word_zero"] == "true"  # aaa maps to yyy, never a factor
    assert rec["word_matches_factor_rule"] == "true"


def test_rowen_command_single_word_is_evaluated_once(monkeypatch, capsys):
    calls = []
    evaluate = rowen.evaluate_word

    def counted(word, n, margin=rowen.DEFAULT_MARGIN):
        calls.append(word)
        return evaluate(word, n, margin)

    monkeypatch.setattr(rowen, "evaluate_word", counted)
    assert run(["rowen", "--N", "512", "--word", "abba"]) == 0
    assert calls == ["yxxy"]


def test_growth_command(capsys):
    code = run(["growth", "--nvalues", "64,128", "--horizon", "20000"])
    out, rec = _record(capsys)
    assert code == 0
    assert rec["quadratic"] == "true"


def test_growth_command_validates_horizon(capsys):
    # the counts are exact, so --horizon bounds nothing, but it must still be
    # at least 8 times the largest n; an invalid n value is reported first
    message = "error: horizon too small for complexity stabilization at max n"
    _assert_usage_error(["growth", "--horizon", "100"], message, capsys)
    _assert_usage_error(["growth", "--nvalues", "64", "--horizon", "511"], message, capsys)
    _assert_usage_error(["growth", "--nvalues", "0,64", "--horizon", "100"], "error: n_values must be positive", capsys)
    assert run(["growth", "--nvalues", "64", "--horizon", "512"]) == 0


@pytest.mark.parametrize("argv", [
    ["--horizon", "0", "--maxlen", "2"],
    ["--horizon", "5", "--maxlen", "3"],
    ["--horizon", "0", "--word", "abba"],
])
def test_rowen_command_short_horizon_is_exact(argv, capsys):
    code = run(["rowen", *argv])
    out, rec = _record(capsys)
    assert code == 0
    assert rec.get("correspondence_mismatches", "0") == "0"
    assert rec.get("word_matches_factor_rule", "true") == "true"


def _assert_usage_error(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_rowen_command_factor_past_the_truncation_exits_two(capsys):
    # positions 1000-1099 of the Thue-Morse word: a factor, first seen past N = 200
    word = rowen.THUE_MORSE.word_prefix(1100)[1000:].translate(str.maketrans("yx", "ab"))
    _assert_usage_error(["rowen", "--N", "200", "--word", word], "vanishes at truncation 200", capsys)
    _assert_usage_error(["rowen", "--N", "127", "--maxlen", "62"], "vanishes at truncation 127", capsys)
    assert run(["rowen", "--N", "2000", "--word", word]) == 0


def test_rowen_command_nonzero_word_that_is_no_factor_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(rowen, "covering_words", lambda stream, k: ["yxx"])
    assert run(["rowen", "--N", "512", "--maxlen", "2"]) == 1
    assert _record(capsys)[1]["correspondence_mismatches"] == "2"
    assert run(["rowen", "--N", "512", "--word", "ba"]) == 1
    assert _record(capsys)[1]["word_matches_factor_rule"] == "false"


@pytest.mark.parametrize("argv", [
    ["rowen", "--horizon", "-3"],
    ["rowen", "--margin", "-1"],
    ["scan", "--spec", str(REPO_MORPHISMS / "sub_xy.morph"), "--horizons=-1"],
    ["word", "--spec", str(REPO_MORPHISMS / "thue_morse.morph"), "--start", "y", "--length", "-5"],
    ["scan", "--spec", str(REPO_MORPHISMS / "thue_morse.morph"), "--dmax", "3", "--horizons=-5,10"],
    ["scan", "--spec", str(REPO_MORPHISMS / "thue_morse.morph"), "--horizons=-10,-5"],
    ["word", "--spec", str(REPO_MORPHISMS / "sub_xy.morph"), "--length", "-1"],
])
def test_negative_sizes_exit_two(argv, capsys):
    _assert_usage_error(argv, "must be nonnegative", capsys)


@pytest.mark.parametrize("horizons", ["1000", "1000,1000"])
def test_scan_with_one_distinct_horizon_exits_two(horizons, capsys):
    # a degree is flagged when its AP length grows from the smallest horizon
    # to the largest; Thue-Morse degree 3 is unbounded, yet one horizon flags
    # nothing, so the scan must refuse, not pass it
    argv = ["scan", "--spec", str(REPO_MORPHISMS / "thue_morse.morph"), "--dmax", "3", "--horizons", horizons]
    _assert_usage_error(argv, f"error: --horizons needs at least two distinct horizons, got {horizons}\n", capsys)


def test_scan_with_decreasing_horizons_exits_two(capsys):
    argv = ["scan", "--spec", str(REPO_MORPHISMS / "thue_morse.morph"), "--dmax", "3", "--horizons", "100,10"]
    _assert_usage_error(argv, "error: horizons must be increasing and nonempty\n", capsys)


@pytest.mark.parametrize("word", ["xyy", "c", "abx", "a b"])
def test_rowen_word_outside_a_b_exits_two(word, capsys):
    _assert_usage_error(["rowen", "--N", "300", "--word", word], f"--word letters must be a or b, got {word!r}", capsys)


def test_rowen_empty_word_exits_two(capsys):
    # an empty --word is a malformed input, not a request for the full scan
    _assert_usage_error(["rowen", "--N", "300", "--maxlen", "2", "--word="], "error: --word must be nonempty\n", capsys)


def test_rowen_word_error_names_the_word_as_typed(capsys):
    # positions 1000-1099 of the Thue-Morse word: a factor, first seen past N = 200
    typed = rowen.THUE_MORSE.word_prefix(1100)[1000:].translate(str.maketrans("yx", "ab"))
    assert run(["rowen", "--N", "200", "--word", typed]) == 2
    assert capsys.readouterr().err == (
        f"error: {typed} is a factor of the Thue-Morse word but vanishes at truncation 200: "
        "it first occurs past the truncation\n"
    )


def test_rowen_command_negative_horizon_does_not_depend_on_earlier_runs(capsys):
    assert run(["rowen", "--horizon", "100", "--maxlen", "2"]) == 0
    capsys.readouterr()
    _assert_usage_error(["rowen", "--horizon", "-3"], "must be nonnegative", capsys)


@pytest.mark.parametrize("argv", [
    ["certify"], ["word", "--length", "5"], ["scan", "--horizons", "100"], ["free", "--view", "word", "--gens", "1*x"],
])
def test_start_outside_the_alphabet_exits_two(argv, capsys):
    spec = str(REPO_MORPHISMS / "sub_xy.morph")
    _assert_usage_error([*argv, "--spec", spec, "--start", "q"], "error: 'q' is not a letter of ('x', 'y')", capsys)


def test_growth_command_empty_period_exits_two(capsys):
    assert run(["growth", "--periodic", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: period must be nonempty\n"


@pytest.mark.parametrize("argv, message", [
    (["certify", "--weights="], "expected 2 weights, got 0"),
    (["scan", "--weights="], "expected 2 weights, got 0"),
    (["word", "--start=", "--length", "5"], "error: '' is not a letter of ('x', 'y')"),
    (["certify", "--start="], "error: '' is not a letter of ('x', 'y')"),
], ids=["certify-weights", "scan-weights", "word-start", "certify-start"])
def test_empty_weights_or_start_exits_two(argv, message, capsys):
    # an empty value is a malformed input, not a request for the default
    _assert_usage_error([*argv, "--spec", str(REPO_MORPHISMS / "sub_xy.morph")], message, capsys)


def _cli_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("argv", [
    ["operator_report.py", "--N", "50"],
    ["operator_report.py", "--maxlen", "0"],
])
def test_script_usage_error_is_one_line(argv):
    # the script shares the command's mapping of errors to exit codes
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # the error comes before any part of a report
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_console_script_is_the_cli_main():
    # a regex, since tomllib is missing on Python 3.10
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^\[project\.scripts\]\nwordalg = "wordalg\.cli:main"\n', pyproject, re.M)


@pytest.mark.parametrize("argv", [
    ["certify"],
    ["word", "--length", "5"],
    ["scan", "--dmax", "3", "--horizons", "100,1000"],
    ["free", "--view", "word", "--gens", "1*x", "--Lfree", "2"],
], ids=lambda argv: argv[0])
def test_a_spec_with_no_prolongable_letter_names_its_file(argv, tmp_path, capsys):
    # the start letter defaults to the first prolongable one, so with none the
    # run needs --start; the error names the spec, as a parse error does
    spec = tmp_path / "swap.morph"
    spec.write_text("x y\nx -> y\ny -> x\nweights: 1 2\n")
    assert run([*argv, "--spec", str(spec)]) == 2
    assert capsys.readouterr() == ("", f"error: {spec}: morphism is not prolongable on any letter; give --start\n")


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["word", "--length", "5"],
    ["certify"],
    ["scan", "--dmax", "3", "--horizons", "100,1000"],
    ["free", "--view", "word", "--gens", "1*x", "--Lfree", "2"],
], ids=lambda argv: argv[0])
def test_a_malformed_spec_names_its_file(argv, tmp_path, capsys):
    # every subcommand reads --spec through one loader: one error line that
    # names the file, and the usage exit
    spec = tmp_path / "xy.morph"
    spec.write_text("x y\nx -> xy\n")
    assert run([*argv, "--spec", str(spec)]) == 2
    assert capsys.readouterr() == ("", f"error: {spec}: no image given for letter 'y'\n")


def test_horizon_warning_is_one_stderr_line():
    # a fresh interpreter, so the warning meets Python's default filters
    argv = ["free", "--view", "tilde", "--gens", "1*x", "--Lfree", "3", "--horizon", "1000"]
    proc = subprocess.run([sys.executable, "-m", "wordalg", *argv],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "warning: monomials unseen within horizon 1000 are treated as zero (first: 'xxx')\n"


def test_reader_closing_stdout_early_leaves_no_traceback():
    # the report is longer than a pipe buffer, so the write meets the closed pipe
    argv = ["word", "--spec", str(REPO_MORPHISMS / "sub_xy.morph"), "--length", "200000"]
    proc = subprocess.Popen([sys.executable, "-m", "wordalg", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    assert proc.stdout.read(5) == b"xyyyx"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err


fuzz_periods = st.one_of(st.none(), st.text(alphabet="xy →é\x00", max_size=4))
fuzz_csv = st.one_of(
    st.lists(st.integers(-2, 64), max_size=3).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["", ",", "a", "1,,2", " 8"]),
)


@given(nvalues=fuzz_csv, horizon=st.integers(-10, 10_000), period=fuzz_periods)
@settings(max_examples=100, deadline=None)
def test_growth_command_fuzzed_argv_never_escapes(nvalues, horizon, period):
    argv = ["growth", "--nvalues", nvalues, "--horizon", str(horizon)]
    if period is not None:
        argv += ["--periodic", period]
    _assert_never_escapes(argv)


@given(
    n=st.integers(-2, 256),
    horizon=st.integers(-10, 10_000),
    maxlen=st.integers(-1, 6),
    margin=st.integers(-3, 70),
    word=st.one_of(st.none(), st.text(alphabet="abx ", max_size=5)),
)
@settings(max_examples=100, deadline=None)
def test_rowen_command_fuzzed_argv_never_escapes(n, horizon, maxlen, margin, word):
    argv = ["rowen", "--N", str(n), "--horizon", str(horizon), "--maxlen", str(maxlen),
            "--margin", str(margin)]
    if word is not None:
        argv += ["--word", word]
    _assert_never_escapes(argv)


# mostly well-formed inputs, so most examples run the command and not only its checks
fuzz_specs = st.sampled_from([*map(str, sorted(REPO_MORPHISMS.glob("*.morph")))] * 2 + ["", "missing.morph"])
fuzz_starts = st.one_of(st.none(), st.none(), st.text(alphabet="xyzq", max_size=2))
fuzz_weights = st.one_of(st.none(), st.sampled_from(["1,2", "2,1", "1,2,3", "1,1", "0,1", "-1,2", "a", ""]))
fuzz_horizons = st.one_of(
    st.lists(st.integers(1, 2000), min_size=1, max_size=3).map(lambda v: ",".join(map(str, sorted(v)))),
    fuzz_csv,
)


def _spec_argv(command, spec, start):
    argv = [command, "--spec", spec]
    return argv if start is None else [*argv, "--start", start]


@given(spec=fuzz_specs, start=fuzz_starts)
@settings(max_examples=30, deadline=None)
def test_analyze_command_fuzzed_argv_never_escapes(spec, start):
    _assert_never_escapes(_spec_argv("analyze", spec, start))


@given(spec=fuzz_specs, start=fuzz_starts, length=st.integers(-5, 200))
@settings(max_examples=50, deadline=None)
def test_word_command_fuzzed_argv_never_escapes(spec, start, length):
    _assert_never_escapes([*_spec_argv("word", spec, start), "--length", str(length)])


@given(
    spec=fuzz_specs, start=fuzz_starts, weights=fuzz_weights,
    u=st.one_of(st.none(), st.none(), st.text(alphabet="xyzq", max_size=4)),
)
@settings(max_examples=100, deadline=None)
def test_certify_command_fuzzed_argv_never_escapes(spec, start, weights, u):
    argv = _spec_argv("certify", spec, start)
    if weights is not None:
        argv += ["--weights", weights]
    if u is not None:
        argv += ["--u", u]
    _assert_never_escapes(argv)


# a weight-sum mask too large to allocate, and two total weights past int64
HUGE_WEIGHTS = ["1,576460752303423488", "3074457345618258603,3074457345618258603",
                "4611686018427387904,4611686018427387904"]


@given(
    spec=fuzz_specs, start=fuzz_starts, weights=fuzz_weights,
    dmax=st.integers(-1, 4), horizons=fuzz_horizons,
)
@example(spec=str(REPO_MORPHISMS / "sub_xy.morph"), start=None, weights=HUGE_WEIGHTS[0], dmax=2, horizons="2,6")
@example(spec=str(REPO_MORPHISMS / "sub_xy.morph"), start=None, weights=HUGE_WEIGHTS[1], dmax=2, horizons="2,6")
@example(spec=str(REPO_MORPHISMS / "sub_xy.morph"), start=None, weights=HUGE_WEIGHTS[2], dmax=2, horizons="2,6")
@settings(max_examples=100, deadline=None)
def test_scan_command_fuzzed_argv_never_escapes(spec, start, weights, dmax, horizons):
    argv = [*_spec_argv("scan", spec, start), "--dmax", str(dmax), "--horizons", horizons]
    if weights is not None:
        argv += ["--weights", weights]
    _assert_never_escapes(argv)


@pytest.mark.parametrize("weights", HUGE_WEIGHTS)
def test_scan_huge_weights_are_inconclusive(weights, capsys):
    argv = ["scan", "--spec", str(REPO_MORPHISMS / "sub_xy.morph"), "--dmax", "2", "--horizons", "2,6",
            "--weights", weights]
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("inconclusive: ")


@given(horizon=st.integers(90, 3000), lfree=st.integers(0, 3), dmax=st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_theorem32_command_fuzzed_argv_never_escapes(horizon, lfree, dmax):
    _assert_never_escapes(["theorem32", "--horizon", str(horizon), "--Lfree", str(lfree), "--dmax", str(dmax)])


def test_growth_command_periodic_control(capsys):
    code = run(["growth", "--nvalues", "64,128", "--horizon", "20000", "--periodic", "xy"])
    out, rec = _record(capsys)
    assert code == 1
    assert rec["quadratic"] == "false"


def test_reports_are_byte_identical(sub_xy_file, capsys):
    run(["certify", "--spec", sub_xy_file, "--weights", "1,2"])
    first = capsys.readouterr().out
    run(["certify", "--spec", sub_xy_file, "--weights", "1,2"])
    second = capsys.readouterr().out
    assert first == second


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["certify", "--no-such-flag"]) == 2
    assert run(["nosuchcommand"]) == 2
    bad = tmp_path / "bad.morph"
    bad.write_text("x y\nx = xy\n")
    assert run(["certify", "--spec", str(bad), "--weights", "1,2"]) == 2
    missing = tmp_path / "missing.morph"
    assert run(["certify", "--spec", str(missing), "--weights", "1,2"]) == 2
    capsys.readouterr()


def test_rowen_nilpotency_prefix_cap_is_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(rowen, "NILPOTENCY_PREFIX_CAP", 16)
    assert run(["rowen", "--N", "512", "--maxlen", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "inconclusive: the nilpotency index needs more than 16 Thue-Morse bits\n"


def test_rowen_nilpotency_index_does_not_depend_on_the_truncation(capsys):
    # the index is exact: a truncation just above the margin prints the same
    # four nilpotency lines as the large one of the golden rowen_4096
    assert run(["rowen", "--N", "66", "--margin", "64", "--maxlen", "1"]) == 0
    rec = _record(capsys)[1]
    assert rec["nilpotency_index_a"] == rec["nilpotency_index_b"] == "3"
    assert rec["nilpotency_stable_a"] == rec["nilpotency_stable_b"] == "true"
    # a truncation too small for the word is the margin's usage error
    _assert_usage_error(["rowen", "--N", "10", "--word", "aaa"], "need truncation > 67", capsys)


def test_certify_finds_a_late_reoccurrence_of_the_start_letter(tmp_path, capsys):
    # the fixed point is x y^k y^(k+1) x ...: its second x comes after 2k + 2
    # letters, and the prefix search doubles until it gets there
    k = 5000
    spec = tmp_path / "late.morph"
    spec.write_text(f"x y\nx -> x{'y' * k}\ny -> {'y' * (k + 1)}x\nweights: 1 2\n")
    assert run(["certify", "--spec", str(spec)]) == 0
    rec = _record(capsys)[1]
    assert rec["verdict"] == "CERTIFIED"
    assert rec["u_source"] == "auto"
    assert rec["u"] == "x" + "y" * (2 * k + 1)
    assert rec["gcd_sequence"] == "20003,100050004"


@pytest.mark.parametrize("lines, message", [
    ("x -> xy\nx -> yx\ny -> yyx\n", "duplicate image line for letter 'x'"),
    ("x -> xy\ny -> yyx\nweights: 1 2\nweights: 2 1\n", "duplicate weights line"),
], ids=["image", "weights"])
def test_certify_spec_with_a_repeated_line_exits_two(lines, message, tmp_path, capsys):
    spec = tmp_path / "repeated.morph"
    spec.write_text("x y\n" + lines)
    _assert_usage_error(["certify", "--spec", str(spec), "--weights", "1,2"], f"error: {spec}: {message}\n", capsys)


# the certify exit of every bundled spec: 0 certified, 1 decided against
BUNDLED_CERTIFY_EXITS = {"sub_xy.morph": 0, "sub_xyz.morph": 0, "thue_morse.morph": 1}


def test_bundled_morphism_files():
    # a spec added to morphisms/ must be given its certify exit here
    assert sorted(BUNDLED_CERTIFY_EXITS) == sorted(path.name for path in REPO_MORPHISMS.glob("*.morph"))


@pytest.mark.parametrize("name", sorted(path.name for path in REPO_MORPHISMS.glob("*.morph")))
def test_bundled_morphism_file_certifies(name, capsys):
    code = run(["certify", "--spec", str(REPO_MORPHISMS / name)])
    capsys.readouterr()
    assert code == BUNDLED_CERTIFY_EXITS[name]

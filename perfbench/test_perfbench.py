"""Tests of the benchmark harness itself, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import signal
import time
from pathlib import Path

import pytest

import run
import spans
import worker
from wordalg import grading, interleave, monalg, rowen, words

TINY = [
    ("cli", ["theorem32", "--horizon", "10000", "--Lfree", "3", "--dmax", "3"]),
    ("cli", ["rowen", "--N", "256", "--maxlen", "6", "--horizon", "10000"]),
    ("cli", ["growth", "--nvalues", "8,16", "--horizon", "1000"]),
    ("cli", ["certify", "--spec", "morphisms/sub_xyz.morph"]),
    ("cli", ["scan", "--spec", "morphisms/thue_morse.morph", "--dmax", "4", "--horizons", "1000,10000"]),
    ("cli", ["free", "--view", "cubes", "--letters", "xy", "--gens", "1*x + 1*y", "--Lfree", "3"]),
    ("cli", ["free", "--view", "free", "--letters", "xy", "--gens", "1*x + 1*y;1*x + -1*y", "--Lfree", "3"]),
    ("script", ["operator_report.py", "--N", "1024", "--maxlen", "6", "--fdeg", "1"]),
]


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    # the commands name files relative to the checkout, as the worker's cwd does
    monkeypatch.chdir(run.ROOT)


def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    tracer_spans = [
        (2, 1, "a", 1.0, 4.0),
        (3, 2, "a.child", 2.0, 3.0),  # nested one level deeper: not a child of the root
        (4, 1, "b", 3.0, 6.0),  # overlaps a
        (5, 1, "c", 9.0, 12.0),  # runs past the parent: only [9, 10] counts
        (1, None, "root", 0.0, 10.0),
    ]
    own = spans.self_times(tracer_spans)
    assert own[1] == pytest.approx(10 - 5 - 1)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(1)
    assert own[4] == pytest.approx(3)


def test_tracer_records_parents_and_layer_metrics_sum_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer("r", clock=lambda: float(next(ticks)))
    with tracer.span("cli.rowen"):  # 0 .. 7
        with tracer.span("rowen.nilpotency"):  # 1 .. 4
            with tracer.span("rowen.nilpotency"):  # 2 .. 3
                pass
        with tracer.span("rowen.bits"):  # 5 .. 6
            pass
    by_name = {name: (sid, parent) for sid, parent, name, _, _ in tracer.spans}
    root_id = by_name["cli.rowen"][0]
    assert by_name["cli.rowen"][1] is None
    assert by_name["rowen.bits"][1] == root_id
    metrics = spans.layer_metrics(tracer)
    assert metrics["rowen.nilpotency_s"] == 3  # self times 2 + 1
    assert metrics["rowen.bits_s"] == 1
    assert metrics["cli.rowen_s"] == 7
    assert metrics["cli.rowen_unattributed_s"] == 7 - 3 - 1
    assert metrics["cli.theorem32_s"] == 0


def test_tail_percentile_picks_highest_with_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (pytest.approx(100 / 11), 0)
    pct, value = run.tail_percentile(list(range(40, 0, -1)))
    assert pct == 75 and value == 30
    assert sum(1 for v in range(1, 41) if v > value) == 10
    stats = run.timing([0.5] * 12)
    assert stats["samples"] == 12 and stats["percentile"] == pytest.approx(16.67)
    assert run.timing([1.0, 3.0])["percentile"] is None


def test_check_outputs_reports_each_kind_of_difference():
    commands = TINY[:2]
    texts = [run.command_text(c) for c in commands]
    goldens = [{"command": t, "exit_code": 0, "stdout": "a: 1\n"} for t in texts]
    ok = {"exit_code": 0, "stdout": "a: 1\n", "error": None}
    assert run.check_outputs(commands, [ok, ok], goldens) == []
    problems = run.check_outputs(commands, [dict(ok, stdout="a: 2\n"), dict(ok, exit_code=1)], goldens)
    assert "stdout differs from golden at byte 3" in problems[0]
    assert "exit code 1, golden 0" in problems[1]
    problems = run.check_outputs(commands, [dict(ok, error="ValueError: x"), ok], goldens[:1])
    assert "raised ValueError" in problems[0] and "no golden" in problems[1]


def test_corrupted_golden_counts_as_failure_in_traced_and_untraced_samples():
    commands = TINY[:1]
    good = worker.run_commands(commands)
    goldens = [{"command": run.command_text(commands[0]), "exit_code": 0,
                "stdout": good[0]["stdout"].replace("true", "fals", 1)}]
    result = run.measure(commands, goldens, seconds=0, trace=True, run_tag="test")
    assert [s["traced"] for s in result["samples"]] == [False, True]
    assert result["attempted"] == 2
    assert len(result["problems"]) == 2
    assert all("stdout differs from golden" in p for p in result["problems"])
    assert result["samples"][1]["layers"]["interleave.segments"] > 0


def test_wrappers_leave_stdout_unchanged_and_are_removed():
    owners = {
        words.MorphicStream: ["prefix"], words.SuffixAutomaton: ["__init__", "factor_counts"],
        interleave.InterleaveStream: ["prefix"], monalg.WordFactorView: ["is_zero_monomial"],
        rowen.ThueMorseSequence: ["word_prefix"], rowen.BandMatrix: ["__mul__"],
        grading: ["certify_graded_nilpotence", "weight_sum_prefix", "longest_ap"],
        interleave: ["certify_graded_nilpotence", "weight_sum_prefix", "pattern_images",
                     "linear_independence"],
        monalg: ["is_cube_free", "pattern_images", "linear_independence"],
        rowen: ["correspondence_scan", "tm_word_stream", "nilpotency_index", "growth_profile"],
    }
    before = {(o, a): vars(o).get(a) for o, attrs in owners.items() for a in attrs}
    plain = worker.run_commands(TINY)

    tracer = spans.Tracer("test")
    patches = spans.install(tracer)
    try:
        assert {(o, a) for o, a, _ in patches} == set(before)
        traced = worker.run_commands(TINY, tracer)
    finally:
        spans.uninstall(patches)

    assert {key: vars(key[0]).get(key[1]) for key in before} == before
    assert [o["error"] for o in plain] == [None] * len(TINY)
    untimed = [[{k: v for k, v in o.items() if k not in ("seconds", "loop_s")} for o in outs] for outs in (traced, plain)]
    assert untimed[0] == untimed[1]
    metrics = spans.layer_metrics(tracer)
    for metric in spans.COUNT_METRICS:
        assert metrics[metric] > 0, metric
    for metric in [*spans.SELF_TIME_METRICS, *spans.TOTAL_TIME_METRICS]:
        assert metrics[metric] > 0, metric
    for command in spans.COMMANDS:
        assert 0 < metrics[f"cli.{command}_unattributed_s"] < metrics[f"cli.{command}_s"], command


def test_thue_morse_stream_counts_as_rowen_bits_only():
    tracer = spans.Tracer("test")
    patches = spans.install(tracer)
    try:
        worker.run_commands(TINY[1:3], tracer)
    finally:
        spans.uninstall(patches)
    metrics = spans.layer_metrics(tracer)
    assert metrics["rowen.bits_s"] > 0
    assert metrics["words.morphic_prefix_s"] == metrics["words.letters_built"] == 0


def test_benchmark_json_names_the_metrics_the_harness_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    reported = set(spans.layer_metrics(spans.Tracer("empty"))) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    for name in run.WORKLOADS:
        goldens = run.load_goldens(name)
        assert [g["command"] for g in goldens] == [run.command_text(c) for c in run.WORKLOADS[name]]


def test_sample_wall_corrects_each_command_by_its_loop_time():
    ref = run.REF_LOOP_S
    sample = {"outputs": [{"seconds": 2.0, "loop_s": 2 * ref}, {"seconds": 1.0, "loop_s": ref / 2}]}
    raw, corrected = run.sample_wall(sample)
    assert raw == 3.0
    assert corrected == pytest.approx(2.0 / 2 + 1.0 * 2)


def test_speed_sampler_ticks_during_a_command_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with worker.SpeedSampler() as speed:
        end = time.perf_counter() + 2.2 * worker.TICK_S
        while time.perf_counter() < end:
            pass
    assert len(speed.loops) >= 2 and speed.busy >= sum(speed.loops)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

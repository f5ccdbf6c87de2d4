#!/usr/bin/env python3
"""The wordalg benchmark: time a workload to a verified verdict.

    python3 perfbench/run.py --workload theorem32-4m --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                  # every workload, every metric
    python3 perfbench/run.py --write-goldens                 # regenerate goldens/

Every sample is a fresh child interpreter (``worker.py``), one at a time.
A run takes about ``--seconds`` seconds.  With ``--trace 0`` it repeats the
workload in fresh children, times set-up in bare children started between
them, and reports the medians of ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  Both timings are corrected to a reference host speed with
the calibration loop of ``worker.py``; the raw times are in the record.
With ``--trace 1`` it alternates untraced and traced samples, and reports
the per-layer metrics of ``spans.py``.
Each command's stdout and exit code are compared with ``goldens/`` on every
sample, traced ones included.

Stdout: one summary line per metric, one JSON record (environment, sample
counts, percentiles, failures), and as the last line the result object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics and units are
those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COMMANDS
from workloads import WORKLOADS, command_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens"
SETUP_PROBES = 10
# bare children started before each workload sample, until SETUP_PROBES ran,
# so that set-up is sampled across the whole run
PROBES_PER_SAMPLE = 2
# worker.loop_time() on the 2-core Xeon VM the benchmark was tuned on, at
# that host's usual speed.  A time scaled by REF_LOOP_S / (the loop's time
# next to it) reads as a wall time on that host, and no longer moves with
# how fast the shared host runs this minute.
REF_LOOP_S = 0.004
# One run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 170
SEED_EFFECT = "none: the workloads are fixed mathematical inputs"
ISOLATION = "each sample ran in a fresh child interpreter, one child at a time; no whole-machine tracing"


class ChildFailed(RuntimeError):
    """A child interpreter crashed, timed out or printed no result."""


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(samples) -> tuple[float, float] | None:
    """The highest percentile with at least 10 samples beyond it, as
    (percent, value) by the nearest-rank rule; None below 11 samples."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10
    return 100 * rank / n, sorted(samples)[rank - 1]


def timing(samples) -> dict:
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples),
        "percentile": None if tail is None else round(tail[0], 2),
        "value_at_percentile": None if tail is None else tail[1],
        "samples": len(samples),
    }


# ---------------------------------------------------------------------------
# goldens


def golden_path(workload: str) -> Path:
    return GOLDENS / f"{workload}.json"


def load_goldens(workload: str) -> list[dict]:
    """The workload's golden outcomes; [] (every command then fails) when the
    file is missing or unreadable."""
    try:
        goldens = json.loads(golden_path(workload).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"warning: no usable goldens for {workload}: {exc}", file=sys.stderr)
        return []
    return goldens if isinstance(goldens, list) else []


def _first_difference(got: str, want: str) -> int:
    a, b = got.encode(), want.encode()
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def check_outputs(commands, outputs, goldens) -> list[str]:
    """One problem line per command whose stdout, exit code or completion
    differs from its golden."""
    problems = []
    for i, (command, out) in enumerate(zip(commands, outputs)):
        text = command_text(command)
        want = goldens[i] if i < len(goldens) and isinstance(goldens[i], dict) else {}
        if want.get("command") != text:
            problems.append(f"{text}: no golden")
        elif out["error"] is not None:
            problems.append(f"{text}: raised {out['error']}")
        elif out["exit_code"] != want.get("exit_code"):
            problems.append(f"{text}: exit code {out['exit_code']}, golden {want.get('exit_code')}")
        elif out["stdout"] != want.get("stdout"):
            problems.append(f"{text}: stdout differs from golden at byte "
                            f"{_first_difference(out['stdout'], str(want.get('stdout')))}")
    return problems


# ---------------------------------------------------------------------------
# children


def spawn(mode: str, deadline: float, job: dict | None = None) -> dict:
    """Run worker.py in a fresh interpreter; its result plus the set-up time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # users run compiled bytecode, so the uncounted first child writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = max(1.0, deadline - time.monotonic())
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode],
            input=json.dumps(job) if job else "",
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = result["ready_at"] - started
    result["setup_s"] = at_reference_speed(result["setup_raw_s"], result["setup_loop_s"])
    if mode == "run":
        result["wall_raw_s"], result["wall_s"] = sample_wall(result)
    return result


def at_reference_speed(seconds: float, loop_s: float) -> float:
    return seconds * REF_LOOP_S / loop_s


def sample_wall(sample: dict) -> tuple[float, float]:
    """A run sample's wall time, raw and corrected: the sum over its
    commands, each corrected by the loop time the worker read around it."""
    outputs = sample["outputs"]
    return (sum(out["seconds"] for out in outputs),
            sum(at_reference_speed(out["seconds"], out["loop_s"]) for out in outputs))


def measure(commands, goldens, seconds: int, trace: bool, run_tag: str) -> dict:
    """Repeat the commands in fresh children for about ``seconds`` seconds,
    set-up probes included: another sample starts only while one as long as
    the longest so far still fits."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    spawn("probe", deadline)  # not counted: lets the pyc and page caches fill
    probes, samples, problems = [], [], []
    attempted = 0
    longest = 0.0
    while True:
        # a trace run alternates untraced and traced samples, untraced first
        traced = trace and len(samples) % 2 == 1
        sample_start = time.monotonic()
        if not trace:
            count = min(PROBES_PER_SAMPLE, SETUP_PROBES - len(probes))
            probes += [spawn("probe", deadline) for _ in range(count)]
        attempted += len(commands)
        try:
            sample = spawn("run", deadline, {
                "commands": commands, "trace": traced, "run_id": f"{run_tag}-{len(samples)}",
            })
        except ChildFailed as exc:
            problems.extend(f"{command_text(c)}: {exc}" for c in commands)
            break
        longest = max(longest, time.monotonic() - sample_start)
        problems.extend(check_outputs(commands, sample["outputs"], goldens))
        sample["traced"] = traced
        samples.append(sample)
        enough = len(samples) >= (2 if trace else 1)
        if enough and time.monotonic() - started + longest > seconds:
            break
    return {"samples": samples, "set_up": probes + samples, "attempted": attempted, "problems": problems}


# ---------------------------------------------------------------------------
# run environment


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the program the benchmark ran: src/, scripts/ and morphisms/."""
    digest = hashlib.sha256()
    for top in ("src", "scripts", "morphisms"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return None


def environment(seed: int, samples) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "seed_effect": SEED_EFFECT,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": samples[0]["numpy"] if samples else None,
        "isolation": ISOLATION,
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Measure one workload; return (metric values, JSON record)."""
    commands = WORKLOADS[name]
    run = measure(commands, load_goldens(name), seconds, trace, f"{name}-seed{seed}-pid{os.getpid()}")
    samples = run["samples"]
    failed = len(run["problems"])
    record = {
        "workload": name,
        "trace": int(trace),
        "run_seconds": seconds,
        "commands": [command_text(c) for c in commands],
        "environment": environment(seed, samples),
        "attempted": run["attempted"],
        "failed": failed,
        "fail_rate": failed / run["attempted"],
        "failures": run["problems"][:10],
    }
    values: dict[str, float] = {}
    if not trace:
        times = {key: [s[key] for s in samples] for key in ("wall_s", "wall_raw_s")}
        times.update({key: [s[key] for s in run["set_up"]] for key in ("setup_s", "setup_raw_s")})
        rss = [s["peak_rss_mb"] for s in samples]
        if rss:
            values = {"wall_s": statistics.median(times["wall_s"]),
                      "setup_s": statistics.median(times["setup_s"]),
                      "peak_rss_mb": statistics.median(rss)}
            record["timings"] = {key: timing(v) for key, v in times.items()}
        record["samples"] = {"wall_s": len(samples), "setup_s": len(run["set_up"]), "peak_rss_mb": len(rss)}
    else:
        traced = [s for s in samples if s["traced"]]
        if traced:
            for metric in traced[0]["layers"]:
                values[metric] = statistics.median(s["layers"][metric] for s in traced)
            untraced_wall = statistics.median(s["wall_s"] for s in samples if not s["traced"])
            traced_wall = statistics.median(s["wall_s"] for s in traced)
            values["trace.overhead_s"] = traced_wall - untraced_wall
            record["overhead"] = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                                  "overhead_s": traced_wall - untraced_wall}
            record["run_ids"] = [s["run_id"] for s in traced]
            record["span_summary"] = traced[0]["span_summary"]
        record["samples"] = {"untraced": len(samples) - len(traced), "traced": len(traced)}
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if values and sorted(values) != sorted(expected):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(expected))} disagree with BENCHMARK.json")
    return values, record


def print_summary(name: str, values: dict, record: dict, spec: dict):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {name} (trace {record['trace']}, samples {record['samples']})")
    timings = record.get("timings", {})
    for metric, value in values.items():
        extra = ""
        stats = timings.get(metric)
        if stats:
            at = ("no percentile has 10 samples beyond it" if stats["percentile"] is None
                  else f"p{stats['percentile']:g} {stats['value_at_percentile']:.6g}")
            extra = f"  (median; {at}; n={stats['samples']})"
            raw = timings[metric.replace("_s", "_raw_s")]
            extra += f"; raw median {raw['median']:.6g} s"
        print(f"{metric:34s} {value:14.6g} {units[metric]}{extra}")
    print(f"{'fail_rate':34s} {record['fail_rate']:14.6g} ratio  "
          f"({record['failed']}/{record['attempted']} commands failed)")
    for problem in record["failures"]:
        print(f"FAILED {problem}")
    for command in COMMANDS:
        total = values.get(f"cli.{command}_s")
        if total:
            loose = values[f"cli.{command}_unattributed_s"]
            print(f"unattributed in {command}: {loose:.6g} s of {total:.6g} s ({100 * loose / total:.1f}%)")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="recorded; the workloads do not depend on it")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"], help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true",
                        help="run every workload once and store its stdout and exit codes")
    args = parser.parse_args(argv)
    if not args.write_goldens and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "wordalg" / "cli.py").is_file():
        print(f"error: {ROOT} holds no wordalg sources (src/wordalg)", file=sys.stderr)
        return 2
    try:
        return write_goldens() if args.write_goldens else run_and_report(args, spec)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_and_report(args, spec: dict) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        values, record = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print_summary(name, values, record, spec)
        print(json.dumps({"record": record}))
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]:
            if metric["name"] in values:
                key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
                result["metrics"][key] = {"value": values[metric["name"]], "unit": metric["unit"]}
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


def write_goldens() -> int:
    GOLDENS.mkdir(exist_ok=True)
    for name, commands in WORKLOADS.items():
        sample = spawn("run", time.monotonic() + RUN_BUDGET_S,
                       {"commands": commands, "trace": False, "run_id": "goldens"})
        for command, out in zip(commands, sample["outputs"]):
            if out["error"] is not None:
                print(f"error: {command_text(command)} raised {out['error']}", file=sys.stderr)
                return 1
        goldens = [{"command": command_text(c), "exit_code": o["exit_code"], "stdout": o["stdout"]}
                   for c, o in zip(commands, sample["outputs"])]
        golden_path(name).write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {golden_path(name).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark sample in a fresh interpreter.

    python perfbench/worker.py probe
    python perfbench/worker.py run < job.json

Both modes first set up as a user's invocation does: import ``wordalg.cli``
from the checkout's ``src/`` and build its parser.  They report the
CLOCK_MONOTONIC time at which set-up ended, so that the parent, which read
the same clock just before the spawn, can time set-up, and the time of the
calibration loop right after set-up.  ``run`` then reads
``{"commands": [...], "trace": bool, "run_id": str}`` on stdin, runs the
commands in order with their stdout captured, times the calibration loop
after each command and every ``TICK_S`` seconds during it, and prints one
JSON result on the real stdout.  With ``trace`` the layer wrappers of
``spans.py`` are installed around the commands and removed afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import runpy
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CAL_ITERATIONS = 60_000
CAL_REPEATS = 5
TICK_S = 0.1


def loop_time(repeats: int = CAL_REPEATS) -> float:
    """The median time of a fixed pure-Python loop, about 4 ms a repeat.

    The host shares its cores, and the speed it gives this process changes
    by up to half from one minute to the next.  The loop's time, read next
    to a measured interval, tells the parent how fast the host ran then."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(CAL_ITERATIONS):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Times one repeat of the loop every ``TICK_S`` seconds while a command
    runs, from a SIGALRM handler on the main thread, so that a long command's
    speed is read all through it and not only at its two ends.  ``busy`` is
    the handlers' own time, which the command's time leaves out."""

    def __enter__(self):
        self.loops, self.busy = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.loops.append(loop_time(repeats=1))
        self.busy += time.perf_counter() - start


def _run_script(argv) -> int:
    path = os.path.join(ROOT, "scripts", argv[0])
    saved = sys.argv
    sys.argv = [path, *argv[1:]]
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:  # sys.exit(None) is 0 and sys.exit("message") is 1
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.argv = saved
    return 0


def run_commands(commands, tracer=None) -> list[dict]:
    """Run the commands in order; return each one's outcome, with its wall
    time from its start to its report and ``loop_s``, the median of the loop
    times just before, during and just after it."""
    from wordalg import cli
    from workloads import command_name

    outputs = []
    before = loop_time()
    for kind, argv in commands:
        buf = io.StringIO()
        code, error = None, None
        root = tracer.span("cli." + command_name((kind, argv))) if tracer else contextlib.nullcontext()
        speed = SpeedSampler()
        start = time.perf_counter()
        try:
            with root, speed, contextlib.redirect_stdout(buf):
                code = cli.run(argv) if kind == "cli" else _run_script(argv)
        except Exception as exc:  # counted as a failed command by the parent
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start - speed.busy
        after = loop_time()
        outputs.append({"exit_code": code, "stdout": buf.getvalue(), "error": error, "seconds": seconds,
                        "loop_s": statistics.median([before, *speed.loops, after])})
        before = after
    return outputs


def main() -> int:
    sys.path.insert(0, SRC)
    from wordalg import cli

    cli._build_parser()
    ready_at = time.monotonic()
    setup_loop_s = loop_time()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"wordalg was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    mode = sys.argv[1:]
    if mode == ["probe"]:
        print(json.dumps({"ready_at": ready_at, "setup_loop_s": setup_loop_s}))
        return 0
    if mode != ["run"]:
        print("usage: worker.py probe | run < job.json", file=sys.stderr)
        return 2

    import numpy

    import spans

    job = json.load(sys.stdin)
    tracer = spans.Tracer(job["run_id"]) if job["trace"] else None
    patches = spans.install(tracer) if tracer else []
    try:
        outputs = run_commands(job["commands"], tracer)
    finally:
        spans.uninstall(patches)
    result = {
        "ready_at": ready_at,
        "setup_loop_s": setup_loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
        "numpy": numpy.__version__,
    }
    if tracer:
        result["run_id"] = tracer.run_id
        result["layers"] = spans.layer_metrics(tracer)
        result["span_summary"] = spans.span_summary(tracer)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

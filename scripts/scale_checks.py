#!/usr/bin/env python3
"""Run the scale checks of the three constructions as CI does: python scripts/scale_checks.py

Each check runs one ``wordalg`` command in a child interpreter with ``src/`` on
its path and prints one line: name, exit code, seconds/bound, peak MB/bound
(``-``: no bound), then ``pass``, or ``FAIL``, the reasons and the child's
stderr.  Exits 1 if any check fails.
"""

import os
import re
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SUB_XY, THUE_MORSE = (str(REPO / "morphisms" / name) for name in ("sub_xy.morph", "thue_morse.morph"))
WORDALG = (sys.executable, "-m", "wordalg")
SPEC = "{spec}"  # in an argv: the file holding the check's spec text
FLAGGED = ("flagged: 3,6,9,12,15,18,21,24",)


@dataclass(frozen=True)
class Check:
    """A ``wordalg`` argv, its exit code, patterns that must each match a whole
    line of stdout or of stderr, bounds in seconds and MB (None: no bound),
    and the text of the spec file that the argv names as ``SPEC``."""
    name: str
    argv: tuple[str, ...]
    exit: int
    stdout: tuple[str, ...] = ()
    stderr: tuple[str, ...] = ()
    seconds: float | None = None
    mb: float | None = None
    spec: str | None = None


# times and peaks quoted below are this script's own readings on a 2-core VM
CHECKS = (
    # the fixed point of x -> x y^5000, y -> y^5001 x has its second x after
    # 10,002 letters, past a 10,000-letter search horizon: the prefix search
    # doubles until it finds it, so the spec certifies within the bound; it
    # peaks at 29 MB, and the 60 MB bound catches a stream that substitutes a
    # piece of input letters, not of images (25,015,001 letters, 101 MB)
    Check("certify-late", ("certify", "--spec", SPEC), 0, ("verdict: CERTIFIED",), seconds=10, mb=60,
          spec=f"x y\nx -> x{'y' * 5000}\ny -> {'y' * 5001}x\nweights: 1 2\n"),
    # 4,094 rows that own no column over 187 columns: the mod-p certificate
    # refuses them before any matrix, so the exact elimination decides it: a
    # sparse integer one in about 0.6 s, a dense rational one in about a minute
    Check("rank-dependent", ("free", "--view", "word", "--spec", SUB_XY, "--gens", "1*x + 1*y;1*x + 2*y",
                             "--horizon", "100000", "--Lfree", "11"), 1, ("rank: 187",), seconds=20),
    # 2,046 products of 1*x + 1*y and 1*x + -1*y in the free algebra, all with
    # int coefficients: about 1.4 s with native int arithmetic and 5-8 s with
    # Fraction coefficients, so the time bound catches a return to a much
    # slower path, not to the Fraction one; it peaks at 208 MB: over a 28 MB
    # interpreter, 120 MB of images (1,398,100 terms), which are their own
    # integer rows, 11 MB of the one flattening of their columns and 45 MB of
    # the mod-p step (the 2046^2 int64 matrix and its int32 positions and
    # residues); the 260 MB bound catches a second live copy of the images,
    # not noise; a copy of the rows alone (the 246 MB before the rows aliased
    # the images) stays under it, and the identity test of _integer_rows
    # catches that
    Check("rank-free", ("free", "--view", "free", "--letters", "xy", "--gens", "1*x + 1*y;1*x + -1*y", "--Lfree", "10"),
          0, ("rank: 2046",), seconds=20, mb=260),
    # the 1,022 images of 1*x + 1*y and 1*z + 1*w in the cube view have
    # disjoint supports, so every row owns a column and neither elimination
    # runs, with no matrix at all: about 0.8 s and 68 MB; the 300 MB bound
    # catches a return to a dense matrix over every image's columns (1.9 GB)
    Check("rank-cubes", ("free", "--view", "cubes", "--letters", "xyzw", "--gens", "1*x + 1*y;1*z + 1*w", "--Lfree", "9"),
          0, ("rank: 1022",), seconds=20, mb=300),
    # the only run that reaches sum-block 20 of the universal sequence (the
    # benchmark's 4e6 horizon stops at block 18): about 0.4 s and 86 MB, so
    # the 30 s bound catches a lost kernel (a per-letter Python loop or a dense
    # per-block matrix), not noise; the peak is inside the factor index of the
    # 1e7-letter prefix: over a 29 MB interpreter, the base word's codes (10 MB
    # in a buffer of the request plus one growth, whose unwritten tail is
    # never touched and so not resident), the sequence's parts and priming
    # bits (12 MB), and the prefix as text, as Latin-1 bytes and as codes
    # (10 MB each); the 112 MB bound catches a return to int64 terms or
    # whole-block temporaries in the sequence (over 160 MB) or to scanning the
    # interleaved prefix's weight sums (about 395 MB); a stored interleaved
    # word alone (its 16 MB buffer, the 104 MB before it went) stays under it,
    # and test_interleave_stream_builds_about_what_is_asked catches that
    Check("theorem32-1e7", ("theorem32", "--horizon", "10000000", "--Lfree", "5", "--dmax", "6"), 0,
          ("all_clear: true",), seconds=30, mb=112),
    # products of degree up to 10 in the interleaved word's four letters:
    # lengths up to 8 are read off one sorted table of 8-windows of the
    # 1e6-letter prefix, 9 and 10 pack and sort their own windows; about
    # 0.3 s, so the 30 s bound catches a lost kernel, not noise
    Check("rank-tilde", ("free", "--view", "tilde", "--gens", "1*x + 1*y;1*x' + 1*y'", "--Lfree", "10",
                         "--horizon", "1000000"), 0, ("rank: 2046",), seconds=30),
    # almost none of the 2,000 Thue-Morse degrees settle at horizon 1000, so
    # each reads the 1e5 horizon too; shift-and doubling takes about 0.3 s and
    # a per-residue-class loop about 28 s, so the 10 s bound catches a return
    # to a per-class loop; exit 1 is the flagged verdict
    Check("scan-dmax2000", ("scan", "--spec", THUE_MORSE, "--dmax", "2000", "--horizons", "1000,100000"), 1,
          ("ap_lengths_d2000: .*",), seconds=10),
    # the Thue-Morse weight sums up to 1.6e7 letters are composed from the
    # sets of f^j(x) and f^j(y), held as ints, and no letter is built: about
    # 0.35 s and 45 MB, so the 68 MB bound (about 1.5x) catches a return to
    # building the prefix and a byte mask per unit of weight (98 MB) or an
    # int64 array per letter (about 337 MB); exit 1 is the flagged verdict
    Check("scan-thue-morse-1.6e7", ("scan", "--spec", THUE_MORSE, "--dmax", "24", "--horizons", "100000,1000000,16000000"),
          1, FLAGGED, seconds=30, mb=68),
    # x -> xyz has no covering words, so no degree settles at the smallest
    # horizon and the scan builds the 1.6e7-letter sums as well; its blocks
    # f^j(yz) grow linearly, so they are about 5,700 levels deep, the only
    # run of such a descent at scale: about 1.0 s and 73 MB, so the 110 MB
    # bound (about 1.5x) catches a return to the prefix and its byte mask
    # (124 MB); exit 1 is the flagged verdict
    Check("scan-xyz-1.6e7", ("scan", "--spec", SPEC, "--dmax", "24", "--horizons", "100000,1000000,16000000"), 1,
          FLAGGED, seconds=30, mb=110, spec="x y z\nx -> xyz\ny -> yz\nz -> z\nweights: 1 2 3\n"),
    # the fixed point x y y y ... is eventually periodic, the only run of that
    # branch of the composed sums at scale: the head x and the period y are
    # letter codes, and the period's set is repeated by doubling; the sums are
    # 0 and the odd numbers, so every even degree grows, d2's AP is all n odd
    # sums and d24's is 1 + (2n - 2) // 24 of them; about 0.7-1.0 s and 49 MB, so
    # the 74 MB bound (about 1.5x) catches a return to the letters and a byte
    # mask (about 90 MB), and the 30 s bound only a lost kernel; exit 1 is
    # the flagged verdict
    Check("scan-periodic-1.6e7", ("scan", "--spec", SPEC, "--dmax", "24", "--horizons", "100000,1000000,16000000"), 1,
          ("flagged: 2,4,6,8,10,12,14,16,18,20,22,24", "ap_lengths_d2: 100000,1000000,16000000",
           "ap_lengths_d3: 2,2,2", "ap_lengths_d24: 8334,83334,1333334"),
          seconds=30, mb=74, spec="x y\nx -> xy\ny -> y\nweights: 1 2\n"),
    # the Thue-Morse factor counts up to length 32,768, the only run of the
    # covering codes and the suffix automaton at that length: the 4 covering
    # words phi^16(ac), 262,144 letters, in 344,067 automaton states;
    # both sums equal the Brlek (1989) closed form summed to n = 16,384 and
    # 32,768; about 0.5-0.75 s and 136 MB; the 170 MB bound (about 1.25x)
    # catches one covering level more than needed, which doubles the automaton
    # (243 MB, as growth --nvalues 32768 reads); the time varies by half from
    # run to run, so the 10 s bound catches only a lost kernel
    Check("growth-16384", ("growth", "--nvalues", "16384", "--horizon", "131072"), 0,
          ("cumulative: 424998233", "cumulative_at_2n: 1700042073", "quadratic: true"), seconds=10, mb=170),
)


def _reap(pid: int, seconds: float | None):
    """Wait for the child, killed once ``seconds`` pass; return (status, its own rusage, killed)."""
    deadline = time.monotonic() + (float("inf") if seconds is None else seconds)
    try:
        while time.monotonic() < deadline:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, usage, False
            time.sleep(0.01)
    except BaseException:  # an interrupt leaves no child running
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    os.kill(pid, signal.SIGKILL)
    return *os.wait4(pid, 0)[1:], True


def run(check: Check) -> tuple[bool, str]:
    """Run one check; return whether it passed and its line, then the child's stderr if it failed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))}
    with tempfile.TemporaryDirectory() as tmp:
        spec, out, err = (os.path.join(tmp, name) for name in ("check.morph", "stdout", "stderr"))
        if check.spec is not None:
            Path(spec).write_text(check.spec)
        argv = [*WORDALG, *(spec if arg == SPEC else arg for arg in check.argv)]
        start = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, fd, path, os.O_WRONLY | os.O_CREAT, 0o600) for fd, path in ((1, out), (2, err))])
        status, usage, killed = _reap(pid, check.seconds)
        seconds, mb = time.monotonic() - start, usage.ru_maxrss / 1024  # KiB on Linux
        stdout, stderr = (Path(path).read_text(errors="replace") for path in (out, err))
    code = os.waitstatus_to_exitcode(status)
    failures = [reason for failed, reason in (
        (killed, f"timed out after {check.seconds} s"),
        (code != check.exit and not killed, f"exit {code}, expected {check.exit}"),
        *((not any(re.fullmatch(p, line) for line in text.splitlines()), f"no line {p!r}")
          for text, patterns in ((stdout, check.stdout), (stderr, check.stderr)) for p in patterns),
        (check.mb is not None and mb > check.mb, f"peak RSS {mb:.0f} MB over {check.mb} MB"),
        ("Traceback" in stderr, "traceback on stderr"),
    ) if failed]
    bounds = ["-" if bound is None else bound for bound in (check.seconds, check.mb)]
    line = (f"{check.name:<22} exit {code:>2}  {seconds:6.2f}/{bounds[0]} s  {mb:4.0f}/{bounds[1]} MB  "
            + ("FAIL: " + "; ".join(failures) if failures else "pass"))
    return not failures, line + (f"\n{stderr.rstrip()}" if failures and stderr.strip() else "")


def main() -> int:
    failed = 0
    for check in CHECKS:
        passed, report = run(check)
        print(report, flush=True)
        failed += not passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

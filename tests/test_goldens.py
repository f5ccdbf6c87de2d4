"""Byte-for-byte goldens: stdout and exit code of the documented commands.

Every command of the README's "Command line" block runs in-process through
``wordalg.cli.run``, and ``test_readme_command_lines_have_goldens`` checks that
the block holds exactly those commands; ``scripts/operator_report.py`` runs at
its defaults in a child interpreter.  A few factor-view commands and the
scans and certificates the README lacks are pinned too.
Each golden file under ``tests/goldens/`` holds the exit code on its first
line (``# exit <code>``) and the exact stdout after it.

Regenerate (only when a report is meant to change):

    PYTHONPATH=src python tests/test_goldens.py --write
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from wordalg.cli import run
from wordalg.monalg import HorizonWarning

REPO = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"

# name -> ("cli", argv) for wordalg.cli.run, or ("script", argv) for scripts/<argv[0]>;
# the README's "Command line" block, in its order
README_COMMANDS: dict[str, tuple[str, list[str]]] = {
    "analyze_sub_xy": ("cli", ["analyze", "--spec", "morphisms/sub_xy.morph"]),
    "word_sub_xy": ("cli", ["word", "--spec", "morphisms/sub_xy.morph", "--start", "x", "--length", "5"]),
    "certify_sub_xy_u": ("cli", ["certify", "--spec", "morphisms/sub_xy.morph", "--weights", "1,2", "--u", "xyy"]),
    "certify_thue_morse": ("cli", ["certify", "--spec", "morphisms/thue_morse.morph", "--weights", "1,2"]),
    # a gcd above 1 after |A| terms is the gcd of the whole sequence, so
    # --weights 2,4 is decided: exit 1, gcd=2
    "certify_sub_xy_gcd2": ("cli", ["certify", "--spec", "morphisms/sub_xy.morph", "--weights", "2,4"]),
    "scan_thue_morse": ("cli", ["scan", "--spec", "morphisms/thue_morse.morph", "--dmax", "6", "--horizons", "1000,10000"]),
    "theorem32_1m": ("cli", ["theorem32", "--horizon", "1000000", "--Lfree", "5", "--dmax", "6"]),
    "free_cubes": ("cli", ["free", "--view", "cubes", "--letters", "xyzw", "--gens", "1*x + 1*y;1*z + 1*w", "--Lfree", "4"]),
    "rowen_4096": ("cli", ["rowen", "--N", "4096", "--maxlen", "12"]),
    "growth_default": ("cli", ["growth", "--nvalues", "64,128,256"]),
    "growth_periodic_xy": ("cli", ["growth", "--periodic", "xy"]),
}

COMMANDS: dict[str, tuple[str, list[str]]] = {
    **README_COMMANDS,
    # factor-view commands the README lacks
    "free_tilde": ("cli", ["free", "--view", "tilde", "--gens", "1*x + 1*y;1*x' + 1*y'", "--Lfree", "4"]),
    # dependent only because xxx is unseen within the horizon
    "free_tilde_unseen": ("cli", ["free", "--view", "tilde", "--gens", "1*x", "--Lfree", "3", "--horizon", "1000"]),
    "free_word_sub_xy": ("cli", ["free", "--view", "word", "--spec", "morphisms/sub_xy.morph", "--gens", "1*x;1*y", "--Lfree", "4"]),
    # a dependent system: the certificate fails and exact elimination gives the witness
    "free_word_sub_xy_dependent": ("cli", [
        "free", "--view", "word", "--spec", "morphisms/sub_xy.morph",
        "--gens", "1*x + 1*y;1*x + 2*y", "--horizon", "100000", "--Lfree", "10",
    ]),
    # proper-fraction generators whose products turn integral (2 * 1/2)
    "free_cubes_fractions": ("cli", [
        "free", "--view", "cubes", "--letters", "xy",
        "--gens", "2*x + 1/2*y;1/2*xy + 2*yx;1*xy + 4*yx", "--Lfree", "3",
    ]),
    # every degree bounded: each row is settled at the smallest horizon
    "scan_sub_xyz": ("cli", ["scan", "--spec", "morphisms/sub_xyz.morph", "--dmax", "24", "--horizons", "1000,100000"]),
    "rowen_word_aaa": ("cli", ["rowen", "--N", "512", "--horizon", "10000", "--word", "aaa"]),
    # u found from the spec's own weights, not given
    "certify_sub_xy": ("cli", ["certify", "--spec", "morphisms/sub_xy.morph"]),
    "scan_sub_xy": ("cli", ["scan", "--spec", "morphisms/sub_xy.morph", "--dmax", "6", "--horizons", "10000,100000"]),
    "analyze_thue_morse": ("cli", ["analyze", "--spec", "morphisms/thue_morse.morph"]),
    # the script at its defaults
    "script_operator_report": ("script", ["operator_report.py"]),
}


def execute(kind: str, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command, run from the repository root."""
    if kind == "script":
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
            cwd=REPO, env=env, capture_output=True, text=True, check=False,
        )
        return proc.returncode, proc.stdout
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("ignore", HorizonWarning)
            code = run(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def render(code: int, stdout: str) -> str:
    return f"# exit {code}\n{stdout}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden(name):
    kind, argv = COMMANDS[name]
    expected = (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
    assert render(*execute(kind, argv)) == expected


def test_readme_command_lines_have_goldens():
    # every `wordalg` line of the block, comments stripped, is the argv of one
    # README entry above, and every such entry is a line of the block
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("wordalg ")]
    assert lines == [["wordalg", *argv] for kind, argv in README_COMMANDS.values()]


def test_every_golden_file_has_a_command():
    assert {p.stem for p in GOLDENS.glob("*.txt")} == set(COMMANDS)


def _write_goldens():
    GOLDENS.mkdir(exist_ok=True)
    for name, (kind, argv) in COMMANDS.items():
        (GOLDENS / f"{name}.txt").write_text(render(*execute(kind, argv)), encoding="utf-8")
        print(f"wrote {name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_goldens()

"""The benchmark's workloads: fixed commands through the real entry points.

A command is ("cli", argv) for ``wordalg.cli.run(argv)``, the function behind
the ``wordalg`` console script, or ("script", argv) for
``python scripts/<argv[0]> argv[1:]``.  The inputs are fixed mathematical
objects (morphisms, horizons, generators), so no workload depends on the
seed.  README.md says why each workload is there, which layers it stresses
and which it bypasses.
"""

from __future__ import annotations

import shlex

WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    "theorem32-4m": [
        ("cli", ["theorem32", "--horizon", "4000000", "--Lfree", "5", "--dmax", "6"]),
    ],
    "thue-morse-1m": [
        ("cli", ["rowen", "--N", "4096", "--maxlen", "14", "--horizon", "1000000"]),
        ("cli", ["growth", "--nvalues", "64,128,256,512", "--horizon", "1000000"]),
        ("script", ["operator_report.py", "--N", "4096"]),
    ],
    "ap-scan-4m": [
        ("cli", ["certify", "--spec", "morphisms/sub_xyz.morph"]),
        ("cli", ["scan", "--spec", "morphisms/sub_xyz.morph", "--dmax", "24",
                 "--horizons", "100000,1000000,4000000"]),
        ("cli", ["certify", "--spec", "morphisms/thue_morse.morph"]),
        ("cli", ["scan", "--spec", "morphisms/thue_morse.morph", "--dmax", "24",
                 "--horizons", "100000,1000000,4000000"]),
    ],
    "exact-rank": [
        ("cli", ["free", "--view", "cubes", "--letters", "xyzw",
                 "--gens", "1*x + 1*y;1*z + 1*w", "--Lfree", "7"]),
        ("cli", ["free", "--view", "free", "--letters", "xy",
                 "--gens", "1*x + 1*y;1*x + -1*y", "--Lfree", "8"]),
    ],
}


def command_name(command) -> str:
    """Root-span label: the subcommand, or the script's stem."""
    kind, argv = command
    return argv[0] if kind == "cli" else argv[0].removesuffix(".py")


def command_text(command) -> str:
    """The command as a user would type it."""
    kind, argv = command
    if kind == "cli":
        return shlex.join(["wordalg", *argv])
    return shlex.join(["python", "scripts/" + argv[0], *argv[1:]])

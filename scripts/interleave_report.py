#!/usr/bin/env python3
"""Run the interleaved-word construction end to end and print the report.

Usage: python scripts/interleave_report.py [--horizon 1000000] [--Lfree 5] [--dmax 6]
"""

import argparse
import sys
import warnings

from wordalg import interleave
from wordalg.cli import emit_report, report_errors
from wordalg.monalg import HorizonWarning


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, default=1_000_000)
    parser.add_argument("--Lfree", type=int, default=5)
    parser.add_argument("--dmax", type=int, default=6)
    args = parser.parse_args()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        report = interleave.construction_pipeline(
            horizon=args.horizon, free_pattern_length=args.Lfree, d_max=args.dmax
        )
    print(emit_report(report.to_record()))


if __name__ == "__main__":
    sys.exit(report_errors(main))

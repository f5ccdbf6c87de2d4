"""Outside-in layer spans for the traced benchmark run.

``install`` wraps the public functions and methods of each ``wordalg`` layer
named in README.md, where the callers look them up, and returns the patches
so that ``uninstall`` can put every original back.  Each wrapper records a
span (id, parent id, name, start, end) on a ``Tracer``, plus the counters of
that layer.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics once the run is over.

Per-letter and per-segment calls such as ``PrefixStream.slice`` are never
wrapped: their counts are read from the objects after the outer call.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Commands that get a root span, "cli.<command>".
COMMANDS = ("theorem32", "rowen", "growth", "certify", "scan", "free", "operator_report")

# metric -> span name whose self time it sums
SELF_TIME_METRICS = {
    "words.morphic_prefix_s": "words.morphic_prefix",
    "words.suffix_automaton_s": "words.suffix_automaton",
    "words.cube_check_s": "words.cube_check",
    "interleave.prefix_s": "interleave.prefix",
    "grading.certify_s": "grading.certify",
    "grading.weight_sums_s": "grading.weight_sums",
    "grading.longest_ap_s": "grading.longest_ap",
    "monalg.factor_view_s": "monalg.factor_view",
    "monalg.pattern_images_s": "monalg.pattern_images",
    "monalg.rank_s": "monalg.rank",
    "rowen.correspondence_s": "rowen.correspondence",
    "rowen.bits_s": "rowen.bits",
    "rowen.nilpotency_s": "rowen.nilpotency",
}

# metric -> span name whose total time it sums (these spans never nest)
TOTAL_TIME_METRICS = {"rowen.growth_s": "rowen.growth"}

COUNT_METRICS = (
    "words.letters_built",
    "words.suffix_automaton_states",
    "words.cube_check_calls",
    "interleave.segments",
    "grading.longest_ap_calls",
    "grading.ap_cells",
    "monalg.zero_tests",
    "monalg.unseen_monomials",
    "monalg.images",
    "monalg.support_terms",
    "monalg.rank_rows",
    "monalg.rank_cols",
    "rowen.words_checked",
    "rowen.band_products",
    "rowen.band_mult_cells",
)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []  # ids of the spans now open, innermost last
        self._next_id = 1

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            self.spans.append((span_id, parent, name, start, self.clock()))
            self._open.pop()

    def count(self, name: str, n: int = 1):
        self.counts[name] += n


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_length(children[span_id], start, end)
        for span_id, _, _, start, end in spans
    }


def span_summary(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Span name -> call count, summed duration and summed self time."""
    own = self_times(tracer.spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span_id, _, name, start, end in tracer.spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[span_id]
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of README.md from one traced run (0 where unreached)."""
    summary = span_summary(tracer)

    def summed(name: str, key: str) -> float:
        return summary[name][key] if name in summary else 0.0

    out: dict[str, float] = {}
    for metric, name in SELF_TIME_METRICS.items():
        out[metric] = summed(name, "self_s")
    for metric, name in TOTAL_TIME_METRICS.items():
        out[metric] = summed(name, "total_s")
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts[metric]
    tests = tracer.counts["monalg.zero_tests"]
    out["monalg.zero_ratio"] = tracer.counts["monalg.zero_results"] / tests if tests else 0.0
    for command in COMMANDS:
        out[f"cli.{command}_s"] = summed(f"cli.{command}", "total_s")
        out[f"cli.{command}_unattributed_s"] = summed(f"cli.{command}", "self_s")
    return out


# ---------------------------------------------------------------------------
# wrappers


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def _band_mult_cells(a, b) -> int:
    """Entries computed by one band product: sum of n - (k1 + k2) over diagonal pairs."""
    n = a.size
    return sum(n - k1 - k2 for k1 in a.diags for k2 in b.diags if k1 + k2 < n)


def install(tracer: Tracer) -> list[tuple[object, str, object | None]]:
    """Wrap each layer boundary; return the patches for ``uninstall``."""
    from wordalg import grading, interleave, monalg, rowen, words

    patches: list[tuple[object, str, object | None]] = []

    def patch(owner, attr, wrapper):
        # None marks an attribute the owner only inherited; uninstall deletes it
        patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def span_only(owner, attr, name):
        patch(owner, attr, _traced(tracer, name, getattr(owner, attr)))

    # words; MorphicStream.prefix never calls itself, so every call is outermost
    morphic_prefix = _traced(tracer, "words.morphic_prefix", words.MorphicStream.prefix)

    def morphic_prefix_counted(self, n):
        before = self._length
        result = morphic_prefix(self, n)
        tracer.count("words.letters_built", self._length - before)
        return result

    patch(words.MorphicStream, "prefix", morphic_prefix_counted)

    automaton_init = _traced(tracer, "words.suffix_automaton", words.SuffixAutomaton.__init__)

    def automaton_init_counted(self, text=""):
        automaton_init(self, text)
        tracer.count("words.suffix_automaton_states", len(self.length))

    patch(words.SuffixAutomaton, "__init__", automaton_init_counted)
    span_only(words.SuffixAutomaton, "factor_counts", "words.suffix_automaton")

    cube_check = _traced(tracer, "words.cube_check", monalg.is_cube_free)

    def cube_check_counted(word):
        tracer.count("words.cube_check_calls")
        return cube_check(word)

    patch(monalg, "is_cube_free", cube_check_counted)

    # interleave
    interleave_prefix = _traced(tracer, "interleave.prefix", interleave.InterleaveStream.prefix)

    def interleave_prefix_counted(self, n):
        cut_points = self.spec.sequence._values
        before = len(cut_points)
        result = interleave_prefix(self, n)
        tracer.count("interleave.segments", len(cut_points) - before)
        return result

    patch(interleave.InterleaveStream, "prefix", interleave_prefix_counted)

    # grading; interleave imported these names into its own namespace
    for module in (grading, interleave):
        span_only(module, "certify_graded_nilpotence", "grading.certify")
        span_only(module, "weight_sum_prefix", "grading.weight_sums")

    longest_ap = _traced(tracer, "grading.longest_ap", grading.longest_ap)

    def longest_ap_counted(sumset, difference):
        tracer.count("grading.longest_ap_calls")
        tracer.count("grading.ap_cells", sumset.max_value + 1)
        return longest_ap(sumset, difference)

    patch(grading, "longest_ap", longest_ap_counted)

    # monalg
    is_zero = _traced(tracer, "monalg.factor_view", monalg.WordFactorView.is_zero_monomial)

    def is_zero_counted(self, word):
        before = len(self.unseen)
        zero = is_zero(self, word)
        tracer.count("monalg.zero_tests")
        tracer.count("monalg.zero_results", int(zero))
        tracer.count("monalg.unseen_monomials", len(self.unseen) - before)
        return zero

    patch(monalg.WordFactorView, "is_zero_monomial", is_zero_counted)

    for module in (monalg, interleave):
        images = _traced(tracer, "monalg.pattern_images", module.pattern_images)
        rank = _traced(tracer, "monalg.rank", module.linear_independence)

        def images_counted(view, gens, max_len, _images=images):
            result = _images(view, gens, max_len)
            tracer.count("monalg.images", len(result))
            tracer.count("monalg.support_terms", sum(len(p.coeffs) for p in result))
            return result

        def rank_counted(polys, _rank=rank):
            polys = list(polys)
            result = _rank(polys)
            tracer.count("monalg.rank_rows", len(polys))
            tracer.count("monalg.rank_cols", len({w for p in polys for w in p.coeffs}))
            return result

        patch(module, "pattern_images", images_counted)
        patch(module, "linear_independence", rank_counted)

    # rowen
    correspondence = _traced(tracer, "rowen.correspondence", rowen.correspondence_scan)

    def correspondence_counted(*args, **kwargs):
        report = correspondence(*args, **kwargs)
        tracer.count("rowen.words_checked", report.checked)
        return report

    patch(rowen, "correspondence_scan", correspondence_counted)
    span_only(rowen.ThueMorseSequence, "word_prefix", "rowen.bits")
    tm_word_stream = rowen.tm_word_stream
    tm_prefix = _traced(tracer, "rowen.bits", words.PrefixStream.prefix)

    def tm_word_stream_traced():
        # an instance attribute shadows the MorphicStream.prefix wrapper, so
        # the Thue-Morse letters count as rowen.bits and not as words.*
        stream = tm_word_stream()
        stream.prefix = functools.partial(tm_prefix, stream)
        return stream

    patch(rowen, "tm_word_stream", tm_word_stream_traced)
    span_only(rowen, "nilpotency_index", "rowen.nilpotency")
    band_mul = _traced(tracer, "rowen.nilpotency", rowen.BandMatrix.__mul__)

    def band_mul_counted(self, other):
        if isinstance(other, rowen.BandMatrix):
            tracer.count("rowen.band_products")
            tracer.count("rowen.band_mult_cells", _band_mult_cells(self, other))
        return band_mul(self, other)

    patch(rowen.BandMatrix, "__mul__", band_mul_counted)
    span_only(rowen, "growth_profile", "rowen.growth")
    return patches


def uninstall(patches):
    """Undo ``install`` in reverse order, restoring every original attribute."""
    for owner, attr, original in reversed(patches):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)

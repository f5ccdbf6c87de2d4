"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import random
import time
import warnings

from wordalg import grading, interleave, monalg, rowen, words

warnings.simplefilter("ignore", monalg.HorizonWarning)


class _Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.failures = []
        self.start = time.perf_counter()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        if elapsed > self.budget:
            self.failures.append(f"took {elapsed:.1f}s, budget {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        detail = "" if not self.failures else f"  [{'; '.join(self.failures)}]"
        print(f"criterion {self.number:>2}: {status} ({elapsed:5.1f}s) {self.description}{detail}", flush=True)
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def test_criterion_01_binary_substitution_regression(sub_xy):
    c = _Criterion(1, "binary substitution: matrix, det, gcd sequence, certificate", 1.0)
    report = words.analyze_morphism(sub_xy)
    c.check(report.matrix == ((1, 1), (1, 2)), f"matrix {report.matrix}")
    c.check(report.det == 1, f"det {report.det}")
    cert = grading.certify_graded_nilpotence(sub_xy, "x", (1, 2), u="xyy")
    c.check(cert.gcd_sequence[:2] == (5, 13), f"gcd sequence {cert.gcd_sequence}")
    c.check(cert.verdict == grading.CERTIFIED, cert.verdict)
    c.finish()


def test_criterion_02_ternary_substitution_regression(sub_xyz):
    c = _Criterion(2, "ternary substitution: matrix, det, oracle-pinned gcd terms", 1.0)
    report = words.analyze_morphism(sub_xyz)
    c.check(report.matrix == ((1, 1, 0), (1, 0, 1), (1, 1, 1)), f"matrix {report.matrix}")
    c.check(report.det == -1, f"det {report.det}")
    cert = grading.certify_graded_nilpotence(sub_xyz, "x", (1, 2, 3), u="xz")
    c.check(cert.gcd_sequence[0] == 4, f"g0 {cert.gcd_sequence}")
    oracle = words.word_weight(sub_xyz.alphabet, sub_xyz.apply("xz"), (1, 2, 3))
    c.check(oracle == 11, f"oracle weight {oracle}")
    c.check(cert.gcd_sequence[1] == oracle, f"g1 {cert.gcd_sequence[1]} vs oracle {oracle}")
    c.check(math.gcd(cert.gcd_sequence[0], cert.gcd_sequence[1]) == 1, "gcd not 1")
    c.check(cert.verdict == grading.CERTIFIED, cert.verdict)
    c.finish()


def test_criterion_03_counterexample_regression(tm_morphism):
    c = _Criterion(3, "determinant-zero counterexample: verdict and growing AP at D=3", 5.0)
    cert = grading.certify_graded_nilpotence(tm_morphism, "x", (1, 2), u="xyy")
    c.check(cert.verdict == grading.NOT_APPLICABLE, cert.verdict)
    c.check(cert.reason == "det=0", cert.reason)
    stream = words.MorphicStream(tm_morphism, "x")
    scan = grading.graded_nilpotence_scan(stream, (1, 2), 6, (1000, 10_000))
    c.check(3 in scan.flagged, f"flags {scan.flagged}")
    c.check(scan.table[3][0] >= 1000 // 3 - 2, f"AP length {scan.table[3][0]} at 10^3")
    c.check(scan.table[3][1] >= 10_000 // 3 - 2, f"AP length {scan.table[3][1]} at 10^4")
    c.finish()


def test_criterion_04_ap_stability(xy_stream):
    c = _Criterion(4, "certified word: longest AP identical at horizons 1e5 and 2e5", 60.0)
    small = grading.weight_sum_prefix(xy_stream, (1, 2), 100_000)
    large = grading.weight_sum_prefix(xy_stream, (1, 2), 200_000)
    for d in range(2, 9):
        a = grading.longest_ap(small, d)
        b = grading.longest_ap(large, d)
        c.check(a == b, f"D={d}: {a} at 1e5 vs {b} at 2e5")
    c.finish()


def test_criterion_05_interleaved_pipeline():
    c = _Criterion(5, "interleaved construction at 1e6: certificate, scan, freeness", 120.0)
    report = interleave.construction_pipeline(horizon=1_000_000, free_pattern_length=5, d_max=6)
    c.check(report.certificate.certified, report.certificate.verdict)
    c.check(report.scan.flagged == (), f"flags {report.scan.flagged}")
    c.check(report.sum_sets_equal, "weight-sum sets differ")
    c.check(report.freeness.patterns_tested == 62, f"patterns {report.freeness.patterns_tested}")
    c.check(report.freeness.independent, "freeness dependent")
    c.check(report.freeness.rank == 62, f"rank {report.freeness.rank}")
    c.check(report.rank_with_identity == 63, f"rank with identity {report.rank_with_identity}")
    c.finish()


def _brute_cube_positions(word):
    n = len(word)
    for i in range(n):
        for p in range(1, (n - i) // 3 + 1):
            if word[i : i + p] == word[i + p : i + 2 * p] == word[i + 2 * p : i + 3 * p]:
                return True
    return False


def test_criterion_06_cube_ideal_view():
    c = _Criterion(6, "cube ideal on four letters: cube vanishing and freeness", 30.0)
    view = monalg.CubeIdealView("xyzw")
    checked = 0
    max_index = 0
    for length in range(1, 7):
        for tup in itertools.product("xyzw", repeat=length):
            m = "".join(tup)
            k = monalg.is_nilpotent_monomial(view, m, 3)
            if k is None:
                c.check(False, f"{m}: cube not zero")
                continue
            # independent oracle: smallest power whose expansion contains a cube
            oracle = next(j for j in range(1, 4) if _brute_cube_positions(m * j))
            c.check(k == oracle, f"{m}: index {k} vs oracle {oracle}")
            max_index = max(max_index, k)
            checked += 1
    c.check(checked == 4 + 16 + 64 + 256 + 1024 + 4096, f"checked {checked}")
    c.check(max_index == 3, f"max index {max_index}")
    gens = [
        monalg.NcPolynomial(view, {"x": 1, "y": 1}),
        monalg.NcPolynomial(view, {"z": 1, "w": 1}),
    ]
    freeness = monalg.freeness_check(view, gens, 4)
    c.check(freeness.independent, "freeness dependent")
    c.check(freeness.rank == freeness.patterns_tested == 30, f"rank {freeness.rank}")
    c.finish()


def test_criterion_07_vanishing_factor_correspondence():
    c = _Criterion(7, "operator vanishing matches factor absence for all words up to length 12", 60.0)
    report = rowen.correspondence_scan(12, 4096)
    c.check(report.checked == 8190, f"checked {report.checked}")
    c.check(report.mismatches == (), f"mismatches {report.mismatches[:5]}")
    c.finish()


def test_criterion_08_graded_nil_vs_non_nil(truncated_nilpotency_index):
    c = _Criterion(8, "exact nilpotency indices match truncations 1024 and 2048; shift is not", 120.0)
    for side in ("a", "b"):
        index = rowen.nilpotency_index(1, side)
        c.check(index == 3, f"index(1,{side}) = {index}")
    for degree in (1, 2, 3):
        all_words = ["".join(t) for t in itertools.product("ab", repeat=degree)]
        for mask in range(1, 2 ** len(all_words)):
            element = {w: 1 for i, w in enumerate(all_words) if mask >> i & 1}
            index = rowen.nilpotency_index(element, "a")
            truncated = [truncated_nilpotency_index(element, "a", n) for n in (1024, 2048)]
            c.check(truncated == [index, index], f"f={sorted(element)}: exact {index}, truncated {truncated}")
    for n in (1024, 2048):
        gen_a, gen_b = rowen.build_generators(n)
        shift = gen_a + gen_b
        c.check(not (shift ** (n - 1)).is_zero(), f"(a+b)^{n-1} vanished at {n}")
    c.finish()


def test_criterion_09_thue_morse_identities(tm_stream):
    c = _Criterion(9, "bit-count and substitution definitions agree; cube-free prefix", 10.0)
    tm = rowen.ThueMorseSequence()
    c.check(tm.word_prefix(100_000) == tm_stream.prefix(100_000), "definitions disagree")
    c.check(tm.word_prefix(16) == "yxxyxyyxxyyxyxxy", tm.word_prefix(16))
    check = words.is_cube_free(tm_stream.prefix(10_000))
    c.check(check.is_cube_free, f"cube at {check.position}")
    c.finish()


def test_criterion_10_quadratic_growth():
    c = _Criterion(10, "cumulative factor counts grow quadratically; periodic control fails", 30.0)
    profile = rowen.growth_profile((64, 128, 256))
    for n, ratio in zip(profile.n_values, profile.ratios):
        c.check(3.5 <= ratio <= 4.5, f"ratio at {n}: {ratio:.3f}")
    c.check(profile.quadratic, "quadratic flag")
    control = rowen.growth_profile((64, 128, 256), stream=words.PeriodicStream("xy"))
    c.check(not control.quadratic, "periodic control passed the band")
    c.check(all(r < 3.5 for r in control.ratios), f"control ratios {control.ratios}")
    c.finish()


def test_criterion_11_property_suites(sub_xy, sub_xyz, tm_morphism, xy_stream, tm_stream):
    c = _Criterion(11, "property suites: Parikh identity, ideal closure, rotations, pattern location", 120.0)
    rng = random.Random(0)

    # Parikh / incidence-matrix identity
    for m in (sub_xy, sub_xyz, tm_morphism):
        letters = "".join(m.alphabet.letters)
        mat = words.incidence_matrix(m)
        for _ in range(30):
            u = "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            n = rng.randint(0, 6)
            v = words.parikh(m.alphabet, u)
            for _ in range(n):
                v = words.mat_vec(mat, v)
            c.check(
                v == words.parikh(m.alphabet, m.iterate(u, n)),
                f"Parikh identity failed for {u!r}, n={n}",
            )

    # monomial ideal closure and reduce idempotence
    view = monalg.WordFactorView(xy_stream, 20_000)
    for _ in range(200):
        u = "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))
        v = "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))
        c.check(view.is_zero_monomial(u + "xxx" + v), f"ideal closure failed for {u}|{v}")
    for _ in range(50):
        coeffs = {
            "".join(rng.choice("xy") for _ in range(rng.randint(0, 4))): rng.randint(-3, 3)
            for _ in range(rng.randint(0, 5))
        }
        p = monalg.NcPolynomial(view, coeffs)
        c.check(monalg.NcPolynomial(p.view, p.coeffs) == p, "reduction not idempotent")

    # rotation primitivity against brute force
    for length in range(1, 9):
        for t in itertools.product((1, 2, 3), repeat=length):
            brute = any(t[k:] + t[:k] == t for k in range(1, length))
            c.check(
                grading.is_rotation_primitive(t) == (not brute),
                f"rotation primitivity failed for {t}",
            )

    # pattern location for every difference sequence with sum <= 8
    seq = interleave.UniversalSequence()
    patterns = [
        p
        for total in range(1, 9)
        for parts in range(1, total + 1)
        for p in itertools.product(range(1, 9), repeat=parts)
        if sum(p) == total
    ]
    c.check(len(patterns) == 255, f"{len(patterns)} patterns")
    for p in patterns:
        m_idx = interleave.locate_pattern(seq, p)
        for t, a in enumerate(p, start=1):
            c.check(
                seq.value(m_idx + t) - seq.value(m_idx + t - 1) == a,
                f"pattern {p} not realized at {m_idx}",
            )
    c.finish()

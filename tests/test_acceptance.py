"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every criterion is asserted at its stated tolerance; the only sanctioned
soft spot is the exploratory dip sub-item of criterion 9, which is reported
with a warning instead of failing (the convergent-denominator grid reachable
at desk scale is too short for the dip to emerge).
"""

import math
import subprocess
import sys
import time

import numpy as np

import simplexleb as sl
from simplexleb.core import DilationVector

from oracles import I_n, axis_nodes, double_integral_ld2, eval_D, grid_eval


def report(num, label, passed, detail):
    line = f"ACCEPTANCE {num:>2} [{'PASS' if passed else 'FAIL'}] {label}: {detail}"
    print(line)
    assert passed, line


def test_01_exact_decomposition():
    """Residuals within the returned tail bound at 200 seeded points, and
    median residual shrinks by >= 25% when the truncation order doubles."""
    t0 = time.perf_counter()
    tuples = [(7.3, 19.6), (2.0, 3.0), (5.0, 9.5, 23.0)]
    ok = True
    details = []
    for entries in tuples:
        n = DilationVector(entries)
        r1 = sl.verify_identity(n, num_points=200, nu_max=2**12, seed=202)
        r2 = sl.verify_identity(n, num_points=200, nu_max=2**13, seed=202)
        shrink = r2.median_residual / max(r1.median_residual, 1e-300)
        ok &= r1.passed and r2.passed and shrink <= 0.75
        details.append(f"n={entries} median={r1.median_residual:.2e} "
                       f"shrink_to={shrink:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 60.0
    report(1, "exact decomposition", ok,
           "; ".join(details) + f"; {elapsed:.1f}s")


def test_02_parseval_exactness():
    """Quadrature grids reproduce the coefficient power exactly: the mean of
    |D|^2 over every grid equals the lattice point count to 1e-8 relative.
    The engine enforces this on every grid it touches; here we recheck the
    reported power for a mixed batch of kernels."""
    checks = []
    for entries in [(2.0, 3.0), (7.3, 19.6), (5.0, 9.5, 23.0)]:
        n = DilationVector(entries)
        res = sl.l1_norm("D", n)
        p = len(sl.build_lattice(n).points)
        checks.append(abs(res.parseval - p) <= 1e-8 * p)
    ok = all(checks)
    report(2, "discrete power identity", ok, f"{len(checks)} kernels checked")


def test_03_one_dimensional_constant():
    """The plain integral of |D_n| minus (8/pi) ln n stays within a band of
    width 1.5 and absolute size 10 over n = 2^6 .. 2^14."""
    t0 = time.perf_counter()
    diffs = []
    for e in range(6, 15):
        n = float(2**e)
        v = sl.l1_norm("D", DilationVector((n,))).value
        diffs.append(v - (8 / math.pi) * math.log(n))
    spread = max(diffs) - min(diffs)
    worst = max(abs(d) for d in diffs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 10.0 and spread <= 1.5 and elapsed <= 30.0
    report(3, "1-D growth constant", ok,
           f"|diff|<= {worst:.3f} (cap 10), range {spread:.3f} (cap 1.5), "
           f"{elapsed:.1f}s")


def test_04_isotropic_2d():
    """|norm - (24/pi) ln^2 n| / (ln n ln ln n) has max/min <= 4 over the
    isotropic sweep n = 64 .. 1024."""
    t0 = time.perf_counter()
    ratios = []
    for n in (64, 128, 256, 512, 1024):
        v = sl.l1_norm("D", DilationVector((float(n), float(n)))).value
        resid = abs(v - (24 / math.pi) * math.log(n) ** 2)
        ratios.append(resid / (math.log(n) * math.log(math.log(n))))
    stability = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    ok = stability <= 4.0 and elapsed <= 900.0
    report(4, "isotropic 2-D fitted constant", ok,
           f"ratios {min(ratios):.2f}..{max(ratios):.2f}, "
           f"max/min {stability:.3f} (cap 4), {elapsed:.0f}s")


def test_05_anisotropic_2d():
    """With n2 = n1^2, the residual after the main term and the fractional
    correction, scaled by ln ln n1 ln n2, has max/min <= 5."""
    t0 = time.perf_counter()
    ratios = []
    for n1 in (16.0, 32.0, 64.0, 128.0):
        n = DilationVector((n1, n1 * n1))
        v = sl.l1_norm("D", n).value
        f = sl.l1_norm("F", n).value
        main = (16 / math.pi) * math.log(n1) * math.log(n1 * n1) \
            + (8 / math.pi) * math.log(n1) ** 2
        r = abs(v - main - 2 * math.pi * f)
        ratios.append(r / (math.log(math.log(n1)) * math.log(n1 * n1)))
    stability = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    ok = stability <= 5.0 and elapsed <= 600.0
    report(5, "anisotropic 2-D formula", ok,
           f"ratios {min(ratios):.2f}..{max(ratios):.2f}, "
           f"max/min {stability:.3f} (cap 5), {elapsed:.0f}s")


def test_06_norm_splitting():
    """|norm_D - norm_S - 2 pi norm_F| / (ln ln n2 ln n1) stable (max/min
    <= 5) over a d=2 sweep."""
    t0 = time.perf_counter()
    ratios = []
    for pair in [(16.0, 64.0), (32.0, 128.0), (64.0, 256.0)]:
        n = DilationVector(pair)
        d_ = sl.l1_norm("D", n).value
        s_ = sl.l1_norm("S", n).value
        f_ = sl.l1_norm("F", n).value
        r = abs(d_ - s_ - 2 * math.pi * f_)
        ratios.append(r / (math.log(math.log(pair[1])) * math.log(pair[0])))
    stability = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    ok = stability <= 5.0 and elapsed <= 300.0
    report(6, "norm splitting", ok,
           f"ratios {min(ratios):.2f}..{max(ratios):.2f}, "
           f"max/min {stability:.3f} (cap 5), {elapsed:.0f}s")


def test_07_double_integral():
    """The shifted-kernel double integral stays within a stable multiple of
    ln ln n of 4 pi times the 1-D norm (max/min <= 5 across cases)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ratios = []
    for n in (64, 256):
        dn = sl.l1_norm("D", DilationVector((float(n),))).value
        for _ in range(3):
            a, b = rng.uniform(0.3, 3.0, 2)
            lhs = double_integral_ld2(n, a, b)
            ratios.append(abs(lhs - 4 * math.pi * dn)
                          / math.log(math.log(n)))
    stability = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    ok = stability <= 5.0 and elapsed <= 300.0
    report(7, "shifted double integral", ok,
           f"ratios {min(ratios):.2f}..{max(ratios):.2f}, "
           f"max/min {stability:.3f} (cap 5), {elapsed:.0f}s")


def test_08_arithmetic_progression_regime():
    """norm_F for n = (20, 20 lam + 3) shows no lam-growth (max <= 3 min over
    lam = 1..50) and vanishes identically when the offset is 0."""
    t0 = time.perf_counter()
    f_norms = [sl.l1_norm("F", DilationVector((20.0, lam * 20.0 + 3))).value
               for lam in range(1, 51)]
    positive = [v for v in f_norms if v > 0.0]
    spread = max(positive) / min(positive) if positive else 1.0
    zero = sl.l1_norm("F", DilationVector((20.0, 40.0))).value
    elapsed = time.perf_counter() - t0
    ok = spread <= 3.0 and zero == 0.0 and elapsed <= 120.0
    report(8, "progression regime", ok,
           f"F-norm max/min {spread:.6f} (cap 3), "
           f"zero-offset F norm {zero}, {elapsed:.0f}s")


def test_09_alpha_study():
    """Golden-ratio normalized values within [1e-2, 1e2]; rational values
    decreasing over the top octave; the truncated-Liouville dip factor is
    reported and allowed to soft-fail (exploratory)."""
    t0 = time.perf_counter()
    golden = sl.study_ratio(sl.AlphaSpec.golden(),
                            [2**e for e in range(4, 15)])
    golden_ok = all(1e-2 <= r.ratio <= 1e2 for r in golden)

    rational = sl.study_ratio(sl.AlphaSpec.from_rational(415, 93),
                              [2**e for e in range(4, 15)])
    top = [r.ratio for r in rational if r.n >= 2**13]
    top_octave_ok = all(a > b for a, b in zip(top, top[1:]))

    # dip factor: the median over a generic grid of n over the value at
    # each convergent denominator q of the truncated Liouville number
    liouville = sl.AlphaSpec.liouville(2, 4)
    qs = {q for _, q in sl.cf_expand(liouville).convergents
          if 16 <= q <= 2**14}
    generic = {round(v) for v in np.geomspace(16, 2**14, 9)} - qs
    recs = sl.study_ratio(liouville, sorted(generic | qs))
    median = np.median([r.ratio for r in recs if r.n in generic])
    dip = max((median / r.ratio if r.ratio > 0 else math.inf
               for r in recs if r.n in qs), default=math.nan)
    dip_ok = dip > 2.0
    warn = "" if dip_ok else \
        " [WARN: dip factor below 2x at reachable denominators — " \
        "exploratory item, soft-fail accepted]"
    elapsed = time.perf_counter() - t0
    ok = golden_ok and top_octave_ok and elapsed <= 300.0
    report(9, "fractional-part kernel study", ok,
           f"golden in [{min(r.ratio for r in golden):.3f}, "
           f"{max(r.ratio for r in golden):.3f}], rational top octave "
           f"decreasing={top_octave_ok}, dip factor "
           f"{dip:.3f}{warn}, {elapsed:.0f}s")


def test_10_oracle_equivalence():
    """Grid synthesis vs direct evaluation; hand values for the 1-D study,
    continued fractions and lattice counts."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    grid_ok = True
    for entries in [(2.0, 3.0), (3.7, 9.5), (5.0,)]:
        n = DilationVector(entries)
        fld = sl.indicator_coefficients(sl.build_lattice(n))
        M = tuple(4 * e for e in fld.extents)
        gf = grid_eval(fld, M)
        p = len(sl.build_lattice(n).points)
        idx = tuple(rng.integers(0, m, 20) for m in M)
        for t in zip(*idx):
            x = [axis_nodes(m)[tj] for m, tj in zip(M, t)]
            direct = eval_D(n, x)
            grid_ok &= abs(gf.values[t] - direct) <= 1e-9 * p

    i4 = I_n(sl.AlphaSpec.from_rational(1, 2), 4, tol=1e-7,
             rho=2048.0).value
    i4_ok = abs(i4 - 4.0) <= 1e-6

    cf = sl.cf_expand(sl.AlphaSpec.from_rational(415, 93))
    cf_ok = cf.quotients == (4, 2, 6, 7)

    counts_ok = (len(sl.build_lattice(DilationVector((2, 2))).points) == 6
                 and len(sl.build_lattice(DilationVector((3, 3))).points)
                 == 10)
    elapsed = time.perf_counter() - t0
    ok = grid_ok and i4_ok and cf_ok and counts_ok and elapsed <= 30.0
    report(10, "oracle equivalence", ok,
           f"grid={grid_ok}, I_4(1/2)={i4:.8f}, cf={cf.quotients}, "
           f"counts={counts_ok}, {elapsed:.0f}s")


def test_11_determinism(tmp_path):
    """Two independent CLI processes with the same config and seed produce
    byte-identical sweep CSV."""
    out = tmp_path / "sweep.csv"
    argv = [sys.executable, "-m", "simplexleb.cli", "sweep",
            "--n1", "geom(16,64,3)", "--n2", "pow(n1,2)",
            "--t-nodes", "8", "--output", str(out)]
    subprocess.run(argv, check=True, capture_output=True)
    first = out.read_bytes()
    subprocess.run(argv, check=True, capture_output=True)
    ok = out.read_bytes() == first and len(first) > 0
    report(11, "byte-identical reruns", ok, f"{len(first)} bytes compared")

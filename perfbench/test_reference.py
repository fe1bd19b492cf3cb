"""Tests of the benchmark's reference against brute-force lattice sums.

Run with: python3 -m pytest -q perfbench/test_reference.py
"""

import cmath
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import reference

CASES = [(3.5, 7.2), (7, 29), (2, 3, 5.5), (2.5, 4.1, 6.3)]


def brute_lattice(n):
    """Every k in the bounding box with sum_j k_j / n_j <= 1, exactly."""
    q = [Fraction(v) for v in n]
    box = [range(math.floor(v) + 1) for v in q]
    return [k for k in itertools.product(*box)
            if sum(Fraction(kj) / qj for kj, qj in zip(k, q)) <= 1]


def brute_D(n, x):
    return sum(cmath.exp(1j * sum(kj * xj for kj, xj in zip(k, x)))
               for k in brute_lattice(n))


def from_slices(kind, n, x):
    points, lam = reference.modes(n)
    w = reference.slice_weights(kind, lam, np.array([x[-1]]))[0]
    return complex(np.exp(1j * (points @ np.array(x[:-1]))) @ w)


@pytest.mark.parametrize("n", CASES)
def test_lattice_count_and_extents(n):
    pts = brute_lattice(n)
    assert reference.lattice_count(n) == len(pts)
    assert reference.extents(n) == tuple(max(c) + 1 for c in zip(*pts))


def test_integer_boundary_point_is_kept():
    # L_2(7) = 29 (1 - 7/7) = 0 exactly, so (7, 0) belongs to the lattice.
    assert reference.lattice_count((7, 29)) == 121


@pytest.mark.parametrize("n", CASES)
def test_D_slices_match_brute_sum(n):
    rng = np.random.default_rng(1)
    for x in rng.uniform(-np.pi, np.pi, size=(5, len(n))):
        assert from_slices("D", n, x) == pytest.approx(brute_D(n, x), abs=1e-10)
    assert from_slices("D", n, [0.3] * (len(n) - 1) + [0.0]) == \
        pytest.approx(brute_D(n, [0.3] * (len(n) - 1) + [0.0]), abs=1e-10)


@pytest.mark.parametrize("n", CASES)
def test_S_and_Fcomposite_slices_match_their_definitions(n):
    q = [Fraction(v) for v in n]
    rng = np.random.default_rng(2)
    xi = np.linspace(0.0, 1.0, 40001)
    for x in rng.uniform(-np.pi, np.pi, size=(3, len(n))):
        xp, xd = x[:-1], x[-1]
        s = f = 0.0
        for k in brute_lattice(n[:-1]):
            lam = q[-1] * (1 - sum(Fraction(kj) / qj for kj, qj in zip(k, q)))
            phase = cmath.exp(1j * float(np.dot(k, xp)))
            # S: integral of e^{i xi x_d} over [0, L] (trapezoid, fine grid)
            vals = np.exp(1j * float(lam) * xi * xd)
            s += phase * float(lam) * np.sum((vals[1:] + vals[:-1]) / 2) \
                / (len(xi) - 1)
            # e^{i n_d x_d} F(x' - x_d m), m_j = n_d / n_j
            shifted = sum(kj * (xj - xd * float(q[-1] / qj))
                          for kj, xj, qj in zip(k, xp, q))
            f += float(lam - math.floor(lam)) * cmath.exp(1j * shifted) \
                * cmath.exp(1j * float(q[-1]) * xd)
        assert from_slices("S", n, x) == pytest.approx(s, abs=1e-5)
        assert from_slices("Fcomposite", n, x) == pytest.approx(f, abs=1e-10)


@pytest.mark.parametrize("L", [0.0, 0.4, 3.0, 7.25])
def test_R_weight_is_the_nu_series_limit(L):
    nu_max = 20000
    nu = np.arange(1, nu_max + 1, dtype=float)
    for x in (-2.9, -0.7, 0.31, 1.9):
        series = 0.0
        for snu in (nu, -nu):
            h = 2 * np.pi * snu + x
            series += np.sum((np.exp(1j * h * L) - 1) / (snu * h))
        truncated = 0.5 * (cmath.exp(1j * L * x) + 1) \
            - x / (2j * np.pi) * series
        closed = reference.slice_weights("R", [Fraction(L)], np.array([x]))[0, 0]
        assert abs(closed - truncated) <= 2 * abs(x) / (np.pi**2 * nu_max)


@pytest.mark.parametrize("n,M", [((3.5, 7.2), (8, 16)), ((2, 3, 5.5), (6, 8, 12))])
def test_grid_norm_is_the_pointwise_riemann_sum(n, M):
    axes = [-np.pi + 2 * np.pi * np.arange(m) / m for m in M]
    total = sum(abs(brute_D(n, x)) for x in itertools.product(*axes))
    expect = (2 * np.pi) ** len(n) * total / math.prod(M)
    assert reference.grid_norm("D", n, M) == pytest.approx(expect, rel=1e-12)


def test_golden_fractional_parts():
    got = reference.golden_fractional_parts(3000)
    with localcontext() as ctx:
        ctx.prec = 60
        phi = (1 + Decimal(5).sqrt()) / 2
        for k in list(range(50)) + list(range(2900, 3001)):
            assert got[k] == float(phi * k - int(phi * k))


def test_oversampled_norm_1d():
    c = np.array([0.0, 0.3, 0.7, 0.1])
    m = reference._smooth_len(64 * len(c))
    x = 2 * np.pi * np.arange(m) / m
    direct = np.abs(np.exp(1j * np.outer(x, np.arange(len(c)))) @ c).sum()
    assert reference.oversampled_norm_1d(c) == pytest.approx(
        2 * np.pi * direct / m, rel=1e-12)
    assert reference._smooth_len(257) == 270


def test_main_term_isotropic():
    for d in (2, 3):
        assert reference.main_term((50.0,) * d) == pytest.approx(
            2 ** (d + 1) * (d + 1) / math.pi * math.log(50.0) ** d, rel=1e-14)

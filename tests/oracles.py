"""Oracles of the tests: word enumeration, per-word ramification, the
weights of a backward-tree level as Fractions, Dirac measures, float
heights of roots of minimal polynomials and of discrete measures, the
zero test of an exact log combination, the Kolmogorov-Smirnov distances
over whole arrays at once, the walker step that solves every root of a
numeric fiber, and, apart from the package's own exact and
numeric layers, sympy's factorization over Q and mpmath's roots of
integer polynomials.

The weighted depth-3 ramification ratio sigma3 equals 1 exactly where
`dynsys.is_exceptional_system` holds; depth 2 would not suffice, as the
pair {1/z^2, z^2 + 1} at infinity shows."""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath
import numpy as np
import sympy

from stochdyn.dynsys import (
    StochasticSystem,
    eval_map,
    fiber,
    ramification_index,
)
from stochdyn.exactnum import (
    LogCombination,
    ProjPointQ,
    StochdynError,
    int_log,
    log_abs_fraction,
    poly_trim,
)
from stochdyn.heights import DiscreteMeasure, make_measure, weil_height
from stochdyn.orbits import numeric_fiber
from stochdyn.stochheight import WORD_CAP_DEFAULT


class Word(NamedTuple):
    indices: tuple
    weight: Fraction
    degree: int


def words(system: StochasticSystem, n: int, word_cap: int = WORD_CAP_DEFAULT):
    """Yield all length-n words with their weights and degrees; ValueError
    past word_cap of them."""
    total = len(system.maps) ** n
    if total > word_cap:
        raise ValueError(f"{total} words of length {n} exceeds cap {word_cap}")
    for idx in itertools.product(range(len(system.maps)), repeat=n):
        weight = Fraction(1)
        degree = 1
        for i in idx:
            weight *= system.probs[i]
            degree *= system.maps[i].d
        yield Word(idx, weight, degree)


def word_ramification(system: StochasticSystem, indices, point: ProjPointQ,
                      cache=None) -> int:
    """e_P of the composition given by indices (applied left to right);
    cache maps (map index, point) to (ramification index, image) and may
    be shared across words."""
    cache = {} if cache is None else cache
    e = 1
    cur = point
    for i in indices:
        if (i, cur) not in cache:
            phi = system.maps[i]
            cache[i, cur] = (ramification_index(phi, cur), eval_map(phi, cur))
        step, cur = cache[i, cur]
        e *= step
    return e


def sigma3(system: StochasticSystem, point: ProjPointQ,
           word_cap: int = WORD_CAP_DEFAULT) -> Fraction:
    """Weighted depth-3 ramification ratio, exact in (0, 1]."""
    cache = {}
    acc = Fraction(0)
    for w in words(system, 3, word_cap):
        e = word_ramification(system, w.indices, point, cache)
        acc += w.weight * Fraction(e, w.degree)
    assert 0 < acc <= 1
    return acc


def level_weights(level) -> list:
    """The weights of an orbits.TreeLevel as Fractions, numerator over the
    level's denominator."""
    return [Fraction(n, level.denominator) for n in level.numerators]


def sympy_factors(coeffs) -> list:
    """sympy's factor_list over Q of a rational polynomial (ascending) as
    [(factor, multiplicity)], each factor a primitive integer tuple
    (ascending) with positive leading coefficient, sorted."""
    c = [Fraction(x) for x in poly_trim(coeffs)]
    den = math.lcm(*(x.denominator for x in c))
    desc = [int(x * den) for x in reversed(c)]
    _, factors = sympy.Poly(desc, sympy.Symbol("x")).factor_list()
    return sorted((tuple(int(a) for a in reversed(q.all_coeffs())), m)
                  for q, m in factors)


def mpmath_roots(f) -> list:
    """(log|w|, arg w) of the complex roots w of an ascending integer
    polynomial f, with multiplicity, by mpmath.polyroots at 60 digits,
    each then polished by Newton's method at 100 digits, so that a root
    far smaller than the others keeps its own relative accuracy."""
    desc = [int(c) for c in reversed(poly_trim(f))]
    with mpmath.workdps(60):
        roots = mpmath.polyroots(desc, maxsteps=500, extraprec=1000)
    out = []
    with mpmath.workdps(100):
        for w in roots:
            w = mpmath.mpc(w)
            for _ in range(20):
                y, dy = mpmath.polyval(desc, w, derivative=True)
                if y == 0 or dy == 0:
                    break
                w -= y / dy
            out.append((float(mpmath.log(abs(w))), float(mpmath.arg(w))))
    return out


class NotIrreducible(StochdynError):
    """Polynomial has a nontrivial factorization over Q."""


def weil_height_minpoly(coeffs: Sequence) -> float:
    """Height of any root of an irreducible integer polynomial (ascending).

    (1/deg)(log|lead| + sum of log+ over complex roots), the Mahler-measure
    form of the height.  Irreducibility is sympy's; the root of a linear
    polynomial is exact, and those of a nonlinear one come from
    mpmath.polyroots at 50 digits, apart from the package's own root
    solver.
    """
    f = poly_trim(tuple(int(c) for c in coeffs))
    deg = len(f) - 1
    if deg < 1:
        raise ValueError("need degree >= 1")
    factors = sympy_factors(f)
    if len(factors) != 1 or factors[0][1] != 1:
        raise NotIrreducible(f"{f} factors over Q")
    if deg == 1:
        tail = max(0.0, log_abs_fraction(Fraction(-f[0], f[1]))) if f[0] else 0.0
    else:
        with mpmath.workdps(50):
            roots = mpmath.polyroots(f[::-1], maxsteps=200, extraprec=200)
            tail = float(mpmath.fsum(max(0, mpmath.log(abs(y)))
                                     for y in roots))
    return (int_log(abs(f[-1])) + tail) / deg


def dirac(point: ProjPointQ) -> DiscreteMeasure:
    return make_measure([point], [Fraction(1)])


def measure_height(measure: DiscreteMeasure) -> float:
    """sum_p w_p h(p) in floats; heights.measure_height_exact is exact."""
    return math.fsum(float(w) * weil_height(p) for p, w in measure)


def is_zero(combination: LogCombination) -> bool:
    return not combination.coeffs


def ks_one_sample_whole(samples, cdf) -> float:
    """ifs.ks_one_sample with every gap formed at once: the reference CDF
    at all sorted samples, then the two one-sided maxima."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    ref = np.asarray(cdf(xs), dtype=float)
    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    return float(max(np.max(ref - lo), np.max(hi - ref)))


def ks_two_sample_whole(a, b) -> float:
    """ifs.ks_two_sample with both empirical CDFs taken at every candidate
    at once."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    cand = np.concatenate([a, b])
    fa = np.searchsorted(a, cand, side="right") / len(a)
    fb = np.searchsorted(b, cand, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def all_roots_fiber_step(system, log_r, theta, codes, exact, idx, j):
    """orbits._fiber_step with every preimage of each numeric point solved,
    tested and converted by numeric_fiber without a pick, then entry j[k]
    of row k kept: the walker step before numeric_fiber took a pick."""
    nmaps = len(system.maps)
    new_r, new_t, new_c = log_r.copy(), theta.copy(), np.full(len(codes), -1)
    on_exact = codes >= 0
    members = np.flatnonzero(on_exact)
    keys = codes[members] * nmaps + idx[members]
    code_of = {pt: c for c, pt in enumerate(exact)}
    for key in np.flatnonzero(np.bincount(keys)):
        c, i = divmod(int(key), nmaps)
        entries = []
        for r, t, pt, m in fiber(system.maps[i], exact[c]):
            if pt is not None and pt not in code_of:
                code_of[pt] = len(exact)
                exact.append(pt)
            entries += [(r, t, -1 if pt is None else code_of[pt])] * m
        r, t, cd = (np.array(col) for col in zip(*entries))
        sel = members[keys == key]
        new_r[sel], new_t[sel], new_c[sel] = r[j[sel]], t[j[sel]], cd[j[sel]]
    for i, phi in enumerate(system.maps):
        sel = np.flatnonzero(~on_exact & (idx == i))
        if len(sel):
            r, t = numeric_fiber(phi, log_r[sel], theta[sel])
            rows = np.arange(len(sel))
            new_r[sel], new_t[sel] = r[rows, j[sel]], t[rows, j[sel]]
    codes[:] = new_c
    return new_r, new_t

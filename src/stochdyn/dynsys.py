"""Rational maps over Q and finite stochastic systems of them.

A map is stored as a pair of homogeneous integer forms (F, G) of common
degree d >= 2 with nonzero resultant.  A stochastic system is a finite
list of such maps together with strictly positive rational weights that
sum to one.  Words are finite compositions drawn from the system; their
weights multiplyies and their degrees multiply.

Exceptional points are decided through a depth-3 ramification test: a
point z passes when every length-3 word is totally ramified at z.  One
direction is elementary.  If z has finite grand orbit, that orbit is
backward invariant under every map of the system, and a finite backward
invariant set for a single map of degree >= 2 consists of points where
the map is totally ramified, with images staying inside the set.
Chaining three steps gives e_z(word) = deg(word) for every length-3
word.  The converse is the substantive direction: passing the depth-3
test forces z into the (at most two-point) exceptional set, and depth 2
does not suffice, as the pair {1/z^2, z^2 + 1} at infinity shows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .exactnum import (
    INFINITY,
    ProjPointQ,
    factor_integer,
    normalize_point,
    point_from_rational,
    poly_degree,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_trim,
    rational_roots,
    resultant,
    squarefree_decomposition,
)

WORD_CAP_DEFAULT = 10**6


class DegenerateMap(Exception):
    """The numerator/denominator pair does not define a rational map."""


class DegreeTooLow(Exception):
    """Maps must have degree at least 2."""


class CommonFactor(Exception):
    """Numerator and denominator share a nonconstant polynomial factor."""


class WordCapExceeded(Exception):
    """A word enumeration would produce more words than the configured cap."""


class ExceptionalStart(Exception):
    """Backward orbits of an exceptional point never equidistribute."""


class MonomialProfile(NamedTuple):
    """Shape certificate for maps of the form a*z^d or a*z^(-d)."""

    coeff: Fraction
    inverted: bool


@dataclass(frozen=True)
class RationalMapQ:
    """Degree-d rational self-map of P1 given by integer forms F, G.

    Coefficients are descending: fcoeffs[i] multiplies X^(d-i) Y^i.
    Construct through make_map, which normalizes content and validates.
    """

    fcoeffs: tuple
    gcoeffs: tuple
    d: int
    res: int

    def hom_eval_int(self, a: int, b: int) -> tuple:
        """Exact (F(a,b), G(a,b)) for integer a, b."""
        fa = 0
        ga = 0
        bp = 1
        for fc, gc in zip(self.fcoeffs, self.gcoeffs):
            fa = fa * a + fc * bp
            ga = ga * a + gc * bp
            bp *= b
        return fa, ga

    def hom_eval(self, x, y):
        """(F(x,y), G(x,y)) by the same Horner walk; works on floats,
        complexes and numpy arrays alike."""
        fa = 0
        ga = 0
        bp = 1
        for fc, gc in zip(self.fcoeffs, self.gcoeffs):
            fa = fa * x + fc * bp
            ga = ga * x + gc * bp
            bp = bp * y
        return fa, ga

    def num_den_z(self) -> tuple:
        """Dehomogenized (f(z), g(z)) as ascending coefficient tuples."""
        return (
            poly_trim(tuple(reversed(self.fcoeffs))),
            poly_trim(tuple(reversed(self.gcoeffs))),
        )

    @cached_property
    def monomial_profile(self) -> Optional[MonomialProfile]:
        nz_f = [i for i, c in enumerate(self.fcoeffs) if c != 0]
        nz_g = [i for i, c in enumerate(self.gcoeffs) if c != 0]
        if nz_f == [0] and nz_g == [self.d]:
            return MonomialProfile(Fraction(self.fcoeffs[0], self.gcoeffs[self.d]), False)
        if nz_f == [self.d] and nz_g == [0]:
            return MonomialProfile(Fraction(self.fcoeffs[self.d], self.gcoeffs[0]), True)
        return None

    def __str__(self) -> str:
        num, den = self.num_den_z()
        return f"({_poly_str(num)})/({_poly_str(den)})"


def _poly_str(asc) -> str:
    terms = []
    for k in range(len(asc) - 1, -1, -1):
        c = asc[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            z = "z" if k == 1 else f"z^{k}"
            terms.append(z if c == 1 else f"{c}{z}")
    return " + ".join(terms) if terms else "0"


def make_map(num: Sequence, den: Sequence) -> RationalMapQ:
    """Build a map f(z)/g(z) from ascending integer coefficient lists.

    Homogenizes to the common degree d = max(deg f, deg g), divides out
    the joint integer content and caches the resultant.
    """
    num_t = poly_trim(tuple(int(c) for c in num))
    den_t = poly_trim(tuple(int(c) for c in den))
    if not num_t or not den_t:
        raise DegenerateMap("numerator or denominator is identically zero")
    if poly_degree(poly_gcd(num_t, den_t)) >= 1:
        raise CommonFactor(f"gcd({num_t}, {den_t}) is nonconstant")
    d = max(poly_degree(num_t), poly_degree(den_t))
    if d < 2:
        raise DegreeTooLow(f"degree {d} map; need degree >= 2")
    fdesc = [num_t[d - i] if d - i < len(num_t) else 0 for i in range(d + 1)]
    gdesc = [den_t[d - i] if d - i < len(den_t) else 0 for i in range(d + 1)]
    content = 0
    for c in fdesc + gdesc:
        content = gcd(content, c)
    fdesc = [c // content for c in fdesc]
    gdesc = [c // content for c in gdesc]
    res = resultant(fdesc, gdesc, d)
    if res == 0:
        raise DegenerateMap("vanishing resultant")
    return RationalMapQ(tuple(fdesc), tuple(gdesc), d, res)


def eval_map(phi: RationalMapQ, point: ProjPointQ) -> ProjPointQ:
    return normalize_point(*phi.hom_eval_int(point.a, point.b))


def ramification_index(phi: RationalMapQ, point: ProjPointQ) -> int:
    """Local ramification index e_P(phi), between 1 and deg(phi).

    Computed as the multiplicity of P as a root of the fiber form
    H = F * G(a,b) - G * F(a,b), which vanishes exactly on the preimage
    of phi(P).
    """
    fab, gab = phi.hom_eval_int(point.a, point.b)
    h = [fc * gab - gc * fab for fc, gc in zip(phi.fcoeffs, phi.gcoeffs)]
    assert any(h), "F and G proportional despite nonzero resultant"
    if point.is_infinity:
        # multiplicity of [1:0] is the Y-adic valuation of H
        e = next(i for i, c in enumerate(h) if c != 0)
    else:
        z0 = point.as_fraction()
        g = poly_trim(tuple(reversed(h)))
        e = 0
        while poly_degree(g) >= 1 and poly_eval(g, z0) == 0:
            g, rem = poly_divmod(g, (-z0, Fraction(1)))
            assert not rem
            e += 1
    assert 1 <= e <= phi.d
    return e


def bad_primes(phi: RationalMapQ, trial_bound: int = 10**6) -> set:
    """Primes dividing Res(F, G); empty means good reduction everywhere."""
    if abs(phi.res) == 1:
        return set()
    return set(factor_integer(phi.res, trial_bound))


@dataclass(frozen=True)
class StochasticSystem:
    maps: tuple
    probs: tuple

    def __iter__(self):
        return iter(zip(self.maps, self.probs))

    def __len__(self):
        return len(self.maps)


def make_system(maps: Sequence, probs: Sequence) -> StochasticSystem:
    maps = tuple(maps)
    probs = tuple(Fraction(p) for p in probs)
    if not maps:
        raise ValueError("system needs at least one map")
    if len(maps) != len(probs):
        raise ValueError(f"{len(maps)} maps but {len(probs)} probabilities")
    if any(p <= 0 for p in probs):
        raise ValueError("probabilities must be strictly positive")
    if sum(probs) != 1:
        raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
    return StochasticSystem(maps, probs)


class Word(NamedTuple):
    indices: tuple
    weight: Fraction
    degree: int


def words(system: StochasticSystem, n: int, word_cap: int = WORD_CAP_DEFAULT):
    """Yield all length-n words with their weights and degrees."""
    total = len(system.maps) ** n
    if total > word_cap:
        raise WordCapExceeded(f"{total} words of length {n} exceeds cap {word_cap}")
    for idx in itertools.product(range(len(system.maps)), repeat=n):
        weight = Fraction(1)
        degree = 1
        for i in idx:
            weight *= system.probs[i]
            degree *= system.maps[i].d
        yield Word(idx, weight, degree)


def word_ramification(system: StochasticSystem, indices, point: ProjPointQ) -> int:
    """e_P of the composition given by indices (applied left to right)."""
    e = 1
    cur = point
    for i in indices:
        e *= ramification_index(system.maps[i], cur)
        cur = eval_map(system.maps[i], cur)
    return e


def _word_ram_cached(system, indices, point, ecache, fcache):
    e = 1
    cur = point
    for i in indices:
        key = (i, cur)
        if key not in ecache:
            ecache[key] = ramification_index(system.maps[i], cur)
            fcache[key] = eval_map(system.maps[i], cur)
        e *= ecache[key]
        cur = fcache[key]
    return e


def stochastic_degree(system: StochasticSystem) -> Fraction:
    """Probability-harmonic mean of the map degrees, exact and >= 2."""
    inv = sum(p / phi.d for phi, p in system)
    delta = 1 / inv
    assert delta >= 2
    return delta


def sigma3(system: StochasticSystem, point: ProjPointQ,
           word_cap: int = WORD_CAP_DEFAULT) -> Fraction:
    """Weighted depth-3 ramification ratio, exact in (0, 1].

    Equals 1 precisely when the point passes is_exceptional_system.
    """
    ecache, fcache = {}, {}
    acc = Fraction(0)
    for w in words(system, 3, word_cap):
        e = _word_ram_cached(system, w.indices, point, ecache, fcache)
        acc += w.weight * Fraction(e, w.degree)
    assert 0 < acc <= 1
    return acc


def is_exceptional_system(system: StochasticSystem, point: ProjPointQ,
                          word_cap: int = WORD_CAP_DEFAULT) -> bool:
    """Depth-3 decision: every length-3 word totally ramified at the point."""
    ecache, fcache = {}, {}
    for w in words(system, 3, word_cap):
        if _word_ram_cached(system, w.indices, point, ecache, fcache) != w.degree:
            return False
    return True


def _form_derivatives(coeffs, d):
    # descending lists for the X- and Y-partials of a degree-d form
    dx = tuple(coeffs[i] * (d - i) for i in range(d))
    dy = tuple(coeffs[j + 1] * (j + 1) for j in range(d))
    return dx, dy


def _form_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def wronskian(phi: RationalMapQ) -> tuple:
    """Descending coefficients of F_X G_Y - F_Y G_X, a form of degree 2d-2.

    A point has ramification index e exactly when it is a root of
    multiplicity e - 1, so totally ramified points show up with
    multiplicity d - 1.
    """
    fx, fy = _form_derivatives(phi.fcoeffs, phi.d)
    gx, gy = _form_derivatives(phi.gcoeffs, phi.d)
    w = [p - q for p, q in zip(_form_mul(fx, gy), _form_mul(fy, gx))]
    assert any(w)
    return tuple(w)


@dataclass(frozen=True)
class ExceptionalReport:
    """Confirmed exceptional points plus any unresolved candidate factors.

    unresolved_factors lists (ascending monic coefficients, multiplicity)
    for Wronskian factors of high enough multiplicity whose roots could
    not be confirmed rational; such candidates are reported, not decided.
    """

    confirmed: tuple
    unresolved_factors: tuple


def exceptional_report(system: StochasticSystem,
                       word_cap: int = WORD_CAP_DEFAULT) -> ExceptionalReport:
    phi = system.maps[0]
    d = phi.d
    w = wronskian(phi)
    candidates = []
    inf_mult = next(i for i, c in enumerate(w) if c != 0)
    if inf_mult >= d - 1:
        candidates.append(INFINITY)
    unresolved = []
    wz = poly_trim(tuple(reversed(w)))
    for factor, mult in squarefree_decomposition(wz):
        if mult < d - 1:
            continue
        roots = rational_roots(factor)
        for r, _ in roots:
            candidates.append(point_from_rational(r))
        leftover = factor
        for r, _ in roots:
            leftover, rem = poly_divmod(leftover, (-r, Fraction(1)))
            assert not rem
        if poly_degree(leftover) >= 1:
            unresolved.append((leftover, mult))
    confirmed = [
        p for p in candidates
        if ramification_index(phi, p) == d
        and is_exceptional_system(system, p, word_cap)
    ]
    confirmed.sort(key=lambda p: (p.is_infinity, None if p.is_infinity else p.as_fraction()))
    return ExceptionalReport(tuple(confirmed), tuple(unresolved))


def exceptional_set(system: StochasticSystem,
                    word_cap: int = WORD_CAP_DEFAULT) -> list:
    """Rational exceptional points of the system, at most two of them."""
    return list(exceptional_report(system, word_cap).confirmed)

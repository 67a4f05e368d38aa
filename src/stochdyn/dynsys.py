"""Rational maps over Q and finite stochastic systems of them.

A map is stored as a pair of homogeneous integer forms (F, G) of common
degree d >= 2 with nonzero resultant.  A stochastic system is a finite
list of such maps together with strictly positive rational weights that
sum to one.  Words are finite compositions drawn from the system; their
weights and their degrees multiply.

The fiber of a rational point, its preimages with multiplicities, comes
from one exact factorization over Q of the fiber form (see fiber); the
ramification index and the exceptional candidates are read from the same
kind of factorization.

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
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

from .exactnum import (
    _INT_LOG_CUTOFF_BITS,
    INFINITY,
    ProjPointQ,
    StochdynError,
    complex_roots,
    factor_integer,
    factor_poly,
    normalize_point,
    point_from_rational,
    poly_trim,
    resultant,
)

WORD_CAP_DEFAULT = 10**6


class DegenerateMap(StochdynError):
    """The numerator/denominator pair does not define a rational map."""


class DegreeTooLow(StochdynError):
    """Maps must have degree at least 2."""


class CommonFactor(StochdynError):
    """Numerator and denominator share a nonconstant polynomial factor."""


class WordCapExceeded(StochdynError):
    """A word enumeration would produce more words than the configured cap."""


class ExceptionalStart(StochdynError):
    """Backward orbits of an exceptional point never equidistribute."""

    exit_code = 4


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

    def hom_eval_int(self, a, b) -> tuple:
        """Exact (F(a,b), G(a,b)) for integers a, b, or numpy object arrays
        of Python ints."""
        return _eval_forms(self._int_terms, self.d, a, b)

    @cached_property
    def _int_terms(self) -> tuple:
        """F and G as sparse terms for _eval_forms."""
        return _sparse_terms(self.fcoeffs), _sparse_terms(self.gcoeffs)

    @cached_property
    def float_forms(self) -> tuple:
        """(2^-k F, 2^-k G, k): the descending coefficients as floats,
        with k > 0 only past 2^960, as in int_log."""
        bits = max(abs(c).bit_length() for c in self.fcoeffs + self.gcoeffs)
        k = max(0, bits - _INT_LOG_CUTOFF_BITS)
        return (tuple(c / 2**k for c in self.fcoeffs),
                tuple(c / 2**k for c in self.gcoeffs), k)

    @cached_property
    def _float_terms(self) -> tuple:
        """2^-k F and 2^-k G of float_forms as sparse terms for _eval_forms."""
        fc, gc, _ = self.float_forms
        return _sparse_terms(fc), _sparse_terms(gc)

    def hom_eval_float(self, x, y) -> tuple:
        """(2^-k F(x,y), 2^-k G(x,y), k) for float or complex x, y (numpy
        arrays too), from one float view of the forms.  k > 0 only when a
        coefficient passes 2^960, so no coefficient overflows a float."""
        return (*_eval_forms(self._float_terms, self.d, x, y),
                self.float_forms[2])

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


def _sparse_terms(coeffs) -> tuple:
    """(i, c) for each nonzero descending coefficient c, of X^(d-i) Y^i."""
    return tuple((i, c) for i, c in enumerate(coeffs) if c != 0)


def _eval_forms(forms, d, x, y) -> tuple:
    """Values at (x, y) of degree-d forms given as sparse terms (i, c).

    The rule is Horner's in x, with the powers of y taken by repeated
    products: F = (..(c_0 x + c_1 y) x + ..) x + c_d y^d.  Only its exact
    no-ops are skipped: products and sums with a zero accumulator or a zero
    coefficient, products with a coefficient of +-1, and powers of y that
    no term uses.  So Python ints come out exact, and on finite floats and
    complex numbers every remaining operation is the full rule's, in its
    order: the values agree with it bit for bit, but for signs of zeros.
    """
    top = max(terms[-1][0] for terms in forms)
    ypow = [1, y]
    while len(ypow) <= top:
        ypow.append(ypow[-1] * y)
    out = []
    for terms in forms:
        acc, last = None, 0
        for i, c in terms:
            if acc is not None:
                for _ in range(i - last):
                    acc = acc * x
            if c == 1:
                acc = ypow[i] if acc is None else acc + ypow[i]
            elif c == -1:
                acc = -ypow[i] if acc is None else acc - ypow[i]
            else:
                acc = c * ypow[i] if acc is None else acc + c * ypow[i]
            last = i
        for _ in range(d - last):
            acc = acc * x
        out.append(acc)
    return tuple(out)


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
    the joint integer content and caches the resultant.  At that degree
    the forms cannot both vanish at [1:0], so the resultant is 0 exactly
    when f and g share a nonconstant factor.
    """
    num_t = poly_trim(tuple(int(c) for c in num))
    den_t = poly_trim(tuple(int(c) for c in den))
    if not num_t or not den_t:
        raise DegenerateMap("numerator or denominator is identically zero")
    d = max(len(num_t), len(den_t)) - 1
    fdesc = [num_t[d - i] if d - i < len(num_t) else 0 for i in range(d + 1)]
    gdesc = [den_t[d - i] if d - i < len(den_t) else 0 for i in range(d + 1)]
    content = math.gcd(*fdesc, *gdesc)
    fdesc = [c // content for c in fdesc]
    gdesc = [c // content for c in gdesc]
    res = resultant(fdesc, gdesc, d)
    if res == 0:
        raise CommonFactor(f"{num_t} and {den_t} share a nonconstant factor")
    if d < 2:
        raise DegreeTooLow(f"degree {d} map; need degree >= 2")
    return RationalMapQ(tuple(fdesc), tuple(gdesc), d, res)


def eval_map(phi: RationalMapQ, point: ProjPointQ) -> ProjPointQ:
    return normalize_point(*phi.hom_eval_int(point.a, point.b))


def _fiber_form(phi: RationalMapQ, point: ProjPointQ) -> tuple:
    """(m, f) for the fiber form H = v F - u G of point [u : v], which
    vanishes exactly on the preimages: [1:0] is a root of multiplicity m
    (the Y-adic valuation of H) and f is the ascending affine part."""
    h = [point.b * fc - point.a * gc for fc, gc in zip(phi.fcoeffs, phi.gcoeffs)]
    assert any(h), "F and G proportional despite nonzero resultant"
    return next(i for i, c in enumerate(h) if c != 0), poly_trim(h[::-1])


# backward walks repeat exact fiber solves: `orbit-sample 3` on
# perfbench/general.json asks for about 1,500 fibers of 6 distinct (map,
# point) pairs, and an exact tree of depth 5-7 for at most 26
@lru_cache(maxsize=64)
def fiber(phi: RationalMapQ, point: ProjPointQ) -> tuple:
    """Preimages of a rational point with multiplicities: (complex,
    exact point or None, multiplicity) triples, infinity first, then the
    rational preimages in increasing order, then the others by (re, im).

    The linear factors over Q of the fiber form are the rational
    preimages, which keep their exact identity; only its nonlinear
    irreducible factors are solved numerically.
    """
    inf_mult, finite = _fiber_form(phi, point)
    out = [(complex(math.inf, 0.0), INFINITY, inf_mult)] if inf_mult else []
    factors = factor_poly(finite)
    rational = sorted((Fraction(-f[0], f[1]), m) for f, m in factors if len(f) == 2)
    out += [(complex(q), point_from_rational(q), m) for q, m in rational]
    nonlinear = [(f, m) for f, m in factors if len(f) > 2]
    out += [(w, None, m) for w, m in complex_roots(nonlinear)]
    assert sum(m for _, _, m in out) == phi.d
    return tuple(out)


def ramification_index(phi: RationalMapQ, point: ProjPointQ) -> int:
    """Local ramification index e_P(phi), between 1 and deg(phi): the
    multiplicity of P in the fiber form of phi(P), read from its exact
    factorization (the linear factor b z - a of P = [a : b])."""
    inf_mult, finite = _fiber_form(phi, eval_map(phi, point))
    if point.is_infinity:
        e = inf_mult
    else:
        e = dict(factor_poly(finite)).get((-point.a, point.b), 0)
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
    return _word_ram_cached(system, indices, point, {})


def _word_ram_cached(system, indices, point, cache):
    # cache: (map index, point) -> (ramification index, image), across words
    e = 1
    cur = point
    for i in indices:
        if (i, cur) not in cache:
            phi = system.maps[i]
            cache[i, cur] = (ramification_index(phi, cur), eval_map(phi, cur))
        step, cur = cache[i, cur]
        e *= step
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
    cache = {}
    acc = Fraction(0)
    for w in words(system, 3, word_cap):
        e = _word_ram_cached(system, w.indices, point, cache)
        acc += w.weight * Fraction(e, w.degree)
    assert 0 < acc <= 1
    return acc


def is_exceptional_system(system: StochasticSystem, point: ProjPointQ,
                          word_cap: int = WORD_CAP_DEFAULT) -> bool:
    """Depth-3 decision: every length-3 word totally ramified at the point."""
    cache = {}
    for w in words(system, 3, word_cap):
        if _word_ram_cached(system, w.indices, point, cache) != w.degree:
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

    unresolved_factors lists (primitive ascending integer coefficients,
    multiplicity) for the irreducible Wronskian factors of degree >= 2 and
    high enough multiplicity: their roots are candidates over a number
    field, not over Q, and are reported, not decided.
    """

    confirmed: tuple
    unresolved_factors: tuple


def exceptional_report(system: StochasticSystem,
                       word_cap: int = WORD_CAP_DEFAULT) -> ExceptionalReport:
    phi = system.maps[0]
    d = phi.d
    w = wronskian(phi)
    inf_mult = next(i for i, c in enumerate(w) if c != 0)
    candidates = [INFINITY] if inf_mult >= d - 1 else []
    unresolved = []
    for factor, mult in factor_poly(w[::-1]):
        if mult < d - 1:
            continue
        if len(factor) == 2:
            candidates.append(normalize_point(-factor[0], factor[1]))
        else:
            unresolved.append((factor, mult))
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

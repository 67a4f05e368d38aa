"""Rational maps over Q and finite stochastic systems of them.

A map is stored as a pair of homogeneous integer forms (F, G) of common
degree d >= 2 with nonzero resultant.  A stochastic system is a finite
list of such maps together with strictly positive rational weights that
sum to one.

The fiber of a rational point, its preimages with multiplicities in
log-polar form (log|w|, arg w), comes from one exact factorization over Q
of the fiber form (see fiber).  The ramification index at a point is its
multiplicity in the fiber form of its image, by exact division, and the
exceptional candidates are the rational roots of multiplicity >= d - 1 of
the Wronskian.

Exceptional points are decided from the forward closure of the point: z
is exceptional exactly when every map of the system is totally ramified
at every point that forward orbits of z reach.  If z has finite grand
orbit, that orbit is backward invariant under every map of the system,
and a finite backward invariant set for a single map of degree >= 2
consists of points where the map is totally ramified; the closure stays
inside the orbit.  Conversely, by Riemann-Hurwitz a map of degree d >= 2
is totally ramified at at most two points, and two such points have
distinct images (their common fiber would hold 2d preimages), so each map
permutes a closure on which it is totally ramified, every point of the
closure is the whole fiber of its image, and the closure is the grand
orbit.  Such a closure has at most two points, so the walk stops at a
third.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exactnum import (
    _INT_LOG_CUTOFF_BITS,
    INFINITY,
    ProjPointQ,
    StochdynError,
    factor_integer,
    factor_poly,
    int_pairs,
    normalize_point,
    pair_log_polar,
    point_from_rational,
    poly_roots,
    poly_trim,
    resultant,
    root_multiplicity,
    wrap_angle,
)

class DegenerateMap(StochdynError):
    """The numerator/denominator pair does not define a rational map."""


class DegreeTooLow(StochdynError):
    """Maps must have degree at least 2."""


class CommonFactor(StochdynError):
    """Numerator and denominator share a nonconstant polynomial factor."""


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
    """Preimages of a rational point with multiplicities, in log-polar
    form: (log|w|, arg w, exact point or None, multiplicity) per preimage,
    arg w in [0, 2 pi).  Infinity, (+inf, 0), comes first, then the
    rational preimages in increasing order, then the others by (re, im).

    The linear factors over Q of the fiber form are the rational
    preimages, which keep their exact identity and take their log-polar
    form from it (ProjPointQ.log_polar).  Only the square-free nonlinear
    rests of exactnum.factor_poly, of any degree, are solved numerically,
    by exactnum.poly_roots on the mantissa/exponent pairs of their integer
    coefficients (int_pairs), so that no coefficient or root is formed as
    a float outside float range; a root is ordered by the exact values of
    its parts.
    """
    inf_mult, finite = _fiber_form(phi, point)
    out = [(math.inf, 0.0, INFINITY, inf_mult)] if inf_mult else []
    factors = factor_poly(finite)
    for q, m in sorted((Fraction(-f[0], f[1]), m)
                       for f, m in factors if len(f) == 2):
        pt = point_from_rational(q)
        out.append((*pt.log_polar(), pt, m))
    numeric = []
    for f, m in factors:
        if len(f) > 2:
            cm, cg = int_pairs(f[::-1])
            xm, xg = poly_roots([cm], np.array([cg]),
                                f"a fiber factor of degree {len(f) - 1}")
            log_w, arg_w = pair_log_polar(xm[0], xg[0])
            numeric += [((Fraction(x.real) * Fraction(2)**g,
                          Fraction(x.imag) * Fraction(2)**g), (r, t, None, m))
                        for x, g, r, t in zip(xm[0].tolist(), xg[0].tolist(),
                                              log_w.tolist(),
                                              wrap_angle(arg_w).tolist())]
    numeric.sort(key=lambda entry: entry[0])
    out += [entry for _, entry in numeric]
    assert sum(entry[-1] for entry in out) == phi.d
    return tuple(out)


def ramification_index(phi: RationalMapQ, point: ProjPointQ) -> int:
    """Local ramification index e_P(phi), between 1 and deg(phi): the
    multiplicity of P = [a : b] in the fiber form of phi(P), by exact
    repeated division by b z - a."""
    inf_mult, finite = _fiber_form(phi, eval_map(phi, point))
    if point.is_infinity:
        e = inf_mult
    else:
        e = root_multiplicity(finite, point.a, point.b)
    assert 1 <= e <= phi.d
    return e


def bad_primes(phi: RationalMapQ) -> set:
    """Primes dividing Res(F, G); empty means good reduction everywhere."""
    if abs(phi.res) == 1:
        return set()
    return set(factor_integer(phi.res))


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


def stochastic_degree(system: StochasticSystem) -> Fraction:
    """Probability-harmonic mean of the map degrees, exact and >= 2."""
    inv = sum(p / phi.d for phi, p in system)
    delta = 1 / inv
    assert delta >= 2
    return delta


def is_exceptional_system(system: StochasticSystem, point: ProjPointQ) -> bool:
    """Every map totally ramified on the forward closure of the point."""
    closure, todo = {point}, [point]
    while todo:
        cur = todo.pop()
        for phi in system.maps:
            if ramification_index(phi, cur) != phi.d:
                return False
            image = eval_map(phi, cur)
            if image not in closure:
                if len(closure) == 2:  # no map is totally ramified at 3 points
                    return False
                closure.add(image)
                todo.append(image)
    return True


def walk_start(system: StochasticSystem, alpha: Optional[ProjPointQ],
               n: int, samples: int) -> Optional[ProjPointQ]:
    """The one guard of every sampled walk: the sizes first, then the
    start, returned normalized; alpha None (the canonical walk, which has
    no start) checks the sizes alone."""
    if n < 0 or samples < 1:
        raise ValueError("need n >= 0 and samples >= 1")
    if alpha is None:
        return None
    alpha = normalize_point(alpha.a, alpha.b)
    if is_exceptional_system(system, alpha):
        raise ExceptionalStart(f"{alpha} is exceptional for this system")
    return alpha


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
    multiplicity) for the nonlinear factors of the Wronskian of
    multiplicity >= d - 1 from exactnum.factor_poly: of a form of degree
    2d - 2 they are quadratics with no rational root, so irreducible, and
    their roots are candidates over a number field, not over Q, reported,
    not decided.
    """

    confirmed: tuple
    unresolved_factors: tuple


def exceptional_report(system: StochasticSystem) -> ExceptionalReport:
    """The candidates of the first map, the rational roots of multiplicity
    >= d - 1 of its Wronskian (infinity among them), decided by
    is_exceptional_system; its factors of multiplicity >= d - 1 with no
    rational root are reported unresolved."""
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
    confirmed = [p for p in candidates if is_exceptional_system(system, p)]
    confirmed.sort(key=lambda p: (p.is_infinity, None if p.is_infinity else p.as_fraction()))
    return ExceptionalReport(tuple(confirmed), tuple(unresolved))

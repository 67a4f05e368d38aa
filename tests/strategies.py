"""Shared hypothesis strategies for maps, points and measures."""

from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from stochdyn.dynsys import (
    CommonFactor,
    DegenerateMap,
    DegreeTooLow,
    make_map,
    make_system,
)
from stochdyn.exactnum import INFINITY, normalize_point
from stochdyn.heights import make_measure


@st.composite
def small_maps(draw, max_size=4):
    num = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=max_size))
    den = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=max_size))
    try:
        return make_map(num, den)
    except (DegenerateMap, DegreeTooLow, CommonFactor):
        assume(False)


@st.composite
def small_systems(draw):
    """One to three small maps of degrees 2 to 4, each inverted (numerator
    and denominator swapped) at random, with random probabilities."""
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        phi = draw(small_maps(max_size=5))
        if draw(st.booleans()):
            phi = make_map(phi.gcoeffs[::-1], phi.fcoeffs[::-1])
        maps.append(phi)
    wts = draw(st.lists(st.integers(1, 5), min_size=len(maps),
                        max_size=len(maps)))
    return make_system(maps, [Fraction(w, sum(wts)) for w in wts])


@st.composite
def points(draw, allow_infinity=True):
    if allow_infinity and draw(st.booleans()):
        return INFINITY
    a = draw(st.integers(-9, 9))
    b = draw(st.integers(1, 9))
    return normalize_point(a, b)


@st.composite
def finite_measures(draw, max_size=4):
    pairs = draw(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(1, 9)),
            min_size=1,
            max_size=max_size,
        )
    )
    support = []
    for a, b in pairs:
        p = normalize_point(a, b)
        if p not in support:
            support.append(p)
    wts = draw(
        st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support))
    )
    tot = sum(wts)
    return make_measure(support, [Fraction(w, tot) for w in wts])

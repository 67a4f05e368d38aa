import io
from fractions import Fraction

import numpy as np
import pytest

from stochdyn.archpotential import EquidistResult, equidist, write_equidist_csv
from stochdyn.dynsys import ExceptionalStart, make_map, make_system
from stochdyn.exactnum import normalize_point
from stochdyn.heights import ARCH, PlaceQ
from stochdyn.ifs import affine_ifs, stationary_law
from stochdyn.padicmodel import (UnsupportedStructure,
                                 sample_backward_valuations)

ONE = Fraction(1)
HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def shifted_quads():
    # z^2 + 1 alongside z^2: good reduction everywhere, not monomial
    return make_system([make_map([1, 0, 1], [1]), make_map([0, 0, 1], [1])],
                       [HALF, HALF])


def valuation_law(system, p):
    """The stationary law at p that equidist scores valuations against."""
    return stationary_law(affine_ifs(system, PlaceQ(p)))


def ks_at(system, p, alpha, n, samples, seed):
    return equidist(system, PlaceQ(p), alpha, n, samples, seed).scores["ks"]


def test_stationary_segment_rejects_nonprime(dyadic):
    for p in (4, 1, -2):
        with pytest.raises(ValueError, match="is not prime"):
            valuation_law(dyadic, p)


def test_stationary_segment_dyadic(dyadic):
    seg = valuation_law(dyadic, 2)
    assert seg.atom is None
    exact = np.clip(seg.grid + 1.0, 0.0, 1.0)
    assert np.max(np.abs(seg.cdf - exact)) <= 1e-9
    assert seg.cdf_at(-0.5) == pytest.approx(0.5, abs=1e-3)
    assert seg.cdf_at(-1.0) == pytest.approx(0.0, abs=1e-3)
    assert seg.cdf_at(0.0) == pytest.approx(1.0, abs=1e-3)
    assert seg.cdf_at(-2.0) == 0.0 and seg.cdf_at(1.0) == 1.0


def test_stationary_segment_atoms(single_z2):
    seg = valuation_law(single_z2, 2)
    assert seg.atom == Fraction(0)
    assert seg.cdf_at(-0.1) == 0.0 and seg.cdf_at(0.0) == 1.0

    four_z2 = make_system([make_map([0, 0, 4], [1])], [ONE])
    seg = valuation_law(four_z2, 2)
    assert seg.atom == Fraction(-2)


def test_stationary_segment_inverted():
    # 2/z^2: forward valuation v -> 1 - 2v, fixed point 1/3
    inv = make_system([make_map([2], [0, 0, 1])], [ONE])
    seg = valuation_law(inv, 2)
    assert seg.atom == Fraction(1, 3)


def _equidistributes_at_two(system):
    ks = ks_at(system, 2, normalize_point(3, 1), 30, 20000, 5)
    return ks <= 0.02


def test_stationary_segment_unsupported(shifted_quads):
    # both resultants are 1: good reduction does not help a non-monomial map
    for p in (2, 5):
        assert affine_ifs(shifted_quads, PlaceQ(p)) is None
        with pytest.raises(UnsupportedStructure):
            sample_backward_valuations(shifted_quads, PlaceQ(p),
                                       normalize_point(3, 1), 1, 1, 0)
    # mixed exponent signs and mixed degrees have a law too
    mixed_sign = make_system([make_map([0, 0, 2], [1]), make_map([1], [0, 0, 1])],
                             [HALF, HALF])
    assert _equidistributes_at_two(mixed_sign)
    mixed_deg = make_system(
        [make_map([0, 0, 1], [1]), make_map([0, 0, 0, 2], [1])], [HALF, HALF])
    assert _equidistributes_at_two(mixed_deg)


def test_equidist_inverted_at_two():
    # {1/z^2, 2^10/z^2}: the walk fills [-10/3, 20/3], beyond the hull
    # [0, 10/3] of the fixed points
    inv = make_system([make_map([1], [0, 0, 1]), make_map([2**10], [0, 0, 1])],
                      [HALF, HALF])
    assert _equidistributes_at_two(inv)
    seg = valuation_law(inv, 2)
    assert seg.cdf_at(-10 / 3 + 0.1) > 0.0 and seg.cdf_at(20 / 3 - 0.1) < 1.0


def test_equidist_dyadic_at_two(dyadic):
    ks = ks_at(dyadic, 2, normalize_point(1, 1), 30, 20000, 5)
    assert ks <= 0.02


def test_equidist_dyadic_at_three(dyadic):
    # good reduction: the walk never leaves v = 0
    ks = ks_at(dyadic, 3, normalize_point(1, 1), 30, 5000, 1)
    assert ks == 0.0


def test_equidist_z2_contracts(single_z2):
    ks = ks_at(single_z2, 2, normalize_point(2, 1), 30, 1000, 9)
    assert ks == 0.0


def test_equidist_guards(dyadic, shifted_quads):
    with pytest.raises(ExceptionalStart):
        equidist(dyadic, PlaceQ(2), normalize_point(0, 1), 10, 10, 0)
    with pytest.raises(UnsupportedStructure):
        equidist(shifted_quads, PlaceQ(2), normalize_point(3, 1), 10, 10, 0)
    bad = make_system([make_map([1, 0, 1], [2])], [ONE])
    with pytest.raises(UnsupportedStructure):
        equidist(bad, PlaceQ(2), normalize_point(3, 1), 10, 10, 0)
    with pytest.raises(ValueError):
        equidist(dyadic, PlaceQ(2), normalize_point(1, 1), -1, 10, 0)
    # the valuation walk has no archimedean place to walk
    with pytest.raises(ValueError, match="needs a prime place"):
        sample_backward_valuations(dyadic, ARCH, normalize_point(3, 1), 5,
                                   10, 0)
    # depth and sample count are checked before the start point, at both
    # places, so a bad depth from an exceptional start is a ValueError
    for place in (ARCH, PlaceQ(2)):
        for n, samples in ((-2, 10), (5, 0)):
            with pytest.raises(ValueError, match="need n >= 0"):
                equidist(dyadic, place, normalize_point(0, 1), n, samples, 0)


def test_zero_and_infinity_starts(general, dyadic, signed):
    # 0 and infinity are exceptional for every monomial-shaped system, so a
    # system without valuation dynamics is the only one that reaches the
    # walk from there, and it is refused as at any other start
    for alpha in (normalize_point(0, 1), normalize_point(1, 0)):
        with pytest.raises(UnsupportedStructure):
            equidist(general, PlaceQ(2), alpha, 5, 10, 0)
        for system in (dyadic, signed):
            with pytest.raises(ExceptionalStart):
                equidist(system, PlaceQ(2), alpha, 5, 10, 0)


def test_depth_zero_is_the_start_atom(dyadic):
    # level 0 is v_p(alpha) itself, as orbits.backward_sample's is alpha
    for alpha, v in ((normalize_point(12, 1), 2.0), (normalize_point(3, 2), -1.0)):
        vals = equidist(dyadic, PlaceQ(2), alpha, 0, 10, 0).values
        assert vals.tolist() == [v] * 10
    ks = ks_at(dyadic, 2, normalize_point(1, 1), 0, 10, 0)
    assert ks == 1.0  # the atom at 0 against the uniform law on [-1, 0]


def test_equidist_deterministic(dyadic):
    a, b = (equidist(dyadic, PlaceQ(2), normalize_point(3, 2), 20, 2000, 42)
            for _ in range(2))
    assert a.scores == b.scores and np.array_equal(a.values, b.values)


def test_deep_walk_uses_float_fallback(dyadic):
    # depth 80 takes valuations past 53 bits; the law is still the segment law
    ks = ks_at(dyadic, 2, normalize_point(1, 1), 80, 20000, 3)
    assert ks <= 0.02


def test_valuation_csv(dyadic):
    vals = np.array([-0.75, -0.5, -0.25, 0.0])
    res = EquidistResult(PlaceQ(2), {"ks": 0.0}, vals,
                         valuation_law(dyadic, 2))
    buf = io.StringIO()
    write_equidist_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "v,empirical_cdf,reference_cdf"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == -0.75
    assert float(first[2]) == pytest.approx(0.25, abs=1e-3)

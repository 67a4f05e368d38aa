import io
import math
from fractions import Fraction

import numpy as np
import pytest

from stochdyn.dynsys import ExceptionalStart, make_map, make_system
from stochdyn.exactnum import normalize_point
from stochdyn.padicmodel import (
    UnsupportedStructure,
    equidist_test_padic,
    stationary_segment,
    write_valuation_cdf_csv,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def shifted_quads():
    # z^2 + 1 alongside z^2: good reduction everywhere, not monomial
    return make_system([make_map([1, 0, 1], [1]), make_map([0, 0, 1], [1])],
                       [HALF, HALF])


def test_stationary_segment_rejects_nonprime(dyadic):
    with pytest.raises(ValueError):
        stationary_segment(dyadic, 4)


def test_stationary_segment_dyadic(dyadic):
    seg = stationary_segment(dyadic, 2)
    assert seg.atom is None
    exact = np.clip(seg.grid + 1.0, 0.0, 1.0)
    assert np.max(np.abs(seg.cdf - exact)) <= 1e-9
    assert seg.cdf_at(-0.5) == pytest.approx(0.5, abs=1e-3)
    assert seg.cdf_at(-1.0) == pytest.approx(0.0, abs=1e-3)
    assert seg.cdf_at(0.0) == pytest.approx(1.0, abs=1e-3)
    assert seg.cdf_at(-2.0) == 0.0 and seg.cdf_at(1.0) == 1.0


def test_stationary_segment_atoms(single_z2):
    seg = stationary_segment(single_z2, 2)
    assert seg.atom == Fraction(0)
    assert seg.cdf_at(-0.1) == 0.0 and seg.cdf_at(0.0) == 1.0

    four_z2 = make_system([make_map([0, 0, 4], [1])], [ONE])
    seg = stationary_segment(four_z2, 2)
    assert seg.atom == Fraction(-2)


def test_stationary_segment_inverted():
    # 2/z^2: forward valuation v -> 1 - 2v, fixed point 1/3
    inv = make_system([make_map([2], [0, 0, 1])], [ONE])
    seg = stationary_segment(inv, 2)
    assert seg.atom == Fraction(1, 3)


def _equidistributes_at_two(system):
    ks, _, _ = equidist_test_padic(system, 2, normalize_point(3, 1), 30, 20000, 5)
    return ks <= 0.02


def test_stationary_segment_unsupported(shifted_quads):
    # both resultants are 1: good reduction does not help a non-monomial map
    for p in (2, 5):
        with pytest.raises(UnsupportedStructure):
            stationary_segment(shifted_quads, p)
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
    seg = stationary_segment(inv, 2)
    assert seg.cdf_at(-10 / 3 + 0.1) > 0.0 and seg.cdf_at(20 / 3 - 0.1) < 1.0


def test_equidist_dyadic_at_two(dyadic):
    ks, _, _ = equidist_test_padic(dyadic, 2, normalize_point(1, 1), 30, 20000, 5)
    assert ks <= 0.02


def test_equidist_dyadic_at_three(dyadic):
    # good reduction: the walk never leaves v = 0
    ks, _, _ = equidist_test_padic(dyadic, 3, normalize_point(1, 1), 30, 5000, 1)
    assert ks == 0.0


def test_equidist_z2_contracts(single_z2):
    ks, _, _ = equidist_test_padic(single_z2, 2, normalize_point(2, 1), 30, 1000, 9)
    assert ks == 0.0


def test_equidist_guards(dyadic, shifted_quads):
    with pytest.raises(ExceptionalStart):
        equidist_test_padic(dyadic, 2, normalize_point(0, 1), 10, 10, 0)
    with pytest.raises(UnsupportedStructure):
        equidist_test_padic(shifted_quads, 2, normalize_point(3, 1), 10, 10, 0)
    bad = make_system([make_map([1, 0, 1], [2])], [ONE])
    with pytest.raises(UnsupportedStructure):
        equidist_test_padic(bad, 2, normalize_point(3, 1), 10, 10, 0)
    with pytest.raises(ValueError):
        equidist_test_padic(dyadic, 2, normalize_point(1, 1), -1, 10, 0)


def test_depth_zero_is_the_start_atom(dyadic):
    # level 0 is v_p(alpha) itself, as orbits.backward_sample's is alpha
    for alpha, v in ((normalize_point(12, 1), 2.0), (normalize_point(3, 2), -1.0)):
        ks, vals, _ = equidist_test_padic(dyadic, 2, alpha, 0, 10, 0)
        assert vals.tolist() == [v] * 10
    ks, _, _ = equidist_test_padic(dyadic, 2, normalize_point(1, 1), 0, 10, 0)
    assert ks == 1.0  # the atom at 0 against the uniform law on [-1, 0]


def test_equidist_deterministic(dyadic):
    ks_a, vals_a, _ = equidist_test_padic(dyadic, 2, normalize_point(3, 2),
                                          20, 2000, 42)
    ks_b, vals_b, _ = equidist_test_padic(dyadic, 2, normalize_point(3, 2),
                                          20, 2000, 42)
    assert ks_a == ks_b and np.array_equal(vals_a, vals_b)


def test_deep_walk_uses_float_fallback(dyadic):
    # depth 80 takes valuations past 53 bits; the law is still the segment law
    ks, _, _ = equidist_test_padic(dyadic, 2, normalize_point(1, 1), 80, 20000, 3)
    assert ks <= 0.02


def test_valuation_csv(dyadic):
    seg = stationary_segment(dyadic, 2)
    vals = np.array([-0.75, -0.5, -0.25, 0.0])
    buf = io.StringIO()
    write_valuation_cdf_csv(vals, seg, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "v,empirical_cdf,reference_cdf"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == -0.75
    assert float(first[2]) == pytest.approx(0.25, abs=1e-3)

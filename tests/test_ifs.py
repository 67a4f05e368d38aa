"""The affine IFS against the maps it models."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stochdyn.dynsys import eval_map, make_map, make_system
from stochdyn.exactnum import (
    log_abs_fraction,
    padic_valuation,
    point_from_rational,
)
from stochdyn.ifs import affine_ifs

nonzero = st.fractions(min_value=-10**6, max_value=10**6,
                       max_denominator=10**6).filter(lambda q: q != 0)


@st.composite
def monomial_maps(draw):
    """a z^d or a z^(-d) with d in [2, 5]."""
    a = draw(nonzero)
    d = draw(st.integers(2, 5))
    if draw(st.booleans()):
        return make_map([a.numerator], [0] * d + [a.denominator])
    return make_map([0] * d + [a.numerator], [a.denominator])


@given(st.lists(monomial_maps(), min_size=1, max_size=3), nonzero,
       st.sampled_from([2, 3, 5, 7]))
def test_step_undoes_each_map(maps, z, p):
    system = make_system(maps, [Fraction(1, len(maps))] * len(maps))
    at_inf, at_p = affine_ifs(system), affine_ifs(system, p)
    for i, phi in enumerate(maps):
        w = eval_map(phi, point_from_rational(z)).as_fraction()
        idx = np.array([i])
        back = at_p.step(np.array([float(padic_valuation(w, p))]), idx)[0]
        assert back == padic_valuation(z, p)
        x = log_abs_fraction(w)
        back = at_inf.step(np.array([x]), idx)[0]
        scale = max(1.0, abs(x), abs(at_inf.shifts[i]))
        assert back == pytest.approx(log_abs_fraction(z), rel=0,
                                     abs=1e-12 * scale)

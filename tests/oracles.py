"""Oracles of the tests: word enumeration, per-word ramification and the
weights of a backward-tree level as Fractions.

The weighted depth-3 ramification ratio sigma3 equals 1 exactly where
`dynsys.is_exceptional_system` holds; depth 2 would not suffice, as the
pair {1/z^2, z^2 + 1} at infinity shows."""

import itertools
from fractions import Fraction
from typing import NamedTuple

from stochdyn.dynsys import StochasticSystem, eval_map, ramification_index
from stochdyn.exactnum import ProjPointQ
from stochdyn.stochheight import WORD_CAP_DEFAULT, WordCapExceeded


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

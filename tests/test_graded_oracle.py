"""Gradings over a 0-dimensional base, run through the graded code every
dimension shares, against the separate dimension-0 routes it replaced
(``oracles.*_0``): equal presentations, equal morphisms and the same
candidates in the same order.
"""

from itertools import islice

import oracles
import pytest

from htk.constructions import disc_monoidal, monoidal_as_dim0
from htk.graded import (
    _graded_from_pairs,
    compose_morphisms,
    enumerate_graded_presentations,
    from_projection,
    product_graded,
    pullback,
    push_left,
    relabel_graded,
    terminal_graded,
    to_projection,
)
from htk.theory import DIM0_KEY, enumerate_morphisms
from htk.zoo import cyclic_monoid_theory

BASES = {
    "cyclic:2": lambda bound: cyclic_monoid_theory(2, bound=bound),
    "cyclic:3": lambda bound: cyclic_monoid_theory(3, bound=bound),
    "disc-monoid:2": lambda bound: monoidal_as_dim0(disc_monoidal(2), bound=bound),
}

GRADINGS = {
    "terminal": lambda U, bound: terminal_graded(U, bound=bound),
    "product": lambda U, bound: product_graded(U, 2, bound=bound),
}

every_grading = pytest.mark.parametrize(
    "base,grading,bound",
    [(b, g, bound) for b in BASES for g in GRADINGS for bound in (1, 2)],
)


def _graded(base, grading, bound):
    U = BASES[base](bound)
    return U, GRADINGS[grading](U, bound)


@every_grading
def test_projection_round(base, grading, bound):
    U, X = _graded(base, grading, bound)
    Y, p = to_projection(X)
    assert (Y, p) == oracles.to_projection_0(X)
    assert _graded_from_pairs(U, Y) == oracles.graded_from_pairs_0(U, Y)
    # the projection, and its composites with every endomorphism of the
    # base, which merge fibres
    for F in enumerate_morphisms(U, U, bound):
        q = compose_morphisms(F, p)
        assert from_projection(Y, q) == oracles.from_projection_0(Y, q)


@every_grading
def test_relabel(base, grading, bound):
    _, X = _graded(base, grading, bound)

    def obj_map(u, x):
        return ("object", u, x)

    def lab_map(d, v, y):
        return ("label", d, v, y)

    got = relabel_graded(X, obj_map, lab_map)
    assert got == oracles.relabel_graded_0(X, obj_map, lab_map)
    # the elements of a 0-dimensional base are labels of its top dimension
    assert got.objects == {}
    assert all(y[:2] == ("label", 0) for ys in got.table(0)[DIM0_KEY].values() for y in ys)


@every_grading
def test_pullback(base, grading, bound):
    U, X = _graded(base, grading, bound)
    Z4 = cyclic_monoid_theory(4, bound=bound)
    for F in enumerate_morphisms(U, U, bound) + enumerate_morphisms(Z4, U, bound):
        assert pullback(F, X, bound) == oracles.pullback_0(F, X, bound)


def test_bound_10():
    # the composition table holds the 1-arity with ten inputs, k1|t10|
    X = terminal_graded(cyclic_monoid_theory(2, bound=10), bound=10)
    Y, p = to_projection(X)
    assert (Y, p) == oracles.to_projection_0(X)
    assert from_projection(Y, p) == oracles.from_projection_0(Y, p)
    unit = push_left(X, terminal_graded(Y, bound=10))
    assert relabel_graded(unit, lambda u, x: x[0][1], lambda d, v, y: y[0][1]) == X


@pytest.mark.parametrize("base", list(BASES))
@pytest.mark.parametrize("bound,cap", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_candidates(base, bound, cap):
    # at bound 2 and cap 2 the candidates run to the billions: compare a
    # prefix of each list
    U = BASES[base](bound)
    got = list(islice(enumerate_graded_presentations(U, {}, cap, bound), 400))
    assert got == list(islice(oracles.enumerate_graded_0(U, cap, bound), 400))
    assert got

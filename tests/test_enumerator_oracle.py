"""The candidate enumerators of the structure theorem against the routes
they replaced (``oracles.enumerate_graded_presentations`` and
``oracles.enumerate_algebra_presentations``, which keep a ``dead`` flag
and, for the algebras, a body per acting dimension and a hand-rolled
layout walk): the same candidates in the same order, field by field and
with every dict in the same order.
"""

from dataclasses import fields
from itertools import islice

import oracles
import pytest

from htk.constructions import theta
from htk.graded import enumerate_algebra_presentations, enumerate_graded_presentations
from htk.theory import TheoryPresentation
from htk.zoo import assoc_operad, cyclic_monoid_theory, discrete_category, init_operad, terminal_theory

BASES = {
    "cyclic:2": lambda bound: cyclic_monoid_theory(2, bound=bound),
    "cyclic:3": lambda bound: cyclic_monoid_theory(3, bound=bound),
    "discrete:2": lambda bound: discrete_category(2, bound=bound),
    "assoc": lambda bound: assoc_operad(bound=bound),
    "init": lambda bound: init_operad(bound=bound),
    "terminal:ab": lambda bound: terminal_theory(1, colours=("a", "b"), bound=bound),
}

OBJECTS = {"none": (), "p": ("p",), "pq": ("p", "q")}

# (base, bound, cap, objects over every colour).  Over a 0-dimensional
# base the objects are unused.  Left out: the cases whose first 500
# candidates take seconds or more, such as terminal:ab with pq at bound 1
# and discrete:2 or assoc with pq at bound 2.
CASES = (
    [(b, bound, cap, "none") for b in ("cyclic:2", "cyclic:3") for bound in (1, 2) for cap in (1, 2)]
    + [(b, 1, cap, o) for b in ("discrete:2", "assoc", "init") for cap in (1, 2) for o in OBJECTS]
    + [("terminal:ab", 1, cap, o) for cap in (1, 2) for o in ("none", "p")]
    + [(b, 2, cap, "p") for b in ("discrete:2", "assoc") for cap in (1, 2)]
)

# a prefix of each list: at cap 2 the candidates run to the billions
PREFIX = 500


def _key_order(x):
    """The keys of every dict in ``x`` in their order, nested dicts
    included; ``None`` for anything else."""
    if isinstance(x, dict):
        return [(k, _key_order(v)) for k, v in x.items()]
    return None


def assert_same_candidates(got, want):
    """Equal candidates in the same order, field by field and with every
    dict in the same order; the presentation acted on or graded over is
    the same object."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        for f in fields(g):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if isinstance(a, TheoryPresentation):
                assert a is b
            else:
                assert a == b and _key_order(a) == _key_order(b), f.name


@pytest.mark.parametrize("base,bound,cap,objs", CASES, ids=[f"{b}-b{n}-cap{c}-{o}" for b, n, c, o in CASES])
def test_candidates_equal_the_oracles(base, bound, cap, objs):
    U = BASES[base](bound)
    W = theta(U, bound)
    objects = {u: OBJECTS[objs] for u in U.label_set(0)} if OBJECTS[objs] else {}
    got = list(islice(enumerate_graded_presentations(U, objects, cap, bound), PREFIX))
    assert got
    assert_same_candidates(got, list(islice(oracles.enumerate_graded_presentations(U, objects, cap, bound), PREFIX)))
    got = list(islice(enumerate_algebra_presentations(W, objects, cap, bound), PREFIX))
    assert got
    assert_same_candidates(got, list(islice(oracles.enumerate_algebra_presentations(W, objects, cap, bound), PREFIX)))

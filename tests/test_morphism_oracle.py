"""The morphism layer translates every table key through
``theory.image_key`` and treats dimension 0 like any other dimension.
The per-caller routes it replaced (``oracles.image_key``,
``compose_morphisms``, the two-callback ``morphism_from_maps`` and
``from_projection``) must give the same keys, the same actions and the
same bytes: on the graded zoo, on the morphisms ``convolve`` builds, and
on the morphisms the searches of ``test_search_oracle`` find.
"""

import functools
from itertools import islice

import oracles
import pytest

from htk.cli import serialize
from htk.graded import (
    compose_morphisms,
    from_projection,
    graded_morphisms,
    morphism_from_maps,
    product_graded,
    push_left,
    terminal_graded,
    theta_morphism,
    to_projection,
)
from htk.theory import POINT, enumerate_morphisms, identity_morphism, image_key
from htk.zoo import cyclic_monoid_theory, init_operad
from test_graded import graded_zoo
from test_search_oracle import GRADED, PLAIN

zoo = functools.lru_cache(maxsize=None)(graded_zoo)


def check_keys(F):
    """``image_key`` against the per-caller chain on every whole and lower
    table key of F's source; the number of keys compared."""
    S = F.source
    keys = [(ak, key, False) for d in range(S.n + 1) for ak, key in S.table(d)]
    keys += [(ak, lk, True) for ak, lk in S.composition]
    for ak, key, lower in keys:
        assert image_key(F, ak, key) == oracles.image_key(F, ak, key, lower)
    return len(keys)


def check_morphism(F):
    """F's keys, its composites with identities and its graded form, each
    against the oracles."""
    assert check_keys(F)
    for G, H in ((identity_morphism(F.target), F), (F, identity_morphism(F.source))):
        assert compose_morphisms(G, H).actions == oracles.compose_morphisms(G, H).actions
    got, want = from_projection(F.source, F), oracles.from_projection(F.source, F)
    assert got == want and serialize(got) == serialize(want)


def check_rule(S, T, colour_map, label_map):
    """``morphism_from_maps`` with one rule for every dimension against the
    oracle's colour map and label rule: the same actions, and the rule
    called with the same translated keys in the same order."""
    calls, old_calls = [], []

    def rule(d, ak, sk, tk, lab):
        calls.append((d, ak, sk, tk, lab))
        return colour_map(lab) if d == 0 else label_map(d, ak, sk, tk, lab)

    def old_rule(d, ak, sk, tk, lab):
        old_calls.append((d, ak, sk, tk, lab))
        return label_map(d, ak, sk, tk, lab)

    F = morphism_from_maps(S, T, rule)
    assert F.actions == oracles.morphism_from_maps(S, T, colour_map, old_rule).actions
    assert [c for c in calls if c[0]] == old_calls
    assert all(c[3] == () for c in calls if c[0] == 0)
    return F


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("idx", range(5))
def test_graded_zoo(idx, bound):
    X = zoo(bound)[idx]
    Y, p = to_projection(X)
    check_morphism(p)
    q = check_rule(Y, X.base, lambda c: c[0], lambda d, ak, sk, tk, lab: lab[0])
    assert q.actions == p.actions
    if bound == 1:
        check_morphism(theta_morphism(p, 1))


CONVOLVE = {"cyclic:2": lambda: cyclic_monoid_theory(2, bound=1), "init": lambda: init_operad(bound=1)}


@pytest.mark.parametrize("name", sorted(CONVOLVE))
def test_convolve_morphisms(name):
    # the regrading morphisms of convolve(product_graded(U, 2),
    # terminal_graded(U)) at bound 1, built as convolve builds them
    U = CONVOLVE[name]()
    m = U.n
    X = product_graded(U, 2, bound=1)
    objects = {u: X.objects.get(u, ()) for u in U.label_set(0)}
    Tm = terminal_graded(U, bound=1) if m == 0 else terminal_graded(U, objects, bound=1)
    XP, _ = to_projection(X)
    TT, _ = to_projection(Tm)
    r = morphism_from_maps(XP, TT, lambda d, ak, sk, tk, lab: (lab[0], POINT) if d == m else lab)
    if m == 0:
        old = oracles.morphism_from_maps(XP, TT, lambda e: (e[0], POINT))
    else:
        old = oracles.morphism_from_maps(XP, TT, lambda c: c, lambda d, ak, sk, tk, lab: (lab[0], POINT))
    assert r.actions == old.actions
    check_morphism(r)
    Xr = from_projection(XP, r)
    _, p = to_projection(Tm)
    _, q = to_projection(Xr)
    check_morphism(compose_morphisms(p, q))
    BP, _ = to_projection(push_left(Tm, Xr))
    Rm = morphism_from_maps(BP, TT, lambda d, ak, sk, tk, lab: lab[1][0])
    assert Rm.actions == oracles.morphism_from_maps(BP, TT, lambda c: c[1][0], lambda d, ak, sk, tk, lab: lab[1][0]).actions
    check_morphism(Rm)


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("name", sorted(PLAIN))
def test_plain_search_morphisms(name, bound):
    S, T = PLAIN[name]
    found = list(islice(enumerate_morphisms(S, T, bound), 4))
    assert found
    for F in found:
        check_morphism(F)
        G = check_rule(S, T, lambda c: F.act(0, "", (), c), lambda d, ak, sk, tk, lab: F.act(d, ak, sk, lab))
        assert compose_morphisms(identity_morphism(T), G).actions == G.actions


@pytest.mark.parametrize("name", sorted(GRADED))
def test_graded_search_morphisms(name):
    A, B = GRADED[name]
    found = graded_morphisms(A, B, 1)[:4]
    assert found
    for F in found:
        check_morphism(F)

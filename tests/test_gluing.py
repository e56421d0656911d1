"""Gluing classes of a base against the search that checks every instance.

``field_theories`` checks one base composition instance per gluing class
(``BasePresentation.gluings``).  Under every colouring and the first 64
candidates of each, every member of a class must pass or fail its check
with the class's first member, and the search must give the theories of
``oracles.field_theories``, which checks every instance, in the same
order.
"""

from itertools import islice, product

import oracles
import pytest

from htk.bases import (
    _gluing_key,
    _instance_places,
    assoc_properad,
    bord1_skeleton,
    cocorr_fin_skeleton,
    codiscrete_category,
    cyclic_group_category,
    enumerate_categories,
    field_theories,
    properad_adapter,
    terminal_bgraded,
    terminal_properad,
    walking_arrow,
    walking_idempotent,
    zc_build,
)


def _classes(B):
    """Every class of ``B`` with all its members, each as the search files
    its representative: ``(inst, depth, nf, ng, nh)``."""
    shapes, _ = B.gluings
    classes = {}
    for inst, h in B.compose.items():
        places = _instance_places(inst, h, shapes)
        classes.setdefault(_gluing_key(inst, h, places), []).append((inst, *places))
    return list(classes.values())


def test_bord1_classes_are_pinned():
    B = bord1_skeleton(3, 1)
    assert (len(B.compose), len(B.gluings[1])) == (637, 98)


@pytest.mark.parametrize("B", [bord1_skeleton(3, 1), cocorr_fin_skeleton(2)], ids=["bord1(3,1)", "cocorr(2)"])
def test_representatives_are_first_members(B):
    assert B.gluings[1] == tuple(members[0] for members in _classes(B))


def test_cospan_classes_have_one_member():
    B = cocorr_fin_skeleton(2)
    assert all(len(members) == 1 for members in _classes(B))
    assert len(B.gluings[1]) == len(B.compose) == 315


INVARIANT_CATEGORIES = {
    "walking-arrow": walking_arrow(),
    "codiscrete:2": codiscrete_category(2),
    "cyclic-group:3": cyclic_group_category(3),
    "walking-idempotent": walking_idempotent(),
}


def _passes(Z, cols, labs, inst, _depth, nf, ng, nh):
    ccols = tuple(tuple(cols[s] for s in obj) for obj in inst[0])
    out = Z.composition(inst, ccols, tuple(labs[k] for k in nf), tuple(labs[k] for k in ng))
    return out == tuple(labs[k] for k in nh)


def test_class_members_check_alike():
    # the candidates are not unit-forced, so some checks fail; on
    # codiscrete:2 every label set has one label, and every check passes
    outcomes = set()
    for C, hochschild in product(INVARIANT_CATEGORIES.values(), (False, True)):
        Z = zc_build(C, hochschild=hochschild)
        B = Z.base
        shapes, _ = B.gluings
        classes = [members for members in _classes(B) if len(members) > 1]
        gens = tuple(B.ind_objects)
        for colchoice in product(*(Z.colours[g] for g in gens)):
            cols = dict(zip(gens, colchoice))
            opts = []
            for shape in shapes:
                so, to = B.ind_morphisms[shape]
                opts.append(Z.multimaps[(shape, tuple(cols[s] for s in so), tuple(cols[t] for t in to))])
            for labs in islice(product(*opts), 64):
                for rep, *rest in classes:
                    want = _passes(Z, cols, labs, *rep)
                    outcomes.add(want)
                    for member in rest:
                        assert _passes(Z, cols, labs, *member) == want, (colchoice, labs, rep[0], member[0])
    assert outcomes == {False, True}


@pytest.mark.parametrize("hochschild", [False, True])
def test_search_matches_every_instance_route(hochschild):
    for i, C in enumerate(enumerate_categories(2, 4)):
        Z = zc_build(C, hochschild=hochschild)
        assert field_theories(Z) == oracles.field_theories(Z), i


@pytest.mark.parametrize(
    "make",
    [
        lambda: properad_adapter(terminal_properad(2)),
        lambda: properad_adapter(assoc_properad(2)),
        lambda: terminal_bgraded(bord1_skeleton(3, 1)),
    ],
    ids=["terminal-properad", "assoc-properad", "terminal-bgraded"],
)
def test_other_theories_match_every_instance_route(make):
    Z = make()
    assert field_theories(Z) == oracles.field_theories(Z)

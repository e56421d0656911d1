"""Atoms and gluing classes of a base against the search that checks
every instance.

``field_theories`` checks one base composition instance per atom
(``BasePresentation.gluings``, ``bases._atoms``).  Under every colouring
and the first 64 candidates of each, every planned instance must pass
its check exactly when the representatives of all its atoms pass
theirs, and every member of a gluing class (``oracles.gluing_key``) must
pass or fail with the class's first member.  The search must give the
theories of ``oracles.field_theories``, which checks every instance or
one per gluing class, in the same order and with the same budget texts.
"""

import functools
from itertools import islice, product

import oracles
import pytest

from htk.bases import (
    _atoms,
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
    """Every gluing class of ``B`` with all its members, each as the search
    files its representative: ``(inst, depth, nf, ng, nh)``."""
    shapes, _ = B.gluings
    classes = {}
    for inst, h in B.compose.items():
        places = _instance_places(inst, h, shapes)
        classes.setdefault(oracles.gluing_key(inst, h, places), []).append((inst, *places))
    return list(classes.values())


def test_bord1_classes_are_pinned():
    B = bord1_skeleton(3, 1)
    assert (len(B.compose), len(oracles.gluing_classes(B))) == (637, 98)


@pytest.mark.parametrize("B", [bord1_skeleton(3, 1), cocorr_fin_skeleton(2)], ids=["bord1(3,1)", "cocorr(2)"])
def test_representatives_are_first_members(B):
    assert oracles.gluing_classes(B) == tuple(members[0] for members in _classes(B))


def test_cospan_classes_have_one_member():
    B = cocorr_fin_skeleton(2)
    assert all(len(members) == 1 for members in _classes(B))
    assert len(oracles.gluing_classes(B)) == len(B.compose) == 315


def _atom_checks(B):
    """The planned instances whose atoms all have a representative, each
    with those representatives, and the representative of each atom: the
    first instance in ``compose`` order whose atoms are that atom alone."""
    shapes, _ = B.gluings
    planned, alone = [], {}
    for inst, h in B.compose.items():
        places = _instance_places(inst, h, shapes)
        atoms = _atoms(inst, h, places)
        if atoms is not None:
            planned.append(((inst, *places), atoms))
            if len(set(atoms)) == 1:
                alone.setdefault(atoms[0], (inst, *places))
    return [(inst, [alone[a] for a in atoms]) for inst, atoms in planned if all(a in alone for a in atoms)], alone


@pytest.mark.parametrize(
    "B, reps, atoms",
    [(bord1_skeleton(3, 1), 9, 9), (bord1_skeleton(2, 1), 7, 7), (cocorr_fin_skeleton(2), 314, 0)],
    ids=["bord1(3,1)", "bord1(2,1)", "cocorr(2)"],
)
def test_atom_representatives_are_pinned(B, reps, atoms):
    # every atom of a bordism base has an instance of its own, and every
    # cospan instance but the empty one is its own representative
    _, alone = _atom_checks(B)
    assert (len(B.gluings[1]), len(alone)) == (reps, atoms)
    assert set(alone.values()) <= set(B.gluings[1])


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


def test_instances_check_as_their_atoms():
    outcomes = set()
    theories = [zc_build(C, hochschild=hochschild) for C, hochschild in product(INVARIANT_CATEGORIES.values(), (False, True))]
    for Z in theories + [terminal_bgraded(bord1_skeleton(3, 1))]:
        B = Z.base
        shapes, _ = B.gluings
        checks, _ = _atom_checks(B)
        assert len(checks) == len(B.compose)
        checks = [(inst, reps) for inst, reps in checks if reps != [inst]]  # not an atom's own representative
        gens = tuple(B.ind_objects)
        for colchoice in product(*(Z.colours[g] for g in gens)):
            cols = dict(zip(gens, colchoice))
            opts = []
            for shape in shapes:
                so, to = B.ind_morphisms[shape]
                opts.append(Z.multimaps[(shape, tuple(cols[s] for s in so), tuple(cols[t] for t in to))])
            for labs in islice(product(*opts), 64):
                for inst, reps in checks:
                    want = _passes(Z, cols, labs, *inst)
                    outcomes.add(want)
                    assert all(_passes(Z, cols, labs, *rep) for rep in reps) == want, (colchoice, labs, inst[0])
    assert outcomes == {False, True}


@pytest.mark.parametrize("hochschild", [False, True])
def test_search_matches_every_instance_route(hochschild):
    for i, C in enumerate(enumerate_categories(2, 4)):
        Z = zc_build(C, hochschild=hochschild)
        assert field_theories(Z) == oracles.field_theories(Z), i


@pytest.mark.parametrize("hochschild", [False, True])
def test_search_matches_class_route(hochschild):
    for i, C in enumerate(enumerate_categories(2, 4)):
        Z = zc_build(C, hochschild=hochschild)
        assert field_theories(Z) == oracles.field_theories(Z, by_class=True), i


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
    assert field_theories(Z) == oracles.field_theories(Z) == oracles.field_theories(Z, by_class=True)


def _outcome(search, Z, budget):
    try:
        return search(Z, budget=budget)
    except RuntimeError as e:
        return str(e)


@pytest.mark.parametrize("C", [walking_idempotent(), cyclic_group_category(3)], ids=["walking-idempotent", "cyclic-group:3"])
def test_budgets_match_both_routes(C):
    # rejected candidates fail at other depths on the atom route; every
    # budget below the candidate count gives the same text on all three
    # routes, and the first budget that does not gives the same list
    Z = zc_build(C, hochschild=True)
    by_class = functools.partial(oracles.field_theories, by_class=True)
    budget = 0
    while True:
        got = _outcome(field_theories, Z, budget)
        assert got == _outcome(oracles.field_theories, Z, budget) == _outcome(by_class, Z, budget), budget
        if not isinstance(got, str):
            break
        budget += 1
    assert budget > len(got) > 0

"""The finite-category routines of ``bases`` against the routes they
replaced (kept in ``oracles``).

Each skeleton must equal the oracle's field by field, dict insertion
order included, since ``validate_base`` walks ``compose`` in that order
under its associativity cap.  ``validate_base`` must print the oracle's
report on every skeleton and on corrupted copies of the small ones,
``validate_category`` must reach the oracle's status, and the shared
union-find must group as both old ones did.  The category enumerator
must list the oracle's categories in its order.
"""

from dataclasses import fields, replace
from functools import lru_cache

import oracles
import pytest
from test_bases import BROKEN_CATEGORIES

from htk import bases

SKELETONS = {
    "bord1(2,1)": ("bord1_skeleton", (2, 1)),
    "bord1(3,1)": ("bord1_skeleton", (3, 1)),
    "bord1(2,2)": ("bord1_skeleton", (2, 2)),
    "cocorr(2)": ("cocorr_fin_skeleton", (2,)),
    "cocorr(3)": ("cocorr_fin_skeleton", (3,)),
}

STOCK = (
    bases.unit_category,
    lambda: bases.discrete_finite_category(3),
    lambda: bases.codiscrete_category(3),
    bases.walking_arrow,
    bases.walking_idempotent,
    lambda: bases.cyclic_group_category(4),
    lambda: bases.chain_category(3),
)


@lru_cache(maxsize=None)
def _oracle_skeleton(name):
    fn, args = SKELETONS[name]
    return getattr(oracles, fn)(*args)


def _skeleton(name):
    fn, args = SKELETONS[name]
    return getattr(bases, fn)(*args)


@pytest.mark.parametrize("name", sorted(SKELETONS))
def test_skeleton_equals_oracle(name):
    got, want = _skeleton(name), _oracle_skeleton(name)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b, f.name
        if isinstance(b, dict):
            assert list(a) == list(b), f"{f.name} insertion order"


@pytest.mark.parametrize("name", sorted(SKELETONS))
def test_validate_base_report_equals_oracle(name):
    B = _skeleton(name)
    assert bases.validate_base(B).lines() == oracles.validate_base(B).lines()


def _other(pool, m):
    return next(x for x in pool if x != m)


def _corruptions(B):
    """Copies of ``B`` that each break one law of a skeleton."""
    (a, b), ms = next((st, ms) for st, ms in B.morphisms.items() if len(ms) >= 2)
    ia = B.identity[a]
    plain = next(
        inst
        for inst in B.compose
        if B.identity.get(inst[0][0]) not in inst[1]
        and B.identity.get(inst[0][1]) not in inst[1]
        and len(B.morphisms[(inst[0][0], inst[0][2])]) >= 2
    )
    multi = next((st, m) for st, ms_ in B.morphisms.items() for m in ms_ if len(m) >= 2)
    first_obj = B.objects[0]
    first_inst = next(iter(B.compose))
    return {
        "missing identity": replace(B, identity={k: v for k, v in B.identity.items() if k != first_obj}),
        "identity outside its hom": replace(B, identity={**B.identity, first_obj: ("bogus",)}),
        "missing composite": replace(B, compose={k: v for k, v in B.compose.items() if k != ((a, a, b), (ia, ms[0]))}),
        "composite outside its hom": replace(B, compose={**B.compose, first_inst: ("bogus",)}),
        "broken unit": replace(B, compose={**B.compose, ((a, a, b), (ia, ms[0])): ms[1]}),
        "broken associativity": replace(
            B, compose={**B.compose, plain: _other(B.morphisms[(plain[0][0], plain[0][2])], B.compose[plain])}
        ),
        "dropped morphism": replace(B, morphisms={**B.morphisms, (a, b): ms[1:]}),
        "duplicated morphism": replace(B, morphisms={**B.morphisms, (a, b): ms + ms[:1]}),
        "unsorted morphism": replace(B, morphisms={**B.morphisms, multi[0]: (multi[1][::-1],)}),
        "unknown shape": replace(B, ind_morphisms=dict(list(B.ind_morphisms.items())[1:])),
        "unsorted object": replace(B, objects=B.objects + (("u", "d"),)),
    }


CORRUPTED = [(name, law) for name in ("bord1(2,1)", "cocorr(2)") for law in _corruptions(_oracle_skeleton(name))]


@pytest.mark.parametrize("name,law", CORRUPTED)
def test_corrupted_skeleton_report_equals_oracle(name, law):
    B = _corruptions(_skeleton(name))[law]
    got = bases.validate_base(B)
    assert got.status == "fail"
    assert got.lines() == oracles.validate_base(B).lines()


@pytest.mark.parametrize("name", ["bord1(2,1)", "cocorr(2)"])
def test_associativity_cap_stops_where_the_oracle_stops(name):
    B = _corruptions(_skeleton(name))["broken associativity"]

    def reported(cap):
        return any(v.law == "associativity" for v in oracles.validate_base(B, cap).violations)

    # the least cap under which the oracle's walk reaches a violation
    lo, hi = 0, 200_000
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reported(mid) else (mid + 1, hi)
    assert lo > 0
    for cap in (lo - 1, lo):
        assert bases.validate_base(B, cap).lines() == oracles.validate_base(B, cap).lines()


def test_cospan_clusters_equal_oracle():
    K = _skeleton("cocorr(3)")
    n = 0
    for (a, b), fs in K.morphisms.items():
        for c in K.objects:
            for f in fs:
                for g in K.morphisms[(b, c)]:
                    assert bases._cospan_clusters(f, g) == oracles.cospan_clusters(f, g)
                    n += 1
    assert n > len(K.compose)  # pairs past the bound are grouped too


CATEGORIES = list(bases.enumerate_categories(2, 4)) + [make() for make in STOCK]


def test_loop_classes_equal_oracle():
    for C in CATEGORIES:
        got, want = bases._loop_classes(C), oracles.loop_classes(C)
        assert list(got.items()) == list(want.items())


def test_validate_category_status_equals_oracle():
    cats = CATEGORIES + [make() for make in BROKEN_CATEGORIES.values()]
    statuses = [bases.validate_category(C).status for C in cats]
    assert statuses == [oracles.validate_category(C).status for C in cats]
    assert statuses.count("fail") == len(BROKEN_CATEGORIES)


@pytest.mark.parametrize("box,count", [((2, 4), 214), ((3, 4), 227)])
def test_enumerate_categories_equals_oracle(box, count):
    # the same categories in the same order, composition tables included:
    # the search workload samples (2, 4) by index
    got = [repr(C) for C in bases.enumerate_categories(*box)]
    assert got == [repr(C) for C in oracles.enumerate_categories(*box)]
    assert len(got) == count

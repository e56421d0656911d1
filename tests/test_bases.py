"""Base skeletons, multi-output graded theories, and their points."""

from dataclasses import replace
from itertools import product

import pytest

from htk.bases import (
    assoc_properad,
    bgraded_validate,
    bord1_skeleton,
    category_from_tables,
    chain_category,
    cocorr_fin_skeleton,
    codiscrete_category,
    cyclic_group_category,
    discrete_finite_category,
    enumerate_categories,
    field_theories,
    properad_adapter,
    properad_tables,
    tensor_morphisms,
    tensor_objects,
    terminal_bgraded,
    terminal_properad,
    unit_category,
    validate_base,
    validate_category,
    walking_arrow,
    walking_idempotent,
    zc_build,
)


def iso_count(C):
    """The number of isomorphism arrows of a finite category (oracle)."""
    n = 0
    for (x, y), fs in C.hom.items():
        for f in fs:
            for g in C.hom.get((y, x), ()):
                if (
                    C.compose.get(((x, y, x), (f, g))) == C.identity[x]
                    and C.compose.get(((y, x, y), (g, f))) == C.identity[y]
                ):
                    n += 1
                    break
    return n


class TestSkeletons:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: bord1_skeleton(2, 1),
            lambda: bord1_skeleton(3, 1),
            lambda: cocorr_fin_skeleton(2),
        ],
    )
    def test_free_decomposition_checks(self, build):
        assert validate_base(build()).status == "pass"

    def test_closed_hom_counts_circles(self):
        B = bord1_skeleton(2, 1)
        assert len(B.morphisms[((), ())]) == 2  # zero or one circle

    def test_identity_is_through_interval(self):
        B = bord1_skeleton(2, 1)
        assert B.identity[("u",)] == (("i", (0,), (0,)),)

    def test_bending_closes_a_loop(self):
        B = bord1_skeleton(2, 1)
        cup = (("i", (), (0, 1)),)
        cap = (("i", (0, 1), ()),)
        assert B.compose[(((), ("d", "u"), ()), (cup, cap))] == (("o", (), ()),)

    def test_identity_cospan_is_singleton_blocks(self):
        K = cocorr_fin_skeleton(2)
        two = ("pt", "pt")
        assert K.identity[two] == (("c", (0,), (0,)), ("c", (1,), (1,)))

    def test_block_decomposition_unique(self):
        # every tabulated cospan names each slot in exactly one block, so
        # re-reading the blocks is the only decomposition it has
        K = cocorr_fin_skeleton(2)
        for (s, t), ms in K.morphisms.items():
            for m in ms:
                ss = sorted(i for comp in m for i in comp[1])
                ts = sorted(j for comp in m for j in comp[2])
                assert ss == list(range(len(s))) and ts == list(range(len(t)))
                assert tuple(sorted(m)) == m

    def test_corrupted_composition_fails(self):
        B = bord1_skeleton(2, 1)
        key = next(k for k, h in B.compose.items() if h and h[0][0] == "i")
        bad = dict(B.compose)
        (a, b, c), _ = key
        bad[key] = B.identity[a] if bad[key] != B.identity[a] else ()
        broken = replace(B, compose=bad)
        assert validate_base(broken).status == "fail"

    def test_tensor_relocates_slots(self):
        obj, pos = tensor_objects(("u",), ("d",))
        assert obj == ("d", "u") and pos == {(0, 0): 1, (1, 0): 0}
        B = bord1_skeleton(2, 1)
        src, tgt, m = tensor_morphisms(
            ("u",), ("u",), B.identity[("u",)], ("d",), ("d",), B.identity[("d",)]
        )
        assert (src, tgt) == (("d", "u"), ("d", "u"))
        assert m == B.identity[("d", "u")]


class TestGradedOverBases:
    def test_terminal_grading_validates(self):
        for B in (bord1_skeleton(2, 1), cocorr_fin_skeleton(2)):
            assert bgraded_validate(B, terminal_bgraded(B)).status == "pass"

    def test_a_capped_law_says_it_sampled(self):
        Z = zc_build(discrete_finite_category(2))
        report = bgraded_validate(Z.base, Z)
        assert report.status == "pass"
        assert report.warnings == (
            "sampled: 400 composition instances have more than 200 colourings; the first 200 of each were checked",
            "sampled: 1,830 associativity triples have more than 4 colourings; the first 4 of each were checked",
            "sampled: associativity stopped after 2,016 checks; 334 of 637 composition instances were not reached",
        )

    def test_a_law_checked_in_full_says_nothing(self):
        B = bord1_skeleton(2, 1)
        assert bgraded_validate(B, terminal_bgraded(B)).warnings == ()

    def test_corrupted_graded_composition_fails(self):
        B = bord1_skeleton(2, 1)
        T = terminal_bgraded(B)
        bad = replace(T, composition=lambda inst, cols, lf, lg: ("???",) * len(B.compose[inst]))
        assert bgraded_validate(B, bad).status == "fail"


class TestProperads:
    def test_stock_properads_validate(self):
        K = cocorr_fin_skeleton(2)
        for P in (terminal_properad(2), assoc_properad(2)):
            assert bgraded_validate(K, properad_adapter(P, base=K)).status == "pass"

    def test_roundtrip_identity_on_tables(self):
        K = cocorr_fin_skeleton(2)
        for P in (terminal_properad(2), assoc_properad(2)):
            assert properad_tables(properad_adapter(P, base=K)) == P

    def test_recovered_rule_agrees(self):
        K = cocorr_fin_skeleton(2)
        P = assoc_properad(2)
        Q = properad_tables(properad_adapter(P, base=K))
        parts = (((("*", "*"), ("*",), "m"),), ((("*",), ("*",), "m"),), (("*", "*"), ("*",)))
        assert Q.compose_rule(*parts) == P.compose_rule(*parts) == "m"

    def test_terminal_properad_is_terminal_grading(self):
        K = cocorr_fin_skeleton(2)
        X = properad_adapter(terminal_properad(2), base=K)
        assert all(len(v) == 1 for v in X.multimaps.values())
        assert X.colours == {"pt": ("*",)}


class TestCategoryToBordismGrading:
    def test_unit_category_gives_terminal(self):
        Z = zc_build(unit_category())
        assert all(len(v) == 1 for v in Z.multimaps.values())
        assert all(len(v) == 1 for v in Z.colours.values())
        assert bgraded_validate(Z.base, Z).status == "pass"

    def test_discrete_interval_sets(self):
        Z = zc_build(discrete_finite_category(2))
        thru = ("i", ("u",), ("u",))
        for x in ("x0", "x1"):
            for y in ("x0", "x1"):
                labs = Z.multimaps[(thru, (x,), (y,))]
                assert labs == (("id",) if x == y else ())

    def test_validates(self):
        for C in (discrete_finite_category(2), walking_arrow()):
            Z = zc_build(C)
            assert bgraded_validate(Z.base, Z).status == "pass"


class TestFieldTheories:
    @pytest.mark.parametrize(
        "make,expect",
        [
            (unit_category, 1),
            (lambda: discrete_finite_category(2), 2),
            (walking_arrow, 2),
            (lambda: chain_category(3), 3),
            (walking_idempotent, 1),
        ],
    )
    def test_counted_by_objects_when_rigid(self, make, expect):
        C = make()
        assert len(field_theories(zc_build(C))) == expect == len(C.objects)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: codiscrete_category(2),
            lambda: codiscrete_category(3),
            lambda: cyclic_group_category(2),
            lambda: cyclic_group_category(4),
            walking_idempotent,
            walking_arrow,
        ],
    )
    def test_counted_by_isomorphism_arrows(self, make):
        # the set-level implementation theorem: field theories biject
        # with the isomorphism arrows of the category
        C = make()
        assert len(field_theories(zc_build(C))) == iso_count(C)


class TestLoopValueVariant:
    def brute_classes(self, C):
        items = [(x, e) for x in C.objects for e in C.hom.get((x, x), ())]
        classes = {i: {i} for i in items}
        changed = True
        while changed:
            changed = False
            for x in C.objects:
                for y in C.objects:
                    for f in C.hom.get((x, y), ()):
                        for g in C.hom.get((y, x), ()):
                            a = (x, C.compose[((x, y, x), (f, g))])
                            b = (y, C.compose[((y, x, y), (g, f))])
                            if classes[a] is not classes[b]:
                                merged = classes[a] | classes[b]
                                for i in merged:
                                    classes[i] = merged
                                changed = True
        return len({id(s) for s in classes.values()})

    @pytest.mark.parametrize(
        "make",
        [lambda: cyclic_group_category(2), walking_idempotent, lambda: codiscrete_category(2)],
    )
    def test_loop_classes_match_quotient_oracle(self, make):
        C = make()
        Z = zc_build(C, hochschild=True)
        circ = Z.multimaps[(("o", (), ()), (), ())]
        assert len(circ) == self.brute_classes(C)

    def test_field_theory_count_unchanged(self):
        for make in (walking_arrow, lambda: cyclic_group_category(2)):
            C = make()
            plain = len(field_theories(zc_build(C)))
            hh = len(field_theories(zc_build(C, hochschild=True)))
            assert plain == hh


def _edited(C, identity=(), compose=()):
    """``C`` with entries of its identity and compose tables replaced; a
    value of None deletes the entry."""

    def edit(table, edits):
        return {k: v for k, v in {**table, **dict(edits)}.items() if v is not None}

    return category_from_tables(C.objects, C.hom, edit(C.identity, identity), edit(C.compose, compose))


ONE = ("*", "*", "*")

#: one corrupted copy of a stock category per law, keyed by the law its report names
BROKEN_CATEGORIES = {
    "identity": lambda: _edited(walking_arrow(), identity={"b": None}),
    "closure": lambda: _edited(walking_arrow(), compose={(("a", "a", "b"), ("id", "f")): None}),
    "composition-typing": lambda: _edited(cyclic_group_category(3), compose={(ONE, (1, 1)): 7}),
    "unit": lambda: _edited(walking_idempotent(), compose={(ONE, ("id", "e")): "id"}),
    # (1 + 1) + 2 = 0 + 2 = 2, but 1 + (1 + 2) = 1 + 0 = 1
    "associativity": lambda: _edited(cyclic_group_category(3), compose={(ONE, (1, 1)): 0}),
}


@pytest.mark.parametrize("law", sorted(BROKEN_CATEGORIES))
def test_corrupted_category_fails_naming_its_law(law):
    report = validate_category(BROKEN_CATEGORIES[law]())
    assert report.status == "fail"
    assert law in {v.law for v in report.violations}


class TestCategoryEnumeration:
    def test_all_outputs_are_categories(self):
        for C in enumerate_categories(2, 4):
            assert validate_category(C).status == "pass"

    def test_one_object_count_against_brute_force(self):
        # independent route: filter every unary composition table directly
        got = sum(1 for _ in enumerate_categories(1, 3))
        oracle = 0
        for n in (1, 2, 3):
            arrows = list(range(n))
            pairs = [(f, g) for f in arrows for g in arrows]
            for values in product(arrows, repeat=len(pairs)):
                comp = dict(zip(pairs, values))
                if any(comp[(0, f)] != f or comp[(f, 0)] != f for f in arrows):
                    continue
                if all(
                    comp[(comp[(f, g)], h)] == comp[(f, comp[(g, h)])]
                    for f in arrows
                    for g in arrows
                    for h in arrows
                ):
                    oracle += 1
        assert got == oracle

    def test_stock_categories_validate(self):
        for C in (
            unit_category(),
            discrete_finite_category(3),
            codiscrete_category(3),
            walking_arrow(),
            walking_idempotent(),
            cyclic_group_category(4),
            chain_category(3),
        ):
            assert validate_category(C).status == "pass"

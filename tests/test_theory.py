"""Tests for theory presentations, validation, and morphisms."""

import copy

import pytest
from oracles import compose_general, mul_general

from htk.arity import Arity, GeneralArity, Level, decompose_general, layout
from htk.constructions import detheorize_T, endo_planar
from htk.theory import (
    compose,
    enumerate_morphisms,
    identity_morphism,
    stratum_sites,
    validate_morphism,
    validate_theory,
)
from htk.zoo import (
    assoc_operad,
    cyclic_monoid_theory,
    discrete_category,
    init_operad,
    terminal_theory,
)
from htk.arity import enumerate_arities


def with_stray_inputs(T, key, strays):
    """A copy of T whose composition entry at ``key`` also holds the
    input tuples ``strays``, each sent to the entry's first output."""
    U = copy.deepcopy(T)
    entry = U.composition[key]
    out = next(iter(entry.values()))
    entry.update((ins, out) for ins in strays)
    return U


STRAYS = {
    "assoc:nullary": (lambda: assoc_operad(), ("k2|t0|1/", (("*",), ())), [("junk",), ("alpha",)]),
    "cyclic:binary": (lambda: cyclic_monoid_theory(2), ("k1|t2|", ()), [(5, 5)]),
}

# an entry of ``assoc_operad(bound=2)`` whose unary inputs are the
# identity ``(1,)``, so the last input is relabeled; each output below
# makes the relabeling send both orders to one
RELABEL_KEY = ("k2|t2|2,2,1/21:11", (("*",) * 5, ()))
RELABEL_FAULTS = {
    "12": (((1,), (1,), (1, 2)), (1, 2)),
    "21": (((1,), (1,), (2, 1)), (2, 1)),
}


def with_output(T, key, ins, out):
    """A copy of T whose composition entry at ``key`` sends ``ins`` to ``out``."""
    U = copy.deepcopy(T)
    U.composition[key][ins] = out
    return U


def mk2(top, sizes, maps):
    return Arity(2, top, (Level(tuple(sizes), tuple(maps)),))


def corrupted(T):
    """A copy with one composition output replaced by another label."""
    U = copy.deepcopy(T)
    for key in sorted(U.composition, key=repr):
        entry = U.composition[key]
        for ins in sorted(entry, key=repr):
            pool = [l for e in U.top_mul.values() for l in e if l != entry[ins]]
            entry[ins] = sorted(pool, key=repr)[0] if pool else "?corrupt"
            return U, key
    raise AssertionError("nothing to corrupt")


class TestBoundaryMachinery:
    def test_atom_specs_align_with_sub_layouts(self):
        # every atom's boundary description must line up positionally
        # with the layout of its own arity
        for k in (2, 3):
            for a in enumerate_arities(k, 2)[::5]:
                lay = layout(a)
                for nu, ats in lay.atoms.items():
                    for at in ats:
                        sub = layout(at.spec.arity)
                        assert len(at.spec.colours) == sub.colour_count
                        if at.spec.arity.k == 1:
                            continue
                        assert len(at.spec.chain) == len(sub.chain_addrs)
                        for mu, grp in enumerate(at.spec.lower, start=1):
                            assert len(grp) == len(sub.atoms[mu])
                            for ad, sat in zip(grp, sub.atoms[mu]):
                                assert lay.atom(ad).spec.arity == sat.spec.arity

    def test_boundary_assignment_count_terminal(self):
        T = terminal_theory(1, bound=2)
        a = mk2(2, (2, 1, 1), ((1, 1), (1,)))
        assert len(list(stratum_sites(T, 2, (a,)))) == 1

    def test_boundary_assignment_count_two_colours(self):
        T = discrete_category(2)
        assert len(list(stratum_sites(T, 1, (Arity(1, 2, ()),)))) == 8


class TestValidateZoo:
    def test_terminal_dims(self):
        for n in (0, 1, 2):
            rep = validate_theory(terminal_theory(n, bound=2))
            assert rep.status == "pass", rep.lines()

    def test_cyclic_monoids(self):
        for k in (2, 3):
            rep = validate_theory(cyclic_monoid_theory(k, bound=3))
            assert rep.status == "pass", rep.lines()

    def test_assoc(self):
        rep = validate_theory(assoc_operad(2))
        assert rep.status == "pass", rep.lines()

    def test_discrete_and_init(self):
        for T in (discrete_category(2), init_operad()):
            rep = validate_theory(T)
            assert rep.status == "pass", rep.lines()

    def test_corrupted_fails_with_witness(self):
        for T in (cyclic_monoid_theory(2), assoc_operad(2), discrete_category(2)):
            U, key = corrupted(T)
            rep = validate_theory(U)
            assert rep.status == "fail"
            assert any(v.arity_key for v in rep.violations)

    @pytest.mark.parametrize("name", sorted(STRAYS))
    def test_stray_composition_inputs_fail_with_witness(self, name):
        # an entry holding input tuples beyond its site's: one violation
        # per stray input, in repr order, and none for the other inputs
        make, key, strays = STRAYS[name]
        T = make()
        U = with_stray_inputs(T, key, strays)
        rep = validate_theory(U)
        assert rep.status == "fail"
        got = [(v.law, v.arity_key, v.witness[-1], v.expected) for v in rep.violations]
        assert got == [("stray-composition", key[0], ins, "absent") for ins in sorted(strays, key=repr)]
        # a construction that copies whole entries carries the stray inputs
        if T.n:
            assert validate_theory(detheorize_T(U)).status == "fail"

    @pytest.mark.parametrize("name", sorted(RELABEL_FAULTS))
    def test_relabeling_that_is_not_a_bijection_fails(self, name):
        # only the relabeling law sees this fault: closure, typing and
        # associativity all hold
        ins, out = RELABEL_FAULTS[name]
        U = with_output(assoc_operad(bound=2), RELABEL_KEY, ins, out)
        ak, lk = RELABEL_KEY
        assert validate_theory(U).lines() == [
            f"relabeling-bijection at {ak}: witness={(lk,)!r} expected='injective' actual={(out, out)!r}"
        ]

    def test_unit_removal_warns(self):
        T = cyclic_monoid_theory(2)
        U = copy.deepcopy(T)
        for key in [k for k in U.composition if "t0" in k[0]]:
            del U.composition[key]
        rep = validate_theory(U)
        assert rep.status == "pass"
        assert any("unit" in w for w in rep.warnings)


class TestComposition:
    def test_monoid_sum(self):
        T = cyclic_monoid_theory(3, bound=3)
        assert compose(T, Arity(1, 3, ()), {}, (1, 2, 2)) == 2

    def test_assoc_chain_concat(self):
        T = assoc_operad(2)
        a = mk2(2, (2, 1, 1), ((1, 1), (1,)))
        lay = layout(a)
        asg = {("c", i): "*" for i in range(lay.colour_count)}
        # inner ordering reversed, outer unary: composite keeps the
        # inner ordering
        assert compose(T, a, asg, ((2, 1), (1,))) == (2, 1)
        assert compose(T, a, asg, ((1, 2), (1,))) == (1, 2)

    def test_assoc_two_blocks(self):
        T = assoc_operad(2)
        a = mk2(2, (2, 2, 1), ((1, 2), (1, 1)))
        lay = layout(a)
        asg = {("c", i): "*" for i in range(lay.colour_count)}
        # blocks of size 1; outer order decides; oracle = concatenation
        assert compose(T, a, asg, ((1,), (1,), (1, 2))) == (1, 2)
        assert compose(T, a, asg, ((1,), (1,), (2, 1))) == (2, 1)

    def test_assoc_oracle_exhaustive(self):
        # independent oracle: expand each stage's orders by brute-force
        # concatenation over explicit element lists
        T = assoc_operad(2)
        a = mk2(2, (2, 2, 1), ((1, 2), (1, 1)))
        lay = layout(a)
        asg = {("c", i): "*" for i in range(lay.colour_count)}
        from itertools import permutations

        blocks = {1: [1], 2: [2]}
        for o1 in permutations(range(1, 2)):
            for o2 in permutations(range(1, 2)):
                for outer in permutations(range(1, 3)):
                    ordered = {1: [blocks[1][i - 1] for i in o1], 2: [blocks[2][i - 1] for i in o2]}
                    expect = []
                    for b in outer:
                        expect.extend(ordered[b])
                    got = compose(T, a, asg, (o1, o2, tuple(outer)))
                    assert got == tuple(expect)

    def test_mul_general_pairs(self):
        T = assoc_operad(2)
        ga = GeneralArity(1, (2, 2, (1, 2)), ())
        parts = decompose_general(ga)
        tkeys = {fp: (("*", "*"),) for fp, _ in parts}
        vals = mul_general(T, ga, tkeys)
        assert len(vals) == 1  # unary orderings are unique
        ga2 = GeneralArity(1, (4, 2, (1, 1, 2, 2)), ())
        parts2 = decompose_general(ga2)
        tkeys2 = {fp: (("*",) * (p.top + 1),) for fp, p in parts2}
        assert len(mul_general(T, ga2, tkeys2)) == 4  # two orderings each

    def test_compose_general_componentwise(self):
        T = cyclic_monoid_theory(5, bound=4)
        ga = GeneralArity(1, (4, 2, (1, 1, 2, 2)), ())
        out = compose_general(T, ga, [({}, (1, 2)), ({}, (3, 4))])
        assert out == (3, 2)


class TestMorphisms:
    def test_identity_validates(self):
        for T in (cyclic_monoid_theory(2), assoc_operad(2), discrete_category(2)):
            rep = validate_morphism(identity_morphism(T))
            assert rep.status == "pass", rep.lines()

    def test_terminal_terminal(self):
        T = terminal_theory(1, bound=2)
        assert len(enumerate_morphisms(T, T)) == 1

    def test_monoid_endomorphisms(self):
        Z2 = cyclic_monoid_theory(2)
        assert len(enumerate_morphisms(Z2, Z2)) == 2
        Z3 = cyclic_monoid_theory(3)
        assert len(enumerate_morphisms(Z2, Z3)) == 1

    def test_discrete_object_maps(self):
        D = discrete_category(2)
        assert len(enumerate_morphisms(D, D)) == 4

    def test_unique_map_to_terminal(self):
        D = discrete_category(2)
        one = terminal_theory(1, bound=2)
        ms = enumerate_morphisms(D, one)
        assert len(ms) == 1
        assert validate_morphism(ms[0]).status == "pass"


class TestEndo:
    def test_terminal_endo(self):
        V = endo_planar(terminal_theory(1, bound=2), "*")
        assert V.n == 0
        assert validate_theory(V).status == "pass"
        assert len(V.label_set(0)) == 1

    def test_assoc_endo_trivial_monoid(self):
        V = endo_planar(assoc_operad(2), "*")
        assert V.n == 0
        assert V.label_set(0) == ((1,),)
        assert validate_theory(V).status == "pass"

    def test_discrete_endo(self):
        V = endo_planar(discrete_category(2), "x0")
        assert V.label_set(0) == ("id",)
        assert validate_theory(V).status == "pass"

"""Tests for the constructions that move a presentation between dimensions."""

import copy
import re
from itertools import permutations, product

import pytest
from nerves import Nerve, pushforward_nerve

from htk.arity import Arity, Level, arity_of_key, canonical_key, enumerate_arities
from htk.constructions import (
    POINT,
    MonoidalCategory,
    _suspend,
    deloop,
    deloop_compare,
    deloop_support,
    detheorize_T,
    disc_monoidal,
    endo_planar,
    flatten,
    monoidal_as_dim0,
    one_object_deloop,
    theta,
    theta_iter,
)
from htk.ordcomb import (
    PLANAR,
    SYMMETRIC,
    FinMap,
    FinOrd,
    compose_maps,
    enumerate_maps,
)
from htk.theory import SKIP, build_theory, validate_theory
from htk.zoo import (
    assoc_operad,
    cyclic_monoid_theory,
    discrete_category,
    init_operad,
    terminal_theory,
)


def zoo_small(bound, extra=None):
    return [
        terminal_theory(0, bound=bound, extra=extra),
        terminal_theory(1, bound=bound, extra=extra),
        cyclic_monoid_theory(2, bound=bound, extra=extra),
        cyclic_monoid_theory(3, bound=bound, extra=extra),
        assoc_operad(bound=bound, extra=extra),
        discrete_category(2, bound=bound, extra=extra),
        init_operad(bound=bound, extra=extra),
    ]


class TestMonoidal:
    def test_disc_tables(self):
        M = disc_monoidal(3)
        assert M.tensor((1, 2, 2)) == 2
        assert M.tensor(()) == 0
        assert M.hom(1, 1) == (POINT,)
        assert M.hom(1, 2) == ()
        assert M.is_discrete()

    def test_one_object_deloop(self):
        B = one_object_deloop(disc_monoidal(2))
        assert B.objects == ("*",)
        assert B.hom("*", "*") == (0, 1)
        assert B.compose_mor(1, 1) == 0

    def test_one_object_deloop_rejects_nondiscrete(self):
        M = MonoidalCategory(
            (0,), 0, {(0, 0): 0}, {(0, 0): ("a", "b")}, {0: "a"},
            lambda g, f: "a", lambda f, g: "a",
        )
        with pytest.raises(ValueError):
            one_object_deloop(M)

    def test_as_dim0_is_the_monoid(self):
        T = monoidal_as_dim0(disc_monoidal(3), 3)
        assert validate_theory(T).status == "pass"
        assert T.label_set(0) == (0, 1, 2)
        assert T.composition[(canonical_key(Arity(1, 2, ())), ())][(1, 2)] == 0


class TestTheta:
    def test_disc_z2_hand_oracle(self):
        # singleton multimap set exactly when the inputs sum to the output
        U = theta(disc_monoidal(2), 2)
        for t in range(3):
            ak = canonical_key(Arity(1, t, ()))
            for cols in product((0, 1), repeat=t + 1):
                want = (POINT,) if sum(cols[:-1]) % 2 == cols[-1] else ()
                assert U.label_set(1, ak, (cols,)) == want

    def test_both_enrichment_routes_agree(self):
        for k in (2, 3):
            M = disc_monoidal(k)
            assert theta(M, 2) == theta(monoidal_as_dim0(M, 2), 2)

    def test_terminal_stays_terminal(self):
        for n in (0, 1):
            U = theta(terminal_theory(n, bound=2), 2)
            assert all(v == (POINT,) for v in U.top_mul.values())
            assert all(
                lab == POINT for e in U.composition.values() for lab in e.values()
            )

    def test_outputs_validate(self):
        for T in (theta(disc_monoidal(3), 2), theta(assoc_operad(bound=2), 2)):
            assert validate_theory(T).status == "pass"

    def test_iter_zero_is_identity(self):
        T = cyclic_monoid_theory(2)
        assert theta_iter(T, 0) is T

    def test_iter_twice_validates(self):
        U = theta_iter(disc_monoidal(2), 2, bound=2)
        assert U.n == 2
        assert validate_theory(U).status == "pass"

    def test_injective_on_bound1_zoo(self):
        images = [theta(T, 1) for T in zoo_small(1)]
        for i, a in enumerate(images):
            for b in images[i + 1:]:
                assert a != b


def level_nerve(l):
    objs = tuple(FinOrd(s) for s in l.sizes)
    arrows = tuple(
        FinMap(l.sizes[i], l.sizes[i + 1], l.maps[i], SYMMETRIC)
        for i in range(len(l.maps))
    )
    return Nerve(objs, arrows)


def push_level(phi, l):
    ident = lambda I: FinMap(I.size, I.size, tuple(range(1, I.size + 1)), PLANAR)
    nv = pushforward_nerve(phi, level_nerve(l), compose_maps, ident)
    return Level(
        tuple(o.size for o in nv.objects), tuple(a.table for a in nv.arrows)
    )


class TestFlatten:
    def test_all_singletons_fixed(self):
        l1 = Level((1, 1), ((1,),))
        l0 = Level((1, 1), ((1,),))
        assert flatten(l1, l0) == l0

    def test_two_components_one_target(self):
        # two chain positions feeding one output: the merged bottom is
        # the coproduct of their composite chains, element by element
        l1 = Level((2, 1), ((1, 1),))
        l0 = Level((1, 2, 2), ((2,), (2, 1)))
        out = flatten(l1, l0)
        assert out.sizes == (4, 2)
        assert out.maps == ((2, 1, 1, 2),)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            flatten(Level((2, 1), ((1, 1),)), Level((1, 1), ((1,),)))

    def test_commutes_with_pushforward(self):
        # dual route: push the upper level then merge, versus merge then
        # push the merged level, over every bounded two-level tower
        for a in enumerate_arities(3, 2):
            l0, l1 = a.levels
            m = len(l1.maps)
            for m2 in (1, 2):
                for phi in enumerate_maps(m, m2, PLANAR):
                    assert flatten(push_level(phi, l1), l0) == push_level(
                        phi, flatten(l1, l0)
                    )


class TestDeloop:
    def test_terminal_operad_gives_singletons(self):
        U = deloop(terminal_theory(1, bound=2, extra=deloop_support(1, 2)), "*", 2)
        assert U.n == 2 and U.colour_depth == 1
        assert U.label_set(0) == ("*",)
        assert all(v == ("*",) for v in U.top_mul.values())
        assert validate_theory(U).status == "pass"

    def test_orders_on_the_merged_set(self):
        # independent oracle: the 2-multimap set over any shape must be
        # the orderings of the bottom positions past the first entry
        V = assoc_operad(bound=2, extra=deloop_support(1, 2))
        U = deloop(V, "*", 2)
        assert validate_theory(U).status == "pass"
        for (ak, wk), labs in U.top_mul.items():
            a = next(x for x in enumerate_arities(2, 2) if canonical_key(x) == ak)
            size = sum(a.levels[0].sizes[1:])
            assert labs == tuple(permutations(range(1, size + 1)))

    def test_depth_and_base_colour(self):
        V = cyclic_monoid_theory(2, bound=2, extra=deloop_support(0, 2))
        U = deloop(V, "@", 2)
        assert U.label_set(0) == ("@",)
        assert U.colour_depth == 0
        assert validate_theory(U).status == "pass"

    def test_planar_input_rejected(self):
        V = endo_planar(assoc_operad(2), "*")
        with pytest.raises(ValueError):
            deloop(V)

    def test_insufficient_tabulation_raises(self):
        with pytest.raises(KeyError):
            deloop(cyclic_monoid_theory(2, bound=2), "*", 2)


class TestDeloopCompare:
    def test_unit_category(self):
        M = disc_monoidal(1)
        assert deloop_compare(M, 0, bound=2).status == "pass"
        assert deloop_compare(M, 1, bound=2).status == "pass"

    def test_z2_one_step(self):
        assert deloop_compare(disc_monoidal(2), 0, bound=3).status == "pass"

    def test_z2_two_steps(self):
        assert deloop_compare(disc_monoidal(2), 1, bound=2).status == "pass"

    def test_report_not_tautological(self):
        # a tensor that ignores its right factor breaks the unit law,
        # and the two routes fold it differently: must surface as a fail
        obs = (0, 1)
        bad = MonoidalCategory(
            obs, 0, {(a, b): a for a in obs for b in obs},
            {(a, a): (POINT,) for a in obs}, {a: POINT for a in obs},
            lambda g, f: POINT, lambda f, g: POINT,
        )
        rep = deloop_compare(bad, 0, bound=2)
        assert rep.status == "fail"
        assert rep.violations


class TestCommutation:
    """Delooping before or after corepresenting gives equal presentations."""

    @pytest.mark.parametrize("idx", range(7))
    def test_zoo_bound2(self, idx):
        sup_lookup = {0: deloop_support(1, 2), 1: deloop_support(2, 2)}
        probes = zoo_small(2)
        n = probes[idx].n
        sup = sup_lookup[n]
        U = zoo_small(2, extra=sup)[idx]
        lhs = deloop(theta(U, 2, extra=sup), "*", 2)
        rhs = theta(deloop(U, "*", 2), 2)
        assert lhs == rhs


class TestDetheorize:
    def test_empty_modification_is_identity(self):
        U = theta(cyclic_monoid_theory(2), 2)
        assert detheorize_T(U) is U
        assert detheorize_T(U, {}) is U

    def test_terminal_refines_to_terminal(self):
        U = terminal_theory(1, bound=2)
        T = detheorize_T(U, {"*": ("a", "b")})
        assert T.label_set(0) == (("*", "a"), ("*", "b"))
        assert all(v == ("*",) for v in T.top_mul.values())
        assert validate_theory(T).status == "pass"

    def test_theta_e1_tables_project(self):
        U = theta(assoc_operad(bound=2), 2)
        T = detheorize_T(U, {"*": ("x",)})
        assert validate_theory(T).status == "pass"
        # every refined table entry equals U's at the projected boundary
        for (ak, wk), labs in T.top_mul.items():
            cols = tuple(c[0] for c in wk[0])
            assert labs == U.top_mul[(ak, (cols,) + wk[1:])]

    def test_ill_typed_colours_rejected(self):
        U = theta(cyclic_monoid_theory(2), 2)
        with pytest.raises(ValueError):
            detheorize_T(U, {"nope": ("x",)})


def unitless():
    """A valid one-colour theory without a unit: every nullary composite
    is left out, and validation only warns."""
    return build_theory(1, SYMMETRIC, 2, ("*",), lambda *a: ("m",), lambda P, lay, asg, ins: SKIP if P.top == 0 else "m")


def without(T, field, pick):
    """A copy of T whose table ``field`` lacks its first key (in ``repr``
    order) whose arity key ``pick`` accepts, and that key."""
    T = copy.deepcopy(T)
    table = getattr(T, field)
    key = next(k for k in sorted(table, key=repr) if pick(k[0]))
    del table[key]
    return T, key


def endo_input_without_a_label_set():
    """terminal:2 without one top label set at a suspended 1-arity."""
    sus = canonical_key(_suspend(Arity(1, 2, ())))
    return without(terminal_theory(2), "top_mul", lambda ak: ak == sus)


def detheorize_input_without_a_table():
    """assoc without one non-nullary composition table."""
    return without(assoc_operad(), "composition", lambda ak: arity_of_key(ak).top > 0)


class TestReadThrough:
    """deloop, detheorize_T and endo_planar read their input through one
    kernel: a missing label set or non-nullary composition table is an
    error naming the input's key, and a missing nullary one means no unit."""

    def test_endo_of_a_unitless_theory(self):
        T = unitless()
        V = endo_planar(T, "*")
        assert V.label_set(0) == ("m",) and V.composition
        assert validate_theory(V).lines() == validate_theory(T).lines()
        assert validate_theory(V).status == "pass"

    def test_endo_raises_on_a_missing_label_set(self):
        T, key = endo_input_without_a_label_set()
        with pytest.raises(KeyError, match=re.escape(repr(key))):
            endo_planar(T, "*")

    def test_detheorize_raises_on_a_missing_composition_table(self):
        U, key = detheorize_input_without_a_table()
        with pytest.raises(KeyError, match=re.escape(repr(key))):
            detheorize_T(U, {"*": ("a",)})

    def test_deloop_skips_a_missing_unit(self):
        V = without(cyclic_monoid_theory(2, extra=deloop_support(0, 2)), "composition", lambda ak: ak == "k1|t0|")[0]
        U = deloop(V)
        assert all(arity_of_key(ak).top > 0 for ak, _ in U.composition)
        assert "no unit declared" in " ".join(validate_theory(U).warnings)


class TestClosure:
    """Each construction sends validating inputs to validating outputs."""

    def test_theta_sweep(self):
        for T in zoo_small(2) + [terminal_theory(2, bound=2)]:
            assert validate_theory(theta(T, 2)).status == "pass"

    def test_deloop_sweep(self):
        for T in zoo_small(2, extra=deloop_support(1, 2)):
            assert validate_theory(deloop(T, "*", 2)).status == "pass"

    def test_detheorize_sweep(self):
        for T in zoo_small(2):
            if T.n == 0:
                continue
            col = T.label_set(0)[0]
            out = detheorize_T(T, {col: ("u", "v")})
            assert validate_theory(out).status == "pass"

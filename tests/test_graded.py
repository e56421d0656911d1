"""Tests for degree-graded refinements and their functorial operations."""

import pytest

from htk.constructions import POINT, theta
from htk.graded import (
    convolve,
    enumerate_algebra_presentations,
    enumerate_algebras,
    enumerate_graded_presentations,
    from_projection,
    graded_morphisms,
    morphism_from_maps,
    product_graded,
    pullback,
    push_left,
    push_right,
    relabel_graded,
    terminal_graded,
    theta_graded,
    theta_morphism,
    to_projection,
    validate_algebra,
    validate_graded,
)
from htk.theory import (
    DIM0_KEY,
    TheoryMorphism,
    identity_morphism,
    validate_morphism,
)
from htk.zoo import (
    assoc_operad,
    cyclic_monoid_theory,
    discrete_category,
    init_operad,
    terminal_theory,
)


def mod2_morphism(bound=2):
    """The mod-2 projection between cyclic monoids, as a morphism."""
    Z4 = cyclic_monoid_theory(4, bound=bound)
    Z2 = cyclic_monoid_theory(2, bound=bound)
    return TheoryMorphism(Z4, Z2, {0: {DIM0_KEY: {a: a % 2 for a in range(4)}}})


def collapse_functor(bound=2):
    """Four discrete objects onto two, identities to identities."""
    C4 = discrete_category(4, bound=bound)
    C2 = discrete_category(2, bound=bound)
    return morphism_from_maps(
        C4, C2, lambda d, ak, sk, tk, lab: f"x{int(lab[1]) % 2}" if d == 0 else "id"
    )


def graded_zoo(bound=2):
    """Five structurally distinct gradings used across the suite."""
    return [
        terminal_graded(assoc_operad(bound=bound)),
        product_graded(cyclic_monoid_theory(2, bound=bound), 2),
        from_projection(mod2_morphism(bound).source, mod2_morphism(bound)),
        product_graded(init_operad(bound=bound), 2),
        from_projection(collapse_functor(bound).source, collapse_functor(bound)),
    ]


class TestProjectionEquivalence:
    @pytest.mark.parametrize("idx", range(5))
    def test_roundtrip_up_to_fibre_relabel(self, idx):
        # reshaping to the pair theory and back tags every fibre element
        # with its degree; stripping the tags must restore the input
        X = graded_zoo()[idx]
        assert validate_graded(X).status == "pass"
        Y, p = to_projection(X)
        assert validate_morphism(p).status == "pass"
        X2 = from_projection(Y, p)
        assert relabel_graded(X2, lambda u, x: x[1], lambda d, v, y: y[1]) == X

    def test_projection_fibres_match_tables(self):
        X = product_graded(cyclic_monoid_theory(2, bound=2), 3)
        Y, p = to_projection(X)
        f0 = p.actions[0][DIM0_KEY]
        for a in (0, 1):
            assert sum(1 for e in Y.label_set(0) if f0[e] == a) == 3

    def test_faulty_degree_is_rejected(self):
        X = product_graded(cyclic_monoid_theory(2, bound=2), 2)
        bad = relabel_graded(X, lambda u, x: x, lambda d, v, y: y)
        bad.top_mul[DIM0_KEY][7] = (0,)
        assert validate_graded(bad).status == "fail"

    def test_missing_fibre_element_is_rejected(self):
        # drop one element a composite lands on: closure must fail
        X = product_graded(cyclic_monoid_theory(2, bound=1), 2)
        bad = relabel_graded(X, lambda u, x: x, lambda d, v, y: y)
        bad.top_mul[DIM0_KEY][0] = (1,)
        assert validate_graded(bad, 1).status == "fail"


class TestStockGradings:
    def test_terminal_and_product_validate(self):
        for U in (
            cyclic_monoid_theory(2, bound=2),
            assoc_operad(bound=2),
            discrete_category(2, bound=2),
        ):
            assert validate_graded(terminal_graded(U)).status == "pass"
            assert validate_graded(product_graded(U, 2)).status == "pass"

    def test_unit_grading_pushes_to_itself(self):
        # summing the terminal grading of the pair theory along the
        # projection is the original grading, after stripping the tags
        for X in graded_zoo()[:3]:
            VP, _ = to_projection(X)
            B = push_left(X, terminal_graded(VP))
            assert relabel_graded(B, lambda u, x: x[0][1], lambda d, v, y: y[0][1]) == X


class TestPullback:
    def test_identity_is_neutral(self):
        U = cyclic_monoid_theory(2, bound=2)
        X = product_graded(U, 2)
        assert pullback(identity_morphism(U), X) == X

    def test_along_mod2(self):
        f = mod2_morphism()
        X = product_graded(f.target, 2)
        Q = pullback(f, X)
        assert validate_graded(Q).status == "pass"
        assert Q.fibre(0, v=3) == X.fibre(0, v=1)

    def test_terminal_is_preserved(self):
        f = collapse_functor()
        assert pullback(f, terminal_graded(f.target)) == terminal_graded(f.source)


def bound1_setups():
    out = []
    for U in (
        cyclic_monoid_theory(2, bound=1),
        assoc_operad(bound=1),
        init_operad(bound=1),
    ):
        V = terminal_graded(U, bound=1)
        VP, p = to_projection(V)
        out.append((U, V, VP, p))
    return out


class TestPushAdjunctions:
    @pytest.mark.parametrize("idx", range(3))
    def test_left_push_mapping_property(self, idx):
        U, V, VP, p = bound1_setups()[idx]
        Y = product_graded(VP, 2, bound=1)
        Z = product_graded(U, 2, bound=1)
        lhs = len(graded_morphisms(push_left(V, Y), Z, 1))
        rhs = len(graded_morphisms(Y, pullback(p, Z, 1), 1))
        assert lhs == rhs and lhs > 0

    @pytest.mark.parametrize("idx", range(3))
    def test_right_push_mapping_property(self, idx):
        # the only oracle for the tabulated section formula: mapping
        # into the right push matches mapping out of the pullback into
        # the corepresented grading
        U, V, VP, p = bound1_setups()[idx]
        X = product_graded(VP, 2, bound=1)
        R = push_right(V, X, 1)
        assert validate_graded(R, 1).status == "pass"
        tp = theta_morphism(p, 1)
        TG = theta_graded(X, 1)
        for Z in (R, terminal_graded(R.base, bound=1)):
            lhs = len(graded_morphisms(Z, R, 1))
            rhs = len(graded_morphisms(pullback(tp, Z, 1), TG, 1))
            assert lhs == rhs
        assert len(graded_morphisms(R, R, 1)) > 0

    def test_adjunctions_over_two_object_category(self):
        # multi-colour base; terminal gradings keep the search space small
        U = discrete_category(2, bound=1)
        V = terminal_graded(U, bound=1)
        VP, p = to_projection(V)
        Y = terminal_graded(VP, bound=1)
        Z = terminal_graded(U, bound=1)
        lhs = len(graded_morphisms(push_left(V, Y), Z, 1))
        rhs = len(graded_morphisms(Y, pullback(p, Z, 1), 1))
        assert lhs == rhs and lhs > 0
        R = push_right(V, Y, 1)
        tp = theta_morphism(p, 1)
        lhs = len(graded_morphisms(R, R, 1))
        rhs = len(graded_morphisms(pullback(tp, R, 1), theta_graded(Y, 1), 1))
        assert lhs == rhs and lhs > 0

    def test_right_push_rejects_high_bases(self):
        U = theta(discrete_category(2, bound=1), 1)
        V = terminal_graded(U, bound=1)
        VP, _ = to_projection(V)
        with pytest.raises(ValueError):
            push_right(V, terminal_graded(VP, bound=1), 1)


class TestRightPushCollapse:
    """Pushing along a terminal middle layer is corepresentation."""

    def test_base_dim_zero(self):
        U = cyclic_monoid_theory(2, bound=1)
        V = terminal_graded(U, bound=1)
        VP, _ = to_projection(V)
        X = product_graded(VP, 2, bound=1)
        R = push_right(V, X, 1)
        iso = morphism_from_maps(
            theta(U, 1), theta(VP, 1), lambda d, ak, sk, tk, l: (l, POINT) if d == 0 else POINT
        )
        assert validate_morphism(iso, 1).status == "pass"
        assert pullback(iso, theta_graded(X, 1), 1) == relabel_graded(
            R,
            lambda u, sigma: ((u, POINT), sigma[0][1]),
            lambda d, v, y: POINT,
        )

    def test_base_dim_one(self):
        U = init_operad(bound=1)
        V = terminal_graded(U, bound=1)
        VP, _ = to_projection(V)
        X = product_graded(VP, 2, bound=1)
        R = push_right(V, X, 1)
        iso = morphism_from_maps(
            theta(U, 1),
            theta(VP, 1),
            lambda d, ak, sk, tk, l: (l, "*") if d == 0 else (l, POINT) if d == 1 else POINT,
        )
        assert validate_morphism(iso, 1).status == "pass"
        assert pullback(iso, theta_graded(X, 1), 1) == relabel_graded(
            R,
            lambda u, sigma: ((u, "*"), sigma[0][1]),
            lambda d, v, y: ((v, POINT), y[0][1][1]) if d == 1 else POINT,
        )


class TestConvolution:
    def test_outputs_validate_and_raise_dimension(self):
        U0 = cyclic_monoid_theory(2, bound=1)
        C0 = convolve(product_graded(U0, 2, bound=1), terminal_graded(U0, bound=1), 1)
        assert C0.base.n == 1 and validate_graded(C0, 1).status == "pass"
        U1 = init_operad(bound=1)
        C1 = convolve(product_graded(U1, 2, bound=1), terminal_graded(U1, bound=1), 1)
        assert C1.base.n == 2 and validate_graded(C1, 1).status == "pass"

    def test_terminal_left_factor_collapses(self):
        # with singleton fibres on the left the convolution is the
        # corepresented pullback of the right factor, up to iso; the
        # mapping counts witness the iso class
        U = cyclic_monoid_theory(2, bound=1)
        X = terminal_graded(U, bound=1)
        Y = product_graded(U, 2, bound=1)
        C = convolve(X, Y, 1)
        TT, pT = to_projection(terminal_graded(U, bound=1))
        D = theta_graded(pullback(pT, Y, 1), 1)
        assert C.base == D.base
        assert len(graded_morphisms(C, C, 1)) == len(graded_morphisms(D, D, 1))
        T1 = terminal_graded(C.base, bound=1)
        assert len(graded_morphisms(T1, C, 1)) == len(graded_morphisms(T1, D, 1))


class TestAlgebraEnumeration:
    def test_terminal_target_gives_one_per_system(self):
        U = theta(cyclic_monoid_theory(2, bound=2), 2)
        V = terminal_theory(1, bound=2)
        assert len(enumerate_algebras(U, V, colours={0: ("a",)})) == 1
        # the budget sweep counts exactly the colour systems
        assert len(enumerate_algebras(U, V, budget=2)) == 5

    def test_self_target_counts_idempotents(self):
        # a single refined colour mapping into the corepresented cyclic
        # monoid must land on an idempotent element: only 0 qualifies
        U = theta(cyclic_monoid_theory(2, bound=2), 2)
        res = enumerate_algebras(U, U, colours={0: ("a",)})
        assert len(res) == 1
        assert res[0][1].actions[0][DIM0_KEY] == {(0, "a"): 0}


class TestGradedAlgebraCounts:
    """The two presentations of the structure theorem count equally."""

    @pytest.mark.parametrize(
        "U,cap",
        [
            (discrete_category(2, bound=1), 1),
            (discrete_category(2, bound=1), 2),
            (assoc_operad(bound=1), 1),
        ],
        ids=["cat2-cap1", "cat2-cap2", "orders-cap1"],
    )
    def test_base_dim_one(self, U, cap):
        W = theta(U, 1)
        objects = {u: ("p",) for u in U.label_set(0)}
        g = sum(
            1
            for X in enumerate_graded_presentations(U, objects, cap, 1)
            if validate_graded(X, 1).status == "pass"
        )
        a = sum(
            1
            for A in enumerate_algebra_presentations(W, objects, cap, 1)
            if validate_algebra(A, 1).status == "pass"
        )
        assert g == a and g > 0

    @pytest.mark.parametrize(
        "bound,cap,expect",
        [(1, 1, 2), (1, 2, 9), (2, 1, 2)],
        ids=["b1-cap1", "b1-cap2", "b2-cap1"],
    )
    def test_base_dim_zero(self, bound, cap, expect):
        U = cyclic_monoid_theory(2, bound=bound)
        W = theta(U, bound)
        g = sum(
            1
            for X in enumerate_graded_presentations(U, {}, cap, bound)
            if validate_graded(X, bound).status == "pass"
        )
        a = sum(
            1
            for A in enumerate_algebra_presentations(W, {}, cap, bound)
            if validate_algebra(A, bound).status == "pass"
        )
        assert g == a == expect


class TestGradedMorphisms:
    def test_identity_present(self):
        X = product_graded(cyclic_monoid_theory(2, bound=1), 2, bound=1)
        ms = graded_morphisms(X, X, 1)
        Y, p = to_projection(X)
        idm = identity_morphism(Y)
        assert any(
            all(F.actions[d].get(k) == v for d in idm.actions for k, v in idm.actions[d].items() if v)
            for F in ms
        )

    def test_projection_constraint_filters(self):
        # morphisms of the pair theories that move degrees are dropped
        U = cyclic_monoid_theory(2, bound=1)
        X = product_graded(U, 2, bound=1)
        from htk.theory import enumerate_morphisms

        Y, p = to_projection(X)
        assert len(graded_morphisms(X, X, 1)) < len(enumerate_morphisms(Y, Y, 1))

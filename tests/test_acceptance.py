"""Acceptance suite: one test per shipped claim, pinned counts, exact
comparisons throughout (every quantity here is a finite count or a
byte-for-byte file identity, so there are no tolerances to choose).

Each test prints one summary line; run with ``-v`` for the pass/fail
table or ``-s`` to see the lines directly.
"""

from dataclasses import replace
from itertools import product

from htk.arity import canonical_key, enumerate_arities, layout
from htk.bases import (
    assoc_properad,
    bord1_skeleton,
    chain_category,
    cocorr_fin_skeleton,
    codiscrete_category,
    cyclic_group_category,
    enumerate_categories,
    field_theories,
    properad_adapter,
    properad_tables,
    terminal_properad,
    validate_base,
    zc_build,
)
from htk.cli import serialize
from htk.constructions import (
    deloop,
    deloop_compare,
    deloop_support,
    disc_monoidal,
    monoidal_as_dim0,
    theta,
)
from htk.graded import (
    enumerate_algebra_presentations,
    enumerate_graded_presentations,
    from_projection,
    graded_morphisms,
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
from htk.ordcomb import (
    PLANAR,
    SYMMETRIC,
    BracketOrd,
    Family,
    FinOrd,
    bracket,
    bracket_map,
    compose_bracket_maps,
    compose_maps,
    enumerate_maps,
    pushforward_family,
)
from htk.theory import (
    DIM0_KEY,
    TheoryMorphism,
    TheoryPresentation,
    build_theory,
    enumerate_morphisms,
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


def test_criterion_01_bracket_functor():
    # size formula and the empty-ordinal identity
    for n in range(9):
        assert len(bracket(FinOrd(n))) == n + 1
    assert bracket(FinOrd(0)) == BracketOrd(0)
    assert list(bracket(FinOrd(0)).elements()) == [0]
    # functoriality of the bracket over every pair of composable
    # monotone maps between ordinals of size at most 4
    checked = 0
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for phi in enumerate_maps(a, b, PLANAR):
                    for psi in enumerate_maps(b, c, PLANAR):
                        lhs = bracket_map(compose_maps(psi, phi))
                        rhs = compose_bracket_maps(bracket_map(phi), bracket_map(psi))
                        assert lhs == rhs
                        # pushing a family of distinct markers twice
                        # agrees with pushing along the composite
                        x = Family(tuple(f"v{i}" for i in range(a + 1)), offset=0)
                        one = pushforward_family(compose_maps(psi, phi), x)
                        two = pushforward_family(psi, pushforward_family(phi, x))
                        assert one == two
                        checked += 1
    assert checked > 0
    print(f"criterion 1 PASS: bracket functoriality on {checked} composable pairs")


def _zoo_for_soundness():
    sup1 = deloop_support(1, 2)
    sup0 = deloop_support(0, 2)
    plain = [
        terminal_theory(1),
        terminal_theory(2),
        terminal_theory(3),
        init_operad(),
        assoc_operad(),
        discrete_category(2),
        discrete_category(3),
        monoidal_as_dim0(disc_monoidal(2)),
    ]
    deloops = [
        deloop(terminal_theory(1, extra=sup1), "*", 2),
        deloop(init_operad(extra=sup1), "*", 2),
        deloop(assoc_operad(extra=sup1), "*", 2),
        deloop(discrete_category(2, extra=sup1), "*", 2),
        deloop(monoidal_as_dim0(disc_monoidal(2), extra=sup0), "*", 2),
    ]
    return plain + deloops


def test_criterion_02_validator_soundness():
    theories = _zoo_for_soundness()
    for T in theories:
        assert validate_theory(T, 2).status == "pass"
        key = next(k for k, e in T.composition.items() if e)
        entry = dict(T.composition[key])
        entry[next(iter(entry))] = "?!"
        bad = replace(T, composition={**T.composition, key: entry})
        report = validate_theory(bad, 2)
        assert report.status == "fail"
        # the report locates the injected fault by its arity key
        assert any(v.arity_key == key[0] for v in report.violations)
    print(f"criterion 2 PASS: {len(theories)} zoo theories sound, faults located")


def test_criterion_03_deloop_commutes_with_corepresentation():
    cases = [
        (0, lambda extra: monoidal_as_dim0(disc_monoidal(2), 2, extra=extra)),
        (1, lambda extra: assoc_operad(bound=2, extra=extra)),
    ]
    for n, make in cases:
        sup = deloop_support(n + 1, 2)
        U = make(sup)
        lhs = deloop(theta(U, 2, extra=sup), "*", 2)
        rhs = theta(deloop(U, "*", 2), 2)
        assert serialize(lhs) == serialize(rhs)
    print("criterion 3 PASS: deloop/corepresentation squares byte-equal (2 cases)")


def test_criterion_04_deloop_comparison():
    for m in (0, 1):
        assert deloop_compare(disc_monoidal(2), m, 2).status == "pass"
    print("criterion 4 PASS: deloop comparison for m in {0, 1}")


def _monoid_hom_count(k, m):
    """Independent oracle: homomorphisms of cyclic groups Z/k -> Z/m."""
    count = 0
    for img in product(range(m), repeat=k):
        if img[0] != 0:
            continue
        if all(img[(a + b) % k] == (img[a] + img[b]) % m for a in range(k) for b in range(k)):
            count += 1
    return count


def test_criterion_05_corepresentation_counts_lax_functors():
    expected = {(2, 2): 2}
    for k, m in ((2, 2), (2, 3)):
        oracle = _monoid_hom_count(k, m)
        A = theta(monoidal_as_dim0(disc_monoidal(k)), 2)
        B = theta(monoidal_as_dim0(disc_monoidal(m)), 2)
        got = len(enumerate_morphisms(A, B, 2))
        assert got == oracle
        if (k, m) in expected:
            assert got == expected[(k, m)]
    print("criterion 5 PASS: lax functor counts match the homomorphism oracle")


def _graded_zoo():
    return [
        terminal_graded(assoc_operad()),
        product_graded(cyclic_monoid_theory(2), 2),
        product_graded(init_operad(), 2),
        terminal_graded(discrete_category(2)),
        product_graded(assoc_operad(), 2),
    ]


def test_criterion_06_grading_roundtrip_and_unit_push():
    instances = _graded_zoo()
    for X in instances:
        assert validate_graded(X).status == "pass"
        Y, p = to_projection(X)
        back = relabel_graded(from_projection(Y, p), lambda u, x: x[1], lambda d, v, y: y[1])
        assert serialize(back) == serialize(X)
    # pushing the unit grading of the pair theory back down is the
    # identity, byte-for-byte after stripping the degree tags
    for X in instances[:3]:
        VP, _ = to_projection(X)
        B = push_left(X, terminal_graded(VP))
        back = relabel_graded(B, lambda u, x: x[0][1], lambda d, v, y: y[0][1])
        assert serialize(back) == serialize(X)
    print(f"criterion 6 PASS: roundtrip on {len(instances)} gradings, unit push byte-equal")


def test_criterion_07_gradings_count_as_algebras():
    cases = [
        (discrete_category(2, bound=1), 1),
        (discrete_category(2, bound=1), 2),
        (assoc_operad(bound=1), 1),
    ]
    for U, cap in cases:
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
    print("criterion 7 PASS: graded and algebra counts agree on 3 instances")


def _bound1_setups():
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


def test_criterion_08_push_adjunction_counts():
    checked = 0
    for U, V, VP, p in _bound1_setups():
        Y = product_graded(VP, 2, bound=1)
        Z = product_graded(U, 2, bound=1)
        lhs = len(graded_morphisms(push_left(V, Y), Z, 1))
        rhs = len(graded_morphisms(Y, pullback(p, Z, 1), 1))
        assert lhs == rhs and lhs > 0
        X = product_graded(VP, 2, bound=1)
        R = push_right(V, X, 1)
        tp = theta_morphism(p, 1)
        TG = theta_graded(X, 1)
        for W in (R, terminal_graded(R.base, bound=1)):
            lhs = len(graded_morphisms(W, R, 1))
            rhs = len(graded_morphisms(pullback(tp, W, 1), TG, 1))
            assert lhs == rhs
        assert len(graded_morphisms(R, R, 1)) > 0
        checked += 1
    assert checked == 3
    print("criterion 8 PASS: both adjunction count identities on 3 bound-1 instances")


def _two_op_operad(bound):
    """One colour, unary operations {1, e} with e absorbing."""
    return build_theory(
        1,
        SYMMETRIC,
        bound,
        ("*",),
        lambda d, ar, lay, asg: ("1", "e") if ar.top == 1 else (),
        lambda P, lay, asg, inputs: "e" if "e" in inputs else "1",
    )


def _operads_with_projection(O, cap, bound):
    """Count one-colour presentations with a strict projection to O.

    Independent route for the plus-construction bridge: labels are
    degree-tagged pairs, composition outputs run over the forced degree
    fibre, and each candidate is admitted by the plain theory validator
    together with the morphism validator — no graded machinery.
    """
    col = O.label_set(0)[0]
    slots, keys = [], []
    for a in enumerate_arities(1, bound, O.variance):
        ak = canonical_key(a)
        tk = ((col,) * (a.top + 1),)
        keys.append((ak, tk))
        for v in O.label_set(1, ak, tk):
            slots.append((ak, tk, v))
    shapes = []
    for P in enumerate_arities(2, bound, O.variance):
        lay = layout(P)
        ak2 = canonical_key(P)
        lk = ((col,) * lay.colour_count, ())
        bentry = O.composition.get((ak2, lk))
        if bentry is None:
            continue
        chain = [canonical_key(lay.atom(ad).spec.arity) for ad in lay.chain_addrs]
        tak = canonical_key(lay.atom(lay.target_addr).spec.arity)
        shapes.append(((ak2, lk), chain, tak, bentry))
    count = 0
    for sizes in product(range(cap + 1), repeat=len(slots)):
        labs = {}
        for (ak, tk, v), s in zip(slots, sizes):
            labs.setdefault((ak, tk), []).extend((v, f"m{i}") for i in range(s))
        top = {k: tuple(labs.get(k, ())) for k in keys}
        bykey = {k[0]: top[k] for k in keys}
        entry_opts, dead, comp_keys = [], False, []
        for key, chain, tak, bentry in shapes:
            comp_keys.append(key)
            for ins in product(*[bykey[cak] for cak in chain]):
                vout = bentry[tuple(l[0] for l in ins)]
                outs = [l for l in bykey[tak] if l[0] == vout]
                if not outs:
                    dead = True
                    break
                entry_opts.append((key, ins, outs))
            if dead:
                break
        if dead:
            continue
        for choice in product(*[o for *_, o in entry_opts]):
            comp = {k: {} for k in comp_keys}
            for (key, ins, _), y in zip(entry_opts, choice):
                comp[key][ins] = y
            cand = TheoryPresentation(
                1, O.variance, 1, bound, {0: {DIM0_KEY: (col,)}}, top, comp
            )
            if validate_theory(cand, bound).status != "pass":
                continue
            F = TheoryMorphism(
                cand,
                O,
                {0: {DIM0_KEY: {col: col}}, 1: {k: {l: l[0] for l in top[k]} for k in keys}},
            )
            if validate_morphism(F, bound).status == "pass":
                count += 1
    return count


def test_criterion_09_plus_construction_bridge():
    # algebras of the corepresented theory of a 2-operation operad are
    # counted by operads carrying a projection to it; pinned counts from
    # both routes run ahead of time
    pinned = {(1, 1): 2, (1, 2): 9, (2, 1): 2}
    for (bound, cap), expect in pinned.items():
        O = _two_op_operad(bound)
        W = theta(O, bound)
        algebras = sum(
            1
            for A in enumerate_algebra_presentations(W, {"*": ("p",)}, cap, bound)
            if validate_algebra(A, bound).status == "pass"
        )
        operads = _operads_with_projection(O, cap, bound)
        assert algebras == operads == expect
    print("criterion 9 PASS: plus-construction counts 2/9/2 from both routes")


def _iso_count(C):
    """Brute-force oracle: the number of isomorphism arrows of C."""
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


def test_criterion_10_base_skeletons_and_field_theories():
    for B in (bord1_skeleton(2, 1), bord1_skeleton(3, 1), cocorr_fin_skeleton(2)):
        assert validate_base(B).status == "pass"
    K = cocorr_fin_skeleton(2)
    for P in (terminal_properad(2), assoc_properad(2)):
        assert properad_tables(properad_adapter(P, base=K)) == P
    # field theories over the point-interval-circle base: when every
    # isomorphism of C is an identity the count is the object count; in
    # general it is the number of isomorphism arrows (see the ledger for
    # the sharper identity and its two-object counterexample)
    swept = 0
    for C in enumerate_categories(2, 4):
        got = len(field_theories(zc_build(C)))
        assert got == _iso_count(C)
        if _iso_count(C) == len(C.objects):
            assert got == len(C.objects)
        else:
            # a count off the object count comes from a non-identity
            # isomorphism
            assert _iso_count(C) > len(C.objects)
        swept += 1
    named = [
        (chain_category(3), 3),
        (codiscrete_category(3), 9),
        (cyclic_group_category(2), 2),
        (cyclic_group_category(5), 5),
        (cyclic_group_category(7), 7),
    ]
    for C, expect in named:
        got = len(field_theories(zc_build(C)))
        assert got == expect == _iso_count(C)
    print(f"criterion 10 PASS: skeletons free, {swept} categories swept, named counts pinned")

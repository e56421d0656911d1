"""Differential test of the morphism search against generate-and-validate.

The oracle below is the plain route: build every typed label assignment
(colours, then each dimension's labels with keys in ``repr`` order), run
the full ``validate_morphism`` on each, and for gradings filter the
pair-theory morphisms by the projections afterwards.  The forward-checked
search must return the same morphisms in the same order.  ``assoc`` is
left out: the oracle needs minutes on it, and its 4096 counts are pinned
by criterion 8.

The same holds for field theories: the oracle composition folds every
chain of a bordism composite afresh on each call, and the oracle
``field_theories`` tests whole candidates one by one; the compiled
composition plans and the forward-checked search must give the same
outputs, the same theories in the same order and the same budget errors.
"""

import dataclasses
import functools
import re
from itertools import islice, product

import pytest

from htk.arity import layout
from htk.bases import (
    POINT,
    _bord_chains,
    _component_key,
    _loop_classes,
    bord1_skeleton,
    category_from_tables,
    codiscrete_category,
    cyclic_group_category,
    detached_shape,
    enumerate_categories,
    field_theories,
    walking_arrow,
    zc_build,
)
from htk.constructions import disc_monoidal, monoidal_as_dim0, theta
from htk.graded import (
    compose_morphisms,
    convolve,
    graded_morphisms,
    product_graded,
    pullback,
    push_left,
    push_right,
    terminal_graded,
    theta_graded,
    theta_morphism,
    to_projection,
)
from htk.theory import (
    DIM0_KEY,
    TheoryMorphism,
    _arity_of_key,
    enumerate_morphisms,
    key_assignment,
    map_assignment,
    validate_morphism,
    whole_key,
)
from htk.zoo import cyclic_monoid_theory, discrete_category, init_operad, terminal_theory


def oracle_morphisms(S, T, bound=None):
    if S.n != T.n or S.variance != T.variance:
        return []
    bound = min(S.arity_bound, T.arity_bound) if bound is None else bound
    found = []

    def rec_dims(d, actions):
        if d > S.n:
            F = TheoryMorphism(S, T, {k: {kk: dict(vv) for kk, vv in v.items()} for k, v in actions.items()})
            if validate_morphism(F, bound).status == "pass":
                found.append(F)
            return
        table = S.top_mul if d == S.n else S.strata[d]
        items = []
        for key in sorted(table, key=repr):
            ak, skey = key
            lay = layout(_arity_of_key(ak, S.arity_bound))
            asg = key_assignment(lay.spec, skey)
            items.extend((ak, skey, lab, lay, asg) for lab in table[key])

        def rec_items(i):
            if i == len(items):
                rec_dims(d + 1, actions)
                return
            ak, skey, lab, lay, asg = items[i]
            tkey = whole_key(lay.spec, map_assignment(TheoryMorphism(S, T, actions), lay, asg).__getitem__)
            for img in T.label_set(d, ak, tkey):
                actions[d].setdefault((ak, skey), {})[lab] = img
                rec_items(i + 1)
                del actions[d][(ak, skey)][lab]

        actions[d] = {}
        rec_items(0)
        del actions[d]

    def rec_colours(cols, i):
        src = S.label_set(0)
        if i == len(src):
            rec_dims(1, {0: {DIM0_KEY: dict(cols)}})
            return
        for img in T.label_set(0):
            cols[src[i]] = img
            rec_colours(cols, i + 1)
            del cols[src[i]]

    rec_colours({}, 0)
    return found


def _nonempty_actions(actions):
    return {d: {k: v for k, v in tab.items() if v} for d, tab in actions.items()}


def oracle_graded_morphisms(A, B, bound=None):
    Y1, p1 = to_projection(A)
    Y2, p2 = to_projection(B)
    want = _nonempty_actions(p1.actions)
    return [
        F
        for F in oracle_morphisms(Y1, Y2, bound)
        if _nonempty_actions(compose_morphisms(p2, F).actions) == want
    ]


def _actions(ms):
    return [F.actions for F in ms]


def plain_pairs():
    Z2, Z3 = cyclic_monoid_theory(2), cyclic_monoid_theory(3)
    D, one = discrete_category(2), terminal_theory(1, bound=2)
    pairs = {
        "terminal->terminal": (one, one),
        "Z2->Z2": (Z2, Z2),
        "Z2->Z3": (Z2, Z3),
        "D->D": (D, D),
        "D->terminal": (D, one),
    }
    for k, m in ((2, 2), (2, 3)):
        A, B = monoidal_as_dim0(disc_monoidal(k)), monoidal_as_dim0(disc_monoidal(m))
        pairs[f"monoid:Z/{k}->Z/{m}"] = (A, B)
        pairs[f"lax:Z/{k}->Z/{m}"] = (theta(A, 2), theta(B, 2))
    return pairs


PLAIN = plain_pairs()


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("name", sorted(PLAIN))
def test_plain_search_matches_oracle(name, bound):
    S, T = PLAIN[name]
    got = enumerate_morphisms(S, T, bound)
    assert _actions(got) == _actions(oracle_morphisms(S, T, bound))
    assert got, "an empty pair checks nothing"


def graded_pairs():
    pairs = {}
    for name, U in (("cyclic:2", cyclic_monoid_theory(2, bound=1)), ("init", init_operad(bound=1))):
        V = terminal_graded(U, bound=1)
        VP, p = to_projection(V)
        Y = product_graded(VP, 2, bound=1)
        Z = product_graded(U, 2, bound=1)
        pairs[f"pushL:{name}:lhs"] = (push_left(V, Y), Z)
        pairs[f"pushL:{name}:rhs"] = (Y, pullback(p, Z, 1))
        R = push_right(V, Y, 1)
        tp = theta_morphism(p, 1)
        TG = theta_graded(Y, 1)
        for W, tag in ((R, "R"), (terminal_graded(R.base, bound=1), "terminal")):
            pairs[f"pushR:{name}:{tag}:lhs"] = (W, R)
            pairs[f"pushR:{name}:{tag}:rhs"] = (pullback(tp, W, 1), TG)
    U = cyclic_monoid_theory(2, bound=1)
    C = convolve(terminal_graded(U, bound=1), product_graded(U, 2, bound=1), 1)
    TT, pT = to_projection(terminal_graded(U, bound=1))
    D = theta_graded(pullback(pT, product_graded(U, 2, bound=1), 1), 1)
    T1 = terminal_graded(C.base, bound=1)
    pairs.update({"conv:C->C": (C, C), "conv:D->D": (D, D), "conv:T->C": (T1, C), "conv:T->D": (T1, D)})
    return pairs


GRADED = graded_pairs()


@pytest.mark.parametrize("name", sorted(GRADED))
def test_graded_search_matches_oracle(name):
    A, B = GRADED[name]
    got = graded_morphisms(A, B, 1)
    assert _actions(got) == _actions(oracle_graded_morphisms(A, B, 1))
    assert got, "an empty pair checks nothing"


def test_search_prunes_below_the_oracle_node_count():
    # generate-and-validate needs over 2000 nodes on this pair (every
    # typed assignment); pruning and the fibre restriction stay within 1000
    A, B = GRADED["pushL:init:lhs"]
    assert len(graded_morphisms(A, B, 1, budget=1_000)) == 256


class TestBudget:
    def test_morphism_budget_reports_progress(self):
        A, B = GRADED["pushL:init:lhs"]
        with pytest.raises(RuntimeError) as e:
            graded_morphisms(A, B, 1, budget=5)
        m = re.fullmatch(r".*budget exceeded: 5 nodes visited, deepest at (\d+) of (\d+) .*", str(e.value))
        # five nodes reach at most four variables deep, of the ten in all
        assert 0 < int(m[1]) <= 4 and int(m[2]) == 10

    def test_field_theory_budget_reports_candidates(self):
        with pytest.raises(RuntimeError, match=r"after examining 3 candidates"):
            field_theories(zc_build(codiscrete_category(3)), budget=3)


# -- field theories -----------------------------------------------------------


_oracle_chains = functools.lru_cache(maxsize=None)(_bord_chains)


def oracle_zc_comp(C, B, hochschild):
    """zc_build's composition rule, tracing and folding every chain per call."""
    cls = _loop_classes(C) if hochschild else None

    def port_colour(cols, p):
        tag, i = p
        return cols[{"a": 0, "b": 1, "c": 2}[tag]][i]

    def comp(inst, cols, lf, lg):
        (a, b, c), (f, g) = inst
        h = B.compose.get(inst)
        if h is None:
            return None
        lab_of = {}
        circles = []
        for owner, m, labs in (("f", f, lf), ("g", g, lg)):
            for comp_m, lab in zip(m, labs):
                if comp_m[0] == "o":
                    circles.append(lab)
                else:
                    lab_of[(owner, comp_m)] = lab

        def fold(path):
            cur = None
            x0 = pos = port_colour(cols, path[0][2])
            for owner, comp_m, ip, op in path:
                lab = lab_of[(owner, comp_m)]
                y = port_colour(cols, op)
                if cur is None:
                    cur = lab
                else:
                    key = ((x0, pos, y), (cur, lab))
                    if key not in C.compose:
                        return None, None
                    cur = C.compose[key]
                pos = y
            return cur, (x0, pos)

        chains, loops = _oracle_chains(a, b, c, f, g)
        interval_labels = {}
        for path in chains:
            lab, _ = fold(path)
            if lab is None:
                return None
            ports = (path[0][2], path[-1][3])
            ss = tuple(sorted(i for tag, i in ports if tag == "a"))
            ts = tuple(sorted(i for tag, i in ports if tag == "c"))
            interval_labels[("i", ss, ts)] = lab
        for path in loops:
            lab, endpoints = fold(path)
            if lab is None:
                return None
            circles.append(cls[(endpoints[0], lab)] if hochschild else POINT)
        circles.sort(key=repr)
        out = []
        for comp_m in h:
            if comp_m[0] == "o":
                out.append(circles.pop(0))
            else:
                if comp_m not in interval_labels:
                    return None
                out.append(interval_labels[comp_m])
        return tuple(out)

    return comp


def oracle_zc(C, Z, hochschild=False):
    """``Z = zc_build(C, hochschild=hochschild)`` with the oracle composition."""
    return dataclasses.replace(Z, composition=oracle_zc_comp(C, Z.base, hochschild))


@functools.lru_cache(maxsize=None)
def _oracle_shapes(inst, h):
    (a, b, c), (f, g) = inst
    return (
        tuple(detached_shape(a, b, comp) for comp in f),
        tuple(detached_shape(b, c, comp) for comp in g),
        tuple(detached_shape(a, c, comp) for comp in h),
    )


def oracle_field_theories(Z, budget=1_000_000):
    """Generate every candidate, then test it against every instance."""
    B = Z.base
    gens = tuple(B.ind_objects)
    shapes = sorted(B.ind_morphisms)
    id_shape = {}
    for g in gens:
        idm = B.identity.get((g,))
        if idm is not None and len(idm) == 1:
            id_shape[detached_shape((g,), (g,), idm[0])] = g
    insts = [(inst, _oracle_shapes(inst, h)) for inst, h in B.compose.items()]
    out = []
    seen = 0
    for colchoice in product(*(Z.colours[g] for g in gens)):
        cols = dict(zip(gens, colchoice))
        opts = []
        for shape in shapes:
            so, to = B.ind_morphisms[shape]
            labs = Z.multimaps.get((shape, tuple(cols[s] for s in so), tuple(cols[t] for t in to)), ())
            if shape in id_shape and Z.units:
                forced = Z.units.get((id_shape[shape], cols[id_shape[shape]]))
                labs = (forced,) if forced in labs else ()
            opts.append(labs)
        if not all(opts):
            continue
        checks = [
            (inst, tuple(tuple(cols[s] for s in obj) for obj in inst[0]), nf, ng, nh)
            for inst, (nf, ng, nh) in insts
        ]
        for labchoice in product(*opts):
            seen += 1
            if seen > budget:
                raise RuntimeError(
                    f"field theory enumeration budget exceeded after examining {budget} candidates "
                    f"({len(out)} field theories found)"
                )
            lab = dict(zip(shapes, labchoice))
            if all(
                Z.composition(inst, ccols, tuple(lab[x] for x in nf), tuple(lab[x] for x in ng))
                == tuple(lab[x] for x in nh)
                for inst, ccols, nf, ng, nh in checks
            ):
                out.append((dict(cols), lab))
    return out


FIELD_CATEGORIES = {f"category:{i}": C for i, C in enumerate(enumerate_categories(2, 4)) if i % 7 == 0}
FIELD_CATEGORIES.update({"codiscrete:3": codiscrete_category(3), "cyclic-group:7": cyclic_group_category(7)})


@pytest.mark.parametrize("hochschild", [False, True])
@pytest.mark.parametrize("name", sorted(FIELD_CATEGORIES))
def test_field_theories_match_oracle(name, hochschild):
    C = FIELD_CATEGORIES[name]
    Z = zc_build(C, hochschild=hochschild)
    got = field_theories(Z)
    assert got == oracle_field_theories(oracle_zc(C, Z, hochschild))
    assert got, "every category has its identity field theories"


def _typed_families(Z, src, tgt, cs, ct, mor):
    return product(*(Z.multimaps[_component_key(src, tgt, cs, ct, comp)] for comp in mor))


@pytest.mark.parametrize("hochschild", [False, True])
def test_compiled_composition_matches_oracle(hochschild):
    # labels typed at the first colouring of each instance are also fed
    # at the others, where paths stop composing and the rule gives None
    outcomes = set()
    for C in (walking_arrow(), codiscrete_category(2), cyclic_group_category(3)):
        Z = zc_build(C, hochschild=hochschild)
        old = oracle_zc_comp(C, Z.base, hochschild)
        for inst in bord1_skeleton(3, 1).compose:
            (a, b, c), (f, g) = inst
            colourings = list(islice(product(*(product(*(Z.colours[s] for s in obj)) for obj in (a, b, c))), 6))
            ca, cb, cc = colourings[0]
            labellings = list(
                islice(product(_typed_families(Z, a, b, ca, cb, f), _typed_families(Z, b, c, cb, cc, g)), 4)
            )
            for cols in colourings:
                for lf, lg in labellings:
                    got = Z.composition(inst, cols, lf, lg)
                    assert got == old(inst, cols, lf, lg), (inst, cols, lf, lg)
                    outcomes.add(got is None)
    assert outcomes == {False, True}


def test_composite_without_its_chain_gives_none():
    # a base whose composite names an interval that no chain of the
    # instance produces: both rules answer None, not a KeyError
    B = bord1_skeleton(3, 1)
    thru = ("i", (0,), (0,))
    inst = next(k for k, h in B.compose.items() if thru in h and len(h) == 1)
    bent = ("i", (0,), (1,))
    broken = dataclasses.replace(B, compose={**B.compose, inst: (bent,)})
    C = walking_arrow()
    Z = zc_build(C, base=broken)
    old = oracle_zc_comp(C, broken, False)
    (a, b, c), (f, g) = inst
    cols = tuple(("a",) * len(obj) for obj in (a, b, c))
    lf, lg = ("id",) * len(f), ("id",) * len(g)
    assert Z.composition(inst, cols, lf, lg) is None
    assert old(inst, cols, lf, lg) is None


def _disjoint_groups(*orders):
    """Cyclic groups of the given orders, one object each, with no arrows between."""
    obs = tuple(f"x{i}" for i in range(len(orders)))
    hom = {(x, y): (tuple(range(k)) if x == y else ()) for x, k in zip(obs, orders) for y in obs}
    comp = {((x, x, x), (a, b)): (a + b) % k for x, k in zip(obs, orders) for a in range(k) for b in range(k)}
    return category_from_tables(obs, hom, {x: 0 for x in obs}, comp)


def test_field_theory_budget_errors_match_oracle():
    # half the candidates are rejected, under each of the two live
    # colourings; every budget below the candidate count raises the
    # oracle's error text
    C = _disjoint_groups(2, 2)
    Z = zc_build(C)
    oracle = oracle_zc(C, Z)
    total = 0
    while True:
        try:
            want = oracle_field_theories(oracle, budget=total)
        except RuntimeError as e:
            with pytest.raises(RuntimeError) as got:
                field_theories(Z, budget=total)
            assert str(got.value) == str(e)
            total += 1
            continue
        assert field_theories(Z, budget=total) == want
        break
    assert total == 2 * len(want) == 8

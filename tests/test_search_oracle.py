"""Differential test of the morphism search against generate-and-validate.

The oracle below is the plain route: build every typed label assignment
(colours, then each dimension's labels with keys in ``repr`` order), run
the full ``validate_morphism`` on each, and for gradings filter the
pair-theory morphisms by the projections afterwards.  The forward-checked
search must return the same morphisms in the same order.  ``assoc`` is
left out: the oracle needs minutes on it, and its 4096 counts are pinned
by criterion 8.
"""

import re

import pytest

from htk.arity import layout
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
    _assignment_of_key,
    enumerate_morphisms,
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
            lay = layout(_arity_of_key(S, d, ak))
            asg = _assignment_of_key(lay, skey)
            items.extend((ak, skey, lab, lay, asg) for lab in table[key])

        def rec_items(i):
            if i == len(items):
                rec_dims(d + 1, actions)
                return
            ak, skey, lab, lay, asg = items[i]
            tkey = whole_key(lay, map_assignment(TheoryMorphism(S, T, actions), lay, asg).__getitem__)
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
        from htk.bases import codiscrete_category, field_theories, zc_build

        with pytest.raises(RuntimeError, match=r"after examining 3 candidates"):
            field_theories(zc_build(codiscrete_category(3)), budget=3)

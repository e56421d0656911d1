"""The memoised morphism search against the search it replaced.

``theory.enumerate_morphisms`` memoises the images of each variable that
pass its checks, keyed on the earlier variables they depend on, and
consecutive morphisms share the dicts whose variables did not change.
``oracles.enumerate_morphisms`` checks every candidate image at every
visit and builds each morphism afresh, by a walk over every variable,
where the library walks only the variables before its cut and
multiplies out the rest.  Both must give the same morphisms in the same
order, compared by ``repr`` so that ``True`` and ``1`` stay apart, and
the same budget errors, also for budgets that end inside a product
(``oracles.search_cut`` finds the cut by trying every start).  As the
morphisms of one search share dicts, using them must leave every one as
it was.  The results and node counts of the heaviest searches are pinned.
"""

import copy
import functools

import oracles
import pytest
from test_plan_oracle import _target_label, _true_or_one
from test_search_oracle import GRADED, PLAIN

from htk.arity import canonical_key
from htk.constructions import theta
from htk.graded import (
    compose_morphisms,
    from_projection,
    graded_morphisms,
    product_graded,
    pullback,
    push_left,
    push_right,
    terminal_graded,
    to_projection,
)
from htk.ordcomb import SYMMETRIC
from htk.theory import SKIP, build_theory, enumerate_morphisms, validate_morphism
from htk.zoo import assoc_operad


def _over(A, B):
    """The arguments ``graded_morphisms(A, B, 1)`` hands the search."""
    (Y1, p1), (Y2, p2) = to_projection(A), to_projection(B)
    return (Y1, Y2, 1), {"over": (p1, p2)}


@functools.cache
def _assoc():
    U = assoc_operad(bound=1)
    V = terminal_graded(U, bound=1)
    VP, p = to_projection(V)
    Y = product_graded(VP, 2, bound=1)
    Z = product_graded(U, 2, bound=1)
    R = push_right(V, Y, 1)
    return {
        "pushL:assoc:lhs": _over(push_left(V, Y), Z),
        "pushL:assoc:rhs": _over(Y, pullback(p, Z, 1)),
        "assoc:R->R": _over(R, R),
    }


def _true_or_one_theory():
    return theta(build_theory(1, SYMMETRIC, 2, ("a",), _true_or_one, _target_label))


def _unary(labels):
    return lambda d, ar, lay, asg: labels if ar.top == 1 else ()


def _through(asg, u, v):
    """The composite of arrows u then v, which reads the colour between them."""
    return "g" if (u == v == "g" if asg[("c", 1)] == "a" else u == v) else "f"


def _middle_colour_pair():
    # T has the labels f and g on every boundary, so a check that the
    # last variable of a two-arrow chain files can turn on the colour
    # between the arrows, which that variable's own key does not read
    def pairs(rule):
        return lambda P, lay, asg, ins: rule(asg, *ins) if len(ins) == 2 else SKIP

    S = build_theory(1, SYMMETRIC, 2, ("x", "y"), _unary(("f",)), pairs(lambda asg, u, v: "f"))
    T = build_theory(1, SYMMETRIC, 2, ("a", "b"), _unary(("f", "g")), pairs(_through))
    return (S, T, 2), {}


def _two_dimension_suffix():
    # S has dimension-2 labels only on the 2-arity whose boundary holds
    # nullary 1-cells alone, so no variable reads the images of the unary
    # 1-cells, which come after the nullary ones: the suffix holds those
    # and the dimension-2 labels
    def labels(d, ar, lay, asg):
        return ("f", "g") if d == 1 else ("u",) if canonical_key(ar) == "k2|t1|0,1/" else ()

    S = build_theory(2, SYMMETRIC, 1, ("*",), labels, lambda *site: SKIP)
    T = build_theory(2, SYMMETRIC, 1, ("*",), lambda *site: ("a", "b"), lambda *site: SKIP)
    return (S, T, 1), {}


def _case(name):
    if name in GRADED:
        return _over(*GRADED[name])
    if name in PLAIN:
        return PLAIN[name] + (2,), {}
    if name == "true-or-one":
        U = _true_or_one_theory()
        return (U, U, 1), {}
    if name == "middle-colour":
        return _middle_colour_pair()
    if name == "two-dimension-suffix":
        return _two_dimension_suffix()
    return _assoc()[name]


CASES = sorted(GRADED) + [
    "lax:Z/2->Z/2",
    "lax:Z/2->Z/3",
    "pushL:assoc:lhs",
    "pushL:assoc:rhs",
    "assoc:R->R",
    "true-or-one",
    "middle-colour",
    "two-dimension-suffix",
]


def _reprs(found):
    return [repr(F.actions) for F in found]


@pytest.mark.parametrize("name", CASES)
def test_search_matches_the_previous_search(name):
    args, kw = _case(name)
    got = enumerate_morphisms(*args, **kw)
    assert _reprs(got) == _reprs(oracles.enumerate_morphisms(*args, **kw))
    assert got, "an empty pair checks nothing"


def test_true_and_one_are_both_images():
    # so that the comparison by repr above tells an image True from 1
    U = _true_or_one_theory()
    (F,) = enumerate_morphisms(U, U, 1)
    assert {type(y) for inner in F.actions[1].values() for y in inner.values()} == {bool, int}


def test_budget_errors_match_the_previous_search():
    # every budget up to the node count raises the same text; the node
    # count and one more return the same list
    args, kw = _over(*GRADED["pushL:init:lhs"])
    budget = 0
    while True:
        budget += 1
        try:
            want = oracles.enumerate_morphisms(*args, budget, **kw)
        except RuntimeError as e:
            with pytest.raises(RuntimeError) as got:
                enumerate_morphisms(*args, budget, **kw)
            assert str(got.value) == str(e)
            continue
        break
    assert budget == 643
    for b in (budget, budget + 1):
        assert _reprs(enumerate_morphisms(*args, b, **kw)) == _reprs(want)


def _outcome(search, args, kw, budget):
    """What a search gives within ``budget`` nodes: its list, or its text."""
    try:
        return _reprs(search(*args, budget, **kw))
    except RuntimeError as e:
        return str(e)


def _same_at_budgets(name, budgets):
    args, kw = _case(name)
    for b in budgets:
        assert _outcome(enumerate_morphisms, args, kw, b) == _outcome(oracles.enumerate_morphisms, args, kw, b), b


@pytest.mark.parametrize("name", ["pushL:cyclic:2:lhs", "pushL:cyclic:2:rhs"])
def test_a_cut_at_the_start_makes_the_search_one_product(name):
    args, kw = _case(name)
    assert oracles.search_cut(*args, **kw)[0] == 0
    _same_at_budgets(name, range(18))  # 16 nodes


def test_a_suffix_across_two_dimensions():
    args, kw = _case("two-dimension-suffix")
    cut, dims = oracles.search_cut(*args, **kw)
    assert dims[cut] == 1 and dims[-1] == 2
    _same_at_budgets("two-dimension-suffix", range(514))  # 512 nodes


def test_suffixes_that_are_empty_or_one_combination():
    # pushR:init:R: of its 1,024 nodes at the cut, 768 have a suffix
    # variable without images and 256 exactly one combination
    _same_at_budgets("pushR:init:R:lhs", [*range(301), *range(301, 4_863, 97), 4_862, 4_863, 4_864])


def test_budgets_inside_product_subtrees():
    # pushL:assoc:lhs is 2 colours and a suffix of 12 variables, so nearly
    # every budget ends inside the product below one colouring
    _same_at_budgets("pushL:assoc:lhs", [*range(1, 301), *range(301, 10_303, 257), 10_302, 10_303, 10_304])


# (results, the least budget that does not raise) as the walk over every
# variable counted them
COUNTS = {
    "pushL:assoc:lhs": (4_096, 10_303),
    "pushL:assoc:rhs": (4_096, 10_303),
    "pushR:init:R:lhs": (256, 4_863),
    "pushR:init:R:rhs": (256, 4_863),
    "pushL:init:lhs": (256, 643),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_results_and_nodes_stay_pinned(name):
    results, nodes = COUNTS[name]
    args, kw = _case(name)
    assert len(enumerate_morphisms(*args, nodes, **kw)) == results
    with pytest.raises(RuntimeError, match=f"exceeded: {nodes - 1} nodes visited"):
        enumerate_morphisms(*args, nodes - 1, **kw)


def _stays_unchanged_after_use(name, step):
    A, B = GRADED[name]
    found = graded_morphisms(A, B, 1)
    before = [copy.deepcopy(F.actions) for F in found]
    used = found[::step]
    for F in used:
        validate_morphism(F, 1)
        from_projection(F.source, F)
        for G in used:
            compose_morphisms(G, F)
    assert len(used) > 2
    assert _reprs(found) == [repr(a) for a in before]


def test_found_morphisms_stay_unchanged_after_use():
    # pushR:init:R builds each of its morphisms as one leaf
    _stays_unchanged_after_use("pushR:init:R:lhs", 51)


def test_morphisms_of_one_product_stay_unchanged_after_use():
    # pushL:cyclic:2:rhs lists its 8 morphisms as one product, and they
    # share its {label: image} dicts
    _stays_unchanged_after_use("pushL:cyclic:2:rhs", 3)

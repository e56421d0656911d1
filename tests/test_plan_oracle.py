"""Differential tests of the key builders, the compiled site plans and
the one-pass codec.

The routes they replaced live in ``oracles``: the separate atom, layout
and graded key builders, the recursive boundary walk, associativity
with its templates rebuilt on every call, the ``json.dumps`` tree
serializer, the whole-tree ``json.loads`` parser, and delooping,
colour refinement and endomorphism theories each through its own site
loops.  Each must agree with the library: the same keys, the same
assignments in the same order, the same validation lines, the same
bytes, equal parses (or a ``FormatError`` from both), equal delooped
tables and the same refined and endomorphism files.
"""

import json
import tracemalloc
from dataclasses import replace
from functools import lru_cache, partial
from itertools import chain

import oracles
import pytest
import test_golden

from htk import cli, constructions, theory
from htk.arity import enumerate_arities, layout
from htk.constructions import deloop, deloop_support, detheorize_T, disc_monoidal, endo_planar, monoidal_as_dim0, theta
from htk.graded import product_graded, terminal_graded
from htk.ordcomb import PLANAR, SYMMETRIC
from htk.theory import (
    SKIP,
    build_theory,
    key_assignment,
    lower_key,
    map_key,
    validate_theory,
    whole_key,
)
from htk.zoo import assoc_operad, cyclic_monoid_theory, discrete_category, init_operad, terminal_theory


def _address(ad):
    """The identity on addresses: each key is its address tuple."""
    return ad


def _levelled(nu, x):
    return (nu, x)


def _reads(spec):
    """The addresses a whole key of ``spec`` reads."""
    if spec.arity.k == 1:
        return list(spec.colours)
    return [*spec.colours, *chain(*spec.lower), *spec.chain, spec.target]


@pytest.mark.parametrize("variance", [SYMMETRIC, PLANAR])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_key_builders(k, variance):
    atoms = 0
    for a in enumerate_arities(k, 2, variance):
        lay = layout(a)
        whole, lower = whole_key(lay.spec, _address), lower_key(lay.spec, _address)
        assert whole == oracles.whole_key(lay, _address)
        assert lower == oracles.lower_key(lay, _address)
        addrs = [*lay.colour_addrs, *(at.address for nu in sorted(lay.atoms) for at in lay.atoms[nu])]
        assert key_assignment(lay.spec, whole) == {ad: ad for ad in addrs}
        below = [ad for ad in addrs if ad[0] == "c" or ad[1] < k - 1] if k > 1 else []
        assert key_assignment(lay.spec, lower) == {ad: ad for ad in below}
        assert map_key(_levelled, whole, k) == oracles.relabel_key(_levelled, whole, k)
        if lower:
            assert map_key(_levelled, lower, k) == oracles.relabel_key(_levelled, lower, k)
        for at in chain(*lay.atoms.values()):
            key = whole_key(at.spec, _address)
            assert key == oracles.atom_key(at.spec, _address)
            assert key_assignment(at.spec, key) == {ad: ad for ad in _reads(at.spec)}
            atoms += 1
    assert atoms or k == 1


def _parsed(name):
    return cli.parse(test_golden.CASES[name]())


# graded files over bases of dimensions 1 to 3
GRADED_FILES = {
    **{name: partial(_parsed, name) for name in ("terminal_graded:assoc", "product_graded:discrete", "convolve:cyclic")},
    "product_graded:theta": lambda: product_graded(theta(discrete_category(2, bound=1), 1), 2, bound=1),
    "terminal_graded:terminal:3": lambda: terminal_graded(terminal_theory(3, bound=1), bound=1),
}


def _relabelled(nu, pair):
    return (pair[0], (nu, pair[1]))


@pytest.mark.parametrize("name", sorted(GRADED_FILES))
def test_map_key_on_graded_keys(name):
    X = GRADED_FILES[name]()
    keys = [(d, gk) for d, table in [*X.strata.items(), (X.n, X.top_mul)] for _, gk in table]
    keys += [(X.n + 1, glk) for _, glk in X.composition]
    assert keys
    for d, key in keys:
        assert map_key(_relabelled, key, d) == oracles.relabel_key(_relabelled, key, d)
        if len(key) != 2:
            assert map_key(lambda nu, pair: pair[0], key, d) == oracles.project_key(key)


def _labels(d, ar, lay, asg):
    """One or two labels at odd dimensions, none or one at even ones,
    depending on the boundary."""
    r = (ar.top + len(set(asg.values()))) % 2
    return tuple(f"{d}.{i}" for i in range(r if d % 2 == 0 else r + 1))


@lru_cache(maxsize=None)
def _walk_theory(n, variance):
    """A theory of dimension n (tables only) whose label sets vary in
    size, some empty; one colour at n = 3 keeps the walks short."""
    return build_theory(n, variance, 2, ("a", "b") if n < 3 else ("a",), _labels, lambda *site: SKIP)


@pytest.mark.parametrize("variance", [SYMMETRIC, PLANAR])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_boundary_assignments(k, variance):
    T = _walk_theory(max(k - 1, 1), variance)
    walked = 0
    for a in enumerate_arities(k, 2, variance):
        lay = layout(a)
        for top in (None, *range(k)):
            steps = [s for s in lay.steps if top is None or s[1] <= top]
            got = [asg for asg, _ in theory._walk(T, lay.colour_addrs, steps)]
            assert got == list(oracles.boundary_assignments(T, lay, top))
            walked += len(got)
    assert walked


@pytest.mark.parametrize("variance", [SYMMETRIC, PLANAR])
def test_top_level_steps_are_the_chain_then_the_target(variance):
    # composition_sites keys a site's chain and target off these steps
    for k in (2, 3, 4):
        for a in enumerate_arities(k, 2, variance):
            lay = layout(a)
            assert [s[0] for s in lay.steps if s[1] == k - 1] == [*lay.chain_addrs, lay.target_addr]


@pytest.mark.parametrize("variance", [SYMMETRIC, PLANAR])
def test_steps_below_the_top_level_are_the_lower_groups(variance):
    # the walk builds a site key's colour part from the colour addresses
    # and closes each level's part at the last address of its group
    for k in (1, 2, 3, 4):
        for a in enumerate_arities(k, 2, variance):
            lay = layout(a)
            assert lay.spec.colours == lay.colour_addrs
            assert [s[0] for s in lay.steps if s[1] < k - 1] == list(chain(*lay.spec.lower))


# theories whose sites are keyed by the walk and by the per-site route
SITED = {
    **{f"walk:{n}:{v}": partial(_walk_theory, n, v) for n in (1, 2, 3) for v in (SYMMETRIC, PLANAR)},
    **{name: partial(_parsed, name) for name in test_golden.CASES if name.startswith("zoo:")},
}


def _keyed(sites):
    """(arity key, assignment, key) of each site."""
    return [s[2:5] for s in sites]


@pytest.mark.parametrize("name", sorted(SITED))
def test_site_keys_equal_the_per_site_route(name):
    T = SITED[name]()
    # every arity up to the composition arities, k <= 4
    for d in range(1, T.n + 2):
        pool = enumerate_arities(d, 2, T.variance)
        assert _keyed(theory.stratum_sites(T, d, pool)) == _keyed(oracles.stratum_sites(T, d, pool))
    pool = enumerate_arities(T.n + 1, 2, T.variance)
    sites = list(oracles.composition_sites(T, pool))
    assert _keyed(theory.composition_sites(T, pool)) == _keyed(sites)
    # the file's own entries, and a table whose every other entry is nonempty
    for within in (T.composition, {(s[2], s[4]): i % 2 for i, s in enumerate(sites)}):
        want = [s for s in sites if within.get((s[2], s[4]))]
        assert _keyed(theory.composition_sites(T, pool, within)) == _keyed(want)


VALIDATED = {
    "terminal:2": lambda: terminal_theory(2),
    "theta:discrete": lambda: theta(discrete_category(2)),
    "theta:theta:monoidal": lambda: theta(theta(disc_monoidal(3), 2), 2),
    **{name: partial(_parsed, name) for name in test_golden.CASES if name.startswith("zoo:")},
}
FAULTS = ["violations:n0", "violations:n1", "violations:n1:tables"]


def _validation_lines(name):
    if name in VALIDATED:
        return "\n".join(validate_theory(VALIDATED[name]()).lines())
    return test_golden.CASES[name]()


@pytest.mark.parametrize("name", sorted(VALIDATED) + FAULTS)
def test_associativity_plans(name, monkeypatch):
    got = _validation_lines(name)
    monkeypatch.setattr(theory, "_check_associativity", oracles.check_associativity)
    assert _validation_lines(name) == got
    if name == "violations:n1":
        assert "associativity at" in got


def _serialized(name, monkeypatch):
    """Every presentation a golden case serializes, checked byte for
    byte against the tree serializer; returns the texts."""
    texts = []

    def checked(P):
        text = cli.serialize(P)
        assert text == oracles.serialize(P)
        texts.append(text)
        return text

    monkeypatch.setattr(test_golden, "serialize", checked)
    test_golden.CASES[name]()
    return texts


# the golden cases that write presentations (the others pin text lines)
WRITTEN = [name for name in sorted(test_golden.CASES) if not name.startswith(("morphism", "violations"))]


@pytest.mark.parametrize("name", WRITTEN)
def test_codec(name, monkeypatch):
    texts = _serialized(name, monkeypatch)
    assert texts
    parsed = [cli.parse(text) for text in texts]
    assert parsed == [oracles.parse(text) for text in texts]
    # bytes as well: ``==`` cannot tell True from 1
    assert [cli.serialize(P) for P in parsed] == texts
    assert texts == [oracles.serialize(oracles.parse(text)) for text in texts]


def _outcome(parse, text):
    try:
        return parse(text)
    except cli.FormatError:
        return cli.FormatError


def _edited(name, edit):
    obj = json.loads(test_golden.CASES[name]())
    edit(obj)
    return json.dumps(obj)


THEORY = test_golden.CASES["zoo:cyclic:3"]().strip()
GRADED = test_golden.CASES["terminal_graded:cyclic"]().strip()
# texts the canonical writer never produces: True if both routes must
# accept them, False if both must raise FormatError
HAND_MADE = {
    "indented": (json.dumps(json.loads(THEORY), indent=2), True),
    "spaced": (f" \r\n\t{json.dumps(json.loads(THEORY), separators=(' , ', ' : '))}\n\n", True),
    "reordered": (json.dumps(dict(reversed(json.loads(THEORY).items()))), True),
    "duplicate, last wins": ('{"top_mul":[[0.5,1]],"kind":"graded",' + THEORY[1:], True),
    "duplicate, last bad": (THEORY[:-1] + ',"top_mul":[[0.5,1]]}', False),
    "unread member": (THEORY[:-1] + ',"objects":[[{"a":1},0.5]],"zz":{"a":[1.5]}}', True),
    "graded, base reordered": (
        _edited("terminal_graded:cyclic", lambda obj: obj.update(base=dict(reversed(obj["base"].items())))),
        True,
    ),
    "graded, indented": (json.dumps(json.loads(GRADED), indent=1), True),
    "graded, base duplicate": ('{"base":{"dimension":0.5},' + GRADED[1:], True),
    "graded, base bad": (GRADED.replace('"symmetric"}', '"symmetric","top_mul":[[1,2.5]]}', 1), False),
    "escaped names": (THEORY.replace('"format"', '"\\u0066ormat"'), True),
    "trailing data": (THEORY + "x", False),
    "trailing object": (THEORY + "{}", False),
    "truncated in composition": (THEORY[: THEORY.index('"composition"') + 40], False),
    "truncated after the object": (THEORY[:-1], False),
    "non-string member name": ("{1:2," + THEORY[1:], False),
    "trailing comma": (THEORY[:-1] + ",}", False),
    "missing colon": (THEORY.replace('"kind":', '"kind"', 1), False),
    "top-level array": (f"[{THEORY}]", False),
    "table as object": (_edited("zoo:cyclic:3", lambda obj: obj.update(top_mul={"xy": 1})), False),
    "float in a key": (THEORY.replace('"composition":[[[', '"composition":[[[0.5,', 1), False),
    "byte-order mark": ("\ufeff" + THEORY, False),
    "empty": ("", False),
    "empty object": ("{}", False),
    "NaN label": (THEORY.replace("[0,1,2]]]", "[0,NaN,2]]]"), False),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_codec_agrees_on_hand_made_texts(name):
    text, valid = HAND_MADE[name]
    got = _outcome(cli.parse, text)
    assert got == _outcome(oracles.parse, text)
    assert (got is not cli.FormatError) == valid


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def theta_assoc():
    """theta(assoc) at bound 2, its 2.4 MB text and the peak memory of
    the whole-tree route's parse of it."""
    sup = deloop_support(2, 2)
    T = theta(assoc_operad(bound=2, extra=sup), 2, extra=sup)
    text = cli.serialize(T)
    assert len(text) > 2_000_000
    return T, text, _peak_bytes(oracles.parse, text)


def test_parse_memory_stays_below_the_whole_tree_route(theta_assoc):
    # the whole-tree route holds the file's list tree and its tuple copy
    # at once, the streaming route one entry's lists
    _, text, tree = theta_assoc
    assert _peak_bytes(cli.parse, text) <= 0.6 * tree


def test_serialize_memory_stays_near_its_text(theta_assoc):
    # each entry text is built once and the file joined once; holding
    # key and value texts, entry texts and joined tables as well took
    # over four times the text
    T, text, _ = theta_assoc
    assert _peak_bytes(cli.serialize, T) <= 3 * len(text)


def test_parse_shares_repeated_leaves(theta_assoc):
    _, text, tree = theta_assoc
    assert _peak_bytes(cli.parse, text) <= 0.3 * tree
    P = cli.parse(text)
    keys = [k for k in P.top_mul if len(k[1][0]) == 2]
    assert keys[0] != keys[1] and keys[0][1][0] == keys[1][1][0]
    assert keys[0][1][0] is keys[1][1][0]


def test_built_keys_share_their_colour_parts(theta_assoc):
    # the walk builds one colour tuple per colour assignment of an arity,
    # and every composition key extending it holds that object
    T = theta_assoc[0]
    parts = {(ak, lk[0]) for ak, lk in T.composition}
    assert len(parts) < len(T.composition)
    assert len({id(lk[0]) for _, lk in T.composition}) == len(parts)


def _true_or_one(d, ar, lay, asg):
    return (True,) if ar.top == 1 else (1,)


def _target_label(P, lay, asg, inputs):
    return _true_or_one(1, lay.atom(lay.spec.target).spec.arity, lay, asg)[0]


def test_true_and_one_stay_apart_in_site_keys(monkeypatch):
    # ``==`` cannot tell True from 1, so a key memo keyed by value would
    # write one where the other belongs; the bytes show it
    U = theta(build_theory(1, SYMMETRIC, 2, ("a",), _true_or_one, _target_label))
    assert any({type(x) for x in key[2]} == {bool, int} for _, key in U.top_mul)
    text = cli.serialize(U)
    for module in (theory, constructions):
        monkeypatch.setattr(module, "stratum_sites", oracles.stratum_sites)
        monkeypatch.setattr(module, "composition_sites", oracles.composition_sites)
    U = theta(build_theory(1, SYMMETRIC, 2, ("a",), _true_or_one, _target_label))
    assert text == oracles.serialize(U)


def _reversed(table):
    return {k: _reversed(v) if isinstance(v, dict) else v for k, v in reversed(table.items())}


def test_codec_sorts_entries():
    # built tables already come in the order of their key texts; a
    # reversed copy must still write the same bytes
    T = cli.parse(test_golden.CASES["zoo:assoc"]())
    R = replace(
        T,
        strata={d: _reversed(t) for d, t in T.strata.items()},
        top_mul=_reversed(T.top_mul),
        composition=_reversed(T.composition),
    )
    assert list(R.composition) != list(T.composition)
    assert cli.serialize(R) == oracles.serialize(R) == cli.serialize(T)


# key texts that share prefixes: graded ``objects`` is keyed by colours,
# which may be integers
SHARED_PREFIXES = {"integers": [1, 10, 12, -1, -12], "strings": ["a", "a,b", "a]", 'a"', "•"]}


@pytest.mark.parametrize("name", sorted(SHARED_PREFIXES))
def test_codec_sorts_keys_that_share_prefixes(name):
    keys = SHARED_PREFIXES[name]
    table = {k: (i,) for i, k in enumerate(keys)}
    T = cli.parse(test_golden.CASES["zoo:assoc"]())
    X = cli.parse(test_golden.CASES["terminal_graded:cyclic"]())
    for P in (
        replace(T, strata={0: table}, top_mul=table, composition=dict.fromkeys(keys, table)),
        replace(X, objects=table, top_mul=dict.fromkeys(keys, table)),
    ):
        assert cli.serialize(P) == oracles.serialize(P)


def test_codec_writes_empty_tables():
    T = cli.parse(test_golden.CASES["zoo:assoc"]())
    for P in (
        replace(T, strata={0: {}}, top_mul={}, composition={}),
        replace(T, top_mul={}, composition={1: {}, 2: {(3,): 4, (): 5}, 10: {}}),
    ):
        assert cli.serialize(P) == oracles.serialize(P)


@pytest.mark.parametrize("value", [0.5, {"a": 1}, [1, [2.5]], ["x", [{"a": 1}]], [[True, None], "•"]])
def test_decoder(value):
    try:
        expected = oracles.dec(value)
    except cli.FormatError:
        with pytest.raises(cli.FormatError):
            cli._dec(value, {})
    else:
        assert cli._dec(value, {}) == expected


# sources of the deloop zoo, by the dimension their support is built for
DELOOPED = {
    "cyclic:2": (0, lambda sup: cyclic_monoid_theory(2, extra=sup)),
    "disc-monoid:2": (0, lambda sup: monoidal_as_dim0(disc_monoidal(2), 2, extra=sup)),
    "terminal:1": (1, lambda sup: terminal_theory(1, extra=sup)),
    "init": (1, lambda sup: init_operad(extra=sup)),
    "assoc": (1, lambda sup: assoc_operad(extra=sup)),
    "discrete:2": (1, lambda sup: discrete_category(2, extra=sup)),
    "theta:monoidal": (1, lambda sup: theta(disc_monoidal(2), 2, extra=sup)),
    "terminal:2": (2, lambda sup: terminal_theory(2, extra=sup)),
    "theta:discrete:2": (2, lambda sup: theta(discrete_category(2, extra=sup), 2, extra=sup)),
}


@pytest.mark.parametrize("name", sorted(DELOOPED))
def test_deloop_key_addresses(name):
    n, make = DELOOPED[name]
    V = make(deloop_support(n, 2))
    got = deloop(V, "*", 2)
    assert got == oracles.deloop(V, "*", 2)
    assert got.composition


def _composed(n, variance):
    """``_walk_theory(n, variance)`` with a composite at every site: the
    suspension reads composition tables as well as label sets."""
    return build_theory(n, variance, 2, ("a", "b") if n < 3 else ("a",), _labels, lambda P, *site: f"{P.top}")


# theories read through the suspension, at each colour, and the projection
SUSPENDED = {
    **{f"walk:{n}:{v}": partial(_composed, n, v) for n in (1, 2, 3) for v in (SYMMETRIC, PLANAR)},
    **{name: partial(_parsed, name) for name in test_golden.CASES if name.startswith("zoo:")},
}
REFINED = {name: make for name, make in SUSPENDED.items() if name.startswith("zoo:")}


def _same_bytes(route, oracle, *args):
    """Both give the same file, or both raise ``ValueError``."""
    try:
        want = cli.serialize(oracle(*args))
    except ValueError:
        with pytest.raises(ValueError):
            route(*args)
    else:
        assert cli.serialize(route(*args)) == want


@pytest.mark.parametrize("name", sorted(SUSPENDED))
def test_endo_reads_like_the_per_site_route(name):
    T = SUSPENDED[name]()
    for x in T.label_set(0):
        _same_bytes(endo_planar, oracles.endo_planar, T, x)


@pytest.mark.parametrize("name", sorted(REFINED))
def test_detheorize_reads_like_the_per_site_route(name):
    U = REFINED[name]()
    # one name over every colour, and two over the first
    for colours in ({u: ("a",) for u in U.label_set(0)}, {U.label_set(0)[0]: ("a", "b")}):
        _same_bytes(detheorize_T, oracles.detheorize_T, U, colours)

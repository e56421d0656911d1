"""The plain routes that compiled plans, the one-pass codec, the one key
builder pair, the read-through kernel and the shared finite-category
routines replaced.

Differential tests compare the library against these:

* ``atom_key``, ``whole_key`` and ``lower_key``: the key builders that
  read an atom's spec and a layout's own address tuples separately,
  where ``theory.whole_key``/``lower_key`` read one ``LeafSpec``;
* ``project_key`` and ``relabel_key``: graded keys rewritten by hand,
  where the library calls ``theory.map_key``;
* ``boundary_assignments``: a recursive walk that keys every atom
  through ``canonical_key`` and ``atom_key`` afresh;
* ``stratum_sites`` and ``composition_sites``: key every site afresh
  from its assignment, through the recursive walk and ``whole_key`` or
  ``lower_key``, where the library's walk builds each colour and level
  tuple once and shares it among the sites that extend it (the delooping
  oracle below reads its sites through these too);
* ``check_associativity``: builds its stage templates
  (``_site_template``, read by ``_site_eval``) on every call instead of
  reading the stage specs from ``theory._assoc_plan``;
* ``serialize``: the tree serializer, which builds the file's object
  and hands it to ``json.dumps`` (each key is encoded twice: once to
  sort, once to write), where ``cli.serialize`` sorts entry texts built
  once and joins the file once;
* ``dec``: the recursive decoder of JSON values, which builds every
  string and tuple afresh, where ``cli._dec`` shares equal strings and
  flat tuples within one ``parse`` call;
* ``parse``: ``json.loads`` of the whole text, then ``dec`` on each
  table the presentation reads, so the list tree of the whole file
  exists while its tuple copy is built; its boundary-key check counts
  colours off each arity's concrete bottom level;
* ``deloop``, ``detheorize_T`` and ``endo_planar``: each with its own
  site loops, where ``constructions`` reads all three through one
  kernel and a plan per construction. ``deloop`` keys V's tables
  through one lambda call per flattened address, ``detheorize_T``
  through a projecting closure made per site, and ``endo_planar``
  through a shifted assignment dict built per site
  (``_suspend_assignment``, ``_shift_addr``);
* ``to_projection_0``, ``from_projection_0``, ``graded_from_pairs_0``,
  ``relabel_graded_0``, ``pullback_0`` and ``enumerate_graded_0``: the
  graded routes over a 0-dimensional base that kept its element fibres
  apart, where ``graded`` now runs dimension 0 through the same code as
  dimension 1;
* ``image_key``, ``compose_morphisms``, ``morphism_from_maps`` and
  ``from_projection``: each caller lays out the arity of a table key,
  reads its assignment back, maps it through the morphism and rebuilds
  the key itself, with the colours in a dimension-0 block of their own
  (``morphism_from_maps`` takes a colour map and a label rule, and
  ``from_projection`` pairs each address with its image through
  ``_pair_assignment``), where ``graded`` asks ``theory.image_key``;
* ``validate_category`` and ``validate_base``: each law checked by its
  own loops, where ``bases`` checks the laws of a category and of a
  skeleton through one helper (``validate_category`` here keeps its own
  wording, ``identity arrow`` and ``typing``, and walks associativity
  over composable triples only when nothing else failed);
* ``bord1_skeleton`` and ``cocorr_fin_skeleton``: each tabulates its own
  indecomposables, identities and composites, where ``bases`` hands a
  composite rule to one tabulator;
* ``cospan_clusters`` and ``loop_classes``: each with its own
  union-find, where ``bases`` shares one (``_classes``);
* ``enumerate_categories``: re-checks every composable triple of the
  partial composition table after each choice, where
  ``bases.enumerate_categories`` checks only the triples that read the
  new composite;
* ``field_theories``: the forward-checked search that checks every base
  composition instance, or one instance per gluing class
  (``gluing_key``, ``gluing_classes``), where ``bases.field_theories``
  checks one instance per atom (``BasePresentation.gluings``);
* ``mul_general`` and ``compose_general``: label sets and composites of
  a non-elemental arity, one elemental component at a time, which no
  library route reads, and ``mul``, the label set of one elemental
  arity, which only they read;
* ``enumerate_graded_presentations`` and
  ``enumerate_algebra_presentations`` (with ``_enumerate_algebras_1``):
  the candidate enumerators of the structure theorem with a ``dead``
  flag per size vector, and for the algebras a body of their own for
  acting dimension 1 and a dimension-2 layout walk by hand, where
  ``graded`` lists its fibre slots and shapes once (in dimension 2 from
  the site walk of a pair skeleton) and runs one candidate loop;
* ``enumerate_morphisms`` (with ``_Template`` and ``_morphism_of``): the
  morphism search that runs every check of a variable on each candidate
  image each time it reaches the variable, memoising only label sets and
  composition entries (through ``_Template``), and builds every dict of
  each found morphism afresh, where ``theory.enumerate_morphisms``
  memoises each variable's passing images on the earlier variables they
  depend on and shares unchanged dicts between consecutive morphisms;
  it walks every variable, where the library multiplies out the
  variables from its cut on, which ``search_cut`` finds by brute force.
"""

import functools
import json
from itertools import combinations_with_replacement, permutations, product
from math import prod

from general_arity import decompose_general

from htk.arity import Arity, arity_of_key, canonical_key, concrete, decompose, enumerate_arities, layout, resolve_leaf, slot_ctx
from htk.bases import (
    BasePresentation,
    _bord_chains,
    _chain_end,
    _comp_plan,
    _flow,
    _instance_places,
    _set_partitions,
    category_from_tables,
    detached_shape,
    tensor_morphisms,
    tensor_objects,
)
from htk.cli import FORMAT, FormatError
from htk.constructions import _fl_tau, _suspend
from htk.graded import AlgebraPresentation, GradedTheoryPresentation, _degree_monoid, _graded, _project_key
from htk.ordcomb import PLANAR, SYMMETRIC
from htk.theory import (
    DIM0_KEY,
    SKIP,
    TheoryMorphism,
    TheoryPresentation,
    ValidationReport,
    Violation,
    _arity_of_key,
    _coloured,
    _fill,
    _flatten,
    _reader,
    _VarIndex,
    build_theory,
    compose,
    key_assignment,
    map_assignment,
    site_inputs,
    site_slots,
)
from htk.theory import composition_sites as lib_composition_sites
from htk.theory import image_key as lib_image_key
from htk.theory import lower_key as lib_lower_key
from htk.theory import whole_key as lib_whole_key

# ---------------------------------------------------------------------------
# boundary keys


def atom_key(spec, val):
    """The boundary key of an atom, reading labels through ``val``."""
    cols = tuple(map(val, spec.colours))
    if spec.arity.k == 1:
        return (cols,)
    return (
        cols,
        tuple([tuple(map(val, g)) for g in spec.lower]),
        tuple(map(val, spec.chain)),
        val(spec.target),
    )


def whole_key(lay, val):
    """The boundary key of a whole arity from an assignment on its layout."""
    if lay.arity.k == 1:
        return (tuple(map(val, lay.colour_addrs)),)
    return lower_key(lay, val) + (tuple(map(val, lay.chain_addrs)), val(lay.target_addr))


def lower_key(lay, val):
    """The part of a composition arity's boundary below the top pair."""
    if lay.arity.k == 1:
        return ()
    return (tuple(map(val, lay.colour_addrs)), tuple([tuple(map(val, g)) for g in lay.lower_addrs]))


def project_key(gkey):
    """The base boundary key under a graded one (first projection)."""
    cols = tuple(e[0] for e in gkey[0])
    if len(gkey) == 1:
        return (cols,)
    return (
        cols,
        tuple(tuple(e[0] for e in g) for g in gkey[1]),
        tuple(e[0] for e in gkey[2]),
        gkey[3][0],
    )


def relabel_key(rp, gkey, d):
    """``relabel_graded``'s rewrite of a graded whole key of a
    dimension-d arity, or of a lower key (two parts), through
    ``rp(level, pair)``."""
    cols = tuple(rp(0, c) for c in gkey[0])
    if len(gkey) == 1:
        return (cols,)
    groups = tuple(tuple(rp(nu, e) for e in g) for nu, g in enumerate(gkey[1], start=1))
    if len(gkey) == 2:
        return (cols, groups)
    return (cols, groups, tuple(rp(d - 1, e) for e in gkey[2]), rp(d - 1, gkey[3]))


# ---------------------------------------------------------------------------
# layout walks


def boundary_assignments(T, lay, top_level=None):
    k = lay.arity.k
    if top_level is None:
        top_level = k - 1
    atoms = [at for nu in range(1, top_level + 1) for at in lay.atoms.get(nu, ())]

    def rec(i, asg):
        if i == len(atoms):
            yield dict(asg)
            return
        at = atoms[i]
        opts = T.label_set(at.address[1], canonical_key(at.spec.arity), atom_key(at.spec, asg.__getitem__))
        for lab in opts:
            asg[at.address] = lab
            yield from rec(i + 1, asg)
        asg.pop(at.address, None)

    for cols in product(T.label_set(0), repeat=lay.colour_count):
        yield from rec(0, {("c", i): c for i, c in enumerate(cols)})


def stratum_sites(T, d, pool):
    """A drop-in for ``theory.stratum_sites`` that builds every whole key
    afresh from its site's assignment."""
    for ar in pool:
        lay = layout(ar)
        ak = canonical_key(ar)
        for asg in boundary_assignments(T, lay):
            yield ar, lay, ak, asg, whole_key(lay, asg.__getitem__)


def composition_sites(T, pool):
    """``theory.composition_sites`` without ``within``, building every
    lower key afresh from its site's assignment."""
    for P in pool:
        lay = layout(P)
        for asg in boundary_assignments(T, lay, P.k - 2) if T.n else ({},):
            yield P, lay, canonical_key(P), asg, lower_key(lay, asg.__getitem__), site_slots(lay, asg.__getitem__)


# ---------------------------------------------------------------------------
# associativity


def _site_template(spec):
    """Precomputed address structure of a composition instance."""
    ak = canonical_key(spec.arity)
    if spec.arity.k == 1:
        return (ak, None, None, spec.colours[:-1], spec.colours[-1], spec.arity.top == 0)
    return (ak, spec.colours, spec.lower, spec.chain, spec.target, spec.arity.top == 0)


def _site_eval(tpl, state):
    """(table key, input labels, output address) from a template."""
    ak, cols, lows, chain, out_addr, _ = tpl
    get = state.__getitem__
    if cols is None:
        return (ak, ()), tuple(map(get, chain)), out_addr
    lk = (tuple(map(get, cols)), tuple([tuple(map(get, g)) for g in lows]))
    return (ak, lk), tuple(map(get, chain)), out_addr


def _free_assignments(T, lay, C):
    n = T.n
    if n == 0:
        toks = C.levels[0].entries[0]
        for vals in product(T.label_set(0), repeat=len(toks)):
            yield {lay.refs[t]: v for t, v in zip(toks, vals)}
        return
    free_atoms = [lay.atom(ad) for t in C.levels[n].entries[0] for ad in lay.refs[t].values()]

    def rec(i, asg):
        if i == len(free_atoms):
            yield dict(asg)
            return
        at = free_atoms[i]
        for lab in T.label_set(n, canonical_key(at.spec.arity), atom_key(at.spec, asg.__getitem__)):
            asg[at.address] = lab
            yield from rec(i + 1, asg)
        asg.pop(at.address, None)

    for asg in boundary_assignments(T, lay, top_level=n - 1):
        yield from rec(0, asg)


def check_associativity(T, bound, viol, warn):
    """A drop-in for ``theory._check_associativity``."""
    n = T.n
    skipped_units = False
    for A in enumerate_arities(n + 2, bound, T.variance):
        C = concrete(A)
        lay = layout(A)
        lv = C.levels[n]
        top_tok = lv.entries[-1][0]
        final = lay.refs[top_tok] if n == 0 else next(iter(lay.refs[top_tok].values()))
        stages = [
            [
                _site_template(resolve_leaf(leaf, lay.refs))
                for leaf in decompose(slot_ctx(C.levels, n + 1, j - 1, j))
            ]
            for j in range(1, len(lv.maps) + 1)
        ]
        rhs_tpl = _site_template(
            resolve_leaf(decompose(slot_ctx(C.levels, n + 1, 0, len(lv.maps)))[0], lay.refs)
        )
        ak = canonical_key(A)
        for init in _free_assignments(T, lay, C):
            state = dict(init)
            bad = False
            for specs in stages:
                for tpl in specs:
                    key, ins, out_addr = _site_eval(tpl, state)
                    out = T.composition.get(key, {}).get(ins)
                    if out is None:
                        if tpl[5] and key not in T.composition:
                            skipped_units = True
                        else:
                            viol.append(Violation("missing-composition", key[0], (key[1], ins), "entry", "absent"))
                        bad = True
                        break
                    state[out_addr] = out
                if bad:
                    break
            if bad:
                continue
            key, ins, out_addr = _site_eval(rhs_tpl, init)
            rhs = T.composition.get(key, {}).get(ins)
            if rhs is None:
                if rhs_tpl[5] and key not in T.composition:
                    skipped_units = True
                    continue
                viol.append(Violation("missing-composition", key[0], (key[1], ins), "entry", "absent"))
                continue
            if state[final] != rhs:
                wit = tuple(sorted(init.items(), key=repr))
                viol.append(Violation("associativity", ak, wit, rhs, state[final]))
    if skipped_units:
        warn.append("associativity instances needing undeclared units were skipped")


# ---------------------------------------------------------------------------
# constructions that read their input's tables


def deloop(V, base="*", bound=None):
    """A drop-in for ``constructions.deloop``."""
    if V.variance != SYMMETRIC:
        raise ValueError("delooping needs the symmetric variance")
    if bound is None:
        bound = V.arity_bound
    n2 = V.n + 1
    U = _coloured(n2, SYMMETRIC, V.colour_depth, bound, (base,))
    obs = tuple(V.label_set(0))
    for _, _, ak, _, key in stratum_sites(U, 1, enumerate_arities(1, bound, SYMMETRIC)):
        U.table(1)[(ak, key)] = obs
    for d in range(2, n2 + 1):
        table, vtab = U.table(d), V.table(d - 1)
        pool = enumerate_arities(d, bound, SYMMETRIC)
        flat = {canonical_key(A): _fl_tau(A) for A in pool}
        for _, _, ak, asg, key in stratum_sites(U, d, pool):
            akf, layf, tau = flat[ak]
            vkey = (akf, whole_key(layf, lambda ad: asg[tau[ad]]))
            if vkey not in vtab:
                raise KeyError(f"flattening exceeds the tabulated arities: {vkey}")
            table[(ak, key)] = vtab[vkey]
    pool = enumerate_arities(n2 + 1, bound, SYMMETRIC)
    flat = {canonical_key(A): _fl_tau(A) for A in pool}
    for A, _, ak, asg, lk, _ in composition_sites(U, pool):
        akf, layf, tau = flat[ak]
        vkey = (akf, lower_key(layf, lambda ad: asg[tau[ad]]))
        ventry = V.composition.get(vkey)
        if ventry is None:
            if A.top == 0:
                continue
            raise KeyError(f"flattening exceeds the tabulated arities: {vkey}")
        U.composition[(ak, lk)] = dict(ventry)
    return U


def detheorize_T(U, colours=None):
    """A drop-in for ``constructions.detheorize_T`` on complete inputs,
    reading U through a projecting closure made per site; it leaves out
    any composition table U lacks."""
    if not colours:
        return U
    if U.n < 1:
        raise ValueError("needs at least one colour stratum")
    base = U.label_set(0)
    for u in colours:
        if u not in base:
            raise ValueError(f"{u!r} is not a colour of the base")
    pairs = tuple((u, x) for u in base for x in colours.get(u, ()))
    T = _coloured(U.n, U.variance, U.colour_depth, U.arity_bound, pairs)

    def proj(asg):
        return lambda ad: asg[ad][0] if ad[0] == "c" else asg[ad]

    for d in range(1, U.n + 1):
        table, utab = T.table(d), U.table(d)
        for _, lay, ak, asg, key in stratum_sites(T, d, enumerate_arities(d, U.arity_bound, U.variance)):
            ukey = (ak, whole_key(lay, proj(asg)))
            if ukey not in utab:
                raise KeyError(f"base table misses projected boundary {ukey}")
            table[(ak, key)] = utab[ukey]
    for _, lay, ak, asg, lk, _ in composition_sites(T, enumerate_arities(U.n + 1, U.arity_bound, U.variance)):
        uentry = U.composition.get((ak, lower_key(lay, proj(asg))))
        if uentry is not None:
            T.composition[(ak, lk)] = dict(uentry)
    return T


def _suspend_assignment(layb, laysa, asg, x):
    """Transport an assignment through the level shift of a suspension:
    colour i becomes the i-th level-1 atom, and every atom moves up a
    level at the same position."""
    if len(laysa.atoms.get(1, ())) != layb.colour_count or any(
        len(laysa.atoms[nu + 1]) != len(ats) for nu, ats in layb.atoms.items()
    ):
        raise AssertionError("suspension atom count mismatch")
    out = {("c", i): x for i in range(laysa.colour_count)}
    out.update((("a", 1, ad[1]) if ad[0] == "c" else _shift_addr(ad), lab) for ad, lab in asg.items())
    return out


def _shift_addr(addr):
    return ("a", addr[1] + 1, addr[2])


def endo_planar(T, x):
    """A drop-in for ``constructions.endo_planar`` on complete inputs with
    a unit, rebuilding a shifted assignment dict at every site; it reads
    a missing label set as empty."""
    if T.n < 1:
        raise ValueError("needs dimension >= 1")
    if x not in T.label_set(0):
        raise ValueError("not a colour")
    n2 = T.n - 1
    V = _coloured(n2, PLANAR, n2, T.arity_bound, T.label_set(1, canonical_key(Arity(1, 1, ())), ((x, x),)))
    for d in range(1, n2 + 1):
        table = V.table(d)
        for b, layb, bk, asg, key in stratum_sites(V, d, enumerate_arities(d, T.arity_bound, PLANAR)):
            laysa = layout(_suspend(b))
            tasg = _suspend_assignment(layb, laysa, asg, x)
            table[(bk, key)] = T.label_set(d + 1, canonical_key(laysa.arity), whole_key(laysa, tasg.__getitem__))
    for P, layb, bk, asg, lk, slots in composition_sites(V, enumerate_arities(n2 + 1, T.arity_bound, PLANAR)):
        laysa = layout(_suspend(P))
        if P.k > 1 and tuple(_shift_addr(a) for a in layb.chain_addrs) != laysa.chain_addrs:
            raise AssertionError("suspension chain order mismatch")
        tasg = _suspend_assignment(layb, laysa, asg, x)
        tentry = T.composition[(canonical_key(laysa.arity), lower_key(laysa, tasg.__getitem__))]
        V.composition[(bk, lk)] = {inputs: tentry[inputs] for inputs in site_inputs(V, slots)}
    return V


# ---------------------------------------------------------------------------
# keys through a morphism, one caller at a time


def image_key(F, ak, key, lower):
    """A drop-in for ``theory.image_key``, told whether ``key`` is a lower
    key; dimension 0's ``""`` maps to ``()``."""
    if not ak:
        return ()
    lay = layout(_arity_of_key(ak, F.source.arity_bound))
    asg = map_assignment(F, lay, key_assignment(lay.spec, key))
    return (lib_lower_key if lower else lib_whole_key)(lay.spec, asg.__getitem__)


def compose_morphisms(G, F):
    """A drop-in for ``graded.compose_morphisms``."""
    if F.target != G.source:
        raise ValueError("morphisms do not compose")
    actions = {0: {DIM0_KEY: {c: G.act(0, "", (), img) for c, img in F.actions[0][DIM0_KEY].items()}}}
    for d in range(1, F.source.n + 1):
        actions[d] = {}
        for (ak, skey), mp in F.actions.get(d, {}).items():
            lay = layout(_arity_of_key(ak, F.source.arity_bound))
            asg = key_assignment(lay.spec, skey)
            mkey = lib_whole_key(lay.spec, map_assignment(F, lay, asg).__getitem__)
            actions[d][(ak, skey)] = {a: G.act(d, ak, mkey, b) for a, b in mp.items()}
    return TheoryMorphism(F.source, G.target, actions)


def morphism_from_maps(S, T, colour_map, label_map=None):
    """A drop-in for ``graded.morphism_from_maps`` as it was: a colour map,
    and a rule for the labels of dimension 1 and up."""
    actions = {0: {DIM0_KEY: {c: colour_map(c) for c in S.label_set(0)}}}
    F = TheoryMorphism(S, T, actions)
    for d in range(1, S.n + 1):
        actions[d] = {}
        for (ak, skey), labs in S.table(d).items():
            lay = layout(_arity_of_key(ak, S.arity_bound))
            asg = key_assignment(lay.spec, skey)
            tkey = lib_whole_key(lay.spec, map_assignment(F, lay, asg).__getitem__)
            actions[d][(ak, skey)] = {lab: label_map(d, ak, skey, tkey, lab) for lab in labs}
    return F


def _pair_assignment(p, lay, asg):
    """Annotate every assigned address with its image under p."""
    return {ad: (img, asg[ad]) for ad, img in map_assignment(p, lay, asg).items()}


def from_projection(Y, p):
    """A drop-in for ``graded.from_projection``."""
    base = p.target
    n = Y.n
    zero = {u: tuple(c for c in Y.label_set(0) if p.act(0, "", (), c) == u) for u in base.label_set(0)}
    tables = {0: {DIM0_KEY: zero}}
    for d in range(1, n + 1):
        tables[d] = table = {}
        for (ak, skey), labs in Y.table(d).items():
            lay = layout(_arity_of_key(ak, Y.arity_bound))
            pasg = _pair_assignment(p, lay, key_assignment(lay.spec, skey))
            gkey = lib_whole_key(lay.spec, pasg.__getitem__)
            bkey = lib_whole_key(lay.spec, lambda ad: pasg[ad][0])
            table[(ak, gkey)] = {
                v: tuple(y for y in labs if p.act(d, ak, skey, y) == v) for v in base.label_set(d, ak, bkey)
            }
    comp = {}
    for (ak, lk), entry in Y.composition.items():
        lay = layout(_arity_of_key(ak, Y.arity_bound))
        asg = key_assignment(lay.spec, lk)
        glk = lib_lower_key(lay.spec, _pair_assignment(p, lay, asg).__getitem__)
        keys = site_slots(lay, asg.__getitem__)()
        comp[(ak, glk)] = {
            tuple((p.act(*key, y), y) for key, y in zip(keys, ins)): (p.act(*keys[-1], out), out)
            for ins, out in entry.items()
        }
    return _graded(base, tables, comp)


# ---------------------------------------------------------------------------
# gradings over a 0-dimensional base


def to_projection_0(X):
    """A drop-in for ``graded.to_projection`` over a 0-dimensional base."""
    base = X.base
    fib = X.top_mul[DIM0_KEY]
    elems = tuple((a, x) for a in base.label_set(0) for x in fib.get(a, ()))
    comp = {k: dict(v) for k, v in X.composition.items()}
    Y = TheoryPresentation(0, base.variance, 0, base.arity_bound, {}, {DIM0_KEY: elems}, comp)
    return Y, TheoryMorphism(Y, base, {0: {DIM0_KEY: {e: e[0] for e in elems}}})


def from_projection_0(Y, p):
    """A drop-in for ``graded.from_projection`` over a 0-dimensional base."""
    base = p.target
    f0 = p.actions[0][DIM0_KEY]
    fib = {a: tuple(e for e in Y.top_mul[DIM0_KEY] if f0[e] == a) for a in base.label_set(0)}
    comp = {}
    for (ak, _), entry in Y.composition.items():
        comp[(ak, ())] = {tuple((f0[x], x) for x in ins): (f0[out], out) for ins, out in entry.items()}
    return GradedTheoryPresentation(base, {}, {}, {DIM0_KEY: fib}, comp)


def graded_from_pairs_0(base, Y):
    """A drop-in for ``graded._graded_from_pairs`` over a 0-dimensional base."""
    fib = {a: tuple(x for a2, x in Y.top_mul[DIM0_KEY] if a2 == a) for a in base.label_set(0)}
    return GradedTheoryPresentation(base, {}, {}, {DIM0_KEY: fib}, {k: dict(v) for k, v in Y.composition.items()})


def relabel_graded_0(X, obj_map, lab_map):
    """A drop-in for ``graded.relabel_graded`` over a 0-dimensional base:
    the elements are renamed by ``lab_map(0, ...)``; ``obj_map`` is unused."""
    top = {DIM0_KEY: {a: tuple(lab_map(0, a, x) for x in labs) for a, labs in X.top_mul[DIM0_KEY].items()}}
    comp = {}
    for key, entry in X.composition.items():
        comp[key] = {
            tuple((a, lab_map(0, a, x)) for a, x in ins): (out[0], lab_map(0, out[0], out[1]))
            for ins, out in entry.items()
        }
    return GradedTheoryPresentation(X.base, {}, {}, top, comp)


def pullback_0(F, X, bound=None):
    """A drop-in for ``graded.pullback`` along a morphism of 0-dimensional
    bases: the pair theory saturated directly, each composite read off X
    at the images of its inputs."""
    base2 = F.source
    bound = base2.arity_bound if bound is None else bound
    f0 = F.actions[0][DIM0_KEY]
    pairs = tuple((a, x) for a in base2.label_set(0) for x in X.top_mul[DIM0_KEY].get(f0[a], ()))

    def crule(P, lay, asg, inputs):
        ak = canonical_key(P)
        bentry = base2.composition.get((ak, ()))
        entry = X.composition.get((ak, ()))
        if bentry is None or entry is None:
            return SKIP
        out = entry.get(tuple((f0[a], x) for a, x in inputs))
        return SKIP if out is None else (bentry[tuple(a for a, _ in inputs)], out[1])

    Y = build_theory(0, base2.variance, bound, pairs, None, crule)
    return graded_from_pairs_0(base2, Y)


def enumerate_graded_0(U, cap, bound=None):
    """A drop-in for ``graded.enumerate_graded_presentations`` over a
    0-dimensional base: element fibres up to ``cap`` with composites
    forced in degree and free in the fibre."""
    bound = U.arity_bound if bound is None else bound
    elems = U.label_set(0)
    shapes = [
        (canonical_key(P), P.top, U.composition.get((canonical_key(P), ())))
        for P in enumerate_arities(1, bound, U.variance)
    ]
    for sizes in product(range(cap + 1), repeat=len(elems)):
        fib = {a: tuple(f"m{i}" for i in range(s)) for a, s in zip(elems, sizes)}
        pairs = tuple((a, x) for a in elems for x in fib[a])
        entry_slots, comp_keys, dead = [], [], False
        for ak, top, bentry in shapes:
            if bentry is None:
                continue
            comp_keys.append((ak, ()))
            for ins in product(pairs, repeat=top):
                vout = bentry[tuple(e[0] for e in ins)]
                if not fib[vout]:
                    dead = True
                    break
                entry_slots.append(((ak, ()), ins, vout, fib[vout]))
            if dead:
                break
        if dead:
            continue
        for choice in product(*[tf for *_, tf in entry_slots]):
            comp = {key: {} for key in comp_keys}
            for (key, ins, vout, _), y in zip(entry_slots, choice):
                comp[key][ins] = (vout, y)
            yield GradedTheoryPresentation(U, {}, {}, {DIM0_KEY: fib}, comp)


# ---------------------------------------------------------------------------
# candidate enumerators of the structure theorem


def enumerate_graded_presentations(U, objects, cap, bound=None):
    """``graded.enumerate_graded_presentations`` with a ``dead`` flag that
    skips a size vector as soon as a forced composite has an empty target
    fibre."""
    n = U.n
    bound = U.arity_bound if bound is None else bound
    S = _coloured(n, U.variance, n, bound, ((u, x) for u in U.label_set(0) for x in objects.get(u, ())))
    sites = [DIM0_KEY]
    if n:
        sites = [(ak, key) for *_, ak, _, key in stratum_sites(S, 1, enumerate_arities(1, bound, U.variance))]
    slots = [(key, v) for key in sites for v in U.label_set(n, key[0], _project_key(key[1], n))]
    shapes = []
    for _, _, ak, _, lk, site in composition_sites(S, enumerate_arities(n + 1, bound, U.variance)):
        bentry = U.composition.get((ak, _project_key(lk, n + 1)))
        if bentry is not None:
            keys = site()
            shapes.append(((ak, lk), keys[:-1], keys[-1], bentry))
    for sizes in product(range(cap + 1), repeat=len(slots)):
        fibres = {key: {} for key in sites}
        for (key, v), s in zip(slots, sizes):
            fibres[key][v] = tuple(f"m{i}" for i in range(s))
        entry_slots, comp_keys, dead = [], [], False
        for key, chain, (_, tak, tgk), bentry in shapes:
            comp_keys.append(key)
            csets = [
                [(v, y) for v, ys in fibres.get((cak, cgk), {}).items() for y in ys]
                for _, cak, cgk in chain
            ]
            for ins in product(*csets):
                vout = bentry[tuple(e[0] for e in ins)]
                tfib = fibres.get((tak, tgk), {}).get(vout, ())
                if not tfib:
                    dead = True
                    break
                entry_slots.append((key, ins, vout, tfib))
            if dead:
                break
        if dead:
            continue
        for choice in product(*[tfib for *_, tfib in entry_slots]):
            comp = {key: {} for key in comp_keys}
            for (key, ins, vout, _), y in zip(entry_slots, choice):
                comp[key][ins] = (vout, y)
            tables = {n: dict(fibres)}
            tables.setdefault(0, {DIM0_KEY: dict(objects)})
            yield _graded(U, tables, comp)


def _enumerate_algebras_1(W, cap, bound):
    """Algebra candidates over a one-dimensional acting presentation:
    fibres over its colours plus one total map per forced boundary."""
    bound = W.arity_bound if bound is None else bound
    cols = W.label_set(0)
    B = _degree_monoid(W, bound)
    shapes = [
        (canonical_key(P), P.top, B.composition.get((canonical_key(P), ())))
        for P in enumerate_arities(1, bound, W.variance)
    ]
    for sizes in product(range(cap + 1), repeat=len(cols)):
        fibres = {u: tuple(f"m{i}" for i in range(s)) for u, s in zip(cols, sizes)}
        keys, options, dead = [], [], False
        for ak, top, bentry in shapes:
            if bentry is None:
                continue
            for us in product(cols, repeat=top):
                u_out = bentry.get(us)
                if u_out is None:
                    continue
                dom = list(product(*[fibres[u] for u in us]))
                cod = fibres[u_out]
                if dom and not cod:
                    dead = True
                    break
                keys.append((ak, us + (u_out,)))
                options.append(
                    [dict(zip(dom, outs)) for outs in product(cod, repeat=len(dom))]
                    if dom
                    else [{}]
                )
            if dead:
                break
        if dead:
            continue
        for combo in product(*options):
            yield AlgebraPresentation(W, {}, fibres, dict(zip(keys, combo)))


def enumerate_algebra_presentations(W, objects, cap, bound=None):
    """``graded.enumerate_algebra_presentations`` with a body of its own
    for acting dimension 1 (``_enumerate_algebras_1``), a dimension-2
    layout walk by hand through ``layout``, ``product`` and ``whole_key``,
    and a ``dead`` flag per size vector."""
    if W.n == 1:
        yield from _enumerate_algebras_1(W, cap, bound)
        return
    bound = W.arity_bound if bound is None else bound
    cols = tuple((u, x) for u in W.label_set(0) for x in objects.get(u, ()))
    fslots = []
    for a in enumerate_arities(1, bound, W.variance):
        ak = canonical_key(a)
        for pc in product(cols, repeat=a.top + 1):
            bcols = tuple(c[0] for c in pc)
            for lam in W.label_set(1, ak, (bcols,)):
                fslots.append((ak, pc, lam))
    shapes = []
    for a in enumerate_arities(2, bound, W.variance):
        lay = layout(a)
        ak2 = canonical_key(a)
        for pcols in product(cols, repeat=lay.colour_count):
            pasg = {("c", i): c for i, c in enumerate(pcols)}
            atoms = [lay.atom(ad) for ad in lay.chain_addrs] + [lay.atom(lay.target_addr)]
            infos = []
            for at in atoms:
                cak = canonical_key(at.spec.arity)
                pck = tuple(pasg[a2] for a2 in at.spec.colours)
                infos.append((at.address, cak, pck, W.label_set(1, cak, (tuple(e[0] for e in pck),))))
            for lams in product(*[info[3] for info in infos]):
                wasg = {("c", i): pcols[i][0] for i in range(lay.colour_count)}
                for (addr, _, _, _), lam in zip(infos, lams):
                    wasg[addr] = lam
                wkey = lib_whole_key(lay.spec, wasg.__getitem__)
                chainslots = [
                    (cak, pck, lam) for (_, cak, pck, _), lam in zip(infos[:-1], lams[:-1])
                ]
                tslot = (infos[-1][1], infos[-1][2], lams[-1])
                for mu in W.label_set(2, ak2, wkey):
                    shapes.append(((ak2, pcols, lams[:-1], lams[-1], mu), chainslots, tslot))
    for sizes in product(range(cap + 1), repeat=len(fslots)):
        fibres = {slot: tuple(f"m{i}" for i in range(s)) for slot, s in zip(fslots, sizes)}
        keys, options, dead = [], [], False
        for key, chainslots, tslot in shapes:
            dom = list(product(*[fibres.get(cs, ()) for cs in chainslots]))
            cod = fibres.get(tslot, ())
            if dom and not cod:
                dead = True
                break
            funcs = (
                [dict(zip(dom, outs)) for outs in product(cod, repeat=len(dom))]
                if dom
                else [{}]
            )
            keys.append(key)
            options.append(funcs)
        if dead:
            continue
        for combo in product(*options):
            yield AlgebraPresentation(W, dict(objects), fibres, dict(zip(keys, combo)))


# ---------------------------------------------------------------------------
# canonical files


def _skey(x):
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


def _table(d):
    return [[k, v] for k, v in sorted(d.items(), key=lambda kv: _skey(kv[0]))]


def _nested(d):
    return [[k, _table(v)] for k, v in sorted(d.items(), key=lambda kv: _skey(kv[0]))]


def theory_to_obj(T):
    return {
        "format": FORMAT,
        "kind": "theory",
        "dimension": T.n,
        "variance": T.variance,
        "colour_depth": T.colour_depth,
        "arity_bound": T.arity_bound,
        "strata": [[d, _table(T.strata[d])] for d in sorted(T.strata)],
        "top_mul": _table(T.top_mul),
        "composition": _nested(T.composition),
    }


def graded_to_obj(X):
    return {
        "format": FORMAT,
        "kind": "graded",
        "base": theory_to_obj(X.base),
        "objects": _table(X.objects),
        "strata": [[d, _nested(X.strata[d])] for d in sorted(X.strata)],
        "top_mul": _nested(X.top_mul),
        "composition": _nested(X.composition),
    }


def serialize(P):
    if isinstance(P, GradedTheoryPresentation):
        obj = graded_to_obj(P)
    else:
        obj = theory_to_obj(P)
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def dec(x):
    """A drop-in for ``cli._dec``."""
    if isinstance(x, list):
        return tuple(dec(e) for e in x)
    if isinstance(x, (str, int)) or x is None:
        return x
    raise FormatError(f"unsupported value {x!r}")


def _entries(entries):
    if type(entries) is not list:
        raise FormatError(f"a table must be a list of [key, value] entries, got {type(entries).__name__}")
    for e in entries:
        if type(e) is not list or len(e) != 2:
            raise FormatError(f"a table entry must be a [key, value] pair, got {e!r}")
    return entries


def _untable(entries):
    return {dec(k): dec(v) for k, v in _entries(entries)}


def _unnested(entries):
    return {dec(k): _untable(v) for k, v in _entries(entries)}


def _boundary_shaped(bkey, a, bound, lower, pairs):
    """Whether ``bkey`` is shaped as a whole (or, if ``lower``, lower)
    boundary key of the arity ``a``; the colours are counted off its
    concrete bottom level, and only for an arity within ``bound``."""
    if a.k == 1 and lower:
        return bkey == ()
    want = 1 if a.k == 1 else 2 if lower else 4
    if not isinstance(bkey, tuple) or len(bkey) != want or not isinstance(bkey[0], tuple):
        return False
    if a.top <= bound and all(s <= bound for lv in a.levels for s in lv.sizes):
        count = a.top + 1 if a.k == 1 else sum(len(e) for e in concrete(a).levels[0].entries)
        if len(bkey[0]) != count:
            return False
    labels = list(bkey[0])
    if want > 1:
        if not isinstance(bkey[1], tuple) or not all(isinstance(g, tuple) for g in bkey[1]):
            return False
        labels += [x for g in bkey[1] for x in g]
    if want > 2:
        if not isinstance(bkey[2], tuple):
            return False
        labels += list(bkey[2]) + [bkey[3]]
    return not pairs or all(isinstance(x, tuple) and len(x) == 2 for x in labels)


def _keyed(table, d, bound, lower=False, pairs=False):
    for key in table:
        if d == 0:
            ok = key == ("", ())
        else:
            try:
                ok = (
                    isinstance(key, tuple)
                    and len(key) == 2
                    and arity_of_key(key[0]).k == d
                    and _boundary_shaped(key[1], arity_of_key(key[0]), bound, lower, pairs)
                )
            except ValueError:
                ok = False
        if not ok:
            raise FormatError(f"a dimension-{d} table holds the key {key!r}")
    return table


def _lists(table):
    for key, value in table.items():
        if not isinstance(value, tuple):
            raise FormatError(f"the entry at {key!r} must be a list, got {value!r}")
    return table


def _strata_entries(entries, dims):
    got = [d for d, _ in _entries(entries)]
    if any(type(d) is not int for d in got) or sorted(got) != list(dims):
        raise FormatError(f"strata must hold each dimension of {list(dims)} once, got {got!r}")
    return entries


def _obj_to_theory(obj):
    for name in ("dimension", "colour_depth", "arity_bound"):
        if type(obj[name]) is not int or obj[name] < 0:
            raise FormatError(f"{name} must be a non-negative integer, got {obj[name]!r}")
    if obj["colour_depth"] > obj["dimension"]:
        raise FormatError(f"colour_depth must be at most the dimension {obj['dimension']}, got {obj['colour_depth']}")
    if obj["variance"] not in (SYMMETRIC, PLANAR):
        raise FormatError(f"variance must be {SYMMETRIC!r} or {PLANAR!r}, got {obj['variance']!r}")
    _strata_entries(obj["strata"], range(obj["dimension"]))
    bound = obj["arity_bound"]
    return TheoryPresentation(
        obj["dimension"],
        obj["variance"],
        obj["colour_depth"],
        bound,
        {d: _keyed(_lists(_untable(entries)), d, bound) for d, entries in obj["strata"]},
        _keyed(_lists(_untable(obj["top_mul"])), obj["dimension"], bound),
        _keyed(_unnested(obj["composition"]), obj["dimension"] + 1, bound, lower=True),
    )


def _obj_to_graded(obj):
    base = _obj_to_theory(obj["base"])
    objects = _lists(_untable(obj["objects"]))
    if base.n == 0 and objects:
        raise FormatError("a graded file over a 0-dimensional base must have empty objects")

    def fibred(entries):
        return {k: _lists(v) for k, v in _unnested(entries).items()}

    return GradedTheoryPresentation(
        base,
        objects,
        {
            d: _keyed(fibred(entries), d, base.arity_bound, pairs=True)
            for d, entries in _strata_entries(obj["strata"], range(1, base.n))
        },
        _keyed(fibred(obj["top_mul"]), base.n, base.arity_bound, pairs=True),
        _keyed(_unnested(obj["composition"]), base.n + 1, base.arity_bound, lower=True, pairs=True),
    )


def parse(text):
    """A drop-in for ``cli.parse``."""
    try:
        obj = json.loads(text)
    except ValueError as e:
        raise FormatError(f"not valid JSON: {e}") from None
    if not isinstance(obj, dict) or obj.get("format") != FORMAT:
        raise FormatError(f"missing format tag {FORMAT!r}")
    try:
        if obj.get("kind") == "graded":
            return _obj_to_graded(obj)
        if obj.get("kind") == "theory":
            return _obj_to_theory(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed presentation: {e}") from None
    raise FormatError(f"unknown kind {obj.get('kind')!r}")


# ---------------------------------------------------------------------------
# finite categories and base skeletons


def validate_category(C):
    """A drop-in for ``bases.validate_category``: its own walks, the
    associativity walk over every composable triple of arrows, run only
    when nothing else failed."""
    v = []
    for x in C.objects:
        i = C.identity.get(x)
        if i is None or i not in C.hom.get((x, x), ()):
            v.append(Violation("identity", (x, x), x, "identity arrow", i))
    arrows = [(x, y, f) for (x, y), fs in C.hom.items() for f in fs]
    for x, y, f in arrows:
        for z in C.objects:
            for g in C.hom.get((y, z), ()):
                if ((x, y, z), (f, g)) not in C.compose:
                    v.append(Violation("closure", (x, y, z), (f, g), "composite", None))
                elif C.compose[((x, y, z), (f, g))] not in C.hom.get((x, z), ()):
                    v.append(Violation("typing", (x, y, z), (f, g), "arrow in hom", C.compose[((x, y, z), (f, g))]))
    for x, y, f in arrows:
        ix, iy = C.identity.get(x), C.identity.get(y)
        if ix is not None and C.compose.get(((x, x, y), (ix, f))) != f:
            v.append(Violation("unit", (x, y), f, f, C.compose.get(((x, x, y), (ix, f)))))
        if iy is not None and C.compose.get(((x, y, y), (f, iy))) != f:
            v.append(Violation("unit", (x, y), f, f, C.compose.get(((x, y, y), (f, iy)))))
    if not v:
        for x, y, f in arrows:
            for z in C.objects:
                for g in C.hom.get((y, z), ()):
                    for w in C.objects:
                        for h in C.hom.get((z, w), ()):
                            lhs = C.compose[((x, z, w), (C.compose[((x, y, z), (f, g))], h))]
                            rhs = C.compose[((x, y, w), (f, C.compose[((y, z, w), (g, h))]))]
                            if lhs != rhs:
                                v.append(Violation("associativity", (x, y, z, w), (f, g, h), lhs, rhs))
    return ValidationReport(tuple(v), ())


def validate_base(B, assoc_cap=200_000):
    """A drop-in for ``bases.validate_base`` with every law checked inline."""
    v = []
    genset = set(B.ind_objects)
    objset = set(B.objects)
    for obj in B.objects:
        if tuple(sorted(obj)) != obj or not set(obj) <= genset:
            v.append(Violation("object-form", obj, obj, "sorted generator word", obj))
    maxlen = max((len(o) for o in B.objects), default=0)
    for o1 in B.objects:
        for o2 in B.objects:
            if len(o1) + len(o2) <= maxlen and tensor_objects(o1, o2)[0] not in objset:
                v.append(Violation("object-closure", (o1, o2), tensor_objects(o1, o2)[0], "object", None))

    for (s, t), ms in B.morphisms.items():
        if len(set(ms)) != len(ms):
            v.append(Violation("unique-decomposition", (s, t), ms, "distinct morphisms", None))
        for m in ms:
            if tuple(sorted(m)) != m:
                v.append(Violation("canonical-form", (s, t), m, tuple(sorted(m)), m))
            used_s, used_t = [], []
            for comp in m:
                shape = detached_shape(s, t, comp)
                if B.ind_morphisms.get(shape) is None:
                    v.append(Violation("component-shape", (s, t), comp, "indecomposable", shape))
                used_s.extend(comp[1])
                used_t.extend(comp[2])
            if sorted(used_s) != list(range(len(s))) or sorted(used_t) != list(range(len(t))):
                v.append(Violation("slot-partition", (s, t), m, "each slot once", (used_s, used_t)))

    for obj in B.objects:
        i = B.identity.get(obj)
        if i is None or i not in B.morphisms.get((obj, obj), ()):
            v.append(Violation("identity", (obj, obj), obj, "identity morphism", i))

    for ((a, b, c), (f, g)), h in B.compose.items():
        if (
            f not in B.morphisms.get((a, b), ())
            or g not in B.morphisms.get((b, c), ())
            or h not in B.morphisms.get((a, c), ())
        ):
            v.append(Violation("composition-typing", (a, b, c), (f, g), "tabulated morphisms", h))

    for (a, b), ms in B.morphisms.items():
        ia, ib = B.identity.get(a), B.identity.get(b)
        for f in ms:
            if ia is not None and B.compose.get(((a, a, b), (ia, f))) != f:
                v.append(Violation("unit", (a, b), f, f, B.compose.get(((a, a, b), (ia, f)))))
            if ib is not None and B.compose.get(((a, b, b), (f, ib))) != f:
                v.append(Violation("unit", (a, b), f, f, B.compose.get(((a, b, b), (f, ib)))))

    checked = 0
    for ((a, b, c), (f, g)), fg in B.compose.items():
        if checked > assoc_cap:
            break
        for d in B.objects:
            for k in B.morphisms.get((c, d), ()):
                gk = B.compose.get(((b, c, d), (g, k)))
                l = B.compose.get(((a, c, d), (fg, k)))
                if gk is None:
                    continue
                r = B.compose.get(((a, b, d), (f, gk)))
                checked += 1
                if l is not None and r is not None and l != r:
                    v.append(Violation("associativity", (a, b, c, d), (f, g, k), l, r))

    for (s1, t1), ms1 in B.morphisms.items():
        for (s2, t2), ms2 in B.morphisms.items():
            if len(s1) + len(s2) > maxlen or len(t1) + len(t2) > maxlen:
                continue
            for f1 in ms1[:2]:
                for f2 in ms2[:2]:
                    src, tgt, fm = tensor_morphisms(s1, t1, f1, s2, t2, f2)
                    pool = B.morphisms.get((src, tgt), ())
                    cap = max((len(m) for m in pool), default=0)
                    if fm not in pool and len(fm) <= cap:
                        v.append(Violation("tensor-closure", (src, tgt), (f1, f2), "morphism", fm))
    return ValidationReport(tuple(v), ())


def bord1_skeleton(max_points=2, max_circles=1):
    """A drop-in for ``bases.bord1_skeleton`` that tabulates its own
    indecomposables, identities and composites."""
    syms = ("d", "u")
    objects = tuple(obj for n in range(max_points + 1) for obj in combinations_with_replacement(syms, n))
    circ = ("o", (), ())

    morphisms = {}
    for src in objects:
        for tgt in objects:
            ins = [("s", i) for i, s in enumerate(src) if _flow("s", s) == "in"]
            ins += [("t", j) for j, s in enumerate(tgt) if _flow("t", s) == "in"]
            outs = [("s", i) for i, s in enumerate(src) if _flow("s", s) == "out"]
            outs += [("t", j) for j, s in enumerate(tgt) if _flow("t", s) == "out"]
            found = set()
            if len(ins) == len(outs):
                for perm in permutations(outs):
                    comps = []
                    for (side1, i1), (side2, i2) in zip(ins, perm):
                        ss = tuple(sorted(i for s, i in ((side1, i1), (side2, i2)) if s == "s"))
                        ts = tuple(sorted(i for s, i in ((side1, i1), (side2, i2)) if s == "t"))
                        comps.append(("i", ss, ts))
                    for n in range(max_circles + 1):
                        found.add(tuple(sorted(comps + [circ] * n)))
            morphisms[(src, tgt)] = tuple(sorted(found))

    ind = {}
    for (s, t), ms in morphisms.items():
        for m in ms:
            if len(m) == 1:
                ind[detached_shape(s, t, m[0])] = (s, t)

    identity = {obj: tuple(sorted(("i", (i,), (i,)) for i in range(len(obj)))) for obj in objects}

    compose = {}
    for A in objects:
        for B in objects:
            for C in objects:
                for fm in morphisms[(A, B)]:
                    for gm in morphisms[(B, C)]:
                        chains, loops = _bord_chains(A, B, C, fm, gm)
                        circles = len(loops)
                        circles += sum(1 for x in fm if x[0] == "o")
                        circles += sum(1 for x in gm if x[0] == "o")
                        if circles > max_circles:
                            continue
                        h = tuple(sorted([_chain_end(path) for path in chains] + [circ] * circles))
                        compose[((A, B, C), (fm, gm))] = h
    return BasePresentation(syms, objects, morphisms, ind, identity, compose)


def cospan_clusters(f, g):
    """A drop-in for ``bases._cospan_clusters`` with its own union-find."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for i in range(len(f)):
        parent[("f", i)] = ("f", i)
    for j in range(len(g)):
        parent[("g", j)] = ("g", j)
    g_by_mid = {}
    for j, comp in enumerate(g):
        for m in comp[1]:
            g_by_mid[m] = j
    for i, comp in enumerate(f):
        for m in comp[2]:
            union(("f", i), ("g", g_by_mid[m]))

    clusters = {}
    for node in parent:
        clusters.setdefault(find(node), []).append(node)
    out = []
    for members in clusters.values():
        fi = tuple(sorted(i for side, i in members if side == "f"))
        gi = tuple(sorted(j for side, j in members if side == "g"))
        ss = tuple(sorted(s for i in fi for s in f[i][1]))
        ts = tuple(sorted(t for j in gi for t in g[j][2]))
        out.append((fi, gi, ("c", ss, ts)))
    out.sort(key=lambda t: t[2])
    return out


def cocorr_fin_skeleton(bound=2):
    """A drop-in for ``bases.cocorr_fin_skeleton`` that tabulates its own
    indecomposables, identities and composites."""
    objects = tuple(("pt",) * k for k in range(bound + 1))

    morphisms = {}
    for src in objects:
        for tgt in objects:
            items = [("s", i) for i in range(len(src))] + [("t", j) for j in range(len(tgt))]
            found = set()
            for part in _set_partitions(items):
                if len(part) > bound:
                    continue
                comps = []
                for block in part:
                    ss = tuple(sorted(i for side, i in block if side == "s"))
                    ts = tuple(sorted(j for side, j in block if side == "t"))
                    comps.append(("c", ss, ts))
                for e in range(bound - len(part) + 1):
                    found.add(tuple(sorted(comps + [("c", (), ())] * e)))
            morphisms[(src, tgt)] = tuple(sorted(found))

    ind = {}
    for (s, t), ms in morphisms.items():
        for m in ms:
            if len(m) == 1:
                ind[detached_shape(s, t, m[0])] = (s, t)

    identity = {obj: tuple(sorted(("c", (i,), (i,)) for i in range(len(obj)))) for obj in objects}

    compose = {}
    for A in objects:
        for B in objects:
            for C in objects:
                for fm in morphisms[(A, B)]:
                    for gm in morphisms[(B, C)]:
                        clusters = cospan_clusters(fm, gm)
                        if len(clusters) > bound:
                            continue
                        h = tuple(sorted(comp for _, _, comp in clusters))
                        compose[((A, B, C), (fm, gm))] = h
    return BasePresentation(("pt",), objects, morphisms, ind, identity, compose)


def loop_classes(C):
    """A drop-in for ``bases._loop_classes`` with its own union-find."""
    items = [(x, e) for x in C.objects for e in C.hom.get((x, x), ())]
    parent = {i: i for i in items}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x in C.objects:
        for y in C.objects:
            for f in C.hom.get((x, y), ()):
                for g in C.hom.get((y, x), ()):
                    gf = C.compose[((x, y, x), (f, g))]
                    fg = C.compose[((y, x, y), (g, f))]
                    a, b = find((x, gf)), find((y, fg))
                    if a != b:
                        parent[a] = b
    reps = {}
    for i in items:
        root = find(i)
        reps.setdefault(root, []).append(i)
    cls = {}
    for root, members in reps.items():
        rep = min(members, key=repr)
        for m in members:
            cls[m] = rep
    return cls


def enumerate_categories(max_obj, max_arrows):
    """``bases.enumerate_categories`` checking every composable triple of
    the partial table for associativity again after each choice."""
    for k in range(1, max_obj + 1):
        obs = tuple(f"x{i}" for i in range(k))
        slots = [(a, b) for a in obs for b in obs]
        base = k  # identities

        def profiles(i, left):
            if i == len(slots):
                yield ()
                return
            a, b = slots[i]
            lo = 1 if a == b else 0
            for n in range(lo, min(max_arrows, lo + left) + 1):
                for rest in profiles(i + 1, left - (n - lo)):
                    yield (n,) + rest

        for prof in profiles(0, max_arrows - base):
            hom = {}
            for (a, b), n in zip(slots, prof):
                hom[(a, b)] = tuple(("a", a, b, m) for m in range(n))
            ident = {a: ("a", a, a, 0) for a in obs}
            arrows = [(x, y, f) for (x, y), fs in hom.items() for f in fs]
            comp = {}
            free = []
            for x, y, f in arrows:
                for z in obs:
                    for g in hom[(y, z)]:
                        if f == ident[x]:
                            comp[((x, y, z), (f, g))] = g
                        elif g == ident[z]:
                            comp[((x, y, z), (f, g))] = f
                        else:
                            free.append(((x, y, z), (f, g)))

            def assoc_ok(comp):
                for x, y, f in arrows:
                    for z in obs:
                        for g in hom[(y, z)]:
                            fg = comp.get(((x, y, z), (f, g)))
                            if fg is None:
                                continue
                            for w in obs:
                                for h in hom[(z, w)]:
                                    gh = comp.get(((y, z, w), (g, h)))
                                    l = comp.get(((x, z, w), (fg, h)))
                                    if gh is None:
                                        continue
                                    r = comp.get(((x, y, w), (f, gh)))
                                    if l is not None and r is not None and l != r:
                                        return False
                return True

            def fill(i):
                if i == len(free):
                    yield category_from_tables(obs, hom, ident, comp)
                    return
                (x, y, z), (f, g) = free[i]
                for h in hom[(x, z)]:
                    comp[((x, y, z), (f, g))] = h
                    if assoc_ok(comp):
                        yield from fill(i + 1)
                    del comp[((x, y, z), (f, g))]

            yield from fill(0)


# ---------------------------------------------------------------------------
# field theories, every instance or one per gluing class checked


_places = functools.lru_cache(maxsize=None)(_instance_places)


def gluing_key(inst, h, places):
    """The gluing class of an instance: for each chain of ``_comp_plan``
    the generator at its start port, each step's (label shape index,
    generator at its port) and the shape index at its place in ``h``;
    the same for each loop without the place; the shape indices of the
    circles and rings; and ``len(h)``.  Without a plan, or with a
    component neither interval nor circle, ``inst`` is a class of its own."""
    objs, (f, g) = inst
    plan = None if any(m[0] not in ("i", "o") for m in f + g + h) else _comp_plan(inst, h)
    if plan is None:
        return inst
    chains, loops, circles, rings = plan
    _, nf, ng, nh = places
    read = nf + ng

    def path(start, steps):
        return (objs[start[0]][start[1]],) + tuple((read[i], objs[side][slot]) for i, side, slot in steps)

    return (
        tuple((path(start, steps), nh[at]) for start, steps, at in chains),
        tuple(path(start, steps) for start, steps in loops),
        tuple(read[i] for i in circles),
        tuple(nh[k] for k in rings),
        len(h),
    )


def gluing_classes(B):
    """The first instance in ``compose`` order of each gluing class of
    ``B``, as ``bases.field_theories`` files it: ``(inst, depth, nf, ng,
    nh)``; the checks of the class route."""
    shapes = tuple(sorted(B.ind_morphisms))
    reps = {}
    for inst, h in B.compose.items():
        places = _places(inst, h, shapes)
        reps.setdefault(gluing_key(inst, h, places), (inst, *places))
    return tuple(reps.values())


def field_theories(Z, budget=1_000_000, by_class=False):
    """``bases.field_theories`` checking every base composition instance
    as soon as the last of its shapes is labelled, or with ``by_class``
    one instance per gluing class (``gluing_classes``), not one per atom."""
    B = Z.base
    gens = tuple(B.ind_objects)
    shapes = tuple(sorted(B.ind_morphisms))

    id_shape = {}
    for g in gens:
        idm = B.identity.get((g,))
        if idm is not None and len(idm) == 1:
            id_shape[detached_shape((g,), (g,), idm[0])] = g

    if by_class:
        insts = gluing_classes(B)
    else:
        insts = [(inst, *_places(inst, h, shapes)) for inst, h in B.compose.items()]

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
            if not labs:
                break
            opts.append(labs)
        else:
            coloured = {obj: tuple(cols[s] for s in obj) for obj in B.objects}
            checks = [[] for _ in range(len(shapes) + 1)]
            for inst, d, nf, ng, nh in insts:
                a, b, c = inst[0]
                checks[d].append((inst, (coloured[a], coloured[b], coloured[c]), nf, ng, nh))
            below = [prod(len(o) for o in opts[d:]) for d in range(len(shapes) + 1)]
            labs, picks = [], []
            while True:
                d = len(labs)
                passed = all(
                    Z.composition(inst, ccols, tuple([labs[k] for k in nf]), tuple([labs[k] for k in ng]))
                    == tuple([labs[k] for k in nh])
                    for inst, ccols, nf, ng, nh in checks[d]
                )
                if passed and d < len(shapes):
                    labs.append(opts[d][0])
                    picks.append(0)
                    continue
                seen += below[d]
                if seen > budget:
                    raise RuntimeError(
                        f"field theory enumeration budget exceeded after examining {budget} candidates "
                        f"({len(out)} field theories found)"
                    )
                if passed:
                    out.append((dict(cols), dict(zip(shapes, labs))))
                while picks and picks[-1] + 1 == len(opts[len(picks) - 1]):
                    del labs[-1], picks[-1]
                if not picks:
                    break
                picks[-1] += 1
                labs[-1] = opts[len(picks) - 1][picks[-1]]
    return out


# ---------------------------------------------------------------------------
# the morphism search, each candidate checked at every visit


class _Template:
    """A key template with a reader for the flat tuple of its variable
    values, which determines the filled key; lookups through a template
    are memoised on that tuple, so keys are only built on a miss."""

    __slots__ = ("tpl", "read")

    def __init__(self, tpl):
        self.tpl = tpl
        self.read = _reader(tuple(_flatten(tpl)))


def _search_plan(S, bound, p):
    """The search's variables, ``(dimension, arity key, table key, label,
    key template, degree)``, and the checks filed under each variable:
    ``(arity key, lower key template, input variables, output variable)``."""
    n = S.n
    vi = _VarIndex(S)
    # (dimension, arity key, table key, label, key template, degree)
    slots = []
    for d in range(n + 1):
        table = S.table(d)
        # a table of one key, such as the colours', needs no sort
        for key in sorted(table, key=repr) if len(table) > 1 else table:
            ak, skey = key
            tkey = _Template(lib_image_key(vi, ak, skey))
            for lab in table[key]:
                vi.add(d, key, lab)
                slots.append((d, ak, key, lab, tkey, p and p.act(d, ak, skey, lab)))
    nv = len(slots)

    # each composition instance, filed under the last variable it reads
    checks = [[] for _ in range(nv)]
    pool = enumerate_arities(n + 1, bound, S.variance)
    for _, lay, ak, asg, lk, site_keys in lib_composition_sites(S, pool, S.composition):
        entry = S.composition[(ak, lk)]
        keys = site_keys()
        ltpl = _Template(lib_lower_key(lay.spec, map_assignment(vi, lay, asg).__getitem__))
        lower = tuple(_flatten(ltpl.tpl))
        for inputs, out in entry.items():
            ins = tuple(vi.act(*key, lab) for key, lab in zip(keys, inputs))
            tgt = vi.act(*keys[-1], out)
            checks[max(ins + (tgt,) + lower)].append((ak, ltpl, ins, tgt))
    return slots, checks


def search_cut(S, T, bound=None, over=None):
    """Where ``theory.enumerate_morphisms`` stops its walk: the first
    start of a table key's run of variables (or the end) from which no
    variable's key template or checks read another from there on, tried
    start by start; with the dimension of each variable."""
    bound = min(S.arity_bound, T.arity_bound) if bound is None else bound
    slots, checks = _search_plan(S, bound, over and over[0])
    reads = [set(_flatten(tkey.tpl)) for _, _, _, _, tkey, _ in slots]
    for i, filed in enumerate(checks):
        for _, lk, ins, tgt in filed:
            reads[i].update(_flatten(lk.tpl), ins, (tgt,))
    nv = len(slots)
    starts = [i for i in range(nv) if i == 0 or slots[i][:3] != slots[i - 1][:3]] + [nv]
    cut = next(c for c in starts if all(j < c or j == i for i in range(c, nv) for j in reads[i]))
    return cut, [slot[0] for slot in slots]


def enumerate_morphisms(S, T, bound=None, budget=2_000_000, over=None):
    """``theory.enumerate_morphisms`` checking every candidate image of a
    variable against its checks each time the search reaches it, and
    building each found morphism's actions afresh (``_morphism_of``), by
    a walk over every variable."""
    if S.n != T.n or S.variance != T.variance:
        return []
    bound = min(S.arity_bound, T.arity_bound) if bound is None else bound
    p, q = over if over is not None else (None, None)
    slots, filed = _search_plan(S, bound, p)
    nv = len(slots)
    checks = [[(ak, lk, _reader(ins), tgt) for ak, lk, ins, tgt in c] for c in filed]

    val = [None] * nv
    domains, entries = {}, {}
    found = []

    def domain(i):
        d, ak, _, _, tkey, deg = slots[i]
        dk = (tkey, tkey.read(val), deg)
        dom = domains.get(dk)
        if dom is None:
            key = _fill(tkey.tpl, val)
            dom = T.label_set(d, ak, key)
            if q is not None:
                dom = tuple(y for y in dom if q.act(d, ak, key, y) == deg)
            domains[dk] = dom
        return dom

    def commutes(ak, lk, ins, tgt):
        ek = (lk, lk.read(val))
        entry = entries.get(ek)
        if entry is None:
            entry = entries[ek] = T.composition.get((ak, _fill(lk.tpl, val)), {})
        return entry.get(ins(val)) == val[tgt]

    # depth first, without recursion: pending[i] holds the untried images
    # of variable i, and the node visited has len(pending) assigned
    pending = []
    nodes = deepest = 0
    while True:
        if nodes == budget:
            raise RuntimeError(
                f"morphism enumeration budget exceeded: {nodes} nodes visited, "
                f"deepest at {deepest} of {nv} variables assigned"
            )
        nodes += 1
        deepest = max(deepest, len(pending))
        if len(pending) == nv:
            found.append(_morphism_of(S, T, slots, val))
        else:
            pending.append(iter(domain(len(pending))))
        while pending:
            i = len(pending) - 1
            for img in pending[i]:
                val[i] = img
                if all(commutes(*c) for c in checks[i]):
                    break
            else:
                pending.pop()
                continue
            break
        if not pending:
            return found


def _morphism_of(S, T, slots, val):
    actions = {d: {} for d in range(S.n + 1)}
    for (d, _, key, lab, _, _), img in zip(slots, val):
        actions[d].setdefault(key, {})[lab] = img
    return TheoryMorphism(S, T, actions)


# ---------------------------------------------------------------------------
# non-elemental arities


def mul(T, a, tkey):
    """The label set of an elemental arity at a boundary key."""
    return T.label_set(a.k, canonical_key(a), tkey)


def mul_general(T, ga, tkeys):
    """All label tuples of a non-elemental arity: the product over its
    elemental components, with ``tkeys`` mapping footprints to boundary
    keys of the components."""
    parts = decompose_general(ga)
    return tuple(product(*[mul(T, part, tkeys[fp]) for fp, part in parts]))


def compose_general(T, ga, parts_data):
    """Compose along a non-elemental (n+1)-arity fiberwise.

    ``parts_data`` pairs each component (in decomposition order) with
    its (asg, inputs); the result is the tuple of componentwise
    composites.
    """
    parts = decompose_general(ga)
    if len(parts) != len(parts_data):
        raise ValueError("component data length mismatch")
    return tuple(
        compose(T, part, asg, inputs)
        for (_, part), (asg, inputs) in zip(parts, parts_data)
    )

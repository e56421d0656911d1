"""Finite presentations of set-enriched higher theories.

A presentation of dimension n stores label sets for multimaps of every
dimension up to n, keyed by an elemental arity together with a full
boundary typing, plus composition tables keyed by one-higher arities.
Everything is bounded: tables cover exactly the arities whose index sets
stay within ``arity_bound``, and operations never extrapolate past it.
Builders accept an ``extra`` arity pool for the few constructions whose
lookups outrun the bound (delooping flattens two index levels into one,
so its source must be tabulated at a handful of larger arities).

Boundary typings are nested tuples.  The keys of a table's sites come
from the one boundary walk (``_walk``), which builds each colour tuple
and level tuple once per partial assignment and shares it among the
sites extending it.  Lookup keys are built by :func:`whole_key` and
:func:`lower_key` from a :class:`~htk.arity.LeafSpec`: an atom's, or a
whole layout's (``Layout.spec``).  Both read the addresses in the same
canonical order as the walk, so keys built for a stored arity and keys
recovered from an atom inside a bigger arity agree positionally;
:func:`key_assignment` reads a key back into an assignment, :func:`map_key`
relabels one level by level, and :func:`image_key` is the one route from a
table key to its image under a morphism.
"""

import gc
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import product
from operator import itemgetter

from .arity import (
    Arity,
    Level,
    arity_of_key,
    canonical_key,
    decompose,
    enumerate_arities,
    index_bound,
    layout,
    resolve_leaf,
    slot_ctx,
)
from .ordcomb import SYMMETRIC

DIM0_KEY = ("", ())

#: the single member of a corepresented hom-set on a compatible boundary
POINT = "•"

#: what a composition rule returns for an input it leaves undeclared
SKIP = object()


def gc_paused(fn):
    """``fn`` run with the cyclic garbage collector paused.

    Tables are acyclic trees of tuples, dicts, strings and ints, so a
    collection can free nothing they hold; during a bulk build or
    decode it only walks a live heap that keeps growing.  The caller's
    collector state is restored on return and on exception, and a
    caller that had it off keeps it off.  Only for eager functions: a
    generator's body runs after the call has returned.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@dataclass(frozen=True)
class TheoryPresentation:
    """A bounded presentation of an n-dimensional theory.

    ``strata[d]`` maps ``(arity key, boundary key)`` to the tuple of
    dimension-d multimap labels for 1 <= d < n; ``strata[0]`` holds the
    colour tuple under ``DIM0_KEY``.  ``top_mul`` is the same table for
    dimension n.  ``composition`` maps ``(arity key of an (n+1)-arity,
    lower boundary key)`` to a dict from input-label tuples (in chain
    address order) to the output label.  For n = 0 the element set lives
    in ``top_mul[DIM0_KEY]`` and composition is keyed by 1-arities with
    an empty lower key.
    """

    n: int
    variance: str
    colour_depth: int
    arity_bound: int
    strata: dict
    top_mul: dict
    composition: dict

    def table(self, d):
        """The label table of dimension d."""
        return self.top_mul if d == self.n else self.strata[d]

    def label_set(self, d, akey="", tkey=()):
        return self.table(d).get((akey, tkey), ())


def _coloured(n, variance, colour_depth, bound, colours):
    """A presentation holding only its colours (its elements when n = 0)."""
    T = TheoryPresentation(n, variance, colour_depth, bound, {d: {} for d in range(n)}, {}, {})
    T.table(0)[DIM0_KEY] = tuple(colours)
    return T


# ---------------------------------------------------------------------------
# boundary keys


def whole_key(spec, val):
    """The boundary key of an atom or a whole arity (``Layout.spec``),
    reading labels through ``val``."""
    cols = tuple(map(val, spec.colours))
    if spec.arity.k == 1:
        return (cols,)
    return (
        cols,
        tuple([tuple(map(val, g)) for g in spec.lower]),
        tuple(map(val, spec.chain)),
        val(spec.target),
    )


def lower_key(spec, val):
    """The part of a composition arity's boundary below the top pair."""
    if spec.arity.k == 1:
        return ()
    return (tuple(map(val, spec.colours)), tuple([tuple(map(val, g)) for g in spec.lower]))


def key_assignment(spec, key):
    """The address assignment a whole or lower key of ``spec`` was read from."""
    asg = dict(zip(spec.colours, key[0])) if key else {}
    if len(key) > 1:
        for addrs, labs in zip(spec.lower, key[1]):
            asg.update(zip(addrs, labs))
    if len(key) > 2:
        asg.update(zip(spec.chain, key[2]))
        asg[spec.target] = key[3]
    return asg


def map_key(f, key, d):
    """A whole or lower key of a dimension-d arity with each label x at
    level nu replaced by ``f(nu, x)``."""
    out = (tuple([f(0, x) for x in key[0]]),) if key else ()
    if len(key) > 1:
        out += (tuple([tuple([f(nu, x) for x in g]) for nu, g in enumerate(key[1], start=1)]),)
    if len(key) > 2:
        out += (tuple([f(d - 1, x) for x in key[2]]), f(d - 1, key[3]))
    return out


def _walk(T, cols, steps, groups=()):
    """Every assignment of colours to the addresses ``cols``, extended
    depth first by a label of each step's atom in turn, drawn from the
    label set its (already assigned) boundary selects; with its key
    parts, the walk's own list: the colour tuple, then the labels of each
    address group, consecutive runs of the steps.  A part is built when
    its last address is assigned, and every extension shares it."""
    parts = [()] * (len(groups) + 1)
    ends = {g[-1]: j for j, g in enumerate(groups, start=1) if g}
    plan = [(ad, T.table(nu).get, ck, spec, ends.get(ad)) for ad, nu, ck, spec in steps]
    last = len(plan) - 1
    for vals in product(T.label_set(0), repeat=len(cols)):
        asg = dict(zip(cols, vals))
        parts[0] = vals
        if last < 0:
            yield asg, parts
            continue
        get = asg.__getitem__
        _, look, ck, spec, _ = plan[0]
        # stack[i] holds the untried labels of step i
        stack = [iter(look((ck, whole_key(spec, get)), ()))]
        while stack:
            i = len(stack) - 1
            ad, _, _, _, end = plan[i]
            for lab in stack[i]:
                asg[ad] = lab
                if end:
                    parts[end] = tuple(map(get, groups[end - 1]))
                if i == last:
                    yield dict(asg), parts
                    continue
                _, look, ck, spec, _ = plan[i + 1]
                stack.append(iter(look((ck, whole_key(spec, get)), ())))
                break
            else:
                stack.pop()


# ---------------------------------------------------------------------------
# typed sites


def stratum_sites(T, d, pool):
    """Every typed dimension-d boundary over the arities of ``pool``, as
    ``(arity, layout, arity key, assignment, whole key)``."""
    for ar in pool:
        lay = layout(ar)
        ak = canonical_key(ar)
        spec = lay.spec
        for asg, p in _walk(T, spec.colours, lay.steps, (*spec.lower, spec.chain) if d > 1 else ()):
            yield ar, lay, ak, asg, (p[0], tuple(p[1:-1]), p[-1], asg[spec.target]) if d > 1 else (p[0],)


def composition_sites(T, pool, within=None):
    """Every typed composition site over the (n+1)-arities of ``pool``, as
    ``(arity, layout, arity key, assignment, lower key, slots)``.

    The assignment covers the boundary below the chain; ``slots`` gives
    the ``(d, akey, tkey)`` label-set keys of the chain inputs and then
    of the target (see :func:`site_slots`).  At n = 0 the colours are the
    top level, so the assignment is empty and the lower key is ``()``.
    With ``within`` (a composition table), only the sites it has a
    nonempty entry for.
    """
    n = T.n
    for P in pool:
        lay = layout(P)
        ak = canonical_key(P)
        tops = site_slots(lay).steps
        below = lay.steps[: len(lay.steps) - len(tops)]
        for asg, p in _walk(T, lay.colour_addrs if n else (), below, lay.spec.lower):
            lk = (p[0], tuple(p[1:])) if n else ()
            if within is None or within.get((ak, lk)):
                yield P, lay, ak, asg, lk, Slots(tops, asg.__getitem__)


def site_slots(lay, val=None):
    """The :class:`Slots` of a composition site of ``lay``'s arity, at
    any n, its boundary below the chain read through ``val``: the top
    level's steps, chain atoms then target.  At n = 0 every slot is the
    element set, ``(0, "", ())``."""
    if lay.arity.k == 1:
        return Slots(((None, 0, "", None),) * (lay.arity.top + 1), val)
    return Slots(lay.steps[len(lay.steps) - len(lay.chain_addrs) - 1 :], val)


class Slots(namedtuple("Slots", "steps val")):
    """The label-set keys of a composition site's chain atoms and then
    its target: ``key(i)`` builds the i-th on call (-1 is the target)
    and ``slots()`` all of them.  Most sites are never keyed in full."""

    __slots__ = ()

    def key(self, i):
        _, d, ck, spec = self.steps[i]
        return (d, ck, whole_key(spec, self.val) if spec else ())

    def __call__(self):
        return tuple(map(self.key, range(len(self.steps))))


def site_inputs(T, slots):
    """The input label tuples of a composition site; none as soon as a
    chain slot has no labels, and the slots after it are never keyed."""
    sets = []
    for i in range(len(slots.steps) - 1):
        sets.append(T.label_set(*slots.key(i)))
        if not sets[-1]:
            return ()
    return product(*sets)


# ---------------------------------------------------------------------------
# construction by saturation


def arity_pool(d, bound, variance, extra=None):
    """The bounded dimension-d arities plus any extras, deduplicated."""
    pool = list(enumerate_arities(d, bound, variance))
    seen = {canonical_key(a) for a in pool}
    for a in (extra or {}).get(d, ()):
        ck = canonical_key(a)
        if ck not in seen:
            seen.add(ck)
            pool.append(a)
    return pool


@gc_paused
def build_theory(n, variance, bound, colours, label_rule, comp_rule, extra=None):
    """Construct a presentation by enumerating every bounded key.

    ``label_rule(d, arity, lay, asg)`` returns the labels of dimension-d
    multimaps with the given fully typed boundary (1 <= d <= n);
    ``comp_rule(arity, lay, asg, inputs)`` returns the composite label
    for a composition instance, where ``asg`` covers the lower boundary
    plus the chain addresses (``lay.spec.chain``: the input colours when
    n = 0), or :data:`SKIP` to leave the input out (a
    site whose inputs are all left out gets no table).  For n = 0
    ``colours`` is the element set.
    """
    T = _coloured(n, variance, n, bound, colours)
    for d in range(1, n + 1):
        table = T.table(d)
        for ar, lay, ak, asg, key in stratum_sites(T, d, arity_pool(d, bound, variance, extra)):
            table[(ak, key)] = tuple(label_rule(d, ar, lay, asg))
    for P, lay, ak, asg, lk, slots in composition_sites(T, arity_pool(n + 1, bound, variance, extra)):
        entry = {}
        skipped = False
        for inputs in site_inputs(T, slots):
            full = dict(asg)
            full.update(zip(lay.spec.chain, inputs))
            out = comp_rule(P, lay, full, inputs)
            if out is SKIP:
                skipped = True
            else:
                entry[inputs] = out
        if entry or not skipped:
            T.composition[(ak, lk)] = entry
    return T


# ---------------------------------------------------------------------------
# multimap sets and composition


def compose(T, a, asg, inputs):
    """Compose top-dimension labels along an elemental (n+1)-arity.

    ``asg`` assigns labels to the lower boundary addresses of the
    arity's layout; ``inputs`` lists the chain labels in chain-address
    order.  A missing table entry signals an under-specified
    presentation and raises ``KeyError``.
    """
    if a.k != T.n + 1:
        raise ValueError("composition needs a one-higher arity")
    lay = layout(a)
    key = (canonical_key(a), lower_key(lay.spec, asg.__getitem__))
    entry = T.composition.get(key)
    if entry is None or tuple(inputs) not in entry:
        raise KeyError(f"no composition entry for {key}")
    return entry[tuple(inputs)]


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    law: str
    arity_key: str
    witness: tuple
    expected: object
    actual: object

    def line(self):
        return f"{self.law} at {self.arity_key}: witness={self.witness!r} expected={self.expected!r} actual={self.actual!r}"


@dataclass
class ValidationReport:
    violations: list
    warnings: list = field(default_factory=list)

    @property
    def status(self):
        return "fail" if self.violations else "pass"

    def lines(self):
        out = [v.line() for v in self.violations]
        out.extend(f"warning: {w}" for w in self.warnings)
        return out


def _check_strata(T, bound, viol):
    for d in range(1, T.n + 1):
        table = T.table(d)
        singleton = d < T.n - T.colour_depth
        for _, _, ak, _, key in stratum_sites(T, d, enumerate_arities(d, bound, T.variance)):
            labs = table.get((ak, key))
            if labs is None:
                viol.append(Violation("missing-stratum", ak, (key,), "entry", "absent"))
            elif singleton and len(labs) != 1:
                viol.append(Violation("colour-depth", ak, (key,), 1, len(labs)))
    if 0 < T.n - T.colour_depth and len(T.label_set(0)) != 1:
        viol.append(Violation("colour-depth", "", (), 1, len(T.label_set(0))))


def _site_witness(lk, inputs):
    """Name a composition input in a violation; dimension 0, whose lower
    keys are all empty, names it by the inputs alone."""
    return (lk, inputs) if lk else (inputs,)


def _check_closure(T, bound, viol, warn):
    no_unit = False
    for P, _, ak, _, lk, slots in composition_sites(T, enumerate_arities(T.n + 1, bound, T.variance)):
        entry = T.composition.get((ak, lk))
        if entry is None:
            if P.top == 0:
                no_unit = True
            else:
                wit = (lk,) if lk else ((), ())
                viol.append(Violation("missing-composition", ak, wit, "table", "absent"))
            continue
        out_set = T.label_set(*slots.key(-1))
        found = 0
        for inputs in site_inputs(T, slots):
            wit = _site_witness(lk, inputs)
            if inputs not in entry:
                viol.append(Violation("missing-composition", ak, wit, "entry", "absent"))
                continue
            found += 1
            if entry[inputs] not in out_set:
                expected = tuple(out_set) if lk else "element"
                viol.append(Violation("composition-typing", ak, wit, expected, entry[inputs]))
        # stray inputs; an absent chain label set is a missing stratum already
        if found != len(entry):
            if all((ck, key) in T.table(d) for d, ck, key in map(slots.key, range(len(slots.steps) - 1))):
                for inputs in sorted(entry.keys() - set(site_inputs(T, slots)), key=repr):
                    viol.append(Violation("stray-composition", ak, _site_witness(lk, inputs), "absent", entry[inputs]))
    if no_unit:
        warn.append("no unit declared (nullary composition entries absent)")


@lru_cache(maxsize=None)
def _assoc_plan(A, n):
    """Everything of the associativity instances over A but the labels:
    the free data (colour addresses and atom steps: the boundary below
    the top-adjacent level, then the atoms over that level's initial
    bracket position, which come first in it), the (arity key, spec) of
    each stage in order and of the right-hand side, and the final
    address."""
    lay = layout(A)
    C = lay.conc
    lv = C.levels[n]
    final = lay.refs[lv.entries[-1][0]]
    if n == 0:
        free = (tuple(lay.refs[t] for t in C.levels[0].entries[0]), ())
    else:
        final = next(iter(final.values()))
        below = sum(1 for s in lay.steps if s[1] < n)
        free = (lay.colour_addrs, lay.steps[: below + sum(len(lay.refs[t]) for t in lv.entries[0])])
    sites = [leaf for j in range(1, len(lv.maps) + 1) for leaf in decompose(slot_ctx(C.levels, n + 1, j - 1, j))]
    sites.append(decompose(slot_ctx(C.levels, n + 1, 0, len(lv.maps)))[0])
    specs = [resolve_leaf(leaf, lay.refs) for leaf in sites]
    *stages, rhs = [(canonical_key(spec.arity), spec) for spec in specs]
    return free, tuple(stages), rhs, final


def _check_associativity(T, bound, viol, warn):
    """Composing stage by stage along the top-adjacent nerve must agree
    with composing along its total composite, for every one-higher-still
    elemental arity within bound.  Instances with empty stages exercise
    the unit entries; they are skipped (with a warning) when no unit is
    declared.
    """
    n = T.n
    skipped_units = False
    for A in enumerate_arities(n + 2, bound, T.variance):
        free, stages, rhs_site, final = _assoc_plan(A, n)
        ak = canonical_key(A)
        for init, _ in _walk(T, *free):
            state = dict(init)
            get = state.__getitem__
            for sak, spec in stages:
                key, ins = (sak, lower_key(spec, get)), tuple(map(get, spec.chain))
                state[spec.target] = T.composition.get(key, {}).get(ins)
                if state[spec.target] is None:
                    break
            else:
                # the right-hand side reads only the free addresses
                sak, spec = rhs_site
                key, ins = (sak, lower_key(spec, get)), tuple(map(get, spec.chain))
                rhs = T.composition.get(key, {}).get(ins)
                if rhs is not None:
                    if state[final] != rhs:
                        wit = tuple(sorted(init.items(), key=repr))
                        viol.append(Violation("associativity", ak, wit, rhs, state[final]))
                    continue
            # the entry at (key, ins) is missing
            if spec.arity.top == 0 and key not in T.composition:
                skipped_units = True
            else:
                viol.append(Violation("missing-composition", key[0], (key[1], ins), "entry", "absent"))
    if skipped_units:
        warn.append("associativity instances needing undeclared units were skipped")


def _check_relabelings(T, bound, viol):
    """Bijective bottom-level relabelings must act by bijections.

    Implemented for dimension 1; in higher dimensions the property
    follows from associativity and units within the bound.
    """
    if T.n != 1 or T.variance != SYMMETRIC:
        return
    pool = [
        P
        for P in enumerate_arities(2, bound, T.variance)
        if P.top == 2
        and P.levels[0].sizes[0] == P.levels[0].sizes[1]
        and len(set(P.levels[0].maps[0])) == P.levels[0].sizes[0]
    ]
    for _, lay, ak, asg, lk, _ in composition_sites(T, pool, T.composition):
        entry = T.composition[(ak, lk)]
        # chain atoms over the first stage are the unary relabeling
        # slots; fill them with the declared identities
        ids = {}
        ok = True
        for ad in lay.chain_addrs:
            at = lay.atom(ad)
            if at.slot[1] != 1:
                continue
            ckey = (canonical_key(Arity(2, 0, (Level((1,), ()),))), ((asg[at.spec.colours[0]],), ()))
            ident = T.composition.get(ckey, {}).get(())
            if ident is None:
                ok = False
                break
            ids[ad] = ident
        if not ok:
            continue
        imgs = {}
        for inputs in entry:
            if all(inputs[i] == ids[ad] for i, ad in enumerate(lay.chain_addrs) if ad in ids):
                rest = tuple(inputs[i] for i, ad in enumerate(lay.chain_addrs) if ad not in ids)
                imgs[rest] = entry[inputs]
        vals = list(imgs.values())
        if len(set(vals)) != len(vals):
            viol.append(Violation("relabeling-bijection", ak, (lk,), "injective", tuple(vals)))


def validate_theory(T, bound=None):
    """Check totality, closure, unit presence, and associativity of a
    presentation over all arities within the bound."""
    bound = T.arity_bound if bound is None else bound
    viol, warn = [], []
    _check_strata(T, bound, viol)
    _check_closure(T, bound, viol, warn)
    if not viol:
        _check_associativity(T, bound, viol, warn)
        _check_relabelings(T, bound, viol)
    return ValidationReport(viol, warn)


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class TheoryMorphism:
    """A strict morphism: per-dimension label actions.

    ``actions[d]`` maps each source table key ``(akey, tkey)`` to a dict
    sending source labels to target labels, for every d from 0 (whose one
    key is ``DIM0_KEY``).  ``actions`` is read-only: the morphisms of one
    :func:`enumerate_morphisms` search share the dicts inside it.
    """

    source: TheoryPresentation
    target: TheoryPresentation
    actions: dict

    def act(self, d, akey, tkey, label):
        return self.actions[d][(akey, tkey)][label]


def map_assignment(F, lay, asg):
    """Push a boundary assignment on a source layout through a morphism."""
    out = {}
    for ad, lab in asg.items():
        if ad[0] == "c":
            out[ad] = F.act(0, "", (), lab)
        else:
            spec = lay.atom(ad).spec
            out[ad] = F.act(ad[1], canonical_key(spec.arity), whole_key(spec, asg.__getitem__), lab)
    return out


def image_key(F, ak, key):
    """The whole (1 or 4 parts) or lower (0 or 2) key of the table key
    ``(ak, key)`` of F's source, each label replaced by its image at its
    own key; ``()`` for dimension 0's ``""``.  F has ``act`` and ``source``."""
    if not ak:
        return ()
    lay = layout(_arity_of_key(ak, F.source.arity_bound))
    asg = map_assignment(F, lay, key_assignment(lay.spec, key))
    return (whole_key if len(key) in (1, 4) else lower_key)(lay.spec, asg.__getitem__)


def identity_morphism(T):
    actions = {d: {key: {lab: lab for lab in labs} for key, labs in T.table(d).items()} for d in range(T.n + 1)}
    return TheoryMorphism(T, T, actions)


def validate_morphism(F, bound=None):
    S, T = F.source, F.target
    viol = []
    if S.n != T.n or S.variance != T.variance:
        return ValidationReport([Violation("morphism-shape", "", (), (T.n, T.variance), (S.n, S.variance))])
    bound = min(S.arity_bound, T.arity_bound) if bound is None else bound
    for c in S.label_set(0):
        img = F.actions.get(0, {}).get(DIM0_KEY, {}).get(c)
        if img is None or img not in T.label_set(0):
            viol.append(Violation("morphism-typing", "", (c,), "colour", img))
    if viol:
        return ValidationReport(viol)
    for d in range(1, S.n + 1):
        for _, lay, ak, asg, skey in stratum_sites(S, d, enumerate_arities(d, bound, S.variance)):
            tset = T.label_set(d, ak, whole_key(lay.spec, map_assignment(F, lay, asg).__getitem__))
            for lab in S.label_set(d, ak, skey):
                img = F.actions.get(d, {}).get((ak, skey), {}).get(lab)
                if img is None or img not in tset:
                    viol.append(Violation("morphism-typing", ak, (skey, lab), tuple(tset), img))
    if viol:
        return ValidationReport(viol)
    pool = enumerate_arities(S.n + 1, bound, S.variance)
    for _, lay, ak, asg, lk, slots in composition_sites(S, pool, S.composition):
        keys = slots()
        tentry = T.composition.get((ak, lower_key(lay.spec, map_assignment(F, lay, asg).__getitem__)), {})
        for inputs, out in S.composition[(ak, lk)].items():
            fout = F.act(*keys[-1], out)
            got = tentry.get(tuple(F.act(*key, lab) for key, lab in zip(keys, inputs)))
            if got != fout:
                viol.append(Violation("morphism-composition", ak, _site_witness(lk, inputs), fout, got))
    return ValidationReport(viol)


class _VarIndex:
    """Stands in for a morphism out of ``source`` during a search: ``act``
    names the search variable of a source label instead of its image, so
    :func:`image_key` and :func:`map_assignment` turn source boundaries
    into templates of variable indices."""

    def __init__(self, source):
        self.source = source
        self.index = {}

    def add(self, d, key, label):
        self.index[(d, key, label)] = len(self.index)

    def act(self, d, akey, tkey, label):
        return self.index[(d, (akey, tkey), label)]


def _fill(tpl, val):
    """Substitute variable values into a template of variable indices."""
    return tuple(_fill(x, val) if type(x) is tuple else val[x] for x in tpl)


def _flatten(tpl):
    """The variable indices in a template, in order."""
    for x in tpl:
        if type(x) is tuple:
            yield from _flatten(x)
        else:
            yield x


def _reader(idx):
    """A function from variable values to the tuple of those at ``idx``."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        j = idx[0]
        return lambda val: (val[j],)
    return lambda val: ()


@gc_paused
def enumerate_morphisms(S, T, bound=None, budget=2_000_000, over=None):
    """All strict morphisms S -> T, in a deterministic order.

    A backtracking search with forward checking.  The variables are the
    images of S's labels dimension by dimension from the colours at 0
    (keys sorted by ``repr``, labels in table order).  Each label draws
    its image from T's label set at its :func:`image_key`, so typing
    holds by construction.  Each composition instance of
    S within ``bound`` is checked as soon as the last variable it reads
    (lower boundary, chain or target) is assigned, with the test of
    :func:`validate_morphism`: the target entry must exist and equal the
    image of the output.  Every leaf is therefore a morphism, and the
    morphisms come in the order of a plain enumeration of typed
    assignments.

    The images of a variable that pass its checks depend only on the
    earlier variables that its key and its checks read, so they are
    memoised per variable on those values.  Keying on values is sound
    although ``True == 1``: what the memo stands in for (T's label sets,
    its composition entries, q's action and the final ``==``) already
    cannot tell ``==``-equal labels apart, and the memo holds T's own
    label objects.

    No variable from the *cut* on (the end of the group of the last
    variable that another one reads) reads another from there on, so
    their images are fixed once the variables before the cut are.  The
    depth-first walk runs over those only.  At each node at the cut it
    takes the suffix variables' images up to the first empty set, adds
    the nodes the walk would have visited below in closed form (the sum
    over t of the product of the first t image counts), and lists the
    morphisms in the walk's order as a product: of each suffix group's
    ``{label: image}`` dicts, and of the dimensions' dicts built from
    them, once per node at the cut, which the morphisms share.  So do
    consecutive morphisms, for each dict whose variables did not change.

    ``over=(p, q)``, for morphisms p out of S and q out of T, keeps only
    the F with q∘F = p: each image is drawn from the labels over the
    degree p gives its source label.

    Raises ``RuntimeError`` once more than ``budget`` search nodes are
    visited, naming the nodes visited and the deepest variable reached.
    A node is one partial assignment that passed its checks; pruning only
    removes nodes, so a search within budget stays within it.  Below the
    cut the walk would first run straight down, so a budget that ends
    there names the depth it would have stopped at.
    """
    if S.n != T.n or S.variance != T.variance:
        return []
    bound = min(S.arity_bound, T.arity_bound) if bound is None else bound
    n = S.n
    p, q = over if over is not None else (None, None)
    vi = _VarIndex(S)
    # (dimension, arity key, key template, degree)
    slots = []
    # the variables that each variable's key template reads
    reads = []
    # the table keys with labels, each one run of variables lo..hi-1:
    # (table key, labels, lo, hi); and per dimension (its keys, the
    # range of its groups)
    groups, dims = [], []
    for d in range(n + 1):
        table = S.table(d)
        start = len(groups)
        # a table of one key, such as the colours', needs no sort
        for key in sorted(table, key=repr) if len(table) > 1 else table:
            ak, skey = key
            tpl = image_key(vi, ak, skey)
            keyvars = tuple(_flatten(tpl))
            lo = len(slots)
            for lab in table[key]:
                vi.add(d, key, lab)
                slots.append((d, ak, tpl, p and p.act(d, ak, skey, lab)))
                reads.append(set(keyvars))
            if lo < len(slots):
                groups.append((key, table[key], lo, len(slots)))
        dims.append((tuple(g[0] for g in groups[start:]), start, len(groups)))
    nv = len(slots)
    # the group of each variable, and past the last one none
    group_of = [g for g, (_, _, lo, hi) in enumerate(groups) for _ in range(lo, hi)] + [len(groups)]

    # each composition instance, filed under the last variable it reads:
    # (arity key, lower key template, input reader, output variable)
    checks = [[] for _ in range(nv)]
    pool = enumerate_arities(n + 1, bound, S.variance)
    for _, lay, ak, asg, lk, site_keys in composition_sites(S, pool, S.composition):
        entry = S.composition[(ak, lk)]
        keys = site_keys()
        ltpl = lower_key(lay.spec, map_assignment(vi, lay, asg).__getitem__)
        lower = tuple(_flatten(ltpl))
        for inputs, out in entry.items():
            ins = tuple(vi.act(*key, lab) for key, lab in zip(keys, inputs))
            tgt = vi.act(*keys[-1], out)
            i = max(ins + (tgt,) + lower)
            checks[i].append((ak, ltpl, _reader(ins), tgt))
            reads[i].update(ins, lower, (tgt,))
    # the earlier variables that decide which images of variable i pass
    earlier = [tuple(sorted(r - {i})) for i, r in enumerate(reads)]
    readers = list(map(_reader, earlier))
    # the cut: the end of the group of the last variable that another one
    # reads, so that no variable from there on reads another from there on
    cut = max([groups[group_of[e[-1]]][3] for e in earlier if e], default=0)

    val = [None] * nv
    passing = [{} for _ in range(nv)]
    found = []

    def domain(i):
        d, ak, tpl, deg = slots[i]
        key = _fill(tpl, val)
        dom = T.label_set(d, ak, key)
        if q is not None:
            dom = tuple(y for y in dom if q.act(d, ak, key, y) == deg)
        return dom

    def commutes(ak, ltpl, ins, tgt):
        return T.composition.get((ak, _fill(ltpl, val)), {}).get(ins(val)) == val[tgt]

    def images(i):
        """The images of variable i that pass every check filed under it."""
        memo = passing[i]
        rk = readers[i](val)
        imgs = memo.get(rk)
        if imgs is None:
            imgs = []
            for img in domain(i):
                val[i] = img
                if all(commutes(*c) for c in checks[i]):
                    imgs.append(img)
            imgs = memo[rk] = tuple(imgs)
        return imgs

    # the {label: image} dict of each group, and the {table key: inner
    # dict} dict of each dimension, at the last morphism; a dict none of
    # whose variables changed since is handed to the next morphism too
    inner = [None] * len(groups)
    outer = [{} for _ in dims]

    # depth first over the variables before the cut, without recursion:
    # pending[i] holds the untried images of variable i, and the node
    # visited has len(pending) assigned; variables from ``low`` on changed
    # since the last morphism was built
    pending = []
    sets = [None] * (nv - cut)
    nodes = deepest = low = 0
    while True:
        depth = len(pending)
        # at the cut, the subtree is the product of the suffix's images: it
        # has ``sub`` nodes and reaches ``reach`` variables down, to the
        # first empty set; val takes each variable's first image
        sub = reach = 0
        if depth == cut:
            size = 1
            for j in range(cut, nv):
                imgs = sets[reach] = images(j)
                if not imgs:
                    break
                val[j] = imgs[0]
                size *= len(imgs)
                sub += size
                reach += 1
        if nodes + sub >= budget:
            # the walk would visit budget - nodes of these nodes, straight
            # down from this one first
            deepest = max(deepest, depth - 1 + min(budget - nodes, reach + 1))
            raise RuntimeError(
                f"morphism enumeration budget exceeded: {budget} nodes visited, "
                f"deepest at {deepest} of {nv} variables assigned"
            )
        nodes += 1 + sub
        if depth + reach > deepest:
            deepest = depth + reach
        if depth < cut:
            pending.append(iter(images(depth)))
        elif reach == nv - cut:
            # one combination is one leaf built from val; more are the
            # product of each suffix dimension's dicts, each the product of
            # its groups' {label: image} dicts
            gp = len(groups) if size == 1 else group_of[cut]
            g0 = group_of[low]
            for g in range(g0, gp):
                _, labs, lo, hi = groups[g]
                inner[g] = dict(zip(labs, val[lo:hi]))
            for d, (keys, a, b) in enumerate(dims):
                if g0 < b <= gp:
                    outer[d] = dict(zip(keys, inner[a:b]))
            if size == 1:
                found.append(TheoryMorphism(S, T, dict(enumerate(outer))))
            else:
                choices = [
                    [dict(zip(labs, c)) for c in product(*sets[lo - cut:hi - cut])] for _, labs, lo, hi in groups[gp:]
                ]
                per_dim = [
                    [dict(zip(keys, (*inner[a:gp], *c))) for c in product(*choices[max(a - gp, 0):b - gp])]
                    if b > gp else (outer[d],)
                    for d, (keys, a, b) in enumerate(dims)
                ]
                found.extend(TheoryMorphism(S, T, dict(enumerate(ds))) for ds in product(*per_dim))
            low = nv
        # back up to the deepest variable with an untried image (``pending``
        # itself stands for an exhausted iterator)
        while pending:
            img = next(pending[-1], pending)
            if img is not pending:
                break
            pending.pop()
        else:
            return found
        i = len(pending) - 1
        val[i] = img
        if i < low:
            low = i


@lru_cache(maxsize=None)
def _arity_of_key(akey, bound):
    """The arity of a table key, which must lie within ``bound`` as the
    keys of a bounded table do.  A key past it (a ``--deloop-ready``
    extra, or a key no bounded table holds) raises ``ValueError``, so no
    key can make a verb lay out an arity larger than the bound."""
    a = arity_of_key(akey)
    if index_bound(a) > bound:
        raise ValueError(f"the arity key {akey!r} is past the arity bound {bound}")
    return a

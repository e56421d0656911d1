"""Constructions that move a presentation up or down a dimension.

* ``theta`` replaces each composition operation of its input by the
  hom-data it corepresents, turning an n-dimensional presentation into
  an (n+1)-dimensional one whose top sets are singletons exactly on
  composition-compatible boundaries.  On a monoidal category (homs kept
  as genuine sets) the same recipe produces a one-dimensional theory
  whose multimap sets are hom-sets out of tensor products.
* ``deloop`` shifts an n-dimensional presentation to dimension n+1 by
  flattening the two bottom index levels of every arity into one and
  reading the original tables through the flattening.
* ``detheorize_T`` refines the dimension-0 colours of a presentation
  into graded pairs while keeping all higher data, producing the theory
  whose strict morphisms into a target are graded structures over the
  original base.
* ``endo_planar`` gives the planar endomorphism theory of a colour, one
  dimension lower, read off the suspended arities at that colour.

The last three read every table of their output off their input, each
through its own plan of transported keys and one kernel,
``_read_through``.  ``deloop_compare`` checks, for a finite strict
monoidal category, that delooping before or after corepresenting gives
structurally equal presentations; the two sides are computed by
disjoint routes (level flattening versus hom-sets of a one-object
category).
"""

from dataclasses import replace
from functools import reduce

from .arity import (
    Arity,
    LeafSpec,
    Level,
    canonical_key,
    enumerate_arities,
    layout,
)
from .ordcomb import PLANAR, SYMMETRIC
from .theory import (
    POINT,
    SKIP,
    TheoryPresentation,
    ValidationReport,
    Violation,
    _coloured,
    arity_pool,
    build_theory,
    composition_sites,
    gc_paused,
    lower_key,
    site_inputs,
    stratum_sites,
    whole_key,
)


# ---------------------------------------------------------------------------
# finite strict monoidal categories


class MonoidalCategory:
    """A finite strict monoidal category as lookup tables.

    ``tensor_obj`` maps object pairs to objects; ``homs`` maps object
    pairs to label tuples; ``identities`` maps objects to labels;
    ``compose_mor`` / ``tensor_mor`` are binary operations on morphism
    labels (strictness lets labels determine the results).
    """

    def __init__(self, objects, unit, tensor_obj, homs, identities, compose_mor, tensor_mor):
        self.objects = tuple(objects)
        self.unit = unit
        self.tensor_obj = dict(tensor_obj)
        self.homs = {k: tuple(v) for k, v in homs.items()}
        self.identities = dict(identities)
        self.compose_mor = compose_mor
        self.tensor_mor = tensor_mor

    def tensor(self, xs):
        return reduce(lambda a, b: self.tensor_obj[(a, b)], xs, self.unit)

    def hom(self, x, y):
        return self.homs.get((x, y), ())

    def is_discrete(self):
        return all(
            x == y and labs == (self.identities[x],) for (x, y), labs in self.homs.items() if labs
        )


def disc_monoidal(k):
    """The discrete monoidal category on Z/k: objects add, homs are
    identities."""
    objects = tuple(range(k))
    tensor = {(a, b): (a + b) % k for a in objects for b in objects}
    homs = {(a, a): (POINT,) for a in objects}
    return MonoidalCategory(
        objects, 0, tensor, homs, {a: POINT for a in objects},
        lambda g, f: POINT, lambda f, g: POINT,
    )


def one_object_deloop(M, base="*"):
    """The one-object category whose endomorphisms are the objects of a
    discrete monoidal category, with both compositions the tensor."""
    if not M.is_discrete():
        raise ValueError("one-object delooping needs a discrete input")
    t = M.tensor_obj
    return MonoidalCategory(
        (base,), base, {(base, base): base}, {(base, base): M.objects},
        {base: M.unit}, lambda g, f: t[(g, f)], lambda f, g: t[(f, g)],
    )


def monoidal_as_dim0(M, bound=2, extra=None):
    """A discrete monoidal category as a 0-dimensional presentation."""
    if not M.is_discrete():
        raise ValueError("only a discrete category has a set of elements")
    return build_theory(
        0, SYMMETRIC, bound, M.objects,
        lambda d, ar, lay, asg: (),
        lambda P, lay, asg, inputs: M.tensor(inputs),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# theta: corepresent the composition


def _fold_monoidal(M, lay, asg):
    """The total composite morphism of a chain of hom-labels over the
    bottom nerve of a 2-dimensional arity."""
    lv = lay.conc.levels[0]
    by_site = {}
    for ad in lay.chain_addrs:
        at = lay.atom(ad)
        by_site[(at.slot[1], at.footprint[0][1])] = asg[ad]
    mor = {t: M.identities[asg[lay.refs[t]]] for t in lv.entries[0]}
    for p in range(1, len(lv.entries)):
        for y in lv.entries[p]:
            fib = [t for t in lv.entries[p - 1] if lv.maps[p - 1][t] == y]
            tens = reduce(M.tensor_mor, (mor[t] for t in fib), M.identities[M.unit])
            mor[y] = M.compose_mor(by_site[(p, y)], tens)
    return mor[lv.entries[-1][0]]


def _theta_monoidal(M, bound, extra=None):
    def hom(cols):
        return M.hom(M.tensor(cols[:-1]), cols[-1])

    def comp_rule(P, lay, asg, inputs):
        # a nullary composite only exists where the unit maps to the target
        if not P.top and not hom([asg[a] for a in lay.atom(lay.target_addr).spec.colours]):
            return SKIP
        return _fold_monoidal(M, lay, asg)

    return build_theory(
        1, SYMMETRIC, bound, M.objects,
        lambda d, ar, lay, asg: hom([asg[("c", i)] for i in range(lay.colour_count)]),
        comp_rule,
        extra=extra,
    )


def _composes(T, P, lay, asg):
    """Whether the chain of an assignment composes in T to its target
    (at n = 0 the chain and target are the colours)."""
    spec = lay.spec
    entry = T.composition.get((canonical_key(P), lower_key(spec, asg.__getitem__)))
    return entry is not None and entry.get(tuple(map(asg.__getitem__, spec.chain))) == asg[spec.target]


@gc_paused
def theta(C, bound=None, extra=None):
    """The one-higher presentation corepresented by C.

    For a monoidal category, a one-dimensional presentation whose
    multimap sets are hom-sets out of tensor products.  For a
    presentation (hom-sets read as discrete), the top labels of C become
    colours of the top stratum and the new top sets are singletons
    exactly where the chain composes to the target.  ``extra`` widens
    the tabulated arity pool (see :func:`deloop_support`); the input
    must itself be tabulated wherever the widened pool looks.
    """
    if isinstance(C, MonoidalCategory):
        return _theta_monoidal(C, 2 if bound is None else bound, extra)
    T = C
    if bound is None:
        bound = T.arity_bound
    n2 = T.n + 1
    strata = {d: dict(T.table(d)) for d in range(n2)}
    U = TheoryPresentation(n2, T.variance, min(T.colour_depth + 1, n2), bound, strata, {}, {})
    for P, lay, ak, asg, key in stratum_sites(U, n2, arity_pool(n2, bound, T.variance, extra)):
        U.top_mul[(ak, key)] = (POINT,) if _composes(T, P, lay, asg) else ()
    for A, _, ak, _, lk, slots in composition_sites(U, arity_pool(n2 + 1, bound, T.variance, extra)):
        if A.top == 0 and not U.label_set(*slots.key(-1)):
            continue  # the source declared no unit; stay silent too
        U.composition[(ak, lk)] = dict.fromkeys(site_inputs(U, slots), POINT)
    return U


def theta_iter(C, steps, bound=None):
    """Iterate theta; step zero returns the input unchanged."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for _ in range(steps):
        C = theta(C, bound)
    return C


# ---------------------------------------------------------------------------
# reading a source's tables through a plan


def _mapped(spec, at):
    """``spec`` with every address mapped through ``at``."""
    lower = tuple([tuple(map(at, g)) for g in spec.lower])
    return LeafSpec(spec.arity, tuple(map(at, spec.colours)), lower, tuple(map(at, spec.chain)), at(spec.target))


def _read_through(U, S, first, plan, what, reader=None):
    """Fill U's label tables from dimension ``first`` up, then its
    composition, by reading S.  A site over the arity a reads S at
    ``plan(a)``: S's arity key and a ``LeafSpec`` in a's own addresses,
    whose key reads the site's assignment, or ``reader(asg)`` if given.
    U's dimension d reads S's dimension d + S.n - U.n.  A missing label
    set or composition table raises ``KeyError`` with ``what`` and S's
    key, except that a nullary site without a table is skipped: no unit
    in S, none in U."""
    shift = S.n - U.n

    def plans(d):
        pool = enumerate_arities(d, U.arity_bound, U.variance)
        return pool, {canonical_key(a): plan(a) for a in pool}

    for d in range(first, U.n + 1):
        table, source = U.table(d), S.table(d + shift)
        pool, at = plans(d)
        for _, _, ak, asg, key in stratum_sites(U, d, pool):
            sk, spec = at[ak]
            skey = (sk, whole_key(spec, asg.__getitem__ if reader is None else reader(asg)))
            try:
                table[(ak, key)] = source[skey]
            except KeyError:
                raise KeyError(f"{what}: {skey}") from None
    pool, at = plans(U.n + 1)
    for P, _, ak, asg, lk, _ in composition_sites(U, pool):
        sk, spec = at[ak]
        skey = (sk, lower_key(spec, asg.__getitem__ if reader is None else reader(asg)))
        entry = S.composition.get(skey)
        if entry is None:
            if P.top == 0:
                continue  # no unit in S; none here either
            raise KeyError(f"{what}: {skey}")
        U.composition[(ak, lk)] = dict(entry)


# ---------------------------------------------------------------------------
# delooping


def flatten(l1, l0):
    """Merge two adjacent index levels into one.

    ``l1`` hangs over some spine and ``l0`` hangs over the bracket of
    the first entry of ``l1``.  The result hangs over the same spine as
    ``l1``: its entry at position i concatenates, over the elements j of
    the i-th entry of ``l1``, the entry of ``l0`` at the bracket
    position where j pulls back along the composite of the first i maps
    of ``l1``; its maps act blockwise by the matching composites of the
    maps of ``l0``.
    """
    if len(l0.sizes) != l1.sizes[0] + 1:
        raise ValueError("bottom level must hang over the first entry of the middle one")

    def composite(lo, hi):
        table = list(range(1, l0.sizes[lo] + 1))
        for i in range(lo, hi):
            table = [l0.maps[i][v - 1] for v in table]
        return table

    blocks = []
    comp = list(range(1, l1.sizes[0] + 1))
    for i, size in enumerate(l1.sizes):
        if i > 0:
            comp = [l1.maps[i - 1][v - 1] for v in comp]
        blocks.append([sum(1 for v in comp if v <= j) for j in range(1, size + 1)])
    sizes = tuple(sum(l0.sizes[b] for b in blk) for blk in blocks)
    maps = []
    for i in range(1, len(l1.sizes)):
        offs = [0]
        for b in blocks[i]:
            offs.append(offs[-1] + l0.sizes[b])
        table = [0] * sizes[i - 1]
        pos = 0
        for k in range(1, l1.sizes[i - 1] + 1):
            j = l1.maps[i - 1][k - 1]
            step = composite(blocks[i - 1][k - 1], blocks[i][j - 1])
            for v in step:
                table[pos] = offs[j - 1] + v
                pos += 1
        maps.append(tuple(table))
    return Level(sizes, tuple(maps))


def _flattened(a):
    """The one-lower arity obtained by merging the two bottom levels."""
    if a.k < 2:
        raise ValueError("nothing to flatten below dimension 2")
    if a.k == 2:
        return Arity(1, sum(a.levels[0].sizes[1:]), ())
    return Arity(a.k - 1, a.top, (flatten(a.levels[1], a.levels[0]),) + a.levels[2:])


def _fl_tau(a):
    """(flattened arity key, flattened layout, address map) pairing the
    flattened layout's boundary with the one-level-up addresses of the
    original layout."""
    fla = _flattened(a)
    lay, layf = layout(a), layout(fla)
    tau = {}
    if a.k == 2:
        if layf.colour_count != len(lay.chain_addrs) + 1:
            raise AssertionError("flattening input count mismatch")
        for i, ad in enumerate(lay.chain_addrs):
            tau[("c", i)] = ad
        tau[("c", layf.colour_count - 1)] = lay.target_addr
        return canonical_key(fla), layf, tau
    if layf.colour_count != len(lay.atoms[1]):
        raise AssertionError("flattening colour count mismatch")
    for i in range(layf.colour_count):
        tau[("c", i)] = lay.atoms[1][i].address
    for nu in range(1, fla.k):
        ups, downs = lay.atoms[nu + 1], layf.atoms[nu]
        if len(ups) != len(downs):
            raise AssertionError(f"flattening atom count mismatch at level {nu}")
        for up, down in zip(ups, downs):
            if _flattened(up.spec.arity) != down.spec.arity:
                raise AssertionError("flattening atom shape mismatch")
            tau[down.address] = up.address
    if [tau[ad] for ad in layf.chain_addrs] != list(lay.chain_addrs):
        raise AssertionError("flattening chain order mismatch")
    if tau[layf.target_addr] != lay.target_addr:
        raise AssertionError("flattening target mismatch")
    return canonical_key(fla), layf, tau


def _flattening(a):
    """The delooping plan of ``a``: the flattened arity key, and the
    flattened layout's spec in ``a``'s addresses (:func:`_fl_tau`)."""
    akf, layf, tau = _fl_tau(a)
    return akf, _mapped(layf.spec, tau.__getitem__)


def deloop_support(n, bound):
    """The arity pool at which a dimension-n source must be tabulated so
    it can be delooped at the given bound.

    Flattening the two bottom index levels concatenates entries, so the
    source is consulted past its nominal bound; the pool is the closure
    of all those flattened arities under taking boundary atoms, keyed by
    dimension.  Pass it as ``extra`` when building the source.
    """
    pool = {}
    stack = []
    for d in range(2, n + 3):
        stack.extend(_flattened(a) for a in enumerate_arities(d, bound, SYMMETRIC))
    seen = set()
    while stack:
        a = stack.pop()
        ck = canonical_key(a)
        if ck in seen:
            continue
        seen.add(ck)
        pool.setdefault(a.k, []).append(a)
        if a.k >= 2:
            for ats in layout(a).atoms.values():
                stack.extend(at.spec.arity for at in ats)
    return {k: tuple(sorted(v, key=canonical_key)) for k, v in pool.items()}


@gc_paused
def deloop(V, base="*", bound=None):
    """The one-higher presentation reading V's tables through flattening.

    The result keeps V's colour depth: it gains a single new colour at
    dimension 0, carries the colours of V as its dimension-1 labels over
    every arity, and looks every higher table up in V at the flattened
    arity with the boundary transported down one level.  V must be
    tabulated over :func:`deloop_support` of the output bound.
    """
    if V.variance != SYMMETRIC:
        raise ValueError("delooping needs the symmetric variance")
    if bound is None:
        bound = V.arity_bound
    U = _coloured(V.n + 1, SYMMETRIC, V.colour_depth, bound, (base,))
    obs = tuple(V.label_set(0))
    sites = stratum_sites(U, 1, enumerate_arities(1, bound, SYMMETRIC))
    U.table(1).update(((ak, key), obs) for _, _, ak, _, key in sites)
    _read_through(U, V, 2, _flattening, "flattening exceeds the tabulated arities")
    return U


# ---------------------------------------------------------------------------
# comparison with the one-object categorical deloop


def _table_diffs(name, left, right, viol):
    for key in sorted(set(left) | set(right), key=repr):
        lv, rv = left.get(key), right.get(key)
        if lv != rv:
            viol.append(Violation("structural-equality", name, (key,), lv, rv))


def deloop_compare(M, m, bound=2):
    """Compare the two routes from a discrete monoidal category to an
    (m+1)-dimensional presentation: corepresent m times then deloop,
    against corepresenting the one-object deloop m+1 times (restricted
    to its only object, which only adjusts the colour-depth record).
    """
    if m not in (0, 1):
        raise ValueError("comparison implemented for one corepresentation step")
    if m == 0:
        left = deloop(monoidal_as_dim0(M, bound, extra=deloop_support(0, bound)), bound=bound)
    else:
        left = deloop(theta(M, bound, extra=deloop_support(1, bound)), bound=bound)
    right = theta_iter(one_object_deloop(M), m + 1, bound)
    right = replace(right, colour_depth=m)
    viol = []
    for field in ("n", "variance", "colour_depth", "arity_bound"):
        lv, rv = getattr(left, field), getattr(right, field)
        if lv != rv:
            viol.append(Violation("structural-equality", field, (), lv, rv))
    for d in sorted(set(left.strata) | set(right.strata)):
        _table_diffs(f"stratum-{d}", left.strata.get(d, {}), right.strata.get(d, {}), viol)
    _table_diffs("top", left.top_mul, right.top_mul, viol)
    _table_diffs("composition", left.composition, right.composition, viol)
    return ValidationReport(viol)


# ---------------------------------------------------------------------------
# graded refinement of the colours


def detheorize_T(U, colours=None):
    """Refine dimension-0 colours into degree-graded pairs.

    ``colours`` maps each colour of U to the tuple of names graded over
    it; the result has pair colours (colour, name) and all higher label
    sets and composition entries read off U through the first
    projection.  An empty modification returns U itself.
    """
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
    _read_through(
        T, U, 1, lambda a: (canonical_key(a), layout(a).spec), "base table misses projected boundary",
        lambda asg: lambda ad: asg[ad][0] if ad[0] == "c" else asg[ad],  # a colour's base colour
    )
    return T


# ---------------------------------------------------------------------------
# endomorphism theory


def _suspend(b):
    """The one-higher arity hanging an arity over a single colour chain."""
    m = b.levels[0].sizes[0] if b.k >= 2 else b.top
    bottom = Level((1,) * (m + 1), ((1,),) * m)
    return Arity(b.k + 1, b.top, (bottom,) + b.levels)


def _suspension(b):
    """The endomorphism plan of ``b``: its suspension's arity key and spec
    in b's addresses.  The level-1 atoms are b's colours, each higher
    atom is b's atom one level down, and the suspension's own colours
    read the address ``("fixed",)``."""
    lay, sus = layout(b), layout(_suspend(b))
    if [*map(len, sus.atoms.values())] != [lay.colour_count, *map(len, lay.atoms.values())]:
        raise AssertionError("suspension atom count mismatch")

    def down(ad):
        if ad[0] == "c":
            return ("fixed",)
        return ("c", ad[2]) if ad[1] == 1 else ("a", ad[1] - 1, ad[2])

    if b.k > 1 and tuple(map(down, sus.chain_addrs)) != lay.chain_addrs:
        raise AssertionError("suspension chain order mismatch")
    return canonical_key(sus.arity), _mapped(sus.spec, down)


def endo_planar(T, x):
    """The planar endomorphism theory of a colour: one dimension lower,
    with every datum read off the suspended arities at that colour."""
    if T.n < 1:
        raise ValueError("needs dimension >= 1")
    if x not in T.label_set(0):
        raise ValueError("not a colour")
    V = _coloured(T.n - 1, PLANAR, T.n - 1, T.arity_bound, T.label_set(1, canonical_key(Arity(1, 1, ())), ((x, x),)))
    _read_through(V, T, 1, _suspension, "base table misses suspended boundary", lambda asg: {**asg, ("fixed",): x}.__getitem__)
    return V

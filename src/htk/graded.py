"""Degree-graded refinements of theory presentations.

A graded presentation refines a base presentation of dimension n by a
set-valued layer: a set of objects over every colour, a fibre over every
multimap label at every graded boundary, and a composition table whose
entries refine the base's entries.  Equivalently (and this file leans on
the equivalence throughout) it is a presentation whose labels are pairs
(degree, fibre element) together with the first-projection morphism onto
the base; ``to_projection`` / ``from_projection`` convert between the
two forms without enumeration, because the graded boundary keys are by
construction exactly the pair theory's boundary keys.

Dimension 0 is an ordinary dimension here, as in ``theory``: the fibres
over base colours are the dimension-0 table, read through
:meth:`GradedTheoryPresentation.table` and stored by :func:`_graded`,
and every composition site is keyed through ``theory.site_slots``, so
the same code serves a base of any dimension.  Only the storage differs:
over a 0-dimensional base, dimension 0 is the top, and its fibres sit in
``top_mul`` where the file format puts them.

The functorial operations are ``pullback`` along a base morphism, the
dependent sum ``push_left`` along a projection, and the dependent
product ``push_right`` into the corepresented one-higher base.  The
right push is tabulated from a set-level section formula (an
implementation theorem derived for this code base, checked in the tests
exclusively through its mapping universal property): an object over a
base colour is a section choosing a fibre element over every object of
the middle layer; a fibre element over a one-dimensional degree is a
section choosing, over every refinement of the boundary objects, a
compatible pair of a middle-layer label and a fibre element over it; and
the top compatibility sets are singletons precisely when every boundary
refinement composes consistently on both layers.  The formula is
tabulated for bases of dimension at most one, which covers every desk
check here.

``convolve`` composes two gradings over a common base into a grading
over the corepresented pair base by a pull-push composite through the
terminal grading, keeping the dimension bookkeeping flat until the final
right push raises it by one.  The algebra presentations at the end of
the file describe actions of a corepresented presentation directly; they
validate through a pair theory one dimension higher than the graded
route, so the two counting routes of the structure theorems share no
table-building code.
"""

from dataclasses import dataclass
from itertools import product

from .arity import canonical_key, enumerate_arities, layout
from .constructions import detheorize_T, theta
from .theory import (
    DIM0_KEY,
    POINT,
    SKIP,
    TheoryMorphism,
    TheoryPresentation,
    ValidationReport,
    Violation,
    _arity_of_key,
    _coloured,
    build_theory,
    composition_sites,
    enumerate_morphisms,
    gc_paused,
    image_key,
    key_assignment,
    lower_key,
    map_assignment,
    map_key,
    site_inputs,
    site_slots,
    stratum_sites,
    validate_morphism,
    validate_theory,
    whole_key,
)


@dataclass(frozen=True)
class GradedTheoryPresentation:
    """A set-valued refinement of a base presentation.

    ``objects`` maps base colours to tuples; ``strata[d]`` and
    ``top_mul`` map ``(arity key, graded boundary key)`` to dicts from
    base degrees to fibre tuples; ``composition`` maps ``(arity key,
    graded lower key)`` to dicts from input pair tuples to output pairs,
    each pair (degree, fibre element).  Graded keys have the shape of the
    base's boundary keys with every entry replaced by such a pair.

    Dimension 0 is the top when the base is 0-dimensional, so there the
    fibres over base elements live in ``top_mul[DIM0_KEY]`` and
    ``objects`` is empty.  Code reads the fibres of every dimension
    through :meth:`table` and stores them through :func:`_graded`,
    whatever the base's dimension.
    """

    base: TheoryPresentation
    objects: dict
    strata: dict
    top_mul: dict
    composition: dict

    @property
    def n(self):
        return self.base.n

    def table(self, d):
        """The fibre table of dimension d, keyed like the base's tables:
        dimension 0 holds one entry, under ``DIM0_KEY``."""
        if d == self.base.n:
            return self.top_mul
        return {DIM0_KEY: self.objects} if d == 0 else self.strata.get(d, {})

    def fibre(self, d, akey="", tkey=(), v=None):
        return self.table(d).get((akey, tkey), {}).get(v, ())


def _graded(base, tables, composition):
    """The graded presentation with fibre tables ``tables[d]`` for
    0 <= d <= n, keyed as :meth:`GradedTheoryPresentation.table` reads
    them.  The one place that decides where the dimension-0 fibres are
    stored: in ``objects``, or in ``top_mul`` when dimension 0 is the
    top."""
    n = base.n
    objects = tables[0][DIM0_KEY] if n else {}
    return GradedTheoryPresentation(base, objects, {d: tables[d] for d in range(1, n)}, tables[n], composition)


def _project_key(gkey, d):
    """The base boundary key under a graded one (first projection)."""
    return map_key(lambda nu, pair: pair[0], gkey, d)


class _Graph:
    """The graph of a morphism p out of ``source``: ``act`` returns the
    pair (p's image, label), so the :func:`theory.image_key` of a table
    key is its graded key."""

    def __init__(self, source, p):
        self.source = source
        self.act = lambda d, akey, tkey, label: (p.act(d, akey, tkey, label), label)


# ---------------------------------------------------------------------------
# the projection equivalence


def to_projection(X):
    """The pair theory of a graded presentation with its projection.

    Labels are the (degree, fibre element) pairs already indexing the
    graded tables, so this is a pure reshape; the inverse direction is
    :func:`from_projection`.
    """
    base = X.base
    n = base.n
    Y = _coloured(n, base.variance, n, base.arity_bound, ())
    actions = {}
    for d in range(n + 1):
        actions[d] = {}
        for (ak, gkey), fib in X.table(d).items():
            labs = tuple(
                (v, y)
                for v in base.label_set(d, ak, _project_key(gkey, d))
                for y in fib.get(v, ())
            )
            Y.table(d)[(ak, gkey)] = labs
            actions[d][(ak, gkey)] = {lab: lab[0] for lab in labs}
    Y.composition.update((k, dict(v)) for k, v in X.composition.items())
    return Y, TheoryMorphism(Y, base, actions)


def from_projection(Y, p):
    """The graded presentation of a presentation over a projection.

    ``p`` is any strict morphism out of Y; its fibres over the target's
    labels become the graded data, with Y's own labels as the fibre
    elements.  Inverse to :func:`to_projection` up to relabelling the
    fibres by second projection.
    """
    base = p.target
    g = _Graph(Y, p)
    tables = {}
    for d in range(Y.n + 1):
        tables[d] = table = {}
        for (ak, skey), labs in Y.table(d).items():
            gkey = image_key(g, ak, skey)
            table[(ak, gkey)] = {
                v: tuple(y for y in labs if p.act(d, ak, skey, y) == v)
                for v in base.label_set(d, ak, _project_key(gkey, d))
            }
    comp = {}
    for (ak, lk), entry in Y.composition.items():
        comp[(ak, image_key(g, ak, lk))] = graded = {}
        if entry:
            lay = layout(_arity_of_key(ak, Y.arity_bound))
            keys = site_slots(lay, key_assignment(lay.spec, lk).__getitem__)()
            for ins, out in entry.items():
                graded[tuple((p.act(*key, y), y) for key, y in zip(keys, ins))] = (p.act(*keys[-1], out), out)
    return _graded(base, tables, comp)


def validate_graded(X, bound=None):
    """Typing of the graded tables plus full validation of the pair
    theory and its projection morphism."""
    base = X.base
    zero = X.table(0).get(DIM0_KEY, {})
    viol = [Violation("grading-typing", "", (u,), "base colour", u) for u in zero if u not in base.label_set(0)]
    for d in range(1, base.n + 1):
        for (ak, gkey), fib in X.table(d).items():
            degrees = base.label_set(d, ak, _project_key(gkey, d))
            for v in fib:
                if v not in degrees:
                    viol.append(Violation("grading-typing", ak, (gkey, v), tuple(degrees), v))
    if viol:
        return ValidationReport(viol)
    Y, p = to_projection(X)
    return _pair_report(Y, p, bound)


def _pair_report(Y, p, bound):
    """Theory report first; the morphism check only runs on a closed
    pair theory (it indexes through the label tables)."""
    r1 = validate_theory(Y, bound)
    if r1.violations:
        return r1
    r2 = validate_morphism(p, bound)
    return ValidationReport(r1.violations + r2.violations, r1.warnings + r2.warnings)


def relabel_graded(X, obj_map, lab_map):
    """Rename objects and fibre elements throughout a graded presentation.

    ``obj_map(colour, object)`` and ``lab_map(d, degree, element)`` must
    be injective slotwise; keys are rewritten structurally, so no layout
    walks are needed.  Over a 0-dimensional base the elements are labels
    of the top dimension, so ``lab_map(0, ...)`` renames them.
    """
    n = X.base.n

    def rp(d, pair):
        u, x = pair
        return (u, obj_map(u, x) if d == 0 < n else lab_map(d, u, x))

    tables = {
        d: {
            (ak, map_key(rp, gk, d)): {v: tuple(rp(d, (v, y))[1] for y in ys) for v, ys in fib.items()}
            for (ak, gk), fib in X.table(d).items()
        }
        for d in range(n + 1)
    }
    comp = {}
    for (ak, glk), entry in X.composition.items():
        comp[(ak, map_key(rp, glk, n + 1))] = {
            tuple(rp(n, e) for e in ins): rp(n, out) for ins, out in entry.items()
        }
    return _graded(X.base, tables, comp)


# ---------------------------------------------------------------------------
# morphism plumbing


def compose_morphisms(G, F):
    """The composite morphism applying F and then G."""
    if F.target != G.source:
        raise ValueError("morphisms do not compose")
    actions = {d: {} for d in range(F.source.n + 1)}
    for d, table in actions.items():
        for (ak, skey), mp in F.actions.get(d, {}).items():
            mkey = image_key(F, ak, skey)
            table[(ak, skey)] = {a: G.act(d, ak, mkey, b) for a, b in mp.items()}
    return TheoryMorphism(F.source, G.target, actions)


def morphism_from_maps(S, T, label_map):
    """Assemble a morphism from one per-label rule.

    ``label_map(d, arity key, source key, translated target key, label)``
    returns the image label, the colours' at d = 0 with keys ``""`` and
    ``()``; translated keys are computed with the part of the morphism
    already built, so the rule only sees well-typed target boundaries.
    """
    actions = {}
    F = TheoryMorphism(S, T, actions)
    for d in range(S.n + 1):
        actions[d] = {}
        for (ak, skey), labs in S.table(d).items():
            tkey = image_key(F, ak, skey)
            actions[d][(ak, skey)] = {lab: label_map(d, ak, skey, tkey, lab) for lab in labs}
    return F


def theta_morphism(F, bound=None):
    """Corepresent a morphism: same actions below, singletons on top."""
    S2, T2 = theta(F.source, bound), theta(F.target, bound)
    actions = {d: {k: dict(v) for k, v in tab.items()} for d, tab in F.actions.items()}
    actions[F.source.n + 1] = {
        key: {POINT: POINT} for key, labs in S2.top_mul.items() if labs
    }
    return TheoryMorphism(S2, T2, actions)


# ---------------------------------------------------------------------------
# building graded presentations through their pair theories


def _graded_pair_theory(base, objects, fibre_rule, comp_rule, bound=None):
    """Saturate the pair theory of a graded presentation; returns its
    graded form.

    ``fibre_rule(d, arity, lay, asg, degree)`` yields the fibre over a
    degree at a pair-labelled boundary; ``comp_rule(arity, lay, asg,
    out degree, inputs)`` yields the fibre part of a composite (or
    ``SKIP``).  The base degree of every composite is forced by the
    base's own table; lower keys the base does not declare are skipped
    wholesale.
    """
    bound = base.arity_bound if bound is None else bound
    pairs = tuple((u, x) for u in base.label_set(0) for x in objects.get(u, ()))

    def lrule(d, ar, lay, asg):
        bkey = whole_key(lay.spec, lambda ad: asg[ad][0])
        out = []
        for v in base.label_set(d, canonical_key(ar), bkey):
            out.extend((v, y) for y in fibre_rule(d, ar, lay, asg, v))
        return tuple(out)

    def crule(P, lay, asg, inputs):
        bentry = base.composition.get((canonical_key(P), lower_key(lay.spec, lambda ad: asg[ad][0])))
        if bentry is None:
            return SKIP
        v = bentry[tuple(e[0] for e in inputs)]
        y = comp_rule(P, lay, asg, v, inputs)
        return SKIP if y is SKIP else (v, y)

    return _graded_from_pairs(base, build_theory(base.n, base.variance, bound, pairs, lrule, crule))


def _graded_from_pairs(base, Y):
    """Reshape a pair theory (labels already pairs) into graded form."""
    tables = {
        d: {
            (ak, gkey): {
                v: tuple(y for v2, y in labs if v2 == v)
                for v in base.label_set(d, ak, _project_key(gkey, d))
            }
            for (ak, gkey), labs in Y.table(d).items()
        }
        for d in range(base.n + 1)
    }
    return _graded(base, tables, {k: dict(v) for k, v in Y.composition.items()})


# ---------------------------------------------------------------------------
# stock gradings


def terminal_graded(U, objects=None, bound=None):
    """Singleton fibres over a chosen object family (default: one
    object per colour)."""
    if U.n == 0:
        if objects is None:
            objects = {a: (POINT,) for a in U.label_set(0)}
        return _graded_pair_theory(
            U, objects, None, lambda P, lay, asg, v, inputs: objects[v][0], bound
        )
    if objects is None:
        objects = {u: ("*",) for u in U.label_set(0)}
    return _graded_pair_theory(
        U,
        objects,
        lambda d, ar, lay, asg, v: (POINT,),
        lambda P, lay, asg, v, inputs: POINT,
        bound,
    )


def product_graded(U, k, bound=None):
    """Every fibre a fixed k-element set, composing by addition mod k."""
    labs = tuple(range(k))
    objects = {u: labs for u in U.label_set(0)}
    return _graded_pair_theory(
        U,
        objects,
        lambda d, ar, lay, asg, v: labs,
        lambda P, lay, asg, v, inputs: sum(e[1] for e in inputs) % k,
        bound,
    )


# ---------------------------------------------------------------------------
# pullback and the two pushes


def pullback(F, X, bound=None):
    """Restring a graded presentation along a base morphism."""
    base2 = F.source
    if F.target != X.base:
        raise ValueError("the morphism must land in the grading base")
    objects = {u: X.fibre(0, v=F.act(0, "", (), u)) for u in base2.label_set(0)}

    def translate(lay, asg):
        imgs = map_assignment(F, lay, {ad: v for ad, (v, _) in asg.items()})
        return {ad: (img, asg[ad][1]) for ad, img in imgs.items()}

    def frule(d, ar, lay, asg, v):
        tasg = translate(lay, asg)
        w = F.act(d, canonical_key(ar), whole_key(lay.spec, lambda ad: asg[ad][0]), v)
        return X.fibre(d, canonical_key(ar), whole_key(lay.spec, tasg.__getitem__), w)

    def crule(P, lay, asg, v, inputs):
        tasg = translate(lay, asg)
        entry = X.composition.get((canonical_key(P), lower_key(lay.spec, tasg.__getitem__)))
        if entry is None:
            return SKIP
        out = entry.get(tuple(map(tasg.__getitem__, lay.spec.chain)))
        return SKIP if out is None else out[1]

    return _graded_pair_theory(base2, objects, frule, crule, bound)


def push_left(V, Y):
    """Sum a grading of the pair theory of V down to V's own base."""
    VP, p = to_projection(V)
    if Y.base != VP:
        raise ValueError("the pushed presentation must be graded over the pair theory")
    YB, q = to_projection(Y)
    return from_projection(YB, compose_morphisms(p, q))


def graded_morphisms(A, B, bound=None, budget=2_000_000):
    """All morphisms of gradings over a shared base: pair-theory
    morphisms commuting with the projections.  The search runs fibre by
    fibre: each label's image is drawn from the target labels of the
    same degree (see :func:`enumerate_morphisms`)."""
    if A.base != B.base:
        raise ValueError("graded morphisms need a shared base")
    Y1, p1 = to_projection(A)
    Y2, p2 = to_projection(B)
    return enumerate_morphisms(Y1, Y2, bound, budget, over=(p1, p2))


def theta_graded(X, bound=None):
    """Corepresent a grading: the graded form of the corepresented
    projection morphism, over the corepresented base."""
    Y, p = to_projection(X)
    F = theta_morphism(p, bound)
    return from_projection(F.source, F)


def _pr_sections(vals, fibres):
    """All total choice functions, as tuples of (point, choice)."""
    return tuple(tuple(zip(vals, ch)) for ch in product(*fibres))


def push_right(V, X, bound=None):
    """The dependent product of X along V, graded over the
    corepresented base (the section formula from the module docstring).

    V is graded over a base U of dimension at most one and X over the
    pair theory of V; the result is graded over the corepresentation of
    U, one dimension up.
    """
    U = V.base
    m = U.n
    if m > 1:
        raise ValueError("right push is tabulated for bases of dimension <= 1")
    VP, _ = to_projection(V)
    if X.base != VP:
        raise ValueError("the pushed presentation must be graded over the pair theory")
    UU = theta(U, bound)
    objects = {}
    for u in U.label_set(0):
        vs = V.fibre(0, v=u)
        objects[u] = _pr_sections(vs, [X.fibre(0, v=(u, v)) for v in vs])
    if m == 0:
        def frule(d, ar, lay, asg, lam):
            k = ar.top
            us = [asg[("c", i)][0] for i in range(k + 1)]
            sigs = [dict(asg[("c", i)][1]) for i in range(k + 1)]
            ak = canonical_key(ar)
            ventry = V.composition.get((ak, ()))
            xentry = X.composition.get((ak, ()))
            if ventry is None or xentry is None:
                return ()
            for om in product(*[V.fibre(0, v=us[i]) for i in range(k)]):
                vout = ventry.get(tuple((us[i], om[i]) for i in range(k)))
                if vout is None:
                    return ()
                xout = xentry.get(tuple(((us[i], om[i]), sigs[i][om[i]]) for i in range(k)))
                if xout is None:
                    return ()
                if sigs[k].get(vout[1]) != xout[1]:
                    return ()
            return (POINT,)

    else:
        def frule(d, ar, lay, asg, deg):
            if d == 1:
                return _pr_tau_fibre(V, X, ar, lay, asg, deg)
            return _pr_compat(V, X, ar, lay, asg)

    return _graded_pair_theory(UU, objects, frule, lambda P, lay, asg, v, inputs: POINT, bound)


def _pr_tau_fibre(V, X, ar, lay, asg, lam):
    """Sections over boundary refinements: per refinement a middle-layer
    label over the degree plus a fibre element of X over it."""
    ak = canonical_key(ar)
    k = ar.top
    us = [asg[("c", i)][0] for i in range(k + 1)]
    sigs = [dict(asg[("c", i)][1]) for i in range(k + 1)]
    omegas = list(product(*[V.objects.get(u, ()) for u in us]))
    options = []
    for om in omegas:
        vcols = tuple((us[i], om[i]) for i in range(k + 1))
        xcols = tuple(((us[i], om[i]), sigs[i][om[i]]) for i in range(k + 1))
        opts = [
            (w, z)
            for w in V.fibre(1, ak, (vcols,), lam)
            for z in X.fibre(1, ak, (xcols,), (lam, w))
        ]
        if not opts:
            return ()
        options.append(opts)
    return tuple(tuple(zip(omegas, ch)) for ch in product(*options))


def _pr_compat(V, X, ar, lay, asg):
    """Singleton exactly when every boundary refinement composes
    consistently on both layers and lands on the target's section."""
    us = [asg[("c", i)][0] for i in range(lay.colour_count)]
    sigs = [dict(asg[("c", i)][1]) for i in range(lay.colour_count)]
    ak2 = canonical_key(ar)
    tat = lay.atom(lay.target_addr)
    chain_atoms = [lay.atom(ad) for ad in lay.chain_addrs]
    for Om in product(*[V.objects.get(u, ()) for u in us]):
        vasg = {("c", i): (us[i], Om[i]) for i in range(lay.colour_count)}
        ventry = V.composition.get((ak2, lower_key(lay.spec, vasg.__getitem__)))
        xasg = {("c", i): ((us[i], Om[i]), sigs[i][Om[i]]) for i in range(lay.colour_count)}
        xentry = X.composition.get((ak2, lower_key(lay.spec, xasg.__getitem__)))
        if ventry is None or xentry is None:
            return ()
        vins, xins = [], []
        ok = True
        for at in chain_atoms:
            lam_at, tau_at = asg[at.address]
            wz = dict(tau_at).get(tuple(Om[a[1]] for a in at.spec.colours))
            if wz is None:
                ok = False
                break
            vins.append((lam_at, wz[0]))
            xins.append(((lam_at, wz[0]), wz[1]))
        if not ok:
            return ()
        vout = ventry.get(tuple(vins))
        xout = xentry.get(tuple(xins))
        if vout is None or xout is None:
            return ()
        _, tau_t = asg[lay.target_addr]
        if dict(tau_t).get(tuple(Om[a[1]] for a in tat.spec.colours)) != (vout[1], xout[1]):
            return ()
    return (POINT,)


# ---------------------------------------------------------------------------
# convolution


@gc_paused
def convolve(X, Y, bound=None):
    """Combine two gradings over a common base into a grading over the
    corepresented pair base of the terminal grading on X's objects.

    A pull-push composite: regrade X over that pair base, pull Y back to
    it, and take the right push of the pulled-back grading along the
    regraded one; only the final step raises the dimension.
    """
    U = X.base
    if Y.base != U:
        raise ValueError("convolution needs a shared grading base")
    m = U.n
    if m > 1:
        raise ValueError("convolution is tabulated for bases of dimension <= 1")
    if m == 0:
        Tm = terminal_graded(U, bound=bound)
    else:
        Tm = terminal_graded(U, {u: X.objects.get(u, ()) for u in U.label_set(0)}, bound=bound)
    XP, _ = to_projection(X)
    TT, pT = to_projection(Tm)
    r = morphism_from_maps(XP, TT, lambda d, ak, sk, tk, l: (l[0], POINT) if d == m else l)
    Xr = from_projection(XP, r)
    A = pullback(pT, Y, bound)
    B = push_left(Tm, Xr)
    BP, _ = to_projection(B)
    Rm = morphism_from_maps(BP, TT, lambda d, ak, sk, tk, l: l[1][0])
    W = from_projection(BP, Rm)
    _, qW = to_projection(W)
    RA = pullback(qW, A, bound)
    return push_right(W, RA, bound)


# ---------------------------------------------------------------------------
# algebras of a corepresented presentation


def _colour_systems(U, budget):
    """All object systems with at most ``budget`` names in total."""
    cols = U.label_set(0)
    out = []
    for sizes in product(range(budget + 1), repeat=len(cols)):
        if not 0 < sum(sizes) <= budget:
            continue
        out.append({u: tuple(f"a{i}" for i in range(s)) for u, s in zip(cols, sizes) if s})
    return out


def enumerate_algebras(U, V, budget=2, colours=None, bound=None):
    """Pairs (colour system, morphism) presenting algebras: refine U's
    colours by the system and enumerate strict morphisms into V."""
    systems = [dict(colours)] if colours is not None else _colour_systems(U, budget)
    out = []
    for sys_ in systems:
        T = detheorize_T(U, sys_)
        for F in enumerate_morphisms(T, V, bound):
            out.append((sys_, F))
    return out


@dataclass(frozen=True)
class AlgebraPresentation:
    """An action of a corepresented presentation on indexed sets.

    For a two-dimensional ``over``: ``objects`` maps colours to tuples,
    ``fibres`` maps (unary arity key, pair colour boundary, degree) to
    tuples, and ``action`` maps (binary arity key, pair colours, chain
    degrees, target degree, top label) to dicts from input element
    tuples to output elements.  For a one-dimensional ``over``:
    ``fibres`` maps colours to tuples and ``action`` maps (unary arity
    key, colours including the forced output colour) to input/output
    dicts; ``objects`` is unused.
    """

    over: TheoryPresentation
    objects: dict
    fibres: dict
    action: dict


def _degree_monoid(W, bound=None):
    """Reconstruct the elements-and-composition core of a
    one-dimensional presentation with singleton-or-empty tables."""
    if W.n != 1:
        raise ValueError("needs a one-dimensional presentation")
    bound = W.arity_bound if bound is None else bound
    cols = W.label_set(0)
    comp = {}
    for P in enumerate_arities(1, bound, W.variance):
        ak = canonical_key(P)
        entry = {}
        for ins in product(cols, repeat=P.top):
            outs = [u for u in cols if W.label_set(1, ak, (ins + (u,),))]
            if len(outs) == 1:
                entry[ins] = outs[0]
        if P.top == 0 and not entry:
            continue
        comp[(ak, ())] = entry
    return TheoryPresentation(0, W.variance, 0, W.arity_bound, {}, {DIM0_KEY: cols}, comp)


def _algebra_pair_1(alg, bound):
    W = alg.over
    bound = W.arity_bound if bound is None else bound
    B = _degree_monoid(W, bound)
    elems = tuple((u, xi) for u in W.label_set(0) for xi in alg.fibres.get(u, ()))
    comp = {}
    for P in enumerate_arities(1, bound, W.variance):
        ak = canonical_key(P)
        bentry = B.composition.get((ak, ()))
        if bentry is None:
            continue
        entry = {}
        for ins in product(elems, repeat=P.top):
            us = tuple(e[0] for e in ins)
            u_out = bentry.get(us)
            if u_out is None:
                continue
            out = alg.action.get((ak, us + (u_out,)), {}).get(tuple(e[1] for e in ins))
            if out is not None:
                entry[ins] = (u_out, out)
        comp[(ak, ())] = entry
    Y = TheoryPresentation(0, W.variance, 0, W.arity_bound, {}, {DIM0_KEY: elems}, comp)
    return Y, TheoryMorphism(Y, B, {0: {DIM0_KEY: {e: e[0] for e in elems}}})


def _algebra_pair_2(alg, bound):
    W = alg.over
    bound = W.arity_bound if bound is None else bound
    cols = tuple((u, x) for u in W.label_set(0) for x in alg.objects.get(u, ()))
    Y = TheoryPresentation(2, W.variance, 2, W.arity_bound, {0: {DIM0_KEY: cols}, 1: {}}, {}, {})
    for _, _, ak, _, key in stratum_sites(Y, 1, enumerate_arities(1, bound, W.variance)):
        pc = key[0]
        Y.strata[1][(ak, key)] = tuple(
            (lam, xi)
            for lam in W.label_set(1, ak, (tuple(c[0] for c in pc),))
            for xi in alg.fibres.get((ak, pc, lam), ())
        )
    for _, lay, ak, asg, key in stratum_sites(Y, 2, enumerate_arities(2, bound, W.variance)):
        okey = tuple(asg[("c", i)] for i in range(lay.colour_count))
        lchain = tuple(asg[ad][0] for ad in lay.chain_addrs)
        xins = tuple(asg[ad][1] for ad in lay.chain_addrs)
        lam_t, xi_t = asg[lay.target_addr]
        Y.top_mul[(ak, key)] = tuple(
            mu
            for mu in W.label_set(2, ak, whole_key(lay.spec, lambda ad: asg[ad][0]))
            if alg.action.get((ak, okey, lchain, lam_t, mu), {}).get(xins) == xi_t
        )
    for _, lay, ak, asg, lk, slots in composition_sites(Y, enumerate_arities(3, bound, W.variance)):
        wentry = W.composition.get((ak, lower_key(lay.spec, lambda ad: asg[ad][0])))
        if wentry is not None:
            Y.composition[(ak, lk)] = {ins: wentry[ins] for ins in site_inputs(Y, slots)}
    actions = {
        0: {DIM0_KEY: {c: c[0] for c in cols}},
        1: {key: {lab: lab[0] for lab in labs} for key, labs in Y.strata[1].items()},
        2: {key: {mu: mu for mu in labs} for key, labs in Y.top_mul.items()},
    }
    return Y, TheoryMorphism(Y, W, actions)


def algebra_pair(alg, bound=None):
    """The pair theory of an algebra with its degree projection.

    Independent of the graded route: the pair theory lives one
    dimension above the acting presentation's base and reads the action
    tables directly.
    """
    if alg.over.n == 2:
        return _algebra_pair_2(alg, bound)
    if alg.over.n == 1:
        return _algebra_pair_1(alg, bound)
    raise ValueError("algebra presentations cover acting dimensions 1 and 2")


def validate_algebra(alg, bound=None):
    Y, q = algebra_pair(alg, bound)
    return _pair_report(Y, q, bound)


# ---------------------------------------------------------------------------
# bounded enumeration of presentations (for the counting theorems)


def enumerate_graded_presentations(U, objects, cap, bound=None):
    """All graded candidates over a base of dimension at most one: the
    fibres over every degree of every top-dimension site of the pair
    skeleton (the base's objects refined by ``objects``) get sizes up to
    ``cap``, composition degrees are forced by the base and fibre outputs
    are free; filter with :func:`validate_graded`.  Over a 0-dimensional
    base the top dimension is 0, so the element fibres vary and
    ``objects`` is unused.
    """
    n = U.n
    if n > 1:
        raise ValueError("implemented for bases of dimension <= 1")
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
            ends = site()
            shapes.append(((ak, lk), ends[:-1], ends[-1], bentry))
    keys = [key for key, *_ in shapes]
    for sizes in product(range(cap + 1), repeat=len(slots)):
        fibres = {key: {} for key in sites}
        for (key, v), s in zip(slots, sizes):
            fibres[key][v] = tuple(f"m{i}" for i in range(s))
        # one cell per input tuple; its choices are the target fibre
        cells, choices = [], []
        for key, chain, (_, tak, tgk), bentry in shapes:
            csets = [
                [(v, y) for v, ys in fibres.get((cak, cgk), {}).items() for y in ys]
                for _, cak, cgk in chain
            ]
            for ins in product(*csets):
                vout = bentry[tuple(e[0] for e in ins)]
                cells.append((key, ins, vout))
                choices.append(fibres.get((tak, tgk), {}).get(vout, ()))
            if () in choices:
                break
        for choice in product(*choices):
            comp = {key: {} for key in keys}
            for (key, ins, vout), y in zip(cells, choice):
                comp[key][ins] = (vout, y)
            tables = {n: dict(fibres)}
            tables.setdefault(0, {DIM0_KEY: dict(objects)})
            yield _graded(U, tables, comp)


def enumerate_algebra_presentations(W, objects, cap, bound=None):
    """All algebra candidates over a one- or two-dimensional acting
    presentation: fibre sizes up to ``cap`` on every slot and one total
    action map per shape (action key, input slots, output slot); filter
    with :func:`validate_algebra`.  In dimension 1 the slots are W's
    colours and the shapes its degree monoid's entries (``objects`` is
    unused).  In dimension 2 both come from the site walk of a pair
    skeleton: W's colours refined by ``objects``, with W's labels.
    """
    if W.n not in (1, 2):
        raise ValueError("implemented for acting dimensions 1 and 2")
    bound = W.arity_bound if bound is None else bound
    if W.n == 1:
        objects, slots = {}, W.label_set(0)
        shapes = [
            ((ak, us + (u_out,)), us, u_out)
            for (ak, _), entry in _degree_monoid(W, bound).composition.items()
            for us, u_out in entry.items()
        ]
    else:
        S = _coloured(2, W.variance, 2, W.arity_bound, ((u, x) for u in W.label_set(0) for x in objects.get(u, ())))

        def base_key(key):
            return (tuple(c[0] for c in key[0]),) + key[1:]

        slots = []
        for *_, ak, _, key in stratum_sites(S, 1, enumerate_arities(1, bound, W.variance)):
            S.strata[1][(ak, key)] = labs = W.label_set(1, ak, base_key(key))
            slots.extend((ak, key[0], lam) for lam in labs)
        shapes = []
        for _, lay, ak, asg, key in stratum_sites(S, 2, enumerate_arities(2, bound, W.variance)):
            *ins, out = [(ck, tuple(map(asg.__getitem__, spec.colours)), asg[ad]) for ad, _, ck, spec in lay.steps]
            shapes.extend(((ak, key[0], key[2], key[3], mu), ins, out) for mu in W.label_set(2, ak, base_key(key)))
    keys = [key for key, *_ in shapes]
    for sizes in product(range(cap + 1), repeat=len(slots)):
        fibres = {slot: tuple(f"m{i}" for i in range(s)) for slot, s in zip(slots, sizes)}
        options = []
        for _, ins, out in shapes:
            dom = list(product(*[fibres[slot] for slot in ins]))
            options.append([dict(zip(dom, outs)) for outs in product(fibres[out], repeat=len(dom))])
            if not options[-1]:
                break
        for combo in product(*options):
            yield AlgebraPresentation(W, dict(objects), fibres, dict(zip(keys, combo)))

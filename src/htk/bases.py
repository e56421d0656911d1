"""Grading bases beyond finite sets, and one-dimensional theories over them.

A *base skeleton* here is a finite symmetric monoidal category whose
objects and morphisms decompose freely and uniquely into indecomposable
pieces.  We hard-wire that freeness into the representation: an object
is a sorted tuple of generator names, and a morphism is a sorted tuple
of *anchored components*, each an instance of an indecomposable
morphism recording exactly which source and target slots it occupies.
Decomposing a morphism is reading off its components; recomposing is
sorting them back together.  The freeness conditions thereby become
finite slot-bookkeeping checks (:func:`validate_base`).

Two skeletons are tabulated.  :func:`bord1_skeleton` has words of
oriented points as objects and path components of one-dimensional
bordisms (intervals and circles) as morphism components.
:func:`cocorr_fin_skeleton` has finite sets as objects and one-vertex
blocks of finite-set cospans as components.  Each builds its own hom
tables and hands a pairwise composite rule to one tabulator
(:func:`_skeleton`), and the category laws of a skeleton and of a
finite category (:func:`validate_category`) are checked by one helper
(:func:`_category_laws`).

A theory graded by such a base (:class:`BGradedOneTheory`) assigns
colour sets to the indecomposable objects and label sets to the
indecomposable morphisms at each boundary colouring; its operations can
consume *and* produce several colours at once.  Over the cospan base
this is exactly a coloured properad (:func:`properad_adapter`), and
over the bordism base every finite category yields such a theory
(:func:`zc_build`) whose degree-preserving points are enumerated by
:func:`field_theories`.

Implementation theorem (derived for this code base, checked in the
tests against independent enumeration): the field theories of the
theory built from a finite category C are in bijection with the
isomorphism arrows of C.  In particular their number equals the number
of objects of C exactly when every isomorphism in C is an identity.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, islice, permutations, product
from math import inf, prod

from .theory import POINT, ValidationReport, Violation


# ---------------------------------------------------------------------------
# finite categories (inputs for the bordism-graded construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CategoryPresentation:
    """A finite category as labelled hom tables.

    ``compose`` maps ``((x, y, z), (f, g))`` with ``f: x -> y`` and
    ``g: y -> z`` to the composite arrow ``x -> z``.
    """

    objects: tuple
    hom: dict
    identity: dict
    compose: dict


def _category_laws(objects, hom, identity, compose, assoc_cap):
    """Identity, composite-typing, unit and associativity violations of
    hom tables with a composition table that may be partial.

    Associativity walks the tabulated composites in insertion order and
    checks each instance whose composites are all tabulated; it stops at
    the first composite reached after more than ``assoc_cap`` instances.
    """
    v = []
    for x in objects:
        i = identity.get(x)
        if i is None or i not in hom.get((x, x), ()):
            v.append(Violation("identity", (x, x), x, "identity morphism", i))

    for ((a, b, c), (f, g)), h in compose.items():
        if f not in hom.get((a, b), ()) or g not in hom.get((b, c), ()) or h not in hom.get((a, c), ()):
            v.append(Violation("composition-typing", (a, b, c), (f, g), "tabulated morphisms", h))

    for (a, b), fs in hom.items():
        ia, ib = identity.get(a), identity.get(b)
        for f in fs:
            if ia is not None and compose.get(((a, a, b), (ia, f))) != f:
                v.append(Violation("unit", (a, b), f, f, compose.get(((a, a, b), (ia, f)))))
            if ib is not None and compose.get(((a, b, b), (f, ib))) != f:
                v.append(Violation("unit", (a, b), f, f, compose.get(((a, b, b), (f, ib)))))

    checked = 0
    for ((a, b, c), (f, g)), fg in compose.items():
        if checked > assoc_cap:
            break
        for d in objects:
            for k in hom.get((c, d), ()):
                gk = compose.get(((b, c, d), (g, k)))
                l = compose.get(((a, c, d), (fg, k)))
                if gk is None:
                    continue
                r = compose.get(((a, b, d), (f, gk)))
                checked += 1
                if l is not None and r is not None and l != r:
                    v.append(Violation("associativity", (a, b, c, d), (f, g, k), l, r))
    return v


def validate_category(C):
    """Exhaustive closure/identity/unit/associativity check on a finite category."""
    v = []
    for (x, y), fs in C.hom.items():
        for f in fs:
            for z in C.objects:
                for g in C.hom.get((y, z), ()):
                    if ((x, y, z), (f, g)) not in C.compose:
                        v.append(Violation("closure", (x, y, z), (f, g), "composite", None))
    v += _category_laws(C.objects, C.hom, C.identity, C.compose, inf)
    return ValidationReport(tuple(v), ())


def category_from_tables(objects, hom, identity, compose):
    return CategoryPresentation(tuple(objects), dict(hom), dict(identity), dict(compose))


def unit_category():
    return category_from_tables(
        ("*",), {("*", "*"): ("id",)}, {"*": "id"}, {(("*", "*", "*"), ("id", "id")): "id"}
    )


def discrete_finite_category(k):
    obs = tuple(f"x{i}" for i in range(k))
    hom = {(a, b): (("id",) if a == b else ()) for a in obs for b in obs}
    comp = {((a, a, a), ("id", "id")): "id" for a in obs}
    return category_from_tables(obs, hom, {a: "id" for a in obs}, comp)


def codiscrete_category(k):
    """Exactly one arrow between any ordered pair of objects."""
    obs = tuple(f"x{i}" for i in range(k))
    hom = {(a, b): ((a, b),) for a in obs for b in obs}
    comp = {((a, b, c), ((a, b), (b, c))): (a, c) for a in obs for b in obs for c in obs}
    return category_from_tables(obs, hom, {a: (a, a) for a in obs}, comp)


def walking_arrow():
    obs = ("a", "b")
    hom = {("a", "a"): ("id",), ("b", "b"): ("id",), ("a", "b"): ("f",), ("b", "a"): ()}
    comp = {
        (("a", "a", "a"), ("id", "id")): "id",
        (("b", "b", "b"), ("id", "id")): "id",
        (("a", "a", "b"), ("id", "f")): "f",
        (("a", "b", "b"), ("f", "id")): "f",
    }
    return category_from_tables(obs, hom, {"a": "id", "b": "id"}, comp)


def walking_idempotent():
    hom = {("*", "*"): ("id", "e")}
    comp = {
        (("*", "*", "*"), ("id", "id")): "id",
        (("*", "*", "*"), ("id", "e")): "e",
        (("*", "*", "*"), ("e", "id")): "e",
        (("*", "*", "*"), ("e", "e")): "e",
    }
    return category_from_tables(("*",), hom, {"*": "id"}, comp)


def cyclic_group_category(k):
    """The cyclic group of order k as a one-object category."""
    hom = {("*", "*"): tuple(range(k))}
    comp = {(("*", "*", "*"), (a, b)): (a + b) % k for a in range(k) for b in range(k)}
    return category_from_tables(("*",), hom, {"*": 0}, comp)


def chain_category(k):
    """The poset 0 < 1 < ... < k-1 as a category."""
    obs = tuple(f"x{i}" for i in range(k))
    hom = {(obs[i], obs[j]): (((i, j),) if i <= j else ()) for i in range(k) for j in range(k)}
    comp = {
        ((obs[i], obs[j], obs[l]), ((i, j), (j, l))): (i, l)
        for i in range(k)
        for j in range(i, k)
        for l in range(j, k)
    }
    return category_from_tables(obs, hom, {obs[i]: (i, i) for i in range(k)}, comp)


def enumerate_categories(max_obj, max_arrows):
    """Yield every labelled finite category within the given size box.

    Objects are ``x0..x{k-1}``; arrow labels are positional.  The
    composition table is filled by backtracking; identity composites are
    forced up front, and they alone are associative.  After each choice
    only the composable triples that read the new composite, as fg, gh,
    l = (fg)h or r = f(gh), are checked for associativity: every other
    triple reads what it read when it last passed.
    """
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

            def holds(x, y, z, w, f, g, h):
                fg = comp.get(((x, y, z), (f, g)))
                gh = comp.get(((y, z, w), (g, h)))
                if fg is None or gh is None:
                    return True
                l = comp.get(((x, z, w), (fg, h)))
                r = comp.get(((x, y, w), (f, gh)))
                return l is None or r is None or l == r

            def touched(x, y, z, f, g):
                """The composable triples that read the composite of (f, g)."""
                for w in obs:
                    for h in hom[(z, w)]:
                        yield x, y, z, w, f, g, h
                    for e in hom[(w, x)]:
                        yield w, x, y, z, e, f, g
                    for a, b in product(hom[(x, w)], hom[(w, y)]):
                        if comp.get(((x, w, y), (a, b))) == f:
                            yield x, w, y, z, a, b, g
                    for b, c in product(hom[(y, w)], hom[(w, z)]):
                        if comp.get(((y, w, z), (b, c))) == g:
                            yield x, y, w, z, f, b, c

            def fill(i):
                if i == len(free):
                    yield category_from_tables(obs, hom, ident, comp)
                    return
                (x, y, z), (f, g) = free[i]
                for h in hom[(x, z)]:
                    comp[((x, y, z), (f, g))] = h
                    if all(holds(*t) for t in touched(x, y, z, f, g)):
                        yield from fill(i + 1)
                    del comp[((x, y, z), (f, g))]

            yield from fill(0)


# ---------------------------------------------------------------------------
# base skeletons with free decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasePresentation:
    """A finite monoidal skeleton in canonical free-decomposition form.

    ``objects`` are sorted tuples over ``ind_objects``.  A morphism is a
    sorted tuple of anchored components ``(kind, src_slots, tgt_slots)``.
    ``ind_morphisms`` maps the detached shape of a single component to
    its (source object, target object) signature.  ``compose`` maps
    ``((a, b, c), (f, g))`` with ``f: a -> b``, ``g: b -> c`` to the
    composite, and is partial where the composite leaves the tabulated
    bounds.
    """

    ind_objects: tuple
    objects: tuple
    morphisms: dict
    ind_morphisms: dict
    identity: dict
    compose: dict

    @cached_property
    def gluings(self):
        """The sorted shapes, and the first instance in ``compose`` order
        of each gluing class (:func:`_gluing_key`) as ``(inst,
        *_instance_places(...))``: what every field-theory search re-reads."""
        shapes = tuple(sorted(self.ind_morphisms))
        reps = {}
        for inst, h in self.compose.items():
            places = _instance_places(inst, h, shapes)
            reps.setdefault(_gluing_key(inst, h, places), (inst, *places))
        return shapes, tuple(reps.values())


def detached_shape(src_obj, tgt_obj, comp):
    """The indecomposable shape of an anchored component."""
    kind, ss, ts = comp
    if kind == "c":
        return ("c", len(ss), len(ts))
    return (kind, tuple(src_obj[i] for i in ss), tuple(tgt_obj[j] for j in ts))


def tensor_objects(o1, o2):
    """Merge two objects; returns the merge and both slot relocations."""
    tagged = [(s, 0, i) for i, s in enumerate(o1)] + [(s, 1, j) for j, s in enumerate(o2)]
    tagged.sort(key=lambda t: t[0])
    obj = tuple(s for s, _, _ in tagged)
    pos = {(side, i): p for p, (_, side, i) in enumerate(tagged)}
    return obj, pos


def tensor_morphisms(src1, tgt1, f1, src2, tgt2, f2):
    """Disjoint union of two morphisms with slots relocated into the merge."""
    src, spos = tensor_objects(src1, src2)
    tgt, tpos = tensor_objects(tgt1, tgt2)

    def move(side, comp):
        kind, ss, ts = comp
        return (
            kind,
            tuple(sorted(spos[(side, i)] for i in ss)),
            tuple(sorted(tpos[(side, j)] for j in ts)),
        )

    comps = [move(0, c) for c in f1] + [move(1, c) for c in f2]
    return src, tgt, tuple(sorted(comps))


def _skeleton(gens, objects, morphisms, kind, rule):
    """A skeleton tabulated from its hom-sets and a composite rule.

    The indecomposables are the one-component morphisms, and an
    object's identity is one ``kind`` component per slot.
    ``rule(a, b, c, f, g)`` gives the composite of ``f: a -> b`` and
    ``g: b -> c``, or None past the skeleton's bound, where the table
    stays partial.
    """
    ind = {detached_shape(s, t, m[0]): (s, t) for (s, t), ms in morphisms.items() for m in ms if len(m) == 1}
    identity = {obj: tuple((kind, (i,), (i,)) for i in range(len(obj))) for obj in objects}
    compose = {}
    for a in objects:
        for b in objects:
            for c in objects:
                for f in morphisms[(a, b)]:
                    for g in morphisms[(b, c)]:
                        h = rule(a, b, c, f, g)
                        if h is not None:
                            compose[((a, b, c), (f, g))] = h
    return BasePresentation(gens, objects, morphisms, ind, identity, compose)


def _classes(items, links):
    """The classes of ``items`` under the equivalence the pairs in
    ``links`` generate (union-find).  Each class lists its members in
    ``items`` order; classes come in the order of their first members."""
    parent = {i: i for i in items}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in links:
        parent[find(a)] = find(b)
    classes = {}
    for i in items:
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


# -- oriented points and one-dimensional bordisms ---------------------------


def _flow(side, sym):
    """Whether an interval end at a boundary slot is an inflow or outflow.

    ``side`` is "s" for the morphism's source boundary, "t" for its
    target; the orientation symbol of the point decides the direction.
    """
    if side == "s":
        return "in" if sym == "u" else "out"
    return "out" if sym == "u" else "in"


def _interval_ends(src_obj, tgt_obj, comp):
    """The (inflow, outflow) ends of an interval component.

    Each end is ``(side, slot)`` with side "s" or "t".  Returns None
    for components that do not have exactly one end of each direction.
    """
    ine = oute = None
    for side, obj, slots in (("s", src_obj, comp[1]), ("t", tgt_obj, comp[2])):
        for i in slots:
            if _flow(side, obj[i]) == "in":
                if ine is not None:
                    return None
                ine = (side, i)
            else:
                if oute is not None:
                    return None
                oute = (side, i)
    if ine is None or oute is None:
        return None
    return ine, oute


def _bord_chains(a, b, c, f, g):
    """Trace the intervals of a two-layer bordism composite.

    Returns ``(chains, loops)``.  A chain is a flow-ordered tuple of
    ``(owner, comp, in_port, out_port)`` starting and ending on the
    outer boundary; ports are ``("a", i)``, ``("b", i)`` or ``("c", i)``.
    Loops are the closed cycles created in the middle.
    """

    def port(owner, side, i):
        if owner == "f":
            return ("a", i) if side == "s" else ("b", i)
        return ("b", i) if side == "s" else ("c", i)

    nodes = []
    by_in = {}
    for owner, (so, to), mor in (("f", (a, b), f), ("g", (b, c), g)):
        for comp in mor:
            if comp[0] != "i":
                continue
            ends = _interval_ends(so, to, comp)
            ine, oute = ends
            node = (owner, comp, port(owner, *ine), port(owner, *oute))
            nodes.append(node)
            by_in[node[2]] = node

    chains, loops, seen = [], [], set()

    def walk(node):
        path = []
        while id(node) not in seen:
            seen.add(id(node))
            path.append(node)
            nxt = by_in.get(node[3])
            if nxt is None:
                return path, False
            node = nxt
        return path, True

    for node in nodes:
        if id(node) in seen or node[2][0] == "b":
            continue
        path, closed = walk(node)
        chains.append(tuple(path))
    for node in nodes:
        if id(node) not in seen:
            path, _ = walk(node)
            loops.append(tuple(path))
    return tuple(chains), tuple(loops)


@lru_cache(maxsize=None)
def _comp_plan(inst, h):
    """Everything but the labels of zc_build's composition at an instance.

    Memoised, as the rule runs once per instance for each labelling.
    Returns ``(chains, loops, circles, rings)``, or None if ``h`` is not
    what the paths of ``inst`` trace.  A chain is ``(start, steps, at)``
    and a loop ``(start, steps)``: ``start`` is the ``(side, slot)`` port
    (sides 0, 1, 2 for a, b, c) the path enters at, a step is ``(i, side,
    slot)`` with ``i`` its label's index in ``lf + lg`` and the port it
    leaves at, and ``at`` the chain's place in ``h``.  ``circles`` index
    the factors' circle labels and ``rings`` are the circles' places in ``h``.
    """
    (a, b, c), (f, g) = inst
    index = {("f", m): i for i, m in enumerate(f)}
    index.update({("g", m): len(f) + j for j, m in enumerate(g)})
    side = {"a": 0, "b": 1, "c": 2}
    at = {m: k for k, m in enumerate(h) if m[0] != "o"}
    rings = tuple(k for k, m in enumerate(h) if m[0] == "o")
    circles = tuple(i for i, m in enumerate(f + g) if m[0] == "o")

    def trace(path):
        tag, i = path[0][2]
        return (side[tag], i), tuple((index[(o, m)], side[op[0]], op[1]) for o, m, _, op in path)

    chains, loops = _bord_chains(a, b, c, f, g)
    ends = [_chain_end(path) for path in chains]
    if sorted(ends) != sorted(at) or len(circles) + len(loops) != len(rings):
        return None
    return (
        tuple(trace(path) + (at[end],) for path, end in zip(chains, ends)),
        tuple(trace(path) for path in loops),
        circles,
        rings,
    )


def _chain_end(path):
    """The interval of the composite that a chain of ``_bord_chains`` becomes."""
    ports = (path[0][2], path[-1][3])
    return ("i", tuple(sorted(i for t, i in ports if t == "a")), tuple(sorted(i for t, i in ports if t == "c")))


@lru_cache(maxsize=None)
def bord1_skeleton(max_points=2, max_circles=1):
    """Oriented point-words and their interval/circle matchings.

    Objects are sorted words over the two orientations "d"/"u" with at
    most ``max_points`` letters.  A morphism is a perfect pairing of
    inflow ends with outflow ends (each pair an interval), together with
    up to ``max_circles`` free circles; composition follows the paths
    through the shared boundary and counts newly closed loops as
    circles, and is omitted where the circle count leaves the bound.
    """
    syms = ("d", "u")
    objects = tuple(
        obj
        for n in range(max_points + 1)
        for obj in combinations_with_replacement(syms, n)
    )
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

    def rule(a, b, c, f, g):
        chains, loops = _bord_chains(a, b, c, f, g)
        circles = len(loops) + sum(1 for x in f + g if x[0] == "o")
        if circles <= max_circles:
            return tuple(sorted([_chain_end(path) for path in chains] + [circ] * circles))

    return _skeleton(syms, objects, morphisms, "i", rule)


# -- finite sets and their cospans ------------------------------------------


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def _cospan_clusters(f, g):
    """Group the blocks of a two-layer cospan composite by connectivity.

    Returns a list of ``(f_indices, g_indices, result_component)``
    triples, one per element of the composed middle set.
    """
    g_by_mid = {m: j for j, comp in enumerate(g) for m in comp[1]}
    nodes = [("f", i) for i in range(len(f))] + [("g", j) for j in range(len(g))]
    links = ((("f", i), ("g", g_by_mid[m])) for i, comp in enumerate(f) for m in comp[2])
    out = []
    for members in _classes(nodes, links):
        fi = tuple(sorted(i for side, i in members if side == "f"))
        gi = tuple(sorted(j for side, j in members if side == "g"))
        ss = tuple(sorted(s for i in fi for s in f[i][1]))
        ts = tuple(sorted(t for j in gi for t in g[j][2]))
        out.append((fi, gi, ("c", ss, ts)))
    out.sort(key=lambda t: t[2])
    return out


@lru_cache(maxsize=None)
def cocorr_fin_skeleton(bound=2):
    """Finite sets and iso-classes of cospans with a bounded middle set.

    A morphism from an s-element set to a t-element set is a partition
    of the s + t slots into blocks (one per middle element; blocks with
    no slots are allowed) with at most ``bound`` blocks in total.
    Composition glues along the shared set and merges connected blocks,
    and is omitted when the merged middle exceeds the bound.
    """
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

    def rule(a, b, c, f, g):
        clusters = _cospan_clusters(f, g)
        if len(clusters) <= bound:
            return tuple(sorted(comp for _, _, comp in clusters))

    return _skeleton(("pt",), objects, morphisms, "c", rule)


def validate_base(B, assoc_cap=200_000):
    """Check the free-decomposition and category laws of a skeleton."""
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
                sig = B.ind_morphisms.get(shape)
                if sig is None:
                    v.append(Violation("component-shape", (s, t), comp, "indecomposable", shape))
                used_s.extend(comp[1])
                used_t.extend(comp[2])
            if sorted(used_s) != list(range(len(s))) or sorted(used_t) != list(range(len(t))):
                v.append(Violation("slot-partition", (s, t), m, "each slot once", (used_s, used_t)))

    v += _category_laws(B.objects, B.morphisms, B.identity, B.compose, assoc_cap)

    # monoidal closure: the slot-shifted union of two morphisms is tabulated,
    # except where its component count exceeds anything the bounded hom-set
    # tabulates (circles and empty blocks make the tables partial there)
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


# ---------------------------------------------------------------------------
# theories graded by a base skeleton
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BGradedOneTheory:
    """Colour and label tables over a base skeleton.

    ``multimaps`` maps ``(shape, src_cols, tgt_cols)`` — an
    indecomposable morphism shape with a colouring of its boundary — to
    the tuple of operation labels of that degree.  ``composition`` is a
    rule ``(inst, (cols_a, cols_b, cols_c), labs_f, labs_g) -> labs_h``
    aligned with the base composite, intensional rather than tabulated
    because saturating it over all colourings is infeasible at the
    scales the enumeration checks require.  ``units`` optionally
    declares an identity label per ``(generator, colour)``.
    """

    base: BasePresentation
    colours: dict
    multimaps: dict
    composition: object = field(compare=False)
    units: dict = field(default_factory=dict)


def _component_key(src_obj, tgt_obj, cols_s, cols_t, comp):
    shape = detached_shape(src_obj, tgt_obj, comp)
    return (
        shape,
        tuple(cols_s[i] for i in comp[1]),
        tuple(cols_t[j] for j in comp[2]),
    )


def terminal_bgraded(B):
    """One colour per generator, one label everywhere."""
    colours = {g: ("*",) for g in B.ind_objects}
    multimaps = {}
    for shape, (so, to) in B.ind_morphisms.items():
        multimaps[(shape, ("*",) * len(so), ("*",) * len(to))] = (POINT,)

    def comp(inst, cols, lf, lg):
        h = B.compose.get(inst)
        if h is None:
            return None
        return (POINT,) * len(h)

    units = {(g, "*"): POINT for g in B.ind_objects}
    return BGradedOneTheory(B, colours, multimaps, comp, units)


def bgraded_validate(B, X):
    """Typing, closure, unit and associativity report for a graded theory:
    at most 200 colourings of each composition instance and 200 label
    pairs of each, and associativity until 2,000 instances are passed."""
    v = []
    warnings = []
    if set(X.colours) != set(B.ind_objects):
        v.append(Violation("colour-keys", None, set(X.colours), set(B.ind_objects), set(X.colours)))
        return ValidationReport(tuple(v), ())

    def colourings(*objs):
        return product(*(product(*(X.colours[s] for s in obj)) for obj in objs))

    expected_keys = {(shape, cs, ct) for shape, (so, to) in B.ind_morphisms.items() for cs, ct in colourings(so, to)}
    missing = expected_keys - set(X.multimaps)
    stray = set(X.multimaps) - expected_keys
    for key in sorted(missing, key=repr):
        v.append(Violation("multimap-domain", key, key, "entry", None))
    for key in sorted(stray, key=repr):
        v.append(Violation("multimap-domain", key, key, None, "stray entry"))
    if v:
        return ValidationReport(tuple(v), ())

    label_sets = {}  # read once per coloured morphism: the associativity pass re-asks

    def families(src, tgt, cs, ct, mor):
        key = (src, tgt, cs, ct, mor)
        if key not in label_sets:
            sets = [X.multimaps[_component_key(src, tgt, cs, ct, comp)] for comp in mor]
            label_sets[key] = None if any(not s for s in sets) else sets
        sets = label_sets[key]
        return None if sets is None else product(*sets)

    for inst, h in B.compose.items():
        (a, b, c), (f, g) = inst
        for ca, cb, cc in islice(colourings(a, b, c), 200):
            ff = families(a, b, ca, cb, f)
            gf = families(b, c, cb, cc, g)
            if ff is None or gf is None:
                continue
            for lf, lg in islice(product(ff, gf), 200):
                out = X.composition(inst, (ca, cb, cc), lf, lg)
                if out is None or len(out) != len(h):
                    v.append(Violation("composition-shape", inst, (ca, cb, cc, lf, lg), len(h), out))
                    continue
                for comp, lab in zip(h, out):
                    if lab not in X.multimaps[_component_key(a, c, ca, cc, comp)]:
                        v.append(Violation("composition-typing", inst, (comp, lab), "label of degree", lab))

    checked = 0
    for inst, fg in B.compose.items():
        if checked > 2000:
            break
        (a, b, c), (f, g) = inst
        for d in B.objects:
            for k in B.morphisms.get((c, d), ()):
                gk = B.compose.get(((b, c, d), (g, k)))
                if gk is None or ((a, c, d), (fg, k)) not in B.compose:
                    continue
                if ((a, b, d), (f, gk)) not in B.compose:
                    continue
                for ca, cb, cc, cd in islice(colourings(a, b, c, d), 4):
                    ff = families(a, b, ca, cb, f)
                    gf = families(b, c, cb, cc, g)
                    kf = families(c, d, cc, cd, k)
                    if ff is None or gf is None or kf is None:
                        continue
                    for lf, lg, lk in islice(product(ff, gf, kf), 4):
                        checked += 1
                        lfg = X.composition(inst, (ca, cb, cc), lf, lg)
                        lgk = X.composition(((b, c, d), (g, k)), (cb, cc, cd), lg, lk)
                        if lfg is None or lgk is None:
                            continue
                        lhs = X.composition(((a, c, d), (fg, k)), (ca, cc, cd), lfg, lk)
                        rhs = X.composition(((a, b, d), (f, gk)), (ca, cb, cd), lf, lgk)
                        if lhs != rhs:
                            v.append(Violation("associativity", (a, b, c, d), (f, g, k), lhs, rhs))

    if not X.units:
        warnings = ("no unit declared",)
    else:
        for (g, x), u in X.units.items():
            idm = B.identity.get((g,))
            if idm is None or len(idm) != 1:
                continue
            key = _component_key((g,), (g,), (x,), (x,), idm[0])
            if u not in X.multimaps.get(key, ()):
                v.append(Violation("unit", key, u, "declared unit in tables", u))
    return ValidationReport(tuple(v), tuple(warnings))


# ---------------------------------------------------------------------------
# coloured properads over the cospan base
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProperadTables:
    """Multi-input multi-output operation tables over a colour set.

    ``operations`` maps ``(in_cols, out_cols)`` to labels.
    ``compose_rule(fparts, gparts, out_sig)`` gives the label of a
    merged block from the labelled parts of its two layers; parts are
    ``(in_cols, out_cols, label)`` triples.
    """

    colours: tuple
    operations: dict
    compose_rule: object = field(compare=False)
    units: dict = field(default_factory=dict)


def terminal_properad(bound=2):
    ops = {
        (("*",) * s, ("*",) * t): (POINT,)
        for s in range(bound + 1)
        for t in range(bound + 1)
    }
    return ProperadTables(("*",), ops, lambda fp, gp, sig: POINT, {"*": POINT})


def assoc_properad(bound=2):
    """One colour, one many-to-one operation in every positive input arity."""
    ops = {}
    for s in range(bound + 1):
        for t in range(bound + 1):
            ops[(("*",) * s, ("*",) * t)] = ("m",) if t == 1 and s >= 1 else ()

    def rule(fparts, gparts, sig):
        if len(sig[1]) == 1 and len(sig[0]) >= 1:
            return "m"
        return None

    return ProperadTables(("*",), ops, rule, {"*": "m"})


def properad_adapter(P, base=None):
    """Read properad tables as a theory graded by the cospan skeleton.

    The degree of an operation with given inputs and outputs is the
    one-vertex cospan joining them; composition merges blocks through
    the shared set and delegates the merged label to the properad's own
    rule.
    """
    B = base if base is not None else cocorr_fin_skeleton()
    colours = {"pt": tuple(P.colours)}
    multimaps = {}
    for shape, (so, to) in B.ind_morphisms.items():
        for cs in product(P.colours, repeat=len(so)):
            for ct in product(P.colours, repeat=len(to)):
                multimaps[(shape, cs, ct)] = tuple(P.operations.get((cs, ct), ()))

    def parts(m, ks, cs, ct, labs):
        """The (in_cols, out_cols, label) parts of the components ``ks`` of a layer."""
        return tuple((tuple(cs[i] for i in m[k][1]), tuple(ct[j] for j in m[k][2]), labs[k]) for k in ks)

    def comp(inst, cols, lf, lg):
        (a, b, c), (f, g) = inst
        h = B.compose.get(inst)
        if h is None:
            return None
        ca, cb, cc = cols
        labelled = []
        for fi, gi, res in _cospan_clusters(f, g):
            fparts = parts(f, fi, ca, cb, lf)
            gparts = parts(g, gi, cb, cc, lg)
            sig = (tuple(ca[i] for i in res[1]), tuple(cc[j] for j in res[2]))
            lab = P.compose_rule(fparts, gparts, sig)
            if lab is None:
                return None
            labelled.append((res, lab))
        out = []
        pool = sorted(labelled, key=repr)
        for comp_h in h:
            for idx, (res, lab) in enumerate(pool):
                if res == comp_h:
                    out.append(lab)
                    del pool[idx]
                    break
            else:
                return None
        return tuple(out)

    units = {("pt", x): u for x, u in P.units.items()}
    return BGradedOneTheory(B, colours, multimaps, comp, units)


def properad_tables(X):
    """The inverse reading: recover properad tables from a graded theory."""
    B = X.base
    cols = tuple(X.colours.get("pt", ()))
    ops = {}
    for (shape, cs, ct), labs in X.multimaps.items():
        if shape[0] == "c":
            ops[(cs, ct)] = tuple(labs)

    def layer(parts):
        """A layer's parts laid out side by side as a base morphism, with
        its labels in the order of the morphism's components."""
        so = to = 0
        comps = []
        for ic, oc, _ in parts:
            comps.append(("c", tuple(range(so, so + len(ic))), tuple(range(to, to + len(oc)))))
            so += len(ic)
            to += len(oc)
        m = tuple(sorted(comps))
        return m, tuple(parts[comps.index(comp)][2] for comp in m)

    def rule(fparts, gparts, sig):
        # lay the two layers out as base morphisms and delegate
        (fm, lf), (gm, lg) = layer(fparts), layer(gparts)
        ca = tuple(x for ic, _, _ in fparts for x in ic)
        cb = tuple(x for _, oc, _ in fparts for x in oc)
        inst = ((("pt",) * len(ca), ("pt",) * len(cb), ("pt",) * len(sig[1])), (fm, gm))
        if inst not in B.compose or len(B.compose[inst]) != 1:
            return None
        out = X.composition(inst, (ca, cb, sig[1]), lf, lg)
        return out[0] if out else None

    units = {x: u for (gname, x), u in X.units.items() if gname == "pt"}
    return ProperadTables(cols, ops, rule, units)


# ---------------------------------------------------------------------------
# a bordism-graded theory from a finite category
# ---------------------------------------------------------------------------


def _loop_classes(C):
    """Endomorphism arrows modulo swapping the order of a two-step loop.

    Set-level shadow of the trace construction: elements are pairs
    (object, endomorphism); whenever f: x -> y and g: y -> x, the loop
    read at x is identified with the loop read at y.  Returns a map
    from pairs to canonical class representatives.
    """
    items = [(x, e) for x in C.objects for e in C.hom.get((x, x), ())]
    links = (
        ((x, C.compose[((x, y, x), (f, g))]), (y, C.compose[((y, x, y), (g, f))]))
        for x in C.objects
        for y in C.objects
        for f in C.hom.get((x, y), ())
        for g in C.hom.get((y, x), ())
    )
    cls = {}
    for members in _classes(items, links):
        cls.update(dict.fromkeys(members, min(members, key=repr)))
    return cls


def zc_build(C, base=None, hochschild=False):
    """Grade a finite category by the one-dimensional bordism skeleton.

    Both orientations of a point carry the category's objects as
    colours; an interval carries the hom-set from the colour at its
    inflow end to the colour at its outflow end; a circle carries a
    single label, or the loop classes of the category when
    ``hochschild`` is set.  Composition is composition in the category
    along the flow of each path, with closed loops evaluated into the
    circle labels.
    """
    B = base if base is not None else bord1_skeleton(3, 1)
    obs = tuple(C.objects)
    cls = _loop_classes(C) if hochschild else None
    circ_labels = tuple(sorted(set(cls.values()), key=repr)) if hochschild else (POINT,)
    colours = {"d": obs, "u": obs}

    multimaps = {}
    for shape, (so, to) in B.ind_morphisms.items():
        if shape[0] == "o":
            multimaps[(shape, (), ())] = circ_labels
            continue
        ends = _interval_ends(so, to, ("i", tuple(range(len(so))), tuple(range(len(to)))))
        ine, oute = ends
        for cs in product(obs, repeat=len(so)):
            for ct in product(obs, repeat=len(to)):
                x = cs[ine[1]] if ine[0] == "s" else ct[ine[1]]
                y = cs[oute[1]] if oute[0] == "s" else ct[oute[1]]
                multimaps[(shape, cs, ct)] = tuple(C.hom.get((x, y), ()))

    def fold(cols, labs, start, steps):
        x0 = cols[start[0]][start[1]]
        li, side, i = steps[0]
        cur, x = labs[li], cols[side][i]
        for li, side, i in steps[1:]:
            y = cols[side][i]
            cur = C.compose.get(((x0, x, y), (cur, labs[li])))
            if cur is None:
                return None
            x = y
        return cur

    def comp(inst, cols, lf, lg):
        h = B.compose.get(inst)
        plan = None if h is None else _comp_plan(inst, h)
        if plan is None:
            return None
        chains, loops, circles, rings = plan
        labs = lf + lg
        out = [None] * len(h)
        for start, steps, at in chains:
            out[at] = fold(cols, labs, start, steps)
            if out[at] is None:
                return None
        circ = [labs[i] for i in circles]
        for start, steps in loops:
            lab = fold(cols, labs, start, steps)
            if lab is None:
                return None
            circ.append(cls[(cols[start[0]][start[1]], lab)] if hochschild else POINT)
        circ.sort(key=repr)
        for at, lab in zip(rings, circ):
            out[at] = lab
        return tuple(out)

    units = {}
    for g in ("d", "u"):
        for x in obs:
            units[(g, x)] = C.identity[x]
    return BGradedOneTheory(B, colours, multimaps, comp, units)


# ---------------------------------------------------------------------------
# field theories: degree-preserving points of a graded theory
# ---------------------------------------------------------------------------


def field_theories(Z, budget=1_000_000):
    """All degree- and unit-preserving morphisms from the terminal grading.

    A candidate is one colour per generator and one label per
    indecomposable morphism shape (at the induced colouring); it is kept
    when every tabulated base composition instance maps the induced
    label families to each other.  Candidates are searched depth first,
    one shape at a time in sorted order, and each instance is checked as
    soon as the last of its shapes is labelled; a failed check rejects
    every candidate below it at once (forward checking).  Raises
    RuntimeError past ``budget`` examined candidates, rejected ones
    included, saying how many were examined and kept.

    One instance per gluing class is checked (``B.gluings``), on this
    contract: ``Z``'s composition reads an instance only through its
    gluing (the paths ``_comp_plan`` traces and the generators at their
    ports), so a class passes or fails as one.  ``zc_build`` and
    ``terminal_bgraded`` meet it by construction.
    """
    B = Z.base
    gens = tuple(B.ind_objects)
    shapes, reps = B.gluings

    id_shape = {}
    for g in gens:
        idm = B.identity.get((g,))
        if idm is not None and len(idm) == 1:
            id_shape[detached_shape((g,), (g,), idm[0])] = g

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
            for inst, d, nf, ng, nh in reps:
                a, b, c = inst[0]
                checks[d].append((inst, (coloured[a], coloured[b], coloured[c]), nf, ng, nh))
            # below[d]: the candidates under one labelling of the first d shapes
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
                # the next labelling in order: back up past exhausted shapes
                while picks and picks[-1] + 1 == len(opts[len(picks) - 1]):
                    del labs[-1], picks[-1]
                if not picks:
                    break
                picks[-1] += 1
                labs[-1] = opts[len(picks) - 1][picks[-1]]
    return out


def _instance_places(inst, h, shapes):
    """Where field_theories checks a base composition instance.

    Returns the number of labels fixed once the last of its shapes is
    labelled, then the positions in ``shapes`` of the detached shapes of
    its two factors and of its composite.
    """
    (a, b, c), (f, g) = inst
    nf, ng, nh = (
        tuple(shapes.index(detached_shape(s, t, comp)) for comp in m) for s, t, m in ((a, b, f), (b, c, g), (a, c, h))
    )
    return 1 + max(nf + ng + nh, default=-1), nf, ng, nh


def _gluing_key(inst, h, places):
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

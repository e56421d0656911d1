"""Arity trees for k-multimaps and their decomposition machinery.

An arity of dimension k is a tower of index levels: a top ordinal, and
below it k-1 levels, each an elemental family of index sets over the
glued interval of the spine above, connected by a chain of maps.  The
bottom level lives in finite sets (symmetric) or ordinals (planar); all
higher levels are ordinal-indexed.

The module provides three layers:

* canonical immutable ``Arity`` values with enumeration and
  serialization keys;
* a concrete "token" representation on which the restriction rules act:
  splitting a non-elemental top map into fibers, and slicing the highest
  non-elemental level by right-composite preimages, with the level below
  windowed and the level under that rebased by a left-composite
  pushforward;
* boundary layouts: every slot of an arity decomposes into finitely many
  *atoms* (elemental sub-multimaps), and each atom's own boundary is
  resolved to addresses of lower atoms.  Theory presentations key their
  tables by these layouts.

Tokens carry provenance (which original entry an element came from), so
the decomposition of derived data can be matched against the
decomposition of the original by footprint equality; mismatches raise,
they are never silently absorbed.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .ordcomb import PLANAR, SYMMETRIC, enumerate_maps


# ---------------------------------------------------------------------------
# canonical arities


@dataclass(frozen=True)
class Level:
    """One index level: entry sizes over the bracket of the spine above,
    and the connecting chain of maps (as 1-based image tables)."""

    sizes: tuple
    maps: tuple

    def __post_init__(self):
        if len(self.maps) != max(len(self.sizes) - 1, 0):
            raise ValueError("level needs one map per consecutive entry pair")
        for i, table in enumerate(self.maps):
            if len(table) != self.sizes[i]:
                raise ValueError("map table length mismatch")
            for v in table:
                if not 1 <= v <= self.sizes[i + 1]:
                    raise ValueError("map image out of range")


@dataclass(frozen=True)
class Arity:
    """The shape of a k-multimap: elemental at every level, with the
    implicit terminal map at the top."""

    k: int
    top: int
    levels: tuple

    def __post_init__(self):
        validate_arity(self)

    def spine(self, nu):
        """The ordinal the level-nu family hangs over the bracket of."""
        if nu == self.k - 1:
            raise ValueError("top has no spine")
        if nu == self.k - 2:
            return self.top
        return self.levels[nu + 1].sizes[0]


def validate_arity(a):
    if a.k < 1 or a.top < 0:
        raise ValueError("bad dimension or top size")
    if len(a.levels) != a.k - 1:
        raise ValueError("an arity of dimension k carries k-1 levels")
    _check_tower(a.k, a.top, a.levels, elemental=True)


def _check_tower(k, top, levels, elemental):
    spine = top
    for nu in range(k - 2, -1, -1):
        lv = levels[nu]
        if len(lv.sizes) != spine + 1:
            raise ValueError(f"level {nu} must have {spine + 1} entries")
        if elemental and lv.sizes[-1] != 1:
            raise ValueError(f"level {nu} must end in a singleton")
        if nu >= 1:
            for table in lv.maps:
                if any(x > y for x, y in zip(table, table[1:])):
                    raise ValueError("higher-level maps must be monotone")
        spine = lv.sizes[0]


@lru_cache(maxsize=None)
def canonical_key(a):
    """A stable injective key for a canonical arity."""
    lv = ";".join(
        ",".join(map(str, level.sizes)) + "/" + ":".join("".join(map(str, t)) for t in level.maps)
        for level in a.levels
    )
    if isinstance(a, Arity):
        return f"k{a.k}|t{a.top}|{lv}"
    src, tgt, table = a.psi
    return f"g{a.k}|{src}>{tgt}:{''.join(map(str, table))}|{lv}"


@lru_cache(maxsize=None)
def arity_of_key(key):
    """The arity whose :func:`canonical_key` is ``key``.

    The key writes each map table as its 1-based images run together, so
    this inverse reads one digit per image: it covers every arity whose
    maps point into index sets of fewer than 10 elements, which is every
    1-arity and every arity within a bound of 9.  The top and the sizes
    are read as decimals.  A text that does not read back to itself
    raises ``ValueError``; so does the key of an arity with an image of
    10 or more, whose run-together table reads back too long.
    """
    try:
        head, top, body = key.split("|")
        levels = []
        for text in body.split(";") if body else ():
            sizes, maps = text.split("/")
            sizes = tuple(map(int, sizes.split(",")))
            levels.append(Level(sizes, tuple(tuple(map(int, t)) for t in maps.split(":"))[: len(sizes) - 1]))
        a = Arity(int(head[1:]), int(top[1:]), tuple(levels))
    except (AttributeError, TypeError, ValueError):
        a = None
    if a is None or canonical_key(a) != key:
        raise ValueError(f"not a canonical arity key: {key!r}")
    return a


def _enumerate_levels(spine, depth, bound, variance):
    """All towers of `depth` elemental levels below a spine of given size."""
    if depth == 0:
        yield ()
        return
    map_variance = variance if depth == 1 else PLANAR
    size_choices = [range(0, bound + 1)] * spine + [range(1, 2)]
    for sizes in product(*size_choices):
        map_choices = []
        for s, t in zip(sizes, sizes[1:]):
            ms = enumerate_maps(s, t, map_variance)
            if not ms:
                break
            map_choices.append([m.table for m in ms])
        if len(map_choices) < len(sizes) - 1:
            continue
        for maps in product(*map_choices):
            lv = Level(tuple(sizes), tuple(maps))
            for rest in _enumerate_levels(sizes[0], depth - 1, bound, variance):
                yield rest + (lv,)


def index_bound(a):
    """The size of an arity's largest index set, top included: the least
    bound whose enumeration holds it."""
    return max((a.top,) + sum((lv.sizes for lv in a.levels), ()))


def enumerate_arities(k, bound, variance=SYMMETRIC):
    """All arities of dimension k with every index set of size <= bound."""
    return list(_enumerate_arities(k, bound, variance))


@lru_cache(maxsize=None)
def _enumerate_arities(k, bound, variance):
    if k < 1 or bound < 0:
        raise ValueError("k >= 1 and bound >= 0 required")
    if k == 1:
        return tuple(Arity(1, s, ()) for s in range(bound + 1))
    out = []
    for top in range(bound + 1):
        for levels in _enumerate_levels(top, k - 1, bound, variance):
            out.append(Arity(k, top, levels))
    out.sort(key=canonical_key)
    return tuple(out)


# ---------------------------------------------------------------------------
# concrete (token) representation


class CLevel:
    """A level with named elements: entry tuples of tokens plus dict maps."""

    __slots__ = ("entries", "maps")

    def __init__(self, entries, maps):
        self.entries = tuple(entries)
        self.maps = tuple(maps)

    def __repr__(self):
        return f"CLevel({self.entries})"


class Ctx:
    """A concrete context for d-multimaps: top map plus lower levels."""

    __slots__ = ("d", "dom", "cod", "psi", "levels")

    def __init__(self, d, dom, cod, psi, levels):
        self.d = d
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self.psi = psi
        self.levels = tuple(levels)


def concrete(a):
    """The token form of an arity, or of a general arity (a top map
    ``psi`` to any ordinal); tokens are (kind, level, entry, index)."""
    if isinstance(a, Arity):
        dom = tuple(("t", i) for i in range(1, a.top + 1))
        cod = (("o",),)
        psi = {t: ("o",) for t in dom}
    else:
        src, tgt, table = a.psi
        dom = tuple(("t", i) for i in range(1, src + 1))
        cod = tuple(("s", q) for q in range(1, tgt + 1))
        psi = {("t", i): ("s", table[i - 1]) for i in range(1, src + 1)}
    levels = []
    for nu, lv in enumerate(a.levels):
        entries = tuple(
            tuple(("e", nu, j, i) for i in range(1, s + 1)) for j, s in enumerate(lv.sizes)
        )
        maps = tuple(
            {entries[j][i]: entries[j + 1][table[i] - 1] for i in range(len(table))}
            for j, table in enumerate(lv.maps)
        )
        levels.append(CLevel(entries, maps))
    return Ctx(a.k, dom, cod, psi, levels)


def _identity(entry):
    return {x: x for x in entry}


def _compose_range(clevel, lo, hi):
    """The composite of maps lo..hi-1 (list indices), from entry lo to entry hi."""
    f = _identity(clevel.entries[lo])
    for i in range(lo, hi):
        step = clevel.maps[i]
        f = {x: step[y] for x, y in f.items()}
    return f


def _positions(entry):
    return {x: i for i, x in enumerate(entry)}


def _bracket_positions(f, dom_entry, cod_entry):
    """bp[j] = number of dom elements landing at position <= j in cod."""
    pos = _positions(cod_entry)
    bp = []
    for j in range(len(cod_entry) + 1):
        bp.append(sum(1 for x in dom_entry if pos[f[x]] < j))
    return bp


def _push_clevel(clevel, f, dom_entry, cod_entry):
    """Push a level hanging over [dom_entry] along f: dom_entry -> cod_entry."""
    bp = _bracket_positions(f, dom_entry, cod_entry)
    entries = tuple(clevel.entries[bp[j]] for j in range(len(cod_entry) + 1))
    maps = []
    for j in range(1, len(cod_entry) + 1):
        lo, hi = bp[j - 1], bp[j]
        maps.append(_identity(clevel.entries[lo]) if lo == hi else _compose_range(clevel, lo, hi))
    return CLevel(entries, tuple(maps))


def slot_ctx(levels, nu, a, b):
    """The boundary context of the dimension-nu slot over the interval
    (a, b] of bracket positions at level nu-1."""
    lv = levels[nu - 1]
    dom, cod = lv.entries[a], lv.entries[b]
    psi = _compose_range(lv, a, b)
    sub = list(levels[: nu - 1])
    if nu >= 2 and a > 0:
        mk = _compose_range(lv, 0, a)
        sub[nu - 2] = _push_clevel(levels[nu - 2], mk, lv.entries[0], lv.entries[a])
    return Ctx(nu, dom, cod, psi, sub)


class Leaf:
    """An elemental component of a decomposition, with its provenance."""

    __slots__ = ("footprint", "ctx")

    def __init__(self, footprint, ctx):
        self.footprint = footprint
        self.ctx = ctx


def _contiguous_window(entry, subset):
    """The (start, length) of subset inside entry; must be an interval."""
    if not subset:
        return None
    pos = _positions(entry)
    idx = [pos[x] for x in subset]
    if idx != list(range(idx[0], idx[0] + len(idx))):
        raise AssertionError("expected an interval of positions")
    return idx[0], len(idx)


def _top_component(ctx, q):
    fiber = tuple(p for p in ctx.dom if ctx.psi[p] == q)
    if ctx.d == 1:
        return Ctx(1, fiber, (q,), {p: q for p in fiber}, ())
    pos = _positions(ctx.cod)
    if fiber:
        c, r = _contiguous_window(ctx.dom, fiber)
    else:
        c, r = sum(1 for p in ctx.dom if pos[ctx.psi[p]] < pos[q]), 0
    lv = ctx.levels[ctx.d - 2]
    win = CLevel(lv.entries[c : c + r + 1], lv.maps[c : c + r])
    sub = list(ctx.levels)
    sub[ctx.d - 2] = win
    if ctx.d >= 3 and c > 0:
        mk = _compose_range(lv, 0, c)
        sub[ctx.d - 3] = _push_clevel(ctx.levels[ctx.d - 3], mk, lv.entries[0], lv.entries[c])
    return Ctx(ctx.d, fiber, (q,), {p: q for p in fiber}, sub)


def _slice_at(ctx, mu, s):
    lv = ctx.levels[mu]
    m = len(lv.maps)
    keeps, restr = [], []
    for j in range(m + 1):
        sak = _compose_range(lv, j, m)
        keeps.append(tuple(x for x in lv.entries[j] if sak[x] == s))
    for j in range(m):
        restr.append({x: lv.maps[j][x] for x in keeps[j]})
    sub = list(ctx.levels)
    sub[mu] = CLevel(tuple(keeps), tuple(restr))
    if mu >= 1:
        below = ctx.levels[mu - 1]
        if keeps[0]:
            f, r = _contiguous_window(lv.entries[0], keeps[0])
        else:
            pos = _positions(lv.entries[m])
            sak0 = _compose_range(lv, 0, m)
            f, r = sum(1 for x in lv.entries[0] if pos[sak0[x]] < pos[s]), 0
        sub[mu - 1] = CLevel(below.entries[f : f + r + 1], below.maps[f : f + r])
        if mu >= 2 and f > 0:
            mk = _compose_range(below, 0, f)
            sub[mu - 2] = _push_clevel(ctx.levels[mu - 2], mk, below.entries[0], below.entries[f])
    return Ctx(ctx.d, ctx.dom, ctx.cod, ctx.psi, sub)


def _decompose_elemental(ctx, mu, fp, leaves):
    # slice every level from the top down, even when the last entry is
    # already a singleton: the degenerate stage is a no-op but keeps
    # footprints positionally aligned between original and derived data
    if mu < 0:
        leaves.append(Leaf(fp, ctx))
        return
    for s in ctx.levels[mu].entries[-1]:
        _decompose_elemental(_slice_at(ctx, mu, s), mu - 1, fp + (("slice", mu, s),), leaves)


def decompose(ctx):
    """All elemental components of a context, in canonical order."""
    leaves = []
    for q in ctx.cod:
        _decompose_elemental(_top_component(ctx, q), ctx.d - 2, (("split", q),), leaves)
    return leaves


def _levels_of(ctx):
    """The canonical index levels of a concrete context."""
    levels = []
    for lv in ctx.levels:
        sizes = tuple(len(e) for e in lv.entries)
        maps = []
        for j, f in enumerate(lv.maps):
            pos = _positions(lv.entries[j + 1])
            maps.append(tuple(pos[f[x]] + 1 for x in lv.entries[j]))
        levels.append(Level(sizes, tuple(maps)))
    return tuple(levels)


def leaf_arity(leaf):
    """The canonical arity of an elemental leaf."""
    return Arity(leaf.ctx.d, len(leaf.ctx.dom), _levels_of(leaf.ctx))


# ---------------------------------------------------------------------------
# boundary layouts


@dataclass(frozen=True)
class LeafSpec:
    """An atom: its elemental arity and the addresses its boundary uses.

    ``colours`` lists addresses for the bottom-level positions (for a
    1-dimensional atom these are the inputs followed by the output);
    ``lower[nu-1]`` lists addresses of the level-nu atoms for
    1 <= nu <= d-2; ``chain``/``target`` address the top pair (for a
    1-dimensional atom, the input and output colours).  The same shape
    describes a whole layout (:attr:`Layout.spec`), so every boundary
    key is read off one of these.
    """

    arity: Arity
    colours: tuple
    lower: tuple
    chain: tuple
    target: object


def resolve_leaf(leaf, refs):
    """Resolve every boundary position of an elemental leaf through refs."""
    ctx = leaf.ctx
    d = ctx.d
    ar = leaf_arity(leaf)
    if d == 1:
        cols = tuple(refs[t] for t in ctx.dom) + (refs[ctx.cod[0]],)
        return LeafSpec(ar, cols, (), cols[:-1], cols[-1])
    cols = tuple(refs[t] for entry in ctx.levels[0].entries for t in entry)
    lower = []
    for nu in range(1, d - 1):
        lv = ctx.levels[nu]
        addrs = []
        for j in range(len(lv.entries)):
            mk = _compose_range(lv, 0, j)
            bp = _bracket_positions(mk, lv.entries[0], lv.entries[j])
            for ti, t in enumerate(lv.entries[j]):
                for sl in decompose(slot_ctx(ctx.levels, nu, bp[ti], bp[ti + 1])):
                    addrs.append(refs[t][sl.footprint])
        lower.append(tuple(addrs))
    chain = []
    for p in range(1, len(ctx.dom) + 1):
        for sl in decompose(slot_ctx(ctx.levels, d - 1, p - 1, p)):
            chain.append(refs[ctx.dom[p - 1]][sl.footprint])
    tgt_leaves = decompose(slot_ctx(ctx.levels, d - 1, 0, len(ctx.dom)))
    if len(tgt_leaves) != 1:
        raise AssertionError("elemental context must have a single output component")
    target = refs[ctx.cod[0]][tgt_leaves[0].footprint]
    return LeafSpec(ar, cols, tuple(lower), tuple(chain), target)


@dataclass(frozen=True)
class Atom:
    address: tuple  # ("a", level, index)
    slot: tuple
    footprint: tuple
    spec: LeafSpec


class Layout:
    """The atom decomposition of an arity's boundary data.

    ``colours`` counts bottom positions; ``atoms[nu]`` lists the level-nu
    atoms in canonical order; ``chain_addrs`` / ``target_addr`` mark the
    top pair inside the top level's atom list; ``refs`` maps each element
    token to either a colour address or a footprint->address dict.
    """

    def __init__(self, arity):
        self.arity = arity
        conc = concrete(arity)
        k = arity.k
        refs = {}
        self.atoms = {nu: [] for nu in range(1, k)}
        if k == 1:
            self.colour_count = arity.top + 1
            for i, t in enumerate(conc.dom):
                refs[t] = ("c", i)
            refs[conc.cod[0]] = ("c", arity.top)
            self.chain_addrs = ()
            self.target_addr = None
            self.refs = refs
            self.conc = conc
            return
        cidx = 0
        for entry in conc.levels[0].entries:
            for t in entry:
                refs[t] = ("c", cidx)
                cidx += 1
        self.colour_count = cidx
        for nu in range(1, k - 1):
            lv = conc.levels[nu]
            for j in range(len(lv.entries)):
                mk = _compose_range(lv, 0, j)
                bp = _bracket_positions(mk, lv.entries[0], lv.entries[j])
                for ti, t in enumerate(lv.entries[j]):
                    refs[t] = self._register(nu, (nu, j, ti + 1), slot_ctx(conc.levels, nu, bp[ti], bp[ti + 1]), refs)
        self.chain_addrs = []
        for p in range(1, arity.top + 1):
            fpmap = self._register(k - 1, ("chain", p), slot_ctx(conc.levels, k - 1, p - 1, p), refs)
            refs[conc.dom[p - 1]] = fpmap
            self.chain_addrs.extend(fpmap.values())
        self.chain_addrs = tuple(self.chain_addrs)
        fpmap = self._register(k - 1, ("target",), slot_ctx(conc.levels, k - 1, 0, arity.top), refs)
        if len(fpmap) != 1:
            raise AssertionError("arity must have a single output atom")
        refs[conc.cod[0]] = fpmap
        self.target_addr = next(iter(fpmap.values()))
        self.refs = refs
        self.conc = conc

    def _register(self, nu, slot, ctx, refs):
        fpmap = {}
        for sl in decompose(ctx):
            addr = ("a", nu, len(self.atoms[nu]))
            self.atoms[nu].append(Atom(addr, slot, sl.footprint, resolve_leaf(sl, refs)))
            fpmap[sl.footprint] = addr
        return fpmap

    def atom(self, addr):
        return self.atoms[addr[1]][addr[2]]

    @cached_property
    def colour_addrs(self):
        return tuple(("c", i) for i in range(self.colour_count))

    @cached_property
    def lower_addrs(self):
        """The atom addresses of each level below the top pair's."""
        return tuple(tuple(at.address for at in self.atoms[nu]) for nu in range(1, self.arity.k - 1))

    @cached_property
    def spec(self):
        """The whole arity's boundary addresses, shaped like an atom's: at
        k = 1 the chain is the input colours and the target the output
        colour, as for a 1-dimensional atom."""
        if self.arity.k == 1:
            return LeafSpec(self.arity, self.colour_addrs, (), self.colour_addrs[:-1], self.colour_addrs[-1])
        return LeafSpec(self.arity, self.colour_addrs, self.lower_addrs, self.chain_addrs, self.target_addr)

    @cached_property
    def steps(self):
        """Every atom as (address, level, arity key, spec), level by
        level in canonical order: the order assignments fill them in."""
        atoms = [(nu, at) for nu in range(1, self.arity.k) for at in self.atoms[nu]]
        return tuple((at.address, nu, canonical_key(at.spec.arity), at.spec) for nu, at in atoms)


@lru_cache(maxsize=None)
def layout(arity):
    return Layout(arity)


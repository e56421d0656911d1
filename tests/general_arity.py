"""Arities with an arbitrary top map, which only the tests read.

A general arity drops elementality and lets the top map be any map.
The tests push arities along top maps, restrict them to one component
and split them into elemental arities, to check the decomposition
machinery of ``htk.arity`` and the fibrewise composites of
``oracles.compose_general``.
"""

from dataclasses import dataclass

from htk.arity import (
    Ctx,
    _check_tower,
    _levels_of,
    _positions,
    _push_clevel,
    _slice_at,
    _top_component,
    concrete,
    decompose,
    leaf_arity,
)


@dataclass(frozen=True)
class GeneralArity:
    """Arity data with the top map arbitrary and elementality dropped."""

    k: int
    psi: tuple  # (source size, target size, image table)
    levels: tuple

    def __post_init__(self):
        src, tgt, table = self.psi
        if len(table) != src or any(not 1 <= v <= tgt for v in table):
            raise ValueError("malformed top map")
        if self.k >= 2:
            _check_tower(self.k, src, self.levels, elemental=False)


def _canonical_general(ctx):
    """Read a GeneralArity back off a concrete context."""
    pos = _positions(ctx.cod)
    table = tuple(pos[ctx.psi[p]] + 1 for p in ctx.dom)
    return GeneralArity(ctx.d, (len(ctx.dom), len(ctx.cod), table), _levels_of(ctx))


def general_of(a, psi=None):
    """View an elemental arity as a general one (top map to a point, or psi)."""
    if psi is None:
        psi = (a.top, 1, tuple(1 for _ in range(a.top)))
    return GeneralArity(a.k, psi, a.levels)


def pushforward_arity(psi_table, a):
    """Push the top level of a general arity along a map of its target.

    ``psi_table`` is (source, target, images) with source equal to the
    arity's top size; only the top-adjacent level changes (its entries
    are reindexed through the bracket and its maps composed over fibers),
    lower levels are untouched because brackets fix the minimum.
    """
    src, tgt, table = psi_table
    ctx = concrete(a)
    if len(ctx.dom) != src:
        raise ValueError("top size mismatch")
    dom = tuple(("s", q) for q in range(1, tgt + 1))
    psi = {d: d for d in dom}
    f = {ctx.dom[i]: dom[table[i] - 1] for i in range(src)}
    sub = list(ctx.levels)
    if a.k >= 2:
        sub[a.k - 2] = _push_clevel(ctx.levels[a.k - 2], f, ctx.dom, dom)
    return _canonical_general(Ctx(a.k, dom, dom, psi, sub))


def restrict_arity(a, level, i):
    """The component of a general arity at element i of the designated level.

    For the top level this is the fiber component over the i-th target
    element; for a lower level it is the slice at the i-th element of
    that level's last entry.
    """
    ctx = concrete(a)
    if level == a.k - 1:
        if not 1 <= i <= len(ctx.cod):
            raise ValueError("component index out of range")
        return _canonical_general(_top_component(ctx, ctx.cod[i - 1]))
    last = ctx.levels[level].entries[-1]
    if not 1 <= i <= len(last):
        raise ValueError("slice index out of range")
    return _canonical_general(_slice_at(ctx, level, last[i - 1]))


def decompose_general(a):
    """The indexed family of elemental arities a general arity splits into."""
    leaves = decompose(concrete(a))
    return tuple((leaf.footprint, leaf_arity(leaf)) for leaf in leaves)

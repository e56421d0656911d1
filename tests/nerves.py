"""Nerves of composable arrows over an ordinal and their pushforwards,
and the index-map helpers that only the tests read.

No library route builds a nerve.  The tests push nerves along index
maps to check bracket maps and the flattening of levels against
composing arrows fibre by fibre.
"""

from dataclasses import dataclass
from functools import reduce

from htk.ordcomb import SYMMETRIC, FinMap, bracket_map


def identity_map(n, variance=SYMMETRIC):
    return FinMap(n, n, tuple(range(1, n + 1)), variance)


@dataclass(frozen=True)
class Nerve:
    """A chain of composable arrows over an ordinal I.

    ``objects`` has |I|+1 entries (indexed 0..|I|) and ``arrows`` has |I|
    entries (indexed 1..|I|); arrow i runs from object i-1 to object i.
    """

    objects: tuple
    arrows: tuple

    def __post_init__(self):
        if len(self.objects) != len(self.arrows) + 1:
            raise ValueError("a nerve over I needs |I|+1 objects and |I| arrows")

    def arrow(self, i):
        return self.arrows[i - 1]

    def object(self, j):
        return self.objects[j]

    def size(self):
        return len(self.arrows)


def pushforward_nerve(phi, f, mul, unit):
    """Push a nerve along phi, composing each fiber's arrows.

    ``mul(g, h)`` must be the composite "g after h" and ``unit(x)`` the
    identity at the object x; an empty fiber contributes the identity of
    the object sitting at the fiber's base point.
    """
    if f.size() != phi.source:
        raise ValueError("nerve size must equal the source of phi")
    bm = bracket_map(phi)
    objects = tuple(f.object(bm(j)) for j in range(0, phi.target + 1))
    arrows = []
    for j in range(1, phi.target + 1):
        lo, hi = bm(j - 1), bm(j)
        if lo == hi:
            arrows.append(unit(f.object(lo)))
        else:
            arrows.append(reduce(lambda acc, i: mul(f.arrow(i), acc), range(lo + 2, hi + 1), f.arrow(lo + 1)))
    return Nerve(objects, tuple(arrows))


def is_elemental(J):
    """Whether the entry of a bracket-indexed family at the maximum is a singleton."""
    return len(J.entries[-1]) == 1

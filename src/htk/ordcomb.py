"""Finite ordinals and index maps: the combinatorial substrate.

Everything downstream is built from maps between canonical finite index
sets.  An ordinal of size n has elements 1..n; its bracket has elements
0..n (one more, obtained by gluing unit intervals end to end).  A map
between ordinals induces a map between brackets running the other way,
and that induced map is what drives every pushforward in the library.

Two variances are supported throughout: "symmetric" (arbitrary maps of
finite sets) and "planar" (order-preserving maps only).
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

SYMMETRIC = "symmetric"
PLANAR = "planar"


@dataclass(frozen=True)
class FinOrd:
    """A canonical finite index set with elements 1..size."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be >= 0")

    def elements(self):
        return range(1, self.size + 1)


@dataclass(frozen=True)
class FinMap:
    """A total map {1..source} -> {1..target}.

    ``table[i-1]`` is the image of i.  ``variance`` records whether the
    map is allowed to be arbitrary (symmetric) or must be monotone
    (planar); planar maps are checked at construction.
    """

    source: int
    target: int
    table: tuple
    variance: str = SYMMETRIC

    def __post_init__(self):
        if len(self.table) != self.source:
            raise ValueError("table length must equal source size")
        for v in self.table:
            if not 1 <= v <= self.target:
                raise ValueError("table value out of range")
        if self.variance == PLANAR and not self.is_monotone():
            raise ValueError("planar map must be order-preserving")

    def __call__(self, i):
        return self.table[i - 1]

    def is_monotone(self):
        return all(a <= b for a, b in zip(self.table, self.table[1:]))

    def fiber(self, j):
        return tuple(i for i in range(1, self.source + 1) if self.table[i - 1] == j)

    def is_identity(self):
        return self.source == self.target and self.table == tuple(range(1, self.source + 1))


def compose_maps(g, f):
    """The composite g after f."""
    if f.target != g.source:
        raise ValueError("maps not composable")
    variance = PLANAR if f.variance == PLANAR and g.variance == PLANAR else SYMMETRIC
    return FinMap(f.source, g.target, tuple(g(f(i)) for i in range(1, f.source + 1)), variance)


@dataclass(frozen=True)
class BracketOrd:
    """The glued interval on a finite ordinal: elements 0..base."""

    base: int

    def elements(self):
        return range(0, self.base + 1)

    def __len__(self):
        return self.base + 1


@dataclass(frozen=True)
class BracketMap:
    """An order-preserving map [J] -> [I] with 0 -> 0 and |J| -> |I|.

    ``table[j]`` is the image of j for j in 0..|J|.
    """

    source: BracketOrd
    target: BracketOrd
    table: tuple

    def __post_init__(self):
        if len(self.table) != self.source.base + 1:
            raise ValueError("table length must be |J|+1")
        if self.table[0] != 0 or self.table[-1] != self.target.base:
            raise ValueError("bracket map must preserve min and max")
        if any(a > b for a, b in zip(self.table, self.table[1:])):
            raise ValueError("bracket map must be order-preserving")

    def __call__(self, j):
        return self.table[j]


@dataclass(frozen=True)
class Family:
    """An indexed tuple of values.

    ``offset`` is the label of the first entry: 0 for bracket-indexed
    families, 1 for ordinal/set-indexed ones.
    """

    entries: tuple
    offset: int = 0

    def __getitem__(self, i):
        k = i - self.offset
        if not 0 <= k < len(self.entries):
            raise IndexError(f"index {i} out of range")
        return self.entries[k]

    def __len__(self):
        return len(self.entries)


def bracket(I):
    """The bracket of a finite ordinal: 0..|I|."""
    size = I.size if isinstance(I, FinOrd) else int(I)
    return BracketOrd(size)


def bracket_map(phi):
    """The induced map [J] -> [I] for phi: I -> J.

    j goes to the number of elements of I landing at or below j; in
    particular 0 -> 0 and |J| -> |I|, and the fiber of phi over j is the
    interval (table[j-1], table[j]] when phi is monotone.
    """
    table = tuple(
        sum(1 for i in range(1, phi.source + 1) if phi(i) <= j)
        for j in range(0, phi.target + 1)
    )
    return BracketMap(BracketOrd(phi.target), BracketOrd(phi.source), table)


def compose_bracket_maps(g, f):
    """The composite g after f of bracket maps."""
    if f.target.base != g.source.base:
        raise ValueError("bracket maps not composable")
    return BracketMap(f.source, g.target, tuple(g(f(j)) for j in f.source.elements()))


def pushforward_family(phi, x):
    """Push a bracket-indexed family along phi by reindexing through [phi]."""
    if x.offset != 0 or len(x) != phi.source + 1:
        raise ValueError("family must be indexed by the bracket of the source")
    bm = bracket_map(phi)
    return Family(tuple(x[bm(j)] for j in range(0, phi.target + 1)), offset=0)


def enumerate_maps(I, J, variance=SYMMETRIC):
    """All maps I -> J of the given variance, in a fixed order."""
    s = I.size if isinstance(I, FinOrd) else int(I)
    t = J.size if isinstance(J, FinOrd) else int(J)
    if s > 0 and t == 0:
        return []
    if variance == PLANAR:
        tables = (
            tuple(sorted(c)) for c in combinations_with_replacement(range(1, t + 1), s)
        )
    else:
        tables = product(range(1, t + 1), repeat=s)
    return [FinMap(s, t, tab, variance) for tab in sorted(tables)]

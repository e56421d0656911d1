"""Tests for the index-map substrate."""

import math
import random

import pytest
from hypothesis import given, strategies as st
from nerves import Nerve, identity_map, is_elemental, pushforward_nerve

from htk.ordcomb import (
    PLANAR,
    SYMMETRIC,
    BracketOrd,
    Family,
    FinMap,
    FinOrd,
    bracket,
    bracket_map,
    compose_bracket_maps,
    compose_maps,
    enumerate_maps,
    pushforward_family,
)


def maps_strategy(max_size=4, variance=SYMMETRIC):
    def build(sizes):
        s, t = sizes
        return st.sampled_from(enumerate_maps(s, t, variance))

    sizes = st.tuples(st.integers(0, max_size), st.integers(1, max_size))
    return sizes.flatmap(build)


class TestBracket:
    def test_empty_ordinal(self):
        assert bracket(FinOrd(0)) == BracketOrd(0)
        assert list(bracket(FinOrd(0)).elements()) == [0]

    def test_singleton(self):
        assert list(bracket(FinOrd(1)).elements()) == [0, 1]

    def test_two(self):
        # gluing two unit intervals end to end gives three endpoints
        assert list(bracket(FinOrd(2)).elements()) == [0, 1, 2]

    def test_size_formula(self):
        for n in range(9):
            assert len(bracket(FinOrd(n))) == n + 1

    def test_hom_identification(self):
        # elements of [I] correspond to monotone maps I -> {0 < 1}:
        # j <-> the map sending i to 1 exactly when i > j.
        for n in range(5):
            cuts = set()
            for table in [
                t
                for t in __import__("itertools").product((0, 1), repeat=n)
                if all(a <= b for a, b in zip(t, t[1:]))
            ]:
                cuts.add(sum(1 for v in table if v == 0))
            assert cuts == set(bracket(FinOrd(n)).elements())


class TestBracketMap:
    def test_identity(self):
        bm = bracket_map(identity_map(3))
        assert bm.table == (0, 1, 2, 3)

    def test_fold_two_to_one(self):
        phi = FinMap(2, 1, (1, 1))
        bm = bracket_map(phi)
        assert bm.table == (0, 2)

    def test_empty_fiber(self):
        phi = FinMap(0, 1, ())
        bm = bracket_map(phi)
        assert bm.table == (0, 0)

    def test_min_max_preserved(self):
        for phi in enumerate_maps(3, 2):
            bm = bracket_map(phi)
            assert bm(0) == 0 and bm(2) == 3

    @given(st.data())
    def test_contravariant_functoriality(self, data):
        sizes = data.draw(st.tuples(st.integers(0, 4), st.integers(1, 4), st.integers(1, 4)))
        a, b, c = sizes
        phi = data.draw(st.sampled_from(enumerate_maps(a, b, PLANAR)))
        psi = data.draw(st.sampled_from(enumerate_maps(b, c, PLANAR)))
        lhs = bracket_map(compose_maps(psi, phi))
        rhs = compose_bracket_maps(bracket_map(phi), bracket_map(psi))
        assert lhs == rhs

    def test_fibers_are_intervals_for_monotone(self):
        for phi in enumerate_maps(4, 3, PLANAR):
            bm = bracket_map(phi)
            for j in range(1, 4):
                assert phi.fiber(j) == tuple(range(bm(j - 1) + 1, bm(j) + 1))


class TestPushforwardFamily:
    def test_identity(self):
        x = Family(("a", "b", "c"))
        assert pushforward_family(identity_map(2), x) == x

    def test_fold(self):
        phi = FinMap(2, 1, (1, 1))
        x = Family(("x0", "x1", "x2"))
        assert pushforward_family(phi, x).entries == ("x0", "x2")

    def test_empty_fiber_duplicates(self):
        phi = FinMap(0, 1, ())
        x = Family(("x0",))
        assert pushforward_family(phi, x).entries == ("x0", "x0")


def _map_nerve(maps):
    """Build a nerve of FinMaps from a composable chain."""
    objects = [maps[0].source] + [m.target for m in maps] if maps else None
    return Nerve(tuple(objects), tuple(maps))


class TestPushforwardNerve:
    MUL = staticmethod(compose_maps)
    UNIT = staticmethod(identity_map)

    def test_identity(self):
        f1 = FinMap(2, 3, (1, 3))
        f2 = FinMap(3, 1, (1, 1, 1))
        nerve = _map_nerve([f1, f2])
        out = pushforward_nerve(identity_map(2), nerve, self.MUL, self.UNIT)
        assert out == nerve

    def test_fold_composes(self):
        f1 = FinMap(2, 3, (1, 3))
        f2 = FinMap(3, 2, (1, 1, 2))
        nerve = _map_nerve([f1, f2])
        phi = FinMap(2, 1, (1, 1))
        out = pushforward_nerve(phi, nerve, self.MUL, self.UNIT)
        assert out.arrows == (compose_maps(f2, f1),)
        assert out.objects == (2, 2)

    def test_empty_fiber_inserts_identity(self):
        f1 = FinMap(2, 3, (1, 3))
        nerve = _map_nerve([f1])
        phi = FinMap(1, 2, (2,))
        out = pushforward_nerve(phi, nerve, self.MUL, self.UNIT)
        assert out.arrows == (identity_map(2), f1)

    def test_functoriality_random_chains(self):
        rng = random.Random(7)
        for _ in range(60):
            sizes = [rng.randint(0, 3) for _ in range(4)]
            chain = []
            for s, t in zip(sizes, sizes[1:]):
                if s > 0 and t == 0:
                    break
                chain.append(rng.choice(enumerate_maps(s, t) or [None]))
            if len(chain) < 3 or any(m is None for m in chain):
                continue
            nerve = _map_nerve(chain)
            for phi in enumerate_maps(3, 2, PLANAR):
                for psi in enumerate_maps(2, 2, PLANAR):
                    one = pushforward_nerve(
                        psi, pushforward_nerve(phi, nerve, self.MUL, self.UNIT), self.MUL, self.UNIT
                    )
                    both = pushforward_nerve(compose_maps(psi, phi), nerve, self.MUL, self.UNIT)
                    assert one == both


class TestElemental:
    def test_singleton_last(self):
        assert is_elemental(Family((("a", "b"), ("*",))))

    def test_two_element_last(self):
        assert not is_elemental(Family((("a",), ("x", "y"))))

    def test_empty_base(self):
        assert is_elemental(Family((("*",),)))


class TestEnumerateMaps:
    def test_singleton(self):
        assert len(enumerate_maps(1, 1)) == 1

    def test_symmetric_count(self):
        assert len(enumerate_maps(2, 2)) == 4
        for s in range(4):
            for t in range(1, 4):
                assert len(enumerate_maps(s, t)) == t**s

    def test_planar_count(self):
        assert len(enumerate_maps(2, 2, PLANAR)) == 3
        for s in range(5):
            for t in range(1, 5):
                assert len(enumerate_maps(s, t, PLANAR)) == math.comb(s + t - 1, s)

    def test_deterministic(self):
        assert enumerate_maps(2, 3) == enumerate_maps(2, 3)

    def test_planar_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            FinMap(2, 2, (2, 1), PLANAR)

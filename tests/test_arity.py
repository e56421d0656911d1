"""Tests for arity trees, decomposition, and boundary layouts."""

from itertools import product

import pytest

from htk.arity import (
    Arity,
    GeneralArity,
    Level,
    arity_of_key,
    canonical_key,
    decompose_general,
    enumerate_arities,
    general_of,
    layout,
    pushforward_arity,
    restrict_arity,
)
from htk.ordcomb import PLANAR, SYMMETRIC, enumerate_maps


def mk2(top, sizes, maps):
    return Arity(2, top, (Level(tuple(sizes), tuple(maps)),))


class TestEnumerate:
    def test_k1_bound0(self):
        assert enumerate_arities(1, 0) == [Arity(1, 0, ())]

    def test_k1_bound2(self):
        assert len(enumerate_arities(1, 2)) == 3

    def test_k2_bound1_oracle(self):
        # brute-force oracle: a 2-arity is a top ordinal plus an elemental
        # family over its bracket joined by arbitrary maps
        count = 0
        for top in range(2):
            size_space = [range(2)] * top + [[1]]
            for sizes in product(*size_space):
                choices = 1
                for s, t in zip(sizes, sizes[1:]):
                    choices *= len(enumerate_maps(s, t))
                count += choices
        assert len(enumerate_arities(2, 1)) == count

    def test_planar_smaller(self):
        assert len(enumerate_arities(2, 2, PLANAR)) <= len(enumerate_arities(2, 2, SYMMETRIC))

    def test_no_key_collisions(self):
        for k in (1, 2, 3):
            keys = [canonical_key(a) for a in enumerate_arities(k, 2)]
            assert len(keys) == len(set(keys))

    def test_every_arity_validates(self):
        for k in (2, 3):
            for a in enumerate_arities(k, 2):
                Arity(a.k, a.top, a.levels)  # re-runs the invariant checks


class TestArityOfKey:
    def test_inverts_canonical_key(self):
        arities = [a for k in (1, 2, 3) for v in (SYMMETRIC, PLANAR) for a in enumerate_arities(k, 2, v)]
        arities += enumerate_arities(1, 12)
        for a in arities:
            assert arity_of_key(canonical_key(a)) == a

    @pytest.mark.parametrize(
        "key", ["bogus", "k2|bogus", "k2|t01|1/", "k2|t0|1/:", "k2|t1|1,1/", "k1|t1", "k1|t-1|", "g1|1>1:1|"]
    )
    def test_rejects_a_text_that_does_not_read_back(self, key):
        with pytest.raises(ValueError):
            arity_of_key(key)

    def test_rejects_an_image_of_10(self):
        # the run-together table "10" reads back as two images
        a = mk2(2, (1, 10, 1), ((10,), (1,) * 10))
        with pytest.raises(ValueError):
            arity_of_key(canonical_key(a))


class TestPushforward:
    def test_identity(self):
        a = mk2(2, (2, 1, 1), ((1, 1), (1,)))
        out = pushforward_arity((2, 2, (1, 2)), a)
        assert out.levels == a.levels

    def test_fold_composes_nerve(self):
        # folding the two chain steps composes the bottom maps
        a = mk2(2, (2, 1, 1), ((1, 1), (1,)))
        out = pushforward_arity((2, 1, (1, 1)), a)
        assert out.levels[0].sizes == (2, 1)
        assert out.levels[0].maps == ((1, 1),)

    def test_empty_fiber_inserts_identity(self):
        a = mk2(1, (2, 1), ((1, 1),))
        out = pushforward_arity((1, 2, (2,)), a)
        assert out.levels[0].sizes == (2, 2, 1)
        assert out.levels[0].maps == ((1, 2), (1, 1))

    def test_functoriality(self):
        a = mk2(2, (2, 2, 1), ((1, 2), (1, 1)))
        for t1 in product((1, 2), repeat=2):
            t2 = (1, 1)
            one = pushforward_arity((2, 1, t2), pushforward_arity((2, 2, t1), a))
            via = tuple(t2[v - 1] for v in t1)
            both = pushforward_arity((2, 1, via), a)
            assert one == both


class TestRestrict:
    def test_elemental_top_is_identity(self):
        a = mk2(2, (2, 1, 1), ((1, 1), (1,)))
        out = restrict_arity(general_of(a), 1, 1)
        assert out.levels == a.levels
        assert out.psi == (2, 1, (1, 1))

    def test_top_fiber_slice(self):
        # two parallel unary chains; component 1 keeps only the first
        ga = GeneralArity(2, (2, 2, (1, 2)), (Level((1, 2, 1), ((2,), (1, 1))),))
        out = restrict_arity(ga, 1, 1)
        assert out.psi == (1, 1, (1,))
        assert out.levels[0].sizes == (1, 2)

    def test_bottom_slice_keeps_preimage(self):
        # bottom family with a two-element last entry; slicing picks fibers
        ga = GeneralArity(2, (1, 1, (1,)), (Level((3, 2), ((1, 1, 2),)),))
        s1 = restrict_arity(ga, 0, 1)
        s2 = restrict_arity(ga, 0, 2)
        assert s1.levels[0].sizes == (2, 1)
        assert s2.levels[0].sizes == (1, 1)

    def test_restrict_commutes_with_pushforward(self):
        a = mk2(2, (2, 1, 1), ((1, 1), (1,)))
        pushed = pushforward_arity((2, 1, (1, 1)), a)
        r1 = restrict_arity(pushed, 1, 1)
        r2 = pushforward_arity((2, 1, (1, 1)), restrict_arity(general_of(a), 1, 1))
        assert r1.levels == r2.levels


class TestDecompose:
    def test_elemental_single(self):
        a = mk2(2, (2, 1, 1), ((1, 1), (1,)))
        parts = decompose_general(general_of(a))
        assert len(parts) == 1
        assert parts[0][1] == a

    def test_k1_identity_two_unaries(self):
        ga = GeneralArity(1, (2, 2, (1, 2)), ())
        parts = decompose_general(ga)
        assert [p[1] for p in parts] == [Arity(1, 1, ()), Arity(1, 1, ())]

    def test_k1_mixed_fibers(self):
        ga = GeneralArity(1, (3, 2, (1, 1, 2)), ())
        parts = decompose_general(ga)
        assert [p[1].top for p in parts] == [2, 1]

    def test_nonelemental_bottom_slices(self):
        ga = GeneralArity(2, (1, 1, (1,)), (Level((3, 2), ((1, 1, 2),)),))
        parts = decompose_general(ga)
        assert [p[1].top for p in parts] == [1, 1]
        assert [p[1].levels[0].sizes for p in parts] == [(2, 1), (1, 1)]

    def test_recombination_count_bound2(self):
        # every component is elemental and their bottom sizes tile the whole
        for a in enumerate_arities(2, 2):
            for psi in enumerate_maps(a.top, 2):
                ga = GeneralArity(2, (psi.source, psi.target, psi.table), a.levels)
                parts = decompose_general(ga)
                for _, part in parts:
                    assert part.levels[0].sizes[-1] == 1


class TestLayout:
    def test_k1_no_atoms(self):
        lay = layout(Arity(1, 3, ()))
        assert lay.colour_count == 4
        assert lay.atoms == {}
        assert lay.target_addr is None

    def test_k1_spec_is_shaped_like_a_1_dimensional_atom(self):
        # the inputs are the chain and the output is the target, whether
        # the 1-arity is laid out whole or is an atom of a 2-arity
        specs = [layout(a).spec for a in enumerate_arities(1, 3)]
        specs += [at.spec for a in enumerate_arities(2, 2) for at in layout(a).atoms[1]]
        for spec in specs:
            assert spec.arity.k == 1 and spec.lower == ()
            assert spec.chain == spec.colours[:-1] and spec.target == spec.colours[-1]

    def test_classic_two_level_tree(self):
        # a chain of two compositions: inner maps feeding one outer map
        a = mk2(2, (2, 1, 1), ((1, 1), (1,)))
        lay = layout(a)
        assert lay.colour_count == 4
        atoms = lay.atoms[1]
        # chain: one inner atom of arity 2, one outer atom of arity 1;
        # target: the total composite of arity 2
        assert [at.spec.arity.top for at in atoms] == [2, 1, 2]
        assert lay.chain_addrs == (("a", 1, 0), ("a", 1, 1))
        assert lay.target_addr == ("a", 1, 2)
        inner, outer, total = atoms
        assert inner.spec.colours == (("c", 0), ("c", 1), ("c", 2))
        assert outer.spec.colours == (("c", 2), ("c", 3))
        assert total.spec.colours == (("c", 0), ("c", 1), ("c", 3))

    def test_wide_tree(self):
        a = mk2(2, (2, 2, 1), ((1, 2), (1, 1)))
        lay = layout(a)
        atoms = lay.atoms[1]
        # two inner atoms (fibers of sizes 1 and 1), one outer of arity 2
        assert [at.spec.arity.top for at in atoms] == [1, 1, 2, 2]
        assert atoms[2].spec.colours == (("c", 2), ("c", 3), ("c", 4))

    def test_three_dim_smoke(self):
        for a in enumerate_arities(3, 1):
            lay = layout(a)
            for nu, ats in lay.atoms.items():
                for at in ats:
                    assert at.spec.arity.k == nu

    def test_three_dim_bound2_smoke(self):
        arities = enumerate_arities(3, 2)
        assert len(arities) > 50
        for a in arities:
            lay = layout(a)
            for addr in lay.chain_addrs:
                assert lay.atom(addr).address == addr

    def test_higher_dims_smoke(self):
        for k in (4, 5):
            for a in enumerate_arities(k, 1):
                layout(a)

    def test_four_dim_bound2_sample(self):
        arities = enumerate_arities(4, 2)
        for a in arities[:: max(1, len(arities) // 60)]:
            layout(a)

    def test_atom_boundaries_reference_lower_levels(self):
        for a in enumerate_arities(3, 2)[::7]:
            lay = layout(a)
            for nu, ats in lay.atoms.items():
                for at in ats:
                    for caddr in at.spec.colours:
                        assert caddr[0] == "c" and caddr[1] < lay.colour_count
                    for group in at.spec.lower:
                        for addr in group:
                            assert addr[1] < nu
                    for addr in at.spec.chain:
                        assert addr[1] == nu - 1 or nu == 1

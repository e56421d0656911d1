"""Byte-level pins of every table-building route.

Each case serializes a construction to the canonical file format (or,
for morphisms and validation reports, to a canonical text) and compares
its SHA-256 digest with a pinned value.  A refactor of the saturation
code must leave every digest unchanged.  Run this file as a script to
print the current digests.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from htk.cli import build_named, serialize
from htk.constructions import (
    deloop,
    deloop_support,
    detheorize_T,
    disc_monoidal,
    endo_planar,
    monoidal_as_dim0,
    theta,
)
from htk.graded import (
    algebra_pair,
    convolve,
    enumerate_algebra_presentations,
    product_graded,
    pullback,
    push_right,
    terminal_graded,
    to_projection,
)
from htk.theory import (
    enumerate_morphisms,
    identity_morphism,
    validate_morphism,
    validate_theory,
)
from htk.zoo import (
    assoc_operad,
    cyclic_monoid_theory,
    discrete_category,
    init_operad,
    terminal_theory,
)


def _canon(x):
    """A repr with every dict's items in sorted order."""
    if isinstance(x, dict):
        return "{" + ",".join(sorted(f"{_canon(k)}:{_canon(v)}" for k, v in x.items())) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(_canon(e) for e in x) + ")"
    return repr(x)


def _pair(Y, q):
    return serialize(Y) + _canon(q.actions)


def _algebras(W, objects):
    return "".join(
        _pair(*algebra_pair(A, 1)) for A in enumerate_algebra_presentations(W, objects, 1, 1)
    )


def _pushes(k):
    U = (cyclic_monoid_theory(2, bound=1), assoc_operad(bound=1), init_operad(bound=1))[k]
    V = terminal_graded(U, bound=1)
    VP, p = to_projection(V)
    return (
        serialize(pullback(p, product_graded(U, 2, bound=1), 1))
        + serialize(push_right(V, product_graded(VP, 2, bound=1), 1))
    )


def _morphisms(S, T):
    return "\n".join(_canon(F.actions) for F in enumerate_morphisms(S, T, 1))


def _bad_morphism(T, d, image=None):
    """The identity with one label sent to its neighbour, or to ``image``."""
    F = identity_morphism(T)
    act = next(a for _, a in sorted(F.actions[d].items(), key=repr) if len(a) > 1)
    x, y = sorted(act, key=repr)[:2]
    act[x] = y if image is None else image
    return "\n".join(validate_morphism(F).lines())


def _fault_0():
    T = cyclic_monoid_theory(2)
    comp = {k: dict(v) for k, v in T.composition.items()}
    entry = comp[("k1|t2|", ())]
    entry[(0, 1)] = 0
    return "\n".join(validate_theory(replace(T, composition=comp)).lines())


def _fault_1():
    T = assoc_operad()
    comp = {k: dict(v) for k, v in T.composition.items()}
    entry = next(e for _, e in sorted(comp.items(), key=repr) if len(next(iter(e.values()))) == 2)
    ins = sorted(entry, key=repr)[0]
    entry[ins] = entry[ins][::-1]
    return "\n".join(validate_theory(replace(T, composition=comp)).lines())


def _fault_1_tables():
    T = discrete_category(2)
    comp = dict(T.composition)
    del comp[sorted(comp, key=repr)[5]]
    top = dict(T.top_mul)
    del top[sorted(top, key=repr)[2]]
    return "\n".join(validate_theory(replace(T, top_mul=top, composition=comp)).lines())


CASES = {
    "zoo:terminal:1": lambda: serialize(build_named("terminal:1", 2)),
    "zoo:terminal:2": lambda: serialize(build_named("terminal:2", 2)),
    "zoo:terminal:0": lambda: serialize(terminal_theory(0)),
    "zoo:cyclic:3": lambda: serialize(build_named("cyclic:3", 2)),
    "zoo:assoc": lambda: serialize(build_named("assoc", 2)),
    "zoo:init": lambda: serialize(build_named("init", 2)),
    "zoo:discrete:3": lambda: serialize(build_named("discrete:3", 2)),
    "zoo:disc-monoid:2": lambda: serialize(build_named("disc-monoid:2", 2)),
    "zoo:assoc:planar": lambda: serialize(terminal_theory(1, ("a", "b"), variance="planar")),
    "theta:monoidal": lambda: serialize(theta(disc_monoidal(3), 2)),
    "theta:cyclic": lambda: serialize(theta(cyclic_monoid_theory(2))),
    "theta:discrete": lambda: serialize(theta(discrete_category(2))),
    "theta:assoc:1": lambda: serialize(theta(assoc_operad(bound=1), 1)),
    "deloop:cyclic": lambda: serialize(
        deloop(cyclic_monoid_theory(2, extra=deloop_support(0, 2)), bound=2)
    ),
    "deloop:monoid": lambda: serialize(
        deloop(monoidal_as_dim0(disc_monoidal(2), 1, extra=deloop_support(0, 1)), bound=1)
    ),
    "detheorize:assoc": lambda: serialize(detheorize_T(assoc_operad(), {"*": ("a", "b")})),
    "detheorize:discrete": lambda: serialize(detheorize_T(discrete_category(2), {"x1": ("u",)})),
    "endo:assoc": lambda: serialize(endo_planar(assoc_operad(), "*")),
    "endo:terminal:2": lambda: serialize(endo_planar(terminal_theory(2), "*")),
    "algebra:dim2": lambda: _algebras(theta(discrete_category(2, bound=1), 1), {"x0": ("p",), "x1": ("p",)}),
    "algebra:dim1": lambda: _algebras(theta(cyclic_monoid_theory(2, bound=1), 1), {}),
    "terminal_graded:cyclic": lambda: serialize(terminal_graded(cyclic_monoid_theory(2))),
    "terminal_graded:assoc": lambda: serialize(terminal_graded(assoc_operad())),
    "product_graded:cyclic": lambda: serialize(product_graded(cyclic_monoid_theory(2), 2)),
    "product_graded:discrete": lambda: serialize(product_graded(discrete_category(2), 2)),
    "pushes:cyclic": lambda: _pushes(0),
    "pushes:assoc": lambda: _pushes(1),
    "pushes:init": lambda: _pushes(2),
    "deloop:theta": lambda: serialize(
        deloop(theta(disc_monoidal(2), 1, extra=deloop_support(1, 1)), bound=1)
    ),
    "theta:terminal:1": lambda: serialize(theta(terminal_theory(1, ("a", "b"), bound=1), 1)),
    "morphisms:theta-cyclic": lambda: _morphisms(
        theta(cyclic_monoid_theory(2, bound=1), 1), theta(cyclic_monoid_theory(4, bound=1), 1)
    ),
    "morphisms:discrete": lambda: _morphisms(discrete_category(3, bound=1), discrete_category(2, bound=1)),
    "morphisms:cyclic": lambda: _morphisms(cyclic_monoid_theory(4), cyclic_monoid_theory(2)),
    "morphism-violations:n0": lambda: _bad_morphism(cyclic_monoid_theory(3), 0),
    "morphism-violations:n1": lambda: _bad_morphism(assoc_operad(), 1),
    "morphism-violations:typing": lambda: _bad_morphism(assoc_operad(), 1, "nope"),
    "convolve:cyclic": lambda: serialize(
        convolve(
            product_graded(cyclic_monoid_theory(2, bound=1), 2, bound=1),
            terminal_graded(cyclic_monoid_theory(2, bound=1), bound=1),
            1,
        )
    ),
    "convolve:init": lambda: serialize(
        convolve(product_graded(init_operad(bound=1), 2, bound=1), terminal_graded(init_operad(bound=1), bound=1), 1)
    ),
    "violations:n0": _fault_0,
    "violations:n1": _fault_1,
    "violations:n1:tables": _fault_1_tables,
}

GOLDEN = {
    "algebra:dim1": "83316de6598d35e761479a16b17d4bd3bffeb2f21efa72a37ecc5f728d5f80e7",
    "algebra:dim2": "34ffa9b92301930b1fa2a6cc4d8bf4b3801be301ca26efd9050f8b89498d7607",
    "convolve:cyclic": "45f445e40fb122ac2b4e44b742cd9fd2bb5ea41f169cca2987ec6487b07e37ab",
    "convolve:init": "3903b25241742ef6ce7de633e0d063cfe1082006dc8757245350edd8c60758eb",
    "deloop:cyclic": "8ee1a4967dea23f3af9d25893d34b35cb96cabf62a5c7788524bce5587f0384c",
    "deloop:monoid": "eb66e6d40d81d5268a79cda2d7a376513ac14c0645ed2ead6c73706735269ee7",
    "deloop:theta": "a54593ff33489af4c73cbf42497f806e11a16bbd4ae97511a715bcaf10f7e84f",
    "detheorize:assoc": "19b780907e68d9ae2cbfbab5191677deac1641792bee3aa45094a6c556b262ed",
    "detheorize:discrete": "fa300ac736578952e54c73b361b1aa92de37f8bb647db409cf126c5007efc387",
    "endo:assoc": "a34c2e24c143541fd5f5157d00a2bf5e18247943923ca69e53f206cc64dfb2b6",
    "endo:terminal:2": "a792110f5ef3724fc8c62c3e2177d5a218404c8bb2416d0dbeb056f19ba0e4cd",
    "morphism-violations:n0": "9d16f1e0960c6649fafe3f1a3350196b45174a0329d0ea607c7319b9f8d31664",
    "morphism-violations:n1": "c6ab75201c8108ec3f249ebbc0c91dc00d60286ad9e93fefb7ea1085144da6c2",
    "morphism-violations:typing": "bb2415717a722ad8a628708f66804057c5c62435110f555b2f3e842b50ae736d",
    "morphisms:cyclic": "e12101e40bc0af7f1a0fc865a1e90fe775bb59a2025d698eb90a6accaf0ea20d",
    "morphisms:discrete": "69b937cdc302a8f72e5095580a118b458cd4c9b099b0aff252144fe1bad92de0",
    "morphisms:theta-cyclic": "8ace7986fa1247b9016c1bbfb2f51a871dd91dbf896cf1c20f4e3f2ab72471d2",
    "product_graded:cyclic": "2e540f6d5e19bf9a508c2b3a67b52c1550963654e9dd5a8d835f8e7423c89ff9",
    "product_graded:discrete": "0b94231ba5f754625e0cd7f27a30a6d5fd1ef9c5ba9ba80c8c8cd3bd63a715c7",
    "pushes:assoc": "9c001704d25e9170a1c9a405c9ee0d83264981745bb80918730097f756d5d10c",
    "pushes:cyclic": "feaedf88cce833ee919c57175f221f9dabcc428d792633907b9bd2055199ddc0",
    "pushes:init": "3e0d94237f0bf092ecc216c97c1373b5ec68c3dbdfe9c983b099677d52ce2c8c",
    "terminal_graded:assoc": "870da4ad5bc32b22a54fd24eb1f290cb1dd8ccce08f805055135caa23bb7c424",
    "terminal_graded:cyclic": "c558fede68536376cc5d11b276e4908bfcc425167b82c6544a39fe9685eafab3",
    "theta:assoc:1": "7a1881a5fad976bceb23d7a5722a086a18cd74ee16be02fdbfc97926ce533557",
    "theta:cyclic": "ae42ee4b6584416430e61a5b3b5f0bbeeb5ded8a2afbc5a680ba6f970fab565c",
    "theta:discrete": "52543608384163c060140282a3abd8e60a468a871b24ee367d8a636124f510f5",
    "theta:monoidal": "eceb4721cf4e67f68c48ad570886bf90657d57cb8645ef806dafad0043e4505c",
    "theta:terminal:1": "6b786c07bf9f2e27d593f6978c4c19db3efb30540fe5304fbc11450ae602933d",
    "violations:n0": "75bc04cc8bf55ca07238a272e9af1c766de59c82784f5aa63a4abc69c0614e6f",
    "violations:n1": "71943d8302c2fd0db518806ee6918b7b212649eb2916ef4ca0aa91c702a7ff1c",
    "violations:n1:tables": "804253b4b67a54268446d31903db6b88c51bffa5c34191b663d9440a998f1176",
    "zoo:assoc": "b828e6809a13bfca004154b34083b1cb76a28a52d2a1a0b519c63f8ba2cf637b",
    "zoo:assoc:planar": "0296cd64c548ee72c26951dfb3907d0e6841d919fd9d81b22d061507ad8be5eb",
    "zoo:cyclic:3": "c613da5ff9bd15252d92a6b62b3567b85e56ad389c967ddd69f6186a27e5175f",
    "zoo:disc-monoid:2": "d4d5fb56d374f126d20f6c8f175856bde2f616a7249c23275f0197dfe1af5fdd",
    "zoo:discrete:3": "49f58d0a4048bffd6fb82a27eeda273d0fb869024c0797d574f67c7107a04077",
    "zoo:init": "430fa058988832fe11baaaa3eacb58e7bc2a4b7df124b557261be3475e414088",
    "zoo:terminal:0": "39aa1bbd20a9dc24e4be8d10a4ab4f44d7dfd3bb747934375ac3a1cfb2988741",
    "zoo:terminal:1": "f47294674efdb67f887aae6f2e73055858fb478f7af3ae277a06d6a9f0c49eba",
    "zoo:terminal:2": "07d3c1b097b3f0719da0a4a29ba77fc6dc11cdc6ba7124a8de081d688fce5164",
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert _digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps({name: _digest(CASES[name]()) for name in sorted(CASES)}, indent=4))

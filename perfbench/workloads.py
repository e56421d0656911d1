"""The benchmark's three workloads, their inputs and their correctness gates.

Each workload's ``setup`` builds its inputs from the seed and returns a
list of operations.  An operation is one independent job: it calls into
htk through the tracer, checks every result against something the
benchmark owns (a pinned count, an oracle written here, a byte-equal
square, a round trip, a pinned SHA-256, an exit code), and returns a
signature of its outputs.  The runner repeats operations and requires the
signature to repeat exactly.

``size="tiny"`` selects a few cheap operations for the smoke check.
"""

import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

from htk.arity import enumerate_arities, layout
from htk.bases import (
    codiscrete_category,
    cyclic_group_category,
    enumerate_categories,
    field_theories,
    zc_build,
)
from htk.cli import parse, serialize
from htk.constructions import deloop, deloop_support, disc_monoidal, monoidal_as_dim0, theta
from htk.graded import (
    convolve,
    graded_morphisms,
    product_graded,
    pullback,
    push_left,
    push_right,
    terminal_graded,
    theta_graded,
    theta_morphism,
    to_projection,
    validate_graded,
)
from htk.ordcomb import PLANAR, SYMMETRIC
from htk.theory import enumerate_morphisms, validate_theory
from htk.zoo import assoc_operad, cyclic_monoid_theory, discrete_category, init_operad, terminal_theory

PINS_FILE = Path(__file__).with_name("pins.json")


def sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# gates


class Gates:
    """Counts every check by kind; a check whose value differs fails.

    With ``corrupt`` set every expected value is replaced by a wrong one,
    so that each gate can be shown to fire.
    """

    def __init__(self, corrupt=False):
        self.corrupt = corrupt
        self.pins = json.loads(PINS_FILE.read_text())
        self.checked = Counter()
        self.failed = Counter()
        self.messages = []

    def expect(self, kind, what, got, want):
        if self.corrupt:
            want = ("wrong", want)
        self.checked[kind] += 1
        if got == want:
            return True
        self.failed[kind] += 1
        self.messages.append(f"{kind} {what}: expected {want!r}, got {got!r}")
        return False

    def pinned(self, key, got):
        """Compare an output digest with the one recorded for this key."""
        return self.expect("pinned_sha", key, got, self.pins.get(key))


# ---------------------------------------------------------------------------
# oracles (independent of htk's own counting code)


def iso_count(C):
    """Number of isomorphism arrows of a finite category, by brute force."""
    n = 0
    for (x, y), fs in C.hom.items():
        for f in fs:
            if any(
                C.compose.get(((x, y, x), (f, g))) == C.identity[x]
                and C.compose.get(((y, x, y), (g, f))) == C.identity[y]
                for g in C.hom.get((y, x), ())
            ):
                n += 1
    return n


def monoid_hom_count(k, m):
    """Number of homomorphisms Z/k -> Z/m."""
    return sum(
        1
        for img in product(range(m), repeat=k)
        if img[0] == 0
        and all(img[(a + b) % k] == (img[a] + img[b]) % m for a in range(k) for b in range(k))
    )


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    name: str
    run: object  # run(tracer, gates) -> signature


def prefill(pools):
    """Enumerate every arity of the pools and build its layout."""
    n = 0
    for k, bound, variance in pools:
        for a in enumerate_arities(k, bound, variance):
            layout(a)
            n += 1
    return n


def _counts_op(name, fn, cases, kind):
    """One operation counting ``fn``'s results on each (label, args,
    expected count) case."""

    def run(tr, gates):
        counts = []
        for label, args, want in cases:
            counts.append(len(tr.call(f"L4.{fn.__name__}", fn, *args)))
            gates.expect(kind, label, counts[-1], want)
        return tuple(counts)

    return Op(name, run)


def _count_op(name, fn, args, want, kind="pinned_count"):
    return _counts_op(name, fn, [(name, args, want)], kind)


# ---------------------------------------------------------------------------
# search: the counting searches (L4)

# Morphism counts of the push adjunctions at bound 1, for each side.
LEFT_PUSH_COUNTS = {"cyclic:2": 8, "assoc": 4096, "init": 256}
RIGHT_PUSH_COUNTS = {"cyclic:2": (8, 2), "init": (256, 2)}
BOUND1_ZOO = {
    "cyclic:2": lambda: cyclic_monoid_theory(2, bound=1),
    "assoc": lambda: assoc_operad(bound=1),
    "init": lambda: init_operad(bound=1),
}


def _category_sample(tr, rng, m):
    """One category from each of m strata of enumerate_categories(2, 4).

    The strata follow (objects, hom-set sizes, isomorphisms), which tracks
    the cost of the field-theory search, so every seed draws a sample of
    about the same total cost.
    """
    cats = tr.call("setup.categories", lambda: list(enumerate_categories(2, 4)))
    ranked = sorted(
        range(len(cats)),
        key=lambda i: (
            len(cats[i].objects),
            sorted(len(v) for v in cats[i].hom.values()),
            iso_count(cats[i]),
            i,
        ),
    )
    n = len(ranked)
    picks = [ranked[rng.randrange(s * n // m, (s + 1) * n // m)] for s in range(m)]
    return [(i, cats[i]) for i in picks]


def setup_search(seed, size, tr, gates, workdir):
    rng = random.Random(seed)
    tiny = size == "tiny"
    ops = []
    for name, make in BOUND1_ZOO.items():
        if tiny and name != "cyclic:2":
            continue
        U = tr.call("L1.build", make)
        V = tr.call("L1.build", terminal_graded, U, bound=1)
        VP, p = tr.call("L3.project", to_projection, V)
        Y = tr.call("L1.build", product_graded, VP, 2, bound=1)
        Z = tr.call("L1.build", product_graded, U, 2, bound=1)
        want = LEFT_PUSH_COUNTS[name]
        ops.append(_count_op(f"pushL:{name}:lhs", graded_morphisms,
                             (tr.call("L3.push_left", push_left, V, Y), Z, 1), want))
        ops.append(_count_op(f"pushL:{name}:rhs", graded_morphisms,
                             (Y, tr.call("L3.pullback", pullback, p, Z, 1), 1), want))
        if name not in RIGHT_PUSH_COUNTS:
            continue  # the assoc R->R search takes minutes
        R = tr.call("L3.push_right", push_right, V, Y, 1)
        tp = tr.call("L1.theta", theta_morphism, p, 1)
        TG = tr.call("L1.theta", theta_graded, Y, 1)
        W1 = tr.call("L1.build", terminal_graded, R.base, bound=1)
        for W, tag, want in zip((R, W1), ("R", "terminal"), RIGHT_PUSH_COUNTS[name]):
            ops.append(_count_op(f"pushR:{name}:{tag}:lhs", graded_morphisms, (W, R, 1), want))
            ops.append(_count_op(f"pushR:{name}:{tag}:rhs", graded_morphisms,
                                 (tr.call("L3.pullback", pullback, tp, W, 1), TG, 1), want))
    for k, m in ((2, 2),) if tiny else ((2, 2), (2, 3)):
        A = tr.call("L1.theta", theta, tr.call("L1.build", monoidal_as_dim0, disc_monoidal(k)), 2)
        B = tr.call("L1.theta", theta, tr.call("L1.build", monoidal_as_dim0, disc_monoidal(m)), 2)
        ops.append(_count_op(f"lax:Z/{k}->Z/{m}", enumerate_morphisms, (A, B, 2),
                             monoid_hom_count(k, m), "oracle"))
    named = [("codiscrete:3", codiscrete_category(3))]
    if not tiny:
        named.append(("cyclic-group:7", cyclic_group_category(7)))
    for name, C in named:
        Z = tr.call("L1.zc_build", zc_build, C)
        ops.append(_count_op(f"fields:{name}", field_theories, (Z,), iso_count(C), "oracle"))
    # the sample is one operation, so that the seed moves no operation's
    # place among the others and cmd_p50_s does not depend on the draw
    sample = [
        (f"fields:category:{i}", (tr.call("L1.zc_build", zc_build, C),), iso_count(C))
        for i, C in _category_sample(tr, rng, 2 if tiny else 24)
    ]
    ops.append(_counts_op("fields:sample", field_theories, sample, "oracle"))
    rng.shuffle(ops)
    return ops


SEARCH_POOLS = [(k, 1, v) for k in range(1, 5) for v in (SYMMETRIC, PLANAR)] + [
    (k, 2, SYMMETRIC) for k in range(1, 3)
]


# ---------------------------------------------------------------------------
# tables: saturation, validation, graded transforms, canonical I/O


def _square_op(name, n, make, workdir):
    """deloop(theta(U)) == theta(deloop(U)), byte for byte, then a round
    trip of the file through disk and parse."""

    def run(tr, gates):
        sup = tr.call("L1.support", deloop_support, n + 1, 2)
        U = tr.call("L1.build", make, sup)
        lhs = tr.call("L1.deloop", deloop, tr.call("L1.theta", theta, U, 2, extra=sup), "*", 2)
        rhs = tr.call("L1.theta", theta, tr.call("L1.deloop", deloop, U, "*", 2), 2)
        text = tr.call("L5.serialize", serialize, lhs)
        same = text == tr.call("L5.serialize", serialize, rhs)
        del rhs
        gates.expect("square", name, same, True)
        digest = sha(text)
        gates.pinned(name, digest)
        path = workdir / "square.json"
        path.write_text(text, encoding="utf-8")
        del text
        back = tr.call("L5.parse", parse, path.read_text(encoding="utf-8"))
        path.unlink()
        gates.expect("roundtrip", name, back == lhs, True)
        return digest

    return Op(name, run)


def _validate_op(name, T, bad, key):
    """A sound theory passes; its copy with one corrupted composition
    entry fails, and a violation names the corrupted arity key."""

    def run(tr, gates):
        good = tr.call("L2.validate_theory", validate_theory, T, 2)
        gates.expect("verdict", name, good.status, "pass")
        report = tr.call("L2.validate_theory", validate_theory, bad, 2)
        gates.expect("verdict", f"{name} with fault", report.status, "fail")
        located = any(v.arity_key == key for v in report.violations)
        gates.expect("fault_location", name, located, True)
        return good.status, report.status, len(report.violations)

    return Op(name, run)


def _graded_op(name, fn, args, bound):
    """A graded construction whose output validates and is pinned."""

    def run(tr, gates):
        X = tr.call(f"L3.{fn.__name__}", fn, *args)
        report = tr.call("L2.validate_graded", validate_graded, X, bound)
        gates.expect("verdict", name, report.status, "pass")
        digest = sha(tr.call("L5.serialize", serialize, X))
        gates.pinned(name, digest)
        return digest

    return Op(name, run)


def _with_fault(T):
    """T with one composition output replaced; returns (copy, arity key)."""
    key = next(k for k, e in T.composition.items() if e)
    entry = dict(T.composition[key])
    entry[next(iter(entry))] = "?!"
    return replace(T, composition={**T.composition, key: entry}), key[0]


def _soundness_zoo(tr, tiny):
    sup1 = tr.call("L1.support", deloop_support, 1, 2)
    sup0 = tr.call("L1.support", deloop_support, 0, 2)
    zoo = {
        "terminal:1": lambda: terminal_theory(1),
        "init": init_operad,
    }
    if not tiny:
        zoo.update({
            "terminal:2": lambda: terminal_theory(2),
            "assoc": assoc_operad,
            "discrete:2": lambda: discrete_category(2),
            "discrete:3": lambda: discrete_category(3),
            "disc-monoid:2": lambda: monoidal_as_dim0(disc_monoidal(2)),
            "deloop:terminal:1": lambda: deloop(terminal_theory(1, extra=sup1), "*", 2),
            "deloop:init": lambda: deloop(init_operad(extra=sup1), "*", 2),
            "deloop:assoc": lambda: deloop(assoc_operad(extra=sup1), "*", 2),
            "deloop:discrete:2": lambda: deloop(discrete_category(2, extra=sup1), "*", 2),
            "deloop:disc-monoid:2": lambda: deloop(monoidal_as_dim0(disc_monoidal(2), extra=sup0), "*", 2),
        })
    for name, make in zoo.items():
        T = tr.call("L1.build", make)
        yield name, T, *_with_fault(T)


def setup_tables(seed, size, tr, gates, workdir):
    tiny = size == "tiny"
    squares = {"square:disc-monoid:2": (0, lambda sup: monoidal_as_dim0(disc_monoidal(2), 2, extra=sup))}
    if not tiny:
        squares["square:assoc"] = (1, lambda sup: assoc_operad(bound=2, extra=sup))
    ops = [_square_op(name, n, make, workdir) for name, (n, make) in squares.items()]
    for name, T, bad, key in _soundness_zoo(tr, tiny):
        ops.append(_validate_op(f"validate:{name}", T, bad, key))
    push_bases = {"init": init_operad}
    if not tiny:
        push_bases.update({"cyclic:2": lambda: cyclic_monoid_theory(2), "discrete:2": lambda: discrete_category(2)})
    for name, make in push_bases.items():
        V = tr.call("L1.build", terminal_graded, tr.call("L1.build", make))
        VP, _ = tr.call("L3.project", to_projection, V)
        X = tr.call("L1.build", product_graded, VP, 2)
        ops.append(_graded_op(f"pushR:{name}", push_right, (V, X, 2), 2))
    conv_bases = {"discrete:2": lambda: discrete_category(2, bound=1)}
    if not tiny:
        conv_bases["assoc"] = lambda: assoc_operad(bound=1)
    for name, make in conv_bases.items():
        X = tr.call("L1.build", product_graded, tr.call("L1.build", make), 2, bound=1)
        ops.append(_graded_op(f"convolve:{name}", convolve, (X, X, 1), 1))
    random.Random(seed).shuffle(ops)
    return ops


TABLES_POOLS = [(k, 2, v) for k in range(1, 5) for v in (SYMMETRIC, PLANAR)] + [
    (k, 1, SYMMETRIC) for k in range(1, 4)
]


# ---------------------------------------------------------------------------
# cli: README commands, each a cold `python -m htk.cli` process


@dataclass
class Cmd:
    argv: tuple
    rc: int = 0
    output: str = None  # file the command writes
    stdout: str = None  # exact stdout an oracle expects
    same_as: str = None  # file the output must equal byte for byte
    fault: str = None  # text the violation report must contain

    @property
    def verb(self):
        return self.argv[0]


# Zoo parameters a seed chooses between; the two settings cost about the same.
CLI_PARAMS = [
    {"cyclic": 2, "codiscrete": 3, "monoid": 4, "group": 5},
    {"cyclic": 3, "codiscrete": 2, "monoid": 3, "group": 7},
]


def _cli_chains(p, tiny, fault_key):
    K = p["cyclic"]
    chains = [[
        Cmd(("build", f"cyclic:{K}", "-o", f"z{K}.json"), output=f"z{K}.json"),
        Cmd(("validate", f"z{K}.json")),
        Cmd(("fmt", f"z{K}.json", "-o", f"z{K}.c.json"), output=f"z{K}.c.json", same_as=f"z{K}.json"),
    ]]
    fields = [Cmd(("enum", "field-theories", f"codiscrete:{p['codiscrete']}"),
                  stdout=f"{iso_count(codiscrete_category(p['codiscrete']))}\n")]
    errors = [
        Cmd(("validate", "bad.json"), rc=1, fault=f"at {fault_key!r}"),
        Cmd(("validate", "malformed.json"), rc=2),
    ]
    if tiny:
        return chains + [fields, errors]
    chains[0] += [
        Cmd(("apply", "theta", f"z{K}.json", "-o", f"th{K}.json"), output=f"th{K}.json"),
        Cmd(("validate", f"th{K}.json")),
    ]
    fields.append(Cmd(("enum", "field-theories", f"cyclic-group:{p['group']}"),
                      stdout=f"{iso_count(cyclic_group_category(p['group']))}\n"))
    M = p["monoid"]
    return chains + [
        [
            Cmd(("build", f"cyclic:{K}", "--deloop-ready", "-o", f"zd{K}.json"), output=f"zd{K}.json"),
            Cmd(("apply", "deloop", f"zd{K}.json", "-o", f"dl{K}.json"), output=f"dl{K}.json"),
            Cmd(("validate", f"dl{K}.json")),
        ],
        [
            Cmd(("build", "assoc", "-o", "e1.json"), output="e1.json"),
            Cmd(("validate", "e1.json")),
            Cmd(("apply", "detheorize", "e1.json", "--colours", '[["*", ["a", "b"]]]', "-o", "dt.json"),
                output="dt.json"),
            Cmd(("validate", "dt.json")),
            Cmd(("apply", "endo", "e1.json", "--colour", '"*"', "-o", "en.json"), output="en.json"),
        ],
        [
            Cmd(("build", "terminal-graded:cyclic:2", "-o", "V.json"), output="V.json"),
            Cmd(("build", "product-graded:cyclic:2*2", "-o", "Z.json"), output="Z.json"),
            Cmd(("apply", "pullback", "V.json", "Z.json", "-o", "pb.json"), output="pb.json"),
            Cmd(("validate", "pb.json")),
            Cmd(("apply", "pushL", "V.json", "pb.json", "-o", "pl.json"), output="pl.json"),
            Cmd(("apply", "pushR", "V.json", "pb.json", "-o", "pr.json"), output="pr.json"),
            Cmd(("fmt", "pr.json", "-o", "pr.c.json"), output="pr.c.json", same_as="pr.json"),
        ],
        [
            Cmd(("build", f"product-graded:cyclic:{K}*2", "--bound", "1", "-o", f"cx{K}.json"),
                output=f"cx{K}.json"),
            Cmd(("build", f"terminal-graded:cyclic:{K}", "--bound", "1", "-o", f"cy{K}.json"),
                output=f"cy{K}.json"),
            Cmd(("apply", "convolve", f"cx{K}.json", f"cy{K}.json", "--bound", "1", "-o", f"cv{K}.json"),
                output=f"cv{K}.json"),
            Cmd(("validate", f"cv{K}.json", "--bound", "1")),
        ],
        [
            Cmd(("build", "disc-monoid:2", "-o", "m2.json"), output="m2.json"),
            Cmd(("build", f"disc-monoid:{M}", "-o", f"m{M}.json"), output=f"m{M}.json"),
            Cmd(("apply", "theta", "m2.json", "-o", "tm2.json"), output="tm2.json"),
            Cmd(("apply", "theta", f"m{M}.json", "-o", f"tm{M}.json"), output=f"tm{M}.json"),
            Cmd(("enum", "functors", "tm2.json", f"tm{M}.json"), stdout=f"{monoid_hom_count(2, M)}\n"),
        ],
        fields,
        [
            Cmd(("check", "roundtrip-grading")),
            Cmd(("check", "theta-lax-equivalence")),
        ],
        errors,
    ]


def _cli_op(cmd, workdir):
    key = " ".join(cmd.argv)

    def run(tr, gates):
        proc = tr.call(
            f"cli.{cmd.verb}",
            subprocess.run,
            [sys.executable, "-m", "htk.cli", *cmd.argv],
            cwd=workdir,
            capture_output=True,
            timeout=120,
        )
        gates.expect("exit_code", key, proc.returncode, cmd.rc)
        out = proc.stdout.decode()
        if cmd.stdout is not None:
            gates.expect("oracle", key, out, cmd.stdout)
        if cmd.verb == "check":
            gates.expect("verdict", key, out.splitlines()[-1:], [_all_claims(out)])
        if cmd.fault is not None:
            gates.expect("fault_location", key, cmd.fault in out, True)
        data = (workdir / cmd.output).read_bytes() if cmd.output else b""
        if cmd.same_as is not None:
            gates.expect("fmt", key, data == (workdir / cmd.same_as).read_bytes(), True)
        signature = [proc.returncode, sha(proc.stdout), sha(data)]
        gates.pinned(key, signature)
        return tuple(signature)

    return Op(key, run)


def _all_claims(out):
    n = sum(1 for line in out.splitlines() if line.startswith(("pass: ", "FAIL: ")))
    return f"{n}/{n} claims pass"


def setup_cli(seed, size, tr, gates, workdir):
    rng = random.Random(seed)
    params = rng.choice(CLI_PARAMS)
    bad, key = _with_fault(assoc_operad())
    (workdir / "bad.json").write_text(serialize(bad), encoding="utf-8")
    (workdir / "malformed.json").write_text('{"format":"htk-theory/1","kind":"theory"}\n', encoding="utf-8")
    chains = _cli_chains(params, size == "tiny", key)
    rng.shuffle(chains)
    return [_cli_op(cmd, workdir) for chain in chains for cmd in chain]


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    setup: object
    pools: list  # (k, bound, variance) arity pools filled before timing
    children: bool  # peak RSS is that of child processes


WORKLOADS = {
    "search": Workload(setup_search, SEARCH_POOLS, False),
    "tables": Workload(setup_tables, TABLES_POOLS, False),
    "cli": Workload(setup_cli, [], True),
}

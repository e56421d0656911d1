"""Command-line surface and the canonical "htk-theory/1" file format.

Files are canonical JSON: sorted object keys, compact separators, all
tables flattened to entry lists sorted by the canonical encoding of
their keys, and no floating point anywhere.  Equal presentations
serialize to byte-identical files, which the golden tests rely on.

Exit codes: 0 success, 1 violations or construction errors, 2 parse,
format or usage errors.  ``HTK_BOUND`` overrides the default arity
bound wherever no ``--bound`` flag is given.  That default is 2, except
that ``validate`` checks a file at its own ``arity_bound``; ``enum
field-theories`` takes no bound.
"""

import argparse
import json
import os
import sys
from functools import lru_cache

# Only what ``parse`` and ``serialize`` need for a plain theory is
# imported here; each command imports the modules its verb uses where it
# uses them, so a cold ``htk`` process compiles no module it does not run.
from .arity import arity_of_key, index_bound
from .ordcomb import PLANAR, SYMMETRIC
from .theory import DIM0_KEY, TheoryPresentation, enumerate_morphisms, gc_paused, validate_theory

FORMAT = "htk-theory/1"


class FormatError(Exception):
    """A file that does not parse as a canonical presentation."""


class UsageError(Exception):
    """A command line that names the wrong number of inputs."""


# ---------------------------------------------------------------------------
# canonical encoding


# tables are acyclic, so the encoder need not look for cycles
_enc = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
_scan = json.JSONDecoder().scan_once
_space = json.decoder.WHITESPACE.match
_SCALARS = frozenset((str, int, bool, type(None)))
_SHARED = frozenset((str, int, type(None)))


def _dec(x, memo):
    """A decoded value: lists become tuples; strings, integers, booleans
    and null are the only scalars.  Through ``memo``, one per decoded
    text, equal strings and equal flat tuples come back as one object.
    A tuple that holds a boolean or a tuple is never looked up: ``True
    == 1`` and the two hash alike, so ``(True,)`` would read as ``(1,)``."""
    if type(x) is list:
        if _SHARED.issuperset(map(type, x)):
            t = tuple(map(memo.setdefault, x, x))
            return memo.setdefault(t, t)
        items = []
        for e in x:  # a flat list element is looked up here, without a call
            t = memo.get(tuple(e)) if type(e) is list and _SHARED.issuperset(map(type, e)) else None
            items.append(_dec(e, memo) if t is None else t)
        return tuple(items)
    if type(x) is str:
        return memo.setdefault(x, x)
    if type(x) in _SCALARS:
        return x
    raise FormatError(f"unsupported value {x!r}")


def _value_at(s, i, memo):
    """The JSON value that starts at ``s[i]``, decoded, and the index
    after it.  An object is walked here, member by member.  A list goes
    to the scanner one element at a time, and each element becomes
    tuples at once, so the list tree of a whole table never exists."""
    c = s[i]
    if c == "{":
        return _members(s, i, memo)
    if c != "[":
        value, i = _scan(s, i)
        return _dec(value, memo), i
    items = []
    i = _space(s, i + 1).end()
    if s[i] == "]":
        return (), i + 1
    while True:
        value, i = _scan(s, i)
        items.append(_dec(value, memo))
        i = _space(s, i).end()
        if s[i] == "]":
            return tuple(items), i + 1
        if s[i] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", s, i)
        i = _space(s, i + 1).end()


def _members(s, i, memo):
    """The members of the JSON object at ``s[i]`` and the index after
    it; a later duplicate replaces an earlier one.  A member whose value
    holds an unsupported value gets that ``FormatError`` as its value,
    which fails wherever the member is read: a presentation reads only
    the members of its kind, and those may come after the kind."""
    members = {}
    i = _space(s, i + 1).end()
    if s[i] == "}":
        return members, i + 1
    while True:
        if s[i] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", s, i)
        name, i = _scan(s, i)
        i = _space(s, i).end()
        if s[i] != ":":
            raise json.JSONDecodeError("Expecting ':' delimiter", s, i)
        start = _space(s, i + 1).end()
        try:
            members[name], i = _value_at(s, start, memo)
        except FormatError as e:
            members[name], i = e, _scan(s, start)[1]
        i = _space(s, i).end()
        if s[i] == "}":
            return members, i + 1
        if s[i] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", s, i)
        i = _space(s, i + 1).end()


def _decode(text):
    """The value of a JSON text, decoded by ``_value_at`` with a new memo."""
    try:
        value, i = _value_at(text, _space(text, 0).end(), {})
        if _space(text, i).end() != len(text):
            raise json.JSONDecodeError("Extra data", text, i)
    except ValueError as e:
        raise FormatError(f"not valid JSON: {e}") from None
    except (StopIteration, IndexError):
        raise FormatError("not valid JSON: a value is missing or the text ends early") from None
    except RecursionError:
        raise FormatError("not valid JSON: nested too deeply") from None
    return value


def _table(d, value=_enc):
    """A table's entry list as pieces of text: each entry's text
    "[key,value]," built once, the first opening the list and the last
    closing it in place of its comma ("[]" if none).  Sorting the entry
    texts orders the entries as their key texts: key texts are distinct,
    and one is a proper prefix of another only when both are integers (a
    string or list text ends at its closing quote or bracket), where the
    next character, a digit, sorts after ","."""
    pieces = sorted([f"[{_enc(k)},{value(v)}]," for k, v in d.items()]) or [","]
    pieces[0] = "[" + pieces[0]
    pieces[-1] = pieces[-1][:-1] + "]"
    return pieces


def _entries(entries):
    """A table's decoded entries, checked to be a list of [key, value]
    pairs."""
    if isinstance(entries, FormatError):
        raise entries
    if type(entries) is not tuple:
        raise FormatError(f"a table must be a list of [key, value] entries, got {type(entries).__name__}")
    for e in entries:
        if type(e) is not tuple or len(e) != 2:
            raise FormatError(f"a table entry must be a [key, value] pair, got {e!r}")
    return entries


def _untable(entries):
    return dict(_entries(entries))


@lru_cache(maxsize=None)
def _key_shape(akey, d, lower, bound):
    """The number of parts of a whole (or lower) boundary key of the
    d-arity ``akey`` and of colours in its first part, read off the arity
    alone; the count is None past ``bound``, where no bounded table
    reaches and every verb that lays out keys refuses.  ``ValueError``
    if :func:`arity_of_key` does not read ``akey`` back as a d-arity."""
    a = arity_of_key(akey)
    if a.k != d:
        raise ValueError(f"not the key of a {d}-arity: {akey!r}")
    parts = (0 if lower else 1) if d == 1 else (2 if lower else 4)
    if index_bound(a) > bound:
        return parts, None
    return parts, a.top + 1 if d == 1 else sum(a.levels[0].sizes)


def _shaped(key, parts, colours, pairs):
    """Whether a boundary key has ``parts`` parts, ``colours`` colours in
    the first (any number if None), lists where lists belong and, with
    ``pairs``, a [degree, element] pair at every label position.  Lower
    levels and chains need a layout to count, so they are not counted."""
    if type(key) is not tuple or len(key) != parts:
        return False
    if parts and (type(key[0]) is not tuple or colours is not None and len(key[0]) != colours):
        return False
    if parts > 1:
        if type(key[1]) is not tuple or parts > 2 and type(key[2]) is not tuple:
            return False
        for group in key[1]:
            if type(group) is not tuple:
                return False
    if not pairs:
        return True
    groups = key[:1] + (key[1] if parts > 1 else ()) + ((key[2], key[3:]) if parts > 2 else ())
    return all(type(x) is tuple and len(x) == 2 for group in groups for x in group)


def _keyed(table, d, bound, lower=False, pairs=False):
    """``table``, checked to be keyed by dimension-d arities: each key a
    pair of an arity key and a boundary key (a lower key if ``lower``)
    of the shape that arity implies (:func:`_key_shape`, :func:`_shaped`);
    at dimension 0 the one key ``["", []]``."""
    for key in table:
        try:
            ok = (
                key == DIM0_KEY
                if d == 0
                else type(key) is tuple and len(key) == 2 and _shaped(key[1], *_key_shape(key[0], d, lower, bound), pairs)
            )
        except ValueError:
            ok = False
        if not ok:
            raise FormatError(f"a dimension-{d} table holds the key {key!r}")
    return table


def _listed(table):
    """``table``, checked to map each key to a list: a label set or a
    fibre."""
    for key, value in table.items():
        if type(value) is not tuple:
            raise FormatError(f"the entry at {key!r} must be a list, got {value!r}")
    return table


def _nested(d):
    return _table(d, lambda t: "".join(_table(t)))


def _unnested(entries):
    return {k: _untable(v) for k, v in _entries(entries)}


def _fibred(entries):
    """A graded table: each value a table of fibres."""
    return {k: _listed(_untable(v)) for k, v in _entries(entries)}


def _object(kind, strata, table, **fields):
    """A file's JSON object as pieces of text: the format tag, ``kind``,
    the ``strata`` tables written by ``table``, and the fields given as
    pieces; names sorted."""
    rows = [p for i, d in enumerate(sorted(strata)) for p in (f"{',' if i else ''}[{d},", *table(strata[d]), "]")]
    fields.update(format=[_enc(FORMAT)], kind=[_enc(kind)], strata=["[", *rows, "]"])
    return [p for i, name in enumerate(sorted(fields)) for p in (f'{"," if i else "{"}"{name}":', *fields[name])] + ["}"]


def _theory_pieces(T):
    head = {"dimension": T.n, "variance": T.variance, "colour_depth": T.colour_depth, "arity_bound": T.arity_bound}
    head = {name: [_enc(value)] for name, value in head.items()}
    return _object("theory", T.strata, _table, top_mul=_table(T.top_mul), composition=_nested(T.composition), **head)


def _check_header(obj):
    for name in ("dimension", "colour_depth", "arity_bound"):
        if type(obj[name]) is not int or obj[name] < 0:
            raise FormatError(f"{name} must be a non-negative integer, got {obj[name]!r}")
    if obj["colour_depth"] > obj["dimension"]:
        raise FormatError(f"colour_depth must be at most the dimension {obj['dimension']}, got {obj['colour_depth']}")
    if obj["variance"] not in (SYMMETRIC, PLANAR):
        raise FormatError(f"variance must be {SYMMETRIC!r} or {PLANAR!r}, got {obj['variance']!r}")
    _strata_entries(obj["strata"], range(obj["dimension"]))


def _strata_entries(entries, dims):
    """A strata list, checked to hold each of ``dims`` once, as an int."""
    got = [d for d, _ in _entries(entries)]
    if any(type(d) is not int for d in got) or sorted(got) != list(dims):
        raise FormatError(f"strata must hold each dimension of {list(dims)} once, got {got!r}")
    return entries


def obj_to_theory(obj):
    _check_header(obj)
    bound = obj["arity_bound"]
    return TheoryPresentation(
        obj["dimension"],
        obj["variance"],
        obj["colour_depth"],
        bound,
        {d: _keyed(_listed(_untable(entries)), d, bound) for d, entries in obj["strata"]},
        _keyed(_listed(_untable(obj["top_mul"])), obj["dimension"], bound),
        _keyed(_unnested(obj["composition"]), obj["dimension"] + 1, bound, lower=True),
    )


def _graded_pieces(X):
    return _object(
        "graded",
        X.strata,
        _nested,
        base=_theory_pieces(X.base),
        objects=_table(X.objects),
        top_mul=_nested(X.top_mul),
        composition=_nested(X.composition),
    )


def obj_to_graded(obj):
    from .graded import GradedTheoryPresentation

    base = obj_to_theory(obj["base"])
    bound = base.arity_bound
    objects = _listed(_untable(obj["objects"]))
    if objects and base.n == 0:
        raise FormatError("a graded file over a 0-dimensional base keeps its fibres in top_mul, so its objects must be empty")
    return GradedTheoryPresentation(
        base,
        objects,
        {d: _keyed(_fibred(entries), d, bound, pairs=True) for d, entries in _strata_entries(obj["strata"], range(1, base.n))},
        _keyed(_fibred(obj["top_mul"]), base.n, bound, pairs=True),
        _keyed(_unnested(obj["composition"]), base.n + 1, bound, lower=True, pairs=True),
    )


def _pieces(P):
    """The canonical text of a presentation as a list of pieces."""
    return [*(_theory_pieces(P) if isinstance(P, TheoryPresentation) else _graded_pieces(P)), "\n"]


def serialize(P):
    """The canonical text of a presentation; it equals ``json.dumps`` of
    the file's object with sorted keys and compact separators."""
    return "".join(_pieces(P))


@gc_paused
def parse(text):
    """The presentation a canonical file's text holds.  Any JSON text
    with the same value parses to the same presentation: whitespace and
    member order are free, and the last of duplicate members counts."""
    obj = _decode(text)
    if type(obj) is not dict or obj.get("format") != FORMAT:
        raise FormatError(f"missing format tag {FORMAT!r}")
    try:
        if obj.get("kind") == "graded":
            return obj_to_graded(obj)
        if obj.get("kind") == "theory":
            return obj_to_theory(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed presentation: {e}") from None
    raise FormatError(f"unknown kind {obj.get('kind')!r}")


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(str(e)) from None


def _emit(P, out):
    pieces = _pieces(P)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as e:
            raise FormatError(str(e)) from None
    else:
        sys.stdout.writelines(pieces)


# ---------------------------------------------------------------------------
# registries


def _count_arg(text):
    """An arity bound or a budget: a non-negative int."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _json_arg(text):
    """A JSON flag value, decoded as a file's table cells are."""
    try:
        value = _decode(text)
    except FormatError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if type(value) is dict:
        raise argparse.ArgumentTypeError(f"expected a JSON value without objects, got {text!r}")
    return value


def _colours_arg(text):
    """A JSON list of [colour, [name, ...]] pairs, as a dict."""
    pairs = _json_arg(text)
    if type(pairs) is not tuple or any(type(p) is not tuple or len(p) != 2 or type(p[1]) is not tuple for p in pairs):
        raise argparse.ArgumentTypeError(f"expected a list of [colour, [name, ...]] pairs, got {text!r}")
    return dict(pairs)


def _param(name, arg, default=None, least=0):
    """``arg``, the parameter of the family name ``name``, as an integer
    of at least ``least``; ``default`` if empty (None: no parameter)."""
    if not arg:
        return default
    if default is None:
        raise FormatError(f"{name!r}: the family takes no parameter")
    if not (arg.isascii() and arg.isdigit()) or int(arg) < least:
        raise FormatError(f"{name!r}: the parameter must be an integer >= {least}, got {arg!r}")
    return int(arg)


def _named(families, kind, name, **kwargs):
    """Build ``name`` from ``families``, which maps each family to its
    constructor, its default parameter (None: it takes none) and the
    least parameter it takes."""
    head, _, arg = name.partition(":")
    if head not in families:
        raise FormatError(f"unknown {kind} name {name!r}")
    make, default, least = families[head]
    k = _param(name, arg, default, least)
    return make(**kwargs) if k is None else make(k, **kwargs)


def build_named(name, bound, extra=None):
    """A presentation from a ``family[:parameter]`` zoo name."""
    head, _, arg = name.partition(":")
    if head == "terminal-graded":
        from .graded import terminal_graded

        return terminal_graded(build_named(arg, bound), bound=bound)
    if head == "product-graded":
        from .graded import product_graded

        sub, star, k = arg.rpartition("*")
        sub, k = (sub, _param(name, k, 2, 1)) if star else (k, 2)
        return product_graded(build_named(sub, bound), k, bound=bound)
    if head == "disc-monoid":
        from .constructions import disc_monoidal, monoidal_as_dim0

        return monoidal_as_dim0(disc_monoidal(_param(name, arg, 2, 1)), bound=bound, extra=extra)
    from . import zoo

    families = {
        "terminal": (zoo.terminal_theory, 1, 0),
        "cyclic": (zoo.cyclic_monoid_theory, 2, 1),
        "assoc": (zoo.assoc_operad, None, 0),
        "orders": (zoo.assoc_operad, None, 0),
        "init": (zoo.init_operad, None, 0),
        "discrete": (zoo.discrete_category, 2, 0),
    }
    return _named(families, "zoo", name, bound=bound, extra=extra)


def _category_named(name):
    from . import bases

    families = {
        "unit": (bases.unit_category, None, 0),
        "discrete": (bases.discrete_finite_category, 2, 0),
        "codiscrete": (bases.codiscrete_category, 2, 0),
        "walking-arrow": (bases.walking_arrow, None, 0),
        "walking-idempotent": (bases.walking_idempotent, None, 0),
        "cyclic-group": (bases.cyclic_group_category, 2, 1),
        "chain": (bases.chain_category, 2, 0),
    }
    return _named(families, "category", name)


def _kind(P):
    return "theory" if isinstance(P, TheoryPresentation) else "graded"


def _expect_count(verb, given, n, noun):
    if len(given) != n:
        raise UsageError(f"{verb} takes {n} {noun}{'s' if n > 1 else ''}, got {len(given)}")


def _load_inputs(verb, paths, kinds):
    """The presentations in ``paths``, one file of each of ``kinds`` in
    order, as ``verb`` takes them."""
    _expect_count(verb, paths, len(kinds), "input file")
    inputs = []
    for path, kind in zip(paths, kinds):
        P = _load(path)
        if _kind(P) != kind:
            raise FormatError(f"{verb} takes a {kind} file, but {path} holds a {_kind(P)} presentation")
        inputs.append(P)
    return inputs


# the kinds of the files each ``apply`` verb reads, in order
_APPLY_INPUTS = {
    "theta": ("theory",),
    "deloop": ("theory",),
    "pullback": ("graded", "graded"),
    "pushL": ("graded", "graded"),
    "pushR": ("graded", "graded"),
    "convolve": ("graded", "graded"),
    "detheorize": ("theory",),
    "endo": ("theory",),
}


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    P = _load(args.path)
    bound = args.bound
    if isinstance(P, TheoryPresentation):
        report = validate_theory(P, bound)
    else:
        from .graded import validate_graded

        report = validate_graded(P, bound)
    for v in report.violations:
        print(f"{v.law} at {v.arity_key!r}: expected {v.expected!r}, got {v.actual!r}")
    for w in report.warnings:
        print(f"warning: {w}")
    return 0 if report.status == "pass" else 1


def cmd_build(args):
    bound = args.bound
    P = build_named(args.name, bound)
    if args.deloop_ready:
        from .constructions import deloop_support

        if not isinstance(P, TheoryPresentation):
            raise FormatError("--deloop-ready applies to plain theories only")
        P = build_named(args.name, bound, deloop_support(P.n, bound))
    _emit(P, args.output)
    return 0


def cmd_apply(args):
    bound = args.bound
    verb = args.verb
    inputs = _load_inputs(f"apply {verb}", args.inputs, _APPLY_INPUTS[verb])
    if verb == "theta":
        from .constructions import theta

        out = theta(inputs[0], bound)
    elif verb == "deloop":
        from .constructions import deloop

        out = deloop(inputs[0], bound=bound)
    elif verb == "detheorize":
        from .constructions import detheorize_T

        out = detheorize_T(inputs[0], args.colours)
    elif verb == "endo":
        from .constructions import endo_planar

        out = endo_planar(inputs[0], args.colour)
    elif verb == "pullback":
        from .graded import pullback, to_projection

        _, p = to_projection(inputs[0])
        out = pullback(p, inputs[1], bound)
    elif verb == "pushL":
        from .graded import push_left

        out = push_left(inputs[0], inputs[1])
    elif verb == "pushR":
        from .graded import push_right

        out = push_right(inputs[0], inputs[1], bound)
    else:
        from .graded import convolve

        out = convolve(inputs[0], inputs[1], bound)
    _emit(out, args.output)
    return 0


def cmd_enum(args):
    bound = args.bound
    if args.what == "field-theories":
        _expect_count("enum field-theories", args.args, 1, "category name")
        from .bases import field_theories, zc_build

        C = _category_named(args.args[0])
        n = len(field_theories(zc_build(C), budget=args.budget))
    elif args.what == "functors":
        S, T = _load_inputs("enum functors", args.args, ("theory", "theory"))
        n = len(enumerate_morphisms(S, T, bound, args.budget))
    else:
        from .graded import enumerate_algebras

        U, V = _load_inputs("enum algebras", args.args, ("theory", "theory"))
        n = len(enumerate_algebras(U, V, budget=args.colour_budget, bound=bound))
    print(n)
    return 0


def _suite_roundtrip_grading(bound):
    from .graded import from_projection, product_graded, push_left, relabel_graded, terminal_graded, to_projection
    from .zoo import assoc_operad, cyclic_monoid_theory, discrete_category, init_operad

    claims = []
    instances = [
        ("terminal/orders", terminal_graded(assoc_operad(bound=bound))),
        ("product/cyclic", product_graded(cyclic_monoid_theory(2, bound=bound), 2)),
        ("product/init", product_graded(init_operad(bound=bound), 2)),
        ("terminal/discrete", terminal_graded(discrete_category(2, bound=bound))),
        ("product/orders", product_graded(assoc_operad(bound=bound), 2)),
    ]
    for name, X in instances:
        Y, p = to_projection(X)
        X2 = from_projection(Y, p)
        back = relabel_graded(X2, lambda u, x: x[1], lambda d, v, y: y[1])
        claims.append((f"roundtrip {name}", serialize(back) == serialize(X)))
    for name, X in (("terminal/orders", instances[0][1]), ("product/cyclic", instances[1][1])):
        VP, _ = to_projection(X)
        B = push_left(X, terminal_graded(VP, bound=bound))
        back = relabel_graded(B, lambda u, x: x[0][1], lambda d, v, y: y[0][1])
        claims.append((f"unit push over {name}", serialize(back) == serialize(X)))
    return claims


def _suite_theta_lax(bound):
    from .constructions import disc_monoidal, monoidal_as_dim0, theta

    claims = []
    for k, m in ((2, 2), (2, 3)):
        homs = sum(1 for _ in _monoid_maps(k, m))
        A = theta(monoidal_as_dim0(disc_monoidal(k), bound=bound), bound)
        B = theta(monoidal_as_dim0(disc_monoidal(m), bound=bound), bound)
        got = len(enumerate_morphisms(A, B, bound))
        claims.append((f"lax count Z/{k}->Z/{m}: {homs} == {got}", homs == got))
    return claims


def _monoid_maps(k, m):
    from itertools import product as iproduct

    for img in iproduct(range(m), repeat=k):
        if img[0] != 0:
            continue
        if all(img[(a + b) % k] == (img[a] + img[b]) % m for a in range(k) for b in range(k)):
            yield img


_SUITES = {
    "roundtrip-grading": _suite_roundtrip_grading,
    "theta-lax-equivalence": _suite_theta_lax,
}


def cmd_check(args):
    claims = _SUITES[args.suite](args.bound)
    failed = 0
    for name, ok in sorted(claims):
        print(f"{'pass' if ok else 'FAIL'}: {name}")
        failed += 0 if ok else 1
    print(f"{len(claims) - failed}/{len(claims)} claims pass")
    return 0 if failed == 0 else 1


def cmd_fmt(args):
    P = _load(args.path)
    _emit(P, args.output)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="htk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a presentation file")
    p.add_argument("path")
    p.add_argument("--bound", type=_count_arg, help="arity bound to check at (default: the file's)")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("build", help="write a zoo presentation")
    p.add_argument("name")
    p.add_argument("-o", "--output")
    p.add_argument("--bound", type=_count_arg)
    p.add_argument(
        "--deloop-ready",
        action="store_true",
        help="tabulate the extra arities the deloop construction consults",
    )
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("apply", help="apply a construction to files")
    p.add_argument("verb", choices=list(_APPLY_INPUTS))
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output")
    p.add_argument("--bound", type=_count_arg)
    p.add_argument("--colours", type=_colours_arg, help="JSON pair list for detheorize")
    p.add_argument("--colour", type=_json_arg, help="JSON colour for endo")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("enum", help="count functors, algebras or field theories")
    p.add_argument("what", choices=["functors", "algebras", "field-theories"])
    p.add_argument("args", nargs="+")
    p.add_argument("--budget", type=_count_arg, default=1_000_000)
    p.add_argument(
        "--colour-budget",
        type=_count_arg,
        default=2,
        help="colour refinement budget for the algebra enumeration",
    )
    p.add_argument("--bound", type=_count_arg)
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("check", help="run a named verification suite")
    p.add_argument("suite", choices=list(_SUITES))
    p.add_argument("--bound", type=_count_arg)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fmt", help="rewrite a file in canonical form")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_fmt)

    args = parser.parse_args(argv)
    if getattr(args, "what", None) == "field-theories" and args.bound is not None:
        parser.error("enum field-theories takes no --bound: its bordism skeleton is fixed")
    env = os.environ.get("HTK_BOUND")
    if hasattr(args, "bound") and args.bound is None and (env or args.command != "validate"):
        try:
            args.bound = _count_arg(env or "2")
        except argparse.ArgumentTypeError as e:
            parser.error(f"HTK_BOUND: {e}")
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (``htk fmt F | head -c 0``); point
        # stdout at devnull so the flush at exit cannot raise again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 1
    except UsageError as e:
        parser.error(str(e))
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

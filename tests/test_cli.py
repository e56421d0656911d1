"""The command-line surface and the canonical file format."""

import io
import json
import subprocess
import sys

import pytest

from htk.arity import canonical_key, enumerate_arities, layout
from htk.cli import _key_shape, _shaped, main, parse, serialize
from htk.graded import product_graded, terminal_graded
from htk.ordcomb import PLANAR, SYMMETRIC
from htk.theory import lower_key, whole_key
from htk.zoo import assoc_operad, cyclic_monoid_theory, discrete_category, init_operad, terminal_theory
from test_constructions import detheorize_input_without_a_table, endo_input_without_a_label_set, unitless
from test_theory import RELABEL_FAULTS, RELABEL_KEY, with_output


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFormat:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: cyclic_monoid_theory(2),
            lambda: assoc_operad(),
            lambda: discrete_category(2),
            lambda: terminal_graded(init_operad()),
            lambda: product_graded(cyclic_monoid_theory(2), 2),
            lambda: product_graded(assoc_operad(), 2),
        ],
    )
    def test_parse_inverts_serialize(self, build):
        P = build()
        assert parse(serialize(P)) == P

    def test_equal_presentations_share_bytes(self):
        # two independent constructions of the same presentation
        assert serialize(assoc_operad()) == serialize(assoc_operad())

    def test_canonical_json_shape(self):
        text = serialize(cyclic_monoid_theory(2))
        assert text.endswith("\n") and ": " not in text
        obj = json.loads(text)
        assert obj["format"] == "htk-theory/1" and obj["kind"] == "theory"
        assert json.loads(serialize(terminal_graded(assoc_operad())))["kind"] == "graded"

    def test_serialize_after_parse_is_identity_on_files(self, tmp_path, capsys):
        p = tmp_path / "a.json"
        code, out, _ = run(["build", "assoc", "-o", str(p)], capsys)
        assert code == 0
        code, out, _ = run(["fmt", str(p)], capsys)
        assert code == 0 and out == p.read_text()

    def test_boolean_label_is_not_read_as_an_equal_integer(self, tmp_path, capsys):
        # True == 1 and hash(True) == hash(1), so a decoder that shared
        # equal tuples blindly would write [[1]] for [[true]]
        p = tmp_path / "b.json"
        assert run(["build", "assoc", "--bound", "1", "-o", str(p)], capsys)[0] == 0
        obj = json.loads(p.read_text())
        obj["top_mul"][0][1] = [[True]]
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        assert "[[true]]" in text and "[[1]]" in text
        p.write_text(text)
        code, out, _ = run(["fmt", str(p)], capsys)
        assert code == 0 and out == text


class TestExitCodes:
    def test_validate_good_file(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        assert run(["build", "terminal:1", "-o", str(p)], capsys)[0] == 0
        assert run(["validate", str(p)], capsys)[0] == 0

    def test_validate_corrupted_file(self, tmp_path, capsys):
        T = cyclic_monoid_theory(2)
        obj = json.loads(serialize(T))
        # break one composition output
        entry = obj["composition"][0][1][0]
        entry[1] = 1 - entry[1] if isinstance(entry[1], int) else "???"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        code, out, _ = run(["validate", str(p)], capsys)
        assert code == 1 and "at" in out  # violations name the arity key

    def test_malformed_json_is_a_format_error(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        code, _, err = run(["validate", str(p)], capsys)
        assert code == 2 and "error" in err

    def test_wrong_format_tag(self, tmp_path, capsys):
        p = tmp_path / "tagless.json"
        p.write_text(json.dumps({"kind": "theory"}))
        assert run(["validate", str(p)], capsys)[0] == 2

    def test_unknown_zoo_name(self, capsys):
        assert run(["build", "no-such-family"], capsys)[0] == 2

    def test_unknown_enum_target(self, capsys):
        assert run(["enum", "field-theories", "no-such-category"], capsys)[0] == 2

    def test_broken_pipe_exits_one_without_traceback(self, tmp_path, capsys, monkeypatch):
        # ``htk fmt F | head -c 0``: the reader is gone before the write
        p = tmp_path / "t.json"
        assert run(["build", "terminal:1", "-o", str(p)], capsys)[0] == 0

        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["fmt", str(p)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000], ids=["lists", "objects"])
    def test_deeply_nested_json_is_a_format_error(self, text, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text(text)
        code, out, err = run(["fmt", str(p)], capsys)
        assert code == 2 and out == "" and "nested too deeply" in err

    def test_missing_file(self, capsys):
        assert run(["validate", "/nonexistent/x.json"], capsys)[0] == 2

    @pytest.mark.parametrize("argv", [["fmt", "{src}"], ["build", "terminal:1"], ["apply", "theta", "{src}"]])
    def test_unwritable_output_exits_two_without_traceback(self, argv, tmp_path, capsys):
        src = tmp_path / "t.json"
        assert run(["build", "terminal:1", "-o", str(src)], capsys)[0] == 0
        out = tmp_path / "no-such-dir" / "x.json"
        code, stdout, err = run([a.format(src=src) for a in argv] + ["-o", str(out)], capsys)
        assert code == 2 and stdout == "" and "error:" in err and "no-such-dir" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "verb,flag,good,bad",
        [
            ("detheorize", "--colours", '[["*", ["a", "b"]]]', ["[1", "", "5", '{"*": ["a"]}', '[["*", "a"]]', '[["*", [0.5]]]']),
            ("endo", "--colour", '"*"', ["[1", "", "1.5", '{"a": 1}', "[0.5]", '"*" 1']),
        ],
        ids=["colours", "colour"],
    )
    def test_malformed_json_flag_is_a_usage_error(self, verb, flag, good, bad, tmp_path, capsys):
        src = tmp_path / "e1.json"
        assert run(["build", "assoc", "-o", str(src)], capsys)[0] == 0
        assert run(["apply", verb, str(src), flag, good], capsys)[0] == 0
        for value in bad:
            with pytest.raises(SystemExit) as e:
                main(["apply", verb, str(src), flag, value])
            out = capsys.readouterr()
            assert e.value.code == 2 and out.out == ""
            assert f"argument {flag}:" in out.err and "Traceback" not in out.err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dimension", "1"),
            ("dimension", 1.5),
            ("dimension", True),
            ("dimension", -1),
            ("colour_depth", None),
            ("arity_bound", 2.0),
            ("variance", "sideways"),
            ("strata", {}),
            ("strata", []),
            ("strata", [[0, []], [0, []]]),
            ("colour_depth", 2),
        ],
    )
    def test_bad_header_is_a_format_error(self, field, value, tmp_path, capsys):
        obj = json.loads(serialize(assoc_operad()))
        obj[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        for verb in ("validate", "fmt"):
            code, out, err = run([verb, str(p)], capsys)
            assert code == 2 and out == "" and "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj.update(top_mul={"xy": 1}),
            lambda obj: obj.update(top_mul=["xy"]),
            lambda obj: obj.update(top_mul=[["x", "y", "z"]]),
            lambda obj: obj["composition"][0].__setitem__(1, {"ab": 1}),
        ],
        ids=["object", "strings", "triple", "composition-object"],
    )
    def test_table_that_is_not_an_entry_list_is_a_format_error(self, edit, tmp_path, capsys):
        obj = json.loads(serialize(cyclic_monoid_theory(2)))
        edit(obj)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        for verb in ("validate", "fmt"):
            code, out, err = run([verb, str(p)], capsys)
            assert code == 2 and out == "" and "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda strata: strata[0].__setitem__(0, 1.5),
            lambda strata: strata[0].__setitem__(0, "x"),
            lambda strata: strata[0].__setitem__(0, 9),
            lambda strata: strata.append(strata[0]),
        ],
        ids=["float", "string", "out-of-range", "duplicate"],
    )
    def test_bad_graded_stratum_is_a_format_error(self, edit, tmp_path, capsys):
        obj = json.loads(serialize(terminal_graded(terminal_theory(2, bound=1), bound=1)))
        assert [d for d, _ in obj["strata"]] == [1]
        edit(obj["strata"])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        for verb in ("validate", "fmt"):
            code, out, err = run([verb, str(p)], capsys)
            assert code == 2 and out == "" and "error:" in err and "Traceback" not in err

    def test_float_label_is_a_format_error(self, tmp_path, capsys):
        obj = json.loads(serialize(cyclic_monoid_theory(2)))
        entry = obj["composition"][0][1][0]
        entry[1] = 0.5
        p = tmp_path / "float.json"
        p.write_text(json.dumps(obj))
        for verb in ("validate", "fmt"):
            code, out, err = run([verb, str(p)], capsys)
            assert code == 2 and out == "" and "0.5" in err

    @pytest.mark.parametrize(
        "make,edit",
        [
            (assoc_operad, lambda obj: obj["composition"].append([["k9|bogus", [["*"], []]], []])),
            (assoc_operad, lambda obj: obj["composition"].append([["k1|t0|", []], []])),
            (assoc_operad, lambda obj: obj["top_mul"].append([["k2|t0|1/", [["*"], []]], []])),
            (assoc_operad, lambda obj: obj["top_mul"].append(["k1|t1|", []])),
            (assoc_operad, lambda obj: obj["strata"][0][1].append([["k1|t1|", [["*", "*"]]], []])),
            (
                lambda bound: terminal_graded(assoc_operad(bound=bound), bound=bound),
                lambda obj: obj["top_mul"].append([["k2|t0|1/", [[["*", "*"]], []]], []]),
            ),
            # the prefix names the right dimension, but no arity has the key
            (assoc_operad, lambda obj: obj["composition"].append([["k2|bogus", [["*"], []]], []])),
            (assoc_operad, lambda obj: obj["composition"].append([["k2|t01|1/", [["*"], []]], []])),
            (assoc_operad, lambda obj: obj["composition"].append([["k2|t0|1/:", [["*"], []]], []])),
            (assoc_operad, lambda obj: obj["composition"].append([["k2|t1|1,1/", [["*"], []]], []])),
            # an image of 10 writes two digits, so the key reads back too long
            (
                assoc_operad,
                lambda obj: obj["composition"].append([["k2|t2|1,10,1/10:1111111111", [["*"], []]], []]),
            ),
        ],
        ids=[
            "composition-k9",
            "composition-k1",
            "top-k2",
            "top-not-a-pair",
            "colours",
            "graded-top-k2",
            "composition-bogus",
            "composition-leading-zero",
            "composition-extra-map",
            "composition-missing-image",
            "composition-image-10",
        ],
    )
    def test_key_of_another_dimension_is_a_format_error(self, make, edit, tmp_path, capsys):
        obj = json.loads(serialize(make(bound=1)))
        edit(obj)
        p = tmp_path / "stray.json"
        p.write_text(json.dumps(obj))
        for argv in (["validate", str(p), "--bound", "1"], ["fmt", str(p)]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "" and "error: a dimension-" in err and "Traceback" not in err

    @pytest.mark.parametrize("top", [10, 999999999], ids=["top-10", "top-huge"])
    def test_key_past_the_bound_is_not_laid_out(self, top, tmp_path, capsys):
        # the key is canonical, so it parses; a verb that lays out the
        # file's keys stops at it rather than build a huge arity
        obj = json.loads(serialize(assoc_operad(bound=1)))
        obj["top_mul"].append([[f"k1|t{top}|", [["*"] * min(top + 1, 11)]], []])
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(["enum", "functors", str(p), str(p)], capsys)
        assert code == 1 and out == "" and err.count("error:") == 1 and "past the arity bound 1" in err

    def test_own_output_at_bound_10_reads_back(self, tmp_path, capsys):
        # a composition key of a 0-dimensional theory at bound 10 is k1|t10|
        p = tmp_path / "c10.json"
        run(["build", "cyclic:2", "--bound", "10", "-o", str(p)], capsys)
        assert '"k1|t10|"' in p.read_text()
        # checking every site at bound 10 is too large for a unit test
        assert run(["validate", str(p), "--bound", "1"], capsys)[0] == 0
        code, out, _ = run(["fmt", str(p)], capsys)
        assert code == 0 and out == p.read_text()

    @pytest.mark.parametrize(
        "make,edit",
        [
            (assoc_operad, lambda obj: obj["top_mul"][1].__setitem__(1, 5)),
            (assoc_operad, lambda obj: obj["strata"][0][1][0].__setitem__(1, 5)),
            (
                lambda bound: terminal_graded(assoc_operad(bound=bound), bound=bound),
                lambda obj: obj["objects"][0].__setitem__(1, 5),
            ),
            (
                lambda bound: terminal_graded(assoc_operad(bound=bound), bound=bound),
                lambda obj: obj["top_mul"][0][1][0].__setitem__(1, 5),
            ),
            (
                lambda bound: product_graded(cyclic_monoid_theory(2, bound=bound), 2, bound=bound),
                lambda obj: obj["top_mul"][0][1][0].__setitem__(1, 5),
            ),
        ],
        ids=["top", "colours", "graded-objects", "graded-fibre", "dim0-fibre"],
    )
    def test_scalar_label_set_is_a_format_error(self, make, edit, tmp_path, capsys):
        obj = json.loads(serialize(make(bound=1)))
        edit(obj)
        p = tmp_path / "scalar.json"
        p.write_text(json.dumps(obj))
        for argv in (["validate", str(p)], ["apply", "theta", str(p)], ["fmt", str(p)]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "" and err.count("error:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind,table,entry,verb",
        [
            ("graded", "top_mul", [["k1|t0|", 5], []], "validate"),
            ("assoc", "top_mul", [["k1|t1|", 7], ["*"]], "enum"),
            ("assoc", "top_mul", [["k1|t1|", 7], ["*"]], "validate"),
            ("assoc", "top_mul", [["k1|t1|", [["*", "*", "*", "*", "*"]]], ["*"]], "validate"),
            ("assoc", "top_mul", [["k1|t1|", [["*", "*"], []]], ["*"]], "validate"),
            ("assoc", "composition", [["k2|t0|1/", [["*"], [], [], "*"]], []], "validate"),
            ("assoc", "composition", [["k2|t1|0,1/", [["*", "*"], []]], []], "validate"),
            ("assoc", "composition", [["k2|t1|0,1/", [["*"], 5]], []], "validate"),
            ("terminal2", "top_mul", [["k2|t1|0,1/", [["*"], [], 5, "*"]], ["*"]], "validate"),
            ("terminal2", "composition", [["k3|t0|0,1/;1/", [["*"], [5]]], []], "validate"),
            ("graded", "top_mul", [["k1|t0|", [["*"]]], []], "validate"),
            ("graded", "composition", [["k2|t0|1/", [[["*", "*", "*"]], []]], []], "validate"),
        ],
        ids=[
            "graded-int",
            "int-enum",
            "int",
            "five-colours",
            "extra-part",
            "composition-whole-key",
            "composition-colours",
            "composition-lower-not-a-list",
            "chain-not-a-list",
            "lower-level-not-a-list",
            "graded-label-not-a-pair",
            "graded-composition-triple",
        ],
    )
    def test_malformed_boundary_key_is_a_format_error(self, kind, table, entry, verb, tmp_path, capsys):
        # the boundary part of each key has the shape its arity implies
        T = terminal_theory(2, bound=1) if kind == "terminal2" else assoc_operad(bound=1)
        good = tmp_path / "good.json"
        good.write_text(serialize(T))
        obj = json.loads(serialize(terminal_graded(T, bound=1) if kind == "graded" else T))
        obj[table].append(entry)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = ["enum", "functors", str(bad), str(good)] if verb == "enum" else [verb, str(bad)]
        for argv in (argv, ["fmt", str(bad)]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "" and err.count("error:") == 1 and "error: a dimension-" in err
            assert "Traceback" not in err

    def test_built_keys_have_the_checked_shape(self):
        # every whole and lower key the library builds, with pairs as
        # labels, passes the decoder's shape check
        for variance in (SYMMETRIC, PLANAR):
            for k in (1, 2, 3):
                for a in enumerate_arities(k, 2, variance):
                    spec = layout(a).spec
                    for lower, build in ((False, whole_key), (True, lower_key)):
                        key = build(spec, lambda addr: ("deg", addr))
                        parts, colours = _key_shape(canonical_key(a), k, lower, 2)
                        assert colours is None or colours == len(spec.colours)
                        assert _shaped(key, parts, colours, True)

    def test_objects_over_a_dimension_zero_base_are_a_format_error(self, tmp_path, capsys):
        # over a 0-dimensional base the element fibres live in top_mul
        obj = json.loads(serialize(product_graded(cyclic_monoid_theory(2, bound=1), 2, bound=1)))
        assert obj["objects"] == []
        obj["objects"] = [[0, ["ghost"]]]
        p = tmp_path / "ghost.json"
        p.write_text(json.dumps(obj))
        for verb in ("validate", "fmt"):
            code, out, err = run([verb, str(p)], capsys)
            assert code == 2 and out == "" and err.count("error:") == 1 and "objects" in err

    def test_stray_element_is_typed_against_the_base_colours(self, tmp_path, capsys):
        # the elements of a 0-dimensional base are its colours, so the
        # violation reads as over a base of any dimension
        obj = json.loads(serialize(terminal_graded(cyclic_monoid_theory(2, bound=1), bound=1)))
        obj["top_mul"][0][1].append([5, ["x"]])
        p = tmp_path / "stray.json"
        p.write_text(json.dumps(obj))
        code, out, _ = run(["validate", str(p)], capsys)
        assert code == 1 and "grading-typing at '': expected 'base colour', got 5" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "assoc:7"],
            ["build", "init:junk"],
            ["build", "discrete:-1"],
            ["build", "terminal:-2"],
            ["build", "cyclic:x"],
            ["build", "cyclic:0"],
            ["build", "disc-monoid:0"],
            ["build", "product-graded:assoc*x"],
            ["enum", "field-theories", "unit:abc"],
            ["enum", "field-theories", "walking-arrow:9"],
            ["enum", "field-theories", "cyclic-group:0"],
            ["enum", "field-theories", "chain:-1"],
        ],
    )
    def test_bad_family_parameter_is_a_format_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and f"error: {argv[-1]!r}: " in err

    def test_construction_error_is_exit_one(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        run(["build", "cyclic:2", "-o", str(p)], capsys)
        # delooping needs the wider tabulation produced by --deloop-ready
        assert run(["apply", "deloop", str(p)], capsys)[0] == 1


class TestVerbs:
    def test_apply_theta_is_byte_stable(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        run(["build", "cyclic:2", "-o", str(src)], capsys)
        _, first, _ = run(["apply", "theta", str(src)], capsys)
        _, second, _ = run(["apply", "theta", str(src)], capsys)
        assert first == second and json.loads(first)["dimension"] == 1

    def test_deloop_ready_round(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        out = tmp_path / "d.json"
        assert run(["build", "cyclic:2", "--deloop-ready", "-o", str(src)], capsys)[0] == 0
        assert run(["apply", "deloop", str(src), "-o", str(out)], capsys)[0] == 0
        assert run(["validate", str(out)], capsys)[0] == 0
        assert json.loads(out.read_text())["dimension"] == 1

    def test_pull_then_push_validates(self, tmp_path, capsys):
        tg = tmp_path / "tg.json"
        pa = tmp_path / "pa.json"
        pb = tmp_path / "pb.json"
        pl = tmp_path / "pl.json"
        run(["build", "terminal-graded:assoc", "-o", str(tg)], capsys)
        run(["build", "product-graded:assoc*2", "-o", str(pa)], capsys)
        assert run(["apply", "pullback", str(tg), str(pa), "-o", str(pb)], capsys)[0] == 0
        assert run(["validate", str(pb)], capsys)[0] == 0
        assert run(["apply", "pushL", str(tg), str(pb), "-o", str(pl)], capsys)[0] == 0
        assert run(["validate", str(pl)], capsys)[0] == 0

    def test_validate_rejects_a_stray_composition_input(self, tmp_path, capsys):
        T = assoc_operad()
        T.composition[("k2|t0|1/", (("*",), ()))][("junk",)] = (1,)
        src = tmp_path / "stray.json"
        src.write_text(serialize(T))
        code, out, _ = run(["validate", str(src)], capsys)
        assert code == 1 and out.startswith("stray-composition at 'k2|t0|1/'")

    def test_validate_rejects_a_relabeling_that_is_not_a_bijection(self, tmp_path, capsys):
        src = tmp_path / "relabel.json"
        src.write_text(serialize(with_output(assoc_operad(bound=2), RELABEL_KEY, *RELABEL_FAULTS["12"])))
        code, out, _ = run(["validate", str(src)], capsys)
        assert code == 1 and out.startswith(f"relabeling-bijection at {RELABEL_KEY[0]!r}")

    def test_apply_endo_of_a_unitless_theory(self, tmp_path, capsys):
        src, out = tmp_path / "nounit.json", tmp_path / "en.json"
        src.write_text(serialize(unitless()))
        code, _, err = run(["apply", "endo", str(src), "--colour", '"*"', "-o", str(out)], capsys)
        assert code == 0 and err == ""
        assert run(["validate", str(out)], capsys)[1:] == run(["validate", str(src)], capsys)[1:]

    @pytest.mark.parametrize(
        "argv,incomplete",
        [
            (["endo", "--colour", '"*"'], endo_input_without_a_label_set),
            (["detheorize", "--colours", '[["*", ["a"]]]'], detheorize_input_without_a_table),
        ],
        ids=["endo", "detheorize"],
    )
    def test_apply_refuses_an_incomplete_input(self, argv, incomplete, tmp_path, capsys):
        T, key = incomplete()
        src = tmp_path / "in.json"
        src.write_text(serialize(T))
        code, out, err = run(["apply", argv[0], str(src), *argv[1:]], capsys)
        assert code == 1 and out == "" and err.count("error:") == 1 and repr(key) in err

    def test_enum_counts(self, tmp_path, capsys):
        c2 = tmp_path / "c2.json"
        run(["build", "cyclic:2", "-o", str(c2)], capsys)
        assert run(["enum", "functors", str(c2), str(c2)], capsys)[1] == "2\n"
        assert run(["enum", "field-theories", "codiscrete:2"], capsys)[1] == "4\n"
        assert run(["enum", "field-theories", "unit"], capsys)[1] == "1\n"

    def test_validate_checks_at_the_file_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HTK_BOUND", raising=False)
        p = tmp_path / "a1.json"
        assert run(["build", "assoc", "--bound", "1", "-o", str(p)], capsys)[0] == 0
        code, out, _ = run(["validate", str(p)], capsys)
        assert code == 0 and "missing" not in out
        # a larger bound, asked for, still reports the untabulated sites
        code, out, _ = run(["validate", str(p), "--bound", "2"], capsys)
        assert code == 1 and "missing-composition" in out
        monkeypatch.setenv("HTK_BOUND", "2")
        assert run(["validate", str(p)], capsys)[0] == 1

    def test_bound_resolution(self, tmp_path, capsys, monkeypatch):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        c = tmp_path / "c.json"
        run(["build", "assoc", "-o", str(a)], capsys)
        monkeypatch.setenv("HTK_BOUND", "1")
        run(["build", "assoc", "-o", str(b)], capsys)
        assert a.read_text() != b.read_text()
        # an explicit flag wins over the environment
        run(["build", "assoc", "--bound", "2", "-o", str(c)], capsys)
        assert a.read_text() == c.read_text()

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
    def test_bad_bound_flag_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as e:
            main(["enum", "field-theories", "codiscrete:2", "--bound", value])
        out = capsys.readouterr()
        assert e.value.code == 2 and out.out == ""
        assert "usage:" in out.err and "non-negative integer" in out.err

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_bound_environment_is_a_usage_error(self, value, tmp_path, capsys, monkeypatch):
        p = tmp_path / "t.json"
        assert run(["build", "terminal:1", "-o", str(p)], capsys)[0] == 0
        monkeypatch.setenv("HTK_BOUND", value)
        with pytest.raises(SystemExit) as e:
            main(["build", "terminal:1"])
        out = capsys.readouterr()
        assert e.value.code == 2 and out.out == ""
        assert "HTK_BOUND" in out.err and "non-negative integer" in out.err
        # a command that takes no bound does not read the variable
        assert run(["fmt", str(p)], capsys)[0] == 0
        # and an explicit flag wins without consulting it
        assert run(["build", "terminal:1", "--bound", "1"], capsys)[0] == 0

    def test_bad_bound_exits_2_from_the_shell(self):
        r = subprocess.run(
            [sys.executable, "-m", "htk.cli", "build", "terminal:1", "--bound", "-1"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 2 and r.stdout == "" and "usage:" in r.stderr

    def test_field_theories_take_no_bound(self, capsys, monkeypatch):
        for value in ("0", "5"):
            with pytest.raises(SystemExit) as e:
                main(["enum", "field-theories", "codiscrete:2", "--bound", value])
            out = capsys.readouterr()
            assert e.value.code == 2 and out.out == "" and "no --bound" in out.err
        # the environment default is not an explicit flag
        monkeypatch.setenv("HTK_BOUND", "5")
        assert run(["enum", "field-theories", "codiscrete:2"], capsys)[1] == "4\n"

    def test_check_suites(self, capsys):
        code, out, _ = run(["check", "theta-lax-equivalence"], capsys)
        assert code == 0 and "2/2 claims pass" in out
        # an unknown suite is a usage error on stderr
        with pytest.raises(SystemExit) as e:
            main(["check", "no-such-suite"])
        out = capsys.readouterr()
        assert e.value.code == 2 and out.out == ""
        assert "usage:" in out.err and "invalid choice: 'no-such-suite'" in out.err

    def test_module_entry_point(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "htk.cli", "build", "terminal:1"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0 and json.loads(r.stdout)["kind"] == "theory"


class TestCheckRoundtripSuite:
    def test_roundtrip_grading_passes(self, capsys):
        code, out, _ = run(["check", "roundtrip-grading"], capsys)
        assert code == 0 and "7/7 claims pass" in out


@pytest.fixture
def zoo_files(tmp_path, capsys):
    """Plain theories ``z2.json`` (dimension 0) and ``e1.json`` (dimension
    1) and a graded ``V.json`` in ``tmp_path``."""
    assert run(["build", "cyclic:2", "-o", str(tmp_path / "z2.json")], capsys)[0] == 0
    assert run(["build", "assoc", "--bound", "1", "-o", str(tmp_path / "e1.json")], capsys)[0] == 0
    assert run(["build", "terminal-graded:cyclic:2", "-o", str(tmp_path / "V.json")], capsys)[0] == 0
    return tmp_path


def in_dir(d, argv):
    """``argv`` with each ``.json`` name made a path in ``d``."""
    return [str(d / a) if a.endswith(".json") else a for a in argv]


def usage_error(argv, capsys):
    """The stderr of a command line that must be a usage error."""
    with pytest.raises(SystemExit) as e:
        main(argv)
    out = capsys.readouterr()
    assert e.value.code == 2 and out.out == ""
    assert "usage:" in out.err and "Traceback" not in out.err
    return out.err


class TestInputContract:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["apply", "pullback", "V.json"], "apply pullback takes 2 input files, got 1"),
            (["apply", "pushL", "V.json"], "apply pushL takes 2 input files, got 1"),
            (["apply", "pushR", "V.json"], "apply pushR takes 2 input files, got 1"),
            (["apply", "convolve", "V.json"], "apply convolve takes 2 input files, got 1"),
            (["apply", "theta", "z2.json", "V.json"], "apply theta takes 1 input file, got 2"),
            (["apply", "pushL", "V.json", "V.json", "V.json"], "apply pushL takes 2 input files, got 3"),
            (["enum", "functors", "z2.json"], "enum functors takes 2 input files, got 1"),
            (["enum", "algebras", "z2.json"], "enum algebras takes 2 input files, got 1"),
            (["enum", "field-theories", "unit", "codiscrete:2"], "enum field-theories takes 1 category name, got 2"),
        ],
        ids=["pullback", "pushL", "pushR", "convolve", "theta", "pushL-3", "functors", "algebras", "field-theories"],
    )
    def test_wrong_input_count_is_a_usage_error(self, argv, message, zoo_files, capsys):
        assert message in usage_error(in_dir(zoo_files, argv), capsys)

    @pytest.mark.parametrize(
        "argv,kind",
        [
            (["apply", "theta", "V.json"], "theory"),
            (["apply", "deloop", "V.json"], "theory"),
            (["apply", "detheorize", "V.json"], "theory"),
            (["apply", "endo", "V.json", "--colour", '"*"'], "theory"),
            (["enum", "functors", "V.json", "V.json"], "theory"),
            (["enum", "functors", "z2.json", "V.json"], "theory"),
            (["enum", "algebras", "V.json", "V.json"], "theory"),
            (["apply", "pullback", "z2.json", "z2.json"], "graded"),
            (["apply", "pullback", "V.json", "z2.json"], "graded"),
            (["apply", "pushL", "z2.json", "z2.json"], "graded"),
            (["apply", "pushR", "z2.json", "z2.json"], "graded"),
            (["apply", "convolve", "z2.json", "z2.json"], "graded"),
        ],
        ids=[
            "theta",
            "deloop",
            "detheorize",
            "endo",
            "functors",
            "functors-target",
            "algebras",
            "pullback",
            "pullback-target",
            "pushL",
            "pushR",
            "convolve",
        ],
    )
    def test_input_of_the_wrong_kind_is_a_format_error(self, argv, kind, zoo_files, capsys):
        code, out, err = run(in_dir(zoo_files, argv), capsys)
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith(f"error: {argv[0]} {argv[1]} takes a {kind} file, but ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "functors", "z2.json", "z2.json", "--budget", "-1"],
            ["enum", "algebras", "z2.json", "z2.json", "--colour-budget", "-1"],
            ["enum", "field-theories", "unit", "--budget", "-5"],
            ["enum", "functors", "z2.json", "z2.json", "--budget", "many"],
        ],
        ids=["budget", "colour-budget", "field-budget", "not-an-int"],
    )
    def test_bad_budget_is_a_usage_error(self, argv, zoo_files, capsys):
        err = usage_error(in_dir(zoo_files, argv), capsys)
        assert f"argument {argv[-2]}: must be a non-negative integer" in err

    def test_zero_budget_is_accepted(self, zoo_files, capsys):
        z2 = str(zoo_files / "z2.json")
        code, _, err = run(["enum", "functors", z2, z2, "--budget", "0"], capsys)
        assert code == 1 and "budget exceeded" in err


def _htk_modules(code):
    """The ``htk`` modules a fresh interpreter has loaded after ``code``."""
    script = f"import sys\n{code}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'htk'))"
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return set(r.stdout.splitlines()[-1].split())


LEAN = {"htk", "htk.cli", "htk.theory", "htk.arity", "htk.ordcomb"}


class TestLeanImport:
    """A cold ``htk`` process compiles every module it imports, so the
    command line imports only what each verb uses."""

    def test_import_loads_only_the_codec(self):
        assert _htk_modules("import htk.cli") == LEAN

    @pytest.mark.parametrize(
        "argv,extra",
        [
            (["build", "cyclic:2", "-o", "z2.json"], {"htk.zoo"}),
            (["validate", "z2.json"], set()),
            (["fmt", "z2.json"], set()),
            (["apply", "theta", "z2.json", "-o", "th2.json"], {"htk.constructions"}),
            (["enum", "functors", "z2.json", "z2.json"], set()),
            (["apply", "endo", "e1.json", "--colour", '"*"', "-o", "en.json"], {"htk.constructions"}),
            (["apply", "detheorize", "e1.json", "--colours", '[["*", ["a"]]]', "-o", "dt.json"], {"htk.constructions"}),
        ],
        ids=["build", "validate", "fmt", "apply-theta", "enum-functors", "apply-endo", "apply-detheorize"],
    )
    def test_each_verb_loads_only_its_modules(self, argv, extra, zoo_files):
        code = f"from htk.cli import main\nassert main({in_dir(zoo_files, argv)!r}) == 0"
        assert _htk_modules(code) == LEAN | extra

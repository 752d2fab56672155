import json
import os
import pathlib
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import gensim
from gensim import cli
from gensim.cli import main
from gensim.similarity import SimilarityMatrix


def fixture_path(name: str) -> str:
    return str(resources.files("gensim") / "fixtures" / name)


@pytest.fixture(scope="session")
def schema():
    import pathlib

    here = pathlib.Path(__file__).resolve().parent.parent
    with open(here / "docs" / "report-schema.json", encoding="utf-8") as handle:
        return json.load(handle)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(schema, out):
    jsonschema.validate(json.loads(out), schema)


def test_check_holds(capsys):
    code, out, _ = run(
        capsys,
        "check", "--left", fixture_path("chain5.alg"),
        "--a", "a", "--b", "b",
    )
    assert code == 0
    assert "a <~ b: holds [exact]" in out


def test_check_fails_with_certificate(capsys, schema):
    code, out, _ = run(
        capsys,
        "check", "--left", fixture_path("chain4_a.alg"),
        "--right", fixture_path("chain4_b.alg"),
        "--a", "1", "--b", "1", "--format", "json",
    )
    assert code == 1
    validate(schema, out)
    payload = json.loads(out)
    assert payload["certificate"]["element"] == "0"
    assert payload["certificate"]["term"] == "f(z1)"


def test_check_approx_direction(capsys, schema):
    code, out, _ = run(
        capsys,
        "check", "--left", fixture_path("merge_tgt.alg"),
        "--right", fixture_path("merge_src.alg"),
        "--a", "c", "--b", "a", "--relation", "approx", "--format", "json",
    )
    assert code == 1
    validate(schema, out)
    assert json.loads(out)["certificate"]["direction"] == ["MergeTgt", "MergeSrc"]


def test_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra A\nelements x\nconstants none\nop f/1\nend\n")
    code, _, err = run(capsys, "check", "--left", str(bad), "--a", "x", "--b", "x")
    assert code == 2
    assert "error:" in err
    # an element named after a 'constants' keyword is rejected with its line
    bad.write_text("algebra A\nelements none b\nconstants none\n")
    code, _, err = run(capsys, "check", "--left", str(bad), "--a", "b", "--b", "b")
    assert code == 2
    assert "line 2" in err and "reserved" in err
    # a negative arity is rejected at its line, not with a traceback
    bad.write_text("algebra A\nelements x\nconstants none\nop f/-1\nend\n")
    code, _, err = run(capsys, "matrix", "--left", str(bad))
    assert code == 2
    assert err == "error: line 4: operation 'f' has arity -1; must be >= 1\n"
    # a file that is not UTF-8 is an input error, not a failed property
    bad.write_bytes(b"\xff")
    code, _, err = run(capsys, "check", "--left", str(bad), "--a", "x", "--b", "x")
    assert code == 2
    assert "error:" in err and "UTF-8" in err


def test_repeated_constant_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra A\nelements a b\nconstants a a\nop f/1\n  a -> b\n  b -> a\nend\n")
    code, _, err = run(capsys, "matrix", "--left", str(bad))
    assert code == 2
    assert err == "error: line 3: duplicate constant name\n"


def test_byte_order_mark_reads_as_the_plain_file(capsys, tmp_path):
    """A file saved with a UTF-8 byte-order mark reads as it does without
    one; a byte that is not UTF-8 is still reported at its file offset."""
    plain = fixture_path("chain5.alg")
    marked = tmp_path / "chain5.alg"
    with open(plain, "rb") as handle:
        marked.write_bytes(b"\xef\xbb\xbf" + handle.read())
    for argv in [("check", "--a", "a", "--b", "b"), ("matrix",)]:
        code, out, err = run(capsys, argv[0], "--left", str(marked), *argv[1:])
        assert (code, out, err) == run(capsys, argv[0], "--left", plain, *argv[1:])
        assert code == 0 and out
    marked.write_bytes(b"\xef\xbb\xbfalgebra A\n\xff")
    code, _, err = run(capsys, "matrix", "--left", str(marked))
    assert (code, err) == (2, f"error: {marked}: not UTF-8 text (invalid start byte at byte 13)\n")


def test_element_named_end_in_a_unary_table(capsys, tmp_path):
    # Only a whole line "end" closes an op block.
    path = tmp_path / "end.alg"
    path.write_text("algebra U\nelements end q\nconstants none\nop f/1\nend -> q\nq -> end\nend\n")
    code, out, err = run(capsys, "matrix", "--left", str(path))
    assert (code, err) == (0, "")
    assert out.split("\n")[0].split() == ["end", "q"]


def test_map_between_constant_orders(capsys, tmp_path):
    # One algebra declared with its constants in two orders: the identity
    # map between the copies is a homomorphism.
    rows = "op f/1\n  a -> b\n  b -> a\nend\n"
    (tmp_path / "ab.alg").write_text(f"algebra AB\nelements a b\nconstants a b\n{rows}")
    (tmp_path / "ba.alg").write_text(f"algebra BA\nelements a b\nconstants b a\n{rows}")
    (tmp_path / "id.map").write_text("map id : AB -> BA\n  a -> a\n  b -> b\n")
    code, out, err = run(
        capsys, "morphism", "--map", str(tmp_path / "id.map"),
        "--algebras", str(tmp_path / "ab.alg"), str(tmp_path / "ba.alg"), "--verify", "hom",
    )
    assert (code, out, err) == (0, "id is a homomorphism\n", "")


def test_monolinear_cap_exits_2(capsys, tmp_path):
    import random

    from gensim.algebra import render_algebra
    from gensim.morphism import random_monounary_algebra

    paths = []
    for seed in (2, 102):
        path = tmp_path / f"r{seed}.alg"
        path.write_text(render_algebra(random_monounary_algebra(random.Random(seed), 6, 2)))
        paths.append(str(path))
    code, _, err = run(
        capsys, "check", "--left", paths[0], "--right", paths[1], "--a", "e0", "--b", "e0",
        "--fragment", "monolinear", "--cap", "100",
    )
    assert code == 2
    assert "error:" in err and "cap of 100" in err


@pytest.mark.parametrize("relation", ["leq", "approx"])
def test_settled_query_answers_within_the_cap(capsys, relation):
    """nat_sink7's closure has 7 rows.  Its first 6 separate every
    competitor of 5 <~ 6 and of 6 <~ 5, so ``--cap 6`` answers 5 <~ 6 and
    5 ~~ 6 as an uncapped run does, while 1 <~ 0, which fails, needs all
    7 rows and still exits 2."""
    argv = ("check", "--left", fixture_path("nat_sink7.alg"), "--relation", relation)
    uncapped = run(capsys, *argv, "--a", "5", "--b", "6")
    assert uncapped[0] == 0
    assert run(capsys, *argv, "--a", "5", "--b", "6", "--cap", "6") == uncapped
    code, out, err = run(capsys, *argv, "--a", "1", "--b", "0", "--cap", "6")
    assert (code, out) == (2, "") and "cap of 6 " in err


@pytest.mark.parametrize("argv", [
    ("check", "--left", fixture_path("chain5.alg"), "--a", "a", "--b", "b",
     "--fragment", "linear", "--cap", "1"),
    ("check", "--left", fixture_path("chain5.alg"), "--a", "a", "--b", "b",
     "--fragment", "monolinear", "--cap", "1"),
    ("clone", "--algebra", fixture_path("chain5.alg"), "--cap", "1"),
])
def test_cap_bounds_linear_and_clone(capsys, argv):
    """These closures have no K, so the error names only the cap."""
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: profile saturation exceeded the cap of 1 profiles; raise --cap\n"


def test_cap_error_names_k_for_the_general_engine(capsys):
    code, _, err = run(
        capsys, "check", "--left", fixture_path("chain5.alg"), "--a", "a", "--b", "b",
        "--fragment", "general", "--max-vars", "2", "--cap", "10",
    )
    assert code == 2
    assert err == (
        "error: K = 2 needs 5^2 assignments over 'Chain5', "
        "more than the cap of 10; lower K (--max-vars) or raise --cap\n"
    )


@pytest.mark.parametrize("argv", [
    ("clone", "--algebra", fixture_path("chain5.alg")),
    ("check", "--left", fixture_path("chain5.alg"), "--a", "a", "--b", "b"),
])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_1_is_refused_before_any_closure(monkeypatch, capsys, argv, cap):
    from gensim import linear, monolinear

    def refuse(*args, **kwargs):
        raise AssertionError("a closure ran")

    for module in (linear, monolinear):
        monkeypatch.setattr(module, "least_witness_closure", refuse)
    code, out, err = run(capsys, *argv, "--cap", cap)
    assert (code, out, err) == (2, "", "error: bounds must be positive\n")


def test_general_max_vars_beyond_cap_exits_2(capsys):
    # 5^7 assignments exceed the cap: refused before any is listed
    code, _, err = run(
        capsys, "check", "--left", fixture_path("chain5.alg"), "--a", "a", "--b", "b",
        "--fragment", "general", "--max-vars", "7", "--cap", "1000",
    )
    assert code == 2
    assert "error:" in err and "K = 7" in err and "--cap" in err


@pytest.mark.parametrize("argv", [
    ("genlang", "--algebra", fixture_path("chain5.alg"), "--element", "a",
     "--fragment", "general"),
    ("check", "--left", fixture_path("chain5.alg"), "--a", "a", "--b", "b",
     "--format", "dot"),
    ("clone", "--algebra", fixture_path("chain5.alg"), "--max-vars", "3"),
    ("examples", "--cap", "5"),
])
def test_subcommands_reject_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize("argv, engines", [
    (("matrix", "--left", fixture_path("chain5.alg")), 1),
    (("matrix", "--left", fixture_path("chain4_a.alg"),
      "--right", fixture_path("chain4_b.alg")), 2),
    (("check", "--left", fixture_path("chain5.alg"), "--a", "c", "--b", "d",
      "--relation", "approx"), 1),
    (("check", "--left", fixture_path("chain4_a.alg"), "--right", fixture_path("chain4_b.alg"),
      "--a", "0", "--b", "1", "--relation", "approx"), 2),
    # Settled before the closure ends: 6 of nat_sink7's 7 rows, 2 of 3.
    (("check", "--left", fixture_path("nat_sink7.alg"), "--a", "5", "--b", "6",
      "--relation", "approx"), 1),
    (("check", "--left", fixture_path("triple_a.alg"), "--right", fixture_path("triple_b.alg"),
      "--a", "a", "--b", "b", "--relation", "approx"), 1),
])
def test_self_pair_builds_one_engine(engine_builds, capsys, argv, engines):
    """One closure per pair: a cross pair's second engine is the first
    one's transpose, and a self pair's engine serves both directions.  A
    ``~~`` query settled before its closure ends makes no second engine."""
    closures, made = engine_builds
    plain = run(capsys, *argv)
    closures.clear()
    made.clear()
    assert run(capsys, *argv) == plain
    assert len(closures) == 1
    assert len(made) == engines


def test_unary_ground_term_dominates(capsys, tmp_path):
    # the ground term f(a) has range {b} in Swap and {a} in Fix, so it is in
    # Gen(b, a) but not in Gen(b, b)
    swap = tmp_path / "swap.alg"
    swap.write_text("algebra Swap\nelements a b\nconstants a\nop f/1\n  a -> b\n  b -> a\nend\n")
    fix = tmp_path / "fix.alg"
    fix.write_text("algebra Fix\nelements a b\nconstants a\nop f/1\n  a -> a\n  b -> b\nend\n")
    code, out, _ = run(capsys, "check", "--left", str(swap), "--right", str(fix), "--a", "b", "--b", "b")
    assert code == 1
    assert "b <~ b: fails [exact]" in out
    assert "element=a term=f(a)" in out


def test_deep_chain_check(capsys, tmp_path):
    # successor chain e0 -> ... -> e1499, last element fixed: the evidence
    # term f^1301(z1) is 1,301 applications deep
    from gensim.algebra import parse_algebra, self_pair
    from gensim.similarity import decide_leq
    from gensim.terms import parse_term, range_of_term

    n = 1500
    rows = "".join(f"  e{i} -> e{min(i + 1, n - 1)}\n" for i in range(n))
    chain = tmp_path / "chain.alg"
    chain.write_text(
        "algebra Chain\nelements " + " ".join(f"e{i}" for i in range(n))
        + "\nconstants none\nop f/1\n" + rows + "end\n"
    )
    code, out, _ = run(capsys, "check", "--left", str(chain), "--a", "e1400", "--b", "e1300")
    assert code == 1
    assert "e1400 <~ e1300: fails [exact]" in out
    assert "element=e1301 term=" + "f(" * 1301 + "z1" + ")" * 1301 in out
    # the printed certificate is re-checked by the range oracle
    algebra = parse_algebra(chain.read_text())
    term = parse_term(out.split("term=")[1].split()[0], algebra.signature)
    generalized = range_of_term(term, algebra)
    assert "e1400" in generalized and "e1301" in generalized
    assert "e1300" not in generalized
    # the JSON writer prints the same certificate, the term one string
    code, out, _ = run(
        capsys, "check", "--left", str(chain), "--a", "e1400", "--b", "e1300", "--format", "json"
    )
    verdict_dict = decide_leq(self_pair(algebra), "e1400", "e1300").to_dict()
    assert code == 1 and out == json.dumps(verdict_dict, indent=2) + "\n"
    assert json.loads(out)["certificate"] == {
        "kind": "dominating-element", "term": "f(" * 1301 + "z1" + ")" * 1301, "element": "e1301",
    }


def test_missing_file_exits_2(capsys):
    code, _, err = run(
        capsys, "check", "--left", "/nonexistent.alg", "--a", "x", "--b", "x"
    )
    assert code == 2
    assert "error:" in err


def test_matrix_json_deterministic(capsys, schema):
    argv = ("matrix", "--left", fixture_path("chain5.alg"), "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    validate(schema, out1)


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "--left", fixture_path("chain5.alg"))
    assert code == 0
    assert "~~" in out and "<~" in out


def test_genlang_dot(capsys):
    code, out, _ = run(
        capsys,
        "genlang", "--algebra", fixture_path("chain5.alg"),
        "--element", "c", "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph")
    assert 'label="f"' in out


def test_genlang_json(capsys, schema):
    code, out, _ = run(
        capsys,
        "genlang", "--algebra", fixture_path("chain5.alg"),
        "--element", "c", "--format", "json",
    )
    assert code == 0
    validate(schema, out)
    payload = json.loads(out)
    assert payload["states"] == 1
    assert payload["regex"] == "f*"


def test_genlang_lists_ground_terms(capsys, tmp_path, schema):
    # f(a) denotes b in Swap, so b's least ground witness is f(a)
    swap = tmp_path / "swap.alg"
    swap.write_text("algebra Swap\nelements a b\nconstants a\nop f/1\n  a -> b\n  b -> a\nend\n")
    expected = {"a": ["a"], "b": ["f(a)"]}
    for element, ground_terms in expected.items():
        code, out, _ = run(
            capsys, "genlang", "--algebra", str(swap), "--element", element, "--format", "json"
        )
        assert code == 0
        validate(schema, out)
        assert json.loads(out)["ground_terms"] == ground_terms
    code, out, _ = run(
        capsys, "genlang", "--algebra", fixture_path("chain5.alg"), "--element", "c",
        "--format", "json",
    )
    assert json.loads(out)["ground_terms"] == []


def test_charset(capsys, schema):
    code, out, _ = run(
        capsys,
        "charset", "--left", fixture_path("triple_b.alg"),
        "--right", fixture_path("triple_c.alg"),
        "--a", "b", "--b", "c", "--format", "json",
    )
    assert code == 0
    validate(schema, out)
    assert json.loads(out)["terms"] == ["g(z1)"]


def test_charset_not_found(capsys):
    code, out, _ = run(
        capsys,
        "charset", "--left", fixture_path("chain5.alg"),
        "--a", "c", "--b", "c", "--max-size", "2",
    )
    assert code == 1
    assert "no characteristic set" in out
    # a size bound below 1 is a usage error, not a failed search
    for bound in ("0", "-1"):
        code, out, err = run(
            capsys,
            "charset", "--left", fixture_path("chain5.alg"),
            "--a", "c", "--b", "c", "--max-size", bound,
        )
        assert (code, out) == (2, "")
        assert err == f"error: max_size must be >= 1, not {bound}\n"


def test_clone(capsys, schema):
    code, out, _ = run(
        capsys,
        "clone", "--algebra", fixture_path("chain5.alg"), "--format", "json",
    )
    assert code == 0
    validate(schema, out)
    payload = json.loads(out)
    assert payload["polynomials"][0]["witness"] == "z1"


def test_morphism_verifications(capsys, schema):
    base = (
        "morphism",
        "--map", fixture_path("merge.map"),
        "--algebras", fixture_path("merge_src.alg"), fixture_path("merge_tgt.alg"),
    )
    code, out, _ = run(capsys, *base, "--verify", "hom", "--format", "json")
    assert code == 0
    validate(schema, out)
    code, out, _ = run(capsys, *base, "--verify", "iso")
    assert code == 1
    code, out, _ = run(capsys, *base, "--verify", "g-functor", "--format", "json")
    assert code == 1
    validate(schema, out)
    assert json.loads(out)["certificate"]["element"] == "a"
    code, _, err = run(capsys, *base, "--verify", "iso-lemma")
    assert code == 2  # not an isomorphism: precondition error
    code, _, err = run(capsys, *base, "--verify", "sit")
    assert code == 2
    assert "--map2" in err


def test_morphism_refuses_two_algebras_of_one_name(capsys, tmp_path):
    """A third file that reuses the name MergeSrc would otherwise replace
    the source algebra that the map is checked against."""
    source = fixture_path("merge_src.alg")
    renamed = tmp_path / "renamed.alg"
    renamed.write_text(pathlib.Path(fixture_path("merge_tgt.alg")).read_text().replace(
        "algebra MergeTgt", "algebra MergeSrc"))
    code, out, err = run(
        capsys, "morphism", "--map", fixture_path("merge.map"),
        "--algebras", source, fixture_path("merge_tgt.alg"), str(renamed), "--verify", "hom",
    )
    assert (code, out) == (2, "")
    assert err == f"error: algebra 'MergeSrc' is defined in both {source} and {renamed}\n"


def test_iso_lemma_reads_no_engine_option(capsys, tmp_path, schema):
    identity = tmp_path / "id.map"
    identity.write_text(
        "map id : Chain5 -> Chain5\n" + "".join(f"{e} -> {e}\n" for e in "abcde")
    )
    base = (
        "morphism", "--map", str(identity), "--algebras", fixture_path("chain5.alg"),
        "--verify", "iso-lemma",
    )
    expected = "id: generalization sets certified equal (isomorphism)\n"
    for options in ((), ("--cap", "1")):
        code, out, _ = run(capsys, *base, *options)
        assert code == 0
        assert out == expected
    code, out, _ = run(capsys, *base, "--cap", "1", "--format", "json")
    assert code == 0
    validate(schema, out)
    assert json.loads(out) == {
        "map": "id", "source": "Chain5", "target": "Chain5", "method": "isomorphism"
    }


def test_reflexivity(capsys, schema):
    code, out, _ = run(
        capsys,
        "reflexivity", "--left", fixture_path("chain4_a.alg"),
        "--right", fixture_path("chain4_b.alg"), "--format", "json",
    )
    assert code == 1
    validate(schema, out)
    payload = json.loads(out)
    assert payload["reflexive"] is False
    assert any(v["element"] == "1" for v in payload["violations"])


def test_transitivity_single(capsys, schema):
    code, out, _ = run(
        capsys,
        "transitivity", "--left", fixture_path("triple_d.alg"), "--format", "json",
    )
    assert code == 1
    validate(schema, out)
    assert ["a", "b", "c"] in json.loads(out)["violations"]


def test_transitivity_triple(capsys, schema):
    code, out, _ = run(
        capsys,
        "transitivity",
        "--left", fixture_path("triple_a.alg"),
        "--mid", fixture_path("triple_b.alg"),
        "--right", fixture_path("triple_c.alg"),
        "--relation", "leq", "--format", "json",
    )
    assert code == 1
    validate(schema, out)


@pytest.mark.parametrize("option", ["--mid", "--right"])
def test_transitivity_triple_mode_needs_both_algebras(capsys, option):
    code, out, err = run(
        capsys, "transitivity", "--left", fixture_path("triple_a.alg"),
        option, fixture_path("triple_b.alg"),
    )
    assert (code, out, err) == (2, "", "error: triple mode needs --mid and --right\n")


def test_examples_report_a_failing_check(capsys, monkeypatch, schema):
    from gensim import corpus

    checks = corpus.example_checks()[:2]
    failing = corpus.ExampleCheck("always-fails", "a check that fails", lambda: False)
    monkeypatch.setattr(cli, "example_checks", lambda: [checks[0], failing, checks[1]])
    code, out, _ = run(capsys, "examples")
    assert code == 1
    assert [line.split()[0] for line in out.splitlines()] == ["PASS", "FAIL", "PASS"]
    assert out.splitlines()[1] == "FAIL  always-fails: a check that fails"
    code, out, _ = run(capsys, "examples", "--format", "json")
    assert code == 1
    validate(schema, out)
    report = json.loads(out)
    assert report["failures"] == 1
    assert [c["pass"] for c in report["checks"]] == [True, False, True]


def test_default_fragment_notes_a_non_unary_signature(capsys, tmp_path, powerset3):
    from gensim.algebra import render_algebra

    path = tmp_path / "powerset3.alg"
    path.write_text(render_algebra(powerset3))
    a, b = powerset3.carrier[:2]
    argv = ("check", "--left", str(path), "--a", a, "--b", b)
    code, out, err = run(capsys, *argv)
    assert err == (
        "note: non-unary signature, verdicts are linear-fragment "
        "(pass --fragment general for more)\n"
    )
    assert run(capsys, *argv, "--fragment", "linear") == (code, out, "")


def test_examples_all_pass(capsys, schema):
    from gensim import corpus

    names = [
        "chain5-order", "chain5-languages", "nat-sink-order",
        "chain4-reflexivity-failure", "triple-transitivity-failure",
        "merge-not-g-functor", "powerset-union-law", "divisibility-spot-check",
        "characteristic-singleton",
    ]
    assert [c.name for c in corpus.example_checks()] == names
    code, out, _ = run(capsys, "examples")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert [l.split()[1].rstrip(":") for l in lines] == names
    assert all(l.startswith("PASS") for l in lines)
    code, out, _ = run(capsys, "examples", "--format", "json")
    assert code == 0
    validate(schema, out)


@pytest.mark.parametrize("command", ["check", "charset"])
@pytest.mark.parametrize("flag,algebra", [("--a", "ChainA"), ("--b", "ChainB")])
@pytest.mark.parametrize("cap", [(), ("--cap", "1")], ids=["uncapped", "cap-1"])
def test_unknown_element_exits_2(capsys, command, flag, algebra, cap):
    """Names are checked before any closure runs, so a closure past
    ``--cap`` (this pair has 4 rows) does not hide a misnamed element."""
    names = {"--a": "1", "--b": "2", flag: "nosuch"}
    code, out, err = run(
        capsys,
        command, "--left", fixture_path("chain4_a.alg"),
        "--right", fixture_path("chain4_b.alg"), "--a", names["--a"], "--b", names["--b"], *cap,
    )
    assert (code, out) == (2, "")
    assert err == f"error: element 'nosuch' not in carrier of '{algebra}'\n"


def test_fragment_notice_on_stderr(capsys):
    code, _, err = run(
        capsys,
        "check", "--left", fixture_path("triple_b.alg"),
        "--right", fixture_path("triple_c.alg"),
        "--a", "b", "--b", "c",
    )
    assert code == 0
    assert err == ""  # unary signature: exact engine, no notice


@pytest.mark.parametrize("fmt,unused", [
    ("json", ("render_text", "to_dict")), ("text", ("to_dict",)),
])
def test_matrix_builds_only_the_printed_output(capsys, monkeypatch, fmt, unused):
    """``--format json`` writes the report from the verdicts themselves:
    the dict form is built by neither output."""
    for name in unused:
        def refuse(self, name=name):
            raise AssertionError(f"{name} built under --format {fmt}")

        monkeypatch.setattr(SimilarityMatrix, name, refuse)
    code, out, _ = run(capsys, "matrix", "--left", fixture_path("chain5.alg"), "--format", fmt)
    assert code == 0 and "a" in out


CHAIN5 = ("--left", fixture_path("chain5.alg"))


def separate_process(argv, then=""):
    """``gensim ARGV`` in a process of its own: (exit code, stdout, stderr).
    The statements ``then`` run after ``main`` returns, before the exit."""
    src = str(pathlib.Path(gensim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    code = f"import sys\nfrom gensim.cli import main\ncode = main()\n{then}\nsys.exit(code)"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("calls", [
    [("check", *CHAIN5, "--a", "a", "--b", "b", "--relation", "approx"),
     ("check", *CHAIN5, "--a", "a", "--b", "b")],
    [("check", *CHAIN5), ("matrix", *CHAIN5)],
    [("matrix", *CHAIN5, "--format", "json"), ("matrix", *CHAIN5, "--format", "text")],
], ids=["relation-default", "usage-error-then-valid", "json-then-text"])
def test_calls_in_one_process_match_separate_processes(capsys, monkeypatch, calls):
    """``main`` reuses one parser: a call sees no option of the one before."""
    monkeypatch.setenv("COLUMNS", "80")
    results = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results == [separate_process(argv) for argv in calls]
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli._parser()


# The public names of the package, by the module that defines each.
EXPORTS = {
    "algebra": ["Algebra", "AlgebraError", "AlgebraPair", "AlgebraParseError", "Signature",
                "SignatureMismatchError", "make_algebra", "parse_algebra", "render_algebra",
                "self_pair", "validate_pair"],
    "terms": ["App", "Const", "Term", "Var", "parse_term", "range_of_term", "render_g_formula",
              "render_term"],
    "verdict": ["Certificate", "Verdict"],
    "similarity": ["QueryConfig", "build_engine", "check_reflexive", "check_transitive",
                   "decide_algebra_approx", "decide_algebra_leq", "decide_approx", "decide_leq",
                   "find_characteristic_set", "similarity_matrix"],
    "morphism": ["ElementMap", "check_g_functor", "check_second_isomorphism", "is_homomorphism",
                 "is_isomorphism", "parse_map", "verify_isomorphism_lemma"],
    "corpus": ["load_fixture"],
}


def test_cli_import_loads_neither_dataclasses_nor_corpus():
    """In a fresh process ``import gensim`` loads no submodule, and
    ``import gensim.cli`` loads neither ``gensim.corpus`` (nor the
    ``dataclasses`` it needs), which only ``examples`` uses, nor
    ``gensim.automata``, which only ``genlang`` and ``examples`` use.  Each
    public name then loads its defining module's object on first use;
    ``from gensim import *`` and ``dir`` list the 39 names, and the
    test-only term enumerator (``enumerate_terms``, in ``tests/oracles.py``)
    is not one of them."""
    src = str(pathlib.Path(gensim.__file__).resolve().parent.parent)
    code = (
        "import json, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('gensim'))\n"
        "import gensim\n"
        "bare = loaded()\n"
        "import gensim.cli\n"
        "cli = loaded(), 'dataclasses' in sys.modules\n"
        "star = {}\n"
        "exec('from gensim import *', star)\n"
        "owners = {name: getattr(sys.modules['gensim.' + module], name) is star[name]\n"
        f"          for module, names in {EXPORTS!r}.items() for name in names}}\n"
        "try:\n"
        "    gensim.nonexistent\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "from gensim import similarity\n"
        "print(json.dumps([bare, cli, gensim.__all__, sorted(set(star) - {'__builtins__'}),\n"
        "                  set(gensim.__all__) <= set(dir(gensim)), all(owners.values()),\n"
        "                  len(owners), missing, similarity is sys.modules['gensim.similarity'],\n"
        "                  hasattr(gensim, 'enumerate_terms')]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    (bare, (cli_modules, dataclasses), names, star, listed, owned, count, missing, submodule,
     enumerator) = json.loads(done.stdout)
    assert bare == ["gensim"]
    assert cli_modules == ["gensim", *(f"gensim.{m}" for m in [
        "algebra", "cli", "closure", "general", "linear", "monolinear", "morphism", "record",
        "similarity", "terms", "verdict"])]
    assert not dataclasses and not enumerator
    assert names == sorted(name for group in EXPORTS.values() for name in group) == star
    assert len(names) == count == 39 and listed and owned and submodule
    assert missing == "module 'gensim' has no attribute 'nonexistent'"


@pytest.mark.parametrize("argv, loads", [
    (("check", *CHAIN5, "--a", "a", "--b", "b"), False),
    (("matrix", *CHAIN5), False),
    (("genlang", "--algebra", fixture_path("chain5.alg"), "--element", "c", "--format", "dot"), True),
    (("examples",), True),
], ids=["check", "matrix", "genlang-dot", "examples"])
def test_only_genlang_and_examples_load_automata(capsys, argv, loads):
    """In a process of its own, a subcommand loads ``gensim.automata`` only
    when it reads DFAs, and prints what it prints in this process."""
    code, out, err = separate_process(argv, then="print('gensim.automata' in sys.modules)")
    *printed, loaded = out.split("\n")[:-1]
    assert loaded == str(loads)
    assert (code, "".join(line + "\n" for line in printed), err) == run(capsys, *argv)
    assert code == 0


def test_unary_fragment_on_a_non_unary_algebra_exits_2(capsys, tmp_path, powerset3):
    """``NonUnaryError`` lives in ``algebra``, so that the engines need not
    load ``automata``, which still exports it (``build_engine`` raising it
    is ``test_similarity.py::test_unary_engine_requires_unary``)."""
    from gensim import algebra, automata

    assert automata.NonUnaryError is algebra.NonUnaryError
    path = tmp_path / "powerset3.alg"
    path.write_text(algebra.render_algebra(powerset3))
    a = powerset3.carrier[0]
    code, out, err = run(capsys, "check", "--left", str(path), "--a", a, "--b", a, "--fragment", "unary")
    assert (code, out, err) == (2, "", "error: the unary engine requires an all-unary signature\n")


# The arguments each subcommand needs, its last required option last.
VALID = {
    "check": (*CHAIN5, "--a", "a", "--b", "b"),
    "matrix": CHAIN5,
    "genlang": ("--algebra", fixture_path("chain5.alg"), "--element", "a"),
    "charset": (*CHAIN5, "--a", "a", "--b", "b"),
    "clone": ("--algebra", fixture_path("chain5.alg")),
    "morphism": ("--map", fixture_path("merge.map"), "--algebras", fixture_path("merge_src.alg"),
                 fixture_path("merge_tgt.alg"), "--verify", "hom"),
    "reflexivity": CHAIN5,
    "transitivity": CHAIN5,
    "examples": (),
}


def parity_cases():
    yield ()
    yield ("-h",)
    yield ("bogus",)
    yield ("--format", "json", "check", *VALID["check"])
    for command, valid in VALID.items():
        yield (command, "-h")
        if valid:
            yield (command, *valid[:-2])  # a required option missing
        yield (command, *valid, "--format", "xml")
        yield (command, *valid, "--bogus")


@pytest.mark.parametrize(
    "argv", list(parity_cases()), ids=lambda argv: " ".join(["gensim", *map(os.path.basename, argv)])
)
def test_one_subcommand_parser_writes_what_the_full_parser_writes(capsys, monkeypatch, argv):
    """``main`` builds only the named subcommand's parser, and its help,
    usage and errors are those of the parser of all subcommands."""
    assert list(cli.SUBCOMMANDS) == list(VALID)
    monkeypatch.setenv("COLUMNS", "80")
    results = []
    for parse in (main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        captured = capsys.readouterr()
        results.append((exc.value.code, captured.out, captured.err))
    assert results[0] == results[1]
    assert results[0][1] or results[0][2]

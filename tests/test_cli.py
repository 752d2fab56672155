import json
from importlib import resources

import jsonschema
import pytest

from gensim.cli import main


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
    # a file that is not UTF-8 is an input error, not a failed property
    bad.write_bytes(b"\xff")
    code, _, err = run(capsys, "check", "--left", str(bad), "--a", "x", "--b", "x")
    assert code == 2
    assert "error:" in err and "UTF-8" in err


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


def test_examples_all_pass(capsys, schema):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
    code, out, _ = run(capsys, "examples", "--format", "json")
    assert code == 0
    validate(schema, out)


def test_fragment_notice_on_stderr(capsys):
    code, _, err = run(
        capsys,
        "check", "--left", fixture_path("triple_b.alg"),
        "--right", fixture_path("triple_c.alg"),
        "--a", "b", "--b", "c",
    )
    assert code == 0
    assert err == ""  # unary signature: exact engine, no notice

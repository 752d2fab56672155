import pickle
import random
import re
from importlib import resources
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from gensim.algebra import (
    Algebra,
    AlgebraError,
    AlgebraParseError,
    Signature,
    SignatureMismatchError,
    make_algebra,
    parse_algebra,
    render_algebra,
    self_pair,
    validate_pair,
)
from gensim.corpus import fixture_text, load_fixture, powerset_algebra, truncated_multiplication_algebra
from gensim.morphism import ElementMap, parse_map
from oracles import reference_parse_algebra, render_map


def two_chain(name="A"):
    return make_algebra(name, ["x", "y"], {"f": {"x": "y", "y": "y"}})


def test_parse_render_round_trip(chain5):
    assert parse_algebra(render_algebra(chain5)) == chain5
    # every element is a constant, declared out of carrier order
    reordered = parse_algebra(
        "algebra A\nelements p q\nconstants q p\nop f/1\n  p -> q\n  q -> p\nend\n"
    )
    assert reordered.signature.constant_symbols == ("q", "p")
    assert parse_algebra(render_algebra(reordered)) == reordered
    # A repeated constant, which the text cannot hold, is refused up front.
    with pytest.raises(AlgebraError, match="^duplicate constant symbol 'a'$"):
        Signature((("f", 1),), ("a", "a"))
    # The keyword words of the constants line read as the parser reads them.
    for word, symbols in [("none", ()), ("all", ("x", "y"))]:
        algebra = make_algebra("A", ["x", "y"], {"f": {"x": "y", "y": "y"}}, constants=word)
        assert algebra.signature.constant_symbols == symbols
        assert f"\nconstants {word}\n" in render_algebra(algebra)
        assert parse_algebra(render_algebra(algebra)) == algebra


def test_fixture_contents(chain5):
    assert chain5.name == "Chain5"
    assert chain5.carrier == ("a", "b", "c", "d", "e")
    assert chain5.signature.operations == (("f", 1),)
    assert chain5.apply("f", ("e",)) == "c"
    assert chain5.signature.constant_symbols == ()


def test_parse_reports_line_numbers():
    text = "algebra A\nelements x y\nconstants none\nop f/1\n  x -> y\n  y -> z\nend\n"
    with pytest.raises(AlgebraParseError) as exc:
        parse_algebra(text)
    assert "line 6" in str(exc.value)
    assert "z" in str(exc.value)


def test_parse_missing_row():
    text = "algebra A\nelements x y\nconstants none\nop f/1\n  x -> y\nend\n"
    with pytest.raises(AlgebraParseError, match="missing table row"):
        parse_algebra(text)


def test_parse_duplicate_element():
    with pytest.raises(AlgebraParseError, match="duplicate element"):
        parse_algebra("algebra A\nelements x x\nconstants none\n")


def test_parse_binary_rows():
    text = (
        "algebra M\nelements 0 1\nconstants all\nop m/2\n"
        "  (0, 0) -> 0\n  (0, 1) -> 0\n  (1, 0) -> 0\n  (1, 1) -> 1\nend\n"
    )
    algebra = parse_algebra(text)
    assert algebra.apply("m", ("1", "1")) == "1"
    assert algebra.signature.constant_symbols == ("0", "1")
    assert parse_algebra(render_algebra(algebra)) == algebra


def test_parse_unknown_directive():
    with pytest.raises(AlgebraParseError, match="unknown directive"):
        parse_algebra("algebra A\nelements x\nconstants none\nbogus\n")


@pytest.mark.parametrize("text, line, message", [
    ("algebra A\nelements x\nconstants none\nop f/-1\nend\n", 4,
     "operation 'f' has arity -1; must be >= 1"),
    ("algebra A\nelements x\nconstants none\nop f/0\nend\n", 4,
     "operation 'f' has arity 0; must be >= 1"),
    ("algebra A\nelements a b\nelements c d\nconstants none\n", 3,
     "duplicate 'elements' line"),
    ("algebra A\nelements a b\nconstants a\n# later\nconstants b\n", 5,
     "duplicate 'constants' line"),
    # a 'constants' line is resolved after the loop, keeping its own line
    ("algebra A\nconstants c\nelements a b\nop f/1\n  a -> b\n  b -> a\nend\n", 2,
     "unknown constant element 'c'"),
    # symbol clashes, refused on their own line, not by Signature at the end
    ("algebra A\nelements a b\nconstants none\nop z1/1\n  a -> b\n  b -> a\nend\n", 4,
     "operation symbol 'z1' clashes with variable names"),
    ("algebra A\nelements f b\nconstants f\nop f/1\n  f -> b\n  b -> f\nend\n", 3,
     "constant symbol 'f' clashes with an operation symbol"),
    ("algebra A\nconstants z1\nelements z1 b\nop f/1\n  z1 -> b\n  b -> z1\nend\n", 2,
     "constant symbol 'z1' clashes with variable names"),
    ("algebra A\nelements a b\nconstants none\nop f/1\n  a -> b\n  b -> a\nend\n"
     "op f/1\n  a -> a\n  b -> b\nend\n", 8,
     "duplicate operation 'f'"),
], ids=[
    "arity-below-0", "arity-0", "elements-twice", "constants-twice", "constants-unknown",
    "op-variable", "constant-op", "constant-variable", "op-twice",
])
def test_parse_header_faults_name_their_line(text, line, message):
    for parse in (parse_algebra, reference_parse_algebra):
        with pytest.raises(AlgebraParseError) as exc:
            parse(text)
        assert str(exc.value) == f"line {line}: {message}"
        assert exc.value.line == line


@pytest.mark.parametrize("constants", ["all", "none", "b a"])
def test_header_lines_in_any_order(constants):
    from itertools import permutations

    headers = ["algebra A", "elements a b", f"constants {constants}"]
    table = "op f/1\n  a -> b\n  b -> b\nend\n"
    first, *rest = (
        parse_algebra("\n".join(order) + "\n" + table) for order in permutations(headers)
    )
    # 'constants all' before 'elements' used to declare no constants
    assert rest == [first] * 5
    assert first.signature.constant_symbols == {
        "all": ("a", "b"), "none": (), "b a": ("b", "a")
    }[constants]


def test_comments_and_blank_lines_ignored(chain4_a):
    from gensim.corpus import fixture_text

    text = fixture_text("chain4_a.alg")
    assert "#" in text
    assert parse_algebra(text) == chain4_a


def test_signature_rejects_nullary_and_duplicates():
    with pytest.raises(AlgebraError, match="arity"):
        Signature((("c", 0),))
    with pytest.raises(AlgebraError, match="duplicate"):
        Signature((("f", 1), ("f", 2)))
    with pytest.raises(AlgebraError, match="variable"):
        Signature((("z1", 1),))
    with pytest.raises(AlgebraError, match="variable"):
        Signature((("f", 1),), ("z2",))


def test_algebra_requires_total_tables():
    with pytest.raises(AlgebraError, match="missing table row"):
        make_algebra("A", ["x", "y"], {"f": {"x": "y"}}, arities={"f": 1})


def test_make_algebra_reads_its_arguments_as_alg_text():
    """A ``constants`` string is read as the constants line is, and an
    empty table with no arity is refused by the operation's name."""
    table = {"f": {"cd": "x", "x": "x"}}
    for constants, symbols in [
        ("cd", ("cd",)), (" x\tcd ", ("x", "cd")), ("", ()), (" all ", ("cd", "x")), ("none", ()),
    ]:
        algebra = make_algebra("A", ["cd", "x"], table, constants=constants)
        assert algebra.signature.constant_symbols == symbols
        text = f"algebra A\nelements cd x\nconstants {constants}\nop f/1\n  cd -> x\n  x -> x\nend\n"
        assert parse_algebra(text) == algebra
    with pytest.raises(AlgebraError) as caught:
        make_algebra("A", ["x"], {"f": {}})
    assert str(caught.value) == "operation 'f' has an empty table and no arity"
    with pytest.raises(AlgebraError, match=r"missing table row for f\(x\)"):
        make_algebra("A", ["x"], {"f": {}}, arities={"f": 1})


def test_make_algebra_refuses_an_arity_without_a_table():
    with pytest.raises(AlgebraError) as caught:
        make_algebra("A", ["x"], {}, arities={"g": 1})
    assert str(caught.value) == "operation 'g' has an arity but no table"


INDEXED_ALGEBRAS = [
    load_fixture(path.name)
    for path in sorted(resources.files("gensim").joinpath("fixtures").iterdir(), key=lambda p: p.name)
    if path.name.endswith(".alg")
] + [powerset_algebra(tuple("123")), truncated_multiplication_algebra(4)]


@pytest.mark.parametrize("algebra", INDEXED_ALGEBRAS, ids=[a.name for a in INDEXED_ALGEBRAS])
def test_indexed_tables_read_the_name_tables(algebra):
    """Each index tuple, in ``product`` order, maps to the index of the
    name table's image; the table is built once and is no field."""
    twin = Algebra(algebra.name, algebra.carrier, algebra.signature, algebra.tables)
    index = algebra.index
    for sym, arity in algebra.signature.operations:
        table = algebra.indexed(sym)
        assert algebra.indexed(sym) is table
        assert list(table) == list(product(range(len(algebra.carrier)), repeat=arity))
        assert table == {tuple(map(index, tup)): index(out) for tup, out in algebra.tables[sym].items()}
    assert algebra == twin and repr(algebra) == repr(twin)
    copy = pickle.loads(pickle.dumps(algebra))
    assert copy == algebra and repr(copy) == repr(algebra)


def test_algebra_rejects_out_of_carrier_output():
    with pytest.raises(AlgebraError, match="outside the carrier"):
        make_algebra("A", ["x"], {"f": {"x": "w"}})


FULL_M = {(a, b): "x" for a in "xy" for b in "xy"}


@pytest.mark.parametrize("rows, message", [
    ({k: v for k, v in FULL_M.items() if k != ("y", "y")}, "missing table row for m(y, y)"),
    ({**FULL_M, ("x",): "x"}, "'m' row ('x',) has wrong arity"),
    ({**FULL_M, ("x", "w"): "x"}, "'m' row ('x', 'w') uses unknown elements"),
    ({**FULL_M, ("y", "y"): "w"}, "m(y, y) -> 'w' is outside the carrier"),
    # A missing row is reported before a bad one.
    ({**{k: v for k, v in FULL_M.items() if k != ("y", "y")}, ("y", "w"): "x"},
     "missing table row for m(y, y)"),
], ids=["missing-row", "wrong-arity", "unknown-element", "output-outside", "missing-first"])
def test_binary_table_errors_keep_their_wording(rows, message):
    with pytest.raises(AlgebraError) as info:
        Algebra("A", ("x", "y"), Signature((("m", 2),)), {"m": rows})
    assert str(info.value) == f"algebra 'A': {message}"


def test_unary_table_needs_tuple_keys():
    # Bare string keys of the right count, spelled in carrier letters, are
    # still not the rows ("x",) and ("y",).
    with pytest.raises(AlgebraError) as info:
        Algebra("A", ("x", "y"), Signature((("f", 1),)), {"f": {"x": "y", "y": "x"}})
    assert str(info.value) == "algebra 'A': missing table row for f(x)"


def test_validate_pair_signature_mismatch():
    a = two_chain("A")
    b = make_algebra("B", ["x", "y"], {"g": {"x": "y", "y": "y"}})
    with pytest.raises(SignatureMismatchError, match="present in only one"):
        validate_pair(a, b)


def test_validate_pair_operation_order():
    a = make_algebra("A", ["x"], {"f": {"x": "x"}, "g": {"x": "x"}})
    b = make_algebra("B", ["x"], {"g": {"x": "x"}, "f": {"x": "x"}})
    with pytest.raises(SignatureMismatchError) as exc:
        validate_pair(a, b)
    assert str(exc.value) == "operation declaration order differs"


def test_arity_of_an_unknown_symbol():
    with pytest.raises(AlgebraError) as exc:
        Signature((("f", 1),)).arity("g")
    assert (exc.type, str(exc.value)) == (AlgebraError, "unknown operation symbol 'g'")


def test_parse_without_elements_line():
    for parse in (parse_algebra, reference_parse_algebra):
        with pytest.raises(AlgebraParseError) as exc:
            parse("algebra A\nconstants none\n")
        assert str(exc.value) == "missing 'elements' line"
        assert exc.value.line is None


def test_validate_pair_arity_mismatch():
    a = two_chain("A")
    b = make_algebra(
        "B", ["x", "y"], {"f": {("x", "x"): "y", ("x", "y"): "y",
                                ("y", "x"): "y", ("y", "y"): "y"}}
    )
    with pytest.raises(SignatureMismatchError, match="arity"):
        validate_pair(a, b)


def test_validate_pair_constant_symbols_must_agree():
    a = make_algebra("A", ["x", "y"], {"f": {"x": "y", "y": "y"}}, constants=["x"])
    b = make_algebra("B", ["x", "y"], {"f": {"x": "y", "y": "y"}}, constants=["y"])
    with pytest.raises(SignatureMismatchError, match="constant symbols differ"):
        validate_pair(a, b)
    # the same symbols declared in another order make a valid pair
    a = make_algebra("A", ["x", "y"], {"f": {"x": "y", "y": "y"}}, constants=["x", "y"])
    b = make_algebra("B", ["x", "y"], {"f": {"x": "x", "y": "x"}}, constants=["y", "x"])
    pair = validate_pair(a, b)
    assert pair.right.signature.constant_symbols == ("y", "x")


def test_constant_symbol_must_name_a_carrier_element():
    with pytest.raises(AlgebraError, match="not in carrier"):
        make_algebra("B", ["y"], {"f": {"y": "y"}}, constants=["x"])


def test_overlap_is_left_ordered(chain4_a, chain4_b):
    pair = validate_pair(chain4_a, chain4_b)
    assert pair.overlap == ("0", "1", "2", "3")
    assert pair.swapped().left is chain4_b


def test_self_pair(chain5):
    pair = self_pair(chain5)
    assert pair.left is pair.right is chain5
    assert pair.overlap == chain5.carrier


def test_index_and_require_element(chain5):
    assert chain5.index("c") == 2
    with pytest.raises(AlgebraError, match="not in carrier"):
        chain5.require_element("zz")
    with pytest.raises(AlgebraError, match="element 'zz' not in carrier of 'Chain5'"):
        chain5.index("zz")
    assert [chain5.index(e) for e in chain5.carrier] == list(range(len(chain5.carrier)))


@pytest.mark.parametrize("keyword", ["none", "all"])
def test_constants_keywords_are_not_element_names(keyword):
    # "constants none" over "elements none b" used to parse as no constants
    text = f"algebra A\nelements {keyword} b\nconstants {keyword}\n"
    with pytest.raises(AlgebraParseError, match="reserved") as exc:
        parse_algebra(text)
    assert exc.value.line == 2
    with pytest.raises(AlgebraError, match="reserved"):
        make_algebra("A", [keyword, "b"], {"f": {keyword: "b", "b": "b"}})


def test_element_named_end_in_a_unary_table():
    # Only a whole line "end" closes a block, as in a binary table.
    algebra = parse_algebra(
        "algebra U\nelements end q\nconstants none\nop f/1\n  end -> q\n  q -> end\nend\n"
    )
    assert algebra.tables["f"] == {("end",): "q", ("q",): "end"}
    assert parse_algebra(render_algebra(algebra)) == algebra


@pytest.mark.parametrize("algebra,name", [
    (make_algebra("", ["x"]), ""),
    (make_algebra("A B", ["x"]), "A B"),
    (make_algebra("A", ["a#b", "c"], {"f": {"a#b": "c", "c": "c"}}), "a#b"),
    (make_algebra("A", ["a,b"]), "a,b"),
    (make_algebra("A", ["(a)"]), "(a)"),
    (make_algebra("A", ["a\tb"]), "a\tb"),
    (make_algebra("A", ["x"], {"f/g": {"x": "x"}}), "f/g"),
    (make_algebra("A", ["x"], {"": {"x": "x"}}), ""),
])
def test_render_refuses_names_it_cannot_write(algebra, name):
    with pytest.raises(AlgebraError) as exc:
        render_algebra(algebra)
    assert str(exc.value) == f"cannot write the name {name!r} in the .alg format"


@pytest.mark.parametrize("text, line, name", [
    ("algebra A\nelements a (b\nconstants none\nop f/1\n  a -> a\n  (b -> a\nend\n", 2, "(b"),
    ("algebra A\nelements a a,b\nconstants none\n", 2, "a,b"),
    ("algebra A\nconstants none\nelements a b)\n", 3, "b)"),
    ("algebra A(1)\nelements a\nconstants none\n", 1, "A(1)"),
    ("algebra A\nelements a\nconstants none\nop f(/1\n  a -> a\nend\n", 4, "f("),
    ("algebra A\nelements a\nconstants none\nop g,h/1\n  a -> a\nend\n", 4, "g,h"),
    ("algebra A\nelements a\nconstants none\nop /1\n  a -> a\nend\n", 4, ""),
], ids=["element-paren", "element-comma", "element-close", "algebra", "op-paren", "op-comma",
        "op-empty"])
def test_parse_refuses_the_names_render_refuses(text, line, name):
    with pytest.raises(AlgebraParseError) as exc:
        parse_algebra(text)
    assert str(exc.value) == f"line {line}: cannot write the name {name!r} in the .alg format"
    assert exc.value.line == line


def test_render_writes_a_slash_in_an_element_but_not_in_an_operation_symbol():
    algebra = make_algebra("A/B", ["a/b", "c"], {"f": {"a/b": "c", "c": "a/b"}})
    assert parse_algebra(render_algebra(algebra)) == algebra


# Names are made of the arrow, a colon and the words of the .alg and .map
# grammars; about one in ten also holds a character that the .alg text
# cannot hold in a name, or is empty.
NAME_WORDS = ["a", "b", "->", ":", "end", "op", "elements", "constants", "algebra", "map", "none", "all"]
NAME_BREAKS = [" ", "\t", "#", ",", "(", ")", "/"]


@st.composite
def names(draw):
    pieces = draw(st.lists(st.sampled_from(NAME_WORDS), min_size=1, max_size=3))
    spoil = draw(st.integers(0, 19))
    if spoil == 19:
        return ""
    if spoil == 18:
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(NAME_BREAKS)))
    return "".join(pieces)


@st.composite
def named_algebras(draw):
    carrier = draw(st.lists(names(), min_size=1, max_size=3, unique=True))
    arities = dict(zip(
        draw(st.lists(names(), max_size=2, unique=True)),
        draw(st.lists(st.integers(1, 2), min_size=2, max_size=2)),
    ))
    tables = {
        sym: {tup: draw(st.sampled_from(carrier)) for tup in product(carrier, repeat=arity)}
        for sym, arity in arities.items()
    }
    constants = draw(st.lists(st.sampled_from(carrier), unique=True) | st.just("all"))
    try:
        return make_algebra(draw(names()), carrier, tables, constants, arities)
    except AlgebraError:
        assume(False)


def writable(algebra):
    """No name is empty or holds whitespace, ``#``, ``,`` or a parenthesis,
    and no operation symbol holds ``/``."""
    breaks = re.compile(r"[\s#,()]")
    names = [algebra.name, *algebra.carrier, *algebra.signature.op_symbols]
    return all(name and not breaks.search(name) for name in names) and not any(
        "/" in sym for sym in algebra.signature.op_symbols
    )


@settings(max_examples=300, deadline=None)
@given(named_algebras())
def test_render_round_trips_or_refuses_adversarial_names(algebra):
    if not writable(algebra):
        with pytest.raises(AlgebraError, match="cannot write"):
            render_algebra(algebra)
        return
    assert parse_algebra(render_algebra(algebra)) == algebra
    identity = ElementMap("id", algebra, algebra, {e: e for e in algebra.carrier})
    again = parse_map(render_map(identity), {algebra.name: algebra})
    assert again.table == identity.table


# Whole-file mutations of .alg texts: the fixtures and one binary algebra.
ALG_TEXTS = [
    fixture_text(name)
    for name in ("chain5.alg", "chain4_a.alg", "nat_sink7.alg", "triple_a.alg", "unary_fg.alg",
                 "merge_src.alg")
] + [render_algebra(powerset_algebra(("1", "2")))]
INSERTED_LINES = [
    "end", "op f/1", "op g/2", "constants all", "constants none", "constants a", "algebra B",
    "elements a b", "a -> b", "(a, b) -> a", "a, b -> a", "(a -> b", "a ->", "-> a",
    "elements a a,b", "elements x (y", "elements p q)", "op f(/1", "op g,h/2", "op )/1",
    "algebra A,B",
]


@st.composite
def mutated_alg_texts(draw):
    lines = draw(st.sampled_from(ALG_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(
            st.sampled_from(["delete", "duplicate", "swap", "truncate", "insert", "spoil"])
        )
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "insert":
            lines.insert(i, draw(st.sampled_from(INSERTED_LINES)))
        elif not lines:
            continue
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:  # one character that no name may hold, put anywhere in the line
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + draw(st.sampled_from(",()")) + lines[i][j:]
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    """The parsed algebra, or the refusal's type, message and line."""
    try:
        return parse(text)
    except AlgebraError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=1000, deadline=None)
@given(mutated_alg_texts())
def test_mutated_alg_files_are_refused_or_round_trip(text):
    outcome = parse_outcome(parse_algebra, text)
    assert outcome == parse_outcome(reference_parse_algebra, text)
    if isinstance(outcome, Algebra):
        assert parse_algebra(render_algebra(outcome)) == outcome


def mutate_row(rng, text):
    """One table row of ``text`` deleted, duplicated, cut to one argument,
    stripped of its last argument or spoiled by a ``,``, ``(`` or ``)``."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if "->" in line]
    i = rng.choice(rows)
    kind = rng.choice(["delete", "duplicate", "one argument", "drop argument", "spoil"])
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(rng.randrange(rows[0], rows[-1] + 2), lines[i])
    elif kind == "one argument":
        args, _, out = lines[i].partition("->")
        lines[i] = f"  {args.strip(' ()').split(',')[0]} -> {out.strip()}"
    elif kind == "drop argument":
        args, _, out = lines[i].partition("->")
        lines[i] = f"  ({', '.join(args.strip(' ()').split(',')[:-1])}) -> {out.strip()}"
    else:
        j = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:j] + rng.choice(",()") + lines[i][j:]
    return "\n".join(lines) + "\n"


ROW_MUTANTS = [
    mutate_row(random.Random(seed), text)
    for seed in range(60)
    for text in ALG_TEXTS + [render_algebra(truncated_multiplication_algebra(3))]
]


def test_mutated_table_rows_parse_as_the_row_by_row_reader_does():
    outcomes = [parse_outcome(parse_algebra, text) for text in ROW_MUTANTS]
    assert outcomes == [parse_outcome(reference_parse_algebra, text) for text in ROW_MUTANTS]
    # Both kinds of outcome occur: accepted texts and refused rows.
    assert any(isinstance(outcome, Algebra) for outcome in outcomes)
    assert any("duplicate table row" in outcome[1] for outcome in outcomes if isinstance(outcome, tuple))


@pytest.mark.parametrize("rows, line, message", [
    # An unclosed block words its first bad row's error first.
    ("op f/1\n  end -> b\n  b -> c\n", 6, "out-of-carrier output 'c' for f(b)"),
    ("op f/1\n  end -> b\n  b -> end\n", 4, "op block 'f' not closed with 'end'"),
    ("op f/1\n  end -> b\n  end -> end\nend\n", 6, "duplicate table row for f(end)"),
    ("op g/2\n  end -> b\nend\n", 5, "'g' expects 2 argument(s), row has 1"),
    ("op g/2\n  (end, b, b) -> b\nend\n", 5, "'g' expects 2 argument(s), row has 3"),
    ("op f/1\n  end, -> b\nend\n", 5, "'f' expects 1 argument(s), row has 2"),
    ("op f/1\n  end -> b\n  (b)) -> b\nend\n", 6, "malformed table row '(b)) -> b'"),
    ("op f/1\n  end -> b\n  b -> b\n end \n", None, None),
    ("op g/2\n  (end, end) -> b\n  (end, b) -> end\n  (b, end) -> b\n  (b, b) -> b\nend\n",
     None, None),
    ("op g/2\n  (end, end) -> b\n  (end, b) -> end\n  (b, b) -> b\nend\n",
     8, "missing table row for g(b, end)"),
], ids=["unclosed-bad-row", "unclosed", "duplicate", "arity-1", "arity-3", "comma",
        "parentheses", "end-unary", "end-binary", "missing"])
def test_table_rows_are_refused_on_their_line(rows, line, message):
    """Rows that start with an element named 'end' are rows, not the end
    of their block; each refusal names its line."""
    text = "algebra A\nelements end b\nconstants none\n" + rows
    outcome = parse_outcome(parse_algebra, text)
    assert outcome == parse_outcome(reference_parse_algebra, text)
    if message is None:
        assert isinstance(outcome, Algebra)
    else:
        assert outcome == (AlgebraParseError, f"line {line}: {message}", line)


# Names that hold ``->`` or its halves, and ``end``: a row of them can
# hold several arrows, and one can look like the end of its block.
ARROW_NAMES = ["->", "a->b", "b->c", "a", "a-", ">b", "end", "x->", "->y", "-"]


def adversarial_alg_text(rng):
    """One op block over ``ARROW_NAMES``: rows written as ``render_algebra``
    writes them or spaced with tabs, doubled spaces, no spaces, commas
    without a space or parentheses around one argument; now and then a
    row dropped, duplicated, given an unknown name or a third argument."""
    carrier = rng.sample(ARROW_NAMES, rng.randint(2, 4))
    arity = rng.choice([1, 2])
    lines = ["algebra A", "elements " + " ".join(carrier), "constants none", f"op f/{arity}"]
    for args in product(carrier, repeat=arity):
        if rng.random() < 0.7:  # as render_algebra writes it
            lines.append(f"  {args[0]} -> " if arity == 1 else f"  ({', '.join(args)}) -> ")
            lines[-1] += rng.choice(carrier)
            continue
        if rng.random() < 0.05:
            args += (rng.choice(carrier),)
        if rng.random() < 0.05:
            args = ("nosuch",) + args[1:]
        comma = rng.choice([", ", ",", " ,", ",\t"])
        text = args[0] if len(args) == 1 and rng.random() < 0.6 else f"({comma.join(args)})"
        arrow = rng.choice([" -> ", "->", "\t->\t", " ->", "->  ", "  -> "])
        lines.append(rng.choice(["  ", "\t", ""]) + text + arrow + rng.choice(carrier))
    if rng.random() < 0.2:
        del lines[rng.randrange(4, len(lines))]
    if rng.random() < 0.2:
        lines.insert(rng.randrange(4, len(lines) + 1), lines[rng.randrange(4, len(lines))])
    return "\n".join(lines + ["end"]) + "\n"


ADVERSARIAL_TEXTS = [adversarial_alg_text(random.Random(seed)) for seed in range(400)]


def test_adversarial_rows_parse_as_the_row_by_row_reader_does():
    """The bulk reader's per-arity pattern and its fallback to ``_ROW_RE``
    read every row as the reference reader does, one row at a time."""
    outcomes = [parse_outcome(parse_algebra, text) for text in ADVERSARIAL_TEXTS]
    assert outcomes == [parse_outcome(reference_parse_algebra, text) for text in ADVERSARIAL_TEXTS]
    accepted = [text for text, outcome in zip(ADVERSARIAL_TEXTS, outcomes) if isinstance(outcome, Algebra)]
    assert len(accepted) >= 100 and len(accepted) <= 350
    # Accepted texts both with and without a row the pattern does not match.
    assert any("\t" in text for text in accepted) and any("\t" not in text for text in accepted)


@pytest.mark.parametrize("row, args, out", [
    ("a->b->c", ("a",), "b->c"),
    ("a -> b->c", ("a",), "b->c"),
    ("a->b -> b->c", ("a->b",), "b->c"),
    ("(a->b) -> a", ("a->b",), "a"),
    ("a\t->\tb->c", ("a",), "b->c"),
])
def test_names_are_lazy_in_a_row(row, args, out):
    """A row's arguments end at its first arrow that leaves one name."""
    text = f"algebra A\nelements a a->b b->c\nconstants none\nop f/1\n  {row}\n"
    rows = [f"  {x} -> a" for x in ("a", "a->b", "b->c") if (x,) != args]
    algebra = parse_algebra(text + "\n".join(rows) + "\nend\n")
    assert algebra.tables["f"][args] == out

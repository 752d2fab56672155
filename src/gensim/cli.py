"""Command-line interface.

Exit codes: 0 when the queried relation or check holds, 1 when it does
not, 2 on usage, parse, or engine errors.  JSON output has a fixed key
order, so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain, repeat

from .algebra import Algebra, AlgebraError, parse_algebra, self_pair, validate_pair
from .monolinear import dump_clone, ground_value_terms, polynomial_clone
from .morphism import (
    check_g_functor,
    check_second_isomorphism,
    is_homomorphism,
    is_isomorphism,
    parse_map,
    verify_isomorphism_lemma,
)
from .similarity import (
    FRAGMENT_CHOICES,
    QueryConfig,
    build_engine,  # unused; only bench/tracing.py patches it
    check_reflexive,
    check_transitive,
    decide_approx,
    decide_leq,
    find_characteristic_set,
    similarity_matrix,
)
from .terms import render_term
from .verdict import LINEAR_FRAGMENT


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")  # a byte-order mark
    except UnicodeDecodeError as exc:
        raise AlgebraError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _load_algebra(path: str) -> Algebra:
    return parse_algebra(_read_text(path))


def _config(args) -> QueryConfig:
    return QueryConfig(
        fragment=args.fragment,
        max_vars=args.max_vars,
        cap=args.cap,
    )


def _query(args):
    """The pair (``--right`` defaults to ``--left``) and the engine options
    of a query; notes on stderr when the default engine is not exact."""
    left = _load_algebra(args.left)
    pair = validate_pair(left, _load_algebra(args.right)) if args.right else self_pair(left)
    config = _config(args)
    if config.fragment == "auto" and not pair.left.signature.is_unary():
        print(
            f"note: non-unary signature, verdicts are {LINEAR_FRAGMENT} "
            "(pass --fragment general for more)",
            file=sys.stderr,
        )
    return pair, config


# The C string escaper that json.dumps uses, bound at import: the writer
# reaches nothing through the module attribute ``json`` at call time.
_quote = json.encoder.encode_basestring_ascii


def _encode(obj, depth: int) -> str:
    """What ``json.dumps(obj, indent=2)`` writes for ``obj`` at ``depth``
    levels deep.  Values are dicts with str keys, lists, tuples, str, int,
    bool and None; any other type raises TypeError.  A term is one string,
    so a deep witness adds no recursion."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not all(map(isinstance, obj, repeat(str))):
            raise TypeError("keys must be str")
        items = [_quote(key) + ": " + _encode(value, depth + 1) for key, value in obj.items()]
        ends = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_encode(value, depth + 1) for value in obj]
        ends = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return ends
    inner = "\n" + "  " * (depth + 1)
    return ends[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + ends[1]


def render_json(payload) -> str:
    """The JSON text of ``payload``: byte for byte what ``json.dumps``
    writes with ``indent=2``."""
    return _encode(payload, 0)


def write_matrix_json(matrix, write) -> None:
    """Write ``json.dumps(matrix.to_dict(), indent=2)`` and a newline, a
    row of cells per ``write``, building no cell dict and never the whole
    text.  Each of ``matrix.distinct_verdicts()`` is encoded once, each
    evidence term rendered once.  The text between values is cut from
    what ``_encode`` writes for a sample report and cell, their values 0.
    Rows with one ``~~`` row list are joined from one list of cell texts,
    held until the last of them.
    """
    terms: dict = {}
    texts = {id(v): _encode(v.to_dict(terms), 3) for v in matrix.distinct_verdicts()}
    cell = _encode(dict.fromkeys(("a", "b", "leq", "geq", "approx"), 0), 2)
    start, after_a, after_b, *after = cell.split("0")
    finds = [{i: t + rest for i, t in texts.items()}.__getitem__ for rest in after]
    cols = [_quote(b) + after_b for b in matrix.cols]
    cells = zip(matrix.leq._rows, matrix.geq._rows, matrix.approx._rows)
    last, held = {id(zs): i for i, zs in enumerate(matrix.approx._rows)}, {}
    # The names come before the cells, so the last two 0s are the cells'.
    head, between, tail = render_json({
        "left": matrix.pair.left.name, "right": matrix.pair.right.name,
        "rows": list(matrix.rows), "cols": list(matrix.cols), "cells": [0, 0],
    }).rsplit("0", 2)
    write(head)
    for i, (a, verdicts) in enumerate(zip(matrix.rows, cells)):
        prefix = between + start + _quote(a) + after_a
        key = id(verdicts[2])
        values = [map(find, map(id, vs)) for find, vs in zip(finds, verdicts)]
        final = last[key] == i
        shared = held.pop(key, None) if final else held.get(key)
        if shared is None and final:
            row = "".join(chain.from_iterable(zip(repeat(prefix), cols, *values)))
        else:
            if shared is None:
                shared = held[key] = [*map("".join, zip(cols, *values))]
            row = prefix + prefix.join(shared)
        write(row if i else row[len(between):])  # no separator before the first cell
    write(tail + "\n")


def _emit(args, payload, text) -> None:
    """Print ``payload()`` as JSON or ``text()``, as ``--format`` asks:
    the other is never built."""
    if args.format == "json":
        print(render_json(payload()))
    else:
        text = text()
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_check(args) -> int:
    pair, config = _query(args)
    decide = decide_approx if args.relation == "approx" else decide_leq
    verdict = decide(pair, args.a, args.b, config)
    relation_symbol = "~~" if args.relation == "approx" else "<~"
    lines = [
        f"{args.a} {relation_symbol} {args.b}: "
        f"{'holds' if verdict.holds else 'fails'} [{verdict.fragment_label}]"
    ]
    if verdict.certificate is not None:
        cert = verdict.certificate
        parts = [f"certificate: {cert.kind}"]
        if cert.element is not None:
            parts.append(f"element={cert.element}")
        if cert.term is not None:
            parts.append(f"term={render_term(cert.term)}")
        if cert.direction is not None:
            parts.append(f"direction={cert.direction[0]}->{cert.direction[1]}")
        lines.append("  " + " ".join(parts))
    _emit(args, verdict.to_dict, lambda: "\n".join(lines) + "\n")
    return 0 if verdict.holds else 1


def cmd_matrix(args) -> int:
    pair, config = _query(args)
    matrix = similarity_matrix(pair, config)
    if args.format == "json":
        write_matrix_json(matrix, sys.stdout.write)
    else:
        print(matrix.render_text(), end="")
    return 0


def cmd_genlang(args) -> int:
    from . import automata  # only genlang and examples load the DFA code

    algebra = _load_algebra(args.algebra)
    dfa = automata.gen_language(algebra, args.element)
    if args.format == "dot":
        print(automata.export_dot(dfa), end="")
        return 0
    regex = automata.dfa_to_regex(dfa)
    _emit(
        args,
        lambda: {
            "algebra": algebra.name,
            "element": args.element,
            "states": dfa.n_states,
            "regex": regex,
            "ground_terms": [
                render_term(term)
                for value, term in ground_value_terms(algebra)
                if value == args.element
            ],
        },
        lambda: f"language of {args.element} in {algebra.name}: "
        f"{regex} ({dfa.n_states} states)\n",
    )
    return 0


def cmd_charset(args) -> int:
    pair, config = _query(args)
    charset = find_characteristic_set(pair, args.a, args.b, args.max_size, config)
    if charset is None:
        _emit(
            args,
            lambda: {"found": False, "max_size": args.max_size},
            lambda: f"no characteristic set of size <= {args.max_size}\n",
        )
        return 1
    rendered = [render_term(t) for t in charset]
    _emit(
        args,
        lambda: {"found": True, "terms": rendered},
        lambda: "{ " + ", ".join(rendered) + " }\n",
    )
    return 0


def cmd_clone(args) -> int:
    algebra = _load_algebra(args.algebra)
    clone = polynomial_clone(algebra, QueryConfig(cap=args.cap).cap)
    _emit(
        args,
        lambda: {
            "algebra": algebra.name,
            "polynomials": [
                {
                    "table": dict(zip(algebra.carrier, p.table)),
                    "witness": render_term(p.witness),
                }
                for p in clone
            ],
        },
        lambda: dump_clone(clone, algebra),
    )
    return 0


def cmd_morphism(args) -> int:
    algebras: dict[str, Algebra] = {}
    paths: dict[str, str] = {}
    for path in args.algebras:
        algebra = _load_algebra(path)
        first = paths.setdefault(algebra.name, path)
        if first != path:
            raise AlgebraError(f"algebra {algebra.name!r} is defined in both {first} and {path}")
        algebras[algebra.name] = algebra
    emap = parse_map(_read_text(args.map), algebras)
    config = _config(args)
    if args.verify in ("hom", "iso"):
        hom = args.verify == "hom"
        kind = "homomorphism" if hom else "isomorphism"
        ok = (is_homomorphism if hom else is_isomorphism)(emap)
        _emit(
            args,
            lambda: {"map": emap.name, kind: ok},
            lambda: f"{emap.name} is{'' if ok else ' not'} {'a' if hom else 'an'} {kind}\n",
        )
        return 0 if ok else 1
    if args.verify == "iso-lemma":
        report = verify_isomorphism_lemma(emap)
        _emit(
            args,
            report.to_dict,
            lambda: f"{emap.name}: generalization sets certified equal ({report.method})\n",
        )
        return 0
    if args.verify == "g-functor":
        verdict = check_g_functor(emap, config)
        text = f"{emap.name} is{'' if verdict.holds else ' not'} a g-functor"
        if verdict.certificate is not None:
            text += f" (fails at {verdict.certificate.element})"
        _emit(args, verdict.to_dict, lambda: text + "\n")
        return 0 if verdict.holds else 1
    # sit: transport of similarity along two isomorphisms
    if not args.map2:
        print("error: --verify sit requires --map2", file=sys.stderr)
        return 2
    gmap = parse_map(_read_text(args.map2), algebras)
    report = check_second_isomorphism(emap, gmap, config)
    _emit(
        args,
        report.to_dict,
        lambda: f"similarity transport {emap.name}/{gmap.name}: "
        f"{'certified' if report.certified else 'VIOLATED'} "
        f"({report.pairs_checked} pairs)\n",
    )
    return 0 if report.certified else 1


def cmd_reflexivity(args) -> int:
    pair, config = _query(args)
    report = check_reflexive(pair, config)
    lines = [
        f"overlap {{{', '.join(report.checked)}}}: "
        f"{'reflexive' if report.reflexive else 'NOT reflexive'}"
    ]
    for element, direction, verdict in report.violations:
        cert = verdict.certificate
        lines.append(
            f"  {element} fails {direction[0]}->{direction[1]}: "
            f"dominated by {cert.element}, evidence {render_term(cert.term)}"
        )
    _emit(args, report.to_dict, lambda: "\n".join(lines) + "\n")
    return 0 if report.reflexive else 1


def cmd_transitivity(args) -> int:
    config = _config(args)
    if args.right or args.mid:
        if not (args.mid and args.right):
            print("error: triple mode needs --mid and --right", file=sys.stderr)
            return 2
        subject = (
            _load_algebra(args.left),
            _load_algebra(args.mid),
            _load_algebra(args.right),
        )
    else:
        subject = _load_algebra(args.left)
    report = check_transitive(subject, config, args.relation)
    lines = [
        f"{args.relation} transitivity: "
        f"{'holds' if report.transitive else 'FAILS'} "
        f"({report.triples_checked} chained triples)"
    ]
    for x, y, z in report.violations:
        lines.append(f"  violation: {x}, {y}, {z}")
    _emit(args, report.to_dict, lambda: "\n".join(lines) + "\n")
    return 0 if report.transitive else 1


def example_checks():
    """The bundled example checks.  ``corpus``, and with it ``dataclasses``
    and ``automata``, is imported here: no other subcommand loads the
    first two, and only ``genlang`` loads ``automata``."""
    from .corpus import example_checks

    return example_checks()


def cmd_examples(args) -> int:
    failures = 0
    results = []
    for check in example_checks():
        ok = check.run()
        results.append({"name": check.name, "pass": ok})
        if not ok:
            failures += 1
        if args.format != "json":
            print(f"{'PASS' if ok else 'FAIL'}  {check.name}: {check.description}")
    if args.format == "json":
        print(render_json({"checks": results, "failures": failures}))
    return 0 if failures == 0 else 1


def _option(*flags, **kwargs):
    """One ``add_argument`` call, as data."""
    return flags, kwargs


# Each subcommand takes only the options some mode of it reads: the output
# format, the saturation cap of its closures, and the engine selection,
# whose defaults are QueryConfig's.
_DEFAULTS = QueryConfig()
_FORMAT = _option("--format", choices=("text", "json"), default="text")
_CAP = _option("--cap", type=int, default=_DEFAULTS.cap, help="saturation size cap")
_COMMON = (
    _CAP,
    _option(
        "--fragment",
        choices=FRAGMENT_CHOICES,
        default=_DEFAULTS.fragment,
        help="term fragment / engine selection (default: %(default)s)",
    ),
    _option("--max-vars", type=int, default=_DEFAULTS.max_vars, help="K for the general engine"),
    _FORMAT,
)
_PAIR = (
    _option("--left", required=True, help="left .alg file"),
    _option("--right", help="right .alg file (default: left)"),
)
_ELEMENTS = (
    _option("--a", required=True, help="left element"),
    _option("--b", required=True, help="right element"),
)

# name: (handler, help, options in the order that help lists them)
SUBCOMMANDS = {
    "check": (cmd_check, "decide a <~ b or a ~~ b", (
        *_COMMON, *_PAIR, *_ELEMENTS,
        _option("--relation", choices=("leq", "approx"), default="leq"),
    )),
    "matrix": (cmd_matrix, "all pairwise verdicts", (*_COMMON, *_PAIR)),
    "genlang": (cmd_genlang, "generalization language of an element", (
        _option("--algebra", required=True),
        _option("--element", required=True),
        _option("--format", choices=("text", "json", "dot"), default="text"),
    )),
    "charset": (cmd_charset, "minimum characteristic generalization set", (
        *_COMMON, *_PAIR, *_ELEMENTS, _option("--max-size", type=int, default=3),
    )),
    "clone": (cmd_clone, "unary polynomial clone report", (
        _CAP, _FORMAT, _option("--algebra", required=True),
    )),
    "morphism": (cmd_morphism, "verify an element map", (
        *_COMMON,
        _option("--map", required=True, help=".map file"),
        _option("--map2", help="second .map file for --verify sit"),
        _option("--algebras", nargs="+", required=True, help=".alg files the map refers to"),
        _option(
            "--verify",
            choices=("hom", "iso", "g-functor", "iso-lemma", "sit"),
            required=True,
        ),
    )),
    "reflexivity": (cmd_reflexivity, "self-similarity over shared names", (*_COMMON, *_PAIR)),
    "transitivity": (cmd_transitivity, "exhaustive transitivity check", (
        *_COMMON,
        _option("--left", required=True, help="single algebra, or first of three"),
        _option("--mid", help="middle algebra of a triple"),
        _option("--right", help="last algebra of a triple"),
        _option("--relation", choices=("leq", "approx"), default="approx"),
    )),
    "examples": (cmd_examples, "run the bundled example corpus", (_FORMAT,)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``gensim`` parser.  Given a ``command``, only that subcommand's
    parser is built: it parses that subcommand's arguments as the full
    parser does, but the top-level usage it would print lists no other
    subcommand."""
    parser = argparse.ArgumentParser(
        prog="gensim",
        description="Decide generalization-based similarity on finite algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flags, kwargs in options:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(func=func)
    return parser


# ``main`` builds each parser on first use and reuses it: parsing reads
# the parser and never changes it, and each call gets a new Namespace.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args, extra = _parser(command).parse_known_args(argv)
    if extra:
        # Left over: the full parser reports them, under its own usage line.
        args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

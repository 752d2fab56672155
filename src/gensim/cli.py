"""Command-line interface.

Exit codes: 0 when the queried relation or check holds, 1 when it does
not, 2 on usage, parse, or engine errors.  JSON output has a fixed key
order, so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import automata
from .algebra import Algebra, AlgebraError, parse_algebra, self_pair, validate_pair
from .corpus import example_checks
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
    QueryConfig,
    build_engine,
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
            return handle.read()
    except UnicodeDecodeError as exc:
        raise AlgebraError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _load_algebra(path: str) -> Algebra:
    return parse_algebra(_read_text(path))


def _load_pair(args):
    left = _load_algebra(args.left)
    if getattr(args, "right", None):
        return validate_pair(left, _load_algebra(args.right))
    return self_pair(left)


def _config(args) -> QueryConfig:
    return QueryConfig(
        fragment=args.fragment,
        max_vars=args.max_vars,
        cap=args.cap,
    )


def _engine_notice(pair, config: QueryConfig):
    if config.fragment == "auto" and not pair.left.signature.is_unary():
        print(
            f"note: non-unary signature, verdicts are {LINEAR_FRAGMENT} "
            "(pass --fragment general for more)",
            file=sys.stderr,
        )


# The C string escaper that json.dumps uses, bound at import: the writer
# reaches nothing through the module attribute ``json`` at call time.
_quote = json.encoder.encode_basestring_ascii


def render_json(payload) -> str:
    """The JSON text of ``payload`` with two-space indentation: byte for
    byte what ``json.dumps`` writes with ``indent=2``.

    Values are dicts with str keys, lists, tuples, str, int, bool and None;
    any other type raises TypeError.  Within one call each container's text
    is memoized by ``(id(obj), depth)``, so a dict that a report shares
    between many places (one per distinct verdict of a matrix) is encoded
    once per depth.

    The text is written as one list of pieces, joined once at the end as
    json.dumps does: a container first records where its pieces lie, and
    is joined into one string only when it is met again.  Texts of the
    whole report or of one long list are never built twice over, so the
    peak memory stays near that of ``json.dumps``.
    """
    out: list[str] = []
    write = out.append
    # (id, depth) -> (start, end) of the first encoding's pieces, or its text.
    memo: dict[tuple[int, int], tuple[int, int] | str] = {}

    def encode(obj, depth: int) -> None:
        if isinstance(obj, str):
            write(_quote(obj))
        elif obj is None:
            write("null")
        elif obj is True:
            write("true")
        elif obj is False:
            write("false")
        elif isinstance(obj, int):
            write(int.__repr__(obj))
        else:
            key = (id(obj), depth)
            seen = memo.get(key)
            if seen is None:
                start = len(out)
                encode_container(obj, depth)
                memo[key] = (start, len(out))
            else:
                if not isinstance(seen, str):
                    seen = memo[key] = "".join(out[seen[0]:seen[1]])
                write(seen)

    def encode_container(obj, depth: int) -> None:
        inner = "\n" + "  " * (depth + 1)
        if isinstance(obj, dict):
            if not obj:
                write("{}")
                return
            sep = "{" + inner
            for k, v in obj.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                write(sep)
                write(_quote(k))
                write(": ")
                encode(v, depth + 1)
                sep = "," + inner
            write("\n" + "  " * depth + "}")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                write("[]")
                return
            sep = "[" + inner
            for v in obj:
                write(sep)
                encode(v, depth + 1)
                sep = "," + inner
            write("\n" + "  " * depth + "]")
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    encode(payload, 0)
    return "".join(out)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(render_json(payload))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_check(args) -> int:
    pair = _load_pair(args)
    config = _config(args)
    _engine_notice(pair, config)
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
    _emit(args, verdict.to_dict(), "\n".join(lines) + "\n")
    return 0 if verdict.holds else 1


def cmd_matrix(args) -> int:
    pair = _load_pair(args)
    config = _config(args)
    _engine_notice(pair, config)
    matrix = similarity_matrix(pair, config)
    _emit(args, matrix.to_dict(), matrix.render_text())
    return 0


def cmd_genlang(args) -> int:
    algebra = _load_algebra(args.algebra)
    dfa = automata.gen_language(algebra, args.element)
    if args.format == "dot":
        print(automata.export_dot(dfa), end="")
        return 0
    payload = {
        "algebra": algebra.name,
        "element": args.element,
        "states": dfa.n_states,
        "regex": automata.dfa_to_regex(dfa),
        "ground_terms": [
            render_term(term)
            for value, term in ground_value_terms(algebra)
            if value == args.element
        ],
    }
    text = (
        f"language of {args.element} in {algebra.name}: "
        f"{payload['regex']} ({dfa.n_states} states)\n"
    )
    _emit(args, payload, text)
    return 0


def cmd_charset(args) -> int:
    pair = _load_pair(args)
    config = _config(args)
    _engine_notice(pair, config)
    charset = find_characteristic_set(pair, args.a, args.b, args.max_size, config)
    if charset is None:
        _emit(
            args,
            {"found": False, "max_size": args.max_size},
            f"no characteristic set of size <= {args.max_size}\n",
        )
        return 1
    rendered = [render_term(t) for t in charset]
    _emit(
        args,
        {"found": True, "terms": rendered},
        "{ " + ", ".join(rendered) + " }\n",
    )
    return 0


def cmd_clone(args) -> int:
    algebra = _load_algebra(args.algebra)
    clone = polynomial_clone(algebra)
    payload = {
        "algebra": algebra.name,
        "polynomials": [
            {
                "table": dict(zip(algebra.carrier, p.table)),
                "witness": render_term(p.witness),
            }
            for p in clone
        ],
    }
    _emit(args, payload, dump_clone(clone, algebra))
    return 0


def cmd_morphism(args) -> int:
    algebras: dict[str, Algebra] = {}
    for path in args.algebras:
        algebra = _load_algebra(path)
        algebras[algebra.name] = algebra
    emap = parse_map(_read_text(args.map), algebras)
    config = _config(args)
    if args.verify == "hom":
        ok = is_homomorphism(emap)
        _emit(
            args,
            {"map": emap.name, "homomorphism": ok},
            f"{emap.name} is{'' if ok else ' not'} a homomorphism\n",
        )
        return 0 if ok else 1
    if args.verify == "iso":
        ok = is_isomorphism(emap)
        _emit(
            args,
            {"map": emap.name, "isomorphism": ok},
            f"{emap.name} is{'' if ok else ' not'} an isomorphism\n",
        )
        return 0 if ok else 1
    if args.verify == "iso-lemma":
        report = verify_isomorphism_lemma(emap, config)
        _emit(
            args,
            report.to_dict(),
            f"{emap.name}: generalization sets "
            f"{'certified equal' if report.certified else 'DIFFER'} "
            f"({report.method})\n",
        )
        return 0 if report.certified else 1
    if args.verify == "g-functor":
        verdict = check_g_functor(emap, config)
        text = f"{emap.name} is{'' if verdict.holds else ' not'} a g-functor"
        if verdict.certificate is not None:
            text += f" (fails at {verdict.certificate.element})"
        _emit(args, verdict.to_dict(), text + "\n")
        return 0 if verdict.holds else 1
    # sit: transport of similarity along two isomorphisms
    if not args.map2:
        print("error: --verify sit requires --map2", file=sys.stderr)
        return 2
    gmap = parse_map(_read_text(args.map2), algebras)
    report = check_second_isomorphism(emap, gmap, config)
    _emit(
        args,
        report.to_dict(),
        f"similarity transport {emap.name}/{gmap.name}: "
        f"{'certified' if report.certified else 'VIOLATED'} "
        f"({report.pairs_checked} pairs)\n",
    )
    return 0 if report.certified else 1


def cmd_reflexivity(args) -> int:
    pair = _load_pair(args)
    config = _config(args)
    _engine_notice(pair, config)
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
    _emit(args, report.to_dict(), "\n".join(lines) + "\n")
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
    _emit(args, report.to_dict(), "\n".join(lines) + "\n")
    return 0 if report.transitive else 1


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gensim",
        description="Decide generalization-based similarity on finite algebras.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--fragment",
        choices=("auto", "unary", "linear", "monolinear", "general"),
        default="auto",
        help="term fragment / engine selection (default: auto)",
    )
    common.add_argument("--max-vars", type=int, default=2, help="K for the general engine")
    common.add_argument("--cap", type=int, default=200_000, help="saturation size cap")
    common.add_argument("--format", choices=("text", "json", "dot"), default="text")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="decide a <~ b or a ~~ b")
    p.add_argument("--left", required=True, help="left .alg file")
    p.add_argument("--right", help="right .alg file (default: left)")
    p.add_argument("--a", required=True, help="left element")
    p.add_argument("--b", required=True, help="right element")
    p.add_argument("--relation", choices=("leq", "approx"), default="leq")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("matrix", parents=[common], help="all pairwise verdicts")
    p.add_argument("--left", required=True)
    p.add_argument("--right")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "genlang", parents=[common], help="generalization language of an element"
    )
    p.add_argument("--algebra", required=True)
    p.add_argument("--element", required=True)
    p.set_defaults(func=cmd_genlang)

    p = sub.add_parser(
        "charset", parents=[common], help="minimum characteristic generalization set"
    )
    p.add_argument("--left", required=True)
    p.add_argument("--right")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max-size", type=int, default=3)
    p.set_defaults(func=cmd_charset)

    p = sub.add_parser(
        "clone", parents=[common], help="unary polynomial clone report"
    )
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_clone)

    p = sub.add_parser("morphism", parents=[common], help="verify an element map")
    p.add_argument("--map", required=True, help=".map file")
    p.add_argument("--map2", help="second .map file for --verify sit")
    p.add_argument(
        "--algebras", nargs="+", required=True, help=".alg files the map refers to"
    )
    p.add_argument(
        "--verify",
        choices=("hom", "iso", "g-functor", "iso-lemma", "sit"),
        required=True,
    )
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser(
        "reflexivity", parents=[common], help="self-similarity over shared names"
    )
    p.add_argument("--left", required=True)
    p.add_argument("--right")
    p.set_defaults(func=cmd_reflexivity)

    p = sub.add_parser(
        "transitivity", parents=[common], help="exhaustive transitivity check"
    )
    p.add_argument("--left", required=True, help="single algebra, or first of three")
    p.add_argument("--mid", help="middle algebra of a triple")
    p.add_argument("--right", help="last algebra of a triple")
    p.add_argument("--relation", choices=("leq", "approx"), default="approx")
    p.set_defaults(func=cmd_transitivity)

    p = sub.add_parser(
        "examples", parents=[common], help="run the bundled example corpus"
    )
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Structure-preserving maps between algebras and their similarity behavior.

Isomorphic elements have identical generalization sets, so an isomorphism
is its own certificate of that, with no engine built.  A mere homomorphism
need not preserve similarity, which the map checker reports with a failing
element.
"""

from __future__ import annotations

import random
import re
from itertools import product
from typing import Mapping

from .algebra import (
    Algebra,
    AlgebraError,
    AlgebraParseError,
    Signature,
    _NAME_BREAKS,
    _ROW_RE,
    scan_lines,
    validate_pair,
)
from .linear import reachable_profiles  # noqa: F401  (only bench/tracing.py patches it)
from .record import Frozen, Record
from .similarity import QueryConfig, build_engines, decide_approx, similarity_matrix
from .verdict import Certificate, FAILING_ELEMENT, Verdict


class MapError(AlgebraError):
    """Malformed or non-total element maps."""


class ConstantPreservationError(MapError):
    """The map moves a named constant, so it cannot be a homomorphism."""


class ElementMap(Frozen):
    """A total map between the carriers of two same-signature algebras."""

    __slots__ = ("name", "source", "target", "table")

    def __init__(self, name: str, source: Algebra, target: Algebra, table: Mapping[str, str]):
        super().__init__(name, source, target, table)
        validate_pair(source, target)
        for a in source.carrier:
            if a not in table:
                raise MapError(f"map {name!r}: no image for {a!r}")
        for a, c in table.items():
            if a not in source.carrier:
                raise MapError(f"map {name!r}: unknown source element {a!r}")
            if c not in target.carrier:
                raise MapError(f"map {name!r}: image {c!r} not in target carrier")
        for c in source.signature.constant_symbols:
            if table[c] != c:
                raise ConstantPreservationError(
                    f"map {name!r} moves constant {c!r} to {table[c]!r}"
                )

    def __call__(self, element: str) -> str:
        try:
            return self.table[element]
        except KeyError:
            raise MapError(f"map {self.name!r}: no image for {element!r}") from None

    def is_bijective(self) -> bool:
        distinct_images = len(set(self.table.values()))
        return distinct_images == len(self.table) == len(self.target.carrier)


def parse_map(text: str, algebras: Mapping[str, Algebra]) -> ElementMap:
    """Parse the ``.map`` format against already-loaded algebras.

    Header: ``map <name> : <source> -> <target>``; then one ``a -> c`` line
    per source element, read as a one-argument table row of the ``.alg``
    format.  The map name ends at the first ``:`` with whitespace on both
    sides, if any, else at the first ``:``.
    """
    name = source = target = None
    table: dict[str, str] = {}
    for lineno, line in scan_lines(text):
        row = _ROW_RE.match(line)
        a = row.group("args") if row else ""
        # Header and rows share the table-row grammar: a header's left of the
        # arrow holds spaces, a row's one name.
        if line.startswith("map ") and (not row or _NAME_BREAKS.search(a)):
            if name is not None:
                raise AlgebraParseError("duplicate 'map' header", lineno)
            head = a[4:]
            spaced = re.search(r"\s:\s", head)
            name, colon, src_name = map(str.strip, head.partition(spaced[0] if spaced else ":"))
            tgt_name = row and row.group("out")
            if not name or not colon or not src_name or not tgt_name:
                raise AlgebraParseError(
                    "expected 'map <name> : <source> -> <target>'", lineno
                )
            if src_name not in algebras:
                raise AlgebraParseError(f"unknown source algebra {src_name!r}", lineno)
            if tgt_name not in algebras:
                raise AlgebraParseError(f"unknown target algebra {tgt_name!r}", lineno)
            source, target = algebras[src_name], algebras[tgt_name]
            continue
        if not a or _NAME_BREAKS.search(a) or "(" in line or ")" in line:
            raise AlgebraParseError(f"malformed map row {line!r}", lineno)
        if name is None:
            raise AlgebraParseError("map row before 'map' header", lineno)
        if a in table:
            raise AlgebraParseError(f"duplicate image for {a!r}", lineno)
        table[a] = row.group("out")
    if name is None:
        raise AlgebraParseError("missing 'map' header")
    return ElementMap(name, source, target, table)


def is_homomorphism(emap: ElementMap) -> bool:
    """Does the map commute with every operation on every tuple?"""
    src, tgt = emap.source, emap.target
    for sym, arity in src.signature.operations:
        for tup in product(src.carrier, repeat=arity):
            mapped = tuple(emap(x) for x in tup)
            if emap(src.apply(sym, tup)) != tgt.apply(sym, mapped):
                return False
    return True


def is_isomorphism(emap: ElementMap) -> bool:
    return emap.is_bijective() and is_homomorphism(emap)


class LemmaReport(Record):
    __slots__ = ("emap", "method")

    def to_dict(self) -> dict:
        return {
            "map": self.emap.name,
            "source": self.emap.source.name,
            "target": self.emap.target.name,
            "method": self.method,
        }


def verify_isomorphism_lemma(emap: ElementMap) -> LemmaReport:
    """Certify Gen(a) = Gen(F(a)) for every source element a.

    An isomorphism F carries the range of every term in A onto its range
    in B, so ``is_isomorphism`` is the certificate, exact for every term.
    """
    if not is_isomorphism(emap):
        raise MapError(f"map {emap.name!r} is not an isomorphism")
    return LemmaReport(emap, "isomorphism")


def check_g_functor(emap: ElementMap, config: QueryConfig | None = None) -> Verdict:
    """Must every a be g-similar to its image?  Certificate names a failing a."""
    pair = validate_pair(emap.source, emap.target)
    engine, reverse = build_engines(pair, config)
    for a in emap.source.carrier:
        verdict = decide_approx(pair, a, emap(a), config, engine, reverse)
        if not verdict.holds:
            cert = verdict.certificate
            return Verdict(
                False, Certificate(FAILING_ELEMENT, cert.term, a, cert.direction), engine.label
            )
    return Verdict(True, None, engine.label)


class SecondIsomorphismReport(Record):
    __slots__ = ("f_map", "g_map", "pairs_checked", "violations")  # violations: (a, b) pairs

    @property
    def certified(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "f": self.f_map.name,
            "g": self.g_map.name,
            "pairs_checked": self.pairs_checked,
            "certified": self.certified,
            "violations": [list(v) for v in self.violations],
        }


def check_second_isomorphism(
    f_map: ElementMap,
    g_map: ElementMap,
    config: QueryConfig | None = None,
) -> SecondIsomorphismReport:
    """Similarity verdicts transport along isomorphisms on both sides.

    For F: A -> C and G: B -> D, checks a ~~ b in (A,B) iff F(a) ~~ G(b)
    in (C,D), for every (a, b).
    """
    for emap in (f_map, g_map):
        if not is_isomorphism(emap):
            raise MapError(f"map {emap.name!r} is not an isomorphism")
    pair_ab = validate_pair(f_map.source, g_map.source)
    pair_cd = validate_pair(f_map.target, g_map.target)
    m_ab = similarity_matrix(pair_ab, config)
    m_cd = similarity_matrix(pair_cd, config)
    images = [m_cd.approx._rows[pair_cd.left.index(f_map(a))] for a in m_ab.rows]
    cols = [*map(pair_cd.right.index, map(g_map, m_ab.cols))]
    violations = [
        (a, b)
        for a, row, image in zip(m_ab.rows, m_ab.approx._rows, images)
        for b, verdict, j in zip(m_ab.cols, row, cols)
        if verdict.holds != image[j].holds
    ]
    return SecondIsomorphismReport(f_map, g_map, len(m_ab.approx), violations)


def random_monounary_algebra(rng: random.Random, size: int, n_ops: int = 1, name: str = "R") -> Algebra:
    """Random all-unary algebra on elements e0..e(size-1), no constants."""
    if size < 1 or n_ops < 1:
        raise AlgebraError("size and op count must be positive")
    carrier = tuple(f"e{i}" for i in range(size))
    ops = tuple((f"f{j}" if n_ops > 1 else "f", 1) for j in range(n_ops))
    tables = {
        sym: {(e,): rng.choice(carrier) for e in carrier} for sym, _ in ops
    }
    return Algebra(name, carrier, Signature(ops, ()), tables)

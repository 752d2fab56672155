"""Structure-preserving maps between algebras and their similarity behavior.

Isomorphic elements have identical generalization sets, so an isomorphism
is certified element by element at the engine level.  A mere homomorphism
need not preserve similarity, which the map checker reports with a failing
element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .algebra import (
    Algebra,
    AlgebraError,
    AlgebraParseError,
    AlgebraPair,
    Signature,
    SignatureMismatchError,
    validate_pair,
)
from . import automata
from .linear import reachable_profiles
from .similarity import QueryConfig, build_engine, decide_approx, similarity_matrix
from .verdict import Certificate, FAILING_ELEMENT, Verdict


class MapError(AlgebraError):
    """Malformed or non-total element maps."""


class ConstantPreservationError(MapError):
    """The map moves a named constant, so it cannot be a homomorphism."""


@dataclass(frozen=True)
class ElementMap:
    """A total map between the carriers of two same-signature algebras."""

    name: str
    source: Algebra
    target: Algebra
    table: Mapping[str, str]

    def __post_init__(self):
        if self.source.signature != self.target.signature:
            raise SignatureMismatchError(
                f"map {self.name!r}: source and target signatures differ"
            )
        for a in self.source.carrier:
            if a not in self.table:
                raise MapError(f"map {self.name!r}: no image for {a!r}")
        for a, c in self.table.items():
            if a not in self.source.carrier:
                raise MapError(f"map {self.name!r}: unknown source element {a!r}")
            if c not in self.target.carrier:
                raise MapError(f"map {self.name!r}: image {c!r} not in target carrier")
        for c in self.source.signature.constant_symbols:
            if self.table[c] != c:
                raise ConstantPreservationError(
                    f"map {self.name!r} moves constant {c!r} to {self.table[c]!r}"
                )

    def __call__(self, element: str) -> str:
        try:
            return self.table[element]
        except KeyError:
            raise MapError(f"map {self.name!r}: no image for {element!r}") from None

    def is_bijective(self) -> bool:
        distinct_images = len(set(self.table.values()))
        return distinct_images == len(self.table) == len(self.target.carrier)

    def inverse(self) -> "ElementMap":
        if not self.is_bijective():
            raise MapError(f"map {self.name!r} is not bijective")
        return ElementMap(
            f"{self.name}^-1",
            self.target,
            self.source,
            {c: a for a, c in self.table.items()},
        )


def parse_map(text: str, algebras: Mapping[str, Algebra]) -> ElementMap:
    """Parse the ``.map`` format against already-loaded algebras.

    Header: ``map <name> : <source> -> <target>``; then one ``a -> c`` line
    per source element.
    """
    name = source = target = None
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        idx = raw.find("#")
        line = (raw if idx < 0 else raw[:idx]).strip()
        if not line:
            continue
        if line.startswith("map "):
            if name is not None:
                raise AlgebraParseError("duplicate 'map' header", lineno)
            head, _, rest = line[4:].partition(":")
            name = head.strip()
            src_name, arrow, tgt_name = rest.partition("->")
            if not name or not arrow or not src_name.strip() or not tgt_name.strip():
                raise AlgebraParseError(
                    "expected 'map <name> : <source> -> <target>'", lineno
                )
            src_name, tgt_name = src_name.strip(), tgt_name.strip()
            if src_name not in algebras:
                raise AlgebraParseError(f"unknown source algebra {src_name!r}", lineno)
            if tgt_name not in algebras:
                raise AlgebraParseError(f"unknown target algebra {tgt_name!r}", lineno)
            source, target = algebras[src_name], algebras[tgt_name]
            continue
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise AlgebraParseError(f"malformed map row {line!r}", lineno)
        if name is None:
            raise AlgebraParseError("map row before 'map' header", lineno)
        a, c = lhs.strip(), rhs.strip()
        if a in table:
            raise AlgebraParseError(f"duplicate image for {a!r}", lineno)
        table[a] = c
    if name is None:
        raise AlgebraParseError("missing 'map' header")
    return ElementMap(name, source, target, table)


def render_map(emap: ElementMap) -> str:
    lines = [f"map {emap.name} : {emap.source.name} -> {emap.target.name}"]
    for a in emap.source.carrier:
        lines.append(f"  {a} -> {emap.table[a]}")
    return "\n".join(lines) + "\n"


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


@dataclass
class LemmaReport:
    emap: ElementMap
    checked: tuple[str, ...]
    violations: list[str]  # source elements whose Gen sets differ
    method: str

    @property
    def certified(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "map": self.emap.name,
            "source": self.emap.source.name,
            "target": self.emap.target.name,
            "method": self.method,
            "checked": list(self.checked),
            "certified": self.certified,
            "violations": list(self.violations),
        }


def verify_isomorphism_lemma(emap: ElementMap, config: QueryConfig | None = None) -> LemmaReport:
    """Certify Gen(a) = Gen(F(a)) for every source element a.

    Unary signatures compare minimal generalization-language automata.
    Otherwise the linear profile families of (A,A) and (B,B) are compared
    under F-renaming: a is in a reachable range exactly when F(a) is in
    the corresponding renamed range.
    """
    if not is_isomorphism(emap):
        raise MapError(f"map {emap.name!r} is not an isomorphism")
    src, tgt = emap.source, emap.target
    violations: list[str] = []
    if src.signature.is_unary():
        method = "dfa-equivalence"
        for a in src.carrier:
            if not automata.dfa_equivalent(
                automata.gen_language(src, a), automata.gen_language(tgt, emap(a))
            ):
                violations.append(a)
    else:
        method = "linear-profile-renaming"
        src_family = reachable_profiles(AlgebraPair(src, src))
        tgt_keys = {
            (p.left, p.right)
            for p in reachable_profiles(AlgebraPair(tgt, tgt))
        }
        renamed = {
            (
                frozenset(emap(x) for x in p.left),
                frozenset(emap(x) for x in p.right),
            )
            for p in src_family
        }
        if renamed != tgt_keys:
            # Localize the discrepancy to elements for the report.
            for a in src.carrier:
                src_sig = {
                    frozenset(emap(x) for x in p.left) for p in src_family if a in p.left
                }
                tgt_sig = {k[0] for k in tgt_keys if emap(a) in k[0]}
                if src_sig != tgt_sig:
                    violations.append(a)
    return LemmaReport(emap, src.carrier, violations, method)


def check_g_functor(emap: ElementMap, config: QueryConfig | None = None) -> Verdict:
    """Must every a be g-similar to its image?  Certificate names a failing a."""
    pair = validate_pair(emap.source, emap.target)
    engine = build_engine(pair, config)
    reverse = build_engine(pair.swapped(), config)
    label = None
    for a in emap.source.carrier:
        verdict = decide_approx(pair, a, emap(a), config, engine, reverse)
        label = verdict.fragment_label
        if not verdict.holds:
            return Verdict(
                False,
                Certificate(
                    FAILING_ELEMENT,
                    element=a,
                    term=verdict.certificate.term,
                    direction=verdict.certificate.direction,
                ),
                label,
            )
    return Verdict(True, None, label)


@dataclass
class SecondIsomorphismReport:
    f_map: ElementMap
    g_map: ElementMap
    pairs_checked: int
    violations: list[tuple[str, str]]

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
    violations = []
    count = 0
    for a in pair_ab.left.carrier:
        for b in pair_ab.right.carrier:
            count += 1
            if m_ab.approx[(a, b)].holds != m_cd.approx[(f_map(a), g_map(b))].holds:
                violations.append((a, b))
    return SecondIsomorphismReport(f_map, g_map, count, violations)


def random_monounary_algebra(rng: random.Random, size: int, n_ops: int = 1, name: str = "R") -> Algebra:
    """Random all-unary algebra on elements e0..e(size-1), no constants."""
    if size < 1 or n_ops < 1:
        raise AlgebraError("size and op count must be positive")
    carrier = tuple(f"e{i}" for i in range(size))
    ops = tuple((f"f{j}" if n_ops > 1 else "f", 1) for j in range(n_ops))
    tables = {
        sym: {(e,): rng.choice(carrier) for e in carrier} for sym, _ in ops
    }
    return Algebra(name, carrier, Signature(ops, ()), tables, frozenset())


def relabeled_copy(rng: random.Random, algebra: Algebra, prefix: str = "r_") -> ElementMap:
    """A random isomorphism onto a disjointly named copy of the algebra."""
    images = [f"{prefix}{i}" for i in range(len(algebra.carrier))]
    rng.shuffle(images)
    rename = dict(zip(algebra.carrier, images))
    for c in algebra.signature.constant_symbols:
        raise AlgebraError(
            f"cannot relabel algebra with constant symbol {c!r}: "
            "constants denote themselves"
        )
    carrier = tuple(sorted(images))
    tables = {
        sym: {
            tuple(rename[x] for x in tup): rename[out]
            for tup, out in algebra.tables[sym].items()
        }
        for sym, _ in algebra.signature.operations
    }
    copy = Algebra(
        f"{prefix}{algebra.name}", carrier, algebra.signature, tables, frozenset()
    )
    return ElementMap(f"relabel_{algebra.name}", algebra, copy, rename)

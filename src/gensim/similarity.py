"""User-facing similarity decisions over a chosen engine fragment.

``a <~ b`` holds when the shared generalization set of (a, b) is maximal
with respect to b: no admissible competitor b' realizes a strictly larger
shared set.  The competitor b' = a is excluded (by name identity) when a
also names an element of the right-hand carrier; the exclusion never
applies to b itself.  ``a ~~ b`` is the conjunction of both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import Algebra, AlgebraError, AlgebraPair, validate_pair
from . import automata
from .closure import RowIndex
from .general import exactness_label, saturate_profiles
from .linear import reachable_profiles
from .monolinear import paired_clone
from .terms import Term, canonicalize, render_term, term_size
from .verdict import (
    Certificate,
    DOMINATING_ELEMENT,
    EXACT,
    LINEAR_FRAGMENT,
    MISSING_PARTNER,
    MONOLINEAR_FRAGMENT,
    Verdict,
)

FRAGMENT_CHOICES = ("auto", "unary", "linear", "monolinear", "general")


@dataclass(frozen=True)
class QueryConfig:
    fragment: str = "auto"
    max_vars: int = 2  # K for the general engine
    cap: int = 200_000

    def __post_init__(self):
        if self.fragment not in FRAGMENT_CHOICES:
            raise AlgebraError(f"unknown fragment {self.fragment!r}")
        if self.max_vars < 1 or self.cap < 1:
            raise AlgebraError("bounds must be positive")


class Engine:
    """Subset-query adapter over one pair; built once, queried many times.

    An engine holds its pair's semantic term classes as (left range, right
    range, witness) in witness order, and answers subset and maximality
    queries from a bitmask index over them.
    """

    def __init__(self, pair: AlgebraPair, label: str, classes, evidence=None):
        self.pair = pair
        self.label = label
        self._classes = classes
        # Rows the index returns its evidence from: the classes, unless the
        # engine certifies with another spelling of each witness.
        self._index = RowIndex(classes if evidence is None else evidence, pair.right.carrier)

    def subset(self, a: str, b: str, b_prime: str) -> tuple[bool, Term | None]:
        """Decide Gen(a,b) subset-of Gen(a,b'); on failure, return a
        minimal term in Gen(a,b) but not in Gen(a,b')."""
        self.pair.left.require_element(a)
        self.pair.right.require_element(b)
        self.pair.right.require_element(b_prime)
        witness = self._index.separator(a, b, b_prime)
        return witness is None, witness

    def dominator(self, a: str, b: str) -> tuple[str, Term] | None:
        """The first admissible competitor b' whose Gen(a,b') strictly
        contains Gen(a,b), with a minimal term of the difference; None when
        a <~ b.  The caller checks the names."""
        return self._index.dominator(a, b)

    def classes(self) -> list[tuple[frozenset[str], frozenset[str], Term]]:
        """Semantic term classes as (left range, right range, witness)."""
        return list(self._classes)


class LinearEngine(Engine):
    def __init__(self, pair: AlgebraPair):
        label = EXACT if pair.left.signature.is_unary() else LINEAR_FRAGMENT
        super().__init__(pair, label, reachable_profiles(pair))


class UnaryEngine(Engine):
    """The linear engine, limited to unary signatures.

    Every unary term is linear, so the range pairs of all terms, ground
    terms such as ``f(c)`` included, are the linear rows: exact.
    """

    def __init__(self, pair: AlgebraPair):
        if not pair.left.signature.is_unary():
            raise automata.NonUnaryError(
                "the unary engine requires an all-unary signature"
            )
        super().__init__(pair, EXACT, reachable_profiles(pair))


class MonolinearEngine(Engine):
    def __init__(self, pair: AlgebraPair, cap: int | None = None):
        super().__init__(pair, MONOLINEAR_FRAGMENT, paired_clone(pair, cap=cap))


class GeneralEngine(Engine):
    def __init__(self, pair: AlgebraPair, k: int, cap: int):
        left_names, right_names = pair.left.carrier, pair.right.carrier
        classes = [
            (
                frozenset(left_names[i] for i in set(p.left)),
                frozenset(right_names[i] for i in set(p.right)),
                p.witness,
            )
            for p in saturate_profiles(pair, k, cap=cap)
        ]
        # Witnesses share the variables z1..zK; evidence is renumbered by
        # first occurrence, classes keep the raw spelling.
        evidence = [(left, right, canonicalize(w)) for left, right, w in classes]
        super().__init__(pair, exactness_label(pair, k), classes, evidence)


def build_engine(pair: AlgebraPair, config: QueryConfig | None = None) -> Engine:
    config = config or QueryConfig()
    fragment = config.fragment
    if fragment == "auto":
        fragment = "unary" if pair.left.signature.is_unary() else "linear"
    if fragment == "unary":
        return UnaryEngine(pair)
    if fragment == "linear":
        return LinearEngine(pair)
    if fragment == "monolinear":
        return MonolinearEngine(pair, config.cap)
    return GeneralEngine(pair, config.max_vars, config.cap)


def _admissible_competitors(pair: AlgebraPair, a: str, b: str) -> list[str]:
    a_in_right = a in pair.right.carrier
    return [
        b_prime
        for b_prime in pair.right.carrier
        if b_prime != b and not (a_in_right and b_prime == a)
    ]


def decide_leq(
    pair: AlgebraPair,
    a: str,
    b: str,
    config: QueryConfig | None = None,
    engine: Engine | None = None,
) -> Verdict:
    """Is the shared generalization set of (a, b) b-maximal?

    On failure the certificate names a dominating element b' together with
    an evidence term in Gen(a, b') but not in Gen(a, b).
    """
    engine = engine or build_engine(pair, config)
    pair.left.require_element(a)
    pair.right.require_element(b)
    found = engine.dominator(a, b)
    if found is None:
        return Verdict(True, None, engine.label)
    b_prime, evidence = found
    return Verdict(
        False,
        Certificate(DOMINATING_ELEMENT, element=b_prime, term=evidence),
        engine.label,
    )


def decide_approx(
    pair: AlgebraPair,
    a: str,
    b: str,
    config: QueryConfig | None = None,
    engine: Engine | None = None,
    reverse_engine: Engine | None = None,
) -> Verdict:
    """g-similarity: both directed maximality checks."""
    forward = decide_leq(pair, a, b, config, engine)
    if not forward.holds:
        return _with_direction(forward, (pair.left.name, pair.right.name))
    backward = decide_leq(pair.swapped(), b, a, config, reverse_engine)
    if not backward.holds:
        return _with_direction(backward, (pair.right.name, pair.left.name))
    return Verdict(True, None, forward.fragment_label)


def _with_direction(failing: Verdict, direction: tuple[str, str]) -> Verdict:
    """A failing ``<~`` verdict, restated as a failing ``~~`` verdict whose
    certificate names its direction (left name, right name)."""
    cert = failing.certificate
    return Verdict(
        False,
        Certificate(cert.kind, cert.term, cert.element, direction),
        failing.fragment_label,
    )


def decide_algebra_leq(pair: AlgebraPair, config: QueryConfig | None = None) -> Verdict:
    """Every left element must have a g-similar partner on the right."""
    swapped = pair.swapped()
    engine = build_engine(pair, config)
    reverse = build_engine(swapped, config)
    for a in pair.left.carrier:
        if not any(
            decide_leq(pair, a, b, config, engine).holds
            and decide_leq(swapped, b, a, config, reverse).holds
            for b in pair.right.carrier
        ):
            return Verdict(
                False, Certificate(MISSING_PARTNER, element=a), engine.label
            )
    return Verdict(True, None, engine.label)


def decide_algebra_approx(pair: AlgebraPair, config: QueryConfig | None = None) -> Verdict:
    forward = decide_algebra_leq(pair, config)
    if not forward.holds:
        return forward
    backward = decide_algebra_leq(pair.swapped(), config)
    if not backward.holds:
        cert = Certificate(
            MISSING_PARTNER,
            element=backward.certificate.element,
            direction=(pair.right.name, pair.left.name),
        )
        return Verdict(False, cert, backward.fragment_label)
    return forward


@dataclass
class SimilarityMatrix:
    pair: AlgebraPair
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    leq: dict  # (a, b) -> Verdict for a <~ b
    geq: dict  # (a, b) -> Verdict for b <~ a (on the swapped pair)
    approx: dict  # (a, b) -> Verdict

    def to_dict(self) -> dict:
        """The report; every cell that repeats a verdict holds the same
        dict, so the JSON writer encodes each distinct verdict once."""
        shared: dict = {}
        # Evidence spelling per term object (the verdicts keep each alive):
        # one engine row's term is one object, rendered once.
        spelled: dict[int, str] = {}

        def verdict_dict(verdict: Verdict) -> dict:
            cert = verdict.certificate
            if cert is None:
                key = (verdict.holds, verdict.fragment_label)
            else:
                term = spelled.get(id(cert.term))
                if term is None:
                    term = spelled[id(cert.term)] = render_term(cert.term)
                key = (verdict.holds, verdict.fragment_label,
                       cert.kind, cert.element, term, cert.direction)
            out = shared.get(key)
            if out is None:
                out = shared[key] = verdict.to_dict()
            return out

        cells = [
            {
                "a": a,
                "b": b,
                "leq": verdict_dict(self.leq[(a, b)]),
                "geq": verdict_dict(self.geq[(a, b)]),
                "approx": verdict_dict(self.approx[(a, b)]),
            }
            for a in self.rows
            for b in self.cols
        ]
        return {
            "left": self.pair.left.name,
            "right": self.pair.right.name,
            "rows": list(self.rows),
            "cols": list(self.cols),
            "cells": cells,
        }

    def render_text(self) -> str:
        width = max([3] + [len(e) for e in self.rows + self.cols]) + 1
        header = " " * width + "".join(b.rjust(width) for b in self.cols)
        lines = [header]
        for a in self.rows:
            cells = []
            for b in self.cols:
                if self.approx[(a, b)].holds:
                    mark = "~~"
                elif self.leq[(a, b)].holds:
                    mark = "<~"
                elif self.geq[(a, b)].holds:
                    mark = ">~"
                else:
                    mark = "--"
                cells.append(mark.rjust(width))
            lines.append(a.rjust(width) + "".join(cells))
        return "\n".join(lines) + "\n"


def similarity_matrix(pair: AlgebraPair, config: QueryConfig | None = None) -> SimilarityMatrix:
    """All pairwise directed and symmetric verdicts, declaration order."""
    swapped = pair.swapped()
    engine = build_engine(pair, config)
    reverse = build_engine(swapped, config)
    forward_dir = (pair.left.name, pair.right.name)
    backward_dir = (pair.right.name, pair.left.name)
    leq, geq, approx = {}, {}, {}
    for a in pair.left.carrier:
        for b in pair.right.carrier:
            v_leq = decide_leq(pair, a, b, config, engine)
            v_geq = decide_leq(swapped, b, a, config, reverse)
            if not v_leq.holds:
                v_approx = _with_direction(v_leq, forward_dir)
            elif not v_geq.holds:
                v_approx = _with_direction(v_geq, backward_dir)
            else:
                v_approx = Verdict(True, None, v_leq.fragment_label)
            leq[(a, b)] = v_leq
            geq[(a, b)] = v_geq
            approx[(a, b)] = v_approx
    return SimilarityMatrix(
        pair, pair.left.carrier, pair.right.carrier, leq, geq, approx
    )


def find_characteristic_set(
    pair: AlgebraPair,
    a: str,
    b: str,
    max_size: int = 3,
    config: QueryConfig | None = None,
    engine: Engine | None = None,
) -> list[Term] | None:
    """Minimum set of shared generalizations pinning b down uniquely.

    Conditions: every member generalizes a (left) and b (right), and no
    admissible competitor b' (b' != b, and b' != a by name) lies in the
    intersection of the right-hand ranges.  The search space is the
    semantic classes of the selected fragment, so exhaustion claims are
    fragment-relative.
    """
    engine = engine or build_engine(pair, config)
    pair.left.require_element(a)
    pair.right.require_element(b)
    # Classes come in witness order, so the candidates do too.
    candidates = [
        (left, right, witness)
        for left, right, witness in engine.classes()
        if a in left and b in right
    ]
    bad = set(_admissible_competitors(pair, a, b))
    for size in range(1, max_size + 1):
        best: list[Term] | None = None
        best_key = None
        for combo in combinations(candidates, size):
            right_meet = None
            for _, right, _ in combo:
                right_meet = right if right_meet is None else right_meet & right
            if right_meet & bad:
                continue
            terms = [w for _, _, w in combo]
            key = (
                sum(term_size(t) for t in terms),
                tuple(sorted(render_term(t) for t in terms)),
            )
            if best_key is None or key < best_key:
                best, best_key = terms, key
        if best is not None:
            return best
    return None


@dataclass
class ReflexivityReport:
    pair: AlgebraPair
    checked: tuple[str, ...]
    violations: list[tuple[str, tuple[str, str], Verdict]]  # element, direction, verdict

    @property
    def reflexive(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "left": self.pair.left.name,
            "right": self.pair.right.name,
            "checked": list(self.checked),
            "reflexive": self.reflexive,
            "violations": [
                {"element": e, "direction": list(d), "verdict": v.to_dict()}
                for e, d, v in self.violations
            ],
        }


def check_reflexive(pair: AlgebraPair, config: QueryConfig | None = None) -> ReflexivityReport:
    """Test a <~ a in both directions over the shared-name overlap."""
    swapped = pair.swapped()
    engine = build_engine(pair, config)
    reverse = build_engine(swapped, config)
    violations = []
    for a in pair.overlap:
        forward = decide_leq(pair, a, a, config, engine)
        if not forward.holds:
            violations.append((a, (pair.left.name, pair.right.name), forward))
        backward = decide_leq(swapped, a, a, config, reverse)
        if not backward.holds:
            violations.append((a, (pair.right.name, pair.left.name), backward))
    return ReflexivityReport(pair, pair.overlap, violations)


@dataclass
class TransitivityReport:
    relation: str
    triples_checked: int
    violations: list[tuple[str, str, str]]
    details: dict

    @property
    def transitive(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "triples_checked": self.triples_checked,
            "transitive": self.transitive,
            "violations": [list(v) for v in self.violations],
            "details": self.details,
        }


def check_transitive(
    algebra_or_triple,
    config: QueryConfig | None = None,
    relation: str = "approx",
) -> TransitivityReport:
    """Exhaustive transitivity test.

    A single algebra checks all element triples of the relation with
    itself.  A triple (A, B, C) of algebras checks chains through the
    pairs (A,B), (B,C) against (A,C).
    """
    if relation not in ("leq", "approx"):
        raise AlgebraError(f"unknown relation {relation!r}")
    if isinstance(algebra_or_triple, Algebra):
        algebras = (algebra_or_triple,) * 3
        details = {"algebra": algebra_or_triple.name}
    else:
        algebras = tuple(algebra_or_triple)
        details = {"algebras": [alg.name for alg in algebras]}
    a_alg, b_alg, c_alg = algebras
    pairs = [validate_pair(a_alg, b_alg), validate_pair(b_alg, c_alg), validate_pair(a_alg, c_alg)]
    # One matrix per distinct pair of algebras, so a single algebra needs one.
    matrices: dict = {}
    for p in pairs:
        key = (id(p.left), id(p.right))
        if key not in matrices:
            matrices[key] = getattr(similarity_matrix(p, config), relation)
    rel_ab, rel_bc, rel_ac = (matrices[(id(p.left), id(p.right))] for p in pairs)
    violations = []
    count = 0
    for x in a_alg.carrier:
        for y in b_alg.carrier:
            if not rel_ab[(x, y)].holds:
                continue
            for z in c_alg.carrier:
                count += 1
                if rel_bc[(y, z)].holds and not rel_ac[(x, z)].holds:
                    violations.append((x, y, z))
    return TransitivityReport(relation, count, violations, details)

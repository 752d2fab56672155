"""User-facing similarity decisions over a chosen engine fragment.

``a <~ b`` holds when the shared generalization set of (a, b) is maximal
with respect to b: no admissible competitor b' realizes a strictly larger
shared set.  The competitor b' = a is excluded (by name identity) when a
also names an element of the right-hand carrier; the exclusion never
applies to b itself.  ``a ~~ b`` is the conjunction of both directions.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from itertools import chain, combinations, product

from .algebra import Algebra, AlgebraError, AlgebraPair, NonUnaryError, validate_pair
from .closure import DEFAULT_CAP
from .general import exactness_label, saturate_profiles
from .linear import reachable_profiles
from .monolinear import paired_clone
from .record import Frozen, Record
from .terms import Term, render_term, term_size
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


class QueryConfig(Frozen):
    __slots__ = ("fragment", "max_vars", "cap")  # max_vars: K for the general engine

    def __init__(self, fragment: str = "auto", max_vars: int = 2, cap: int = DEFAULT_CAP):
        super().__init__(fragment, max_vars, cap)
        if fragment not in FRAGMENT_CHOICES:
            raise AlgebraError(f"unknown fragment {fragment!r}")
        if max_vars < 1 or cap < 1:
            raise AlgebraError("bounds must be positive")


def _mask(ids: list[int]) -> int:
    """The int with bits ``ids`` set, built in one pass: OR-ing bits into a
    growing int one at a time would copy it once per bit."""
    buf = bytearray(ids[-1] // 8 + 1 if ids else 0)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class Engine:
    """Subset and maximality queries over one pair, built once.

    An engine holds its pair's term classes as rows (left range, right
    range, witness): distinct range pairs in witness order, each with its
    minimal witness.  Row i is bit i: ``_left`` and ``_right`` hold each
    side's row masks, one per element in carrier order, so Gen(a,b) is
    the meet of a's and b's masks and its first row in witness order is
    the lowest set bit.  ``masks``, when given, are ``(_left, _right)``.
    """

    def __init__(self, pair: AlgebraPair, label: str, rows, masks: tuple | None = None):
        self.pair = pair
        self.label = label
        self._classes = rows
        if masks is None:
            # A self pair's rows have equal sides: one dict serves both.
            algebras = (pair.left,) if pair.left is pair.right else (pair.left, pair.right)
            sides = [{e: [] for e in algebra.carrier} for algebra in algebras]
            for i, row in enumerate(rows):
                for side, names in zip(sides, row):
                    for e in names:
                        side[e].append(i)
            masks = [[*map(_mask, side.values())] for side in sides]
            masks = masks[0], masks[-1]
        self._left, self._right = masks
        self._holds = Verdict(True, None, label)
        self._verdicts: dict = {}
        self._failing: dict = {}
        self._restated: dict = {}
        self._counts = Counter(self._left)  # elements per left mask
        self._shared: dict = {}

    def _first(self, mask: int) -> Term:
        return self._classes[(mask & -mask).bit_length() - 1][2]

    @staticmethod
    def competitors(carrier, a: str, b: str) -> Iterator[str]:
        """The admissible competitors b' of (a, b) in the right ``carrier``,
        in order: every element except b, and except a when a names one."""
        return (e for e in carrier if e != b and e != a)

    def subset(self, a: str, b: str, b_prime: str) -> tuple[bool, Term | None]:
        """Decide Gen(a,b) subset-of Gen(a,b'); on failure, return a
        minimal term in Gen(a,b) but not in Gen(a,b')."""
        left, right = self.pair.left.index, self.pair.right.index
        rest = self._left[left(a)] & self._right[right(b)] & ~self._right[right(b_prime)]
        return (False, self._first(rest)) if rest else (True, None)

    def verdict(self, a: str, b: str) -> Verdict:
        """The shared verdict of a <~ b: it fails at the first competitor
        b' whose Gen(a,b') strictly contains Gen(a,b), with the first row
        of the difference.  The first call for ``a`` decides its row, a
        verdict per right element.  Elements of one left mask share a sweep
        that excludes no b' and its row, but one that is the first
        dominator of some mask there is swept again without itself.  An
        unknown name raises ``AlgebraError``."""
        try:
            return self._verdicts[a][b]
        except KeyError:
            left = self._left[self.pair.left.index(a)]
            self.pair.right.index(b)
        shared = self._shared.get(left)
        if shared is None and self._counts[left] > 1:
            others, row = self._sweep(left, None)
            dominators = {v.certificate.element for v in row.values() if not v.holds}
            shared = self._shared[left] = [others, row, dominators, None]
        if shared is None or a in shared[2]:
            cols = self._columns(*self._sweep(left, a))
        else:  # the shared row, built for the first member that takes it
            cols = shared[3] = shared[3] or self._columns(*shared[:2])
        self._verdicts[a] = cols
        return cols[b]

    def _columns(self, others: list, row: dict) -> dict:
        return dict(zip(self.pair.right.carrier, map(row.__getitem__, others)))

    def _sweep(self, left: int, a: str | None) -> tuple[list, dict]:
        """Gen(a,b') per b' in carrier order, and a verdict per distinct
        one, b' = a excluded; b never strictly contains its own."""
        carrier = self.pair.right.carrier
        others = [*map(left.__and__, self._right)]
        row = dict.fromkeys(others, self._holds)
        # Each distinct competitor mask, in carrier order, takes the masks
        # it contains from the levels (by bit count) below its own.
        levels: dict = {}
        for mask in row:
            levels.setdefault(mask.bit_count(), []).append(mask)
        counts = sorted(levels)
        walked = set()
        for b_prime, other in zip(carrier, others):
            if b_prime == a or other in walked:
                continue
            walked.add(other)
            outside = ~other
            for i in range(bisect_left(counts, other.bit_count()) - 1, -1, -1):
                level = levels[counts[i]]
                if all(map(outside.__and__, level)):
                    continue
                for mask in level:
                    if not mask & outside:
                        term = self._first(other & ~mask)
                        found = self._failing.get((b_prime, id(term)))
                        if found is None:
                            cert = Certificate(DOMINATING_ELEMENT, term, b_prime)
                            found = self._failing[b_prime, id(term)] = Verdict(False, cert, self.label)
                        row[mask] = found
                level[:] = [mask for mask in level if mask & outside]
                if not level:
                    del counts[i]  # i counts down, so the rest stay in place
        return others, row

    def approx_failure(self, failing: Verdict) -> Verdict:
        """``failing``, a failing verdict of this engine, restated for
        ``~~``: its certificate names the engine's direction.  Memoized,
        as a verdict object comes from one engine, which fixes it."""
        found = self._restated.get(id(failing))
        if found is None:
            cert = failing.certificate
            direction = (self.pair.left.name, self.pair.right.name)
            found = self._restated[id(failing)] = Verdict(
                False,
                Certificate(cert.kind, cert.term, cert.element, direction),
                failing.fragment_label,
            )
        return found

    def classes(self) -> list[tuple[frozenset[str], frozenset[str], Term]]:
        """Semantic term classes as (left range, right range, witness)."""
        return list(self._classes)


class LinearEngine(Engine):
    """The linear range pairs; exact on unary signatures, where every term,
    ground terms such as ``f(c)`` included, is linear."""

    def __init__(self, pair: AlgebraPair, cap: int | None = None, stop=None):
        label = EXACT if pair.left.signature.is_unary() else LINEAR_FRAGMENT
        super().__init__(pair, label, reachable_profiles(pair, cap, stop))


# The unary fragment builds LinearEngine; bench/tracing.py patches each
# engine class by name, UnaryEngine too (ROADMAP item 1).
UnaryEngine = LinearEngine


class MonolinearEngine(Engine):
    def __init__(self, pair: AlgebraPair, cap: int | None = None, stop=None):
        super().__init__(pair, MONOLINEAR_FRAGMENT, paired_clone(pair, cap, stop))


class GeneralEngine(Engine):
    def __init__(self, pair: AlgebraPair, k: int, cap: int | None, stop=None):
        left_names, right_names = pair.left.carrier, pair.right.carrier
        # The first witness of each range pair is canonical: renumbering
        # its variables keeps its ranges and gives a key no larger.
        witnesses: dict = {}
        for p in saturate_profiles(pair, k, cap, stop):
            witnesses.setdefault((frozenset(p.left), frozenset(p.right)), p.witness)
        rows = [
            (frozenset(map(left_names.__getitem__, left)),
             frozenset(map(right_names.__getitem__, right)), w)
            for (left, right), w in witnesses.items()
        ]
        super().__init__(pair, exactness_label(pair, k), rows)


def build_engine(pair: AlgebraPair, config: QueryConfig | None = None, stop=None) -> Engine:
    config = config or QueryConfig()
    fragment = config.fragment
    if fragment == "unary" and not pair.left.signature.is_unary():
        raise NonUnaryError("the unary engine requires an all-unary signature")
    if fragment in ("auto", "unary", "linear"):
        return LinearEngine(pair, config.cap, stop)
    if fragment == "monolinear":
        return MonolinearEngine(pair, config.cap, stop)
    return GeneralEngine(pair, config.max_vars, config.cap, stop)


def build_engines(pair: AlgebraPair, config: QueryConfig | None = None) -> tuple[Engine, Engine]:
    """The engines of the pair and of its swap, from one closure."""
    engine = build_engine(pair, config)
    return engine, _reverse_engine(engine)


def _reverse_engine(engine: Engine) -> Engine:
    """The engine of the swapped pair: ``engine``'s rows with their sides
    swapped, as both directions read one family of term classes, and its
    row masks swapped.  A self pair's engine is its own reverse."""
    pair = engine.pair
    if pair.left is pair.right:
        return engine
    rows = [(r, l, w) for l, r, w in engine._classes]
    return Engine(pair.swapped(), engine.label, rows, (engine._right, engine._left))


def _one_shot(pair: AlgebraPair, a: str, b: str, config, both: bool) -> tuple[Engine, bool]:
    """The engine of a <~ b (``both``: and b <~ a), and whether its rows
    prove it holds: rows are final, so the closure stops once rows with a
    left and b right leave out each competitor b' right (and a' left)."""
    pair.left.require_element(a)
    pair.right.require_element(b)
    config = config or QueryConfig()
    # The general engine's sides hold carrier indices.
    left, right = (pair.left.index, pair.right.index) if config.fragment == "general" else (str, str)
    x, y = left(a), right(b)
    forward = set(map(right, Engine.competitors(pair.right.carrier, a, b)))
    backward = set(map(left, Engine.competitors(pair.left.carrier, b, a) if both else ()))

    def separated(lhs, rhs) -> bool:
        if x in lhs and y in rhs:
            forward.intersection_update(rhs)
            backward.intersection_update(lhs)
        return not (forward or backward)

    return build_engine(pair, config, separated), not (forward or backward)


def decide_leq(
    pair: AlgebraPair,
    a: str,
    b: str,
    config: QueryConfig | None = None,
    engine: Engine | None = None,
) -> Verdict:
    """Is the shared generalization set of (a, b) b-maximal?

    On failure the certificate names a dominating element b' together with
    an evidence term in Gen(a, b') but not in Gen(a, b).  Verdicts are
    shared, immutable objects: an engine hands out one per outcome.
    Without ``engine``, the closure stops once it separates every competitor.
    """
    if engine is None:
        engine, settled = _one_shot(pair, a, b, config, False)
        if settled:
            return engine._holds
    return engine.verdict(a, b)


def decide_approx(
    pair: AlgebraPair,
    a: str,
    b: str,
    config: QueryConfig | None = None,
    engine: Engine | None = None,
    reverse_engine: Engine | None = None,
) -> Verdict:
    """g-similarity: both directed maximality checks.  The reverse engine,
    the transpose of ``engine``, is made only when the forward check holds.
    Without ``engine``, one closure stops once both directions' competitors
    are separated."""
    if engine is None:
        engine, settled = _one_shot(pair, a, b, config, True)
        if settled:
            return engine._holds
    forward = decide_leq(pair, a, b, config, engine)
    if not forward.holds:
        return engine.approx_failure(forward)
    reverse_engine = reverse_engine or _reverse_engine(engine)
    backward = decide_leq(pair.swapped(), b, a, config, reverse_engine)
    if not backward.holds:
        return reverse_engine.approx_failure(backward)
    return forward


def decide_algebra_leq(pair: AlgebraPair, config: QueryConfig | None = None) -> Verdict:
    """Every left element must have a g-similar partner on the right."""
    return _missing_partner(similarity_matrix(pair, config), both_sides=False)


def decide_algebra_approx(pair: AlgebraPair, config: QueryConfig | None = None) -> Verdict:
    """Every element of each algebra must have a g-similar partner."""
    return _missing_partner(similarity_matrix(pair, config), both_sides=True)


def _missing_partner(matrix: SimilarityMatrix, both_sides: bool) -> Verdict:
    """Fail at the first left element with no ``~~`` partner in
    ``matrix``, then (``both_sides``) at the first right one."""
    rows = matrix.approx._rows
    # A pair's engine and its reverse carry one label, so every cell does.
    label = rows[0][0].fragment_label
    for a, row in zip(matrix.rows, rows):
        if not any(v.holds for v in row):
            return Verdict(False, Certificate(MISSING_PARTNER, element=a), label)
    if both_sides:
        direction = (matrix.pair.right.name, matrix.pair.left.name)
        for b, column in zip(matrix.cols, zip(*rows)):
            if not any(v.holds for v in column):
                cert = Certificate(MISSING_PARTNER, element=b, direction=direction)
                return Verdict(False, cert, label)
    return Verdict(True, None, label)


class _Values(ValuesView):
    def __iter__(self):
        return chain.from_iterable(self._mapping._rows)


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, _Values(self._mapping))


class Cells(Mapping):
    """A read-only map of (a, b) to ``rows[index[a]][cols[b]]``, row by
    row: equal to, and with the repr of, the dict of its items."""

    __slots__ = ("_rows", "_index", "_cols")

    def __init__(self, rows, index, cols):
        self._rows, self._index, self._cols = rows, index, cols

    def __getitem__(self, key):
        try:
            a, b = key if isinstance(key, tuple) else ()
            return self._rows[self._index[a]][self._cols[b]]
        except (KeyError, TypeError, ValueError):  # no such pair
            raise KeyError(key) from None

    def __len__(self):
        return len(self._rows) * len(self._cols)

    def __iter__(self):
        return product(self._index, self._cols)

    def values(self):
        return _Values(self)

    def items(self):
        return _Items(self)

    def __eq__(self, other):
        """Over equal row and column orders, each distinct (id, id) pair of
        verdicts is compared once: a matrix shares its verdict objects, and
        a verdict compares its evidence term in full."""
        if not (isinstance(other, Cells) and (self._index, self._cols) == (other._index, other._cols)):
            return Mapping.__eq__(self, other)
        pairs = {(id(x), id(y)): (x, y) for x, y in zip(self.values(), other.values())}
        return all(x == y for x, y in pairs.values())

    def __repr__(self):
        return repr(dict(self.items()))


class SimilarityMatrix(Record):
    """``leq``, ``geq`` and ``approx`` map (a, b) to the Verdict of a <~ b,
    of b <~ a (on the swapped pair) and of a ~~ b: ``Cells`` over one
    verdict list per row."""

    __slots__ = ("pair", "rows", "cols", "leq", "geq", "approx", "_distinct")

    def distinct_verdicts(self) -> list[Verdict]:
        """Each verdict of the cells once, maybe with others."""
        try:
            return self._distinct
        except AttributeError:  # built or copied another way
            cells = chain(self.leq.values(), self.geq.values(), self.approx.values())
            return [*{id(v): v for v in cells}.values()]

    def to_dict(self) -> dict:
        """The report, its cells built in one pass over the three maps,
        with one dict per verdict object."""
        texts: dict = {}
        dicts = {id(v): v.to_dict(texts) for v in self.distinct_verdicts()}
        maps = (self.leq, self.geq, self.approx)
        leq, geq, approx = [map(dicts.__getitem__, map(id, m.values())) for m in maps]
        return {
            "left": self.pair.left.name,
            "right": self.pair.right.name,
            "rows": list(self.rows),
            "cols": list(self.cols),
            "cells": [
                {"a": a, "b": b, "leq": x, "geq": y, "approx": z}
                for (a, b), x, y, z in zip(self.leq, leq, geq, approx)
            ],
        }

    def render_text(self) -> str:
        width = max([3] + [len(e) for e in self.rows + self.cols]) + 1
        lines = [" " * width + "".join(b.rjust(width) for b in self.cols)]
        for a, *row in zip(self.rows, self.approx._rows, self.leq._rows, self.geq._rows):
            lines.append(a.rjust(width) + "".join(
                ("~~" if x.holds else "<~" if y.holds else ">~" if z.holds else "--").rjust(width)
                for x, y, z in zip(*row)
            ))
        return "\n".join(lines) + "\n"


def similarity_matrix(pair: AlgebraPair, config: QueryConfig | None = None) -> SimilarityMatrix:
    """All pairwise directed and symmetric verdicts, declaration order, a
    row at a time.  Rows with one engine row object share their ``>~``
    row too, so their ``~~`` row list is derived once."""
    swapped = pair.swapped()
    engine, reverse = build_engines(pair, config)
    cols = pair.right.carrier
    leq, geq, approx, approx_rows = [], [], [], {}
    for a in pair.left.carrier:
        xs = [decide_leq(pair, a, b, config, engine) for b in cols]
        ys = [decide_leq(swapped, b, a, config, reverse) for b in cols]
        key = id(engine._verdicts[a])
        approx.append(approx_rows.get(key) or approx_rows.setdefault(key, [
            engine.approx_failure(x) if not x.holds
            else reverse.approx_failure(y) if not y.holds else x
            for x, y in zip(xs, ys)
        ]))
        leq.append(xs)
        geq.append(ys)
    cells = [Cells(rows, pair.left._ids, pair.right._ids) for rows in (leq, geq, approx)]
    matrix = SimilarityMatrix(pair, pair.left.carrier, cols, *cells)
    matrix._distinct = [  # every verdict that the engines handed out
        v for e in dict.fromkeys((engine, reverse))
        for v in (e._holds, *e._failing.values(), *e._restated.values())
    ]
    return matrix


def find_characteristic_set(
    pair: AlgebraPair,
    a: str,
    b: str,
    max_size: int = 3,
    config: QueryConfig | None = None,
) -> list[Term] | None:
    """Minimum set of shared generalizations pinning b down uniquely.

    Conditions: every member generalizes a (left) and b (right), and no
    competitor b' of ``Engine.competitors`` lies in the intersection of the
    right-hand ranges.  The search space is the
    semantic classes of the selected fragment, so exhaustion claims are
    fragment-relative.
    """
    if max_size < 1:
        raise AlgebraError(f"max_size must be >= 1, not {max_size}")
    pair.left.require_element(a)
    pair.right.require_element(b)
    engine = build_engine(pair, config)
    bad = set(engine.competitors(pair.right.carrier, a, b))
    # A set pins b down when the right ranges of its members, each cut to
    # ``bad``, meet in nothing.  So each distinct cut keeps one candidate,
    # its least by (size, spelling), which never loses the tie-break below.
    least: dict = {}
    for i, (left, right, witness) in enumerate(engine.classes()):
        if a in left and b in right:
            rank = (term_size(witness), render_term(witness))
            if right & bad not in least or rank < least[right & bad][1]:
                least[right & bad] = (i, rank, witness)
    if bad.intersection(*least):  # a competitor in every cut: no set exists
        return None
    # Classes come in witness order, so the candidates do too.
    candidates = sorted((i, cut, *rank, w) for cut, (i, rank, w) in least.items())
    for size in range(1, max_size + 1):
        best = min(
            (c for c in combinations(candidates, size) if not frozenset.intersection(*[x[1] for x in c])),
            key=lambda c: (sum(x[2] for x in c), sorted(x[3] for x in c)),
            default=None,
        )
        if best:
            return [x[4] for x in best]
    return None


class ReflexivityReport(Record):
    # violations: (element, direction, verdict) triples
    __slots__ = ("pair", "checked", "violations")

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
    engine, reverse = build_engines(pair, config)
    violations = []
    for a in pair.overlap:
        forward = decide_leq(pair, a, a, config, engine)
        if not forward.holds:
            violations.append((a, (pair.left.name, pair.right.name), forward))
        backward = decide_leq(swapped, a, a, config, reverse)
        if not backward.holds:
            violations.append((a, (pair.right.name, pair.left.name), backward))
    return ReflexivityReport(pair, pair.overlap, violations)


class TransitivityReport(Record):
    __slots__ = ("relation", "triples_checked", "violations", "details")  # violations: triples

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
            matrices[key] = getattr(similarity_matrix(p, config), relation)._rows
    rel_ab, rel_bc, rel_ac = (matrices[(id(p.left), id(p.right))] for p in pairs)
    violations, count = [], 0
    for x, xys, xzs in zip(a_alg.carrier, rel_ab, rel_ac):
        for y, xy, yzs in zip(b_alg.carrier, xys, rel_bc):
            if xy.holds:
                count += len(xzs)
                zs = zip(c_alg.carrier, yzs, xzs)
                violations += [(x, y, z) for z, yz, xz in zs if yz.holds and not xz.holds]
    return TransitivityReport(relation, count, violations, details)

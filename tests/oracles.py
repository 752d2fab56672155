"""Brute-force oracles for the engines, straight from the definitions:
enumerate the terms within bounds (``enumerate_terms``, in
``enumeration_key`` order, each term's fragment from
``classify_fragment``) and evaluate each one, per assignment
(``eval_term``).  Also the helpers that only tests use: the set-lifted
range of a term, the inverse of
``automata.word_to_term``, variable renaming to first-occurrence order,
the ``.map`` text of an element map, a random isomorphic copy of an
algebra and the range-pair check of the isomorphism lemma.
``reference_closure`` is the closure loop of one product per arity, the
reference for ``closure.least_witness_closure``'s kernels;
``reference_function_lift`` the general engine's lift as one table lookup
per assignment, the reference for ``general._function_lift``'s byte
kernels; ``reference_general`` the general closure on tuples through
both; ``reference_parse_algebra`` the ``.alg`` reader that checks each
table row as it reads it, the reference for ``algebra.parse_algebra``'s
bulk check; and ``reference_characteristic_set`` the search that keeps
each size's best set by hand, the reference for
``similarity.find_characteristic_set``."""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import combinations, count, product
from typing import Iterator

from gensim.algebra import (
    _ROW_RE,
    CONSTANTS_KEYWORDS,
    VARIABLE_RE,
    Algebra,
    AlgebraError,
    AlgebraPair,
    AlgebraParseError,
    Signature,
    _check_names,
    scan_lines,
)
from gensim.automata import NonUnaryError
from gensim.closure import Profile, SaturationCapError
from gensim.linear import _range_lift, reachable_profiles
from gensim.morphism import ElementMap
from gensim.similarity import build_engine
from gensim.terms import (
    App,
    Const,
    Term,
    TermError,
    Var,
    _fold,
    app_key,
    range_of_term,
    render_term,
    term_size,
    term_variables,
    witness_key,
)

# Term fragments, each admitting the ones before it.
GROUND = "ground"
MONOLINEAR = "monolinear"
LINEAR = "linear"
GENERAL = "general"
FRAGMENTS = (GROUND, MONOLINEAR, LINEAR, GENERAL)


class EnumerationCapError(AlgebraError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"term enumeration would exceed the cap of {cap} terms")


def term_depth(term: Term) -> int:
    return _fold(term, lambda t: 0, lambda op, depths: 1 + max(depths))


def variable_occurrences(term: Term) -> int:
    return _fold(term, lambda t: int(isinstance(t, Var)), lambda op, counts: sum(counts))


def classify_fragment(term: Term) -> str:
    distinct = len(term_variables(term))
    occurrences = variable_occurrences(term)
    if distinct == 0:
        return GROUND
    if distinct == 1 and occurrences == 1:
        return MONOLINEAR
    if occurrences == distinct:
        return LINEAR
    return GENERAL


def fragment_admits(fragment: str, term: Term) -> bool:
    """Inclusive filter: each fragment admits all strictly simpler ones."""
    if fragment not in FRAGMENTS:
        raise TermError(f"unknown fragment {fragment!r}")
    return FRAGMENTS.index(classify_fragment(term)) <= FRAGMENTS.index(fragment)


# witness_key's spelling tags (operation 0, constant 1, variable 2) moved to
# enumeration order (variable 0, operation 1, constant 2).
_ENUMERATION_TAG = (1, 2, 0)


def enumeration_key(term: Term, signature: Signature):
    """Deterministic enumeration order: depth, size, then spelling with
    variables ordered before constants."""
    depth, size, spelling = witness_key(term, signature)
    return (depth, size, tuple((_ENUMERATION_TAG[tag], rank) for tag, rank in spelling))


def _shapes(
    signature: Signature, max_depth: int, max_size: int | None
) -> list[Term]:
    """Operation-labelled tree shapes with a placeholder Var(0) at leaves."""
    leaf = Var(0)
    by_depth: list[list[Term]] = [[leaf]]
    for d in range(1, max_depth + 1):
        level: list[Term] = []
        shallower = [s for lvl in by_depth for s in lvl]
        for sym, arity in signature.operations:
            for args in product(shallower, repeat=arity):
                if max(term_depth(a) for a in args) != d - 1:
                    continue
                shape = App(sym, args)
                if max_size is not None and term_size(shape) > max_size:
                    continue
                level.append(shape)
        by_depth.append(level)
    return [s for lvl in by_depth for s in lvl]


def _label_leaves(
    shape: Term,
    signature: Signature,
    max_vars: int,
    fragment: str,
) -> Iterator[Term]:
    """Fill the leaves of a shape with constants and canonical variables.

    For the linear and monolinear fragments, variables are never reused, so
    each output is canonical by construction; for the general fragment a
    leaf may reuse any variable introduced so far.
    """
    n_leaves = variable_occurrences(shape)
    reuse = fragment == GENERAL
    consts = signature.constant_symbols

    def assignments(i: int, used: int) -> Iterator[tuple[tuple[Term, ...], int]]:
        if i == n_leaves:
            yield (), used
            return
        choices: list[Term] = []
        if used < max_vars:
            choices.append(Var(used + 1))
        if reuse:
            choices.extend(Var(j) for j in range(1, used + 1))
        choices.extend(Const(c) for c in consts)
        for choice in choices:
            new_used = used + 1 if isinstance(choice, Var) and choice.index > used else used
            for rest, final in assignments(i + 1, new_used):
                yield (choice,) + rest, final

    for combo, _ in assignments(0, 0):
        fill = iter(combo)
        yield _fold(shape, lambda t: next(fill) if isinstance(t, Var) else t, App)


def enumerate_terms(
    signature: Signature,
    max_depth: int,
    max_vars: int,
    fragment: str = GENERAL,
    cap: int = 1_000_000,
    max_size: int | None = None,
) -> list[Term]:
    """All canonical terms within the bounds, in deterministic order.

    Order is depth, then size, then spelling (variables before constants,
    operation symbols by declaration order).  Raises EnumerationCapError
    rather than producing more than ``cap`` terms.  ``max_size`` optionally
    bounds the node count on top of the depth bound.
    """
    if max_depth < 0:
        raise TermError("max_depth must be >= 0")
    if max_vars < 1:
        raise TermError("max_vars must be >= 1")
    if fragment not in FRAGMENTS:
        raise TermError(f"unknown fragment {fragment!r}")
    out: list[Term] = []
    for shape in _shapes(signature, max_depth, max_size):
        for term in _label_leaves(shape, signature, max_vars, fragment):
            if not fragment_admits(fragment, term):
                continue
            out.append(term)
            if len(out) > cap:
                raise EnumerationCapError(cap)
    out.sort(key=lambda t: enumeration_key(t, signature))
    return out


def eval_term(term: Term, algebra: Algebra, assignment: dict[int, str]) -> str:
    """Bottom-up evaluation through the operation tables."""

    def leaf(t: Term) -> str:
        if isinstance(t, Var):
            if t.index not in assignment:
                raise TermError(f"unbound variable z{t.index}")
            return assignment[t.index]
        if t.name not in algebra.carrier:
            raise TermError(f"unknown constant {t.name!r} in {algebra.name!r}")
        return t.name

    return _fold(term, leaf, algebra.apply)


def is_generalization(term: Term, algebra: Algebra, a: str) -> bool:
    algebra.require_element(a)
    return a in range_of_term(term, algebra)


def canonicalize(term: Term) -> Term:
    """Rename variables to z1, z2, ... in first-occurrence order."""
    mapping: dict[int, int] = {}

    def leaf(t: Term) -> Term:
        return Var(mapping.setdefault(t.index, len(mapping) + 1)) if isinstance(t, Var) else t

    return _fold(term, leaf, App)


def brute_force_gen(
    algebra: Algebra,
    a: str,
    max_depth: int,
    max_vars: int,
    fragment: str = GENERAL,
    cap: int = 1_000_000,
    max_size: int | None = None,
) -> list[Term]:
    """Direct-definition oracle: enumerate terms, keep the generalizations."""
    algebra.require_element(a)
    terms = enumerate_terms(
        algebra.signature, max_depth, max_vars, fragment, cap=cap, max_size=max_size
    )
    return [t for t in terms if is_generalization(t, algebra, a)]


def brute_force_subset(
    pair: AlgebraPair,
    a: str,
    b: str,
    b_prime: str,
    max_depth: int,
    max_vars: int,
    fragment: str = GENERAL,
    cap: int = 1_000_000,
    max_size: int | None = None,
) -> tuple[bool, Term | None]:
    """Oracle-level subset verdict over the enumerated term family."""
    pair.left.require_element(a)
    pair.right.require_element(b)
    pair.right.require_element(b_prime)
    terms = enumerate_terms(
        pair.left.signature, max_depth, max_vars, fragment, cap=cap, max_size=max_size
    )
    for t in terms:
        left_range = range_of_term(t, pair.left)
        if a not in left_range:
            continue
        right_range = range_of_term(t, pair.right)
        if b in right_range and b_prime not in right_range:
            return False, t
    return True, None


def lifted_range(term: Term, algebra: Algebra) -> frozenset[str]:
    """Set-lifted bottom-up range through the linear engine's lift; exact
    for linear terms."""
    if isinstance(term, Var):
        return frozenset(algebra.carrier)
    if isinstance(term, Const):
        algebra.require_element(term.name)
        return frozenset({term.name})
    return _range_lift(algebra, term.op, len(term.args))([lifted_range(a, algebra) for a in term.args])


def term_to_word(term: Term) -> list[str]:
    """Inverse of word_to_term for unary terms over the identity variable."""
    word: list[str] = []
    while isinstance(term, App):
        if len(term.args) != 1:
            raise NonUnaryError("term is not unary")
        word.append(term.op)
        term = term.args[0]
    if not isinstance(term, Var):
        raise NonUnaryError("unary word terms must bottom out in a variable")
    return list(reversed(word))


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
    copy = Algebra(f"{prefix}{algebra.name}", carrier, algebra.signature, tables)
    return ElementMap(f"relabel_{algebra.name}", algebra, copy, rename)


def lemma_violations(emap: ElementMap, cap: int | None = None) -> list[str]:
    """The source elements a that some range pair of (A, B) holds on the
    left without F(a) on the right, or the other way round.

    Each range pair holds the ranges of one term in A and in B, so for an
    isomorphism there is none unless the linear closure is at fault.  Term
    by term, this is exact on unary signatures (ground terms included) and
    covers the linear fragment elsewhere.
    """
    rows = reachable_profiles(AlgebraPair(emap.source, emap.target), cap)
    return [
        a
        for a in emap.source.carrier
        if any((a in left) != (emap(a) in right) for left, right, _ in rows)
    ]


def render_map(emap: ElementMap) -> str:
    """The ``.map`` text of ``emap``, which ``parse_map`` reads back."""
    lines = [f"map {emap.name} : {emap.source.name} -> {emap.target.name}"]
    for a in emap.source.carrier:
        lines.append(f"  {a} -> {emap.table[a]}")
    return "\n".join(lines) + "\n"


_ACCEPTED = object()  # the pending mark of an accepted profile


def reference_closure(seeds, rules, key, cap: int | None = None, keys=None) -> list[Profile]:
    """``closure.least_witness_closure`` as one loop for every arity: each
    accepted item lists its combinations by ``product`` and lifts them
    through ``lifted``, and every candidate reaches ``compose``."""
    ids: dict = {}
    values: list = []

    def intern(value) -> int:
        i = ids.setdefault(value, len(values))
        if i == len(values):
            values.append(value)
        return i

    def lifted(lift, arg_ids, memo) -> int:
        i = None if memo is None else memo.get(arg_ids)
        if i is None:
            i = intern(lift(tuple(map(values.__getitem__, arg_ids))))
            if memo is not None:
                memo[arg_ids] = i
        return i

    heap: list = []
    tick = count()
    pending: dict = {}  # profile ids -> least key pushed, or _ACCEPTED
    columns: tuple = ([], [], [])  # per accepted item: left id, right id, (key, witness)
    items: list[Profile] = []
    for left, right, witness in seeds:
        profile, k = (intern(left), intern(right)), key(witness)
        if profile not in pending or k < pending[profile]:
            pending[profile] = k
            heappush(heap, (k, next(tick), profile, None, witness))
    # One lift for both sides is a self pair's: its items' ids are equal on
    # both sides, so no two combinations share an id tuple to memoize.
    memos = [({}, {}) if rule[1] is not rule[2] else None for rule in rules]
    arities = {rule[0] for rule in rules}
    while heap:
        k, _, profile, build, args = heappop(heap)
        if pending[profile] is _ACCEPTED:
            continue
        pending[profile] = _ACCEPTED
        witness = args if build is None else build(args)
        items.append(Profile(values[profile[0]], values[profile[1]], witness))
        if keys is not None:
            keys.append(k)
        if cap is not None and len(items) > cap:
            raise SaturationCapError(cap)
        for column, value in zip(columns, (*profile, (k, witness))):
            column.append(value)
        combos = {arity: list(_combinations(columns, arity)) for arity in arities}
        for (arity, lift_left, lift_right, build, compose, *_), memo in zip(rules, memos):
            for lefts, rights, parts in combos[arity]:
                left = lifted(lift_left, lefts, memo and memo[0])
                right = left if memo is None else lifted(lift_right, rights, memo[1])
                candidate = (left, right)
                best = pending.get(candidate)
                if best is _ACCEPTED:
                    continue
                k = compose([part[0] for part in parts], best)
                if k is not None and (best is None or k < best):
                    pending[candidate] = k
                    args = tuple([part[1] for part in parts])
                    heappush(heap, (k, next(tick), candidate, build, args))
    return items


def _combinations(columns, arity: int):
    """Each ``arity``-tuple of accepted items that uses the newest, once, in
    every column: the newest at position j, older items before it, any after."""
    for j in range(arity):
        yield from zip(*[
            product(*[column[:-1] for _ in range(j)], column[-1:], *[column] * (arity - 1 - j))
            for column in columns
        ])


def reference_function_lift(algebra: Algebra, sym: str):
    """Lift ``sym`` pointwise over value-index tuples: one tuple-keyed
    lookup per assignment."""
    index = algebra.index
    table = {
        tuple(index(x) for x in tup): index(out)
        for tup, out in algebra.tables[sym].items()
    }
    return lambda functions: tuple(map(table.__getitem__, zip(*functions)))


def reference_general(pair: AlgebraPair, k: int, cap: int | None = None, keys=None) -> list[Profile]:
    """``general.saturate_profiles`` with each side a tuple of value
    indices, lifted by ``reference_function_lift`` in ``reference_closure``."""
    if cap is not None and max(len(pair.left.carrier), len(pair.right.carrier)) ** k > cap:
        raise SaturationCapError(cap)  # more assignments than profiles allowed
    sig = pair.left.signature
    left, right = (list(product(range(len(a.carrier)), repeat=k)) for a in (pair.left, pair.right))
    # zip(*assignments) lists the K projections.
    seeds = [(l, r, Var(i + 1)) for i, (l, r) in enumerate(zip(zip(*left), zip(*right)))]
    seeds += [
        ((pair.left.index(c),) * len(left), (pair.right.index(c),) * len(right), Const(c))
        for c in sig.constant_symbols
    ]
    # Unmarked rules of its own, one lift for both sides of a self pair,
    # so the oracle shares no rule code with the closure it checks.
    rules = []
    for sym, arity in sig.operations:
        lift = reference_function_lift(pair.left, sym)
        other = lift if pair.right is pair.left else reference_function_lift(pair.right, sym)
        rules.append((arity, lift, other, *app_key(sym, sig)))
    return reference_closure(seeds, rules, lambda t: witness_key(t, sig), cap, keys)


def reference_characteristic_set(pair: AlgebraPair, a: str, b: str, max_size: int = 3, config=None):
    """``similarity.find_characteristic_set`` with a hand-kept best set and
    key per size, where the first least key wins."""
    if max_size < 1:
        raise AlgebraError(f"max_size must be >= 1, not {max_size}")
    pair.left.require_element(a)
    pair.right.require_element(b)
    engine = build_engine(pair, config)
    bad = set(engine.competitors(pair.right.carrier, a, b))
    least: dict = {}
    for i, (left, right, witness) in enumerate(engine.classes()):
        if a in left and b in right:
            rank = (term_size(witness), render_term(witness))
            if right & bad not in least or rank < least[right & bad][1]:
                least[right & bad] = (i, rank, witness)
    candidates = sorted((i, cut, rank, w) for cut, (i, rank, w) in least.items())
    for size in range(1, max_size + 1):
        best: list[Term] | None = None
        best_key = None
        for combo in combinations(candidates, size):
            if frozenset.intersection(*[cut for _, cut, _, _ in combo]):
                continue
            ranks = [rank for _, _, rank, _ in combo]
            key = (sum(size for size, _ in ranks), tuple(sorted(text for _, text in ranks)))
            if best_key is None or key < best_key:
                best, best_key = [w for _, _, _, w in combo], key
        if best is not None:
            return best
    return None


def reference_parse_algebra(text: str) -> Algebra:
    """``algebra.parse_algebra`` with each table row checked as it is read:
    the same algebra, or the same refusal with the same line."""
    name: str | None = None
    carrier: tuple[str, ...] = ()
    elements: set[str] = set()
    constants_line: tuple[int, list[str]] | None = None
    sig_ops: list[tuple[str, int]] = []
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    current_op: tuple[str, int, int] | None = None  # symbol, arity, line

    for lineno, line in scan_lines(text):
        head = line.split(None, 1)[0]
        # A row may start with an element named ``end``.
        if current_op is not None and line != "end":
            sym, arity, _ = current_op
            m = _ROW_RE.match(line)
            if not m:
                raise AlgebraParseError(f"malformed table row {line!r}", lineno)
            args_text = m.group("args")
            args = tuple(map(str.strip, args_text.split(","))) if args_text else ()
            if len(args) != arity:
                raise AlgebraParseError(
                    f"{sym!r} expects {arity} argument(s), row has {len(args)}", lineno
                )
            for a in args:
                if a not in elements:
                    raise AlgebraParseError(f"unknown element {a!r} in row", lineno)
            out = m.group("out")
            if out not in elements:
                raise AlgebraParseError(
                    f"out-of-carrier output {out!r} for {sym}({', '.join(args)})", lineno
                )
            if args in tables[sym]:
                raise AlgebraParseError(
                    f"duplicate table row for {sym}({', '.join(args)})", lineno
                )
            tables[sym][args] = out
            continue
        parts = line.split()
        if head == "algebra":
            if name is not None:
                raise AlgebraParseError("duplicate 'algebra' header", lineno)
            if len(parts) != 2:
                raise AlgebraParseError("expected 'algebra <name>'", lineno)
            _check_names(parts[1:], lineno)
            name = parts[1]
        elif head == "elements":
            if carrier:
                raise AlgebraParseError("duplicate 'elements' line", lineno)
            if not parts[1:]:
                raise AlgebraParseError("'elements' needs at least one name", lineno)
            if len(set(parts[1:])) != len(parts[1:]):
                raise AlgebraParseError("duplicate element name", lineno)
            _check_names(parts[1:], lineno)
            for keyword in CONSTANTS_KEYWORDS:
                if keyword in parts[1:]:
                    raise AlgebraParseError(
                        f"element name {keyword!r} is reserved (a 'constants' keyword)",
                        lineno,
                    )
            carrier = tuple(parts[1:])
            elements = set(carrier)
        elif head == "constants":
            if constants_line is not None:
                raise AlgebraParseError("duplicate 'constants' line", lineno)
            if len(set(parts[1:])) != len(parts[1:]):
                raise AlgebraParseError("duplicate constant name", lineno)
            constants_line = (lineno, parts[1:])
        elif head == "op":
            if len(parts) != 2 or "/" not in parts[1]:
                raise AlgebraParseError("expected 'op <sym>/<arity>'", lineno)
            sym, _, arity_text = parts[1].partition("/")
            _check_names([sym], lineno, symbol=True)
            try:
                arity = int(arity_text)
            except ValueError:
                raise AlgebraParseError(f"bad arity {arity_text!r}", lineno) from None
            if arity < 1:
                raise AlgebraParseError(
                    f"operation {sym!r} has arity {arity}; must be >= 1", lineno
                )
            if VARIABLE_RE.match(sym):
                raise AlgebraParseError(
                    f"operation symbol {sym!r} clashes with variable names", lineno
                )
            if sym in tables:
                raise AlgebraParseError(f"duplicate operation {sym!r}", lineno)
            if not carrier:
                raise AlgebraParseError("'op' before 'elements'", lineno)
            sig_ops.append((sym, arity))
            tables[sym] = {}
            current_op = (sym, arity, lineno)
        elif head == "end":
            if current_op is None:
                raise AlgebraParseError("'end' without an open op block", lineno)
            sym, arity, _ = current_op
            for tup in product(carrier, repeat=arity):
                if tup not in tables[sym]:
                    raise AlgebraParseError(
                        f"missing table row for {sym}({', '.join(tup)})", lineno
                    )
            current_op = None
        else:
            raise AlgebraParseError(f"unknown directive {head!r}", lineno)

    if current_op is not None:
        sym, _, lineno = current_op
        raise AlgebraParseError(f"op block {sym!r} not closed with 'end'", lineno)
    if name is None:
        raise AlgebraParseError("missing 'algebra <name>' header")
    if not carrier:
        raise AlgebraParseError("missing 'elements' line")
    if constants_line is None:
        raise AlgebraParseError("missing 'constants' line")
    lineno, constants = constants_line
    if constants == ["none"]:
        constants = []
    elif constants == ["all"]:
        constants = carrier
    for c in constants:
        if c not in carrier:
            raise AlgebraParseError(f"unknown constant element {c!r}", lineno)
    for c in constants:
        if c in tables:
            raise AlgebraParseError(
                f"constant symbol {c!r} clashes with an operation symbol", lineno
            )
        if VARIABLE_RE.match(c):
            raise AlgebraParseError(f"constant symbol {c!r} clashes with variable names", lineno)
    return Algebra(name, carrier, Signature(tuple(sig_ops), tuple(constants)), tables)

"""Word automata for generalization languages of finite unary algebras.

A term over a unary signature is a word over the operation alphabet.  The
stored DFA reads words in application order: following ``w = f1 f2 ... fk``
from element ``x`` visits ``f1(x)``, then ``f2(f1(x))`` and so on, which
keeps the automaton literally the algebra's transition graph.  The term
spelling is the reverse of the word: ``w = f g`` (apply f, then g) is the
term ``g(f(z1))``.

``gen_language`` builds the minimal DFA of Gen(a) in one pass, numbered
breadth-first in alphabet order, so equal languages give equal DFAs.
``dfa_intersect`` and ``dfa_subset`` walk the reachable product of two DFAs.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Iterable

from .algebra import Algebra, AlgebraError, NonUnaryError
from .record import Frozen
from .terms import App, Term, Var


class AlphabetMismatchError(AlgebraError):
    pass


class GenDfa(Frozen):
    """A complete DFA over the unary-operation alphabet: a word language.
    Ground terms are not words; ``monolinear.ground_value_terms`` lists
    them.  ``delta[state][symbol_index]`` is the successor state."""

    __slots__ = ("alphabet", "n_states", "start", "finals", "delta")

    def __init__(
        self,
        alphabet: tuple[str, ...],
        n_states: int,
        start: int,
        finals: frozenset[int],
        delta: tuple[tuple[int, ...], ...],
    ):
        super().__init__(alphabet, n_states, start, finals, delta)
        if not finals <= set(range(n_states)):
            raise AlgebraError("final states outside the state set")
        if len(delta) != n_states or any(len(row) != len(alphabet) for row in delta):
            raise AlgebraError("transition table is not total")

    def step(self, state: int, symbol: str) -> int:
        return self.delta[state][self.alphabet.index(symbol)]

    def accepts(self, word: Iterable[str]) -> bool:
        state = self.start
        for sym in word:
            state = self.step(state, sym)
        return state in self.finals


def _require_unary(algebra: Algebra) -> tuple[str, ...]:
    if not algebra.signature.is_unary():
        raise NonUnaryError(
            f"algebra {algebra.name!r} has non-unary operations; "
            "the automaton engine requires a unary signature"
        )
    return algebra.signature.op_symbols


def _require_same_alphabet(x: GenDfa, y: GenDfa) -> tuple[str, ...]:
    if x.alphabet != y.alphabet:
        raise AlphabetMismatchError(f"alphabets differ: {x.alphabet} vs {y.alphabet}")
    return x.alphabet


def word_to_term(word: Iterable[str]) -> Term:
    """Application-order word to outermost-first term spelling."""
    term: Term = Var(1)
    for sym in word:
        term = App(sym, (term,))
    return term


def gen_language(algebra: Algebra, a: str) -> GenDfa:
    """Minimal DFA for the generalization language of ``a``.

    The union over all start elements is determinized by tracking the image
    set of the word function, seeded with the full carrier; a word is
    accepted iff ``a`` lies in the image.  The image sets are numbered
    breadth-first in alphabet order.  Moore (1956) refinement then splits
    the sets that contain ``a`` from those that do not, and re-keys every
    set by its block and its successors' blocks until the number of blocks
    stops growing.  Each partition is numbered by first appearance in the
    sets' order, which is the breadth-first order of the minimal DFA, so
    the last keys are its transition rows.
    """
    alphabet = _require_unary(algebra)
    algebra.require_element(a)
    tables = algebra.tables
    maps = [{x: tables[sym][(x,)] for x in algebra.carrier}.__getitem__ for sym in alphabet]
    order = [frozenset(algebra.carrier)]
    ids = {order[0]: 0}
    columns: list[list[int]] = [[] for _ in alphabet]  # successor ids per symbol
    for current in order:  # grows while read: a breadth-first queue
        for image, column in zip(maps, columns):
            nxt = frozenset(map(image, current))
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            column.append(ids[nxt])
    block = [0 if a in s else 1 for s in order]  # the full carrier holds a
    n_blocks = len(set(block))
    while True:
        keys = list(zip(block, *[map(block.__getitem__, c) for c in columns]))
        number = dict(zip(dict.fromkeys(keys), count()))
        block = list(map(number.__getitem__, keys))
        if len(number) == n_blocks:
            break
        n_blocks = len(number)
    return GenDfa(
        alphabet=alphabet,
        n_states=n_blocks,
        start=0,
        finals=frozenset(b for b, s in zip(block, order) if a in s),
        delta=tuple(key[1:] for key in number),
    )


def dfa_intersect(x: GenDfa, y: GenDfa) -> GenDfa:
    """Product automaton for the language intersection: the pairs of states
    reachable from the start pair, numbered breadth-first, not minimized."""
    alphabet = _require_same_alphabet(x, y)
    pairs: dict[tuple[int, int], int] = {(x.start, y.start): 0}
    order = [(x.start, y.start)]
    rows = []
    for p, q in order:  # grows while read: a breadth-first queue
        row = []
        for c in range(len(alphabet)):
            nxt = (x.delta[p][c], y.delta[q][c])
            if nxt not in pairs:
                pairs[nxt] = len(order)
                order.append(nxt)
            row.append(pairs[nxt])
        rows.append(tuple(row))
    return GenDfa(
        alphabet=alphabet,
        n_states=len(order),
        start=0,
        finals=frozenset(
            i for i, (p, q) in enumerate(order) if p in x.finals and q in y.finals
        ),
        delta=tuple(rows),
    )


def dfa_subset(x: GenDfa, y: GenDfa) -> tuple[bool, Term | None]:
    """Language inclusion with a shortest separating term on failure.

    BFS over the product finds the shortest word accepted by x but not by
    y.
    """
    alphabet = _require_same_alphabet(x, y)
    start = (x.start, y.start)
    seen = {start}
    queue: deque[tuple[tuple[int, int], tuple[str, ...]]] = deque([(start, ())])
    while queue:
        (p, q), word = queue.popleft()
        if p in x.finals and q not in y.finals:
            return False, word_to_term(word)
        for c, sym in enumerate(alphabet):
            nxt = (x.delta[p][c], y.delta[q][c])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (sym,)))
    return True, None


def export_dot(dfa: GenDfa) -> str:
    """Graphviz rendering: start arrow, doublecircle finals, labelled edges;
    state ``i`` is named ``qi``.  A label escapes ``\\`` and ``"``."""
    lines = ["digraph gendfa {", "  rankdir=LR;", "  __start [shape=point];"]
    lines.append(f"  __start -> q{dfa.start};")
    for i in range(dfa.n_states):
        shape = "doublecircle" if i in dfa.finals else "circle"
        lines.append(f"  q{i} [shape={shape}];")
    labels = [sym.replace("\\", "\\\\").replace('"', '\\"') for sym in dfa.alphabet]
    for i, row in enumerate(dfa.delta):
        for label, target in zip(labels, row):
            lines.append(f'  q{i} -> q{target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dfa_to_regex(dfa: GenDfa) -> str:
    """Display regex via state elimination; not canonical, display only."""
    n = dfa.n_states
    init = n
    final = n + 1
    # trans[(i, j)] = regex
    trans: dict[tuple[int, int], str] = {}

    def add(i: int, j: int, expr: str):
        if (i, j) in trans:
            trans[(i, j)] = _alt(trans[(i, j)], expr)
        else:
            trans[(i, j)] = expr

    def _alt(a: str, b: str) -> str:
        if a == b:
            return a
        return f"({a or 'ε'}|{b or 'ε'})"

    def _cat(a: str, b: str) -> str:
        if a == "":
            return b
        if b == "":
            return a
        return a + b

    def _star(a: str) -> str:
        if a == "":
            return ""
        if len(a) == 1:
            return a + "*"
        return f"({a})*"

    for i in range(n):
        for c, sym in enumerate(dfa.alphabet):
            add(i, dfa.delta[i][c], sym)
    add(init, dfa.start, "")
    for f in dfa.finals:
        add(f, final, "")

    for k in range(n):
        loop = trans.pop((k, k), None)
        ins = [(i, e) for (i, j), e in list(trans.items()) if j == k and i != k]
        outs = [(j, e) for (s, j), e in list(trans.items()) if s == k and j != k]
        for (i, j) in list(trans):
            if i == k or j == k:
                del trans[(i, j)]
        for i, e_in in ins:
            for j, e_out in outs:
                expr = _cat(_cat(e_in, _star(loop) if loop is not None else ""), e_out)
                add(i, j, expr)
    expr = trans.get((init, final))
    if expr is None:
        return "<empty>"
    if expr == "":
        return "ε"
    return expr

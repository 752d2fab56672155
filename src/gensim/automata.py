"""Word automata for generalization languages of finite unary algebras.

A term over a unary signature is a word over the operation alphabet.  The
stored DFA reads words in application order: following ``w = f1 f2 ... fk``
from element ``x`` visits ``f1(x)``, then ``f2(f1(x))`` and so on, which
keeps the automaton literally the algebra's transition graph.  The term
spelling is the reverse of the word: ``w = f g`` (apply f, then g) is the
term ``g(f(z1))``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .algebra import Algebra, AlgebraError
from .terms import App, Term, Var


class NonUnaryError(AlgebraError):
    pass


class AlphabetMismatchError(AlgebraError):
    pass


@dataclass(frozen=True)
class GenDfa:
    """A complete DFA over the unary-operation alphabet: a word language.
    Ground terms are not words; ``monolinear.ground_value_terms`` lists
    them."""

    alphabet: tuple[str, ...]
    n_states: int
    start: int
    finals: frozenset[int]
    delta: tuple[tuple[int, ...], ...]  # delta[state][symbol_index]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.finals <= set(range(self.n_states)):
            raise AlgebraError("final states outside the state set")
        if len(self.delta) != self.n_states or any(
            len(row) != len(self.alphabet) for row in self.delta
        ):
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
    accepted iff ``a`` lies in the image.
    """
    alphabet = _require_unary(algebra)
    algebra.require_element(a)
    start_set = frozenset(algebra.carrier)
    sets: dict[frozenset[str], int] = {start_set: 0}
    order: list[frozenset[str]] = [start_set]
    queue = deque([start_set])
    while queue:
        current = queue.popleft()
        for sym in alphabet:
            nxt = frozenset(algebra.apply(sym, (e,)) for e in current)
            if nxt not in sets:
                sets[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    delta = []
    for s in order:
        delta.append(
            tuple(
                sets[frozenset(algebra.apply(sym, (e,)) for e in s)]
                for sym in alphabet
            )
        )
    finals = frozenset(i for i, s in enumerate(order) if a in s)
    dfa = GenDfa(
        alphabet=alphabet,
        n_states=len(order),
        start=0,
        finals=finals,
        delta=tuple(delta),
    )
    return dfa_minimize(dfa)


def _reachable(dfa: GenDfa) -> list[int]:
    seen = [False] * dfa.n_states
    seen[dfa.start] = True
    order = [dfa.start]
    queue = deque([dfa.start])
    while queue:
        s = queue.popleft()
        for t in dfa.delta[s]:
            if not seen[t]:
                seen[t] = True
                order.append(t)
                queue.append(t)
    return order


def dfa_minimize(dfa: GenDfa) -> GenDfa:
    """Hopcroft minimization with canonical BFS state numbering."""
    reach = _reachable(dfa)
    remap = {s: i for i, s in enumerate(reach)}
    n = len(reach)
    delta = [
        tuple(remap[dfa.delta[s][c]] for c in range(len(dfa.alphabet))) for s in reach
    ]
    finals = {remap[s] for s in dfa.finals if s in remap}

    # Hopcroft partition refinement over block ids; a split keeps the old
    # id for the part inside the splitter's preimage.
    partition = [block for block in (finals, set(range(n)) - finals) if block]
    block_of = [0] * n
    for i, block in enumerate(partition):
        for s in block:
            block_of[s] = i
    work = list(range(len(partition)))
    in_work = set(work)
    preimage: list[list[list[int]]] = [[[] for _ in range(n)] for _ in dfa.alphabet]
    for s in range(n):
        for c in range(len(dfa.alphabet)):
            preimage[c][delta[s][c]].append(s)
    while work:
        i = work.pop()
        in_work.discard(i)
        splitter = partition[i]
        for c in range(len(dfa.alphabet)):
            touched: dict[int, set[int]] = {}
            for t in splitter:
                for s in preimage[c][t]:
                    touched.setdefault(block_of[s], set()).add(s)
            for j, inter in touched.items():
                block = partition[j]
                if len(inter) == len(block):
                    continue
                diff = block - inter
                partition[j] = inter
                k = len(partition)
                partition.append(diff)
                for s in diff:
                    block_of[s] = k
                if j in in_work:
                    added = k
                else:
                    added = j if len(inter) <= len(diff) else k
                work.append(added)
                in_work.add(added)

    # canonical numbering: BFS from the start block in alphabet order, each
    # block read through its least state
    rep = [n] * len(partition)
    for s in range(n - 1, -1, -1):
        rep[block_of[s]] = s
    start_block = block_of[0]
    number = {start_block: 0}
    order = [start_block]
    queue = deque([start_block])
    while queue:
        b = queue.popleft()
        for c in range(len(dfa.alphabet)):
            nb = block_of[delta[rep[b]][c]]
            if nb not in number:
                number[nb] = len(order)
                order.append(nb)
                queue.append(nb)
    new_n = len(order)
    new_delta = []
    new_finals = set()
    for b in order:
        new_delta.append(tuple(number[block_of[delta[rep[b]][c]]] for c in range(len(dfa.alphabet))))
        if rep[b] in finals:
            new_finals.add(number[b])
    return GenDfa(
        alphabet=dfa.alphabet,
        n_states=new_n,
        start=0,
        finals=frozenset(new_finals),
        delta=tuple(new_delta),
    )


def dfa_intersect(x: GenDfa, y: GenDfa) -> GenDfa:
    """Minimized product automaton for the language intersection."""
    alphabet = _require_same_alphabet(x, y)
    pairs: dict[tuple[int, int], int] = {(x.start, y.start): 0}
    order = [(x.start, y.start)]
    queue = deque(order)
    rows = []
    while queue:
        p, q = queue.popleft()
        row = []
        for c in range(len(alphabet)):
            nxt = (x.delta[p][c], y.delta[q][c])
            if nxt not in pairs:
                pairs[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(pairs[nxt])
        rows.append(row)
    finals = frozenset(
        i for i, (p, q) in enumerate(order) if p in x.finals and q in y.finals
    )
    product = GenDfa(
        alphabet=alphabet,
        n_states=len(order),
        start=0,
        finals=finals,
        delta=tuple(tuple(r) for r in rows),
    )
    return dfa_minimize(product)


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


_DOT_ID_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*|[0-9]+)$")


def _dot_id(name: str) -> str:
    if _DOT_ID_RE.match(name):
        return name
    return '"' + name.replace('"', '\\"') + '"'


def export_dot(dfa: GenDfa) -> str:
    """Graphviz rendering: start arrow, doublecircle finals, labelled edges."""
    names = dfa.names or tuple(f"q{i}" for i in range(dfa.n_states))
    lines = ["digraph gendfa {", "  rankdir=LR;", "  __start [shape=point];"]
    lines.append(f"  __start -> {_dot_id(names[dfa.start])};")
    for i, name in enumerate(names):
        shape = "doublecircle" if i in dfa.finals else "circle"
        lines.append(f"  {_dot_id(name)} [shape={shape}];")
    for i, name in enumerate(names):
        for c, sym in enumerate(dfa.alphabet):
            target = names[dfa.delta[i][c]]
            lines.append(f'  {_dot_id(name)} -> {_dot_id(target)} [label="{sym}"];')
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

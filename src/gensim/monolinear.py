"""Monolinear fragment: terms with one variable occurrence.

A monolinear term has exactly one occurrence of a single variable; its
other argument positions are filled with ground terms over the
distinguished constants.  The range of ``op(g1, ..., s(z), ..., gk)`` is
``{op(g1, ..., x, ..., gk) : x in range(s)}``: it depends only on the range
of ``s`` and on the ground values.  So the shared ranges over an algebra
pair are the least family of range pairs that contains the carriers and is
closed under plugging into any operation position with paired ground
values elsewhere; like the linear family it lives in 2^A x 2^B.

The unary functions the terms induce (the polynomial clone) come from the
same rules lifted over tables instead of ranges; ``gensim clone`` reports
them.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .algebra import Algebra, AlgebraPair, self_pair
from .closure import Profile, least_witness_closure, operation_rules
from .record import Frozen
from .terms import Const, Term, Var, app_key, render_term, witness_key


class UnaryPolynomial(Frozen):
    __slots__ = ("table", "witness")  # table: indexed by carrier order


def paired_ground_values(pair: AlgebraPair, keys: list | None = None) -> list[Profile]:
    """Simultaneously realizable ground values over the pair, each with a
    minimal ground witness (and its key appended to ``keys``)."""
    sig = pair.left.signature
    seeds = [(c, c, Const(c)) for c in sig.constant_symbols]
    rules = operation_rules(pair, lambda algebra, sym, _: algebra.tables[sym].__getitem__)
    return least_witness_closure(seeds, rules, lambda t: witness_key(t, sig), keys=keys)


def ground_value_terms(algebra: Algebra) -> list[tuple[str, Term]]:
    """Values of ground terms over the distinguished constants, each with a
    minimal ground witness; this is the subalgebra the constants generate."""
    return [(value, term) for value, _, term in paired_ground_values(self_pair(algebra))]


def _plug(algebra: Algebra, sym: str, position: int, fillers: tuple[str, ...], collect):
    """Plug a table (``collect=tuple``) or a range (``frozenset``) into
    ``sym`` at ``position``, fillers elsewhere."""
    table = algebra.tables[sym]
    before, after = fillers[:position], fillers[position:]
    image = {x: table[before + (x,) + after] for x in algebra.carrier}.__getitem__
    return lambda args: collect(map(image, args[0]))


def _plug_rules(pair: AlgebraPair, collect) -> list:
    """One unary rule per (operation, position, tuple of paired ground
    fillers for the other positions), lifting what ``collect`` builds."""
    sig = pair.left.signature
    ground_keys: list = []
    grounds = [(*p[:2], (p.witness, k)) for p, k in zip(paired_ground_values(pair, ground_keys), ground_keys)]
    plug = partial(_plug, collect=collect)
    rules = []
    for sym, arity in sig.operations:
        for fillers in product(grounds, repeat=arity - 1):
            lefts, rights, terms = zip(*fillers) if fillers else ((),) * 3
            for pos in range(arity):
                left = plug(pair.left, sym, pos, lefts)
                right = left if pair.right is pair.left else plug(pair.right, sym, pos, rights)
                rules.append((1, left, right, *app_key(sym, sig, terms[:pos], terms[pos:]), False))
    return rules


def paired_clone(pair: AlgebraPair, cap: int | None = None, stop=None) -> list[Profile]:
    """Pairs of ranges realizable by one shared monolinear term, each with
    a minimal witness.  Raises ``SaturationCapError`` when more than
    ``cap`` range pairs are accepted."""
    sig = pair.left.signature
    seeds = [(frozenset(pair.left.carrier), frozenset(pair.right.carrier), Var(1))]
    return least_witness_closure(
        seeds, _plug_rules(pair, frozenset), lambda t: witness_key(t, sig), cap, stop=stop
    )


def polynomial_clone(algebra: Algebra, cap: int | None = None) -> list[UnaryPolynomial]:
    """All unary functions induced by monolinear terms, minimal witnesses.
    Raises ``SaturationCapError`` when more than ``cap`` functions are
    accepted."""
    sig = algebra.signature
    seeds = [(algebra.carrier, algebra.carrier, Var(1))]
    tables = least_witness_closure(
        seeds, _plug_rules(self_pair(algebra), tuple), lambda t: witness_key(t, sig), cap
    )
    return [UnaryPolynomial(p.left, p.witness) for p in tables]


def dump_clone(clone: list[UnaryPolynomial], algebra: Algebra) -> str:
    """Clone report, one line per polynomial."""
    lines = []
    for p in clone:
        mapping = ", ".join(f"{x}->{y}" for x, y in zip(algebra.carrier, p.table))
        lines.append(f"[{mapping}]  witness: {render_term(p.witness)}")
    return "\n".join(lines) + "\n"

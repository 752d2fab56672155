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

from dataclasses import dataclass
from functools import partial
from itertools import product

from .algebra import Algebra, AlgebraPair, self_pair
from .closure import Profile, least_witness_closure
from .linear import _range_lift
from .terms import App, Const, Term, Var, render_term, witness_key


@dataclass(frozen=True)
class UnaryPolynomial:
    table: tuple[str, ...]  # indexed by carrier order
    witness: Term


def paired_ground_values(pair: AlgebraPair) -> list[Profile]:
    """Simultaneously realizable ground values over the pair, each with a
    minimal ground witness."""
    sig = pair.left.signature
    seeds = [(c, c, Const(c)) for c in sig.constant_symbols]
    left, right = pair.left.tables, pair.right.tables
    rules = [
        (arity, left[sym].__getitem__, right[sym].__getitem__, partial(App, sym))
        for sym, arity in sig.operations
    ]
    return least_witness_closure(seeds, rules, lambda t: witness_key(t, sig))


def ground_value_terms(algebra: Algebra) -> list[tuple[str, Term]]:
    """Values of ground terms over the distinguished constants, each with a
    minimal ground witness; this is the subalgebra the constants generate."""
    return [(value, term) for value, _, term in paired_ground_values(self_pair(algebra))]


def _plug_table(algebra: Algebra, sym: str, position: int, fillers: tuple[str, ...]):
    """Plug a table into ``sym`` at ``position``, fillers elsewhere."""
    table = algebra.tables[sym]
    before, after = fillers[:position], fillers[position:]
    return lambda tables: tuple(table[before + (x,) + after] for x in tables[0])


def _plug_range(algebra: Algebra, sym: str, position: int, fillers: tuple[str, ...]):
    """Plug a range into ``sym`` at ``position``, fillers elsewhere."""
    lift = _range_lift(algebra, sym)
    sets = [frozenset({value}) for value in fillers]
    before, after = sets[:position], sets[position:]
    return lambda ranges: lift(before + [ranges[0]] + after)


def _plug_app(sym: str, position: int, filler_terms: tuple[Term, ...]):
    before, after = filler_terms[:position], filler_terms[position:]
    return lambda witnesses: App(sym, before + witnesses + after)


def _plug_rules(pair: AlgebraPair, plug) -> list:
    """One unary rule per (operation, position, tuple of paired ground
    fillers for the other positions); ``plug`` lifts one side."""
    grounds = paired_ground_values(pair)
    rules = []
    for sym, arity in pair.left.signature.operations:
        for fillers in product(grounds, repeat=arity - 1):
            lefts, rights, terms = zip(*fillers) if fillers else ((), (), ())
            for position in range(arity):
                rules.append((
                    1,
                    plug(pair.left, sym, position, lefts),
                    plug(pair.right, sym, position, rights),
                    _plug_app(sym, position, terms),
                ))
    return rules


def paired_clone(pair: AlgebraPair, cap: int | None = None) -> list[Profile]:
    """Pairs of ranges realizable by one shared monolinear term, each with
    a minimal witness.  Raises ``SaturationCapError`` when more than
    ``cap`` range pairs are accepted."""
    sig = pair.left.signature
    seeds = [(frozenset(pair.left.carrier), frozenset(pair.right.carrier), Var(1))]
    return least_witness_closure(
        seeds, _plug_rules(pair, _plug_range), lambda t: witness_key(t, sig), cap
    )


def polynomial_clone(algebra: Algebra) -> list[UnaryPolynomial]:
    """All unary functions induced by monolinear terms, minimal witnesses."""
    sig = algebra.signature
    seeds = [(algebra.carrier, algebra.carrier, Var(1))]
    tables = least_witness_closure(
        seeds, _plug_rules(self_pair(algebra), _plug_table), lambda t: witness_key(t, sig)
    )
    return [UnaryPolynomial(p.left, p.witness) for p in tables]


def dump_clone(clone: list[UnaryPolynomial], algebra: Algebra) -> str:
    """Clone report, one line per polynomial."""
    lines = []
    for p in clone:
        mapping = ", ".join(f"{x}->{y}" for x, y in zip(algebra.carrier, p.table))
        lines.append(f"[{mapping}]  witness: {render_term(p.witness)}")
    return "\n".join(lines) + "\n"

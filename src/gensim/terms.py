"""Terms over a signature: spelling, parsing, ranges and witness order.

A term is a variable ``z1, z2, ...``, a constant symbol, or an application
of an operation symbol to child terms.  Canonical terms number their
variables by first occurrence, left to right, which makes term equality a
plain structural comparison.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, islice, product
from typing import Union

from .algebra import Algebra, AlgebraError, Signature, VARIABLE_RE
from .record import Frozen


class Var(Frozen):
    __slots__ = ("index",)  # z1 -> Var(1)


class Const(Frozen):
    __slots__ = ("name",)


class App(Frozen):
    __slots__ = ("op", "args")  # args: a tuple of terms

    # Equality and hashing walk the term with a stack, not by recursion.
    def __eq__(self, other):
        if not isinstance(other, App):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if not (isinstance(x, App) and isinstance(y, App)):
                if x != y:
                    return False
            elif x.op != y.op or len(x.args) != len(y.args):
                return False
            else:
                stack += zip(x.args, y.args)
        return True

    def __hash__(self):
        return _fold(self, hash, lambda op, hashes: hash((op, hashes)))

    # The ``Record`` repr's text, folded without recursion; a one-element
    # args tuple keeps its trailing comma.
    def __repr__(self):
        return _fold(self, repr, lambda op, reprs: (
            f"App(op={op!r}, args=({', '.join(reprs)}{',' * (len(reprs) == 1)}))"
        ))

    # Terms are immutable, so a copy is the term itself.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


Term = Union[Var, Const, App]


class TermError(AlgebraError):
    pass


def render_term(term: Term) -> str:
    """Surface spelling such as ``f(g(z1), c)``.

    Iterative, so that witnesses thousands of levels deep render too.  The
    stack holds terms still to render and the literal text between them.
    """
    out: list[str] = []
    stack: list = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(f"z{t.index}")
        elif isinstance(t, Const):
            out.append(t.name)
        else:
            out.append(f"{t.op}(")
            stack.append(")")
            for a in reversed(t.args[1:]):
                stack += (a, ", ")
            stack.append(t.args[0])
    return "".join(out)


_TOKEN_RE = re.compile(r"\s*([(),]|[^\s(),]+)")


def parse_term(text: str, signature: Signature | None = None) -> Term:
    """Parse surface syntax like ``f(g(z1))`` or ``m(z1, a)``.

    Names matching ``z[0-9]+`` are variables; everything else is an
    operation (when followed by parentheses) or a constant.  Arities are
    checked when a signature is supplied.  Iterative, like ``render_term``:
    the stack holds the open applications, innermost last, each with the
    arguments read so far.
    """
    tokens = _TOKEN_RE.findall(text)
    pos = 0
    stack: list[tuple[str, list[Term]]] = []

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise TermError(f"unexpected end of term in {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    while True:
        tok = take()
        if tok in "(),":
            raise TermError(f"unexpected {tok!r} in {text!r}")
        if VARIABLE_RE.match(tok):
            term: Term = Var(int(tok[1:]))
        elif peek() == "(":
            take()
            stack.append((tok, []))
            continue
        else:
            if signature is not None and tok not in signature.constant_symbols:
                if tok in signature.op_symbols:
                    raise TermError(f"operation {tok!r} used without arguments")
                raise TermError(f"unknown constant {tok!r}")
            term = Const(tok)
        # A finished term is an argument of the innermost open application:
        # a comma opens the next argument, a ')' closes the application.
        while stack:
            op, args = stack[-1]
            args.append(term)
            if peek() == ",":
                take()
                break
            if take() != ")":
                raise TermError(f"expected ')' in {text!r}")
            stack.pop()
            if signature is not None and len(args) != signature.arity(op):
                raise TermError(
                    f"{op!r} applied to {len(args)} argument(s), "
                    f"arity is {signature.arity(op)}"
                )
            term = App(op, tuple(args))
        else:
            break
    if pos != len(tokens):
        raise TermError(f"trailing input after term in {text!r}")
    return term


def _fold(term: Term, leaf, node):
    """Bottom-up fold without recursion: ``leaf(t)`` for each variable or
    constant, left to right, and ``node(op, values)`` for each application.
    ``values`` holds the results of finished subterms, and an ``(op,
    arity)`` entry on the stack folds the last ``arity`` of them."""
    values: list = []
    stack: list = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack.append((t.op, len(t.args)))
            stack += reversed(t.args)
        elif isinstance(t, tuple):
            op, arity = t
            args = tuple(values[-arity:])
            del values[-arity:]
            values.append(node(op, args))
        else:
            values.append(leaf(t))
    return values[0]


def term_size(term: Term) -> int:
    return _fold(term, lambda t: 1, lambda op, sizes: 1 + sum(sizes))


def term_variables(term: Term) -> list[int]:
    """Distinct variable indices in first-occurrence order (an iterative
    preorder walk)."""
    out: list[int] = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack += reversed(t.args)
        elif isinstance(t, Var) and t.index not in out:
            out.append(t.index)
    return out


def shift_variables(term: Term, offset: int) -> Term:
    return _fold(term, lambda t: Var(t.index + offset) if isinstance(t, Var) else t, App)


def range_of_term(term: Term, algebra: Algebra) -> frozenset[str]:
    """All values of the term over every variable assignment.

    Ground terms yield a singleton.  This enumerates assignments directly
    and serves as the independent oracle for the symbolic engines.  It
    folds the term column-wise per block of 1,024 assignments, and stops
    once the range is the whole carrier.
    """
    variables = term_variables(term)
    assignments = product(algebra.carrier, repeat=len(variables))
    values = set()

    # A leaf is its column over the current block.
    def leaf(t: Term):
        if isinstance(t, Var):
            return columns[t.index]
        try:
            return (algebra.require_element(t.name),) * width
        except AlgebraError:
            raise TermError(f"unknown constant {t.name!r} in {algebra.name!r}") from None

    # A ground term has one, empty, assignment.
    for block in iter(lambda: tuple(islice(assignments, 1024)), ()):
        columns, width = dict(zip(variables, zip(*block))), len(block)
        values.update(_fold(term, leaf, lambda op, args: [*map(algebra.tables[op].__getitem__, zip(*args))]))
        if len(values) == len(algebra.carrier):
            break
    return frozenset(values)


def render_g_formula(term: Term) -> str:
    """First-order reading of a term: existentially close its variables."""
    variables = term_variables(term)
    body = f"y = {render_term(term)}"
    if not variables:
        return body
    return "exists " + " ".join(f"z{i}" for i in variables) + " . " + body


@lru_cache(maxsize=64)
def _symbol_ranks(signature: Signature) -> tuple[dict[str, int], dict[str, int]]:
    """Declaration-order ranks of the operation and constant symbols,
    cached per signature (one lookup per key); callers only read them."""
    op_rank = {sym: i for i, (sym, _) in enumerate(signature.operations)}
    const_rank = {c: i for i, c in enumerate(signature.constant_symbols)}
    return op_rank, const_rank


def witness_key(term: Term, signature: Signature):
    """Witness tie-break order: depth, size, then spelling with variables
    ordered last.  Used to pick minimal certificate terms.

    A fold of ``app_key``'s composer from one key per variable or constant.
    """
    const_rank = _symbol_ranks(signature)[1]

    def leaf(t: Term):
        return (0, 1, ((2, t.index) if isinstance(t, Var) else (1, const_rank.get(t.name, len(const_rank))),))

    return _fold(term, leaf, lambda op, keys: app_key(op, signature)[1](keys))


def app_key(sym: str, signature: Signature, before=(), after=(), linear: bool = False):
    """A rule's ``(build, compose)`` from one description: ``sym`` applied
    to its arguments between the ground fillers ``before`` and ``after``,
    each a ``(term, key)`` pair; with ``linear``, each argument's variables
    shift past those of the arguments before it, keeping terms canonical.

    ``build(args)`` makes the term from the arguments' witnesses, and
    ``compose(keys, bound)`` its ``witness_key`` from their keys: depth
    ``1 + max``, size ``1 + sum``, and the spellings after the operation's
    own entry; or None when that depth and size sort above the key ``bound``.
    """
    op_rank = _symbol_ranks(signature)[0]
    head = ((0, op_rank.get(sym, len(op_rank))),)
    (terms_before, keys_before), (terms_after, keys_after) = [
        tuple(zip(*fillers)) or ((), ()) for fillers in (before, after)
    ]

    def build(args):
        args = terms_before + args + terms_after
        if linear and len(args) > 1:
            offsets = accumulate([len(term_variables(a)) for a in args[:-1]], initial=0)
            args = tuple([shift_variables(a, k) if k else a for a, k in zip(args, offsets)])
        return App(sym, args)

    if signature.arity(sym) == 2 and not before and not after:
        return build, _binary_compose(head, linear)

    def compose(keys, bound=None):
        keys = keys_before + tuple(keys) + keys_after if before or after else keys
        depth, size = 1 + max([k[0] for k in keys]), 1 + sum([k[1] for k in keys])
        if bound is not None and (depth, size) > bound:
            return None
        spelling, offset = head, 0
        for _, _, tail in keys:
            if offset:
                spelling += tuple([(2, i + offset) if tag == 2 else (tag, i) for tag, i in tail])
            else:
                spelling += tail
            if linear:
                offset += sum([tag == 2 for tag, _ in tail])
        return (depth, size, spelling)

    return build, compose


def _binary_compose(head: tuple, linear: bool):
    """``app_key``'s composer for a binary operation without fillers."""

    def compose(keys, bound=None):
        (d1, s1, t1), (d2, s2, t2) = keys
        depth, size = 1 + (d1 if d1 > d2 else d2), 1 + s1 + s2
        if bound is not None and (depth, size) > bound:
            return None
        if linear:
            offset = sum([tag == 2 for tag, _ in t1])
            if offset:
                t2 = tuple([(2, i + offset) if tag == 2 else (tag, i) for tag, i in t2])
        return (depth, size, head + t1 + t2)

    return compose

"""Finite algebras over a shared signature: parsing, validation, rendering.

Carriers are finite, explicitly enumerated lists of element names.  Element
declaration order fixes every downstream iteration order, so parsing is
deterministic and reports are byte-stable.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import chain, product
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .record import Frozen


VARIABLE_RE = re.compile(r"^z[0-9]+$")

# Words of the ``constants`` line; an element of either name would be
# ambiguous there (``constants none`` over ``elements none b``).
CONSTANTS_KEYWORDS = ("none", "all")


class AlgebraError(Exception):
    """Base class for algebra construction and validation failures."""


class NonUnaryError(AlgebraError):
    """An engine or automaton that needs an all-unary signature got another."""


class AlgebraParseError(AlgebraError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SignatureMismatchError(AlgebraError):
    """The two algebras of a pair do not share a signature."""


class Signature(Frozen):
    """Operation symbols with arities plus the distinguished constant symbols.

    Constant symbols name carrier elements directly; nullary operations are
    not supported (use constants instead).
    """

    __slots__ = ("operations", "constant_symbols")

    def __init__(
        self, operations: tuple[tuple[str, int], ...], constant_symbols: tuple[str, ...] = ()
    ):
        super().__init__(operations, constant_symbols)
        seen: set[str] = set()
        for sym, arity in operations:
            if arity < 1:
                raise AlgebraError(f"operation {sym!r} has arity {arity}; must be >= 1")
            if sym in seen:
                raise AlgebraError(f"duplicate operation symbol {sym!r}")
            if VARIABLE_RE.match(sym):
                raise AlgebraError(f"operation symbol {sym!r} clashes with variable names")
            seen.add(sym)
        constants: set[str] = set()
        for c in constant_symbols:
            if c in constants:
                raise AlgebraError(f"duplicate constant symbol {c!r}")
            if c in seen:
                raise AlgebraError(f"constant symbol {c!r} clashes with an operation symbol")
            if VARIABLE_RE.match(c):
                raise AlgebraError(f"constant symbol {c!r} clashes with variable names")
            constants.add(c)

    @property
    def op_symbols(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.operations)

    def arity(self, sym: str) -> int:
        for s, k in self.operations:
            if s == sym:
                return k
        raise AlgebraError(f"unknown operation symbol {sym!r}")

    def is_unary(self) -> bool:
        return all(k == 1 for _, k in self.operations)


class Algebra(Frozen):
    """A named finite algebra: carrier, signature (its constant symbols
    name carrier elements) and total operation tables."""

    __slots__ = ("name", "carrier", "signature", "tables", "_ids", "_indexed")

    def __init__(
        self,
        name: str,
        carrier: tuple[str, ...],
        signature: Signature,
        tables: Mapping[str, Mapping[tuple[str, ...], str]],
    ):
        super().__init__(name, carrier, signature, tables)
        if not carrier:
            raise AlgebraError(f"algebra {name!r} has an empty carrier")
        # Element name -> position in the carrier, for name checks and ids.
        elements = {e: i for i, e in enumerate(carrier)}
        if len(elements) != len(carrier):
            raise AlgebraError(f"algebra {name!r} has duplicate elements")
        for keyword in CONSTANTS_KEYWORDS:
            if keyword in elements:
                raise AlgebraError(
                    f"algebra {name!r}: element name {keyword!r} is reserved "
                    "(a 'constants' keyword)"
                )
        object.__setattr__(self, "_ids", elements)
        object.__setattr__(self, "_indexed", {})
        for sym, arity in signature.operations:
            table = tables.get(sym)
            if table is None:
                raise AlgebraError(f"algebra {name!r}: missing table for {sym!r}")
            # n ** arity distinct keys, each a tuple of arity carrier
            # elements, are all the rows: checked in bulk, and row by row
            # only to word the error.
            if (
                len(table) == len(carrier) ** arity
                and set(map(type, table)) == {tuple}
                and set(map(len, table)) == {arity}
                and elements.keys() >= set(chain.from_iterable(table))
                and elements.keys() >= set(table.values())
            ):
                continue
            for tup in product(carrier, repeat=arity):
                if tup not in table:
                    raise AlgebraError(
                        f"algebra {name!r}: missing table row for {sym}({', '.join(tup)})"
                    )
            for tup, out in table.items():
                if len(tup) != arity:
                    raise AlgebraError(f"algebra {name!r}: {sym!r} row {tup} has wrong arity")
                if any(x not in elements for x in tup):
                    raise AlgebraError(
                        f"algebra {name!r}: {sym!r} row {tup} uses unknown elements"
                    )
                if out not in elements:
                    raise AlgebraError(
                        f"algebra {name!r}: {sym}({', '.join(tup)}) -> {out!r} "
                        "is outside the carrier"
                    )
        for c in signature.constant_symbols:
            if c not in elements:
                raise AlgebraError(f"algebra {name!r}: constant {c!r} not in carrier")

    def apply(self, sym: str, args: Iterable[str]) -> str:
        return self.tables[sym][tuple(args)]

    def index(self, element: str) -> int:
        try:
            return self._ids[element]
        except KeyError:
            raise AlgebraError(f"element {element!r} not in carrier of {self.name!r}") from None

    def indexed(self, sym: str) -> dict:
        """``sym``'s table over carrier indices, in ``product`` order."""
        if sym not in self._indexed:  # built on first use
            arity, ids = self.signature.arity(sym), self._ids.__getitem__
            images = map(ids, map(self.tables[sym].__getitem__, product(self.carrier, repeat=arity)))
            self._indexed[sym] = dict(zip(product(range(len(self.carrier)), repeat=arity), images))
        return self._indexed[sym]

    def require_element(self, element: str) -> str:
        self.index(element)
        return element


class AlgebraPair(Frozen):
    """A validated pair of algebras over one shared signature."""

    __slots__ = ("left", "right")

    @property
    def overlap(self) -> tuple[str, ...]:
        """Shared element names, in left-carrier declaration order.

        Cross-algebra element identity is name equality; the overlap drives
        the competitor exclusion in maximality checks.
        """
        right_names = set(self.right.carrier)
        return tuple(e for e in self.left.carrier if e in right_names)

    def swapped(self) -> "AlgebraPair":
        return AlgebraPair(self.right, self.left)


def make_algebra(
    name: str,
    carrier: Iterable[str],
    operations: Mapping[str, Mapping[tuple[str, ...], str]] | None = None,
    constants: Iterable[str] | str = (),
    arities: Mapping[str, int] | None = None,
) -> Algebra:
    """Convenience constructor used by tests and generated fixtures.

    Arities default to the key length of the first table row of each
    operation; tables may use bare strings as unary keys.  A ``constants``
    string is read as on the ``.alg`` constants line.
    """
    carrier = tuple(carrier)
    operations = operations or {}
    arities = arities or {}
    for sym in arities:
        if sym not in operations:
            raise AlgebraError(f"operation {sym!r} has an arity but no table")
    norm_tables: dict[str, dict[tuple[str, ...], str]] = {}
    sig_ops: list[tuple[str, int]] = []
    for sym, table in operations.items():
        rows: dict[tuple[str, ...], str] = {}
        for key, out in table.items():
            tup = (key,) if isinstance(key, str) else tuple(key)
            rows[tup] = out
        if sym not in arities and not rows:
            raise AlgebraError(f"operation {sym!r} has an empty table and no arity")
        arity = arities[sym] if sym in arities else len(next(iter(rows)))
        sig_ops.append((sym, arity))
        norm_tables[sym] = rows
    if isinstance(constants, str):
        constants = {"all": carrier, "none": ()}.get(constants.strip(), constants.split())
    sig = Signature(tuple(sig_ops), tuple(constants))
    return Algebra(name, carrier, sig, norm_tables)


def _cut(text: str) -> list[str]:
    """Each line of ``text``, its ``#`` comment cut and its ends stripped."""
    return [raw.partition("#")[0].strip() for raw in text.splitlines()]


def scan_lines(text: str) -> Iterator[tuple[int, str]]:
    """The (line number, text) of each non-blank ``_cut`` line."""
    return filter(itemgetter(1), enumerate(_cut(text), 1))


_ROW_RE = re.compile(r"^\(?\s*(?P<args>[^()]*?)\s*\)?\s*->\s*(?P<out>\S+)$")
# What no name in ``.alg`` or ``.map`` text may hold; an operation symbol
# may not hold ``/`` either.
_NAME_BREAKS = re.compile(r"[\s#,()]")


@cache
def _row_pattern(arity: int) -> re.Pattern:
    """A row as ``render_algebra`` writes it, a group per name: names hold
    no space, so it never backtracks, and reads rows as ``_ROW_RE``."""
    args = ", ".join([r"([^\s(),]+)"] * arity)
    return re.compile((args if arity == 1 else rf"\({args}\)") + r" -> (\S+)")


def _check_names(names: Iterable[str], line: int | None = None, symbol: bool = False) -> None:
    """The one name rule of ``.alg`` text, for reading and for writing."""
    for name in names:
        if not name or _NAME_BREAKS.search(name) or symbol and "/" in name:
            raise AlgebraParseError(f"cannot write the name {name!r} in the .alg format", line)


def _op_table(sym: str, arity: int, block: list, first: int, elements: set) -> dict:
    """The table of an op block's lines, from line ``first``: read in bulk,
    or by ``_ROW_RE`` row by row, to word an error or read odd rows."""
    rows = list(filter(None, block))
    # The bulk pattern has a group per argument: built only for a first row
    # of ``arity`` arguments, it is never larger than the text.
    if rows and rows[0].count(",") == arity - 1:
        matches = list(map(_row_pattern(arity).fullmatch, rows))
        if None not in matches:
            rows = list(map(re.Match.groups, matches))
            table = dict(zip(map(itemgetter(slice(-1)), rows), map(itemgetter(-1), rows)))
            if len(table) == len(rows) and elements.issuperset(chain.from_iterable(rows)):
                return table
    table = {}
    for lineno, line in filter(itemgetter(1), enumerate(block, first)):
        m = _ROW_RE.match(line)
        if not m:
            raise AlgebraParseError(f"malformed table row {line!r}", lineno)
        args = tuple(map(str.strip, m["args"].split(","))) if m["args"] else ()
        call = f"{sym}({', '.join(args)})"
        if len(args) != arity:
            raise AlgebraParseError(f"{sym!r} expects {arity} argument(s), row has {len(args)}", lineno)
        for a in args:
            if a not in elements:
                raise AlgebraParseError(f"unknown element {a!r} in row", lineno)
        if m["out"] not in elements:
            raise AlgebraParseError(f"out-of-carrier output {m['out']!r} for {call}", lineno)
        if args in table:
            raise AlgebraParseError(f"duplicate table row for {call}", lineno)
        table[args] = m["out"]
    return table


def parse_algebra(text: str) -> Algebra:
    """Parse the line-oriented ``.alg`` format into a validated Algebra."""
    name: str | None = None
    carrier: tuple[str, ...] = ()
    elements: set[str] = set()
    # (line number, names), resolved after the loop against the final
    # carrier, so the header lines may come in any order.
    constants_line: tuple[int, list[str]] | None = None
    sig_ops: list[tuple[str, int]] = []
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    lines = _cut(text)
    lineno = 0
    while lineno < len(lines):
        line = lines[lineno]
        lineno += 1
        if not line:
            continue
        parts = line.split()
        head = parts[0]
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
            try:  # the arity and the symbol, checked as Signature does
                Signature(((sym, arity),))
            except AlgebraError as exc:
                raise AlgebraParseError(str(exc), lineno) from None
            if sym in tables:
                raise AlgebraParseError(f"duplicate operation {sym!r}", lineno)
            if not carrier:
                raise AlgebraParseError("'op' before 'elements'", lineno)
            sig_ops.append((sym, arity))
            # Rows run to the first line "end"; a row may start with element end.
            try:
                end = lines.index("end", lineno)
            except ValueError:  # a bad row's error comes first
                _op_table(sym, arity, lines[lineno:], lineno + 1, elements)
                raise AlgebraParseError(f"op block {sym!r} not closed with 'end'", lineno) from None
            table = tables[sym] = _op_table(sym, arity, lines[lineno:end], lineno + 1, elements)
            lineno = end + 1
            # n ** arity distinct rows are all of them; a scan words the error.
            if len(table) != len(carrier) ** arity:
                missing = next(t for t in product(carrier, repeat=arity) if t not in table)
                raise AlgebraParseError(
                    f"missing table row for {sym}({', '.join(missing)})", lineno
                )
        elif head == "end":
            raise AlgebraParseError("'end' without an open op block", lineno)
        else:
            raise AlgebraParseError(f"unknown directive {head!r}", lineno)

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
    try:  # each op line passed, so a clash is a constant's
        sig = Signature(tuple(sig_ops), tuple(constants))
    except AlgebraError as exc:
        raise AlgebraParseError(str(exc), lineno) from None
    return Algebra(name, carrier, sig, tables)


def render_algebra(algebra: Algebra) -> str:
    """Render back to ``.alg`` text; parse(render(a)) equals a.  Raises
    ``AlgebraError`` for a name that the text cannot hold."""
    _check_names((algebra.name, *algebra.carrier))
    _check_names(algebra.signature.op_symbols, symbol=True)
    out = [f"algebra {algebra.name}", "elements " + " ".join(algebra.carrier)]
    const_syms = algebra.signature.constant_symbols
    if not const_syms:
        out.append("constants none")
    elif const_syms == algebra.carrier:
        out.append("constants all")
    else:
        out.append("constants " + " ".join(const_syms))
    for sym, arity in algebra.signature.operations:
        out.append(f"op {sym}/{arity}")
        for tup in product(algebra.carrier, repeat=arity):
            res = algebra.tables[sym][tup]
            if arity == 1:
                out.append(f"  {tup[0]} -> {res}")
            else:
                out.append(f"  ({', '.join(tup)}) -> {res}")
        out.append("end")
    return "\n".join(out) + "\n"


def validate_pair(left: Algebra, right: Algebra) -> AlgebraPair:
    """Check the two algebras share a signature and return the pair."""
    if left.signature.operations != right.signature.operations:
        left_ops = dict(left.signature.operations)
        right_ops = dict(right.signature.operations)
        for sym in sorted(set(left_ops) | set(right_ops)):
            if sym not in left_ops or sym not in right_ops:
                raise SignatureMismatchError(
                    f"operation {sym!r} present in only one algebra"
                )
            if left_ops[sym] != right_ops[sym]:
                raise SignatureMismatchError(
                    f"operation {sym!r} has arity {left_ops[sym]} vs {right_ops[sym]}"
                )
        raise SignatureMismatchError("operation declaration order differs")
    # Declaration order may differ: a pair ranks the constants in its left
    # algebra's order in both directions, as one closure serves both.
    if set(left.signature.constant_symbols) != set(right.signature.constant_symbols):
        raise SignatureMismatchError(
            f"constant symbols differ: {left.signature.constant_symbols} "
            f"vs {right.signature.constant_symbols}"
        )
    # Constant symbols denote themselves: each algebra holds its own, so
    # equal sets put each constant in both carriers.
    return AlgebraPair(left, right)


def self_pair(algebra: Algebra) -> AlgebraPair:
    """Single-algebra mode: the pair of an algebra with itself."""
    return AlgebraPair(algebra, algebra)

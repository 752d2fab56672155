"""The least-witness closure shared by the linear, monolinear and general
engines: the least family of profiles closed under lifted operations, each
with the first witness term that reaches it in witness order.  A profile
pairs what a term denotes in the left and in the right algebra (a range, a
function or a value).  The loop is semi-naive (Bancilhon & Ramakrishnan,
1986): an accepted item lifts only the combinations that use it, each once.
It is Knuth's (1977) generalization of Dijkstra's algorithm: a term's key
exceeds its arguments' keys, so a profile's first pop is final, and each
profile holds one pending key, the least pushed for it, which a candidate
must beat to be pushed.  A candidate's depth and size are compared with
that key first, as a tuple: a shorter tuple sorts first, so this reads the
key's depth and size, an accepted profile's mark ``()`` sorts below every
candidate, and an open profile's ``(inf,)`` above.  Keys are composed from
the arguments' keys, and witnesses built only when accepted.  Components
are interned as ints, and a lift is memoized per side on its argument ids
(a self pair's one lift for both sides is not).  A binary rule lifts the
combinations of the newest of n items in two passes of one batch per side:
the newest as first argument with all n items, read from its memo row by
first argument, then as second argument with the n - 1 older items, read
from its memo row by second argument.  A row's misses are lifted in bulk,
and each lift is written into both memos, so no ordered pair is lifted
twice.  Each pass drops in bulk the combinations whose depth and size
cannot beat their profile's pending key, then pushes the rest in order.  A
commutative operation lifts (a, b) and (b, a) to one profile, so its second
pass reads no memo: it offers the first pass's survivors again with their
arguments swapped.  Higher arities loop over ``product``.
"""
from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from itertools import compress, count, product, repeat
from math import inf
from operator import add, le
from typing import NamedTuple

from .algebra import AlgebraError, AlgebraPair
from .terms import Term, app_key


class Profile(NamedTuple):
    """What one term denotes in the left and in the right algebra, with
    the minimal witness term that denotes it."""

    left: object
    right: object
    witness: Term


# The default cap on the number of profiles a closure accepts.
DEFAULT_CAP = 200_000


class SaturationCapError(AlgebraError):
    def __init__(self, cap: int, message: str | None = None):
        self.cap = cap
        super().__init__(message or (
            f"profile saturation exceeded the cap of {cap} profiles; raise --cap"
        ))


# A profile's pending key before any offer sorts above every key, and its
# accepted mark below every key and every (depth, size) pair.
_OPEN = (inf,)
_ACCEPTED = ()


def operation_rules(pair: AlgebraPair, make, linear: bool = False) -> list:
    """One closure rule per operation of ``pair``: the lifts ``make(algebra,
    sym, arity)`` of both sides, or one lift for both on a self pair, so the
    closure lifts one side only; then ``terms.app_key``'s build and
    compose, and whether the operation is binary and commutative on both
    sides."""
    sig = pair.left.signature
    algebras = [pair.left] if pair.right is pair.left else [pair.left, pair.right]
    rules = []
    for sym, arity in sig.operations:
        lifts = [make(algebra, sym, arity) for algebra in algebras]
        commutative = arity == 2 and all(
            table[y, x] == z for table in [a.tables[sym] for a in algebras] for (x, y), z in table.items()
        )
        rules.append((arity, lifts[0], lifts[-1], *app_key(sym, sig, linear=linear), commutative))
    return rules


def least_witness_closure(seeds, rules, key, cap: int | None = None, keys=None, stop=None) -> list[Profile]:
    """The least family of profiles containing ``seeds`` and closed under
    ``rules``, in acceptance order.

    A rule ``(arity, lift_left, lift_right, build, compose, commutative)``
    maps the left components of ``arity`` profiles to a left component
    (``lift_left``), their right ones likewise, their witnesses to a
    witness (``build``), and their keys to a key, or to None when its depth
    and size sort above ``bound`` (``compose(keys, bound)``);
    ``terms.app_key`` spells both from one description, and ``key``, the
    seeds' key, folds the same composer.  Candidates are popped in key
    order, so each profile's first witness is its minimal one.  The two
    lifts may be one object only when every seed's sides are equal (a self
    pair).  A binary rule is ``commutative`` when both its lifts ignore the
    order of their arguments (``operation_rules`` tells); a binary lift
    with a ``row`` attribute gives ``row(a, bs)`` as the list of
    ``lift((a, b))``.

    Each accepted item lifts the combinations that use it.  A binary rule
    lifts them in two passes, the newest item as first argument with every
    item, then as second with every older one; each other arity lifts one
    combination at a time.  Each accepted key is appended to ``keys`` when
    it is a list.  Raises ``SaturationCapError`` when more than ``cap``
    profiles are accepted.  Returns early when ``stop``, called on each
    accepted profile's two sides, is true.
    """
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

    def lifted_row(lift, memos, column, present: set, second: bool) -> list:
        """The ids of the newest id in ``column`` lifted with each id of
        ``column`` as second argument, or with ``second``, with each older
        one as first.  ``memos`` holds the lifts by first argument
        (``memos[0][a][b]`` is the id of ``lift((a, b))``) and by second,
        one dict for a commutative lift.  The ids in ``column``
        (``present``) that miss the newest id's memo row are lifted and
        interned in one batch, and each lift is also written into the other
        memo, so no ordered tuple is lifted twice."""
        newest = column[-1]
        memo, other = memos[::-1] if second else memos
        row = memo.setdefault(newest, {})
        if len(row) < len(present):
            missing = list(present - row.keys())
            others = list(map(values.__getitem__, missing))
            # A lift may read its first argument once for a whole row.
            lift_row = None if second else getattr(lift, "row", None)
            if lift_row is not None:
                lifts = lift_row(values[newest], others)
            elif second:
                lifts = list(map(lift, zip(others, repeat(values[newest]))))
            else:
                lifts = list(map(lift, zip(repeat(values[newest]), others)))
            new = [value for value in dict.fromkeys(lifts) if value not in ids]
            ids.update(zip(new, count(len(values))))
            values.extend(new)
            lifted_ids = list(map(ids.__getitem__, lifts))
            row.update(zip(missing, lifted_ids))
            for b, i in zip(missing, lifted_ids):
                other.setdefault(b, {})[newest] = i
        return list(map(row.__getitem__, column[:-1] if second else column))

    heap: list = []
    tick = count()
    # left id -> right id -> the least key pushed for the profile, or
    # _ACCEPTED once popped.
    pending: defaultdict = defaultdict(dict)

    def offer(left, right, depth_size, arg_keys, build, compose, args) -> None:
        """Push a candidate whose key beats its pending one."""
        held = pending[left]
        best = held.get(right, _OPEN)
        if depth_size <= best:
            k = compose(arg_keys, best)
            if k is not None and k < best:
                held[right] = k
                heappush(heap, (k, next(tick), (left, right), build, args))

    rows: list = []  # per accepted item: left id, right id, key, witness
    sizes: list = []  # per accepted item: its key's size
    columns: tuple = ([], [])  # the rows' left ids and right ids
    distinct: tuple = (set(), set())  # the ids in each column
    items: list[Profile] = []
    for left, right, witness in seeds:
        left, right, k = intern(left), intern(right), key(witness)
        if k < pending[left].get(right, _OPEN):
            pending[left][right] = k
            heappush(heap, (k, next(tick), (left, right), None, witness))
    # One lift for both sides is a self pair's: its items' ids are equal on
    # both sides, so no two combinations share an id tuple to memoize.  A
    # binary rule memoizes each side as rows by first and by second
    # argument, one dict when the rule is commutative.
    memos = [
        (None, None) if r[1] is r[2] else ({}, {}) if r[0] != 2
        else tuple((m, m) if r[5] else (m, {}) for m in ({}, {}))
        for r in rules
    ]
    while heap:
        k, _, profile, build, args = heappop(heap)
        held = pending[profile[0]]
        if held[profile[1]] == _ACCEPTED:
            continue
        held[profile[1]] = _ACCEPTED
        witness = args if build is None else build(args)
        items.append(Profile(values[profile[0]], values[profile[1]], witness))
        if keys is not None:
            keys.append(k)
        if cap is not None and len(items) > cap:
            raise SaturationCapError(cap)
        if stop is not None and stop(values[profile[0]], values[profile[1]]):
            return items
        rows.append((*profile, k, witness))
        sizes.append(k[1])
        columns[0].append(profile[0])
        columns[1].append(profile[1])
        distinct[0].add(profile[0])
        distinct[1].add(profile[1])
        for (arity, lift_left, lift_right, build, compose, commutative), (memo_left, memo_right) in zip(
            rules, memos
        ):
            if arity == 1:
                # The newest item is the one combination.
                if memo_right is None:
                    left = right = intern(lift_left((values[profile[0]],)))
                else:
                    left = lifted(lift_left, profile[:1], memo_left)
                    right = lifted(lift_right, profile[1:], memo_right)
                offer(left, right, (k[0] + 1, k[1] + 1), (k,), build, compose, (witness,))
            elif arity == 2:
                # Rows come in key order, so none is deeper than the newest:
                # the newest with row i has depth k[0] + 1 and size
                # k[1] + 1 + sizes[i].
                depth, size = k[0] + 1, k[1] + 1
                older = len(rows) - 1
                for second in (False, True):
                    if commutative and second:
                        # (b, a) lifts to the profile of (a, b): offer the
                        # first pass's survivors again, bar the newest twice.
                        if fresh and fresh[-1] == older:
                            fresh.pop()
                    else:
                        if memo_right is None:
                            column = list(map(values.__getitem__, columns[0]))
                            value = column[-1]
                            pairs = zip(column[:older], repeat(value)) if second else zip(repeat(value), column)
                            lefts = rights = list(map(intern, map(lift_left, pairs)))
                        else:
                            lefts = lifted_row(lift_left, memo_left, columns[0], distinct[0], second)
                            rights = lifted_row(lift_right, memo_right, columns[1], distinct[1], second)
                        # Keep the combinations whose depth and size do not
                        # exceed their profile's pending key.
                        needs = zip(repeat(depth), map(add, sizes, repeat(size)))
                        bests = map(dict.get, map(pending.__getitem__, lefts), rights, repeat(_OPEN))
                        fresh = list(compress(count(), map(le, needs, bests)))
                    for i in fresh:
                        _, _, kb, wb = rows[i]
                        held = pending[lefts[i]]
                        # A pass may offer a profile twice: compose checks the
                        # depth and size against the key pending now.
                        best = held.get(rights[i], _OPEN)
                        composed = compose((kb, k) if second else (k, kb), best)
                        if composed is not None and composed < best:
                            held[rights[i]] = composed
                            args = (wb, witness) if second else (witness, wb)
                            heappush(heap, (composed, next(tick), (lefts[i], rights[i]), build, args))
            else:
                for combo in _combinations(rows, arity):
                    left_ids, right_ids, arg_keys, args = zip(*combo)
                    left = lifted(lift_left, left_ids, memo_left)
                    right = left if memo_right is None else lifted(lift_right, right_ids, memo_right)
                    depth_size = 1 + max([a[0] for a in arg_keys]), 1 + sum([a[1] for a in arg_keys])
                    offer(left, right, depth_size, arg_keys, build, compose, args)
    return items


def _combinations(rows, arity: int):
    """Each ``arity``-tuple of accepted rows that uses the newest, once: the
    newest at position j, older rows before it, any rows after."""
    for j in range(arity):
        yield from product(*[rows[:-1]] * j, rows[-1:], *[rows] * (arity - 1 - j))

"""The least-witness closure shared by the linear, monolinear and general
engines.  Each engine explores a least family of profiles closed under lifted
operations, and keeps for each profile the first witness term that reaches
it in witness order.  A profile is a pair: what a term denotes in the left
algebra and in the right one (a range, a function or a value).  The loop is
semi-naive (Bancilhon & Ramakrishnan, 1986): when an item is accepted, only
the combinations that use it are lifted, each exactly once.  It is Knuth's
(1977) generalization of Dijkstra's algorithm: a term's key exceeds its
arguments' keys, so the first pop of a profile is final, and only
candidates that beat their profile's pending key are pushed.  A key is
composed from the stored keys of the arguments, and a witness is built
only when accepted.  Components are interned as ints, and a lift is
memoized per side on the tuple of argument ids; a self pair's rules pass
one lift for both sides, which is applied once and not memoized.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count, product
from typing import NamedTuple

from .algebra import AlgebraError, AlgebraPair
from .terms import Term


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
            f"profile saturation exceeded the cap of {cap} profiles; "
            "raise the cap, or lower K for the general engine"
        ))


_ACCEPTED = object()  # the pending mark of an accepted profile


def side_lifts(pair: AlgebraPair, make) -> tuple:
    """``make(algebra)`` for both sides of ``pair``; a self pair gets one
    lift for both, so the closure lifts one side only."""
    left = make(pair.left)
    return left, left if pair.right is pair.left else make(pair.right)


def least_witness_closure(seeds, rules, key, cap: int | None = None, keys=None) -> list[Profile]:
    """The least family of profiles containing ``seeds`` and closed under
    ``rules``, in acceptance order.

    A rule is ``(arity, lift_left, lift_right, build, compose)``: for a
    tuple of ``arity`` profiles, ``lift_left`` maps their left components
    to the left component of the result, ``lift_right`` likewise, ``build``
    maps their witnesses to its witness, and ``compose(keys, bound)`` their
    keys to its key, or to None when that cannot be below ``bound``
    (``terms.app_key``).  Seeds are keyed by ``key``, which ``compose``
    must agree with.  Candidates are popped in key order, so the first
    witness of each profile is its minimal one.  Equal keys must mean
    identical terms, so that ties never decide a witness.  A rule's two
    lifts may be one object only when every seed's sides are equal (a self
    pair).  When ``keys`` is a list, the key of each accepted item is
    appended to it.  Raises ``SaturationCapError`` when more than ``cap``
    profiles are accepted.
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
        for (arity, lift_left, lift_right, build, compose), memo in zip(rules, memos):
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

"""The least-witness closure shared by the linear, monolinear and general
engines: the least family of profiles closed under lifted operations, each
with the first witness term that reaches it in witness order.  A profile
pairs what a term denotes in the left and in the right algebra (a range, a
function or a value).  The loop is semi-naive (Bancilhon & Ramakrishnan,
1986): an accepted item lifts only the combinations that use it, each once.
It is Knuth's (1977) generalization of Dijkstra's algorithm: a term's key
exceeds its arguments' keys, so a profile's first pop is final, and a
candidate is pushed only when it beats its pending key, which its depth and
size are checked against first.  Keys are composed from the arguments'
keys, and witnesses built only when accepted.  Components are interned as
ints, and a lift is memoized per side on its argument ids (a self pair's
one lift for both sides is not).  A binary rule lifts the 2n - 1
combinations of the newest of n items as one batch per side: the newest
id's memo row, by first argument and then by second, read by ``map``, its
misses lifted in bulk, and each lift written into both rows so no ordered
pair is lifted twice.  A commutative operation's combinations (a, b) and
(b, a) lift to one profile, so its rule reads one row of n.  Combinations
whose depth and size cannot beat their profile's pending key (accepted
profiles included) are dropped in one pass.  Higher arities loop over
``product``.
"""
from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from itertools import chain, compress, count, product, repeat
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
            f"profile saturation exceeded the cap of {cap} profiles; "
            "raise the cap, or lower K for the general engine"
        ))


_ACCEPTED = object()  # the pending mark of an accepted profile
# A pending key's depth and size as one int, depth * _SCALE + size, so a
# batch compares them in bulk; no profile is pending at _OPEN.
_SCALE = 1 << 32
_OPEN = 1 << 96


class Commutative:
    """A binary lift whose value does not depend on the order of its two
    arguments; a rule whose two lifts are both marked lifts each unordered
    combination once."""

    __slots__ = ("lift",)

    def __init__(self, lift):
        self.lift = lift

    def __call__(self, args):
        return self.lift(args)


def operation_rules(pair: AlgebraPair, make, linear: bool = False) -> list:
    """One closure rule per operation of ``pair``: the lifts ``make(algebra,
    sym)`` of both sides, or one lift for both on a self pair, so the
    closure lifts one side only; then ``terms.app_key``'s build and
    compose.  A binary operation commutative on both sides gets
    ``Commutative`` lifts."""
    sig = pair.left.signature
    algebras = [pair.left] if pair.right is pair.left else [pair.left, pair.right]
    rules = []
    for sym, arity in sig.operations:
        lifts = [make(algebra, sym) for algebra in algebras]
        if arity == 2 and all(
            table[y, x] == z for table in [a.tables[sym] for a in algebras] for (x, y), z in table.items()
        ):
            lifts = list(map(Commutative, lifts))
        rules.append((arity, lifts[0], lifts[-1], *app_key(sym, sig, linear=linear)))
    return rules


def least_witness_closure(seeds, rules, key, cap: int | None = None, keys=None, stop=None) -> list[Profile]:
    """The least family of profiles containing ``seeds`` and closed under
    ``rules``, in acceptance order.

    A rule ``(arity, lift_left, lift_right, build, compose)`` maps the left
    components of ``arity`` profiles to a left component (``lift_left``),
    their right ones likewise, their witnesses to a witness (``build``),
    and their keys to a key, or to None when that cannot be below
    ``bound`` (``compose(keys, bound)``); ``terms.app_key`` spells both
    from one description, and ``key``, the seeds' key, folds the same
    composer.  Candidates are popped in key order, so each profile's first
    witness is its minimal one.  The two lifts may be one object only when
    every seed's sides are equal (a self pair).  Both lifts of a binary rule
    may be ``Commutative`` (``operation_rules`` marks them); a binary lift
    with a ``row`` attribute gives ``row(a, bs)`` as the list of
    ``lift((a, b))``.

    Each accepted item lifts the combinations that use it.  A memoized
    binary rule lifts them per side as one batch, the newest item's
    argument first and, unless the rule is commutative, then second; each
    other arity lifts one combination at a time.  Each accepted key is
    appended to ``keys`` when it is a list.  Raises ``SaturationCapError``
    when more than ``cap`` profiles are accepted.  Returns early when
    ``stop``, called on each accepted profile's two sides, is true.
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

    def lifted_row(lift, memo, other, column, present: set, second=False) -> list:
        """The ids of the newest id in ``column`` lifted with each id as
        first argument (``memo[a][b]`` holds ``lift((a, b))``), or with
        ``second``, of each older id lifted with the newest over the
        transposed memo.  The ids in ``column`` (``present``) that miss the
        newest id's memo row are lifted and interned in one batch, and each
        lift is also written into the other memo (the same dict for a
        commutative lift), so a row's keys are ids of ``column`` and no
        ordered tuple is lifted twice."""
        newest = column[-1]
        row = memo.setdefault(newest, {})
        if len(row) < len(present):
            missing = list(present - row.keys())
            others = list(map(values.__getitem__, missing))
            # A lift may read its first argument once for a whole row.
            lift_row = None if second else getattr(lift, "row", None)
            if lift_row is not None:
                lifted = lift_row(values[newest], others)
            elif second:
                lifted = list(map(lift, zip(others, repeat(values[newest]))))
            else:
                lifted = list(map(lift, zip(repeat(values[newest]), others)))
            new = [value for value in dict.fromkeys(lifted) if value not in ids]
            ids.update(zip(new, count(len(values))))
            values.extend(new)
            lifted_ids = list(map(ids.__getitem__, lifted))
            row.update(zip(missing, lifted_ids))
            for b, i in zip(missing, lifted_ids):
                other.setdefault(b, {})[newest] = i
        return list(map(row.__getitem__, column[:-1] if second else column))

    heap: list = []
    tick = count()
    pending: dict = {}  # profile ids -> least key pushed, or _ACCEPTED
    # left id -> right id -> the depth and size of the profile's pending
    # key, or -1 once accepted; never below pending's, so a bulk test on it
    # drops only combinations that cannot beat the pending key.
    bounds: defaultdict = defaultdict(dict)

    def offer(candidate, depth_size, arg_keys, build, compose, args) -> None:
        """Push a candidate whose key beats its pending one."""
        best = pending.get(candidate)
        if best is None or best is not _ACCEPTED and depth_size <= best[:2]:
            k = compose(arg_keys, best)
            if k is not None and (best is None or k < best):
                pending[candidate] = k
                bounds[candidate[0]][candidate[1]] = k[0] * _SCALE + k[1]
                heappush(heap, (k, next(tick), candidate, build, args))

    rows: list = []  # per accepted item: left id, right id, key, witness
    sizes: list = []  # per accepted item: its key's size
    columns: tuple = ([], [])  # the rows' left ids and right ids
    distinct: tuple = (set(), set())  # the ids in each column
    items: list[Profile] = []
    for left, right, witness in seeds:
        profile, k = (intern(left), intern(right)), key(witness)
        if profile not in pending or k < pending[profile]:
            pending[profile] = k
            heappush(heap, (k, next(tick), profile, None, witness))
    # A rule whose two lifts are both commutative lifts each unordered
    # combination once, through the bare lifts.
    symmetric = [isinstance(r[1], Commutative) and isinstance(r[2], Commutative) for r in rules]
    rules = [(r[0], r[1].lift, r[2].lift, *r[3:]) if sym else r for r, sym in zip(rules, symmetric)]
    # One lift for both sides is a self pair's: its items' ids are equal on
    # both sides, so no two combinations share an id tuple to memoize.  A
    # binary rule memoizes each side as rows by first and by second
    # argument, one dict when the lift is commutative.
    memos = [
        (None, None) if r[1] is r[2] else ({}, {}) if r[0] != 2
        else tuple((m, m) if sym else (m, {}) for m in ({}, {}))
        for r, sym in zip(rules, symmetric)
    ]
    while heap:
        k, _, profile, build, args = heappop(heap)
        if pending[profile] is _ACCEPTED:
            continue
        pending[profile] = _ACCEPTED
        bounds[profile[0]][profile[1]] = -1
        witness = args if build is None else build(args)
        items.append(Profile(values[profile[0]], values[profile[1]], witness))
        if keys is not None:
            keys.append(k)
        if cap is not None and len(items) > cap:
            raise SaturationCapError(cap)
        if stop is not None and stop(values[profile[0]], values[profile[1]]):
            return items
        newest = (*profile, k, witness)
        rows.append(newest)
        sizes.append(k[1])
        columns[0].append(profile[0])
        distinct[0].add(profile[0])
        distinct[1].add(profile[1])
        columns[1].append(profile[1])
        for (arity, lift_left, lift_right, build, compose), (memo_left, memo_right), symmetric_rule in zip(
            rules, memos, symmetric
        ):
            if arity == 1:
                # The newest item is the one combination.
                if memo_right is None:
                    left = right = intern(lift_left((values[profile[0]],)))
                else:
                    left = lifted(lift_left, profile[:1], memo_left)
                    right = lifted(lift_right, profile[1:], memo_right)
                offer((left, right), (k[0] + 1, k[1] + 1), (k,), build, compose, (witness,))
            elif arity == 2:
                # Combination i < n pairs the newest row with row i, the
                # rest pair each older row with the newest.
                older = len(rows) - 1
                if memo_right is None:
                    column = list(map(values.__getitem__, columns[0]))
                    value = column[-1]
                    pairs = zip(repeat(value), column)
                    if not symmetric_rule:
                        pairs = chain(pairs, zip(column[:older], repeat(value)))
                    lefts = rights = list(map(intern, map(lift_left, pairs)))
                else:
                    lefts = lifted_row(lift_left, *memo_left, columns[0], distinct[0])
                    rights = lifted_row(lift_right, *memo_right, columns[1], distinct[1])
                    if not symmetric_rule:
                        lefts += lifted_row(lift_left, *memo_left[::-1], columns[0], distinct[0], True)
                        rights += lifted_row(lift_right, *memo_right[::-1], columns[1], distinct[1], True)
                # Rows come in key order: none is deeper than the newest.
                depth, size = k[0] + 1, k[1] + 1
                # Combination i can win only where its depth and size do
                # not exceed the bound of its profile.
                row_sizes = sizes if symmetric_rule else sizes + sizes[:older]
                needs = map(add, row_sizes, repeat(depth * _SCALE + size))
                held = map(dict.get, map(bounds.__getitem__, lefts), rights, repeat(_OPEN))
                fresh = list(compress(count(), map(le, needs, held)))
                if symmetric_rule:
                    # Combination n + i lifts to combination i's profile.
                    fresh += [i + older + 1 for i in fresh if i < older]
                for i in fresh:
                    j = i if i <= older else i - older - 1  # the row paired with the newest
                    _, _, kb, wb = rows[j]
                    c = j if symmetric_rule else i
                    candidate = (lefts[c], rights[c])
                    # A batch may offer a profile twice: compose checks the
                    # depth and size against the key pending now.
                    best = pending.get(candidate)
                    composed = compose((k, kb) if i <= older else (kb, k), best)
                    if composed is not None and (best is None or composed < best):
                        pending[candidate] = composed
                        bounds[candidate[0]][candidate[1]] = composed[0] * _SCALE + composed[1]
                        args = (witness, wb) if i <= older else (wb, witness)
                        heappush(heap, (composed, next(tick), candidate, build, args))
            else:
                for combo in _combinations(rows, arity):
                    left_ids, right_ids, arg_keys, args = zip(*combo)
                    left = lifted(lift_left, left_ids, memo_left)
                    right = left if memo_right is None else lifted(lift_right, right_ids, memo_right)
                    depth_size = 1 + max([a[0] for a in arg_keys]), 1 + sum([a[1] for a in arg_keys])
                    offer((left, right), depth_size, arg_keys, build, compose, args)
    return items


def _combinations(rows, arity: int):
    """Each ``arity``-tuple of accepted rows that uses the newest, once: the
    newest at position j, older rows before it, any rows after."""
    for j in range(arity):
        yield from product(*[rows[:-1]] * j, rows[-1:], *[rows] * (arity - 1 - j))

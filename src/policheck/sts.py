"""Structural subsumption for elementary pairs, and its symbolic form over
interval splits.

An elementary pair has both sides simple, the pair interval safe, and the
left-hand side normalized.  Under those preconditions the check is a single
syntax-directed recursion over the right-hand side, with one oracle query
per concept-name target:

    bot on the left            -> true
    name D                     -> oracle: top-level names of C subsumed by D
    interval D on property f   -> some top-level f-atom of C contained in D
    existential D over role R  -> some top-level R-atom of C whose filler
                                  passes recursively
    conjunction D              -> every conjunct passes
    otherwise                  -> false

The same recursion also runs on an unsplit left-hand side together with its
piece table (`normalize.split_plan`: the pieces each interval-atom
occurrence is cut into).  An interval target then yields the fact
"occurrence i takes a piece inside D's interval" instead of a truth value,
and the result is a monotone formula over such facts; name queries do not
depend on the pieces, so each is asked once for all split copies.  A split
copy is one index tuple of the piece grid, and it passes exactly when the
formula holds at that tuple.  `sts_check` is the case without a table,
where every atom is its own single piece and the formula is a constant.
`sts_covers` decides a whole split disjunct against a union without
building any copy.

The preconditions are not checked here (hot path); the engine's debug mode
validates them separately.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .model import (
    Bottom,
    Conj,
    Exists,
    Interval,
    IntervalAtom,
    Name,
    SimpleConcept,
    conjuncts,
    interval_atom_count,
    top_names,
)
from .oracle import OracleHandle, OracleQuery, QueryCache, cached_query

DEPTH_CAP = 10_000

PieceTable = Sequence[Sequence[Interval]]


class _Fact:
    """Occurrence `lo` takes a piece whose index is a set bit of `mask`."""

    __slots__ = ("lo", "mask")

    def __init__(self, occ: int, mask: int):
        self.lo = occ
        self.mask = mask


class _Op:
    """Disjunction (combine is _any) or conjunction (_all) of >= 2 formulas."""

    __slots__ = ("lo", "parts", "combine")

    def __init__(self, parts: Tuple["Formula", ...], combine):
        self.lo = min(p.lo for p in parts)
        self.parts = parts
        self.combine = combine


# A formula is a constant or a node; every node's `lo` is the lowest
# occurrence it mentions.
Formula = Union[bool, _Fact, _Op]


def _any(parts: Iterable[Formula]) -> Formula:
    """Disjunction; stops drawing parts at the first constant true."""
    live: List[Formula] = []
    for p in parts:
        if p is True:
            return True
        if p is not False:
            live.append(p)
    if not live:
        return False
    return live[0] if len(live) == 1 else _Op(tuple(live), _any)


def _all(parts: Iterable[Formula]) -> Formula:
    """Conjunction; stops drawing parts at the first constant false."""
    live: List[Formula] = []
    for p in parts:
        if p is False:
            return False
        if p is not True:
            live.append(p)
    if not live:
        return True
    return live[0] if len(live) == 1 else _Op(tuple(live), _all)


def _inside(
    table: Optional[PieceTable], occ: Optional[int], iv: Interval, target: Interval
) -> Formula:
    if table is None:
        return target.contains(iv)
    pieces = table[occ]
    mask = 0
    for k, piece in enumerate(pieces):
        if target.contains(piece):
            mask |= 1 << k
    if not mask:
        return False
    if mask == (1 << len(pieces)) - 1:
        return True
    return _Fact(occ, mask)


def _placed(
    c: SimpleConcept, base: Optional[int]
) -> Iterator[Tuple[Optional[int], SimpleConcept]]:
    """Top-level conjuncts of c, each with the preorder index of its first
    interval-atom occurrence (None when there is no piece table)."""
    if base is None:
        for p in conjuncts(c):
            yield None, p
        return
    for p in conjuncts(c):
        yield base, p
        if isinstance(p, IntervalAtom):
            base += 1
        elif isinstance(p, Exists):
            base += interval_atom_count(p.filler)


def _structural(
    c: SimpleConcept,
    d: SimpleConcept,
    oracle: OracleHandle,
    cache: Optional[QueryCache],
    table: Optional[PieceTable],
    base: Optional[int],
    depth_cap: int,
) -> Formula:
    if depth_cap <= 0:
        raise RuntimeError("structural check exceeded its recursion depth cap")
    if isinstance(c, Bottom):
        return True
    if isinstance(d, Name):
        # An empty left-hand name set is the empty conjunction, i.e. Top.
        q = OracleQuery(frozenset(top_names(c)), frozenset((d.name,)))
        return cached_query(oracle, cache, q)
    if isinstance(d, IntervalAtom):
        return _any(
            _inside(table, occ, p.iv, d.iv)
            for occ, p in _placed(c, base)
            if isinstance(p, IntervalAtom) and p.prop == d.prop
        )
    if isinstance(d, Exists):
        return _any(
            _structural(p.filler, d.filler, oracle, cache, table, occ, depth_cap - 1)
            for occ, p in _placed(c, base)
            if isinstance(p, Exists) and p.role == d.role
        )
    if isinstance(d, Conj):
        return _all(
            _structural(c, part, oracle, cache, table, base, depth_cap - 1)
            for part in d.parts
        )
    return False


def sts_check(
    c: SimpleConcept,
    d: SimpleConcept,
    oracle: OracleHandle,
    cache: Optional[QueryCache] = None,
    *,
    depth_cap: int = DEPTH_CAP,
) -> bool:
    """True iff the elementary subsumption c <= d holds against the oracle."""
    return _structural(c, d, oracle, cache, None, None, depth_cap)


def _assign(f: Formula, occ: int, piece: int) -> Formula:
    """f with occurrence occ fixed to piece (f mentions none below occ)."""
    if f.lo != occ:
        return f
    if type(f) is _Fact:
        return (f.mask >> piece) & 1 == 1
    return f.combine(_assign(p, occ, piece) for p in f.parts)


def _grid_covered(formulas: List[Formula], sizes: Sequence[int]) -> bool:
    """Every index tuple satisfies some formula (none of them constant).

    Fixes occurrences in index order, depth first, so the walk meets the
    tuples in split order and returns at the first uncovered one.  An
    occurrence no remaining formula mentions is skipped: all its pieces
    lead to the same sub-grid answer.
    """
    occ = min(f.lo for f in formulas)
    for piece in range(sizes[occ]):
        live: List[Formula] = []
        for f in formulas:
            g = _assign(f, occ, piece)
            if g is True:
                break
            if g is not False:
                live.append(g)
        else:
            if not live or not _grid_covered(live, sizes):
                return False
    return True


def sts_covers(
    c: SimpleConcept,
    pieces: PieceTable,
    rhs: Sequence[SimpleConcept],
    oracle: OracleHandle,
    cache: Optional[QueryCache] = None,
    *,
    depth_cap: int = DEPTH_CAP,
) -> bool:
    """True iff every split copy of c passes the structural check against
    some disjunct of rhs, where pieces is c's piece table.

    Equals `all(any(sts_check(ci, d) ...) for ci in copies)` over the
    materialized copies, but runs the recursion once per disjunct of rhs.
    """
    sizes = [len(p) for p in pieces]
    if all(n == 1 for n in sizes):
        # nothing is cut: the one copy is c itself
        return any(sts_check(c, d, oracle, cache, depth_cap=depth_cap) for d in rhs)
    formulas: List[Formula] = []
    for d in rhs:
        f = _structural(c, d, oracle, cache, pieces, 0, depth_cap)
        if f is True:
            return True
        if f is not False:
            formulas.append(f)
    return bool(formulas) and _grid_covered(formulas, sizes)

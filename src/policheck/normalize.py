"""Normalization and interval splitting for policy concepts.

Normalization exhaustively rewrites the left-hand side of a check until no
rule applies:

    1  bot and D                      -> bot
    2  (some R bot)                   -> bot
    3  (int f l u), l > u             -> bot
    4  (some R D) and (some R D')     -> (some R (D and D'))   [func R]
    5  (int f l1 u1) and (int f l2 u2)-> (int f max-lo min-hi) [func f]
    6  (some R D)                     -> (some R (D and A))    [range R A,
                                          unless A or bot already in D]
    7  A1 and ... and An and D        -> bot                   [oracle says
                                          the name conjunction is inconsistent]

Rules run innermost-first with the cheap syntactic rules before the
oracle-backed rule 7; outputs are deterministic, which keeps cache keys
stable.  Interval splitting then cuts every left-hand interval against the
same-property intervals of the right-hand side so that each resulting pair
is contained-or-disjoint (interval safe).  `split_plan` computes the cuts,
the pieces of every interval-atom occurrence and the split cap once;
`split_intervals` materializes the plan's copies, and the engine's symbolic
check (`sts.sts_covers`) reads the plan without building them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ResourceLimitError
from .model import (
    BOT,
    Bottom,
    Conj,
    Exists,
    FullConcept,
    Interval,
    IntervalAtom,
    MainKB,
    Name,
    SimpleConcept,
    concept_size,
    conj,
    conjuncts,
    iter_nodes,
)
from .oracle import BOT_NAME, OracleHandle, OracleQuery, QueryCache

DEFAULT_SPLIT_CAP = 1_000_000

_BOT_RHS = frozenset({BOT_NAME})


@dataclass
class NormalizationStats:
    """Counters for one normalization run."""

    disjuncts_before: int = 0
    disjuncts_after: int = 0
    oracle_calls: int = 0
    rule_applications: Dict[int, int] = field(default_factory=dict)

    def bump(self, rule: int, n: int = 1) -> None:
        self.rule_applications[rule] = self.rule_applications.get(rule, 0) + n

    def total_applications(self) -> int:
        return sum(self.rule_applications.values())


class _Normalizer:
    def __init__(self, k_minus: MainKB, oracle: OracleHandle, cache: Optional[QueryCache]):
        self.func = k_minus.func
        ranges: Dict[str, List[str]] = {}
        for role, cls in sorted(k_minus.ranges):
            ranges.setdefault(role, []).append(cls)
        self.ranges = ranges
        self.n_ranges = len(k_minus.ranges)
        self.oracle = oracle
        self.cache = cache
        self.stats = NormalizationStats()
        self.budget = 0

    def run(self, c: SimpleConcept) -> SimpleConcept:
        # Rule 6 fires at most once per range axiom per position, everything
        # else strictly shrinks, so this bound is generous; overflow is a bug.
        self.budget = 16 * (concept_size(c) + 1) * (self.n_ranges + 2)
        return self._norm(c)

    def _spend(self, rule: int, n: int = 1) -> None:
        self.stats.bump(rule, n)
        self.budget -= n
        if self.budget < 0:
            raise RuntimeError("normalization rule budget exceeded (rewriting bug)")

    def _inconsistent(self, names: Iterable[str]) -> bool:
        q = OracleQuery(frozenset(names), _BOT_RHS)
        if self.cache is not None:
            hit = self.cache.lookup(q)
            if hit is not None:
                return hit
        self.stats.oracle_calls += 1
        ans = self.oracle.query(q)
        if self.cache is not None:
            self.cache.store(q, ans)
        return ans

    def _norm(self, c: SimpleConcept) -> SimpleConcept:
        if isinstance(c, Bottom):
            return BOT
        if isinstance(c, Name):
            if self._inconsistent((c.name,)):
                self._spend(7)
                return BOT
            return c
        if isinstance(c, IntervalAtom):
            if c.iv.is_empty():
                self._spend(3)
                return BOT
            return c
        if isinstance(c, Exists):
            filler = self._norm(c.filler)
            if isinstance(filler, Bottom):
                self._spend(2)
                return BOT
            filler = self._apply_range(c.role, filler)
            if isinstance(filler, Bottom):
                self._spend(2)
                return BOT
            return Exists(c.role, filler)
        return self._norm_parts([self._norm(p) for p in c.parts])

    def _apply_range(self, role: str, filler: SimpleConcept) -> SimpleConcept:
        for cls in self.ranges.get(role, ()):
            parts = conjuncts(filler)
            if Name(cls) in parts or any(isinstance(p, Bottom) for p in parts):
                continue
            self._spend(6)
            filler = self._norm_parts(list(parts) + [Name(cls)])
            if isinstance(filler, Bottom):
                return BOT
        return filler

    def _norm_parts(self, parts: List[SimpleConcept]) -> SimpleConcept:
        """Conjunction-level rules over individually normalized conjuncts."""
        flat: List[SimpleConcept] = []
        for p in parts:
            if isinstance(p, Conj):
                flat.extend(p.parts)
            else:
                flat.append(p)
        parts = flat
        while True:
            if any(isinstance(p, Bottom) for p in parts):
                self._spend(1)
                return BOT
            changed = False

            # rule 5: merge functional same-property interval atoms
            by_prop: Dict[str, List[IntervalAtom]] = {}
            for p in parts:
                if isinstance(p, IntervalAtom) and p.prop in self.func:
                    by_prop.setdefault(p.prop, []).append(p)
            for prop in sorted(by_prop):
                atoms = by_prop[prop]
                if len(atoms) < 2:
                    continue
                lo = max(a.iv.lo for a in atoms)
                hi = min(a.iv.hi for a in atoms)
                self._spend(5, len(atoms) - 1)
                merged = IntervalAtom(prop, Interval(lo, hi))
                parts = [p for p in parts if not (isinstance(p, IntervalAtom) and p.prop == prop)]
                if merged.iv.is_empty():
                    self._spend(3)
                    return BOT
                parts.append(merged)
                changed = True

            # rule 4: merge functional same-role existentials
            by_role: Dict[str, List[Exists]] = {}
            for p in parts:
                if isinstance(p, Exists) and p.role in self.func:
                    by_role.setdefault(p.role, []).append(p)
            for role in sorted(by_role):
                atoms = by_role[role]
                if len(atoms) < 2:
                    continue
                self._spend(4, len(atoms) - 1)
                merged_filler = self._norm_parts(
                    [q for a in atoms for q in conjuncts(a.filler)]
                )
                parts = [p for p in parts if not (isinstance(p, Exists) and p.role == role)]
                if isinstance(merged_filler, Bottom):
                    self._spend(2)
                    return BOT
                merged_filler = self._apply_range(role, merged_filler)
                if isinstance(merged_filler, Bottom):
                    self._spend(2)
                    return BOT
                parts.append(Exists(role, merged_filler))
                changed = True

            # rule 7 over the full top-level name set (monotone in conjuncts,
            # so one query over all names subsumes every sub-conjunction)
            names = sorted({p.name for p in parts if isinstance(p, Name)})
            if names and self._inconsistent(names):
                self._spend(7)
                return BOT

            if not changed:
                return conj(parts)


def normalize(
    c: SimpleConcept,
    k_minus: MainKB,
    oracle: OracleHandle,
    cache: Optional[QueryCache] = None,
) -> Tuple[SimpleConcept, NormalizationStats]:
    """Normalize one simple concept; returns the result and rule counters."""
    n = _Normalizer(k_minus, oracle, cache)
    out = n.run(c)
    n.stats.disjuncts_before = 1
    n.stats.disjuncts_after = 1
    return out, n.stats


def normalize_full(
    full: FullConcept,
    k_minus: MainKB,
    oracle: OracleHandle,
    cache: Optional[QueryCache] = None,
) -> Tuple[FullConcept, NormalizationStats]:
    """Normalize disjunct-wise.  Bot disjuncts are retained so downstream
    pairing sees them, but an all-bot union collapses to a single bot."""
    n = _Normalizer(k_minus, oracle, cache)
    out = tuple(n.run(d) for d in full.disjuncts)
    if all(isinstance(d, Bottom) for d in out):
        out = (BOT,)
    n.stats.disjuncts_before = len(full.disjuncts)
    n.stats.disjuncts_after = len(out)
    return FullConcept(out), n.stats


def _interval_atoms(full: FullConcept) -> Iterator[IntervalAtom]:
    for d in full.disjuncts:
        for node in iter_nodes(d):
            if isinstance(node, IntervalAtom):
                yield node


def _cut_points(rhs: FullConcept) -> Dict[str, List[int]]:
    points: Dict[str, set] = {}
    for atom in _interval_atoms(rhs):
        pts = points.setdefault(atom.prop, set())
        pts.add(atom.iv.lo)
        pts.add(atom.iv.hi + 1)
    return {prop: sorted(pts) for prop, pts in points.items()}


def _pieces(iv: Interval, cuts: Sequence[int]) -> List[Interval]:
    inner = [p for p in cuts if iv.lo < p <= iv.hi]
    bounds = [iv.lo] + inner + [iv.hi + 1]
    return [Interval(a, b - 1) for a, b in zip(bounds, bounds[1:])]


def _collect_atoms(c: SimpleConcept, out: List[IntervalAtom]) -> None:
    if isinstance(c, IntervalAtom):
        out.append(c)
    elif isinstance(c, Exists):
        _collect_atoms(c.filler, out)
    elif isinstance(c, Conj):
        for p in c.parts:
            _collect_atoms(p, out)


def _rebuild(c: SimpleConcept, chosen: Iterator[Interval]) -> SimpleConcept:
    if isinstance(c, IntervalAtom):
        return IntervalAtom(c.prop, next(chosen))
    if isinstance(c, Exists):
        return Exists(c.role, _rebuild(c.filler, chosen))
    if isinstance(c, Conj):
        return conj([_rebuild(p, chosen) for p in c.parts])
    return c


def grid_size(pieces: Sequence[Sequence[Interval]]) -> int:
    """Number of piece combinations: the disjuncts one planned disjunct splits into."""
    return prod(len(p) for p in pieces)


def split_plan(
    lhs: FullConcept, rhs: FullConcept, *, cap: int = DEFAULT_SPLIT_CAP
) -> List[Tuple[SimpleConcept, List[List[Interval]]]]:
    """Per lhs disjunct, the pieces of each of its interval-atom occurrences.

    Occurrences are indexed by preorder position (two equal atoms at two
    positions are two occurrences); each interval is cut at the
    same-property rhs bounds, so every piece is contained in or disjoint
    from every rhs interval on its property.  Raises ResourceLimitError
    when the pieces would combine into more than cap disjuncts.
    """
    cuts = _cut_points(rhs)
    plan: List[Tuple[SimpleConcept, List[List[Interval]]]] = []
    total = 0
    for d in lhs.disjuncts:
        atoms: List[IntervalAtom] = []
        _collect_atoms(d, atoms)
        pieces = [_pieces(a.iv, cuts.get(a.prop, ())) for a in atoms]
        total += grid_size(pieces)
        if total > cap:
            raise ResourceLimitError(
                f"interval splitting would produce more than {cap} disjuncts"
            )
        plan.append((d, pieces))
    return plan


def split_intervals(
    lhs: FullConcept, rhs: FullConcept, *, cap: int = DEFAULT_SPLIT_CAP
) -> FullConcept:
    """Cut every lhs interval against the same-property rhs intervals.

    Each disjunct with k interval atoms cut into s1..sk pieces expands into
    the product of the si; the result is semantically equivalent to lhs and
    interval safe with respect to rhs.  Raises ResourceLimitError when the
    expansion would exceed cap disjuncts.
    """
    plan = split_plan(lhs, rhs, cap=cap)
    if all(len(p) == 1 for _, pieces in plan for p in pieces):
        return lhs

    out: List[SimpleConcept] = []
    for d, pieces in plan:
        if not pieces:
            out.append(d)
            continue
        for combo in product(*pieces):
            out.append(_rebuild(d, iter(combo)))
    return FullConcept(tuple(out))


def _pair_safe(c_atoms: Iterable[IntervalAtom], d_atoms: Iterable[IntervalAtom]) -> bool:
    d_list = list(d_atoms)
    for a in c_atoms:
        for b in d_list:
            if a.prop != b.prop:
                continue
            if not b.iv.contains(a.iv) and a.iv.overlaps(b.iv):
                return False
    return True


def is_interval_safe(lhs: FullConcept, rhs: FullConcept) -> bool:
    """Every lhs interval is contained in or disjoint from every rhs
    interval on the same property (at any nesting depth)."""
    return _pair_safe(_interval_atoms(lhs), _interval_atoms(rhs))


def is_pair_interval_safe(c: SimpleConcept, d: SimpleConcept) -> bool:
    return is_interval_safe(FullConcept((c,)), FullConcept((d,)))

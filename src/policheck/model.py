"""Policy and main-knowledge-base data model.

All values are immutable and hashable.  Conjunctions are canonical sets:
flattened, duplicate-free, and sorted by a structural key, so structural
equality coincides with equality up to conjunction order and duplication.
Names are interned so repeated comparisons reduce to identity checks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Tuple

U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class Interval:
    """Closed integer interval [lo, hi]; lo > hi denotes the empty interval.

    Bounds must fit in the 64-bit unsigned range (implementation bound on
    the abstract natural-number domain).  Empty intervals are deliberately
    representable: normalization, not construction, maps them to Bottom.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        for v in (self.lo, self.hi):
            if not 0 <= v <= U64_MAX:
                raise ValueError(f"interval bound {v} outside 64-bit unsigned range")

    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)


class SimpleConcept:
    """Base class for simple policy concepts (conjunctive, union-free)."""

    __slots__ = ()


@dataclass(frozen=True)
class Name(SimpleConcept):
    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", sys.intern(self.name))


@dataclass(frozen=True)
class Bottom(SimpleConcept):
    pass


@dataclass(frozen=True)
class IntervalAtom(SimpleConcept):
    prop: str
    iv: Interval

    def __post_init__(self) -> None:
        object.__setattr__(self, "prop", sys.intern(self.prop))


@dataclass(frozen=True)
class Exists(SimpleConcept):
    role: str
    filler: SimpleConcept

    def __post_init__(self) -> None:
        object.__setattr__(self, "role", sys.intern(self.role))
        if not isinstance(self.filler, SimpleConcept):
            raise TypeError("existential filler must be a simple concept")


@dataclass(frozen=True)
class Conj(SimpleConcept):
    """Canonical conjunction: >= 2 sorted, distinct, non-Conj parts.

    Construct through conj(), which flattens and deduplicates.
    """

    parts: Tuple[SimpleConcept, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("Conj needs at least two conjuncts; use conj()")
        if any(isinstance(p, Conj) for p in self.parts):
            raise ValueError("nested Conj is not canonical; use conj()")
        keys = [_sort_key(p) for p in self.parts]
        if keys != sorted(keys) or len(set(self.parts)) != len(self.parts):
            raise ValueError("conjuncts must be sorted and duplicate-free; use conj()")


BOT = Bottom()


def _sort_key(c: SimpleConcept):
    if isinstance(c, Name):
        return (0, c.name)
    if isinstance(c, IntervalAtom):
        return (1, c.prop, c.iv.lo, c.iv.hi)
    if isinstance(c, Bottom):
        return (2,)
    if isinstance(c, Exists):
        return (3, c.role, _sort_key(c.filler))
    return (4, tuple(_sort_key(p) for p in c.parts))


def conj(parts: Iterable[SimpleConcept]) -> SimpleConcept:
    """Canonical conjunction of simple concepts.

    Flattens nested conjunctions, removes duplicates, and sorts; a
    single-element conjunction collapses to the element itself.
    """
    flat: list[SimpleConcept] = []
    for p in parts:
        if isinstance(p, Conj):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("conjunction needs at least one conjunct")
    uniq = sorted(set(flat), key=_sort_key)
    if len(uniq) == 1:
        return uniq[0]
    return Conj(tuple(uniq))


def conjuncts(c: SimpleConcept) -> Tuple[SimpleConcept, ...]:
    """Top-level conjuncts of c (c itself when it is not a conjunction)."""
    return c.parts if isinstance(c, Conj) else (c,)


def top_names(c: SimpleConcept) -> Tuple[str, ...]:
    """Sorted top-level concept names of c."""
    return tuple(sorted(p.name for p in conjuncts(c) if isinstance(p, Name)))


def iter_nodes(c: SimpleConcept) -> Iterator[SimpleConcept]:
    """Preorder walk over every subconcept of c, including c."""
    yield c
    if isinstance(c, Conj):
        for p in c.parts:
            yield from iter_nodes(p)
    elif isinstance(c, Exists):
        yield from iter_nodes(c.filler)


def concept_size(c: SimpleConcept) -> int:
    return sum(1 for _ in iter_nodes(c))


def interval_atom_count(c: SimpleConcept) -> int:
    """Number of interval-restriction atoms occurring anywhere in c."""
    return sum(1 for n in iter_nodes(c) if isinstance(n, IntervalAtom))


@dataclass(frozen=True)
class FullConcept:
    """A union of simple concepts; order is preserved, length >= 1."""

    disjuncts: Tuple[SimpleConcept, ...]

    def __post_init__(self) -> None:
        if not self.disjuncts:
            raise ValueError("a full concept needs at least one disjunct")
        for d in self.disjuncts:
            if not isinstance(d, SimpleConcept):
                raise TypeError("disjuncts must be simple concepts")


def union(disjuncts: Iterable[SimpleConcept]) -> FullConcept:
    return FullConcept(tuple(disjuncts))


@dataclass(frozen=True)
class MainKB:
    """Main knowledge base: functionality, range, name-inclusion and
    name-disjointness axioms.  Nothing else is representable.

    func holds role or concrete-property names; ranges maps roles to
    concept names (several range axioms per role are permitted);
    disjointness pairs are stored order-normalized.
    """

    func: frozenset = frozenset()
    ranges: frozenset = frozenset()
    inclusions: frozenset = frozenset()
    disjointness: frozenset = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "func", frozenset(self.func))
        object.__setattr__(self, "ranges", frozenset(tuple(p) for p in self.ranges))
        object.__setattr__(self, "inclusions", frozenset(tuple(p) for p in self.inclusions))
        object.__setattr__(
            self, "disjointness", frozenset(tuple(sorted(p)) for p in self.disjointness)
        )

    def is_empty(self) -> bool:
        return not (self.func or self.ranges or self.inclusions or self.disjointness)

    def axiom_count(self) -> int:
        return len(self.func) + len(self.ranges) + len(self.inclusions) + len(self.disjointness)


@dataclass(frozen=True)
class KBPartition:
    """Main KB split for oracle shifting: k_minus keeps the func/range
    axioms, shifted keeps the name-inclusion/disjointness axioms."""

    k_minus: MainKB
    shifted: MainKB

    def __post_init__(self) -> None:
        if self.k_minus.inclusions or self.k_minus.disjointness:
            raise ValueError("k_minus may only contain func and range axioms")
        if self.shifted.func or self.shifted.ranges:
            raise ValueError("shifted may only contain inclusion and disjointness axioms")


def partition(main: MainKB) -> KBPartition:
    """Split main into the structural part and the axioms destined for the oracle."""
    return KBPartition(
        k_minus=MainKB(func=main.func, ranges=main.ranges),
        shifted=MainKB(inclusions=main.inclusions, disjointness=main.disjointness),
    )


def merge_partition(part: KBPartition) -> MainKB:
    """Inverse of partition(); reassembles the original main KB."""
    return MainKB(
        func=part.k_minus.func,
        ranges=part.k_minus.ranges,
        inclusions=part.shifted.inclusions,
        disjointness=part.shifted.disjointness,
    )


@dataclass(frozen=True)
class Signature:
    """Names occurring in an expression, classified by syntactic position."""

    concepts: frozenset = frozenset()
    roles: frozenset = frozenset()
    properties: frozenset = frozenset()

    def __or__(self, other: "Signature") -> "Signature":
        return Signature(
            self.concepts | other.concepts,
            self.roles | other.roles,
            self.properties | other.properties,
        )

    # The unions are built once per (frozen) signature: an oracle's
    # signature is consulted on every check.
    @cached_property
    def _nonconcept_names(self) -> frozenset:
        return self.roles | self.properties

    @cached_property
    def _names(self) -> frozenset:
        return self.concepts | self._nonconcept_names

    def names(self) -> frozenset:
        return self._names

    def nonconcept_names(self) -> frozenset:
        return self._nonconcept_names


def signature(x) -> Signature:
    """Signature of a simple concept, full concept, main KB, or partition.

    Names declared only by func() axioms cannot be classified from syntax
    alone; they are reported as roles.
    """
    concepts: set = set()
    roles: set = set()
    props: set = set()

    def walk(c: SimpleConcept) -> None:
        for node in iter_nodes(c):
            if isinstance(node, Name):
                concepts.add(node.name)
            elif isinstance(node, IntervalAtom):
                props.add(node.prop)
            elif isinstance(node, Exists):
                roles.add(node.role)

    if isinstance(x, SimpleConcept):
        walk(x)
    elif isinstance(x, FullConcept):
        for d in x.disjuncts:
            walk(d)
    elif isinstance(x, MainKB):
        roles.update(x.func)
        for role, cls in x.ranges:
            roles.add(role)
            concepts.add(cls)
        for a, b in x.inclusions:
            concepts.update((a, b))
        for a, b in x.disjointness:
            concepts.update((a, b))
    elif isinstance(x, KBPartition):
        return signature(x.k_minus) | signature(x.shifted)
    else:
        raise TypeError(f"no signature for {type(x).__name__}")
    return Signature(frozenset(concepts), frozenset(roles), frozenset(props))


@dataclass(frozen=True)
class ViolationReport:
    """Result of the signature-separation check; violations are data, not errors."""

    shared: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.shared


def shared_nonconcept_names(local: Signature, oracle: Signature) -> Tuple[str, ...]:
    """Names shared between the two sides that either side uses as a role
    or a concrete property.  Shared concept names are permitted."""
    common = local.names() & oracle.names()
    bad = {
        n
        for n in common
        if n in local.nonconcept_names() or n in oracle.nonconcept_names()
    }
    return tuple(sorted(bad))


@dataclass(frozen=True)
class PLSOInstance:
    """A subsumption problem: main KB, oracle handle, and a query pair.

    The oracle handle only needs a signature() method here; checking the
    separation invariant is validate_instance's job.
    """

    main: MainKB
    oracle: object
    query: Tuple[FullConcept, FullConcept]


def validate_instance(inst: PLSOInstance) -> ViolationReport:
    """Check the signature-separation invariant: the main KB and the query
    may share only concept names with the oracle."""
    lhs, rhs = inst.query
    local = signature(inst.main) | signature(lhs) | signature(rhs)
    return ViolationReport(shared_nonconcept_names(local, inst.oracle.signature()))

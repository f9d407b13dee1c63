"""Vocabulary oracles: Horn axioms, saturation, and query answering.

The oracle answers queries of the shape

    A1 and ... and Am  subsumed-by  B1 or ... or Bn

where all names are concept names; the empty left-hand side denotes Top and
Bot may appear on the right.  Three backends implement this interface: a
built-in saturation index over a Horn fragment (inclusions, conjunctive
inclusions, existential inclusions both ways, role inclusions, disjointness),
a brute-force enumerator for role-free ontologies used as ground truth in
tests, and a client for an external process speaking a line protocol.

Completion rules of the built-in backend, computing S(X) (derived
superclasses of X) and R(r) (derived role successors):

    init  X in S(X), Top in S(X)
    R1    A1, A2 in S(X) and (A1 and A2 <= B)  ->  B in S(X)   (unary alike)
    R2    A in S(X) and (A <= exists r.B)      ->  (X, B) in R(r)
    R3    (X, Y) in R(r), A in S(Y), (exists r.A <= B)  ->  B in S(X)
    R4    (X, Y) in R(r) and Bot in S(Y)       ->  Bot in S(X)
    R5    (X, Y) in R(r) and r <= s            ->  (X, Y) in R(s)

Once Bot is in S(X), every query with X on the left is answered true; an
ontology with Bot in S(Top) answers every query true.
"""

from __future__ import annotations

import shlex
import subprocess
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from queue import Empty, Queue
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import OracleFailure, ResourceLimitError
from .model import MainKB, Signature

TOP = "Top"
BOT_NAME = "Bot"

_ARITIES = {
    "sub": 2,
    "subconj": 3,
    "subex": 3,
    "supex": 3,
    "subrole": 2,
    "disj": 2,
    "bot": 1,
}

DEFAULT_FACT_CAP = 5_000_000


@dataclass(frozen=True)
class HornAxiom:
    """One normal-form axiom.

    kinds and argument order:
      sub A B        A <= B
      subconj A B C  A and B <= C
      subex R A B    exists R.A <= B
      supex A R B    A <= exists R.B
      subrole R S    R <= S
      disj A B       A and B <= Bot
      bot A          A <= Bot
    """

    kind: str
    args: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in _ARITIES:
            raise ValueError(f"unknown axiom kind {self.kind!r}")
        if len(self.args) != _ARITIES[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITIES[self.kind]} names")

    def to_line(self) -> str:
        return " ".join((self.kind,) + self.args)


def sub(a: str, b: str) -> HornAxiom:
    return HornAxiom("sub", (a, b))


def disj(a: str, b: str) -> HornAxiom:
    return HornAxiom("disj", (a, b))


@dataclass(frozen=True)
class OracleOntology:
    """An immutable list of normal-form Horn axioms."""

    axioms: Tuple[HornAxiom, ...] = ()

    def signature(self) -> Signature:
        concepts: Set[str] = set()
        roles: Set[str] = set()
        for ax in self.axioms:
            k, a = ax.kind, ax.args
            if k in ("sub", "disj"):
                concepts.update(a)
            elif k == "subconj":
                concepts.update(a)
            elif k == "subex":
                roles.add(a[0])
                concepts.update(a[1:])
            elif k == "supex":
                concepts.update((a[0], a[2]))
                roles.add(a[1])
            elif k == "subrole":
                roles.update(a)
            elif k == "bot":
                concepts.add(a[0])
        concepts.discard(TOP)
        concepts.discard(BOT_NAME)
        return Signature(frozenset(concepts), frozenset(roles), frozenset())

    def class_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.signature().concepts))


@dataclass(frozen=True)
class OracleQuery:
    """Conjunction of names on the left (empty set = Top), non-empty
    disjunction of names (Bot allowed) on the right."""

    lhs: FrozenSet[str]
    rhs: FrozenSet[str]

    def __post_init__(self) -> None:
        if not self.rhs:
            raise ValueError("query right-hand side must be non-empty")


def query_of(lhs: Iterable[str], rhs: Iterable[str]) -> OracleQuery:
    return OracleQuery(frozenset(lhs), frozenset(rhs))


class _AxiomTables:
    """Axiom indexes used by both saturation and per-query overlays."""

    def __init__(self, axioms: Sequence[HornAxiom]):
        self.unary: Dict[str, List[str]] = {}
        self.binary: Dict[str, List[Tuple[str, str]]] = {}
        self.exist_rhs: Dict[str, List[Tuple[str, str]]] = {}
        self.exist_lhs_by_role: Dict[str, List[Tuple[str, str]]] = {}
        self.names: List[str] = []
        roles: Set[str] = set()
        seen: Set[str] = set()
        role_edges: Dict[str, Set[str]] = {}

        def name(n: str) -> None:
            if n not in seen and n != BOT_NAME:
                seen.add(n)
                self.names.append(n)

        def add_unary(a: str, b: str) -> None:
            if a == BOT_NAME or b == TOP or a == b:
                return
            self.unary.setdefault(a, []).append(b)

        def add_binary(a1: str, a2: str, b: str) -> None:
            if BOT_NAME in (a1, a2) or b == TOP:
                return
            if a1 == a2 or TOP in (a1, a2):
                other = a2 if a1 == TOP else a1
                add_unary(other, b)
                return
            self.binary.setdefault(a1, []).append((a2, b))
            self.binary.setdefault(a2, []).append((a1, b))

        for ax in axioms:
            k, a = ax.kind, ax.args
            if k == "sub":
                name(a[0]), name(a[1])
                add_unary(a[0], a[1])
            elif k == "bot":
                name(a[0])
                add_unary(a[0], BOT_NAME)
            elif k == "subconj":
                for n in a:
                    name(n)
                add_binary(a[0], a[1], a[2])
            elif k == "disj":
                name(a[0]), name(a[1])
                add_binary(a[0], a[1], BOT_NAME)
            elif k == "subex":
                r, c, b = a
                name(c), name(b)
                roles.add(r)
                if c != BOT_NAME and b != TOP:
                    self.exist_lhs_by_role.setdefault(r, []).append((c, b))
            elif k == "supex":
                c, r, b = a
                name(c), name(b)
                roles.add(r)
                if c == BOT_NAME:
                    continue
                if b == BOT_NAME:
                    add_unary(c, BOT_NAME)
                else:
                    self.exist_rhs.setdefault(c, []).append((r, b))
            elif k == "subrole":
                roles.update(a)
                role_edges.setdefault(a[0], set()).add(a[1])

        # Reflexive-transitive closure of the role hierarchy.
        self.super_roles: Dict[str, Tuple[str, ...]] = {}
        for r in sorted(roles):
            closure = {r}
            frontier = [r]
            while frontier:
                cur = frontier.pop()
                for nxt in role_edges.get(cur, ()):
                    if nxt not in closure:
                        closure.add(nxt)
                        frontier.append(nxt)
            self.super_roles[r] = tuple(sorted(closure))


class SaturationIndex:
    """Saturated subsumer/successor closure of a Horn ontology.

    Immutable after saturate() returns; safe to share between threads.
    """

    def __init__(
        self,
        tables: _AxiomTables,
        subsumers: Dict[str, Set[str]],
        successors: Dict[str, Set[Tuple[str, str]]],
        fact_count: int,
    ):
        self._tables = tables
        self._subsumers = subsumers
        self._successors = successors
        self.fact_count = fact_count
        self.inconsistent_names = frozenset(
            x for x, s in subsumers.items() if BOT_NAME in s
        )
        self.globally_inconsistent = BOT_NAME in subsumers.get(TOP, ())

    @property
    def subsumers(self) -> Dict[str, Set[str]]:
        return self._subsumers

    @property
    def successors(self) -> Dict[str, Set[Tuple[str, str]]]:
        return self._successors

    def subsumers_of(self, name: str) -> Set[str]:
        got = self._subsumers.get(name)
        if got is not None:
            return got
        return {name, TOP}

    def decide(self, lhs: FrozenSet[str], rhs: FrozenSet[str]) -> bool:
        if self.globally_inconsistent or TOP in rhs or BOT_NAME in lhs:
            return True
        real = lhs - {TOP}
        if not real:
            s = self.subsumers_of(TOP)
        elif len(real) == 1:
            s = self.subsumers_of(next(iter(real)))
        else:
            s = self._closure_of(real)
        if BOT_NAME in s:
            return True
        return any(b in s for b in rhs)

    def _closure_of(self, lhs: Set[str]) -> Set[str]:
        """Least closure of a fresh name subsumed by every lhs member.

        Runs the completion rules locally; the shared index is never
        touched, so concurrent queries cannot interfere.
        """
        t = self._tables
        s: Set[str] = {TOP}
        pending: deque = deque()

        def add(a: str) -> None:
            if a not in s:
                s.add(a)
                pending.append(a)

        for a in lhs:
            for b in self.subsumers_of(a):
                add(b)
            add(a)

        edges: Set[Tuple[str, str]] = set()

        def add_edge(r: str, y: str) -> None:
            for sr in t.super_roles.get(r, (r,)):
                if (sr, y) in edges:
                    continue
                edges.add((sr, y))
                ys = self.subsumers_of(y)
                if BOT_NAME in ys:
                    add(BOT_NAME)
                for (a, b) in t.exist_lhs_by_role.get(sr, ()):
                    if a in ys:
                        add(b)

        while pending:
            if BOT_NAME in s:
                break
            a = pending.popleft()
            for b in t.unary.get(a, ()):
                add(b)
            for (other, b) in t.binary.get(a, ()):
                if other in s:
                    add(b)
            for (r, b) in t.exist_rhs.get(a, ()):
                add_edge(r, b)
        return s


def saturate(onto: OracleOntology, max_facts: int = DEFAULT_FACT_CAP) -> SaturationIndex:
    """Least fixpoint of the completion rules; deterministic regardless of
    rule-application order.  Raises ResourceLimitError past max_facts."""
    t = _AxiomTables(onto.axioms)
    subsumers: Dict[str, Set[str]] = {}
    successors: Dict[str, Set[Tuple[str, str]]] = {}
    preds: Dict[str, List[Tuple[str, str]]] = {}
    pending: deque = deque()
    facts = 0

    def add_s(x: str, a: str) -> None:
        nonlocal facts
        s = subsumers.setdefault(x, set())
        if a not in s:
            s.add(a)
            facts += 1
            if facts > max_facts:
                raise ResourceLimitError(f"saturation exceeded {max_facts} derived facts")
            pending.append(("s", x, a))

    def add_e(r: str, x: str, y: str) -> None:
        nonlocal facts
        for sr in t.super_roles.get(r, (r,)):
            pairs = successors.setdefault(sr, set())
            if (x, y) in pairs:
                continue
            pairs.add((x, y))
            facts += 1
            if facts > max_facts:
                raise ResourceLimitError(f"saturation exceeded {max_facts} derived facts")
            preds.setdefault(y, []).append((sr, x))
            pending.append(("e", sr, x, y))

    names = list(t.names)
    if TOP not in names:
        names.append(TOP)
    for x in names:
        add_s(x, x)
        add_s(x, TOP)

    while pending:
        item = pending.popleft()
        if item[0] == "s":
            _, x, a = item
            sx = subsumers[x]
            for b in t.unary.get(a, ()):
                add_s(x, b)
            for (other, b) in t.binary.get(a, ()):
                if other in sx:
                    add_s(x, b)
            for (r, b) in t.exist_rhs.get(a, ()):
                add_e(r, x, b)
            if a == BOT_NAME:
                for (r, p) in preds.get(x, ()):
                    add_s(p, BOT_NAME)
            else:
                for (r, p) in preds.get(x, ()):
                    for (c, b) in t.exist_lhs_by_role.get(r, ()):
                        if c == a:
                            add_s(p, b)
        else:
            _, r, x, y = item
            sy = subsumers.setdefault(y, {y, TOP})
            for (c, b) in t.exist_lhs_by_role.get(r, ()):
                if c in sy:
                    add_s(x, b)
            if BOT_NAME in sy:
                add_s(x, BOT_NAME)

    return SaturationIndex(t, subsumers, successors, facts)


class OracleHandle:
    """Base class for oracle backends: query answering, shifted-axiom
    loading, signature introspection, and an atomic call counter that
    counts every issued (non-cache-served) query."""

    def __init__(self) -> None:
        self._calls = 0
        self._calls_lock = threading.Lock()

    @property
    def calls(self) -> int:
        with self._calls_lock:
            return self._calls

    def _count(self) -> None:
        with self._calls_lock:
            self._calls += 1

    def query(self, q: OracleQuery) -> bool:
        raise NotImplementedError

    def load_shifted(self, shifted: MainKB) -> "OracleHandle":
        raise NotImplementedError

    def signature(self) -> Signature:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _shifted_axioms(shifted: MainKB) -> List[HornAxiom]:
    if shifted.func or shifted.ranges:
        raise ValueError("shifted axioms may only be inclusions and disjointness")
    out = [sub(a, b) for a, b in sorted(shifted.inclusions)]
    out += [disj(a, b) for a, b in sorted(shifted.disjointness)]
    return out


class BuiltinOracle(OracleHandle):
    """Saturation-backed oracle.  The index is built lazily on first use and
    rebuilt from scratch when shifted axioms arrive."""

    def __init__(self, ontology: OracleOntology, *, max_facts: int = DEFAULT_FACT_CAP):
        super().__init__()
        self._axioms: List[HornAxiom] = list(ontology.axioms)
        self._max_facts = max_facts
        self._sig = ontology.signature()
        self._index: Optional[SaturationIndex] = None
        self._subclass_map: Optional[Dict[str, Tuple[str, ...]]] = None

    @property
    def index(self) -> SaturationIndex:
        if self._index is None:
            self._index = saturate(OracleOntology(tuple(self._axioms)), self._max_facts)
        return self._index

    def query(self, q: OracleQuery) -> bool:
        self._count()
        return self.index.decide(q.lhs, q.rhs)

    def load_shifted(self, shifted: MainKB) -> "BuiltinOracle":
        extra = _shifted_axioms(shifted)
        if extra:
            self._axioms.extend(extra)
            self._index = None
            self._subclass_map = None
        return self

    def signature(self) -> Signature:
        return self._sig

    def fork(self) -> "BuiltinOracle":
        """A handle sharing this oracle's (saturated) index with a fresh
        call counter; useful for comparing configurations fairly."""
        twin = BuiltinOracle(OracleOntology(()), max_facts=self._max_facts)
        twin._axioms = list(self._axioms)
        twin._sig = self._sig
        twin._index = self.index
        return twin

    def subsumers_of(self, name: str) -> Set[str]:
        return self.index.subsumers_of(name)

    def strict_superclasses(self, name: str) -> Tuple[str, ...]:
        sup = self.index.subsumers_of(name) - {name, TOP, BOT_NAME}
        return tuple(sorted(sup))

    def strict_subclasses(self, name: str) -> Tuple[str, ...]:
        if self._subclass_map is None:
            rev: Dict[str, List[str]] = {}
            for x, sups in self.index.subsumers.items():
                if BOT_NAME in sups:
                    continue
                for a in sups:
                    if a != x:
                        rev.setdefault(a, []).append(x)
            self._subclass_map = {a: tuple(sorted(xs)) for a, xs in rev.items()}
        return self._subclass_map.get(name, ())


class BruteForceOracle(OracleHandle):
    """Ground-truth oracle for role-free ontologies: decides entailment by
    enumerating every truth assignment over the signature.

    Only propositional kinds (sub, subconj, disj, bot) are accepted and the
    signature is capped at 20 names.
    """

    MAX_NAMES = 20

    def __init__(self, axioms: Iterable[HornAxiom], extra_names: Iterable[str] = ()):
        super().__init__()
        self._axioms: List[HornAxiom] = []
        names: Set[str] = set(extra_names) - {TOP, BOT_NAME}
        for ax in axioms:
            if ax.kind not in ("sub", "subconj", "disj", "bot"):
                raise ValueError(f"brute-force oracle cannot handle {ax.kind!r} axioms")
            self._axioms.append(ax)
            names.update(n for n in ax.args if n not in (TOP, BOT_NAME))
        self._names = sorted(names)
        if len(self._names) > self.MAX_NAMES:
            raise ValueError(f"brute-force oracle capped at {self.MAX_NAMES} names")
        self._models: Optional[List[int]] = None

    def _bit(self, name: str) -> int:
        return 1 << self._names.index(name)

    def _ensure_models(self) -> List[int]:
        if self._models is None:
            constraints = []
            for ax in self._axioms:
                k, a = ax.kind, ax.args
                lhs = 0
                neg = False
                for n in a[:-1] if k in ("sub", "subconj") else a:
                    if n == TOP:
                        continue
                    if n == BOT_NAME:
                        neg = True
                        break
                    lhs |= self._bit(n)
                if k in ("sub", "subconj"):
                    tgt = a[-1]
                    if neg or tgt == TOP:
                        continue
                    rhs = 0 if tgt == BOT_NAME else self._bit(tgt)
                elif k == "disj":
                    if neg:
                        continue
                    rhs = 0
                else:  # bot
                    if neg:
                        continue
                    rhs = 0
                constraints.append((lhs, rhs))
            models = []
            for m in range(1 << len(self._names)):
                ok = True
                for lhs, rhs in constraints:
                    if m & lhs == lhs and not m & rhs:
                        ok = False
                        break
                if ok:
                    models.append(m)
            self._models = models
        return self._models

    def query(self, q: OracleQuery) -> bool:
        self._count()
        unknown = (q.lhs | q.rhs) - set(self._names) - {TOP, BOT_NAME}
        if unknown:
            widened = BruteForceOracle(self._axioms, set(self._names) | unknown)
            return widened._decide(q)
        return self._decide(q)

    def _decide(self, q: OracleQuery) -> bool:
        if TOP in q.rhs or BOT_NAME in q.lhs:
            return True
        lhs_mask = 0
        for n in q.lhs:
            if n != TOP:
                lhs_mask |= self._bit(n)
        rhs_mask = 0
        for n in q.rhs:
            if n != BOT_NAME:
                rhs_mask |= self._bit(n)
        for m in self._ensure_models():
            if m & lhs_mask == lhs_mask and not m & rhs_mask:
                return False
        return True

    def load_shifted(self, shifted: MainKB) -> "BruteForceOracle":
        for ax in _shifted_axioms(shifted):
            self._axioms.append(ax)
            for n in ax.args:
                if n not in (TOP, BOT_NAME) and n not in self._names:
                    self._names.append(n)
        self._names.sort()
        if len(self._names) > self.MAX_NAMES:
            raise ValueError(f"brute-force oracle capped at {self.MAX_NAMES} names")
        self._models = None
        return self

    def signature(self) -> Signature:
        return Signature(concepts=frozenset(self._names))


def brute_force_query(axioms: Iterable[HornAxiom], q: OracleQuery) -> bool:
    """One-shot brute-force entailment check (role-free Horn only)."""
    return BruteForceOracle(tuple(axioms)).query(q)


class ExternalOracle(OracleHandle):
    """Client for an external oracle process speaking the line protocol:

        AX <axiom-line>                     -> 1 | E <message>
        Q A1 ... An : B1 ... Bk             -> 1 | 0 | E <message>
        QUIT                                (no response)

    Requests are serialized over the single connection; a response timeout
    converts hangs into OracleFailure.  After a timeout, a transport error
    or an error response the handle is broken: the process is killed and
    every later request raises OracleFailure, since a late reply to one
    query would otherwise be read as the answer to the next.  The declared
    signature is trusted, not verified.
    """

    def __init__(
        self,
        cmd,
        declared_signature: Signature = Signature(),
        timeout: float = 30.0,
    ):
        super().__init__()
        argv = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
        self._sig = declared_signature
        self._timeout = timeout
        self._io_lock = threading.Lock()
        self._broken: Optional[str] = None
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise OracleFailure(f"cannot start oracle process: {exc}") from exc
        self._lines: Queue = Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        try:
            for line in self._proc.stdout:
                self._lines.put(line.rstrip("\r\n"))
        except ValueError:
            pass
        self._lines.put(None)

    def _break(self, reason: str) -> OracleFailure:
        """Mark the handle unusable, kill the process; caller holds _io_lock."""
        if self._broken is None:
            self._broken = reason
            self._proc.kill()
        return OracleFailure(reason)

    def _request(self, line: str) -> str:
        with self._io_lock:
            if self._broken is not None:
                raise OracleFailure(f"oracle unusable after earlier failure: {self._broken}")
            if self._proc.poll() is not None:
                raise self._break("oracle process has exited")
            try:
                self._proc.stdin.write(line + "\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, ValueError, OSError) as exc:
                raise self._break(f"oracle transport error: {exc}") from exc
            try:
                resp = self._lines.get(timeout=self._timeout)
            except Empty:
                raise self._break(f"oracle timed out after {self._timeout}s") from None
            if resp is None:
                raise self._break("oracle closed its output stream")
            return resp

    def _reject(self, reason: str) -> OracleFailure:
        with self._io_lock:
            return self._break(reason)

    def query(self, q: OracleQuery) -> bool:
        self._count()
        lhs = sorted(q.lhs) or [TOP]
        line = "Q " + " ".join(lhs) + " : " + " ".join(sorted(q.rhs))
        resp = self._request(line)
        if resp == "1":
            return True
        if resp == "0":
            return False
        raise self._reject(f"oracle error response: {resp}")

    def load_shifted(self, shifted: MainKB) -> "ExternalOracle":
        for ax in _shifted_axioms(shifted):
            resp = self._request("AX " + ax.to_line())
            if resp != "1":
                raise self._reject(f"oracle rejected axiom {ax.to_line()!r}: {resp}")
        return self

    def signature(self) -> Signature:
        return self._sig

    def close(self) -> None:
        try:
            if self._proc.poll() is None:
                self._proc.stdin.write("QUIT\n")
                self._proc.stdin.flush()
        except Exception:
            pass
        try:
            self._proc.wait(timeout=2)
        except Exception:
            self._proc.kill()


class QueryCache:
    """Thread-safe memo of oracle query results with hit/miss counters.

    Unbounded by default; an optional cap turns it into an LRU.  Inserts are
    idempotent by construction (a key always maps to the backend's answer).
    """

    def __init__(self, cap: Optional[int] = None):
        self._cap = cap
        self._data: "OrderedDict[OracleQuery, bool]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, q: OracleQuery) -> Optional[bool]:
        with self._lock:
            if q in self._data:
                self.hits += 1
                if self._cap is not None:
                    self._data.move_to_end(q)
                return self._data[q]
            self.misses += 1
            return None

    def store(self, q: OracleQuery, answer: bool) -> None:
        with self._lock:
            self._data[q] = answer
            if self._cap is not None and len(self._data) > self._cap:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


def cached_query(oracle: OracleHandle, cache: Optional[QueryCache], q: OracleQuery) -> bool:
    """Answer q through the cache when one is given, else directly."""
    if cache is None:
        return oracle.query(q)
    hit = cache.lookup(q)
    if hit is not None:
        return hit
    ans = oracle.query(q)
    cache.store(q, ans)
    return ans

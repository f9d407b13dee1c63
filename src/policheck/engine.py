"""End-to-end compliance checking.

An Engine is built once per (main KB, oracle) pair: the KB is partitioned,
its name axioms are shifted into the oracle, and the signature-separation
invariant is validated.  Each check then normalizes the left-hand policy
and plans its interval split against the right-hand side.

With caches on (the default) the split is decided symbolically: for each
left disjunct the structural recursion runs once per right disjunct over
the disjunct's piece table, and the piece grid is walked for a combination
no right disjunct covers (`sts.sts_covers`); no split copy is built.  With
caches off the engine runs the paper's pipeline as published: it
materializes the split and pairs every copy with the right-hand disjuncts
through `sts_check`.  Both give the same answers, the same
`disj_after_split` and the same split cap; debug mode runs both and
compares them.

Three caches keep the hot path cheap: a normalization-result cache keyed by
the full left-hand policy (business-policy populations are small, so rules
run once per distinct policy), plus two oracle-query caches for the
normalization phase and the structural phase.  All caches are safe for
concurrent checks; answers with caches enabled equal answers with caches
disabled.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import PolicheckError, SignatureViolation
from .model import (
    Bottom,
    FullConcept,
    MainKB,
    SimpleConcept,
    interval_atom_count,
    partition,
    shared_nonconcept_names,
    signature,
)
from .normalize import (
    grid_size,
    is_pair_interval_safe,
    normalize,
    normalize_full,
    split_intervals,
    split_plan,
)
from .oracle import BuiltinOracle, OracleHandle, OracleOntology, QueryCache
from .sts import sts_check, sts_covers


@dataclass(frozen=True)
class EngineConfig:
    use_caches: bool = True
    cache_cap: Optional[int] = None
    split_cap: int = 1_000_000
    max_facts: int = 5_000_000
    debug_checks: bool = False


@dataclass
class CheckStats:
    """Per-check counters; wall time is in milliseconds."""

    answer: bool = False
    wall_ms: float = 0.0
    oracle_calls: int = 0
    cache_hits: int = 0
    disj_before: int = 0
    disj_after_norm: int = 0
    disj_after_split: int = 0
    ni: int = 0
    norm_cache_hit: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "answer": self.answer,
            "wall_ms": round(self.wall_ms, 4),
            "oracle_calls": self.oracle_calls,
            "cache_hits": self.cache_hits,
            "disj_before": self.disj_before,
            "disj_after_norm": self.disj_after_norm,
            "disj_after_split": self.disj_after_split,
            "ni": self.ni,
        }


@dataclass
class EngineStats:
    """Aggregate counters since engine construction."""

    checks: int = 0
    oracle_calls: int = 0
    cache_hits: int = 0
    query_attempts: int = 0
    norm_cache_hits: int = 0
    wall_ms: float = 0.0


@dataclass
class BatchResult:
    answer: Optional[bool]
    stats: Optional[CheckStats]
    error: Optional[str]


@dataclass
class BatchSummary:
    pairs: int = 0
    true_count: int = 0
    false_count: int = 0
    error_count: int = 0
    oracle_calls: int = 0
    cache_hits: int = 0
    wall_ms: float = 0.0


def _ni_of(full: FullConcept) -> int:
    return max(interval_atom_count(d) for d in full.disjuncts)


class Engine:
    """Shareable compliance checker for one (main KB, oracle) pair."""

    def __init__(
        self,
        main: MainKB,
        oracle: Union[OracleOntology, OracleHandle],
        config: Optional[EngineConfig] = None,
    ):
        self.config = config or EngineConfig()
        if isinstance(oracle, OracleOntology):
            oracle = BuiltinOracle(oracle, max_facts=self.config.max_facts)
        self.oracle = oracle
        self._oracle_sig = oracle.signature()

        shared = shared_nonconcept_names(signature(main), self._oracle_sig)
        if shared:
            raise SignatureViolation(shared)

        part = partition(main)
        self.k_minus = part.k_minus
        oracle.load_shifted(part.shifted)

        cap = self.config.cache_cap
        if self.config.use_caches:
            self.rule7_cache: Optional[QueryCache] = QueryCache(cap)
            self.sts_cache: Optional[QueryCache] = QueryCache(cap)
        else:
            self.rule7_cache = None
            self.sts_cache = None
        self._norm_cache: Dict[FullConcept, Tuple[FullConcept, int]] = {}
        self._norm_lock = threading.Lock()
        self._norm_hits = 0

        self._agg = EngineStats()
        self._agg_lock = threading.Lock()

    # -- helpers ---------------------------------------------------------

    def _cache_hits_now(self) -> int:
        total = 0
        for cache in (self.rule7_cache, self.sts_cache):
            if cache is not None:
                total += cache.hits
        return total

    def _validate_query_signature(self, lhs: FullConcept, rhs: FullConcept) -> None:
        shared = shared_nonconcept_names(
            signature(lhs) | signature(rhs), self._oracle_sig
        )
        if shared:
            raise SignatureViolation(shared)

    def _normalized_lhs(self, lhs: FullConcept) -> Tuple[FullConcept, int, bool]:
        if not self.config.use_caches:
            normalized, nstats = normalize_full(lhs, self.k_minus, self.oracle, None)
            return normalized, nstats.disjuncts_before, False
        with self._norm_lock:
            cached = self._norm_cache.get(lhs)
            if cached is not None:
                self._norm_hits += 1
                return cached[0], cached[1], True
        normalized, nstats = normalize_full(lhs, self.k_minus, self.oracle, self.rule7_cache)
        with self._norm_lock:
            self._norm_cache[lhs] = (normalized, nstats.disjuncts_before)
            if (
                self.config.cache_cap is not None
                and len(self._norm_cache) > self.config.cache_cap
            ):
                self._norm_cache.pop(next(iter(self._norm_cache)))
        return normalized, nstats.disjuncts_before, False

    def _debug_validate_pair(self, c: SimpleConcept, d: SimpleConcept) -> None:
        renorm, _ = normalize(c, self.k_minus, self.oracle, self.rule7_cache)
        assert renorm == c, "structural check fed a non-normalized left-hand side"
        assert is_pair_interval_safe(c, d), "structural check fed an interval-unsafe pair"

    def _pair_all(self, split: FullConcept, rhs: FullConcept) -> bool:
        """The paper's pairing loop: every split copy passes the structural
        check against some right-hand disjunct."""
        for ci in split.disjuncts:
            matched = False
            for dj in rhs.disjuncts:
                if self.config.debug_checks and not isinstance(ci, Bottom):
                    self._debug_validate_pair(ci, dj)
                if sts_check(ci, dj, self.oracle, self.sts_cache):
                    matched = True
                    break
            if not matched:
                return False
        return True

    # -- public API ------------------------------------------------------

    def check(self, lhs: FullConcept, rhs: FullConcept) -> Tuple[bool, CheckStats]:
        """Decide lhs <= rhs against the engine's KB and oracle."""
        t0 = time.perf_counter()
        self._validate_query_signature(lhs, rhs)
        calls0 = self.oracle.calls
        hits0 = self._cache_hits_now()

        normalized, disj_before, norm_hit = self._normalized_lhs(lhs)
        if self.config.use_caches:
            plan = split_plan(normalized, rhs, cap=self.config.split_cap)
            disj_after_split = sum(grid_size(pieces) for _, pieces in plan)
            answer = all(
                sts_covers(c, pieces, rhs.disjuncts, self.oracle, self.sts_cache)
                for c, pieces in plan
            )
            if self.config.debug_checks:
                split = split_intervals(normalized, rhs, cap=self.config.split_cap)
                assert self._pair_all(split, rhs) == answer, (
                    "symbolic and materialized splitting disagree"
                )
        else:
            split = split_intervals(normalized, rhs, cap=self.config.split_cap)
            disj_after_split = len(split.disjuncts)
            answer = self._pair_all(split, rhs)

        wall_ms = (time.perf_counter() - t0) * 1000.0
        stats = CheckStats(
            answer=answer,
            wall_ms=wall_ms,
            oracle_calls=self.oracle.calls - calls0,
            cache_hits=self._cache_hits_now() - hits0,
            disj_before=disj_before,
            disj_after_norm=len(normalized.disjuncts),
            disj_after_split=disj_after_split,
            ni=_ni_of(normalized),
            norm_cache_hit=norm_hit,
        )
        with self._agg_lock:
            self._agg.checks += 1
            self._agg.oracle_calls += stats.oracle_calls
            self._agg.cache_hits += stats.cache_hits
            self._agg.query_attempts += stats.oracle_calls + stats.cache_hits
            self._agg.norm_cache_hits += 1 if norm_hit else 0
            self._agg.wall_ms += wall_ms
        return answer, stats

    def check_batch(
        self,
        pairs: Sequence[Tuple[FullConcept, FullConcept]],
        threads: int = 1,
    ) -> Tuple[List[BatchResult], BatchSummary]:
        """Run check over every pair; per-pair failures do not abort the batch."""

        def one(pair: Tuple[FullConcept, FullConcept]) -> BatchResult:
            try:
                answer, stats = self.check(pair[0], pair[1])
                return BatchResult(answer, stats, None)
            except PolicheckError as exc:
                return BatchResult(None, None, str(exc))

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one, pairs))
        else:
            results = [one(p) for p in pairs]

        summary = BatchSummary(pairs=len(results))
        for r in results:
            if r.error is not None:
                summary.error_count += 1
                continue
            if r.answer:
                summary.true_count += 1
            else:
                summary.false_count += 1
            summary.oracle_calls += r.stats.oracle_calls
            summary.cache_hits += r.stats.cache_hits
            summary.wall_ms += r.stats.wall_ms
        return results, summary

    def stats_snapshot(self) -> EngineStats:
        with self._agg_lock:
            return EngineStats(
                checks=self._agg.checks,
                oracle_calls=self._agg.oracle_calls,
                cache_hits=self._agg.cache_hits,
                query_attempts=self._agg.query_attempts,
                norm_cache_hits=self._agg.norm_cache_hits,
                wall_ms=self._agg.wall_ms,
            )

    @property
    def norm_cache_hits(self) -> int:
        with self._norm_lock:
            return self._norm_hits

    def close(self) -> None:
        self.oracle.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_engine(
    main: MainKB,
    oracle: Union[OracleOntology, OracleHandle],
    config: Optional[EngineConfig] = None,
) -> Engine:
    """Construct an engine; raises SignatureViolation when the main KB
    shares roles or concrete properties with the oracle."""
    return Engine(main, oracle, config)

"""Runs one generated suite through policheck and reports raw measurements.

    python3 perfbench/runner.py SUITE_DIR --seconds S --trace 0|1

This is the process whose checks are measured: run.py generates the inputs
and the reference answers in another process and reads this one's JSON
report from standard output.  policheck must be importable (run.py puts
the repository's `src` on PYTHONPATH, which the external oracle server
inherits).

A phase runs in rounds until its timed checks add up to `--seconds` and
every engine group has run at least three times.  A round starts with a
fresh set-up (parsing, Engine construction, and forcing the built-in
oracle's lazy saturation or starting the oracle server and waiting for its
first answer) while the phase's set-ups add up to less than a fifth of
`--seconds`, and reuses the last one after that, so that a slow set-up
does not crowd out the checks.  It then runs the groups that are due:
each gets a fresh Engine (empty caches; groups of a built-in oracle share
its saturated index through `fork`), runs its warm-up checks untimed, then
its timed pairs one after another: one caller, a closed loop.  A group is due in round r when
its timed checks so far took at most r quanta (QUANTUM_NS), so a cheap
group runs in every round and a slow one about once per its own time in
quanta: the run's time is shared between groups, and a cheap check is
timed at moments spread over the whole run rather than a few.  With
`--trace 1` the untraced phase is followed by one traced round of every
group.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter_ns

from policheck import (
    Engine,
    ExternalOracle,
    OracleQuery,
    PolicheckError,
    parse_main_kb,
    parse_oracle_ontology,
    parse_policy,
)
from policheck.syntax import parse_signature_decl

from tracing import Tracer

SERVER = [sys.executable, "-m", "policheck.oracle_server"]


class Suite:
    """One set-up of the suite: parsed inputs and a ready oracle."""

    def __init__(self, root: Path):
        t0 = perf_counter_ns()
        spec = json.loads((root / "suite.json").read_text(encoding="utf-8"))
        self.groups = spec["groups"]
        self.external = spec["oracle"] == "external"
        self.kb = parse_main_kb((root / "main.plkb").read_text(encoding="utf-8"))
        self.policies = []
        for name in spec["policy_files"]:
            for line in (root / name).read_text(encoding="utf-8").splitlines():
                if line.strip():
                    self.policies.append(parse_policy(line))
        if self.external:
            declared = parse_signature_decl(
                (root / "vocab.sig").read_text(encoding="utf-8")
            )
            parse_ns = perf_counter_ns() - t0
            self.oracle = ExternalOracle(
                SERVER + [str(root / "vocab.horn")], declared, timeout=60.0
            )
            try:
                Engine(self.kb, self.oracle)
                t1 = perf_counter_ns()
                # the server parses and saturates lazily, on its first query
                self.oracle.query(OracleQuery(frozenset(), frozenset({"Bot"})))
                self.saturate_ns = perf_counter_ns() - t1
            except BaseException:
                self.oracle.close()
                raise
            self.facts = 0  # not reported by the server
        else:
            onto = parse_oracle_ontology((root / "vocab.horn").read_text(encoding="utf-8"))
            parse_ns = perf_counter_ns() - t0
            self.oracle = Engine(self.kb, onto).oracle
            t1 = perf_counter_ns()
            self.facts = self.oracle.index.fact_count
            self.saturate_ns = perf_counter_ns() - t1
        self.parse_ns = parse_ns
        self.setup_ns = perf_counter_ns() - t0

    def engine(self) -> Engine:
        """A fresh engine with empty caches on the set-up oracle."""
        if self.external:
            return Engine(self.kb, self.oracle)
        return Engine(self.kb, self.oracle.fork())

    def close(self) -> None:
        self.oracle.close()


def _cache_counts(engine: Engine) -> dict:
    return {
        "rule7_hits": engine.rule7_cache.hits,
        "rule7_misses": engine.rule7_cache.misses,
        "sts_hits": engine.sts_cache.hits,
        "sts_misses": engine.sts_cache.misses,
        "norm_hits": engine.norm_cache_hits,
    }


def run_round(suite: Suite, due, tracer: Tracer = None) -> dict:
    """Runs the groups `due` on `suite`; returns per-check rows, the timed
    nanoseconds of each group and, when traced, the layer totals and cache
    counts of the timed checks."""
    rows = []
    group_ns = []
    caches = {"rule7_entries": 0, "sts_entries": 0}
    if tracer is not None:
        tracer.reset()
    for gi in due:
        group = suite.groups[gi]
        engine = suite.engine()
        check = engine.check
        if tracer is not None:
            tracer.wrap_oracle(engine.oracle)
            check = tracer.wrap("engine", engine.check)
        for li, ri in group["warm"]:
            engine.check(suite.policies[li], suite.policies[ri])
        before = _cache_counts(engine)
        # collections during the timed checks then fall on the same checks
        # in every round and run, instead of wherever set-up left the counters
        gc.collect()
        if tracer is not None:
            tracer.on = True
        start = perf_counter_ns()
        for pi, (li, ri) in enumerate(group["pairs"]):
            t0 = perf_counter_ns()
            try:
                answer, stats = check(suite.policies[li], suite.policies[ri])
            except PolicheckError as exc:
                rows.append([gi, pi, None, perf_counter_ns() - t0, None, 0, 0,
                             f"{type(exc).__name__}: {exc}"])
                continue
            rows.append([gi, pi, answer, perf_counter_ns() - t0, stats.ni,
                         stats.disj_after_split, stats.oracle_calls, None])
        group_ns.append([gi, perf_counter_ns() - start])
        if tracer is not None:
            tracer.on = False
        after = _cache_counts(engine)
        for key in after:
            caches[key] = caches.get(key, 0) + after[key] - before[key]
        caches["rule7_entries"] += len(engine.rule7_cache)
        caches["sts_entries"] += len(engine.sts_cache)
    result = {"elapsed_ns": sum(ns for _, ns in group_ns), "group_ns": group_ns,
              "rows": rows}
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["caches"] = caches
    return result


MIN_RUNS = 3
QUANTUM_NS = 250_000_000  # a group is due in round r while its checks took <= r quanta
SETUP_SHARE = 0.2  # set up afresh while the set-ups took less than this share of `seconds`


def run_phase(root: Path, seconds: float, min_runs: int, tracer: Tracer = None) -> list:
    """Rounds until the timed checks add up to `seconds` and every group
    has run `min_runs` times.  Round 0 runs every group; later rounds run
    the groups that are due (see above), skipping round numbers in which
    none is."""
    rounds = []
    suite = None
    setup_ns = 0
    r = 0
    try:
        while True:
            setups = []
            if suite is None or setup_ns < SETUP_SHARE * seconds * 1e9:
                if suite is not None:
                    # freed before the next set-up, which would otherwise overlap it
                    suite.close()
                    suite = None
                suite = Suite(root)
                setup_ns += suite.setup_ns
                setups.append([suite.setup_ns, suite.parse_ns, suite.saturate_ns])
            if not rounds:
                spent = [0] * len(suite.groups)
                runs = [0] * len(suite.groups)
            due = [gi for gi, ns in enumerate(spent) if ns <= r * QUANTUM_NS]
            result = run_round(suite, due, tracer)
            result["setups"] = setups
            result["facts"] = suite.facts
            rounds.append(result)
            for gi, ns in result["group_ns"]:
                spent[gi] += ns
                runs[gi] += 1
            if sum(spent) >= seconds * 1e9 and min(runs) >= min_runs:
                return rounds
            r = max(r + 1, min(math.ceil(ns / QUANTUM_NS) for ns in spent))
    finally:
        if suite is not None:
            suite.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report = {"untraced": run_phase(args.suite, args.seconds, MIN_RUNS)}
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            report["traced"] = run_phase(args.suite, 0, 1, tracer)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

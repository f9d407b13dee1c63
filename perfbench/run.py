"""Policheck benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; policheck is imported from the
checkout's `src`.  The run generates the workload's inputs and the
reference answer of every pair (`ref_decide`) from the seed, then runs the
checks in a separate process (`perfbench/runner.py`, a closed loop with
one caller), so set-up time and peak memory belong to that process alone.
Every verdict of every round is compared with its reference.

Standard output lists every metric by name with its unit, then ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced; with --trace 1 they are the per-layer ones, from a
traced round that follows the untraced ones.  `failed` counts checks that
raised (error_share = failed / attempted); `correct` is false when any
verdict differs from its reference (wrong_verdicts > 0).

Exit status: 0 when every verdict matched, 1 on a wrong verdict, 2 when
the sources are missing or the runner failed (no JSON line then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0
NI_BUCKETS = ("0", "1", "2", "3", "4", "5up")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    return values[max(0, math.ceil(p / 100.0 * len(values)) - 1)]


def tail(values):
    """(percentile, value) of a sorted list: the highest percentile with
    ten samples beyond it, or the median when there are fewer than 20."""
    n = len(values)
    if n < 20:
        return 50.0, percentile(values, 50.0)
    return 100.0 * (n - 10) / n, values[n - 11]


def pair_samples(rounds, keep=lambda row: True):
    """(group, pair) -> latencies (ms) of that timed pair over the rounds."""
    by_pair = {}
    for rd in rounds:
        for row in rd["rows"]:
            if row[2] is not None and keep(row):
                by_pair.setdefault((row[0], row[1]), []).append(row[3] / 1e6)
    return by_pair


def pair_latencies(rounds, keep=lambda row: True):
    """Median latency (ms) of each timed pair over the rounds, sorted."""
    return sorted(statistics.median(v) for v in pair_samples(rounds, keep).values())


def ni_bucket(ni: int) -> str:
    return str(ni) if ni < 5 else "5up"


class Metrics:
    """Metric values in output order; `na` marks layers the workload does
    not use (reported as 0)."""

    def __init__(self) -> None:
        self.values = {}
        self.notes = {}

    def add(self, name, value, unit, note="", na=False):
        self.values[name] = {"value": 0 if na else value, "unit": unit}
        self.notes[name] = "n/a" if na else note

    def print(self) -> None:
        for name, m in self.values.items():
            value = m["value"]
            shown = "n/a" if self.notes[name] == "n/a" else (
                f"{value:.6g}" if isinstance(value, float) else str(value))
            note = self.notes[name] if self.notes[name] != "n/a" else ""
            print(f"{name} = {shown} {m['unit']}{'  (' + note + ')' if note else ''}")


def setups(rounds, which: int):
    """Set-up times (ns) of the rounds: 0 whole, 1 parsing, 2 saturation."""
    return [setup[which] for rd in rounds for setup in rd["setups"]]


def end_to_end(report, m: Metrics) -> None:
    rounds = report["untraced"]
    lat = pair_latencies(rounds)
    runs = [len(v) for v in pair_samples(rounds).values()]
    m.add("checks_per_s", len(lat) / (sum(lat) / 1e3), "1/s",
          f"{len(lat)} pairs at their median latency; {len(rounds)} rounds, "
          f"{min(runs)} to {max(runs)} runs per pair")
    p, value = tail(lat)
    m.add("latency_p50_ms", percentile(lat, 50.0), "ms", f"{len(lat)} pairs")
    m.add("latency_tail_ms", value, "ms", f"p{p:.4g} of {len(lat)} pairs")
    times = [t / 1e9 for t in setups(rounds, 0)]
    m.add("setup_s", statistics.median(times), "s", f"median of {len(times)} set-ups, "
          f"{min(times):.3f} to {max(times):.3f} s")
    m.add("peak_rss_mb", report["peak_rss_kb"] / 1024.0, "MB")


def per_layer(report, m: Metrics) -> None:
    untraced = report["untraced"]
    traced = report["traced"][0]
    layers, caches, calls = traced["layers"], traced["caches"], traced["layers"]["calls"]

    def self_ms(layer):
        return layers["self_ns"][layer] / 1e6

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    m.add("syntax.parse_ms", statistics.median(setups(untraced, 1)) / 1e6, "ms",
          "set-up, median")
    m.add("oracle.saturate_ms", statistics.median(setups(untraced, 2)) / 1e6, "ms",
          "set-up, median; external: server start, parse and saturation")
    m.add("oracle.facts", traced["facts"], "count", na=not traced["facts"])
    m.add("model.sig_ms", self_ms("model"), "ms", na=not calls["model"])
    m.add("model.sig_calls", calls["model"], "count", "signature + shared_nonconcept_names")
    m.add("normalize.ms", self_ms("normalize"), "ms", na=not calls["normalize"])
    m.add("normalize.calls", calls["normalize"], "count", "norm-cache misses")
    for rule in range(1, 8):
        m.add(f"normalize.rule{rule}", layers["rules"][str(rule)], "count",
              na=not calls["normalize"])
    m.add("split.ms", self_ms("split"), "ms", na=not calls["split"])
    m.add("split.disjuncts_in", layers["split_in"], "count")
    m.add("split.disjuncts_out", layers["split_out"], "count")
    m.add("split.expansion", layers["split_out"] / max(1, layers["split_in"]), "ratio",
          na=not layers["split_in"])
    m.add("sts.ms", self_ms("sts"), "ms", na=not calls["sts"])
    m.add("sts.pairs", calls["sts"], "count")
    queries = sorted(q / 1e3 for q in layers["query_ns"])
    m.add("oracle.queries", calls["oracle"], "count", "issued, i.e. cache misses")
    m.add("oracle.query_ms", self_ms("oracle"), "ms", na=not queries)
    if queries:
        p, value = tail(queries)
        m.add("oracle.query_us_p50", percentile(queries, 50.0), "us", f"{len(queries)} queries")
        m.add("oracle.query_us_tail", value, "us", f"p{p:.4g} of {len(queries)} queries")
    else:
        m.add("oracle.query_us_p50", 0, "us", na=True)
        m.add("oracle.query_us_tail", 0, "us", na=True)
    m.add("oracle.failures", layers["oracle_failures"], "count")
    for cache in ("rule7", "sts"):
        hits, misses = caches[f"{cache}_hits"], caches[f"{cache}_misses"]
        m.add(f"cache.{cache}.hits", hits, "count")
        m.add(f"cache.{cache}.misses", misses, "count")
        m.add(f"cache.{cache}.hit_ratio", ratio(hits, misses), "ratio", na=not hits + misses)
        m.add(f"cache.{cache}.entries", caches[f"{cache}_entries"], "count",
              "at the end of the round")
    timed = len(traced["rows"])
    m.add("cache.norm.hit_ratio", caches["norm_hits"] / timed, "ratio",
          f"{caches['norm_hits']} of {timed} timed checks")
    spans = sum(layers["self_ns"].values())
    m.add("engine.self_ms", self_ms("engine"), "ms", "check span minus its children; "
          f"the layers' self times cover {spans / traced['elapsed_ns']:.1%} of the timed loop")

    # buckets by CheckStats.ni, from the untraced phase
    for bucket in NI_BUCKETS:
        lat = pair_latencies(untraced, lambda row: ni_bucket(row[4]) == bucket)
        rows = [r for r in untraced[0]["rows"] if r[2] is not None and ni_bucket(r[4]) == bucket]
        if lat:
            p, value = tail(lat)
            m.add(f"ni{bucket}.latency_p50_ms", percentile(lat, 50.0), "ms", f"{len(lat)} pairs")
            m.add(f"ni{bucket}.latency_tail_ms", value, "ms", f"p{p:.4g} of {len(lat)} pairs")
        else:
            m.add(f"ni{bucket}.latency_p50_ms", 0, "ms", na=True)
            m.add(f"ni{bucket}.latency_tail_ms", 0, "ms", na=True)
        m.add(f"ni{bucket}.split.disjuncts_out", sum(r[5] for r in rows), "count", na=not rows)
        m.add(f"ni{bucket}.oracle.queries", sum(r[6] for r in rows), "count", na=not rows)

    traced_lat = pair_latencies([traced])
    m.add("trace.overhead", sum(traced_lat) / sum(pair_latencies(untraced)) - 1.0, "ratio",
          "traced vs untraced time of every pair once, i.e. checks_per_s ratio - 1")


def verify(report, refs, group_sizes):
    """(attempted, failed, wrong) over every round of every phase."""
    flat = {}
    offset = 0
    for gi, size in enumerate(group_sizes):
        for pi in range(size):
            flat[(gi, pi)] = refs[offset + pi]
        offset += size
    attempted = failed = wrong = 0
    errors = []
    for phase in ("untraced", "traced"):
        for rd in report.get(phase, ()):
            for gi, pi, answer, *_rest, error in rd["rows"]:
                attempted += 1
                if error is not None:
                    failed += 1
                    errors.append(error)
                elif answer != flat[(gi, pi)]:
                    wrong += 1
    for error in sorted(set(errors))[:5]:
        print(f"error: {error}")
    return attempted, failed, wrong


def workload_generators() -> dict:
    """Workload name -> generator; imports policheck from the checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads.GENERATORS


def generate(workload: str, seed: int, out: Path, scale: float = 1.0):
    """Write the workload's inputs to `out`; return its reference verdicts."""
    return workload_generators()[workload](out, seed, scale)


def run_runner(suite_dir: Path, seconds: int, trace: int, deadline: float = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "runner.py"), str(suite_dir),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
                            text=True, start_new_session=True)
    try:
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("runner exceeded the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "policheck" / "__init__.py").is_file():
        return fail(f"no policheck sources under {SRC}; run from a source checkout")
    if args.workload not in workload_generators():
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workload_generators())}")
    WORK.mkdir(exist_ok=True)
    suite_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        t0 = time.perf_counter()
        refs = generate(args.workload, args.seed, suite_dir)
        gen_s = time.perf_counter() - t0
        spec = json.loads((suite_dir / "suite.json").read_text(encoding="utf-8"))
        try:
            report = run_runner(suite_dir, args.seconds, args.trace, start + DEADLINE_S)
        except RuntimeError as exc:
            return fail(str(exc))
    finally:
        shutil.rmtree(suite_dir, ignore_errors=True)

    group_sizes = [len(g["pairs"]) for g in spec["groups"]]
    print(f"workload = {args.workload}  seed = {args.seed}  loop = closed, 1 caller")
    print(f"inputs + references generated in {gen_s:.2f} s, "
          f"{len(refs)} timed pairs, {sum(refs)} TRUE references")
    attempted, failed, wrong = verify(report, refs, group_sizes)
    if failed == attempted:
        return fail("every check raised")
    m = Metrics()
    if args.trace:
        per_layer(report, m)
    else:
        end_to_end(report, m)
    m.print()
    print(f"error_share = {failed / attempted:.6g} ratio  ({failed} of {attempted} checks raised)")
    print(f"wrong_verdicts = {wrong} count")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": m.values,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

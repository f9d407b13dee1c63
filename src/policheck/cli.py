"""Command-line front end: check, bench, gen, classify.

Exit codes (stable): 0 success, 1 not-subsumed (only with --exit-status),
2 usage, 3 parse error or bad parameters, 4 signature violation, 5 oracle
failure, 6 file error, 7 unknown class, 8 resource limit exceeded.

Environment overrides: POLICHECK_CACHE_CAP, POLICHECK_SPLIT_CAP,
POLICHECK_ORACLE_TIMEOUT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .benchgen import (
    KB_PRESETS,
    POLICY_PRESETS,
    gen_suite,
    gen_synthetic_oracle,
    parse_manifest,
    preset_params,
)
from .engine import Engine, EngineConfig
from .errors import (
    GenerationError,
    OracleFailure,
    ParseError,
    PolicheckError,
    ResourceLimitError,
    SignatureViolation,
)
from .model import FullConcept, MainKB, Signature
from .oracle import BuiltinOracle, ExternalOracle, OracleHandle, saturate
from .syntax import (
    parse_main_kb,
    parse_oracle_ontology,
    parse_policy,
    parse_signature_decl,
)

EXIT_OK = 0
EXIT_NOT_SUBSUMED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SIGNATURE = 4
EXIT_ORACLE = 5
EXIT_FILE = 6
EXIT_UNKNOWN_CLASS = 7
EXIT_RESOURCE = 8


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc}") from exc


class _FileError(PolicheckError):
    pass


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    return int(raw) if raw else None


def _config(args) -> EngineConfig:
    cache_cap = _env_int("POLICHECK_CACHE_CAP")
    split_cap = _env_int("POLICHECK_SPLIT_CAP") or 1_000_000
    return EngineConfig(
        use_caches=not getattr(args, "no_cache", False),
        cache_cap=cache_cap,
        split_cap=split_cap,
        debug_checks=getattr(args, "debug_checks", False),
    )


def _oracle_from_args(args) -> OracleHandle:
    if getattr(args, "oracle_cmd", None):
        declared = Signature()
        if getattr(args, "oracle_sig", None):
            declared = parse_signature_decl(_read(args.oracle_sig))
        timeout = float(os.environ.get("POLICHECK_ORACLE_TIMEOUT", "30"))
        return ExternalOracle(args.oracle_cmd, declared, timeout=timeout)
    if getattr(args, "oracle", None):
        return BuiltinOracle(parse_oracle_ontology(_read(args.oracle)))
    raise _UsageError("one of --oracle or --oracle-cmd is required")


class _UsageError(PolicheckError):
    pass


def _parse_policy_file(path: str) -> FullConcept:
    try:
        return parse_policy(_read(path))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.message}", exc.line, exc.column, exc.token) from exc


def _parse_kb_file(path: str) -> MainKB:
    try:
        return parse_main_kb(_read(path))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.message}", exc.line, exc.column, exc.token) from exc


def _print_stats(stats: Dict[str, object], mode: str) -> None:
    if mode == "json":
        print(json.dumps(stats, sort_keys=True))
    else:
        for key, value in stats.items():
            if key != "answer":
                print(f"{key}={value}")


def cmd_check(args) -> int:
    if not (args.oracle or args.oracle_cmd):
        raise _UsageError("one of --oracle or --oracle-cmd is required")
    main_kb = _parse_kb_file(args.kb)
    lhs = _parse_policy_file(args.lhs)
    rhs = _parse_policy_file(args.rhs)
    oracle = _oracle_from_args(args)
    with Engine(main_kb, oracle, _config(args)) as engine:
        answer, stats = engine.check(lhs, rhs)
    print("TRUE" if answer else "FALSE")
    _print_stats(stats.to_dict(), args.stats)
    if args.exit_status:
        return EXIT_OK if answer else EXIT_NOT_SUBSUMED
    return EXIT_OK


def cmd_classify(args) -> int:
    onto = parse_oracle_ontology(_read(args.oracle))
    index = saturate(onto)
    known = onto.signature().concepts
    if args.cls:
        if args.cls not in known:
            print(f"unknown class: {args.cls}", file=sys.stderr)
            return EXIT_UNKNOWN_CLASS
        print(" ".join(sorted(index.subsumers_of(args.cls))))
    else:
        for name in sorted(known):
            print(f"{name}: " + " ".join(sorted(index.subsumers_of(name))))
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        params = preset_params(args.preset, args.policy_preset, seed=args.seed)
    except ValueError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.oracle:
        onto = parse_oracle_ontology(_read(args.oracle))
    else:
        onto = gen_synthetic_oracle(args.synthetic_classes, args.seed)
    gen_suite(
        params,
        onto,
        args.out,
        count=args.count,
        compute_expected=not args.no_expected,
    )
    return EXIT_OK


def _bucket(value: int, top: int = 5) -> str:
    return str(value) if value < top else f"{top}+"


def _percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(p / 100.0 * len(ranked)) - 1)]


def cmd_bench(args) -> int:
    manifest_path = Path(args.suite)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "suite.manifest"
    records = parse_manifest(_read(str(manifest_path)))
    base = manifest_path.parent
    config = _config(args)

    engines: Dict[tuple, Engine] = {}
    parsed: Dict[str, object] = {}

    def policy(rel: str) -> FullConcept:
        if rel not in parsed:
            parsed[rel] = _parse_policy_file(str(base / rel))
        return parsed[rel]

    def engine_for(record) -> Engine:
        key = (record.kb, record.oracle)
        if key not in engines:
            kb = _parse_kb_file(str(base / record.kb))
            onto = parse_oracle_ontology(_read(str(base / record.oracle)))
            engines[key] = Engine(kb, onto, config)
        return engines[key]

    for _ in range(args.warmup):
        for record in records:
            try:
                engine_for(record).check(policy(record.lhs), policy(record.rhs))
            except PolicheckError:
                pass

    def run_one(record):
        try:
            engine = engine_for(record)
            answer, stats = engine.check(policy(record.lhs), policy(record.rhs))
        except PolicheckError as exc:
            return record, None, {"lhs": record.lhs, "error": str(exc)}
        row = stats.to_dict()
        row["lhs"] = record.lhs
        row["expected"] = record.expected
        return record, answer, row

    # engines and parsed policies are built up front so worker threads only
    # ever call the (thread-safe) check path
    for record in records:
        engine_for(record)
        policy(record.lhs), policy(record.rhs)

    per_query: List[Dict[str, object]] = []
    mismatches = 0
    failures = 0
    t0 = time.perf_counter()
    for _ in range(max(1, args.repeat)):
        if args.threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                outcomes = list(pool.map(run_one, records))
        else:
            outcomes = [run_one(r) for r in records]
        for record, answer, row in outcomes:
            if "error" in row:
                failures += 1
            elif record.expected in ("true", "false") and answer != (
                record.expected == "true"
            ):
                mismatches += 1
            per_query.append(row)
    elapsed = time.perf_counter() - t0

    buckets: Dict[str, List[Dict[str, object]]] = {}
    for row in per_query:
        if "error" in row:
            continue
        buckets.setdefault(_bucket(int(row["ni"])), []).append(row)

    done = [r for r in per_query if "error" not in r]
    report = {
        "queries": len(per_query),
        "errors": failures,
        "mismatches": mismatches,
        "throughput_per_s": round(len(per_query) / elapsed, 2) if elapsed > 0 else 0.0,
        "total_oracle_calls": sum(int(r["oracle_calls"]) for r in done),
        "total_cache_hits": sum(int(r["cache_hits"]) for r in done),
        "ni_buckets": {
            key: {
                "count": len(rows),
                "mean_wall_ms": round(sum(float(r["wall_ms"]) for r in rows) / len(rows), 4),
                **{
                    f"p{p}_wall_ms": round(
                        _percentile([float(r["wall_ms"]) for r in rows], p), 4
                    )
                    for p in (50, 95, 99)
                },
                "oracle_calls": sum(int(r["oracle_calls"]) for r in rows),
                "cache_hits": sum(int(r["cache_hits"]) for r in rows),
                "mean_disj_after_split": round(
                    sum(int(r["disj_after_split"]) for r in rows) / len(rows), 2
                ),
            }
            for key, rows in sorted(buckets.items())
        },
    }
    for engine in engines.values():
        engine.close()

    if args.report:
        Path(args.report).write_text(
            json.dumps({"summary": report, "queries": per_query}, indent=2),
            encoding="utf-8",
        )
    if args.stats == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"queries={report['queries']} errors={report['errors']} mismatches={report['mismatches']}")
        print(f"throughput_per_s={report['throughput_per_s']}")
        print(f"total_oracle_calls={report['total_oracle_calls']} total_cache_hits={report['total_cache_hits']}")
        for key, row in report["ni_buckets"].items():
            print(
                f"ni={key} count={row['count']} mean_wall_ms={row['mean_wall_ms']} "
                f"p50_wall_ms={row['p50_wall_ms']} p95_wall_ms={row['p95_wall_ms']} "
                f"p99_wall_ms={row['p99_wall_ms']} "
                f"oracle_calls={row['oracle_calls']} cache_hits={row['cache_hits']} "
                f"mean_disj_after_split={row['mean_disj_after_split']}"
            )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="policheck", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="decide one subsumption")
    check.add_argument("--kb", required=True)
    check.add_argument("--lhs", required=True)
    check.add_argument("--rhs", required=True)
    check.add_argument("--oracle")
    check.add_argument("--oracle-cmd")
    check.add_argument("--oracle-sig", help="declared signature file for --oracle-cmd")
    check.add_argument("--no-cache", action="store_true")
    check.add_argument("--stats", choices=("text", "json"), default="text")
    check.add_argument("--exit-status", action="store_true")
    check.add_argument("--debug-checks", action="store_true")
    check.set_defaults(fn=cmd_check)

    bench = subs.add_parser("bench", help="run a generated suite")
    bench.add_argument("--suite", required=True, help="manifest file from gen")
    bench.add_argument("--repeat", type=int, default=1)
    bench.add_argument("--warmup", type=int, default=0)
    bench.add_argument("--report", help="write detailed JSON report to this file")
    bench.add_argument("--no-cache", action="store_true")
    bench.add_argument("--stats", choices=("text", "json"), default="text")
    bench.add_argument("--threads", type=int, default=1)
    bench.set_defaults(fn=cmd_bench)

    gen = subs.add_parser("gen", help="generate a synthetic suite")
    gen.add_argument("--preset", default="K1", choices=sorted(KB_PRESETS))
    gen.add_argument("--policy-preset", default="P1", choices=sorted(POLICY_PRESETS))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=None, help="queries (default: preset scale, 3600)")
    gen.add_argument("--out", required=True)
    gen.add_argument("--oracle", help="use this .horn vocabulary")
    gen.add_argument("--synthetic-classes", type=int, default=200)
    gen.add_argument("--no-expected", action="store_true", help="skip reference answers")
    gen.set_defaults(fn=cmd_gen)

    classify = subs.add_parser("classify", help="print saturated subsumers")
    classify.add_argument("--oracle", required=True)
    classify.add_argument("--class", dest="cls")
    classify.set_defaults(fn=cmd_classify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SignatureViolation as exc:
        print(f"signature violation: {exc}", file=sys.stderr)
        return EXIT_SIGNATURE
    except OracleFailure as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _FileError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

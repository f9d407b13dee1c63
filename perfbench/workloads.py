"""Seeded inputs and reference answers for the benchmark workloads.

Each generator writes one suite directory, which the runner loads through
policheck's own parsers:

    main.plkb     main KB
    vocab.horn    oracle vocabulary
    vocab.sig     declared oracle signature (external-oracle workload only)
    *.plp         policies, one per line
    suite.json    engine groups with their warm-up checks and timed pairs,
                  each pair given as (lhs, rhs) indices into the policies

and returns the reference verdict of every timed pair, in group order.
References come from `policheck.ref_decide`, computed here, in the
generating process, never in the process that runs the checks.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from policheck import (
    BuiltinOracle,
    FullConcept,
    Interval,
    IntervalAtom,
    MainKB,
    Name,
    OracleOntology,
    conj,
    parse_main_kb,
    parse_policy,
    ref_decide,
    refcheck,
)
from policheck.benchgen import (
    gen_main_kb,
    gen_policy,
    gen_suite,
    gen_synthetic_oracle,
    mutate_consent,
    preset_params,
)
from policheck.model import partition
from policheck.syntax import (
    serialize_main_kb,
    serialize_oracle_ontology,
    serialize_policy,
)

Pair = Tuple[FullConcept, FullConcept]

# The deployment (vocabulary and main KB) of a workload is fixed, by the
# seed of the acceptance criterion it comes from; the traffic (policies,
# mutations, order) is drawn from the run's seed.  The main KB decides
# how much every check normalizes (its range and functionality axioms),
# so a KB drawn per run moved checks/s by a third between seeds.
CONSENT_DEPLOYMENT_SEED = 7007
SWEEP_DEPLOYMENT_SEED = 6006


@contextmanager
def shared_saturation(onto: OracleOntology):
    """Let ref_decide reuse one saturated index of `onto`.

    ref_decide builds a fresh BuiltinOracle, and so saturates the whole
    vocabulary, on every call; at 8-10k classes that is about 0.2 s per
    pair.  Inside this block, ref_decide looks up `BuiltinOracle` as a
    module global and gets a fork that shares one index.  Other
    ontologies still get a fresh oracle, and a fork that is given shifted
    axioms drops the shared index and saturates again, so answers do not
    change.
    """
    real = refcheck.BuiltinOracle
    saturated = real(onto)
    saturated.index

    def make(ontology, **kwargs):
        if ontology is onto and not kwargs:
            return saturated.fork()
        return real(ontology, **kwargs)

    refcheck.BuiltinOracle = make
    try:
        yield
    finally:
        refcheck.BuiltinOracle = real


def references(kb: MainKB, onto: OracleOntology, pairs: Sequence[Pair]) -> List[bool]:
    with shared_saturation(onto):
        return [ref_decide(kb, onto, lhs, rhs) for lhs, rhs in pairs]


class _Policies:
    """Interns policies into a list; pairs refer to them by index."""

    def __init__(self) -> None:
        self.items: List[FullConcept] = []
        self._index: Dict[FullConcept, int] = {}

    def add(self, policy: FullConcept) -> int:
        if policy not in self._index:
            self._index[policy] = len(self.items)
            self.items.append(policy)
        return self._index[policy]

    def write(self, path: Path) -> None:
        path.write_text(
            "".join(serialize_policy(p) + "\n" for p in self.items), encoding="utf-8"
        )


def _write_common(out: Path, kb: MainKB, onto: OracleOntology) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "main.plkb").write_text(serialize_main_kb(kb), encoding="utf-8")
    (out / "vocab.horn").write_text(serialize_oracle_ontology(onto), encoding="utf-8")


def _write_suite(out: Path, oracle: str, files: List[str], groups) -> None:
    suite = {"oracle": oracle, "policy_files": files, "groups": groups}
    (out / "suite.json").write_text(json.dumps(suite, indent=1) + "\n", encoding="utf-8")


def consent_stream(out: Path, seed: int, scale: float = 1.0) -> List[bool]:
    """The criterion-7 stream: business policies, each checked against
    opt-out consent mutations of itself, shuffled, on one engine whose norm
    cache is warmed once per business policy.  96 policies rather than the
    criterion's 16, so that one run averages over many of them."""
    n_business = max(1, round(96 * scale))
    n_mutations = max(1, round(12 * scale))
    onto = gen_synthetic_oracle(10_000, seed=CONSENT_DEPLOYMENT_SEED)
    vocab = onto.class_names()
    params = preset_params(
        "K1", "P1",
        max_intervals=1,
        p_delete=0.3, p_generalize=0.4, p_specialize=0.0, p_add_disjunct=0.0,
        seed=CONSENT_DEPLOYMENT_SEED,
    )
    kb = gen_main_kb(params, random.Random(CONSENT_DEPLOYMENT_SEED), vocab)
    rng = random.Random(seed)
    handle = BuiltinOracle(onto).load_shifted(partition(kb).shifted)
    k_minus = partition(kb).k_minus

    businesses = [
        gen_policy(params, vocab, rng, oracle=handle, k_minus=k_minus)
        for _ in range(n_business)
    ]
    stream: List[Pair] = []
    for business in businesses:
        for _ in range(n_mutations):
            consent, _ = mutate_consent(business, params, handle, rng)
            stream.append((business, consent))
    rng.shuffle(stream)

    pol = _Policies()
    warm = [[pol.add(b), pol.add(b)] for b in businesses]
    pairs = [[pol.add(lhs), pol.add(rhs)] for lhs, rhs in stream]
    _write_common(out, kb, onto)
    pol.write(out / "policies.plp")
    _write_suite(
        out, "builtin", ["policies.plp"], [{"warm": warm, "pairs": pairs}],
    )
    return references(kb, onto, stream)


INTERVAL_SUITE_SEED = 7
INTERVAL_SUITE_CLASSES = 500


def interval_suite(out: Path, seed: int, scale: float = 1.0) -> List[bool]:
    """`policheck gen --seed 7 --count 24 --preset K1 --policy-preset P1
    --synthetic-classes 500`, each pair checked on an engine of its own.

    Every business policy is distinct and ni runs from 2 to 8.  The suite
    is fixed and `seed` is not used: a handful of its checks take most of
    its time (two of these 24 split into about 2 900 disjuncts each and take
    1.5-2 s, the median check about 20 ms), so suites drawn from different
    seeds differ in cost by up to eight times.  Run-to-run spread would then
    measure the draw, not the program.  Each pair is a group of its own
    (fresh engine, empty caches), so the runner can time the cheap pairs
    many times while the slow ones run a few times; sharing one engine in
    suite order changed no pair's latency beyond run-to-run noise, since
    the pairs share no business policy.
    """
    count = max(1, round(24 * scale))
    onto = gen_synthetic_oracle(INTERVAL_SUITE_CLASSES, INTERVAL_SUITE_SEED)
    records = gen_suite(
        preset_params("K1", "P1", seed=INTERVAL_SUITE_SEED), onto, out,
        count=count, compute_expected=False,
    )
    files: List[str] = []
    pairs: List[List[int]] = []
    concepts: List[Pair] = []
    for rec in records:
        pairs.append([len(files), len(files) + 1])
        files += [rec.lhs, rec.rhs]
        concepts.append(tuple(
            parse_policy((out / name).read_text(encoding="utf-8"))
            for name in (rec.lhs, rec.rhs)
        ))
    _write_suite(
        out, "builtin", files, [{"warm": [], "pairs": [pair]} for pair in pairs],
    )
    kb = parse_main_kb((out / "main.plkb").read_text(encoding="utf-8"))
    # ref_decide's default split cap resolves the pairs that gen_suite
    # would leave `unknown` under its own 2048-disjunct cap.
    return references(kb, onto, concepts)


SWEEP_BUCKETS = 5  # ni = 0..4


def ni_sweep_ext(out: Path, seed: int, scale: float = 1.0) -> List[bool]:
    """The criterion-6 sweep: shared name skeletons with ni = 0..4 interval
    atoms per disjunct, each cut into three pieces, checked against the
    external reference oracle with a fresh engine per ni bucket.

    The consent keeps a widened copy of every business interval plus one
    cutter disjunct, so every answer is TRUE by construction and every
    split disjunct is processed.
    """
    n_queries = max(1, round(16 * scale))
    onto = gen_synthetic_oracle(8_000, seed=SWEEP_DEPLOYMENT_SEED)
    vocab = onto.class_names()
    params = preset_params(
        "K1", "P1",
        disjuncts=10, depth=2, max_conjuncts=4, max_atoms=12,
        exists_per_level=2, max_intervals=0,
        p_delete=0.25, p_generalize=0.4, p_specialize=0.0, p_add_disjunct=0.0,
        seed=SWEEP_DEPLOYMENT_SEED,
    )
    kb = gen_main_kb(params, random.Random(SWEEP_DEPLOYMENT_SEED), vocab)
    rng = random.Random(seed)
    handle = BuiltinOracle(onto).load_shifted(partition(kb).shifted)
    k_minus = partition(kb).k_minus
    skeletons = []
    for _ in range(n_queries):
        business = gen_policy(params, vocab, rng, oracle=handle, k_minus=k_minus)
        consent, _ = mutate_consent(business, params, handle, rng)
        skeletons.append((business, consent))

    def atoms(ni: int, lo_off: int, hi_off: int):
        return [
            IntervalAtom(f"iv{k}", Interval(20 * k + lo_off, 20 * k + hi_off))
            for k in range(ni)
        ]

    def business_with(policy: FullConcept, ni: int) -> FullConcept:
        if not ni:
            return policy
        return FullConcept(tuple(conj([d, *atoms(ni, 3, 15)]) for d in policy.disjuncts))

    def consent_with(policy: FullConcept, ni: int) -> FullConcept:
        # "SplitMarker" matches nothing: the cutter disjunct only adds cuts
        cutter = conj([Name("SplitMarker"), *atoms(ni, 7, 11)])
        covered = policy.disjuncts
        if ni:
            covered = tuple(conj([d, *atoms(ni, 0, 18)]) for d in policy.disjuncts)
        return FullConcept((cutter,) + covered)

    pol = _Policies()
    groups = []
    all_pairs: List[Pair] = []
    for ni in range(SWEEP_BUCKETS):
        bucket = [(business_with(b, ni), consent_with(c, ni)) for b, c in skeletons]
        all_pairs += bucket
        groups.append({
            "warm": [],
            "pairs": [[pol.add(lhs), pol.add(rhs)] for lhs, rhs in bucket],
        })
    _write_common(out, kb, onto)
    sig = onto.signature()
    (out / "vocab.sig").write_text(
        "".join(f"concept {n}\n" for n in sorted(sig.concepts))
        + "".join(f"role {n}\n" for n in sorted(sig.roles)),
        encoding="utf-8",
    )
    pol.write(out / "policies.plp")
    _write_suite(out, "external", ["policies.plp"], groups)
    return references(kb, onto, all_pairs)


GENERATORS = {
    "consent_stream": consent_stream,
    "interval_suite": interval_suite,
    "ni_sweep_ext": ni_sweep_ext,
}

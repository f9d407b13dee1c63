import random
import threading

import pytest

from policheck import (
    BuiltinOracle,
    Engine,
    EngineConfig,
    FullConcept,
    Interval,
    IntervalAtom,
    MainKB,
    OracleOntology,
    ResourceLimitError,
    SignatureViolation,
    conj,
    build_engine,
    normalize_full,
    parse_main_kb,
    parse_oracle_ontology,
    parse_policy,
    ref_decide,
    split_intervals,
    sts_check,
)
from policheck.model import partition

from support import random_full, random_instance, split_heavy_instance

GDPR_KB = """
func has_purpose
func has_data
func has_processing
func has_recipient
func has_storage
func has_location
func has_duration
range has_purpose AnyPurpose
range has_data AnyData
range has_recipient AnyRecipient
"""

GDPR_VOCAB = """
sub Location AnyData
sub DemographicData AnyData
sub Marketing AnyPurpose
sub Research AnyPurpose
sub ThirdParty AnyRecipient
disj Marketing Research
disj AnyData AnyPurpose
subex relates_to Location AnyData
"""

BUSINESS = """
(and (some has_purpose Marketing)
     (some has_data Location)
     (some has_recipient ThirdParty)
     (some has_storage (and (some has_location EU) (int has_duration 30 365))))
"""


def _gdpr_engine(**cfg):
    return Engine(
        parse_main_kb(GDPR_KB),
        parse_oracle_ontology(GDPR_VOCAB),
        EngineConfig(**cfg) if cfg else None,
    )


def test_reflexive_check_is_true():
    engine = _gdpr_engine()
    policy = parse_policy(BUSINESS)
    answer, stats = engine.check(policy, policy)
    assert answer
    assert stats.disj_before == 1


def test_vocabulary_generalization_compliance():
    # consent allows any data, longer storage: business complies
    engine = _gdpr_engine()
    consent = parse_policy(
        """
        (and (some has_purpose Marketing)
             (some has_data AnyData)
             (some has_storage (int has_duration 0 400)))
        """
    )
    answer, _ = engine.check(parse_policy(BUSINESS), consent)
    assert answer
    assert ref_decide(
        parse_main_kb(GDPR_KB), parse_oracle_ontology(GDPR_VOCAB),
        parse_policy(BUSINESS), consent,
    )


def test_deleted_conjunct_consent_is_broader():
    engine = _gdpr_engine()
    consent = parse_policy(
        """
        (and (some has_purpose Marketing)
             (some has_data Location)
             (some has_storage (and (some has_location EU) (int has_duration 30 365))))
        """
    )
    assert engine.check(parse_policy(BUSINESS), consent)[0]


def test_disjoint_purposes_fail():
    engine = _gdpr_engine()
    consent = parse_policy("(and (some has_purpose Research) (some has_data AnyData))")
    answer, _ = engine.check(parse_policy(BUSINESS), consent)
    assert not answer


def test_narrower_consent_interval_fails():
    engine = _gdpr_engine()
    consent = parse_policy(
        "(and (some has_purpose Marketing) (some has_storage (int has_duration 60 365)))"
    )
    assert not engine.check(parse_policy(BUSINESS), consent)[0]


def test_build_engine_shifts_axioms():
    engine = build_engine(parse_main_kb("func p\nsub A B"), OracleOntology(()))
    assert engine.check(parse_policy("A"), parse_policy("B"))[0]
    assert engine.k_minus == MainKB(func={"p"})


def test_empty_engine_answers_trivia():
    engine = build_engine(MainKB(), OracleOntology(()))
    assert engine.check(parse_policy("A"), parse_policy("A"))[0]
    assert not engine.check(parse_policy("A"), parse_policy("B"))[0]


def test_shared_role_is_a_construction_error():
    kb = parse_main_kb("func has_data\nrange has_data AnyData")
    oracle = parse_oracle_ontology("subex has_data A B")
    with pytest.raises(SignatureViolation) as err:
        Engine(kb, oracle)
    assert "has_data" in err.value.names


def test_query_signature_validated_per_check():
    engine = Engine(MainKB(), parse_oracle_ontology("subex vr A B"))
    with pytest.raises(SignatureViolation):
        engine.check(parse_policy("(some vr A)"), parse_policy("A"))


def test_cache_soundness_randomized():
    rng = random.Random(47)
    for _ in range(120):
        kb, onto, lhs, rhs = random_instance(rng)
        cached = Engine(kb, onto)
        uncached = Engine(kb, onto, EngineConfig(use_caches=False))
        assert cached.check(lhs, rhs)[0] == uncached.check(lhs, rhs)[0]


def test_cache_capped_engine_stays_sound():
    rng = random.Random(53)
    for _ in range(40):
        kb, onto, lhs, rhs = random_instance(rng)
        plain = Engine(kb, onto, EngineConfig(use_caches=False))
        capped = Engine(kb, onto, EngineConfig(cache_cap=4))
        assert plain.check(lhs, rhs)[0] == capped.check(lhs, rhs)[0]


def test_repeat_checks_hit_norm_cache():
    engine = _gdpr_engine()
    policy = parse_policy(BUSINESS)
    consent = parse_policy("(some has_purpose Marketing)")
    n = 5
    results = [engine.check(policy, consent)[0] for _ in range(n)]
    assert results == [results[0]] * n
    assert engine.norm_cache_hits >= n - 1


def test_check_batch_order_and_errors():
    engine = _gdpr_engine()
    good = (parse_policy(BUSINESS), parse_policy("(some has_purpose Marketing)"))
    bad_pair = (parse_policy("(some has_purpose Research)"), parse_policy(BUSINESS))
    # a query using an oracle-internal role gets an error entry
    violating = (parse_policy("(some relates_to A)"), parse_policy("A"))
    results, summary = engine.check_batch([good, bad_pair, good, violating])
    assert [r.answer for r in results[:3]] == [True, False, True]
    assert results[3].answer is None and "shared" in results[3].error
    assert summary.pairs == 4
    assert summary.true_count == 2 and summary.false_count == 1 and summary.error_count == 1


def test_check_batch_empty():
    engine = _gdpr_engine()
    results, summary = engine.check_batch([])
    assert results == [] and summary.pairs == 0


def test_check_batch_threads_match_sequential():
    rng = random.Random(59)
    kb, onto, _, _ = random_instance(rng)
    pairs = []
    for _ in range(24):
        pairs.append((random_full(rng), random_full(rng)))
    sequential = Engine(kb, onto)
    threaded = Engine(kb, onto)
    seq_results, _ = sequential.check_batch(pairs)
    thr_results, _ = threaded.check_batch(pairs, threads=4)
    assert [r.answer for r in seq_results] == [r.answer for r in thr_results]


def test_stats_snapshot_identities():
    engine = _gdpr_engine()
    zero = engine.stats_snapshot()
    assert zero.checks == 0 and zero.oracle_calls == 0 and zero.query_attempts == 0

    policy = parse_policy(BUSINESS)
    consents = [
        parse_policy("(some has_purpose Marketing)"),
        parse_policy("(and (some has_purpose Marketing) (some has_data AnyData))"),
        parse_policy("(some has_purpose Research)"),
    ]
    per_check = [engine.check(policy, c)[1] for c in consents for _ in range(2)]
    snap = engine.stats_snapshot()
    assert snap.checks == len(per_check)
    assert snap.oracle_calls == sum(s.oracle_calls for s in per_check)
    assert snap.cache_hits == sum(s.cache_hits for s in per_check)
    assert snap.query_attempts == snap.oracle_calls + snap.cache_hits
    assert snap.oracle_calls == engine.oracle.calls


def test_stats_disjunct_counts_with_split():
    engine = build_engine(MainKB(), OracleOntology(()))
    lhs = parse_policy("(or (int f 0 10) A)")
    rhs = parse_policy("(or (int f 5 20) B)")
    answer, stats = engine.check(lhs, rhs)
    assert stats.disj_before == 2
    assert stats.disj_after_norm == 2
    assert stats.disj_after_split == 3  # interval split in two, A unchanged
    assert stats.ni == 1
    assert not answer


def test_convex_combination_property():
    # for interval-safe normalized unions the pairing loop equals the
    # and-of-or combination of the simple checks
    rng = random.Random(61)
    for _ in range(80):
        kb, onto, lhs, rhs = random_instance(rng)
        oracle = BuiltinOracle(onto).load_shifted(partition(kb).shifted)
        k_minus = partition(kb).k_minus
        normalized, _ = normalize_full(lhs, k_minus, oracle)
        split = split_intervals(normalized, rhs)
        engine = Engine(kb, onto)
        whole, _ = engine.check(lhs, rhs)
        pairwise = all(
            any(sts_check(ci, dj, oracle) for dj in rhs.disjuncts)
            for ci in split.disjuncts
        )
        assert whole == pairwise


def test_concurrent_checks_agree_with_sequential():
    engine = _gdpr_engine()
    rng = random.Random(67)
    vocab = ["Marketing", "Research", "AnyPurpose", "Location", "AnyData"]
    pairs = [(random_full(rng, vocab=vocab), random_full(rng, vocab=vocab)) for _ in range(40)]
    expected = [Engine(parse_main_kb(GDPR_KB), parse_oracle_ontology(GDPR_VOCAB)).check(l, r)[0] for l, r in pairs]

    answers = [None] * len(pairs)
    errors = []

    def worker(indices):
        for i in indices:
            try:
                answers[i] = engine.check(*pairs[i])[0]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(range(k, len(pairs), 4),)) for k in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert answers == expected


def test_debug_checks_mode_runs_clean():
    engine = _gdpr_engine(debug_checks=True)
    answer, _ = engine.check(
        parse_policy(BUSINESS),
        parse_policy("(and (some has_purpose Marketing) (some has_data AnyData))"),
    )
    assert answer


def test_engine_matches_ref_on_random_instances():
    rng = random.Random(71)
    for _ in range(150):
        kb, onto, lhs, rhs = random_instance(rng)
        engine = Engine(kb, onto)
        assert engine.check(lhs, rhs)[0] == ref_decide(kb, onto, lhs, rhs)


def test_symbolic_split_agrees_with_materialized_and_reference():
    # cached engines decide the piece grid symbolically, uncached ones
    # build every split copy, ref_decide evaluates canonical models
    rng = random.Random(73)
    answers = []
    for _ in range(200):
        kb, onto, lhs, rhs = split_heavy_instance(rng)
        symbolic, _ = Engine(kb, onto).check(lhs, rhs)
        materialized, _ = Engine(kb, onto, EngineConfig(use_caches=False)).check(lhs, rhs)
        assert symbolic == materialized == ref_decide(kb, onto, lhs, rhs), (lhs, rhs)
        answers.append(symbolic)
    assert 0 < sum(answers) < len(answers)


def test_symbolic_split_reports_materialized_disjunct_count():
    rng = random.Random(79)
    for _ in range(100):
        kb, onto, lhs, rhs = split_heavy_instance(rng)
        engine = Engine(kb, onto)
        _, stats = engine.check(lhs, rhs)
        normalized, _ = normalize_full(lhs, engine.k_minus, engine.oracle)
        assert stats.disj_after_split == len(split_intervals(normalized, rhs).disjuncts)


def test_split_cap_is_the_same_on_both_paths():
    # 3 atoms cut into 4 pieces each: a grid of 64
    lhs = FullConcept((conj([IntervalAtom(f"p{i}", Interval(0, 39)) for i in range(3)]),))
    cutters = [IntervalAtom(f"p{i}", Interval(10 * j, 10 * j + 9)) for i in range(3) for j in (1, 2)]
    rhs = FullConcept((conj(cutters),))

    def engine(**cfg):
        return Engine(MainKB(), OracleOntology(()), EngineConfig(**cfg))

    for use_caches in (True, False):
        with pytest.raises(ResourceLimitError):
            engine(use_caches=use_caches, split_cap=63).check(lhs, rhs)
        answer, stats = engine(use_caches=use_caches, split_cap=64).check(lhs, rhs)
        assert not answer and stats.disj_after_split == 64


def test_symbolic_split_false_at_the_last_grid_point():
    # f and g are each cut in two; the right-hand side covers every
    # combination except (f 5..9, g 5..9), the last one in split order
    engine = build_engine(MainKB(), OracleOntology(()))
    uncached = build_engine(MainKB(), OracleOntology(()), EngineConfig(use_caches=False))
    lhs = parse_policy("(and A (int f 0 9) (int g 0 9))")
    rhs = parse_policy("(or (and A (int f 0 4)) (and (int f 5 9) (int g 0 4)))")
    for e in (engine, uncached):
        answer, stats = e.check(lhs, rhs)
        assert not answer and stats.disj_after_split == 4
    closed = parse_policy(
        "(or (and A (int f 0 4)) (and (int f 5 9) (int g 0 4)) (int g 5 9))"
    )
    assert engine.check(lhs, closed)[0] and uncached.check(lhs, closed)[0]

"""Shared randomized-instance generators for the test suite.

All generators take an explicit random.Random so tests stay reproducible.
Policy roles/properties and oracle-internal roles live in disjoint name
spaces, so generated instances always satisfy the signature-separation
invariant.
"""

from itertools import product

from policheck import (
    BOT,
    Conj,
    Exists,
    FullConcept,
    HornAxiom,
    Interval,
    IntervalAtom,
    MainKB,
    Name,
    OracleOntology,
    conj,
)
from policheck.model import interval_atom_count

CONCEPTS = [f"A{i}" for i in range(10)]
POLICY_ROLES = [f"r{i}" for i in range(4)]
PROPS = [f"f{i}" for i in range(3)]
ORACLE_ROLES = [f"vr{i}" for i in range(3)]


def random_horn_ontology(rng, names=None, n_axioms=12, with_roles=True):
    names = list(names or CONCEPTS)
    axioms = []
    kinds = ["sub"] * 5 + ["subconj"] * 2 + ["disj"] * 2 + ["bot"]
    if with_roles:
        kinds += ["subex", "supex", "subrole"]
    for _ in range(n_axioms):
        kind = rng.choice(kinds)
        if kind == "sub":
            axioms.append(HornAxiom("sub", (rng.choice(names), rng.choice(names))))
        elif kind == "subconj":
            axioms.append(
                HornAxiom("subconj", (rng.choice(names), rng.choice(names), rng.choice(names)))
            )
        elif kind == "disj":
            axioms.append(HornAxiom("disj", (rng.choice(names), rng.choice(names))))
        elif kind == "bot":
            axioms.append(HornAxiom("bot", (rng.choice(names),)))
        elif kind == "subex":
            axioms.append(
                HornAxiom(
                    "subex", (rng.choice(ORACLE_ROLES), rng.choice(names), rng.choice(names))
                )
            )
        elif kind == "supex":
            axioms.append(
                HornAxiom(
                    "supex", (rng.choice(names), rng.choice(ORACLE_ROLES), rng.choice(names))
                )
            )
        else:
            axioms.append(
                HornAxiom("subrole", (rng.choice(ORACLE_ROLES), rng.choice(ORACLE_ROLES)))
            )
    return OracleOntology(tuple(axioms))


def random_propositional_ontology(rng, names, n_axioms):
    """Role-free ontology over the given names (brute-force comparable)."""
    axioms = []
    for _ in range(n_axioms):
        kind = rng.choice(["sub", "sub", "sub", "subconj", "disj", "bot"])
        if kind == "sub":
            axioms.append(HornAxiom("sub", (rng.choice(names), rng.choice(names))))
        elif kind == "subconj":
            axioms.append(
                HornAxiom("subconj", (rng.choice(names), rng.choice(names), rng.choice(names)))
            )
        elif kind == "disj":
            axioms.append(HornAxiom("disj", (rng.choice(names), rng.choice(names))))
        else:
            axioms.append(HornAxiom("bot", (rng.choice(names),)))
    return OracleOntology(tuple(axioms))


def random_main_kb(rng, vocab=CONCEPTS):
    func = {r for r in POLICY_ROLES if rng.random() < 0.5}
    func |= {f for f in PROPS if rng.random() < 0.5}
    ranges = {
        (rng.choice(POLICY_ROLES), rng.choice(vocab)) for _ in range(rng.randint(0, 3))
    }
    inclusions = {
        (rng.choice(vocab), rng.choice(vocab)) for _ in range(rng.randint(0, 3))
    }
    disjointness = {
        (rng.choice(vocab), rng.choice(vocab)) for _ in range(rng.randint(0, 2))
    }
    return MainKB(func=func, ranges=ranges, inclusions=inclusions, disjointness=disjointness)


def random_interval(rng, allow_empty=True):
    lo = rng.randint(0, 15)
    if allow_empty and rng.random() < 0.1:
        hi = rng.randint(0, 15)  # may land below lo
    else:
        hi = lo + rng.randint(0, 8)
    return Interval(lo, hi)


def random_simple(rng, depth=3, vocab=CONCEPTS, max_ivs=2, allow_bot=True):
    budget = [max_ivs]

    def gen(level):
        parts = []
        width = rng.randint(1, 3)
        for _ in range(width):
            roll = rng.random()
            if allow_bot and roll < 0.03:
                parts.append(BOT)
            elif roll < 0.45 or (level >= depth and roll < 0.8):
                parts.append(Name(rng.choice(vocab)))
            elif roll < 0.65 and budget[0] > 0:
                budget[0] -= 1
                parts.append(IntervalAtom(rng.choice(PROPS), random_interval(rng)))
            elif level < depth:
                parts.append(Exists(rng.choice(POLICY_ROLES), gen(level + 1)))
            else:
                parts.append(Name(rng.choice(vocab)))
        return conj(parts)

    return gen(1)


def random_full(rng, max_disjuncts=3, depth=3, vocab=CONCEPTS, allow_bot=True):
    n = rng.randint(1, max_disjuncts)
    return FullConcept(
        tuple(random_simple(rng, depth, vocab, allow_bot=allow_bot) for _ in range(n))
    )


def random_instance(rng, with_roles=True):
    """A full subsumption instance within the acceptance-criterion bounds:
    <= 3 disjuncts per side, depth <= 3, <= 2 interval atoms per simple
    concept, oracles <= 30 names / <= 60 axioms."""
    n_names = rng.randint(4, 10)
    names = CONCEPTS[:n_names]
    onto = random_horn_ontology(rng, names, rng.randint(0, 20), with_roles=with_roles)
    kb = random_main_kb(rng, names)
    lhs = random_full(rng, vocab=names)
    rhs = random_full(rng, vocab=names)
    return kb, onto, lhs, rhs


def split_heavy_instance(rng):
    """An instance whose left-hand side splits heavily: 1-2 disjuncts of up
    to 4 interval-atom occurrences, some nested under existentials, some
    repeating one atom value at two positions, some repeating the
    non-functional property f0 in one conjunction.  Most right-hand
    disjuncts are variants of left-hand ones: with moved intervals, or as
    tiles cut apart at one or two occurrences, so that TRUE answers often
    need several right-hand disjuncts to cover one left-hand disjunct."""
    kb, onto, _, _ = random_instance(rng)
    kb = MainKB(
        func=kb.func - {"f0"},
        ranges=kb.ranges,
        inclusions=kb.inclusions,
        disjointness=kb.disjointness,
    )
    names = CONCEPTS[:5]
    roles = POLICY_ROLES[:2]

    def atom(prop=None):
        lo = rng.randint(0, 8)
        return IntervalAtom(prop or rng.choice(PROPS), Interval(lo, lo + rng.randint(4, 14)))

    def simple(k):
        atoms = [atom() for _ in range(k)]
        if k >= 2 and rng.random() < 0.4:
            atoms[0], atoms[1] = atom("f0"), atom("f0")
        parts = [Name(rng.choice(names))]
        for a in atoms:
            if rng.random() < 0.35:
                parts.append(Exists(rng.choice(roles), conj([a, Name(rng.choice(names))])))
            else:
                parts.append(a)
        if k < 4 and rng.random() < 0.4:
            parts.append(Exists(rng.choice(roles), atoms[0]))
        return conj(parts)

    def moved(c):
        if isinstance(c, IntervalAtom):
            lo = max(0, c.iv.lo + rng.randint(-3, 5))
            return IntervalAtom(c.prop, Interval(lo, max(lo, c.iv.hi + rng.randint(-5, 3))))
        if isinstance(c, Exists):
            return Exists(c.role, moved(c.filler))
        if isinstance(c, Conj):
            kept = [p for p in c.parts if rng.random() < 0.7] or [rng.choice(c.parts)]
            return conj([moved(p) for p in kept])
        return c

    def tiles(c):
        # copies of c, cut apart at one or two occurrences, that together
        # cover c; one of them is sometimes left out
        n = interval_atom_count(c)
        targets = rng.sample(range(n), min(n, rng.randint(1, 2)))
        mids = {t: rng.randint(2, 14) for t in targets}

        def widened(c, upper, seen):
            if isinstance(c, IntervalAtom):
                i = len(seen)
                seen.append(i)
                if i not in mids:
                    return IntervalAtom(c.prop, Interval(max(0, c.iv.lo - 1), c.iv.hi + 2))
                mid = mids[i]
                iv = Interval(mid + 1, 40) if upper[i] else Interval(0, mid)
                return IntervalAtom(c.prop, iv)
            if isinstance(c, Exists):
                return Exists(c.role, widened(c.filler, upper, seen))
            if isinstance(c, Conj):
                return conj([widened(p, upper, seen) for p in c.parts])
            return c

        out = [
            widened(c, dict(zip(targets, flags)), [])
            for flags in product((False, True), repeat=len(targets))
        ]
        if rng.random() < 0.3:
            out.pop(rng.randrange(len(out)))
        return out

    lhs = FullConcept(tuple(simple(rng.randint(1, 4)) for _ in range(rng.randint(1, 2))))
    parts = []
    want = rng.randint(1, 4)
    while len(parts) < want:
        roll = rng.random()
        if roll < 0.4:
            parts.extend(tiles(rng.choice(lhs.disjuncts)))
        elif roll < 0.85:
            parts.append(moved(rng.choice(lhs.disjuncts)))
        else:
            parts.append(simple(rng.randint(1, 2)))
    return kb, onto, lhs, FullConcept(tuple(parts))

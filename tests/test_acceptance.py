"""Acceptance suite: one test per contract criterion, all arithmetic exact.

Every check is property-based against a brute-force oracle; there are no
tolerances anywhere because nothing is floating point.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line per
criterion.
"""

import random
import time
from fractions import Fraction

import limitlab as ll
from generators import (
    EIGHTHS,
    gen_forcing_instance,
    gen_open_family,
    gen_semimeasure_family,
    gen_set_family,
    gen_trace,
)
from oracles import all_strings, complexity_by_enumeration, member, strings_up_to
from test_cli import GOLDEN, GOLDEN_RUNS, run, with_input_paths
from test_covers import tree_constraints_hold


def report(number, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS  criterion {number}: {label}{suffix}")


def test_criterion_1_small_set_covers():
    rng = random.Random(20260801)
    started = time.monotonic()
    cases = 0
    while cases < 200:
        p = gen_set_family(rng)
        assert len(ll.breakpoints(p)) <= 6 and p.k <= 4 and len(p.universe) <= 20
        cover = ll.cover_sets(p)
        assert ll.liminf_family(p) <= cover.elements
        assert len(cover.elements) < 2**p.k
        cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(1, "cover_sets contains the liminf within capacity", f"{cases} cases, {elapsed:.2f}s")


def test_criterion_2_semimeasure_covers():
    rng = random.Random(20260802)
    cases = 0
    while cases < 200:
        p = gen_semimeasure_family(rng)
        cover = ll.cover_semimeasure(p, EIGHTHS)
        if p.tree:
            assert tree_constraints_hold(dict(cover.values))
        else:
            assert cover.total_mass() <= 1
        for u, v in ll.liminf_family(p).items():
            assert cover.value(u) >= v
        cases += 1
    report(2, "cover_semimeasure dominates the liminf within mass 1", f"{cases} cases")


def test_criterion_3_open_covers():
    rng = random.Random(20260803)
    cases = 0
    while cases < 200:
        p = gen_open_family(rng)
        lmax = max((len(ev.interval) for ev in p.events), default=0)
        assert lmax <= 6
        cover = ll.cover_open(p, lmax=lmax)
        assert cover.region.measure() <= p.epsilon
        assert ll.liminf_family(p).difference(cover.region).is_empty()
        cases += 1
    report(3, "cover_open contains the liminf within measure epsilon", f"{cases} cases")


def test_criterion_4_decomposition_and_strong_cover():
    rng = random.Random(20260804)
    cases = 0
    while cases < 200:
        p = gen_open_family(rng, with_granularity=True)
        parts = ll.decompose_liminf(p)
        lim = ll.liminf_family(p)
        union = ll.EMPTY
        total = Fraction(0)
        for i, part in enumerate(parts):
            for later in parts[i + 1 :]:
                assert part.intersection(later).is_empty()
            union = union.union(part)
            total += part.measure()
        assert union == lim
        assert total == lim.measure()
        eps_prime = p.epsilon + Fraction(rng.randint(1, 8), 8)
        strong = ll.cover_open_strong(p, eps_prime)
        assert strong.region.measure() <= eps_prime
        assert lim.difference(strong.region).is_empty()
        for i, budget in strong.slack_report:
            assert budget <= (eps_prime - p.epsilon) / 2 ** (i + 1)
        cases += 1
    report(4, "decomposition is exact and the strong cover fits epsilon'", f"{cases} cases")


def test_criterion_5_forcing():
    rng = random.Random(20260805)
    cases = 0
    while cases < 100:
        instance = gen_forcing_instance(rng)
        assert len(instance.queries) <= 8
        outcome = ll.force(instance, witness_length=6)
        u = instance.initial_u
        for (label, query), (_, verdict) in zip(instance.queries, outcome.answers):
            if verdict == "halts":
                assert u.complement().difference(query).is_empty()
            else:
                u = u.union(query)
                assert not query.meets_interval(outcome.witness_prefix)
            assert not u.is_full()
        assert u == outcome.final_u
        assert not outcome.final_u.meets_interval(outcome.witness_prefix)
        longer = ll.force(instance, witness_length=9)
        assert longer.answers == outcome.answers
        cases += 1
    report(5, "forcing keeps the complement nonempty and answers witness-free", f"{cases} cases")


def test_criterion_6_exact_complexity_exhaustive():
    checked = 0
    for condition in range(9):
        for x in strings_up_to(8):
            assert ll.exact_complexity(x, condition) == complexity_by_enumeration(x, condition)
            checked += 1
    table = ll.complexity_table(8, 8)
    for condition in range(9):
        for m in range(11):
            count = sum(
                1
                for (u, cond), v in table.entries.items()
                if cond == condition and v < m
            )
            assert count < 2**m
    report(6, "exact complexity equals the enumeration oracle with the counting bound",
           f"{checked} pairs, m <= 10")


def test_criterion_7_forward_pipeline():
    table = ll.complexity_table(8, 8)
    checked = 0
    contained = 0
    for c in (0, 1, 2):
        family = ll.deficiency_family(table, c=c, n_range=(2, 8))
        assert ll.validate(family).ok
        cover = ll.cover_open(family, lmax=8)
        assert cover.region.measure() <= Fraction(1, 2**c)
        for x in strings_up_to(2):
            dbar = ll.deficiency_report(table, x, horizon=8, c=c).dbar(x)
            checked += 1
            if dbar > c:
                assert cover.region.covers_string(x)
                contained += 1
    report(7, "high extension-deficiency intervals land inside the deficiency cover",
           f"{checked} prefixes checked, {contained} with dbar above c "
           "(the machine table admits none at this scale; the non-vacuous path "
           "is exercised in test_complexity.py)")


def test_criterion_8_frequencies():
    rng = random.Random(20260808)
    cases = 0
    while cases < 100:
        trace = gen_trace(rng)
        table = ll.limit_frequency(trace)
        for reps in (1, 2, 3):
            block = list(trace.period) * reps
            counts = {}
            for slot in block:
                if slot is not None:
                    counts[slot] = counts.get(slot, 0) + 1
            oracle = {x: Fraction(n, len(block)) for x, n in counts.items()}
            assert table == oracle
        assert sum(table.values(), Fraction(0)) <= 1
        plen = len(trace.period)
        reps_needed = -(-(len(trace.prefix) + plen) // plen)
        family = ll.trace_to_family(trace, plen * reps_needed, EIGHTHS)
        assert ll.validate(family).ok
        cover = ll.cover_semimeasure(family, EIGHTHS)
        for x, share in table.items():
            floored = max(g for g in EIGHTHS if g <= share)
            assert cover.value(format(x, "b")) >= floored
        cases += 1
    report(8, "limit frequencies are exact and dominated end to end", f"{cases} traces")


def test_criterion_9_exactness_floor():
    for length in range(11):
        for x in all_strings(length):
            assert ll.interval(x).measure() == Fraction(1, 2**length)
    rng = random.Random(20260809)
    checks = {
        "union": lambda a, b: a or b,
        "intersection": lambda a, b: a and b,
        "difference": lambda a, b: a and not b,
    }
    for _ in range(100):
        a = ll.normalize(
            ["".join(rng.choice("01") for _ in range(rng.randint(0, 6))) for _ in range(rng.randint(0, 5))]
        )
        b = ll.normalize(
            ["".join(rng.choice("01") for _ in range(rng.randint(0, 6))) for _ in range(rng.randint(0, 5))]
        )
        for kind, expect in checks.items():
            got = getattr(a, kind)(b)
            for w in all_strings(8):
                assert member(w, got.intervals) == expect(
                    member(w, a.intervals), member(w, b.intervals)
                )
    report(9, "interval measures and boolean algebra are bit-exact", "depth 10 / 8")


def test_criterion_10_cli_golden_files(tmp_path):
    for golden_name, argv, want_code in GOLDEN_RUNS:
        code, body = run(with_input_paths(argv), tmp_path, name=golden_name)
        assert code == want_code, golden_name
        assert body == (GOLDEN / golden_name).read_bytes(), golden_name
    # emitted event logs re-validate
    from limitlab.cli import main

    for emitted in ("trace_family.jsonl", "deficiency_family.jsonl"):
        code = main(
            [
                "validate",
                "--input",
                str(tmp_path / emitted),
                "--output",
                str(tmp_path / f"revalidate_{emitted}.json"),
            ]
        )
        assert code == 0, emitted
    report(10, "golden CLI outputs are byte-identical and round-trip", f"{len(GOLDEN_RUNS)} subcommands")

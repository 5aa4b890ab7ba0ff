import random

import pytest

import limitlab as ll
from generators import gen_forcing_instance


def test_force_two_query_walk():
    instance = ll.ForcingInstance(
        initial_u=ll.interval("0"),
        queries=(("T1", ll.interval("1")), ("T2", ll.interval("10"))),
    )
    outcome = ll.force(instance, witness_length=2)
    assert outcome.answers == (("T1", "halts"), ("T2", "diverges"))
    assert outcome.final_u.intervals == ("0", "10")
    assert outcome.witness_prefix == "11"


def test_force_no_queries():
    outcome = ll.force(ll.ForcingInstance(initial_u=ll.interval("0"), queries=()), 2)
    assert outcome.final_u.intervals == ("0",)
    assert outcome.witness_prefix == "10"


def test_force_empty_query_diverges_without_change():
    outcome = ll.force(
        ll.ForcingInstance(initial_u=ll.interval("0"), queries=(("T", ll.EMPTY),)), 2
    )
    assert outcome.answers == (("T", "diverges"),)
    assert outcome.final_u.intervals == ("0",)
    assert outcome.witness_prefix == "10"


def test_force_rejects_full_initial_set():
    with pytest.raises(ValueError):
        ll.force(ll.ForcingInstance(initial_u=ll.FULL, queries=()), 4)


def test_force_rejects_short_witness():
    instance = ll.ForcingInstance(initial_u=ll.interval("000"), queries=())
    with pytest.raises(ValueError):
        ll.force(instance, witness_length=2)


def test_force_rejects_witness_beyond_depth_cap(monkeypatch):
    instance = ll.ForcingInstance(initial_u=ll.interval("0"), queries=())
    assert len(ll.force(instance, witness_length=64).witness_prefix) == 64
    with pytest.raises(ValueError, match="depth cap 64"):
        ll.force(instance, witness_length=65)
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "8")
    with pytest.raises(ValueError, match="depth cap 8"):
        ll.force(instance, witness_length=9)


def test_force_stepwise_invariants_randomized():
    rng = random.Random(301)
    for _ in range(60):
        instance = gen_forcing_instance(rng)
        outcome = ll.force(instance, witness_length=6)
        # replay the walk, checking the forced consistency at every step
        u = instance.initial_u
        for (label, query), (got_label, verdict) in zip(instance.queries, outcome.answers):
            assert label == got_label
            merged = u.union(query)
            if verdict == "halts":
                # everything outside u lies in the query set
                assert merged.is_full()
                assert u.complement().difference(query).is_empty()
            else:
                assert not merged.is_full()
                u = merged
                # the witness interval is disjoint from the folded-in query
                assert not query.meets_interval(outcome.witness_prefix)
            assert not u.is_full()
        assert u == outcome.final_u
        assert not outcome.final_u.meets_interval(outcome.witness_prefix)


def test_force_monotone_and_bounded():
    rng = random.Random(302)
    for _ in range(40):
        instance = gen_forcing_instance(rng)
        outcome = ll.force(instance, witness_length=6)
        assert instance.initial_u.difference(outcome.final_u).is_empty()
        assert outcome.final_u.measure() < 1


def test_answers_do_not_depend_on_witness_length():
    rng = random.Random(303)
    for _ in range(40):
        instance = gen_forcing_instance(rng)
        short = ll.force(instance, witness_length=6)
        long = ll.force(instance, witness_length=9)
        assert short.answers == long.answers
        assert short.final_u == long.final_u
        assert len(short.witness_prefix) == 6
        assert len(long.witness_prefix) == 9

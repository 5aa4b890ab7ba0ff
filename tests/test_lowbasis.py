import random

import pytest

import limitlab as ll
from generators import gen_forcing_instance, rand_bits
from limitlab import jsonio
from test_cli import FIXTURES


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


def test_force_refuses_a_query_that_is_no_labelled_clopen_set():
    words = r"^queries must hold \(str, ClopenSet\) pairs, got \('q', '0'\)$"
    with pytest.raises(ValueError, match=words):
        ll.force(ll.ForcingInstance(initial_u=ll.EMPTY, queries=[("q", "0")]), 2)
    # a pair may be a list, as JSON would give it
    instance = ll.ForcingInstance(initial_u=ll.interval("0"), queries=[["T", ll.interval("1")]])
    assert ll.force(instance, 2).answers == (("T", "halts"),)


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


def deep_forcing_instance(rng):
    # 20-60-bit intervals; the complement of U_0 always halts, and U_0's
    # complement less a deep set halts iff that set ends up inside U
    def deep_set():
        return ll.normalize([rand_bits(rng, 20, 60) for _ in range(rng.randint(0, 4))])

    initial = deep_set()
    queries = [deep_set() for _ in range(rng.randint(0, 6))]
    rest = initial.complement()
    for query in (rest, rest.difference(deep_set())):
        queries.insert(rng.randint(0, len(queries)), query)
    return ll.ForcingInstance(
        initial_u=initial, queries=tuple((f"q{i}", q) for i, q in enumerate(queries))
    )


def deepest_interval(instance):
    sets = [instance.initial_u, *(query for _, query in instance.queries)]
    return max(len(x) for s in sets for x in s.intervals)


def test_force_stepwise_invariants_randomized(monkeypatch):
    rng = random.Random(301)
    cases = [(gen_forcing_instance(rng), 6) for _ in range(60)]
    fixture = jsonio.parse_forcing_instance((FIXTURES / "forcing.json").read_text())
    cases += [(fixture, 2), (fixture, 3)]
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "96")
    for _ in range(30):
        instance = deep_forcing_instance(rng)
        deepest = deepest_interval(instance)
        cases += [(instance, deepest), (instance, deepest + 1), (instance, 96)]
    verdicts = []
    for instance, witness_length in cases:
        outcome = ll.force(instance, witness_length=witness_length)
        verdicts.append({verdict for _, verdict in outcome.answers})
        assert len(outcome.witness_prefix) == witness_length
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
    assert set().union(*verdicts[62:]) == {"halts", "diverges"}  # the deep walks take both


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

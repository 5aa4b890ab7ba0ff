import random
from fractions import Fraction

import pytest

import limitlab as ll
from generators import gen_trace
from oracles import frequencies_by_average, trace_to_family_by_index

QUARTERS = [Fraction(n, 4) for n in range(5)]


def test_limit_frequency_undefined_everywhere():
    assert ll.limit_frequency(ll.PartialTrace(prefix=(), period=(None,))) == {}


def test_limit_frequency_shares_of_the_period():
    trace = ll.PartialTrace(prefix=(), period=(1, 1, 2, None))
    assert ll.limit_frequency(trace) == {1: Fraction(1, 2), 2: Fraction(1, 4)}


def test_limit_frequency_prefix_washes_out():
    trace = ll.PartialTrace(prefix=(5, 5, 5), period=(7,))
    table = ll.limit_frequency(trace)
    assert table == {7: Fraction(1)}
    assert 5 not in table


def test_period_must_be_nonempty():
    with pytest.raises(ValueError):
        ll.PartialTrace(prefix=(), period=())


def test_make_and_replace_check_the_trace():
    with pytest.raises(ValueError):
        ll.PartialTrace((), (1,))._replace(period=())
    with pytest.raises(ValueError):
        ll.PartialTrace._make(((), (True,)))
    assert ll.PartialTrace((), (1,))._replace(prefix=(2,)) == ll.PartialTrace((2,), (1,))


def test_trace_values_must_be_naturals():
    with pytest.raises(ValueError):
        ll.PartialTrace(prefix=(-1,), period=(0,))


def test_limit_frequency_matches_repetition_oracle():
    rng = random.Random(401)
    for _ in range(80):
        trace = gen_trace(rng)
        table = ll.limit_frequency(trace)
        for reps in (1, 2, 3):
            assert table == frequencies_by_average(trace.prefix, trace.period, reps)


def test_total_mass_is_defined_share_of_period():
    rng = random.Random(402)
    for _ in range(80):
        trace = gen_trace(rng)
        total = sum(ll.limit_frequency(trace).values(), Fraction(0))
        defined = sum(1 for slot in trace.period if slot is not None)
        assert total == Fraction(defined, len(trace.period))
        assert total <= 1


def test_running_frequency_counts_undefined_slots_in_the_denominator():
    trace = ll.PartialTrace(prefix=(1, None), period=(2,))
    assert ll.running_frequency(trace, 2) == {1: Fraction(1, 2)}
    assert ll.running_frequency(trace, 4) == {1: Fraction(1, 4), 2: Fraction(1, 2)}


def test_trace_to_family_empty_trace():
    family = ll.trace_to_family(ll.PartialTrace(prefix=(), period=(None,)), 4, QUARTERS)
    assert family.events == ()
    assert ll.validate(family).ok


def test_trace_to_family_tail_holds_floored_limits():
    trace = ll.PartialTrace(prefix=(), period=(1, 1, 2, None))
    family = ll.trace_to_family(trace, 8, QUARTERS)
    assert ll.validate(family).ok
    assert ll.liminf_family(family) == {"1": Fraction(1, 2), "10": Fraction(1, 4)}


def test_trace_to_family_validates_by_construction():
    rng = random.Random(403)
    grid = [Fraction(n, 8) for n in range(9)]
    for _ in range(60):
        trace = gen_trace(rng)
        plen = len(trace.period)
        reps = -(-(len(trace.prefix) + plen) // plen)
        family = ll.trace_to_family(trace, plen * reps, grid)
        assert ll.validate(family).ok


@pytest.mark.parametrize(
    "grid",
    [[Fraction(n, 8) for n in range(9)], ["1/2", "0", "1/3", "1/2", "2/5", "1"]],
    ids=["eighths", "unsorted-with-repeats"],
)
def test_trace_to_family_matches_per_index_oracle(grid):
    rng = random.Random(405)
    grid = [Fraction(g) for g in grid]
    traces = [gen_trace(rng) for _ in range(40)]
    traces.append(ll.PartialTrace(prefix=(3,), period=(0, 1, None, 1, 2, 0, 0, 5)))
    for trace in traces:
        plen = len(trace.period)
        least = -(-(len(trace.prefix) + plen) // plen)
        for reps in (least, least + 1, least + 9):
            want = trace_to_family_by_index(trace.prefix, trace.period, plen * reps, grid)
            assert ll.trace_to_family(trace, plen * reps, grid) == want


def test_trace_to_family_rejects_bad_nmax():
    trace = ll.PartialTrace(prefix=(1,), period=(2, 3))
    with pytest.raises(ValueError):
        ll.trace_to_family(trace, 3, QUARTERS)  # not a multiple of the period
    with pytest.raises(ValueError):
        ll.trace_to_family(trace, 2, QUARTERS)  # shorter than prefix + period


def test_trace_to_family_needs_a_floor_in_the_grid():
    trace = ll.PartialTrace(prefix=(), period=(1, None, None, None))
    with pytest.raises(ValueError):
        ll.trace_to_family(trace, 4, [Fraction(1, 2), Fraction(1)])


def test_elements_are_binary_numerals():
    trace = ll.PartialTrace(prefix=(), period=(0, 5))
    family = ll.trace_to_family(trace, 4, [Fraction(n, 4) for n in range(5)])
    elements = {ev.element for ev in family.events}
    assert elements == {"0", "101"}


def test_end_to_end_semimeasure_dominates_floored_frequencies():
    rng = random.Random(404)
    grid = [Fraction(n, 8) for n in range(9)]
    for _ in range(40):
        trace = gen_trace(rng)
        plen = len(trace.period)
        reps = -(-(len(trace.prefix) + plen) // plen)
        family = ll.trace_to_family(trace, plen * reps, grid)
        cover = ll.cover_semimeasure(family, grid)
        for x, share in ll.limit_frequency(trace).items():
            floored = max(g for g in grid if g <= share)
            assert cover.value(format(x, "b")) >= floored

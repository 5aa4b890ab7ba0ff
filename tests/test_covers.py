import random
from fractions import Fraction

import pytest

import limitlab as ll
import oracles
from generators import EIGHTHS, gen_open_family, gen_semimeasure_family, gen_set_family


def set_presentation(k, universe, *events):
    return ll.SetFamilyPresentation(k=k, universe=tuple(universe), events=tuple(events))


def test_cover_sets_contains_liminf():
    p = set_presentation(
        2,
        ["0", "10", "11"],
        ll.SetEvent(0, ll.tail(0), "0"),
        ll.SetEvent(0, ll.single(0), "10"),
        ll.SetEvent(0, ll.tail(2), "11"),
    )
    cover = ll.cover_sets(p)
    assert ll.liminf_family(p) == {"0", "11"}
    assert {"0", "11"} <= cover.elements
    assert len(cover.elements) < 4


def test_cover_sets_trivial_empty():
    p = set_presentation(3, [])
    assert ll.cover_sets(p).elements == frozenset()


def test_cover_sets_rejects_second_element_at_tight_capacity():
    p = set_presentation(1, ["0", "1"], ll.SetEvent(0, ll.tail(0), "0"))
    cover = ll.cover_sets(p)
    assert cover.elements == {"0"}


def test_cover_sets_noop_operations_always_accepted():
    rng = random.Random(201)
    for _ in range(50):
        p = gen_set_family(rng)
        cover = ll.cover_sets(p)
        last = max(ll.breakpoints(p))
        for u in ll.liminf_family(p):
            assert (last, u) in cover.accepted_ops


def test_cover_sets_guarantees_randomized():
    rng = random.Random(202)
    for _ in range(60):
        p = gen_set_family(rng)
        cover = ll.cover_sets(p)
        assert ll.liminf_family(p) <= cover.elements
        assert len(cover.elements) < 2**p.k


def test_cover_sets_deterministic_and_replayable():
    rng = random.Random(203)
    for _ in range(20):
        p = gen_set_family(rng)
        first = ll.cover_sets(p)
        second = ll.cover_sets(p)
        assert first == second
        assert ll.replay_set_ops(p, first.accepted_ops)


def test_cover_sets_nmax_below_last_breakpoint_rejected():
    p = set_presentation(2, ["0"], ll.SetEvent(0, ll.tail(3), "0"))
    with pytest.raises(ValueError):
        ll.cover_sets(p, nmax=1)


@pytest.mark.parametrize("threshold", [-1, -5])
def test_replay_set_ops_rejects_negative_threshold(threshold):
    # -1 would alias the last working copy and -5 would run off the list
    p = set_presentation(2, ["0"], ll.SetEvent(0, ll.tail(3), "0"))
    with pytest.raises(ValueError, match=rf"operation \({threshold}, '0'\)"):
        ll.replay_set_ops(p, [(0, "0"), (threshold, "0")])


def test_cover_sets_larger_nmax_changes_nothing():
    # thresholds past the last breakpoint see only tail copies
    rng = random.Random(211)
    for _ in range(20):
        p = gen_set_family(rng)
        default = ll.cover_sets(p)
        extended = ll.cover_sets(p, nmax=max(ll.breakpoints(p)) + 3)
        assert extended.elements == default.elements


def test_cover_sets_invalid_presentation_rejected():
    bad = set_presentation(
        1, ["0", "1"], ll.SetEvent(0, ll.tail(0), "0"), ll.SetEvent(0, ll.tail(0), "1")
    )
    with pytest.raises(ll.ValidationError):
        ll.cover_sets(bad)


def test_cover_semimeasure_dominates_tail_value():
    p = ll.SemimeasureFamilyPresentation(
        events=(ll.ValueEvent(0, ll.tail(0), "0", Fraction(1, 2)),)
    )
    cover = ll.cover_semimeasure(p, EIGHTHS)
    assert cover.value("0") >= Fraction(1, 2)
    assert cover.total_mass() <= 1


def test_cover_semimeasure_no_events():
    cover = ll.cover_semimeasure(ll.SemimeasureFamilyPresentation(), EIGHTHS)
    assert cover.values == {}
    assert cover.total_mass() <= 1


def test_cover_semimeasure_tree_propagates_to_prefixes():
    p = ll.SemimeasureFamilyPresentation(
        events=(ll.ValueEvent(0, ll.tail(0), "00", Fraction(1, 2)),), tree=True
    )
    cover = ll.cover_semimeasure(p, EIGHTHS)
    assert cover.value("00") >= Fraction(1, 2)
    assert cover.value("0") >= Fraction(1, 2)
    assert cover.value("") >= Fraction(1, 2)
    assert cover.value("") <= 1


def tree_constraints_hold(values):
    nodes = set()
    for u in values:
        nodes.update(u[: i + 1] for i in range(len(u)))
        nodes.add("")
    root = values.get("", Fraction(0))
    if root > 1:
        return False
    for y in nodes:
        parent = values.get(y, Fraction(0))
        kids = values.get(y + "0", Fraction(0)) + values.get(y + "1", Fraction(0))
        if parent < kids:
            return False
    return True


def test_cover_semimeasure_guarantees_randomized():
    rng = random.Random(204)
    for _ in range(60):
        p = gen_semimeasure_family(rng)
        cover = ll.cover_semimeasure(p, EIGHTHS)
        if p.tree:
            assert tree_constraints_hold(dict(cover.values))
        else:
            assert cover.total_mass() <= 1
        for u, v in ll.liminf_family(p).items():
            assert cover.value(u) >= v


def test_cover_semimeasure_grid_must_hold_event_values():
    p = ll.SemimeasureFamilyPresentation(
        events=(ll.ValueEvent(0, ll.tail(0), "0", Fraction(1, 3)),)
    )
    with pytest.raises(ValueError):
        ll.cover_semimeasure(p, EIGHTHS)


def test_cover_semimeasure_enlarged_grid_keeps_guarantees():
    rng = random.Random(205)
    finer = sorted(set(EIGHTHS + [Fraction(n, 16) for n in range(17)]))
    for _ in range(20):
        p = gen_semimeasure_family(rng, tree=False)
        for grid in (EIGHTHS, finer):
            cover = ll.cover_semimeasure(p, grid)
            assert cover.total_mass() <= 1
            for u, v in ll.liminf_family(p).items():
                assert cover.value(u) >= v


def test_semimeasure_to_complexity():
    cover = ll.CoverSemimeasure(
        values={"a0": Fraction(1, 2), "a1": Fraction(1), "a2": Fraction(3, 8)},
        accepted_ops=(),
        tree=False,
    )
    assert ll.semimeasure_to_complexity(cover) == {"a0": 1, "a1": 0, "a2": 2}


def test_semimeasure_to_complexity_drops_zeroes():
    cover = ll.CoverSemimeasure(values={}, accepted_ops=(), tree=False)
    assert ll.semimeasure_to_complexity(cover) == {}


def open_presentation(epsilon, *events, granularity=None):
    return ll.OpenFamilyPresentation(
        epsilon=Fraction(epsilon), events=tuple(events), granularity=granularity
    )


def test_cover_open_fills_exactly_the_budgeted_half():
    p = open_presentation(Fraction(1, 2), ll.IntervalEvent(0, ll.tail(0), "0"))
    cover = ll.cover_open(p, lmax=3)
    assert cover.region.intervals == ("0",)
    assert cover.region.measure() == Fraction(1, 2)


def test_cover_open_budget_one_covers_everything():
    p = open_presentation(1, ll.IntervalEvent(0, ll.tail(0), "0"))
    assert ll.cover_open(p, lmax=2).region.is_full()


def test_cover_open_no_events_stays_within_budget():
    cover = ll.cover_open(open_presentation(Fraction(1, 4)), lmax=3)
    assert cover.region.measure() <= Fraction(1, 4)


def test_cover_open_guarantees_randomized():
    rng = random.Random(206)
    for _ in range(60):
        p = gen_open_family(rng)
        lmax = max((len(ev.interval) for ev in p.events), default=0)
        cover = ll.cover_open(p, lmax=lmax)
        assert cover.region.measure() <= p.epsilon
        assert ll.liminf_family(p).difference(cover.region).is_empty()


def test_cover_open_accepted_intervals_inside_final_tail():
    rng = random.Random(207)
    for _ in range(25):
        p = gen_open_family(rng)
        lmax = max((len(ev.interval) for ev in p.events), default=0)
        cover = ll.cover_open(p, lmax=lmax)
        last = max(ll.breakpoints(p))
        tail_member = ll.family_at(p, last)
        for x, n in cover.accepted_ops:
            tail_member = tail_member.union(ll.interval(x))
        for x, _ in cover.accepted_ops:
            assert tail_member.covers_string(x)
        assert tail_member.measure() <= p.epsilon


def test_cover_open_lmax_below_event_depth_rejected():
    p = open_presentation(Fraction(1, 2), ll.IntervalEvent(0, ll.tail(0), "000"))
    with pytest.raises(ValueError):
        ll.cover_open(p, lmax=2)


def test_cover_open_lmax_beyond_depth_cap_rejected(monkeypatch):
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "8")
    p = open_presentation(Fraction(1, 2), ll.IntervalEvent(0, ll.tail(0), "0"))
    with pytest.raises(ValueError):
        ll.cover_open(p, lmax=9)


def test_decompose_shrinking_family():
    p = open_presentation(
        Fraction(3, 4),
        ll.IntervalEvent(0, ll.tail(0), "0"),
        ll.IntervalEvent(0, ll.single(0), "10"),
        granularity=((0, 2), (1, 2)),
    )
    parts = ll.decompose_liminf(p)
    assert parts[0].intervals == ("0",)
    assert all(part.is_empty() for part in parts[1:])


def test_decompose_constant_family():
    p = open_presentation(
        Fraction(1, 2), ll.IntervalEvent(0, ll.tail(0), "01"), granularity=((0, 2),)
    )
    parts = ll.decompose_liminf(p)
    assert parts[0].intervals == ("01",)
    assert all(part.is_empty() for part in parts[1:])


def test_decompose_late_arrival_lands_in_f1():
    p = open_presentation(
        Fraction(1, 2), ll.IntervalEvent(0, ll.tail(1), "1"), granularity=((0, 1), (1, 1))
    )
    parts = ll.decompose_liminf(p)
    assert parts[0].is_empty()
    assert parts[1].intervals == ("1",)


def test_decompose_requires_granularity():
    p = open_presentation(Fraction(1, 2), ll.IntervalEvent(0, ll.tail(0), "0"))
    with pytest.raises(ValueError):
        ll.decompose_liminf(p)


def test_decompose_partition_properties_randomized():
    rng = random.Random(208)
    for _ in range(60):
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


def test_cover_open_strong_slack_budgets():
    p = open_presentation(
        Fraction(1, 2),
        ll.IntervalEvent(0, ll.tail(0), "00"),
        ll.IntervalEvent(0, ll.single(0), "01"),
        granularity=((0, 2), (1, 2)),
    )
    cover = ll.cover_open_strong(p, Fraction(3, 4))
    assert cover.region.intervals == ("00",)
    assert cover.region.measure() <= Fraction(3, 4)
    assert cover.slack_report[0] == (0, Fraction(1, 8))


def test_cover_open_strong_empty_family():
    p = open_presentation(Fraction(1, 4), granularity=((0, 0),))
    cover = ll.cover_open_strong(p, Fraction(1, 2))
    assert cover.region.is_empty()


def test_cover_open_strong_constant_family():
    p = open_presentation(
        Fraction(1, 4), ll.IntervalEvent(0, ll.tail(0), "00"), granularity=((0, 2),)
    )
    cover = ll.cover_open_strong(p, Fraction(1, 2))
    assert cover.region.intervals == ("00",)
    assert cover.region.measure() == Fraction(1, 4)


def test_cover_open_strong_requires_bigger_budget():
    p = open_presentation(
        Fraction(1, 4), ll.IntervalEvent(0, ll.tail(0), "00"), granularity=((0, 2),)
    )
    with pytest.raises(ValueError):
        ll.cover_open_strong(p, Fraction(1, 4))


def test_cover_open_strong_randomized():
    rng = random.Random(209)
    for _ in range(60):
        p = gen_open_family(rng, with_granularity=True)
        eps_prime = p.epsilon + Fraction(rng.randint(1, 8), 8)
        cover = ll.cover_open_strong(p, eps_prime)
        lim = ll.liminf_family(p)
        assert lim.difference(cover.region).is_empty()
        assert cover.region.measure() <= eps_prime
        slack_total = sum((b for _, b in cover.slack_report), Fraction(0))
        assert slack_total <= eps_prime - p.epsilon
        for i, budget in cover.slack_report:
            assert budget == (eps_prime - p.epsilon) / 2 ** (i + 1)


def test_cover_runs_do_not_disturb_each_other():
    rng = random.Random(210)
    p = gen_open_family(rng)
    lmax = max((len(ev.interval) for ev in p.events), default=0)
    first = ll.cover_open(p, lmax=lmax)
    second = ll.cover_open(p, lmax=lmax)
    assert first == second


def _cover_and_oracle(kind, rng, index):
    """For a seeded family of the kind: (library result, oracle result) per nmax."""
    if kind == "set":
        p = gen_set_family(rng)
    elif kind == "open":
        p = gen_open_family(rng, max_depth=4)
        lmax = max((len(ev.interval) for ev in p.events), default=0) + index % 2
    else:
        p = gen_semimeasure_family(rng, tree=kind == "tree")
    last = max(ll.breakpoints(p))
    for nmax in range(last, last + 4):
        if kind == "set":
            cover = ll.cover_sets(p, nmax=nmax)
            yield (cover.elements, cover.accepted_ops), oracles.cover_sets_by_index(p, nmax)
        elif kind == "open":
            cover = ll.cover_open(p, lmax=lmax, nmax=nmax)
            assert cover.slack_report is None
            got = (oracles.points_at_depth(cover.region.intervals, lmax), cover.accepted_ops)
            yield got, oracles.cover_open_by_index(p, lmax, nmax)
        else:
            cover = ll.cover_semimeasure(p, EIGHTHS, nmax=nmax)
            assert cover.tree == p.tree
            got = (dict(cover.values), cover.accepted_ops)
            yield got, oracles.cover_semimeasure_by_index(p, EIGHTHS, nmax)


@pytest.mark.parametrize("kind", ["set", "flat", "tree", "open"])
def test_covers_match_per_index_oracles(kind):
    # the segment-wise loops must reproduce the per-index definition exactly,
    # accepted-ops log included, also for thresholds past the last breakpoint
    rng = random.Random(f"per-index:{kind}")
    for index in range(200):
        for got, expected in _cover_and_oracle(kind, rng, index):
            assert got == expected


def spy_on_members(monkeypatch):
    """Record every segment the covers read from ``members``."""
    segments = []

    def spy(*args):
        for segment in ll.members(*args):
            segments.append(segment)
            yield segment

    monkeypatch.setattr("limitlab.covers.members", spy)
    return segments


@pytest.mark.parametrize("kind", ["set", "flat", "tree", "open"])
def test_covers_build_one_member_per_breakpoint(kind, monkeypatch):
    # a single tail(1000) event: two breakpoints, so two members, not 1001
    spec = ll.tail(1000)
    if kind == "set":
        p = set_presentation(2, ["0", "1"], ll.SetEvent(0, spec, "0"))
        run = lambda: ll.cover_sets(p)  # noqa: E731
    elif kind == "open":
        p = open_presentation(Fraction(1, 2), ll.IntervalEvent(0, spec, "0"))
        run = lambda: ll.cover_open(p, lmax=1)  # noqa: E731
    else:
        p = ll.SemimeasureFamilyPresentation(
            events=(ll.ValueEvent(0, spec, "0", Fraction(1, 2)),), tree=kind == "tree"
        )
        run = lambda: ll.cover_semimeasure(p, EIGHTHS)  # noqa: E731
    segments = spy_on_members(monkeypatch)
    cover = run()
    assert 0 < len(segments) <= len(ll.breakpoints(p))
    # the log still names every threshold up to the last breakpoint
    assert cover.accepted_ops[-1][0 if kind == "set" else 1] == 1000


@pytest.mark.parametrize("run", ["decompose", "strong"])
def test_decompose_builds_one_member_per_breakpoint(run, monkeypatch):
    # a single tail(4000) event: two breakpoints, so two members, not 4001
    p = open_presentation(
        Fraction(1, 2), ll.IntervalEvent(0, ll.tail(4000), "0"), granularity=((0, 1),)
    )
    segments = spy_on_members(monkeypatch)
    if run == "decompose":
        parts = ll.decompose_liminf(p)
        assert len(parts) == 4001
        assert [i for i, part in enumerate(parts) if part != ll.EMPTY] == [4000]
        assert parts[4000].intervals == ("0",)
    else:
        cover = ll.cover_open_strong(p, Fraction(3, 4))
        assert cover.accepted_ops == (("0", 4000),)
        assert len(cover.slack_report) == 4001
    assert 0 < len(segments) <= len(ll.breakpoints(p))


@pytest.mark.parametrize("tree", [False, True])
def test_cover_semimeasure_matches_oracle_on_grids_missing_closure_sums(tree):
    # grids of mixed denominators that miss the sums of their own values:
    # the closed tables hold such sums, and the integer units must be exact there too
    rng = random.Random(f"off-grid:{tree}")
    off_grid = 0
    for _ in range(60):
        p = gen_semimeasure_family(rng, tree=tree)
        values = {ev.value for ev in p.events}
        last = max(ll.breakpoints(p))
        for extra in ({Fraction(0), Fraction(1, 4), Fraction(3, 8)},
                      {Fraction(1, 3), Fraction(5, 12), Fraction(1, 2)}):
            grid = sorted(values | extra)
            for nmax in (last, last + 2):
                cover = ll.cover_semimeasure(p, grid, nmax=nmax)
                got = (dict(cover.values), cover.accepted_ops)
                assert got == oracles.cover_semimeasure_by_index(p, grid, nmax)
                off_grid += any(v not in grid for v in cover.values.values())
    assert off_grid > 0 if tree else off_grid == 0


@pytest.mark.parametrize("epsilon", ["0", "1/3", "5/7", "1"])
def test_cover_open_matches_oracle_on_non_dyadic_budgets(epsilon):
    # floor(epsilon * 2^lmax) is the whole budget test, at every lmax from the deepest interval on
    epsilon = Fraction(epsilon)
    rng = random.Random(f"budget:{epsilon}")
    for _ in range(30):
        p = gen_open_family(rng, max_depth=4, epsilon=epsilon)
        deepest = max((len(ev.interval) for ev in p.events), default=0)
        nmax = max(ll.breakpoints(p)) + 1
        for lmax in range(deepest, deepest + 4):
            cover = ll.cover_open(p, lmax=lmax, nmax=nmax)
            got = (oracles.points_at_depth(cover.region.intervals, lmax), cover.accepted_ops)
            assert got == oracles.cover_open_by_index(p, lmax, nmax)


def test_cover_open_makes_no_clopen_union_or_overlap(monkeypatch):
    # the budget loop works on integer point masks, not on clopen sets
    calls = []
    for name in ("union", "interval_overlap"):
        original = getattr(ll.ClopenSet, name)
        monkeypatch.setattr(
            ll.ClopenSet, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    rng = random.Random("no-clopen-ops")
    runs = [(gen_open_family(rng), extra) for extra in (0, 1, 2) for _ in range(10)]
    runs.append((open_presentation(Fraction(1, 2), ll.IntervalEvent(0, ll.tail(1000), "0")), 2))
    accepted = 0
    for p, extra in runs:
        lmax = max((len(ev.interval) for ev in p.events), default=0) + extra
        accepted += len(ll.cover_open(p, lmax=lmax).accepted_ops)
    assert accepted > 0
    assert calls == []

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

import limitlab as ll
from limitlab import complexity, covers, families, jsonio
from limitlab.cantor import _echo
import oracles
from generators import EIGHTHS, gen_open_family, gen_semimeasure_family, gen_set_family
from test_cli import FIXTURES


def set_presentation(k, universe, *events):
    return ll.SetFamilyPresentation(k=k, universe=tuple(universe), events=tuple(events))


def fixture_log(name):
    return jsonio.parse_presentation((FIXTURES / name).read_text())


# (the argument's name, its cover given the value under test in its place)
GATED_COVERS = {
    "cover_open-lmax": ("lmax", lambda v: ll.cover_open(fixture_log("open_family.jsonl"), v)),
    "cover_open-nmax": (
        "nmax", lambda v: ll.cover_open(fixture_log("open_family.jsonl"), 3, nmax=v)),
    "cover_sets-nmax": (
        "nmax", lambda v: ll.cover_sets(fixture_log("set_family.jsonl"), nmax=v)),
    "cover_semimeasure-nmax": ("nmax", lambda v: ll.cover_semimeasure(
        fixture_log("semimeasure_flat.jsonl"), EIGHTHS, nmax=v)),
}


@pytest.mark.parametrize(
    "value", [None, True, -1, "3", 0.5, [], -10**5000],
    ids=["None", "True", "-1", "str", "float", "list", "-10**5000"])
@pytest.mark.parametrize("call", sorted(GATED_COVERS))
def test_covers_refuse_a_non_natural_argument_by_name(call, value):
    # refused before any work: not a TypeError, nor a float or a bool taken as an int
    name, cover = GATED_COVERS[call]
    if name == "nmax" and value is None:  # the default: up to the last breakpoint
        cover(value)
        return
    with pytest.raises(ValueError) as err:
        cover(value)
    assert str(err.value) == f"{name} must be a natural number, got {_echo(value)}"


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
            assert (last, u) in oracles.accepted_ops(cover)


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
        last = max(ll.breakpoints(p))
        assert (first.elements, oracles.accepted_ops(first)) == oracles.cover_sets_by_index(p, last)


def test_cover_sets_nmax_below_last_breakpoint_rejected():
    p = set_presentation(2, ["0"], ll.SetEvent(0, ll.tail(3), "0"))
    with pytest.raises(ValueError):
        ll.cover_sets(p, nmax=1)


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


@pytest.mark.parametrize(
    "universe,problems",
    [
        (["0", "1", "0", "10", "1"],
         ["universe lists element '0' twice", "universe lists element '1' twice"]),
        (["0", "1", "0"], ["universe lists element '0' twice"]),
        (["0", "0", "0"], ["universe lists element '0' twice"] * 2),
    ],
)
def test_cover_sets_refuses_a_repeated_universe_entry(universe, problems):
    p = set_presentation(2, universe, ll.SetEvent(0, ll.tail(0), "0"))
    assert ll.validate(p).problems == tuple(problems)
    with pytest.raises(ll.ValidationError) as refused:
        ll.cover_sets(p)
    assert refused.value.report.problems == tuple(problems)


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
        for x, n in oracles.accepted_ops(cover):
            tail_member = tail_member.union(ll.interval(x))
        for x, _ in oracles.accepted_ops(cover):
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


@pytest.mark.parametrize("epsilon_prime", ["3/4", "5/6", "7/6", "1/1"])
def test_cover_open_strong_refuses_exactly_the_slacks_too_long_to_write(epsilon_prime):
    # near the lowest digit limit CPython allows (640), the last slack
    # (epsilon' - 1/2) / 2^(last+1) is refused iff its text cannot be written
    epsilon_prime = Fraction(epsilon_prime)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        refused = []
        for last in range(2118, 2128):
            p = ll.OpenFamilyPresentation(
                epsilon=Fraction(1, 2), events=(ll.IntervalEvent(0, ll.tail(last), "0"),),
                granularity=((last, 1),),
            )
            slack = (epsilon_prime - p.epsilon) / 2 ** (last + 1)
            try:
                ll.format_fraction(slack)
                writable = True
            except ValueError:
                writable = False
            try:
                cover = ll.cover_open_strong(p, epsilon_prime)
            except ValueError as exc:
                assert str(exc).startswith(
                    f"the slack (epsilon' - epsilon) / 2^{last + 1} at the last breakpoint {last} "
                    "(--epsilon-prime) has more digits than sys.get_int_max_str_digits() = 640"
                )
                refused.append(last)
            else:
                assert cover.slack_report[-1] == (last, slack)
            assert writable == (last not in refused), last
        assert refused and refused[0] > 2118
    finally:
        sys.set_int_max_str_digits(limit)


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


def _noop_heavy_sets():
    # 200 singles cycling over three elements, then a tail: after the first
    # segments nearly every tentative addition is already in the cover
    universe = ["0", "1", "10", "11"]
    singles = [ll.SetEvent(0, ll.single(n), universe[n % 3]) for n in range(200)]
    return set_presentation(2, universe, *singles, ll.SetEvent(0, ll.tail(150), "11"))


# families the generators never make: k = 0, k >= |universe|, and covers
# where most candidates change nothing (a repeated universe entry is refused:
# test_cover_sets_refuses_a_repeated_universe_entry)
HAND_MADE = {
    "set": [
        set_presentation(
            2, ["0", "1", "10"],
            ll.SetEvent(0, ll.single(0), "1"), ll.SetEvent(0, ll.tail(2), "10"),
        ),
        set_presentation(0, ["0", "1"]),
        set_presentation(3, ["0", "1", "11"], ll.SetEvent(0, ll.tail(1), "0"),
                         ll.SetEvent(0, ll.single(0), "1"), ll.SetEvent(0, ll.single(3), "11")),
        set_presentation(40, ["0", "1"], ll.SetEvent(0, ll.tail(0), "1")),
        _noop_heavy_sets(),
    ],
    "open": [
        (open_presentation(Fraction(1, 2), ll.IntervalEvent(0, ll.tail(0), "0")), 6),
        (
            open_presentation(
                Fraction(1, 2), ll.IntervalEvent(0, ll.tail(0), "0"),
                ll.IntervalEvent(1, ll.single(2), "00"), ll.IntervalEvent(1, ll.tail(4), "01"),
            ),
            6,
        ),
    ],
}


def _families(kind, rng):
    """200 seeded families of the kind, then the hand-made ones (with lmax for open)."""
    for index in range(200):
        if kind == "set":
            yield gen_set_family(rng)
        elif kind == "open":
            p = gen_open_family(rng, max_depth=4)
            yield p, max((len(ev.interval) for ev in p.events), default=0) + index % 2
        else:
            yield gen_semimeasure_family(rng, tree=kind == "tree")
    yield from HAND_MADE.get(kind, ())


def _cover_and_oracle(kind, family):
    """For one family of the kind: (library result, oracle result) per nmax."""
    p, lmax = family if kind == "open" else (family, None)
    last = max(ll.breakpoints(p))
    for nmax in range(last, last + 4):
        if kind == "set":
            cover = ll.cover_sets(p, nmax=nmax)
            got = (cover.elements, oracles.accepted_ops(cover))
            yield got, oracles.cover_sets_by_index(p, nmax)
        elif kind == "open":
            cover = ll.cover_open(p, lmax=lmax, nmax=nmax)
            assert cover.slack_report is None
            points = oracles.points_at_depth(cover.region.intervals, lmax)
            got = (points, oracles.accepted_ops(cover))
            yield got, oracles.cover_open_by_index(p, lmax, nmax)
        else:
            cover = ll.cover_semimeasure(p, EIGHTHS, nmax=nmax)
            assert cover.tree == p.tree
            got = (dict(cover.values), oracles.accepted_ops(cover))
            yield got, oracles.cover_semimeasure_by_index(p, EIGHTHS, nmax)


@pytest.mark.parametrize("kind", ["set", "flat", "tree", "open"])
def test_covers_match_per_index_oracles(kind):
    # the segment-wise loops must reproduce the per-index definition exactly,
    # accepted-ops log included, also for thresholds past the last breakpoint
    rng = random.Random(f"per-index:{kind}")
    for family in _families(kind, rng):
        for got, expected in _cover_and_oracle(kind, family):
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
    assert len(cover.runs) <= len(ll.breakpoints(p))
    # the log still names every threshold up to the last breakpoint
    assert oracles.accepted_ops(cover)[-1][0 if kind == "set" else 1] == 1000


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
        assert cover.runs == ((4000, 4001, ("0",)),)
        assert oracles.accepted_ops(cover) == (("0", 4000),)
        assert len(cover.slack_report) == 4001
    assert 0 < len(segments) <= len(ll.breakpoints(p))


# each library call, the event-log fixture it reads and how it is run
SWEEPS_ONCE = {
    "cover_sets": ("set_family.jsonl", ll.cover_sets),
    "cover_semimeasure": ("semimeasure_flat.jsonl", lambda p: ll.cover_semimeasure(p, EIGHTHS)),
    "cover_tree": ("semimeasure_tree.jsonl", lambda p: ll.cover_semimeasure(p, EIGHTHS)),
    "cover_open": ("open_family.jsonl", lambda p: ll.cover_open(p, lmax=2)),
    "cover_open_strong": (
        "open_family_gran.jsonl", lambda p: ll.cover_open_strong(p, Fraction(3, 4))),
    "decompose_liminf": ("open_family_gran.jsonl", ll.decompose_liminf),
    "cover_to_complexity_bounds": (
        "open_family_levels.jsonl", lambda p: ll.cover_to_complexity_bounds(p, c=1)),
    "liminf_family": ("open_family.jsonl", ll.liminf_family),
}


@pytest.mark.parametrize("name", SWEEPS_ONCE)
def test_each_construction_sweeps_its_log_once(name, monkeypatch):
    # validation, the members and the liminf of the guarantee checks all
    # come from one sweep; nothing rescans the log per index
    family, construct = SWEEPS_ONCE[name]
    p = jsonio.parse_presentation((FIXTURES / family).read_text())
    sweeps, rescans = [], []
    sweep = families._sweep
    monkeypatch.setattr(families, "_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    for module in (families, covers, complexity):
        monkeypatch.setattr(
            module, "family_at", lambda *args: rescans.append(args) or ll.family_at(*args)
        )
    construct(p)
    assert (len(sweeps), rescans) == (1, [])


def test_covers_hold_runs_not_a_row_per_threshold():
    # a single tail(10^6) event: the logs name 10^6 + 1 thresholds, but the
    # covers keep one run per segment and allocate nothing per threshold
    spec = ll.tail(10**6)
    runs = {
        "set": lambda: ll.cover_sets(set_presentation(2, ["0", "1"], ll.SetEvent(0, spec, "0"))),
        "open": lambda: ll.cover_open(
            open_presentation(Fraction(1, 2), ll.IntervalEvent(0, spec, "0")), lmax=1
        ),
        "flat": lambda: ll.cover_semimeasure(
            ll.SemimeasureFamilyPresentation(events=(ll.ValueEvent(0, spec, "0", Fraction(1, 2)),)),
            EIGHTHS,
        ),
    }
    for kind, run in runs.items():
        tracemalloc.start()
        try:
            cover = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(start, end) for start, end, _ in cover.runs] == [(0, 10**6), (10**6, 10**6 + 1)]
        assert peak < 5 * 2**20, (kind, peak)


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
                got = (dict(cover.values), oracles.accepted_ops(cover))
                assert got == oracles.cover_semimeasure_by_index(p, grid, nmax)
                off_grid += any(v not in grid for v in cover.values.values())
    assert off_grid > 0 if tree else off_grid == 0


MIXED_GRIDS = {
    "eighths-and-thirds": EIGHTHS + [Fraction(1, 3), Fraction(2, 3)],
    "eighths-and-sevenths": EIGHTHS + [Fraction(n, 7) for n in range(1, 7)],
    "large-primes": [Fraction(v) for v in ("0", "1/4", "1/2", "1/1000003", "1/999983", "1")],
}


def onto_grid(p, grid):
    """``p`` with each event value lowered to the grid; lower values keep a
    family valid, as a tree's closure is monotone."""
    return p._replace(events=tuple(
        ev._replace(value=max(v for v in grid if v <= ev.value)) for ev in p.events
    ))


@pytest.mark.parametrize("name", MIXED_GRIDS)
@pytest.mark.parametrize("kind", ["flat", "tree"])
def test_semimeasure_cover_matches_oracle_on_mixed_denominators(kind, name):
    # the bound per element is exact in units of 1/scale whatever the grid's denominators
    grid = MIXED_GRIDS[name]
    rng = random.Random(f"{kind}-grid:{name}")
    off_eighths = 0  # accepted steps between the eighths
    for _ in range(80):
        p = onto_grid(gen_semimeasure_family(rng, tree=kind == "tree"), grid)
        last = max(ll.breakpoints(p))
        for nmax in (last, last + 2):
            cover = ll.cover_semimeasure(p, grid, nmax=nmax)
            got = (dict(cover.values), oracles.accepted_ops(cover))
            assert got == oracles.cover_semimeasure_by_index(p, grid, nmax)
            off_eighths += sum(r not in EIGHTHS for r, _, _ in got[1])
    assert off_eighths > 0


@pytest.mark.parametrize("kind", ["flat", "tree"])
def test_semimeasure_cover_work_does_not_grow_with_the_grid(kind, monkeypatch):
    # an element's grid scan at a segment reads one floor per later copy, and
    # only its largest accepted value is lifted into each later copy
    events = [
        (ll.tail(0), "0", "1/4"), (ll.single(1), "1", "1/2"), (ll.tail(2), "00", "1/4"),
        (ll.tail(3), "0", "1/2"), (ll.single(5), "11", "1/4"),
    ]
    p = ll.SemimeasureFamilyPresentation(
        events=tuple(ll.ValueEvent(0, spec, u, Fraction(v)) for spec, u, v in events),
        tree=kind == "tree",
    )
    floors, lifts = [], []
    names = ("_floor", "_raise") if p.tree else ("_held", "_set")
    floor, lift = (getattr(covers, name) for name in names)
    monkeypatch.setattr(covers, names[0], lambda *args: floors.append(args) or floor(*args))
    monkeypatch.setattr(covers, names[1], lambda *args: lifts.append(args) or lift(*args))
    segments = list(families.members(p))
    # copies each element reads, over all segments: segment i's, the later ones, and built
    later = sum(len(segments) + 1 - i for i in range(len(segments)))
    entries = sum(len(member) for _, _, member in segments)  # lifted to build the copies
    for size in (5, 257):
        grid = [Fraction(n, size - 1) for n in range(size)]
        floors.clear()
        lifts.clear()
        cover = ll.cover_semimeasure(p, grid)
        assert len(floors) == 4 * later == 108
        assert len(lifts) <= entries + 4 * later
        got = (dict(cover.values), oracles.accepted_ops(cover))
        assert got == oracles.cover_semimeasure_by_index(p, grid, max(ll.breakpoints(p)))


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
            points = oracles.points_at_depth(cover.region.intervals, lmax)
            got = (points, oracles.accepted_ops(cover))
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
        accepted += len(oracles.accepted_ops(ll.cover_open(p, lmax=lmax)))
    # a strong cover's region is one normalize over its runs, not a union per part
    strong = [gen_open_family(rng, with_granularity=True) for _ in range(10)]
    strong.append(
        open_presentation(
            Fraction(1, 2), ll.IntervalEvent(0, ll.tail(0), "00"),
            ll.IntervalEvent(0, ll.tail(2), "01"), granularity=((0, 2), (2, 2)),
        )
    )
    for p in strong:
        accepted += len(oracles.accepted_ops(ll.cover_open_strong(p, p.epsilon + Fraction(1, 8))))
    assert accepted > 0
    assert calls == []

import random
from fractions import Fraction

import pytest

import limitlab as ll
from generators import gen_open_family, gen_semimeasure_family, gen_set_family, rand_bits
from oracles import (
    least_tree_semimeasure,
    open_member_intervals,
    semimeasure_member,
    set_family_member,
)


def test_validate_empty_log():
    assert ll.validate(ll.SetFamilyPresentation(k=1, universe=())).ok
    assert ll.validate(ll.SemimeasureFamilyPresentation()).ok
    assert ll.validate(ll.OpenFamilyPresentation(epsilon=Fraction(1, 2))).ok


@pytest.mark.parametrize(
    "record,field",
    [
        (ll.normalize(["0"]), "intervals"),
        (ll.single(3), "index"),
        (ll.OpenFamilyPresentation(epsilon=Fraction(1, 2)), "epsilon"),
    ],
    ids=["ClopenSet", "IndexSpec", "OpenFamilyPresentation"],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_validate_capacity_bound():
    p = ll.SetFamilyPresentation(
        k=1,
        universe=("0", "1"),
        events=(ll.SetEvent(0, ll.tail(0), "0"), ll.SetEvent(0, ll.tail(0), "1")),
    )
    report = ll.validate(p)
    assert not report.ok
    assert "capacity" in report.problems[0] and "n=0" in report.problems[0]


def test_validate_measure_bound_at_single_index():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 2),
        events=(
            ll.IntervalEvent(0, ll.tail(0), "0"),
            ll.IntervalEvent(0, ll.single(3), "1"),
        ),
    )
    report = ll.validate(p)
    assert not report.ok
    assert "n=3" in report.problems[0]


def test_validate_reports_malformed_events_without_raising():
    p = ll.SetFamilyPresentation(
        k=2,
        universe=("0",),
        events=(
            ll.SetEvent(5, ll.tail(0), "0"),
            ll.SetEvent(2, ll.tail(0), "0"),  # stage decreases
            ll.SetEvent(6, ll.single(1), "11"),  # not in the universe
        ),
    )
    report = ll.validate(p)
    texts = " | ".join(report.problems)
    assert "stage" in texts and "universe" in texts


def test_validate_reports_interval_too_deep():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1),
        events=(ll.IntervalEvent(0, ll.tail(0), "0" * 70),),
    )
    report = ll.validate(p)
    assert not report.ok
    assert "deeper" in report.problems[0]


def test_validate_value_out_of_range():
    p = ll.SemimeasureFamilyPresentation(
        events=(ll.ValueEvent(0, ll.tail(0), "0", Fraction(9, 8)),)
    )
    assert not ll.validate(p).ok


def test_validate_tree_mode_accepts_deep_lower_bound():
    # a bound on "00" alone is consistent with a tree semimeasure
    p = ll.SemimeasureFamilyPresentation(
        events=(ll.ValueEvent(0, ll.tail(0), "00", Fraction(1, 2)),), tree=True
    )
    assert ll.validate(p).ok


def test_validate_tree_mode_rejects_overfull_root_closure():
    # no tree semimeasure has m("00") >= 3/4 and m("01") >= 1/2
    p = ll.SemimeasureFamilyPresentation(
        events=(
            ll.ValueEvent(0, ll.tail(0), "00", Fraction(3, 4)),
            ll.ValueEvent(0, ll.tail(0), "01", Fraction(1, 2)),
        ),
        tree=True,
    )
    report = ll.validate(p)
    assert not report.ok and "tree" in report.problems[0]


def test_family_at_set_examples():
    p = ll.SetFamilyPresentation(
        k=1, universe=("0",), events=(ll.SetEvent(0, ll.tail(2), "0"),)
    )
    assert ll.family_at(p, 1) == frozenset()
    assert ll.family_at(p, 5) == {"0"}
    kinds = "SetFamilyPresentation, SemimeasureFamilyPresentation or OpenFamilyPresentation"
    with pytest.raises(ValueError, match=f"^p must be a {kinds}, got tuple$"):
        ll.family_at(tuple(p), 5)


def test_family_at_takes_max_of_applicable_values():
    p = ll.SemimeasureFamilyPresentation(
        events=(
            ll.ValueEvent(0, ll.tail(0), "0", Fraction(1, 4)),
            ll.ValueEvent(0, ll.single(3), "0", Fraction(1, 2)),
        )
    )
    assert ll.family_at(p, 3) == {"0": Fraction(1, 2)}
    assert ll.family_at(p, 4) == {"0": Fraction(1, 4)}


def test_breakpoints_no_events():
    assert ll.breakpoints(ll.SetFamilyPresentation(k=1, universe=())) == [0]


def test_breakpoints_single_and_tail():
    p = ll.SetFamilyPresentation(
        k=2,
        universe=("0",),
        events=(ll.SetEvent(0, ll.single(2), "0"), ll.SetEvent(0, ll.tail(5), "0")),
    )
    assert ll.breakpoints(p) == [0, 2, 3, 5]
    # the family really changes only when entering/leaving 2 and entering 5
    members = [ll.family_at(p, n) for n in range(8)]
    changes = [n for n in range(1, 8) if members[n] != members[n - 1]]
    assert changes == [2, 3, 5]
    # a malformed spec, which validate reports, moves no breakpoint
    malformed = p._replace(events=p.events + (ll.SetEvent(0, ll.single(-1), "0"),))
    assert ll.breakpoints(malformed) == [0, 2, 3, 5]


def test_breakpoints_tail_zero():
    p = ll.SetFamilyPresentation(
        k=1, universe=("0",), events=(ll.SetEvent(0, ll.tail(0), "0"),)
    )
    assert ll.breakpoints(p) == [0]


def test_liminf_single_disappears():
    p = ll.SetFamilyPresentation(
        k=1, universe=("0",), events=(ll.SetEvent(0, ll.single(0), "0"),)
    )
    assert ll.liminf_family(p) == frozenset()


def test_liminf_tail_stays():
    p = ll.SetFamilyPresentation(
        k=1, universe=("0",), events=(ll.SetEvent(0, ll.tail(3), "0"),)
    )
    assert ll.liminf_family(p) == {"0"}


def test_liminf_open_family():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1),
        events=(
            ll.IntervalEvent(0, ll.tail(0), "0"),
            ll.IntervalEvent(0, ll.single(2), "1"),
        ),
    )
    assert ll.liminf_family(p).intervals == ("0",)


def test_liminf_is_constant_past_last_breakpoint():
    rng = random.Random(101)
    for _ in range(40):
        p = gen_set_family(rng)
        last = max(ll.breakpoints(p))
        lim = ll.liminf_family(p)
        for n in (last, last + 1, last + 2, last + 5):
            assert ll.family_at(p, n) == lim
    rng = random.Random(102)
    for _ in range(40):
        p = gen_open_family(rng)
        last = max(ll.breakpoints(p))
        lim = ll.liminf_family(p)
        for n in (last, last + 3):
            assert ll.family_at(p, n) == lim


def test_family_constant_between_breakpoints():
    rng = random.Random(103)
    for _ in range(20):
        for p in (
            gen_set_family(rng),
            gen_semimeasure_family(rng),
            gen_open_family(rng),
        ):
            bps = ll.breakpoints(p)
            last = bps[-1]
            for n in range(last + 3):
                below = max(b for b in bps if b <= n)
                assert ll.family_at(p, n) == ll.family_at(p, below)


def test_family_at_agrees_with_event_scan():
    rng = random.Random(104)
    for _ in range(30):
        p = gen_set_family(rng)
        for n in range(max(ll.breakpoints(p)) + 3):
            assert ll.family_at(p, n) == frozenset(set_family_member(p.events, n))
        q = gen_semimeasure_family(rng)
        for n in range(max(ll.breakpoints(q)) + 3):
            assert ll.family_at(q, n) == semimeasure_member(q.events, n)
        r = gen_open_family(rng)
        for n in range(max(ll.breakpoints(r)) + 3):
            assert ll.family_at(r, n) == ll.normalize(open_member_intervals(r.events, n))


def test_members_agree_with_family_at():
    rng = random.Random(106)
    for _ in range(30):
        for p in (
            gen_set_family(rng),
            gen_semimeasure_family(rng, tree=False),
            gen_semimeasure_family(rng, tree=True),
            gen_open_family(rng),
        ):
            last = max(ll.breakpoints(p))
            for nmax in range(last, last + 4):
                segments = list(ll.members(p, nmax))
                # the segments tile 0..nmax
                assert segments[0][0] == 0 and segments[-1][1] == nmax + 1
                assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))
                for start, end, member in segments:
                    assert start < end
                    for n in range(start, end):
                        assert member == ll.family_at(p, n)


def test_members_of_an_empty_log():
    p = ll.OpenFamilyPresentation(epsilon=Fraction(1, 2))
    assert list(ll.members(p)) == [(0, 1, ll.EMPTY)]
    assert list(ll.members(p, 4)) == [(0, 5, ll.EMPTY)]
    assert list(ll.members(ll.SetFamilyPresentation(k=1, universe=()))) == [(0, 1, frozenset())]


def test_members_nmax_below_last_breakpoint_rejected():
    p = ll.SetFamilyPresentation(k=2, universe=("0",), events=(ll.SetEvent(0, ll.tail(3), "0"),))
    message = (
        "Nmax = 2 is below the last breakpoint 3; "
        "the containment guarantee needs every tail threshold attempted"
    )
    with pytest.raises(ValueError) as caught:
        list(ll.members(p, 2))
    assert str(caught.value) == message


def test_validate_reads_members_without_family_at(monkeypatch):
    # 4000 single events give 4001 breakpoints; one sweep, not one rescan each
    p = ll.SetFamilyPresentation(
        k=1, universe=("0",), events=tuple(ll.SetEvent(0, ll.single(n), "0") for n in range(4000))
    )
    calls = []
    monkeypatch.setattr(
        "limitlab.families.family_at", lambda *args: calls.append(args) or ll.family_at(*args)
    )
    assert ll.validate(p).ok
    assert calls == []


def _raw_set_log(rng):
    """A set log drawn without filtering, so it may or may not be valid."""
    k = rng.randint(1, 2)
    universe = ("0", "1", "00", "01")
    events = tuple(
        ll.SetEvent(
            i,
            ll.single(rng.randint(0, 3)) if rng.random() < 0.5 else ll.tail(rng.randint(0, 3)),
            rng.choice(universe),
        )
        for i in range(rng.randint(0, 5))
    )
    return ll.SetFamilyPresentation(k=k, universe=universe, events=events)


def _raw_open_log(rng):
    """An open log drawn without filtering: shallow and deep intervals,
    epsilons with odd denominators."""
    epsilon = Fraction(rng.randint(0, 6), rng.randint(1, 7))
    depth = rng.choice((4, 40))
    events = tuple(
        ll.IntervalEvent(
            i,
            ll.single(rng.randint(0, 3)) if rng.random() < 0.5 else ll.tail(rng.randint(0, 3)),
            rand_bits(rng, 0, depth),
        )
        for i in range(rng.randint(0, 6))
    )
    return ll.OpenFamilyPresentation(epsilon=epsilon, events=events)


def raw_logs():
    """60 raw set logs, then 60 raw open logs, both valid and invalid ones."""
    rng = random.Random(105)
    return [_raw_set_log(rng) for _ in range(60)], [_raw_open_log(rng) for _ in range(60)]


def test_validate_iff_every_index_satisfies_invariants():
    set_logs, open_logs = raw_logs()
    for p in set_logs:
        brute = all(
            len(set_family_member(p.events, n)) < 2**p.k
            for n in range(max(ll.breakpoints(p)) + 3)
        )
        assert ll.validate(p).ok == brute
    invalid = 0
    for p in open_logs:
        expected = []
        for n in ll.breakpoints(p):
            mu = ll.family_at(p, n).measure()
            if mu > p.epsilon:
                expected.append(
                    f"measure bound violated at n={n}: mu(U_n) = {ll.format_fraction(mu)}"
                    f" > epsilon = {ll.format_fraction(p.epsilon)}"
                )
        assert ll.validate(p).problems == tuple(expected)
        invalid += bool(expected)
    assert 0 < invalid < 60


@pytest.mark.parametrize(
    "tree,problem",
    [
        (False, "semimeasure violated at n=1: total mass 5/4 > 1"),
        (True, "tree semimeasure violated at n=1: root mass 5/4 > 1"),
    ],
    ids=["flat", "tree"],
)
def test_validate_names_the_semimeasure_budget(tree, problem):
    events = (
        ll.ValueEvent(0, ll.tail(0), "00", Fraction(3, 4)),
        ll.ValueEvent(0, ll.single(1), "01", Fraction(1, 2)),
    )
    p = ll.SemimeasureFamilyPresentation(events=events, tree=tree)
    assert ll.validate(p).problems == (problem,)


def test_members_and_liminf_raise_the_validation_report():
    set_logs, open_logs = raw_logs()
    seen = set()
    for p in set_logs + open_logs:
        report = ll.validate(p)
        seen.add((type(p), report.ok))
        for read in (ll.members, ll.liminf_family):
            if report.ok:
                read(p)
                continue
            with pytest.raises(ll.ValidationError) as caught:
                read(p)
            assert caught.value.report == report
    assert len(seen) == 4  # valid and invalid logs of both kinds


def test_members_report_structural_problems_before_nmax():
    # decreasing stages and an element outside the universe are reported, and
    # the capacity breach (k = 0) is not; an nmax below the last breakpoint
    # is only checked on a valid log
    p = ll.SetFamilyPresentation(
        k=0,
        universe=("0",),
        events=(ll.SetEvent(2, ll.tail(0), "0"), ll.SetEvent(1, ll.tail(3), "zz")),
    )
    report = ll.validate(p)
    assert len(report.problems) == 2 and "capacity" not in " ".join(report.problems)
    with pytest.raises(ll.ValidationError) as caught:
        ll.members(p, 1)
    assert caught.value.report == report


def test_tree_closure_matches_the_least_tree_semimeasure():
    # seeded tables on the sixteenths (0 included), elements up to length 5,
    # many of them prefixes of one another
    rng = random.Random("tree-closure")
    sixteenths = [Fraction(n, 16) for n in range(17)]
    nested = 0
    for _ in range(300):
        table = {}
        for _ in range(rng.randint(0, 8)):
            u = rand_bits(rng, 0, 5)
            if table and rng.random() < 0.4:
                above = rng.choice(sorted(table))
                u = above[: rng.randint(0, len(above))]
            table[u] = rng.choice(sixteenths)
        nested += any(a != b and b.startswith(a) for a in table for b in table)
        closed = least_tree_semimeasure(table)
        assert ll.tree_closure(table) == {y: v for y, v in closed.items() if v > 0}
    assert nested > 100


def test_granularity_violation_reported():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 2),
        events=(ll.IntervalEvent(0, ll.tail(0), "000"),),
        granularity=((0, 3), (5, 2)),
    )
    report = ll.validate(p)
    assert not report.ok and "granularity" in report.problems[0] and "n=5" in report.problems[0]


def test_a_long_interval_is_cut_short_in_the_granularity_problem(monkeypatch):
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "200")
    interval = "0" * 100
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1),
        events=(ll.IntervalEvent(0, ll.tail(0), interval),),
        granularity=((0, 1),),
    )
    assert ll.validate(p).problems == (
        f"granularity violated at n=0: event #0 interval {interval[:64]!r}... "
        "(100 characters) longer than c(n)=1",
    )


@pytest.mark.parametrize(
    "entry,shown",
    [((0, 1, 2), "(0, 1, 2)"), (3, "3"), ([-10**5000], "list(-1000...0 (5001 digits))")],
    ids=["triple", "int", "list-too-long-to-write"],
)
def test_a_granularity_entry_that_is_not_a_pair_is_named(entry, shown):
    p = ll.OpenFamilyPresentation(epsilon=Fraction(1, 2), granularity=((0, 1), entry))
    assert ll.validate(p).problems == (f"granularity entry {shown} must be a pair (n, c)",)


def test_granularity_duplicate_index_reported():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 2), granularity=((1, 2), (1, 3))
    )
    assert not ll.validate(p).ok


def test_require_valid_raises_with_report():
    bad = ll.SetFamilyPresentation(
        k=0, universe=("0",), events=(ll.SetEvent(0, ll.tail(0), "0"),)
    )
    with pytest.raises(ll.ValidationError) as err:
        ll.cover_sets(bad)
    assert err.value.report.problems


# one presentation per mismatch of event and family kind, with the problem
# that names its event
WRONG_KINDS = {
    "set-event-in-open-family": (
        ll.OpenFamilyPresentation(epsilon=Fraction(1), events=(ll.SetEvent(0, ll.tail(0), "0"),)),
        "event #0: SetEvent is not IntervalEvent, the event class of OpenFamilyPresentation",
    ),
    "interval-event-in-set-family": (
        ll.SetFamilyPresentation(
            k=1, universe=("0",), events=(ll.IntervalEvent(0, ll.tail(0), "0"),)),
        "event #0: IntervalEvent is not SetEvent, the event class of SetFamilyPresentation",
    ),
    "set-event-in-semimeasure-family": (
        ll.SemimeasureFamilyPresentation(events=(ll.SetEvent(0, ll.tail(0), "0"),)),
        "event #0: SetEvent is not ValueEvent, the event class of SemimeasureFamilyPresentation",
    ),
    "tuple-as-event": (
        ll.SetFamilyPresentation(k=1, universe=("0",), events=((0, ll.tail(0), "0"),)),
        "event #0: tuple is not SetEvent, the event class of SetFamilyPresentation",
    ),
    "tuple-as-spec": (
        ll.SetFamilyPresentation(
            k=1, universe=("0",), events=(ll.SetEvent(0, ("tail", 0), "0"),)),
        "event #0: malformed index spec ('tail', 0)",
    ),
}


@pytest.mark.parametrize("name", sorted(WRONG_KINDS))
def test_validate_names_an_event_of_the_wrong_kind(name):
    p, problem = WRONG_KINDS[name]
    assert ll.validate(p).problems == (problem,)
    for read in (ll.members, ll.liminf_family):
        with pytest.raises(ll.ValidationError) as caught:
            read(p)
        assert caught.value.report.problems == (problem,)


def test_a_tuple_spec_moves_no_breakpoint_and_is_refused_by_the_strong_cover():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 2), events=(ll.IntervalEvent(0, ("tail", 3), "0"),)
    )
    assert ll.breakpoints(p) == [0]
    with pytest.raises(ll.ValidationError) as caught:
        ll.cover_open_strong(p, Fraction(1))
    assert caught.value.report.problems == ("event #0: malformed index spec ('tail', 3)",)


def test_validate_names_an_int_too_long_to_write():
    # the echo of -10^5000 counts its digits where repr would raise
    p = ll.SetFamilyPresentation(k=-10**5000, universe=("0",), events=())
    assert ll.validate(p).problems == (
        "capacity exponent k must be a natural number, got -1000...0 (5001 digits)",
    )


# a valid presentation of each kind, with one event (and one granularity pair)
TYPED = {
    "set": ll.SetFamilyPresentation(
        k=1, universe=("0",), events=(ll.SetEvent(0, ll.tail(0), "0"),)),
    "semimeasure": ll.SemimeasureFamilyPresentation(
        events=(ll.ValueEvent(0, ll.tail(0), "0", Fraction(1, 2)),)),
    "open": ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 2), events=(ll.IntervalEvent(0, ll.tail(0), "0"),),
        granularity=((0, 1),)),
}
# every field of each: the presentation's, its event's ("event."), its
# spec's ("spec.") and n and c of the open family's granularity pair
FIELDS = [
    (kind, place)
    for kind, p in TYPED.items()
    for place in (
        *p._fields, *(f"event.{f}" for f in p.events[0]._fields), "spec.kind", "spec.index",
        *(("granularity.n", "granularity.c") if kind == "open" else ()),
    )
]
# mistyped values, and an int too long to write, which validate names by its digit count
MISTYPED = [None, True, "1", 0.5, [], -10**5000]
# the probes that are values of the field's type; each leaves its presentation valid
FITTING = [
    ("semimeasure", "tree", True), ("open", "granularity", None), ("open", "granularity", []),
    ("set", "events", []), ("semimeasure", "events", []), ("open", "events", []),
    ("semimeasure", "event.element", "1"), ("open", "event.interval", "1"),
]


def with_field(p, place, value):
    """``p`` with the field at ``place`` (as in ``FIELDS``) set to ``value``."""
    ev = p.events[0]
    record, _, field = place.rpartition(".")
    if record == "event":
        return p._replace(events=(ev._replace(**{field: value}),))
    if record == "spec":
        return p._replace(events=(ev._replace(spec=ev.spec._replace(**{field: value})),))
    if record == "granularity":
        pair = dict(zip("nc", p.granularity[0]), **{field: value})
        return p._replace(granularity=((pair["n"], pair["c"]),))
    return p._replace(**{field: value})


@pytest.mark.parametrize("kind,place", FIELDS, ids=[f"{k}-{f}" for k, f in FIELDS])
def test_a_mistyped_field_is_a_named_problem(kind, place):
    # naturals are ints that are not bools, rationals such ints or Fractions:
    # no value is coerced, and none makes validate raise
    assert ll.validate(TYPED[kind]).ok
    for value in MISTYPED:
        p = with_field(TYPED[kind], place, value)
        report = ll.validate(p)
        if (kind, place, value) in FITTING:
            assert report.ok, (place, value)
            continue
        assert report.problems, (place, value)
        # the strong cover validates before it reads epsilon or the breakpoints
        strong = [lambda p: ll.cover_open_strong(p, Fraction(1))] if kind == "open" else []
        for read in (ll.members, ll.liminf_family, *strong):
            with pytest.raises(ll.ValidationError) as caught:
                read(p)
            assert caught.value.report == report

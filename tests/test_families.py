import random
from fractions import Fraction

import pytest

import limitlab as ll
from generators import gen_open_family, gen_semimeasure_family, gen_set_family
from oracles import open_member_intervals, semimeasure_member, set_family_member


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


def test_family_at_takes_max_of_applicable_values():
    p = ll.SemimeasureFamilyPresentation(
        events=(
            ll.ValueEvent(0, ll.tail(0), "0", Fraction(1, 4)),
            ll.ValueEvent(0, ll.single(3), "0", Fraction(1, 2)),
        )
    )
    assert ll.family_at(p, 3) == {"0": Fraction(1, 2)}
    assert ll.family_at(p, 4) == {"0": Fraction(1, 4)}


def test_family_at_respects_stage():
    p = ll.SetFamilyPresentation(
        k=2,
        universe=("0", "1"),
        events=(ll.SetEvent(1, ll.tail(0), "0"), ll.SetEvent(4, ll.tail(0), "1")),
    )
    assert ll.family_at(p, 0, stage=2) == {"0"}
    assert ll.family_at(p, 0, stage=4) == {"0", "1"}


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


def test_validate_iff_every_index_satisfies_invariants():
    rng = random.Random(105)
    kept = 0
    while kept < 60:
        # raw, unfiltered logs: both valid and invalid ones come out
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
        p = ll.SetFamilyPresentation(k=k, universe=universe, events=events)
        brute = all(
            len(set_family_member(events, n)) < 2**k
            for n in range(max(ll.breakpoints(p)) + 3)
        )
        assert ll.validate(p).ok == brute
        kept += 1


def test_granularity_violation_reported():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 2),
        events=(ll.IntervalEvent(0, ll.tail(0), "000"),),
        granularity=((0, 3), (5, 2)),
    )
    report = ll.validate(p)
    assert not report.ok and "granularity" in report.problems[0] and "n=5" in report.problems[0]


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

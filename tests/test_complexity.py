import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limitlab as ll
from limitlab import complexity, jsonio
from limitlab.cantor import _echo
from limitlab.complexity import _require_all_strings
from oracles import (
    all_strings,
    complexity_by_enumeration,
    complexity_table_by_enumeration,
    counting_violations_by_scan,
    dbar_by_scan,
    least_period_by_definition,
    require_all_strings_by_count,
    strings_up_to,
    table_of,
    table_payload_by_sort,
)


@pytest.fixture(scope="module")
def m0_table():
    return ll.complexity_table(5, 5)


def test_run_m0_literal_mode():
    assert ll.run_m0("00" + "101", 9) == "101"
    assert ll.run_m0("00", 0) == ""


def test_run_m0_periodic_mode():
    assert ll.run_m0("01" + "0", 4) == "0000"
    assert ll.run_m0("01" + "10", 5) == "10101"
    assert ll.run_m0("01" + "1", 0) == ""


def test_run_m0_reserved_programs():
    assert ll.run_m0("11", 0) is None
    assert ll.run_m0("10", 3) is None
    assert ll.run_m0("01", 3) is None
    assert ll.run_m0("1", 0) is None
    assert ll.run_m0("", 0) is None


def test_exact_complexity_periodic_beats_literal():
    assert ll.exact_complexity("0000", 4) == 3


def test_exact_complexity_empty_string():
    assert ll.exact_complexity("", 0) == 2


def test_exact_complexity_literal_only_at_condition_zero():
    assert ll.exact_complexity("01", 0) == 4


def test_exact_complexity_never_exceeds_literal_bound():
    for x in strings_up_to(4):
        for n in range(4):
            assert ll.exact_complexity(x, n) <= len(x) + 2


def test_exact_complexity_matches_enumeration_oracle_small():
    for x in strings_up_to(4):
        for n in range(5):
            assert ll.exact_complexity(x, n) == complexity_by_enumeration(x, n)


def test_exact_complexity_bound_guard():
    with pytest.raises(ValueError):
        ll.exact_complexity("0" * 17, 0)


def test_complexity_table_matches_pointwise(m0_table):
    for x in strings_up_to(3):
        for n in range(4):
            assert m0_table.entries[(x, n)] == ll.exact_complexity(x, n)


def test_counting_bound_holds_for_m0(m0_table):
    assert ll.counting_violations(m0_table) == []
    for n in range(6):
        for m in range(8):
            count = sum(
                1
                for (u, cond), v in m0_table.entries.items()
                if cond == n and v < m
            )
            assert count < 2**m


@pytest.mark.parametrize("max_len", range(9))
def test_complexity_table_matches_program_enumeration(max_len):
    # conditions 0..L+3 take in condition 0 and conditions beyond every length
    table = ll.complexity_table(max_len, max_len + 3)
    assert table.entries == complexity_table_by_enumeration(max_len, range(max_len + 4))


def written_rows(max_len, nmax):
    """The ``entries`` of the ``complexity`` artifact, written from its groups."""
    payload = jsonio.complexity_blocks_to_json(ll.complexity_blocks(max_len, nmax))
    return json.loads(jsonio.dumps_artifact(payload))["entries"]


@pytest.mark.parametrize("max_len", range(8))
def test_complexity_rows_are_the_artifact_rows_in_order(max_len):
    # `limitlab complexity` writes the rows as they come, unsorted
    for nmax in range(8):
        rows = table_payload_by_sort(ll.complexity_table(max_len, nmax))["entries"]
        assert rows == written_rows(max_len, nmax)
        assert all(v == ll.exact_complexity(u, cond) for u, cond, v in rows)


def test_complexity_blocks_compute_periods_only_where_length_is_the_condition(monkeypatch):
    calls = []
    real = complexity._periods
    monkeypatch.setattr(complexity, "_periods", lambda n, *rest: calls.append(n) or real(n, *rest))
    groups = ll.complexity_blocks(5, 8)
    assert sorted(calls) == [1, 2, 3, 4, 5]
    # condition 0, each of 1..5 alone, then 6..8 together
    assert [conditions for conditions, _ in groups] == [
        range(0, 1), range(1, 2), range(2, 3), range(3, 4), range(4, 5), range(5, 6), range(6, 9)
    ]
    for conditions, blocks in groups:
        assert [len(strings) for strings, _ in blocks] == [2**n for n in range(6)]
        assert [type(values) for _, values in blocks] == [
            list if n in conditions and n >= 1 else int for n in range(6)
        ]
    # the groups without a periodic block share one list of literal blocks
    assert groups[0][1] is groups[-1][1]


def test_least_period_matches_its_definition_beyond_the_enumerated_lengths():
    # the enumeration oracles stop at length 8; `complexity --lmax` reaches 16
    for x in (u for n in range(9, 14) for u in all_strings(n)):
        assert complexity._least_period(x) == least_period_by_definition(x)
    rng = random.Random("least-period")
    for n in range(14, complexity.EXACT_COMPLEXITY_BOUND + 1):
        for _ in range(1000):
            # the fill of a random block of length q <= n has least period at most q
            # (q = n draws a uniform string)
            block = "".join(rng.choice("01") for _ in range(rng.randint(1, n)))
            x = (block * n)[:n]
            assert complexity._least_period(x) == least_period_by_definition(x)


def test_block_periods_match_the_definition():
    # _periods reads per(x) off M0's periodic programs, shortest payload last
    by_length = [all_strings(n) for n in range(complexity.EXACT_COMPLEXITY_BOUND + 1)]
    for n in range(1, 14):
        periods = complexity._periods(n, by_length)
        assert periods == [least_period_by_definition(x) for x in all_strings(n)]
    rng = random.Random("block-periods")
    for n in range(14, complexity.EXACT_COMPLEXITY_BOUND + 1):
        periods = complexity._periods(n, by_length)
        for _ in range(1000):
            block = "".join(rng.choice("01") for _ in range(rng.randint(1, n)))
            x = (block * n)[:n]
            assert periods[int(x, 2)] == least_period_by_definition(x)


def test_measure_bound_is_decided_on_integers():
    # epsilon > 2^-c and count / 2^n > 2^-c, against Fraction arithmetic
    rng = random.Random("exceeds")
    for _ in range(3000):
        num, den, c = rng.randint(0, 40), rng.randint(1, 2**rng.randint(0, 12)), rng.randint(0, 16)
        assert complexity._exceeds_power(num, den, c) == (Fraction(num, den) > Fraction(1, 2**c))


def test_exact_complexity_rejects_non_bit_strings():
    with pytest.raises(ValueError):
        ll.exact_complexity("012", 3)


def expected_violations(entries, m_max=None):
    return [
        f"counting bound violated at condition {cond}: "
        f"{count} strings below complexity {m} (bound 2^{m} = {2**m})"
        for cond, m, count in counting_violations_by_scan(entries, m_max)
    ]


COUNTING_TABLES = {
    "m0": ll.complexity_table(5, 6).entries,
    "flat": {(u, len(u)): 0 for u in strings_up_to(3)},
    "negative": {("", 0): -2, ("0", 0): -1, ("1", 0): 3, ("00", 1): -5, ("01", 1): 1},
    "mixed": {
        **{(u, 4): len(u) + 2 for u in strings_up_to(4)},
        **{(u, 4): 1 for u in all_strings(4)[:5]},
        ("x", 2): 0,
        ("", 9): 7,
    },
    "empty": {},
}


@pytest.mark.parametrize("name", sorted(COUNTING_TABLES))
@pytest.mark.parametrize("m_max", [None, -1, 0, 1, 3, 40])
def test_counting_violations_match_full_scan(name, m_max):
    # the violations up to m_max (all when None) are the scan's up to there
    entries = COUNTING_TABLES[name]
    got = ll.counting_violations(table_of(entries))
    expected = expected_violations(entries, m_max)
    if m_max is None:
        assert bool(expected) == (name in ("flat", "negative", "mixed"))
    else:
        got = [p for p in got if int(re.search(r"below complexity (\d+)", p)[1]) <= m_max]
    assert got == expected


def test_counting_violations_match_full_scan_randomized():
    rng = random.Random("counting")
    for _ in range(300):
        entries = {
            (format(rng.randrange(64), "b"), rng.randrange(-1, 4)): rng.randrange(-3, 8)
            for _ in range(rng.randrange(30))
        }
        t = table_of(entries)
        assert ll.counting_violations(t) == expected_violations(entries)


def test_counting_violation_detected():
    flat = table_of({("0", 0): 0, ("1", 0): 0}, mode="plain")
    assert ll.counting_violations(flat)


def constant_length_table(horizon):
    entries = {(u, len(u)): len(u) for u in strings_up_to(horizon)}
    return table_of(entries, mode="conditional")


def test_deficiency_zero_when_complexity_equals_length():
    t = constant_length_table(3)
    report = ll.deficiency_report(t, "010", horizon=3, c=0)
    for _, d, dbar in report.per_prefix:
        assert d == 0 and dbar == 0


def test_dbar_antitone_in_the_prefix():
    t = ll.complexity_table(4, 4)
    report = ll.deficiency_report(t, "01", horizon=4, c=0)
    assert report.dbar("") <= report.dbar("0")
    assert report.dbar("0") <= report.dbar("01")
    with pytest.raises(KeyError):  # "1" is no prefix of the omega "01"
        report.dbar("1")


def test_deficiency_of_example_string():
    t = ll.complexity_table(4, 4)
    report = ll.deficiency_report(t, "0000", horizon=4, c=0)
    rows = {x: (d, dbar) for x, d, dbar in report.per_prefix}
    assert rows["0000"][0] == 4 - 3 == 1


def test_dbar_matches_direct_scan():
    t = ll.complexity_table(4, 4)
    report = ll.deficiency_report(t, "0110", horizon=4, c=1)
    for x, d, dbar in report.per_prefix:
        assert d == len(x) - t.value(x)
        assert dbar == dbar_by_scan(t, x, 4)
        assert dbar <= d


def test_deficiency_report_rejects_short_horizon():
    t = constant_length_table(3)
    with pytest.raises(ValueError):
        ll.deficiency_report(t, "0101", horizon=3, c=0)


def test_deficiency_report_names_missing_entries():
    t = table_of({("", 0): 2}, mode="conditional")
    with pytest.raises(ValueError) as err:
        ll.deficiency_report(t, "0", horizon=1, c=0)
    assert "missing" in str(err.value)


def test_deficiency_family_empty_for_incompressible_table():
    t = constant_length_table(4)
    family = ll.deficiency_family(t, c=0, n_range=(2, 4))
    assert family.events == ()
    assert ll.validate(family).ok
    assert family.epsilon == Fraction(1)


def test_deficiency_family_single_compressible_string():
    entries = {(u, 3): (1 if u == "000" else 3) for u in all_strings(3)}
    t = table_of(entries, mode="conditional")
    family = ll.deficiency_family(t, c=1, n_range=(3, 3))
    member = ll.family_at(family, 3)
    assert member.intervals == ("000",)
    assert member.measure() == Fraction(1, 8) <= Fraction(1, 2)
    assert ll.validate(family).ok


def test_deficiency_family_validates_by_construction():
    t = ll.complexity_table(5, 5)
    for c in (0, 1, 2):
        family = ll.deficiency_family(t, c=c, n_range=(2, 5))
        assert ll.validate(family).ok
        assert family.epsilon == Fraction(1, 2**c)
        last = max(ll.breakpoints(family))
        for n in range(2, 6):
            assert ll.family_at(family, n).measure() <= Fraction(1, 2**c)
        # tail replicates the last level
        assert ll.family_at(family, last + 4) == ll.family_at(family, 5)


def test_deficiency_family_counting_gate():
    entries = {(u, 4): 0 for u in all_strings(4)}
    t = table_of(entries, mode="conditional")
    with pytest.raises(ValueError) as err:
        ll.deficiency_family(t, c=1, n_range=(4, 4))
    assert "counting" in str(err.value)


def test_randomness_report_everything_qualifies_at_full_complexity():
    t = constant_length_table(4)
    report = ll.randomness_report(t, "0101", c=0)
    assert report.qualifying == (0, 1, 2, 3, 4)
    assert report.largest == 4


def test_randomness_report_counting_gate():
    flat = table_of({(u, len(u)): 0 for u in strings_up_to(2)}, mode="conditional")
    with pytest.raises(ValueError):
        ll.randomness_report(flat, "00", c=0)


def test_randomness_report_names_the_missing_prefixes():
    # a table of lengths up to 4 defines the first 5 of the 7 prefixes
    with pytest.raises(ValueError) as err:
        ll.randomness_report(constant_length_table(4), "010101", c=0)
    assert str(err.value) == "table is missing 2 prefixes of the omega prefix: '01010', '010101'"


@pytest.mark.parametrize("omega", ["0a1", "2", " 0"])
def test_randomness_report_checks_the_omega_first(omega):
    # the empty table lacks the prefixes and the flat one breaks the counting bound,
    # but the omega is named first, as deficiency_report names it
    want = f"omega prefix must be a bit string, got {omega!r}"
    flat = table_of({(u, len(u)): 0 for u in strings_up_to(2)})
    for table in (table_of({}), flat):
        with pytest.raises(ValueError, match=re.escape(want)):
            ll.randomness_report(table, omega, c=0)
    with pytest.raises(ValueError, match=re.escape(want)):
        ll.deficiency_report(constant_length_table(4), omega, horizon=4, c=0)


def test_randomness_report_on_m0_values():
    t = ll.complexity_table(4, 4)
    report = ll.randomness_report(t, "0000", c=0)
    assert 0 in report.qualifying  # C('') = 2 >= 0
    assert 4 not in report.qualifying  # C('0000'|4) = 3 < 4
    assert report.count == len(report.qualifying)


def test_ordinal_bounds_empty_cover():
    p = ll.OpenFamilyPresentation(epsilon=Fraction(1, 2), granularity=((0, 0),))
    assert ll.cover_to_complexity_bounds(p, c=1) == {}


def test_ordinal_bounds_two_strings_one_bit():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 4),
        events=(
            ll.IntervalEvent(0, ll.single(3), "000"),
            ll.IntervalEvent(0, ll.single(3), "001"),
        ),
        granularity=((3, 3),),
    )
    assert ll.cover_to_complexity_bounds(p, c=1) == {"000": 1, "001": 1}


def test_ordinal_bounds_tight_count_gives_n_minus_c():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 2),
        events=(
            ll.IntervalEvent(0, ll.tail(2), "00"),
            ll.IntervalEvent(0, ll.tail(2), "10"),
        ),
        granularity=((2, 2),),
    )
    bounds = ll.cover_to_complexity_bounds(p, c=1)
    assert bounds == {"00": 1, "10": 1}  # count 2^(2-1) -> code length 2 - 1


def test_ordinal_bounds_checks_measure_discipline():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 2),
        events=(ll.IntervalEvent(0, ll.tail(0), "0"),),
        granularity=((0, 1), (1, 1)),
    )
    with pytest.raises(ValueError):
        ll.cover_to_complexity_bounds(p, c=2)  # epsilon 1/2 > 2^-2


def test_ordinal_bounds_checks_granularity_levels():
    p = ll.OpenFamilyPresentation(
        epsilon=Fraction(1, 4),
        events=(ll.IntervalEvent(0, ll.tail(0), "00"),),
        granularity=((0, 2),),
    )
    with pytest.raises(ValueError):
        ll.cover_to_complexity_bounds(p, c=2)  # c(0) = 2 > 0


# (the argument's name, its construction given the value under test in its place)
GATED_CALLS = {
    "complexity_blocks-max_len": ("max_len", lambda v: ll.complexity_blocks(v, 2)),
    "complexity_table-nmax": ("nmax", lambda v: ll.complexity_table(2, v)),
    "deficiency_family-c": (
        "c", lambda v: ll.deficiency_family(ll.complexity_table(3, 3), c=v, n_range=(0, 2))),
    "deficiency_family-n_min": (
        "n_min", lambda v: ll.deficiency_family(ll.complexity_table(3, 3), c=0, n_range=(v, 2))),
    "deficiency_family-n_max": (
        "n_max", lambda v: ll.deficiency_family(ll.complexity_table(3, 3), c=0, n_range=(0, v))),
    "cover_to_complexity_bounds-c": ("c", lambda v: ll.cover_to_complexity_bounds(
        ll.OpenFamilyPresentation(epsilon=Fraction(1, 2), granularity=((0, 0),)), c=v)),
}


@pytest.mark.parametrize(
    "value", [None, True, -1, "3", 0.5, -10**5000],
    ids=["None", "True", "-1", "str", "float", "-10**5000"])
@pytest.mark.parametrize("call", sorted(GATED_CALLS))
def test_constructions_refuse_a_non_natural_argument_by_name(call, value):
    # refused before any work: not an empty table, a shift error or a TypeError
    name, construct = GATED_CALLS[call]
    with pytest.raises(ValueError) as err:
        construct(value)
    assert str(err.value) == f"{name} must be a natural number, got {_echo(value)}"


HUGE = "1000...0 (5001 digits)"  # how a message names 10**5000, which str() refuses
BEYOND_TEXT = "has more digits than sys.get_int_max_str_digits() = 4300"


@pytest.mark.parametrize(
    "construct,message",
    [
        (lambda: ll.complexity_blocks(10**5000, 2),
         f"max_len {HUGE} exceeds the enumeration bound 16"),
        (lambda: ll.deficiency_family(ll.complexity_table(3, 3), 0, (10**5000, 10**5000)),
         f"length {HUGE} (--nmin or --horizon) is too large: the count 2^{HUGE} {BEYOND_TEXT}"),
        (lambda: ll.deficiency_family(ll.complexity_table(3, 3), 10**5000, (0, 2)),
         f"c = {HUGE} is too large: epsilon = 2^-{HUGE} {BEYOND_TEXT}"),
        (lambda: ll.cover_to_complexity_bounds(
            ll.OpenFamilyPresentation(epsilon=Fraction(1, 2), granularity=((0, 0),)), 10**5000),
         f"c = {HUGE} (--c) is too large: the bound 2^-{HUGE} {BEYOND_TEXT}"),
        (lambda: ll.cover_open(ll.OpenFamilyPresentation(epsilon=Fraction(1, 2)), 10**5000),
         f"Lmax = {HUGE} exceeds the interval depth cap 64"),
        (lambda: ll.cover_sets(ll.SetFamilyPresentation(
            k=1, universe=("0",), events=(ll.SetEvent(0, ll.single(10**5000), "0"),)), nmax=3),
         "Nmax = 3 is below the last breakpoint 1000...1 (5001 digits); "  # single(n) ends at n + 1
         "the containment guarantee needs every tail threshold attempted"),
    ],
    ids=["complexity_blocks-max_len", "deficiency_family-n_range", "deficiency_family-c",
         "cover_to_complexity_bounds-c", "cover_open-lmax", "cover_sets-breakpoint"],
)
def test_an_argument_too_long_to_write_is_named(construct, message):
    # a natural past the interpreter's digit limit reaches the refusal's words by its digits
    with pytest.raises(ValueError) as err:
        construct()
    assert str(err.value) == message


def synthetic_compressible_table(stem, c, horizon):
    """Every extension of ``stem`` compresses by c + 1; everything else is
    incompressible.  Satisfies the counting bound as long as c + 1 <= len(stem) + 1."""
    entries = {}
    for u in strings_up_to(horizon):
        if u.startswith(stem):
            entries[(u, len(u))] = max(len(u) - c - 1, 0)
        else:
            entries[(u, len(u))] = len(u)
    return table_of(entries, mode="conditional")


@pytest.mark.parametrize("c", [0, 1])
def test_forward_pipeline_covers_high_dbar_intervals(c):
    stem = "0" * (c + 1)
    t = synthetic_compressible_table(stem, c, horizon=8)
    assert ll.counting_violations(t) == []
    report = ll.deficiency_report(t, stem, horizon=8, c=c)
    assert report.dbar(stem) > c
    family = ll.deficiency_family(t, c=c, n_range=(2, 8))
    cover = ll.cover_open(family, lmax=8)
    assert cover.region.covers_string(stem)
    assert cover.region.measure() <= Fraction(1, 2**c)


def test_plain_mode_uses_condition_zero():
    # one shared condition: literal-style costs keep the counting bound
    entries = {(u, 0): len(u) + 2 for u in strings_up_to(3)}
    entries[("000", 0)] = 1
    t = table_of(entries, mode="plain")
    assert t.value("000") == 1
    assert t.value("01") == 4
    assert ll.counting_violations(t) == []
    family = ll.deficiency_family(t, c=1, n_range=(3, 3))
    assert ll.family_at(family, 3).intervals == ("000",)
    report = ll.randomness_report(t, "000", c=0)
    assert report.qualifying == (0, 1, 2)  # length 3 compresses below 3


@pytest.mark.parametrize("call", [
    lambda t: ll.deficiency_report(t, "0", 1, 0), lambda t: ll.randomness_report(t, "0", 0),
    lambda t: ll.deficiency_family(t, 0, (1, 2)), ll.counting_violations,
], ids=["deficiency_report", "randomness_report", "deficiency_family", "counting_violations"])
def test_a_table_of_odd_fields_is_refused_by_the_field(call):
    # an unknown mode was once read as plain; a condition's odd dict is named by its condition
    t = ll.complexity_table(2, 2)
    with pytest.raises(ValueError, match='^mode must be "conditional" or "plain", got \'bogus\'$'):
        call(t._replace(mode="bogus"))
    with pytest.raises(ValueError, match=r"^by_condition\[1\] must be a dict, got list$"):
        call(t._replace(by_condition={**t.by_condition, 1: []}))


@pytest.mark.parametrize("mode", ["conditional", "plain"])
def test_lookups_read_the_condition_of_the_mode(mode):
    # a string is looked up under its length (conditional) or under 0 (plain), and
    # under no other condition, whatever the table holds there
    rng = random.Random(f"lookups-{mode}")
    for _ in range(100):
        entries = {
            (rng.choice(strings_up_to(3) + ["2", "a0"]), rng.randrange(-1, 5)): rng.randrange(9)
            for _ in range(rng.randrange(40))
        }
        t = table_of(entries, mode)
        for u in strings_up_to(4) + ["2", "a0"]:
            key = (u, len(u) if mode == "conditional" else 0)
            assert t.has(u) == (key in entries)
            if key in entries:
                assert t.value(u) == entries[key]
            else:
                with pytest.raises(KeyError):
                    t.value(u)


def test_plain_refusal_counts_only_condition_zero():
    # the strings of length 3 under condition 3 do not fill a plain table's length 3
    entries = {(u, 0): len(u) + 2 for u in strings_up_to(3) if u not in ("010", "111")}
    entries.update({(u, 3): 5 for u in all_strings(3)})
    want = "table is missing 2 of the 8 strings of length 3"
    for check in (_require_all_strings, require_all_strings_by_count):
        assert refusal(check, table_of(entries, "plain"), range(5)) == want
    assert refusal(_require_all_strings, table_of(entries, "conditional"), range(4)) == (
        "table is missing 2 of the 2 strings of length 1"
    )


def test_forward_pipeline_low_dbar_strings_not_forced():
    # sanity: with the plain machine table nothing of length <= 2 has dbar > 0
    t = ll.complexity_table(8, 8)
    for x in strings_up_to(2):
        report = ll.deficiency_report(t, x, horizon=8, c=0)
        assert report.dbar(x) <= 0


@st.composite
def small_tables(draw):
    """Tables that fill every bit string up to some length under its own
    condition, less a few, plus non-bit strings and wrong conditions."""
    mode = draw(st.sampled_from(["conditional", "plain"]))
    full = draw(st.integers(-1, 4))
    own = (lambda u: len(u)) if mode == "conditional" else (lambda u: 0)
    keys = [(u, own(u)) for u in strings_up_to(full)]  # none when full = -1
    dropped = draw(st.sets(st.integers(0, 30), max_size=3))
    entries = {key: 2 for i, key in enumerate(keys) if i not in dropped}
    extras = st.tuples(st.text("01a2", max_size=5), st.integers(-1, 6))
    for key in draw(st.lists(extras, max_size=8)):
        entries[key] = draw(st.integers(0, 8))
    return table_of(entries, mode=mode)


def refusal(check, t, lengths):
    try:
        check(t, lengths)
    except ValueError as exc:
        return str(exc)
    return None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(small_tables(), st.integers(0, 6), st.integers(-1, 6))
def test_require_all_strings_matches_counting_oracle(t, low, high):
    lengths = range(low, high + 1)  # empty when high < low
    assert refusal(_require_all_strings, t, lengths) == refusal(
        require_all_strings_by_count, t, lengths
    )

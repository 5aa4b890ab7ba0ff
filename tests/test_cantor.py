import random
import sys
from fractions import Fraction

import pytest

import limitlab as ll
from oracles import all_strings, measure_by_counting, member


def rand_intervals(rng, count, max_len=5, min_len=0):
    return [
        "".join(rng.choice("01") for _ in range(rng.randint(min_len, max_len)))
        for _ in range(count)
    ]


def sample_points(rng, intervals, count, depth):
    """Random depth-bit points, half of them steered into or beside the given intervals."""
    points = []
    for _ in range(count):
        stem = ""
        if intervals and rng.random() < 0.5:
            near = rng.choice(intervals)
            stem = near[: rng.randint(max(len(near) - 2, 0), len(near))]
        points.append(stem + "".join(rng.choice("01") for _ in range(depth - len(stem))))
    return points


OPS = {
    "union": lambda x, y: x or y,
    "intersection": lambda x, y: x and y,
    "difference": lambda x, y: x and not y,
    "complement": lambda x, y: not x,
}


def apply_op(a, b, kind):
    return a.complement() if kind == "complement" else getattr(a, kind)(b)


def test_normalize_empty():
    assert ll.normalize([]).is_empty()
    assert ll.normalize([]).intervals == ()


def test_the_constructor_make_and_replace_canonicalize_and_check():
    # building a ClopenSet is normalize: a str is refused, not read as its characters
    assert ll.ClopenSet(["1", "0"]) == ll.FULL and ll.ClopenSet() == ll.EMPTY
    assert ll.ClopenSet._make([("00", "01", "011")]).intervals == ("0",)
    replaced = ll.FULL._replace(intervals=["10", "11"])
    assert replaced == ll.interval("1") and type(replaced) is ll.ClopenSet
    for intervals in ["01", None, ["2"], ["0" * (ll.max_interval_depth() + 1)]]:
        with pytest.raises(ValueError):
            ll.ClopenSet(intervals)
        with pytest.raises(ValueError):
            ll.EMPTY._replace(intervals=intervals)


def test_normalize_sibling_merge_to_full():
    assert ll.normalize(["0", "1"]).intervals == ("",)


def test_normalize_prefix_absorption():
    s = ll.normalize(["0", "00"])
    assert s.intervals == ("0",)
    assert repr(ll.normalize(["11", "0", "110"])) == "ClopenSet(['0', '11'])"
    for w in all_strings(2):
        assert member(w, s.intervals) == member(w, ["0", "00"])


def test_normalize_idempotent_on_random_sets():
    rng = random.Random(7)
    for _ in range(100):
        s = ll.normalize(rand_intervals(rng, rng.randint(0, 6)))
        assert ll.normalize(s.intervals) == s


def test_normalize_matches_membership():
    rng = random.Random(11)
    for _ in range(150):
        raw = rand_intervals(rng, rng.randint(0, 6))
        s = ll.normalize(raw)
        depth = max((len(x) for x in raw), default=0) + 2
        for w in all_strings(depth):
            assert member(w, s.intervals) == member(w, raw)


def test_normalize_output_is_antichain_without_sibling_pairs():
    rng = random.Random(13)
    for _ in range(100):
        s = ll.normalize(rand_intervals(rng, rng.randint(0, 6)))
        items = s.intervals
        for a in items:
            for b in items:
                if a != b:
                    assert not b.startswith(a)
            if a:
                assert a[:-1] + ("1" if a[-1] == "0" else "0") not in items or False
        # sibling merge: x0 and x1 never both present
        stems = [x[:-1] for x in items if x]
        assert all(
            not (stem + "0" in items and stem + "1" in items) for stem in stems
        )


def test_measure_basic_interval():
    assert ll.interval("010").measure() == Fraction(1, 8)


def test_measure_full_and_empty():
    assert ll.FULL.measure() == 1
    assert ll.EMPTY.measure() == 0


def test_measure_union_of_two():
    s = ll.normalize(["0", "11"])
    assert s.measure() == Fraction(3, 4)
    assert s.measure() == measure_by_counting(s.intervals, 2)


def test_measure_matches_counting_oracle():
    rng = random.Random(17)
    for _ in range(100):
        s = ll.normalize(rand_intervals(rng, rng.randint(0, 6)))
        depth = max((len(x) for x in s.intervals), default=0)
        assert s.measure() == measure_by_counting(s.intervals, depth)


def test_measure_additivity():
    rng = random.Random(19)
    for _ in range(150):
        a = ll.normalize(rand_intervals(rng, rng.randint(0, 5)))
        b = ll.normalize(rand_intervals(rng, rng.randint(0, 5)))
        lhs = a.union(b).measure() + a.intersection(b).measure()
        assert lhs == a.measure() + b.measure()


def test_boolean_examples():
    assert ll.interval("0").union(ll.interval("1")).is_full()
    assert ll.interval("0").difference(ll.interval("0")).is_empty()
    got = ll.normalize(["0", "10"]).intersection(ll.interval("1"))
    assert got.intervals == ("10",)
    for w in all_strings(2):
        assert member(w, got.intervals) == (member(w, ["0", "10"]) and member(w, ["1"]))


@pytest.mark.parametrize("kind", list(OPS))
def test_boolean_ops_match_membership(kind):
    rng = random.Random(hash(kind) % 1000)
    for _ in range(120):
        a = ll.normalize(rand_intervals(rng, rng.randint(0, 5)))
        b = ll.normalize(rand_intervals(rng, rng.randint(0, 5)))
        got = apply_op(a, b, kind)
        depth = max(
            [len(x) for x in a.intervals + b.intervals + got.intervals] or [0]
        ) + 2
        for w in all_strings(depth):
            expect = OPS[kind](member(w, a.intervals), member(w, b.intervals))
            assert member(w, got.intervals) == expect


@pytest.mark.parametrize("kind", list(OPS))
def test_boolean_ops_match_membership_at_mixed_depths(kind):
    # one operand 40-60 bits deep, the other 0-3: both must be rescaled to a common depth
    rng = random.Random(kind)
    for _ in range(40):
        deep = ll.normalize(rand_intervals(rng, rng.randint(1, 4), max_len=60, min_len=40))
        shallow = ll.normalize(rand_intervals(rng, rng.randint(0, 3), max_len=3))
        a, b = (deep, shallow) if rng.random() < 0.5 else (shallow, deep)
        got = apply_op(a, b, kind)
        assert ll.normalize(got.intervals) == got
        for w in sample_points(rng, a.intervals + b.intervals + got.intervals, 300, 62):
            expect = OPS[kind](member(w, a.intervals), member(w, b.intervals))
            assert member(w, got.intervals) == expect


def test_is_full_examples():
    assert ll.FULL.is_full()
    assert not ll.EMPTY.is_full()
    assert ll.normalize(["0", "10", "11"]).is_full()


def test_is_full_iff_measure_one():
    rng = random.Random(23)
    for _ in range(150):
        s = ll.normalize(rand_intervals(rng, rng.randint(0, 6)))
        assert s.is_full() == (s.measure() == 1)


def test_leftmost_avoiding_examples():
    assert ll.EMPTY.leftmost_avoiding(2) == "00"
    assert ll.FULL.leftmost_avoiding(2) is None
    assert ll.normalize(["0", "10"]).leftmost_avoiding(2) == "11"
    with pytest.raises(ValueError, match="^length must be a natural number, got -1$"):
        ll.EMPTY.leftmost_avoiding(-1)


def test_leftmost_avoiding_matches_scan():
    rng = random.Random(29)
    for _ in range(150):
        s = ll.normalize(rand_intervals(rng, rng.randint(0, 5), max_len=4))
        length = rng.randint(0, 6)
        want = None
        for w in all_strings(length):
            if not s.meets_interval(w):
                want = w
                break
        assert s.leftmost_avoiding(length) == want


def test_covers_string_and_meets_interval():
    s = ll.normalize(["01", "1"])
    assert s.covers_string("011")
    assert "1" in s
    assert not s.covers_string("00")
    assert s.meets_interval("0")  # "01" sits below "0"
    assert not s.meets_interval("00")


def test_interval_overlap_is_exact():
    rng = random.Random(31)
    for _ in range(150):
        intervals = rand_intervals(rng, rng.randint(0, 5))
        s = ll.normalize(intervals)
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        # the part of the union below x, counted at depth 6 (below every interval)
        inside = [x + w for w in all_strings(6 - len(x)) if member(x + w, intervals)]
        assert s.interval_overlap(x) == measure_by_counting(inside, 6)


def test_covers_string_and_meets_interval_match_membership_at_mixed_depths():
    rng = random.Random(37)
    for _ in range(150):
        intervals = rand_intervals(rng, rng.randint(0, 4), max_len=6)
        s = ll.normalize(intervals)
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 7)))
        depth = max([len(x)] + [len(i) for i in intervals])
        points = [x + w for w in all_strings(depth - len(x))]
        assert s.covers_string(x) == all(member(w, intervals) for w in points)
        assert s.meets_interval(x) == any(member(w, intervals) for w in points)


@pytest.mark.parametrize("method", ["covers_string", "meets_interval", "interval_overlap"])
@pytest.mark.parametrize("x", ["abc", "012", "0" * 65])
def test_interval_questions_refuse_a_non_interval(method, x):
    with pytest.raises(ValueError):
        getattr(ll.normalize(["01", "1"]), method)(x)


def test_bad_characters_rejected():
    with pytest.raises(ValueError):
        ll.normalize(["012"])
    with pytest.raises(ValueError):
        ll.interval("abc")


def test_depth_cap_default():
    ll.interval("0" * 64)
    with pytest.raises(ValueError):
        ll.interval("0" * 65)


def test_depth_cap_env_override(monkeypatch):
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "8")
    assert ll.max_interval_depth() == 8
    with pytest.raises(ValueError):
        ll.interval("0" * 9)
    for junk in ["junk", "6_4", "+8", "\u0668", "8.0"]:
        monkeypatch.setenv("LIMITLAB_MAX_DEPTH", junk)
        with pytest.raises(ValueError):
            ll.max_interval_depth()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_depth_cap_env_names_the_digit_limit(monkeypatch):
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "9" * 5000)
    with pytest.raises(ValueError) as refused:
        ll.max_interval_depth()
    assert str(refused.value) == (
        "LIMITLAB_MAX_DEPTH: integer text has more digits than "
        f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}"
    )


def test_depth_cap_env_read_once_per_call(monkeypatch):
    reads = []
    real = ll.cantor.max_interval_depth
    count = lambda: reads.append(1) or real()  # noqa: E731
    monkeypatch.setattr("limitlab.cantor.max_interval_depth", count)
    monkeypatch.setattr("limitlab.families.max_interval_depth", count)
    ll.normalize(f"{n:07b}" for n in range(100))
    assert len(reads) == 1
    universe = tuple(f"{n:05b}" for n in range(20))
    events = tuple(ll.SetEvent(0, ll.tail(0), u) for u in universe[:3])
    assert ll.validate(ll.SetFamilyPresentation(k=3, universe=universe, events=events)).ok
    assert len(reads) == 2


def test_echoed_input_is_cut_after_64_characters():
    # a short input keeps its repr; a longer one shows its first 64 characters and its length
    for text in ["", "x'y", "\u0663\n", "a" * 64, ["0"] * 12]:
        assert ll.cantor._echo(text) == repr(text)
    assert ll.cantor._echo("ab" * 50) == f"{'ab' * 32!r}... (100 characters)"
    assert ll.cantor._echo(["0"] * 30) == f"{repr(['0'] * 30)[:64]!r}... (150 characters)"
    with pytest.raises(ValueError, match=r"^not an integer: '7{64}'\.\.\. \(65 characters\)$"):
        ll.cantor.parse_int("7" * 64 + "x")


def test_an_int_too_long_to_write_is_echoed_by_its_digits():
    # repr raises past the interpreter's digit limit; the echo names the int without it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert ll.cantor._echo(-10**5000) == "-1000...0 (5001 digits)"
        assert ll.cantor._echo(10**5000 + 7) == "1000...7 (5001 digits)"
        assert ll.cantor._echo(2**20000 - 1) == "3980...5 (6021 digits)"
        assert ll.cantor._echo(10**4300) == "1000...0 (4301 digits)"
        # up to the limit an int is text, cut as any long text
        assert ll.cantor._echo(10**4299) == f"{'1' + '0' * 63!r}... (4300 characters)"
        # a record or sequence that holds one is written item by item, cut as any text
        assert ll.cantor._echo(ll.single(-10**5000)) == (
            "IndexSpec('single', -1000...0 (5001 digits))")
        long_list = f"list({', '.join(['1000...0 (5001 digits)'] * 3)})"
        assert ll.cantor._echo([10**5000] * 3) == (
            f"{long_list[:64]!r}... ({len(long_list)} characters)")
        assert ll.cantor._echo({0: 10**5000}) == "<dict that repr refuses>"
    finally:
        sys.set_int_max_str_digits(limit)


def test_fraction_round_trip():
    for text, value in [("1/2", Fraction(1, 2)), ("3", Fraction(3)), ("-2/4", Fraction(-1, 2))]:
        assert ll.parse_fraction(text) == value
    assert ll.format_fraction(Fraction(1, 2)) == "1/2"
    assert ll.format_fraction(Fraction(3)) == "3/1"
    assert ll.parse_fraction(ll.format_fraction(Fraction(7, 12))) == Fraction(7, 12)


def test_fraction_rejects_floats_and_junk():
    for bad in ["0.5", "1e-3", "", "1/0", "a/b", "1_0/16", "1/1_6", "+1/2", "1 /2", "\u0663/4", "-"]:
        with pytest.raises(ValueError):
            ll.parse_fraction(bad)
    for bad, kind in [(1, "int"), (0.5, "float"), (None, "NoneType")]:
        with pytest.raises(ValueError, match=f"^rational text expected, got {kind}$"):
            ll.parse_fraction(bad)

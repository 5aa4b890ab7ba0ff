"""Every public construction ends one of three ways whatever a scalar or record
argument, or a record's field, holds: a result, a ``ValidationError``, or a
``ValueError`` whose words name the argument or the field.  Never a ``TypeError``
or an ``AttributeError``, and never the interpreter's refusal to write an int of
too many digits."""

import re
from fractions import Fraction

import pytest

import limitlab as ll
from limitlab import jsonio
from test_cli import FIXTURES

ODD = {
    "None": None, "True": True, "-1": -1, "str": "3", "float": 0.5, "list": [],
    "10**5000": 10**5000, "-10**5000": -10**5000,
}
EIGHTHS = [Fraction(n, 8) for n in range(9)]


def fixture(name, parse=jsonio.parse_presentation):
    return parse((FIXTURES / name).read_text())


def table():
    return ll.complexity_table(3, 3)


def trace():
    return fixture("trace.json", jsonio.parse_trace)


# (the words by which a refusal names the argument, or the bound it crossed, and the
# call given the value in its place)
CALLS = {
    "cover_sets-p": (("p",), lambda v: ll.cover_sets(v)),
    "cover_semimeasure-p": (("p",), lambda v: ll.cover_semimeasure(v, EIGHTHS)),
    "cover_open-p": (("p",), lambda v: ll.cover_open(v, 3)),
    "cover_open_strong-p": (("p",), lambda v: ll.cover_open_strong(v, 1)),
    "decompose_liminf-p": (("p",), lambda v: ll.decompose_liminf(v)),
    "members-p": (("p",), lambda v: ll.members(v)),
    "liminf_family-p": (("p",), lambda v: ll.liminf_family(v)),
    "validate-p": (("p",), lambda v: ll.validate(v)),
    "family_at-p": (("p",), lambda v: ll.family_at(v, 0)),
    "breakpoints-p": (("p",), lambda v: ll.breakpoints(v)),
    "cover_to_complexity_bounds-p": (("p",), lambda v: ll.cover_to_complexity_bounds(v, 1)),
    "counting_violations-t": (("t",), lambda v: ll.counting_violations(v)),
    "ComplexityTable-by_condition": (
        ("by_condition",), lambda v: ll.deficiency_report(ll.ComplexityTable(v), "01", 3, 0)),
    "ComplexityTable-mode": (
        ("mode",), lambda v: ll.randomness_report(table()._replace(mode=v), "01", 0)),
    "ForcingInstance-initial_u": (("initial_u",), lambda v: ll.force(ll.ForcingInstance(
        v, (("q", ll.interval("1")),)), 2)),
    "ForcingInstance-queries": (
        ("queries",), lambda v: ll.force(ll.ForcingInstance(ll.interval("0"), v), 2)),
    "cover_sets-nmax": (("nmax",), lambda v: ll.cover_sets(fixture("set_family.jsonl"), v)),
    "cover_semimeasure-grid": (
        ("grid",), lambda v: ll.cover_semimeasure(fixture("semimeasure_flat.jsonl"), v)),
    "cover_semimeasure-nmax": (("nmax",), lambda v: ll.cover_semimeasure(
        fixture("semimeasure_flat.jsonl"), EIGHTHS, v)),
    "cover_open-lmax": (("lmax",), lambda v: ll.cover_open(fixture("open_family.jsonl"), v)),
    "cover_open-nmax": (("nmax",), lambda v: ll.cover_open(fixture("open_family.jsonl"), 3, v)),
    "cover_open_strong-epsilon_prime": (("epsilon_prime", "epsilon'"), lambda v: (
        ll.cover_open_strong(fixture("open_family_gran.jsonl"), v))),
    "members-nmax": (("nmax",), lambda v: ll.members(fixture("set_family.jsonl"), v)),
    "complexity_blocks-max_len": (("max_len",), lambda v: ll.complexity_blocks(v, 2)),
    "complexity_blocks-nmax": (("nmax",), lambda v: ll.complexity_blocks(2, v)),
    "complexity_table-max_len": (("max_len",), lambda v: ll.complexity_table(v, 2)),
    "complexity_table-nmax": (("nmax",), lambda v: ll.complexity_table(2, v)),
    "exact_complexity-x": (("bit strings",), lambda v: ll.exact_complexity(v, 2)),
    "exact_complexity-condition": (("condition",), lambda v: ll.exact_complexity("01", v)),
    "run_m0-program": (("program",), lambda v: ll.run_m0(v, 2)),
    "run_m0-condition": (("condition",), lambda v: ll.run_m0("011", v)),
    "family_at-n": (("n",), lambda v: ll.family_at(fixture("set_family.jsonl"), v)),
    "deficiency_report-t": (("t",), lambda v: ll.deficiency_report(v, "01", 3, 0)),
    "deficiency_report-omega_prefix": (
        ("omega prefix",), lambda v: ll.deficiency_report(table(), v, 3, 0)),
    "deficiency_report-horizon": (
        ("horizon", "strings of length"), lambda v: ll.deficiency_report(table(), "01", v, 0)),
    "deficiency_report-c": (("c",), lambda v: ll.deficiency_report(table(), "01", 3, v)),
    "deficiency_family-t": (("t",), lambda v: ll.deficiency_family(v, 0, (1, 3))),
    "deficiency_family-n_range": (("n_range",), lambda v: ll.deficiency_family(table(), 0, v)),
    "deficiency_family-c": (("c",), lambda v: ll.deficiency_family(table(), v, (1, 3))),
    "deficiency_family-n_min": (
        ("n_min", "length range"), lambda v: ll.deficiency_family(table(), 0, (v, 3))),
    "deficiency_family-n_max": (
        ("n_max", "strings of length"), lambda v: ll.deficiency_family(table(), 0, (1, v))),
    "randomness_report-t": (("t",), lambda v: ll.randomness_report(v, "01", 0)),
    "randomness_report-omega_prefix": (
        ("omega prefix",), lambda v: ll.randomness_report(table(), v, 0)),
    "randomness_report-c": (("c",), lambda v: ll.randomness_report(table(), "01", v)),
    "cover_to_complexity_bounds-c": (("c",), lambda v: ll.cover_to_complexity_bounds(
        fixture("open_family_levels.jsonl"), v)),
    "force-instance": (("instance",), lambda v: ll.force(v, 2)),
    "force-witness_length": (("witness length", "witness_length"), lambda v: ll.force(
        fixture("forcing.json", jsonio.parse_forcing_instance), v)),
    "limit_frequency-trace": (("trace",), lambda v: ll.limit_frequency(v)),
    "running_frequency-trace": (("trace",), lambda v: ll.running_frequency(v, 3)),
    "running_frequency-n": (("n",), lambda v: ll.running_frequency(trace(), v)),
    "trace_to_family-trace": (("trace",), lambda v: ll.trace_to_family(v, 4, EIGHTHS)),
    "trace_to_family-nmax": (("nmax",), lambda v: ll.trace_to_family(trace(), v, EIGHTHS)),
    "trace_to_family-grid": (("grid",), lambda v: ll.trace_to_family(trace(), 4, v)),
}
# these build one record per unit of the value, which item 2 of ROADMAP.md is to bound,
# and run_m0's periodic mode prints as many bits as its condition
UNBOUNDED = {
    ("complexity_table-nmax", "10**5000"), ("trace_to_family-nmax", "10**5000"),
    ("run_m0-condition", "10**5000"),
}
# None is their default: up to the last breakpoint
DEFAULT_NONE = {"cover_sets-nmax", "cover_semimeasure-nmax", "cover_open-nmax", "members-nmax"}
# an empty list is a valid value: no queries to answer
EMPTY_VALID = {"ForcingInstance-queries"}


@pytest.mark.parametrize("call,value", [
    (call, value) for call in sorted(CALLS) for value in ODD if (call, value) not in UNBOUNDED
])
def test_an_odd_argument_ends_one_of_three_ways(call, value):
    names, construct = CALLS[call]
    try:
        construct(ODD[value])
    except ll.ValidationError:
        pass
    except ValueError as err:
        text = str(err)
        assert "Exceeds the limit" not in text
        assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text, re.IGNORECASE)
                   for name in names), text
    else:
        # no value is coerced: only a natural too long to write, a default, or an
        # empty list where one is valid, runs
        assert (value == "10**5000" or value == "None" and call in DEFAULT_NONE
                or value == "list" and call in EMPTY_VALID)


HUGE = 10**5000
SHOWN, SHOWN_NEXT = ll.cantor._int_text(HUGE), ll.cantor._int_text(HUGE + 1)


@pytest.mark.parametrize("construct,words", [
    (lambda: ll.cover_to_complexity_bounds(
        fixture("open_family_levels.jsonl")._replace(granularity=((HUGE, HUGE + 1),)), 1),
     f"granularity c({SHOWN}) = {SHOWN_NEXT} exceeds the level {SHOWN}"),
    (lambda: ll.deficiency_family(table(), 0, (HUGE + 1, HUGE)),
     f"bad length range ({SHOWN_NEXT}, {SHOWN})"),
], ids=["granularity", "length-range"])
def test_a_refusal_names_ints_too_long_to_write_by_their_digits(construct, words):
    # both ints are valid where they stand; only their order is refused
    with pytest.raises(ValueError) as refused:
        construct()
    assert str(refused.value).startswith(words)


# the kind of presentation each construction takes, as its refusal of another names it
TAKES = {
    "cover_sets": "a SetFamilyPresentation",
    "cover_semimeasure": "a SemimeasureFamilyPresentation",
    "cover_open": "an OpenFamilyPresentation",
    "cover_open_strong": "an OpenFamilyPresentation",
    "decompose_liminf": "an OpenFamilyPresentation",
    "cover_to_complexity_bounds": "an OpenFamilyPresentation",
}
# a valid presentation of each kind
KINDS = {
    "SetFamilyPresentation": "set_family.jsonl",
    "SemimeasureFamilyPresentation": "semimeasure_flat.jsonl",
    "OpenFamilyPresentation": "open_family.jsonl",
}


@pytest.mark.parametrize("call,kind", [
    (call, kind) for call in sorted(TAKES) for kind in KINDS if not TAKES[call].endswith(kind)
])
def test_a_presentation_of_another_kind_is_refused_by_name(call, kind):
    # the CLI refuses the wrong kind before it calls a construction; the construction
    # refuses it too, before it reads a field that kind lacks
    p = fixture(KINDS[kind])
    assert type(p).__name__ == kind and ll.validate(p).ok
    with pytest.raises(ValueError) as refused:
        CALLS[f"{call}-p"][1](p)
    assert str(refused.value) == f"p must be {TAKES[call]}, got {kind}"

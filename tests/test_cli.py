import atexit
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import limitlab as ll
from limitlab import cli, jsonio
from limitlab.cli import COMMANDS, FLAGS, build_parser, main
from oracles import table_payload_by_sort

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

EIGHTHS = "0/8,1/8,2/8,3/8,4/8,5/8,6/8,7/8,1"

LONG_INT = "9" * 5000  # beyond CPython's default limit of 4300 digits
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit"
)
LONG_TEXT = "x" * 100_000
CUT_SHORT = f"{'x' * 64!r}... (100000 characters)"
TOO_MANY_DIGITS = (
    "integer text has more digits than sys.get_int_max_str_digits() = "
    f"{getattr(sys, 'get_int_max_str_digits', lambda: 0)()}"
)

GOLDEN_RUNS = [
    (
        "validate.json",
        ["validate", "--input", "set_family_bad.jsonl"],
        1,
    ),
    ("liminf.json", ["liminf", "--input", "open_family.jsonl"], 0),
    ("cover_sets.json", ["cover-sets", "--input", "set_family.jsonl"], 0),
    (
        "cover_semimeasure.json",
        ["cover-semimeasure", "--input", "semimeasure_flat.jsonl", "--grid", EIGHTHS],
        0,
    ),
    (
        "cover_tree.json",
        ["cover-tree", "--input", "semimeasure_tree.jsonl", "--grid", EIGHTHS],
        0,
    ),
    ("cover_open.json", ["cover-open", "--input", "open_family.jsonl", "--lmax", "2"], 0),
    (
        "cover_open_strong.json",
        ["cover-open-strong", "--input", "open_family_gran.jsonl", "--epsilon-prime", "3/4"],
        0,
    ),
    ("decompose.json", ["decompose", "--input", "open_family_gran.jsonl"], 0),
    (
        "lowbasis.json",
        ["lowbasis", "--input", "forcing.json", "--witness-length", "2"],
        0,
    ),
    ("complexity.json", ["complexity", "--lmax", "2", "--nmax", "2"], 0),
    (
        "deficiency.json",
        ["deficiency", "--input", "table.json", "--omega", "0000", "--horizon", "4", "--c", "1"],
        0,
    ),
    (
        "deficiency_family.jsonl",
        ["deficiency-family", "--input", "table.json", "--c", "0", "--nmin", "2", "--nmax", "4"],
        0,
    ),
    (
        "complexity_bounds.json",
        ["complexity-bounds", "--input", "open_family_levels.jsonl", "--c", "1"],
        0,
    ),
    (
        "randomness.json",
        ["randomness-report", "--input", "table.json", "--omega", "0000", "--c", "0"],
        0,
    ),
    ("freq.json", ["freq", "--input", "trace.json"], 0),
    (
        "trace_family.jsonl",
        ["trace-to-family", "--input", "trace.json", "--nmax", "4", "--grid", "0,1/4,1/2,3/4,1"],
        0,
    ),
]


def run(argv, tmp_path, name="out"):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def with_input_paths(argv):
    fixed = []
    for i, piece in enumerate(argv):
        if i > 0 and argv[i - 1] == "--input":
            fixed.append(str(FIXTURES / piece))
        else:
            fixed.append(piece)
    return fixed


@pytest.mark.parametrize("golden_name,argv,want_code", GOLDEN_RUNS)
def test_golden_outputs_are_byte_identical(golden_name, argv, want_code, tmp_path):
    code, body = run(with_input_paths(argv), tmp_path)
    assert code == want_code
    assert body == (GOLDEN / golden_name).read_bytes()
    again_code, again = run(with_input_paths(argv), tmp_path, name="out2")
    assert again_code == code and again == body


def test_validate_ok_exits_zero(tmp_path):
    code, body = run(["validate", "--input", str(FIXTURES / "set_family.jsonl")], tmp_path)
    assert code == 0
    assert json.loads(body) == {"valid": True, "problems": []}


def test_validate_bad_names_the_violation(tmp_path, capsys):
    code, body = run(["validate", "--input", str(FIXTURES / "set_family_bad.jsonl")], tmp_path)
    assert code == 1
    report = json.loads(body)
    assert not report["valid"]
    assert "capacity" in report["problems"][0] and "n=0" in report["problems"][0]
    assert "n=0" in capsys.readouterr().err


def test_validate_names_a_negative_index_by_its_record(tmp_path, capsys):
    log = tmp_path / "negative.jsonl"
    log.write_text(
        '{"type": "set-family", "k": 1, "universe": ["0", "1"]}\n'
        '{"stage": 0, "kind": "single", "index": -1, "element": "0"}\n'
    )
    code, body = run(["validate", "--input", str(log)], tmp_path)
    want = "event #0: malformed index spec IndexSpec(kind='single', index=-1)"
    assert code == 1
    assert json.loads(body)["problems"] == [want]
    assert capsys.readouterr().err.splitlines() == [want]


@pytest.mark.parametrize(
    "text,problem",
    [
        (
            '{"type": "set-family", "k": -1, "universe": ["0"]}\n',
            "capacity exponent k must be a natural number, got -1",
        ),
        (
            '{"type": "set-family", "k": 1, "universe": ["2"]}\n',
            "universe: bit string may contain only 0 and 1, got '2'",
        ),
        ('{"type": "open-family", "epsilon": "-1/2"}\n', "epsilon must be nonnegative, got -1/2"),
        (
            '{"type": "open-family", "epsilon": "1/2", "granularity": [[-1, 2]]}\n',
            "granularity pair (-1, 2) must be natural numbers",
        ),
        (
            '{"type": "set-family", "k": 1, "universe": ["0"]}\n'
            '{"stage": -1, "kind": "tail", "index": 0, "element": "0"}\n',
            "event #0: stage must be a natural number, got -1",
        ),
        (
            '{"type": "semimeasure-family", "tree": false}\n'
            '{"stage": 0, "kind": "tail", "index": 0, "element": "2", "value": "1/2"}\n',
            "event #0: bit string may contain only 0 and 1, got '2'",
        ),
        (
            '{"type": "set-family", "k": 1, "universe": ["0", "0"]}\n'
            '{"stage": 0, "kind": "tail", "index": 0, "element": "0"}\n',
            "universe lists element '0' twice",
        ),
    ],
    ids=["negative-k", "universe-not-bits", "negative-epsilon", "negative-granularity",
         "negative-stage", "value-element-not-bits", "universe-repeats"],
)
def test_validate_names_each_structural_problem(text, problem, tmp_path, capsys):
    source = tmp_path / "family.jsonl"
    source.write_text(text)
    code, body = run(["validate", "--input", str(source)], tmp_path)
    assert code == 1
    assert json.loads(body)["problems"] == [problem]
    assert capsys.readouterr().err.splitlines() == [problem]


def test_cover_sets_refuses_a_repeated_universe_entry(tmp_path, capsys):
    source = tmp_path / "family.jsonl"
    source.write_text(
        '{"type": "set-family", "k": 1, "universe": ["0", "0"]}\n'
        '{"stage": 0, "kind": "tail", "index": 0, "element": "0"}\n'
    )
    assert run(["cover-sets", "--input", str(source)], tmp_path) == (1, b"")
    assert capsys.readouterr().err == "universe lists element '0' twice\n"


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (["lowbasis", "--witness-length", "2"], "[1]", "forcing instance must be a JSON object"),
        (
            ["lowbasis", "--witness-length", "2"],
            '{"initialU": [], "queries": 5}',
            "'queries' must be a list",
        ),
        (
            ["lowbasis", "--witness-length", "2"],
            '{"initialU": [], "queries": [1]}',
            "query #0 must be an object",
        ),
        (
            ["lowbasis", "--witness-length", "2"],
            '{"initialU": [], "queries": [{"label": 1, "intervals": []}]}',
            "query #0: label must be a string",
        ),
        (
            ["lowbasis", "--witness-length", "2"],
            '{"initialU": [], "queries": [{"label": "T"}]}',
            "query #0 needs 'intervals': a list of bit strings",
        ),
        (["lowbasis", "--witness-length", "2"], '{"initialU": [1]}', "bit string expected, got int"),
        (["freq"], "[1]", "trace must be a JSON object with 'prefix' and 'period'"),
        (["freq"], '{"prefix": []}', "trace needs list fields 'prefix' and 'period'"),
        (["validate"], "", "empty event log: a header line is required"),
        (
            ["validate"],
            '{"type": "semimeasure-family", "tree": 1}\n',
            "header: 'tree' must be a boolean",
        ),
        (
            ["validate"],
            '{"type": "set-family", "k": 1, "universe": "0"}\n',
            "header: 'universe' must be a list of strings",
        ),
        (
            ["validate"],
            '{"type": "set-family", "k": 1, "universe": ["0"]}\n[1]\n',
            "line 2: event must be a JSON object",
        ),
        (
            ["randomness-report", "--omega", "0", "--c", "0"],
            '{"entries": [["0", 1, 3], ["1", 1, 4], ["0", 1, 5]]}',
            "table entry #2 repeats bits '0' under condition 1",
        ),
        (
            ["randomness-report", "--omega", "0", "--c", "0"],
            "0 1 3\n- 0 2\n0 1 5\n",
            "line 3: repeats bits '0' under condition 1",
        ),
        (
            ["randomness-report", "--omega", "0", "--c", "0"],
            "# plain table\nmode flat\n- 0 2\n",
            "line 2: mode must be conditional or plain",
        ),
        pytest.param(
            ["randomness-report", "--omega", "0", "--c", "0"], f"- 0 {LONG_INT}\n",
            f"line 1: {TOO_MANY_DIGITS}", marks=NEEDS_DIGIT_LIMIT,
        ),
        pytest.param(
            ["validate"],
            '{"type": "semimeasure-family"}\n'
            f'{{"stage": 0, "kind": "tail", "index": 0, "element": "0", "value": "1/{LONG_INT}"}}\n',
            f"not an exact rational: {TOO_MANY_DIGITS}", marks=NEEDS_DIGIT_LIMIT,
        ),
        pytest.param(
            ["validate"], f'{{"type": "open-family", "epsilon": "{LONG_INT}/2"}}\n',
            f"not an exact rational: {TOO_MANY_DIGITS}", marks=NEEDS_DIGIT_LIMIT,
        ),
        (
            ["validate"],
            '{"type": "semimeasure-family"}\n'
            '{"stage": 0, "kind": "tail", "index": 0, "element": "0", "value": "1/x"}\n',
            "not an exact rational: '1/x'",
        ),
        # a misspelt key would silently drop a constraint or change the kind
        (
            ["validate"],
            '{"type": "open-family", "epsilon": "1/2", "granularty": [[0, 1]]}\n'
            '{"stage": 0, "kind": "tail", "index": 0, "interval": "0"}\n',
            "line 1: unknown field 'granularty'",
        ),
        (
            ["cover-tree", "--grid", "0,1/2,1"],
            '{"type": "semimeasure-family", "tre": true}\n'
            '{"stage": 0, "kind": "tail", "index": 0, "element": "0", "value": "1/2"}\n',
            "line 1: unknown field 'tre'",
        ),
        (
            ["validate"],
            '{"type": "set-family", "k": 1, "universe": ["0"]}\n'
            '{"stage": 0, "kind": "tail", "index": 0, "element": "0", "junk": 1}\n',
            "line 2: unknown field 'junk'",
        ),
        (["freq"], '{"prefix": [], "perod": [1]}', "trace: unknown field 'perod'"),
        (
            ["randomness-report", "--omega", "0", "--c", "0"],
            '{"conditionMode": "plain", "entries": [], "mode": "plain"}',
            "table: unknown field 'mode'",
        ),
        (
            ["lowbasis", "--witness-length", "2"],
            '{"initialU": [], "querys": []}',
            "forcing instance: unknown field 'querys'",
        ),
        (
            ["lowbasis", "--witness-length", "2"],
            '{"initialU": [], "queries": [{"label": "T", "interval": ["1"]}]}',
            "query #0: unknown field 'interval'",
        ),
        # an input echoed in a message is cut after 64 characters
        (
            ["validate"], '{"type": "open-family", "epsilon": "1/2", "%s": 1}\n' % LONG_TEXT,
            f"line 1: unknown field {CUT_SHORT}",
        ),
        (["validate"], '{"type": "%s"}\n' % LONG_TEXT, f"unknown presentation type {CUT_SHORT}"),
        (
            ["validate"], '{"type": "open-family", "epsilon": "%s"}\n' % LONG_TEXT,
            f"not an exact rational: {CUT_SHORT}",
        ),
        # the grid rule of the covers: sorted, and inside [0, 1]
        (
            ["trace-to-family", "--nmax", "1", "--grid", "0,2"], '{"prefix": [], "period": [1]}',
            "grid value 2/1 outside [0, 1]",
        ),
        (
            ["trace-to-family", "--nmax", "1", "--grid=-1/2,1/4,1"],
            '{"prefix": [], "period": [1]}', "grid value -1/2 outside [0, 1]",
        ),
    ],
    ids=[
        "forcing-not-object", "queries-not-list", "query-not-object", "label-not-string",
        "query-without-intervals", "initial-not-bits", "trace-not-object", "trace-without-period",
        "empty-log", "tree-not-bool", "universe-not-list", "event-not-object",
        "table-entry-repeats", "table-line-repeats", "table-line-mode", "table-line-too-many-digits",
        "value-too-many-digits", "epsilon-too-many-digits", "value-junk",
        "header-unknown-key", "tree-header-unknown-key", "event-unknown-key", "trace-unknown-key",
        "table-unknown-key", "forcing-unknown-key", "query-unknown-key",
        "long-header-key", "long-type", "long-epsilon",
        "trace-grid-above-one", "trace-grid-below-zero",
    ],
)
def test_malformed_inputs_exit_two_with_one_error_line(argv, text, message, tmp_path, capsys):
    source = tmp_path / "input"
    source.write_text(text)
    assert run(argv + ["--input", str(source)], tmp_path) == (2, b"")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_long_interval_is_cut_short_in_the_problem_line(tmp_path, capsys):
    source = tmp_path / "family.jsonl"
    source.write_text(
        '{"type": "open-family", "epsilon": "1/2"}\n'
        '{"stage": 0, "kind": "tail", "index": 0, "interval": "%s"}\n' % LONG_TEXT
    )
    problem = f"event #0: bit string may contain only 0 and 1, got {CUT_SHORT}"
    code, body = run(["validate", "--input", str(source)], tmp_path)
    assert (code, capsys.readouterr().err) == (1, problem + "\n")
    assert json.loads(body)["problems"] == [problem]


def test_a_long_index_is_cut_short_in_the_problem_line(tmp_path, capsys):
    source = tmp_path / "family.jsonl"
    source.write_text(
        '{"type": "set-family", "k": 1, "universe": ["0"]}\n'
        '{"stage": 0, "kind": "single", "index": -%s, "element": "0"}\n' % ("9" * 4000)
    )
    spec = repr(ll.single(-int("9" * 4000)))
    problem = f"event #0: malformed index spec {spec[:64]!r}... ({len(spec)} characters)"
    code, body = run(["validate", "--input", str(source)], tmp_path)
    assert (code, capsys.readouterr().err) == (1, problem + "\n")
    assert json.loads(body)["problems"] == [problem]


def key_mutants(value):
    """Copies of the JSON ``value`` in which one object, at any depth, has one
    key misspelt (its last letter dropped, a short key doubled) or the key
    ``junk`` added; each with the original key, or None, and the new one."""
    if isinstance(value, dict):
        items = list(value.items())
        for i, (key, item) in enumerate(items):
            typo = key[:-1] if len(key) > 2 else key * 2
            yield dict(items[:i] + [(typo, item)] + items[i + 1:]), key, typo
            for mutant, old, new in key_mutants(item):
                yield {**value, key: mutant}, old, new
        yield {**value, "junk": 0}, None, "junk"
    elif isinstance(value, list):
        for i, item in enumerate(value):
            for mutant, old, new in key_mutants(item):
                yield value[:i] + [mutant] + value[i + 1:], old, new


# each fixture made of JSON objects and a command that reads it
OBJECT_INPUTS = {
    **{path.name: ["validate"] for path in sorted(FIXTURES.glob("*.jsonl"))},
    "forcing.json": ["lowbasis", "--witness-length", "2"],
    "trace.json": ["freq"],
    "table.json": ["randomness-report", "--omega", "0", "--c", "0"],
}


# the optional keys of the input formats and the value each stands for when
# absent; a query's label defaults to "query-<its position>"
OPTIONAL = {
    "granularity": None, "tree": False, "queries": [], "label": "query-{}", "prefix": [],
    "conditionMode": "conditional",
}
# null, boolean, number, string, array and object, each its own Python type
ONE_OF_EACH_TYPE = [None, True, 1, "1", [], {}]


def shape_mutants(value, position=None):
    """Copies of the JSON ``value`` in which one object, at any depth, lacks
    one key or has one value replaced by a value of another JSON type; each
    with the copy it must run as, or None where it must be refused.

    A dropped optional key runs as its default.  A granularity is a list of
    ``[n, c]`` pairs or null, the form ``dump_presentation`` writes for none:
    null runs as the key dropped, and a list is no change of type.  Any other
    change of type is refused."""
    if isinstance(value, dict):
        items = list(value.items())
        for i, (key, item) in enumerate(items):
            dropped, default = dict(items[:i] + items[i + 1:]), OPTIONAL.get(key, ())
            if key == "label":
                default = default.format(position)
            yield dropped, None if default == () else {**value, key: default}
            for other in ONE_OF_EACH_TYPE:
                if type(other) is type(item) or (key == "granularity" and other == []):
                    continue
                absent = key == "granularity" and other is None
                yield {**value, key: other}, dropped if absent else None
            for mutant, twin in shape_mutants(item):
                yield {**value, key: mutant}, None if twin is None else {**value, key: twin}
    elif isinstance(value, list):
        for i, item in enumerate(value):
            for mutant, twin in shape_mutants(item, i):
                yield (value[:i] + [mutant] + value[i + 1:],
                       None if twin is None else value[:i] + [twin] + value[i + 1:])


def mutated_inputs(name, mutants=key_mutants):
    """``(text, *rest)`` for each ``(mutant, *rest)`` of ``mutants`` on the
    fixture: one line of an event log mutated at a time, a JSON file as a
    whole.  Each of ``rest`` that is a JSON object or list takes the mutant's
    place the same way."""
    text = (FIXTURES / name).read_text()
    if name.endswith(".jsonl"):
        lines = text.splitlines()
        places = [
            (json.loads(line), lambda obj, i=i: "\n".join(
                lines[:i] + [json.dumps(obj)] + lines[i + 1:]) + "\n")
            for i, line in enumerate(lines)
        ]
    else:
        places = [(json.loads(text), json.dumps)]
    for value, place in places:
        for mutant, *rest in mutants(value):
            yield place(mutant), *(
                place(x) if isinstance(x, (dict, list)) else x for x in rest)


@pytest.mark.parametrize("name", sorted(OBJECT_INPUTS))
def test_every_misspelt_or_added_key_is_refused_by_name(name, tmp_path, capsys):
    # the schemas are closed: a mutant may not run as if the key were absent.
    # The refusal names the new key, but for a header without "type", whose
    # known keys depend on the type it lacks: that refusal names "type".
    source = tmp_path / name
    mutants = 0
    for text, old, new in mutated_inputs(name):
        source.write_text(text)
        assert run(OBJECT_INPUTS[name] + ["--input", str(source)], tmp_path) == (2, b""), text
        err = capsys.readouterr().err
        named = "type" if old == "type" else new
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)
        assert repr(named) in err, (text, err)
        mutants += 1
    assert mutants >= 3


@pytest.mark.parametrize("name", sorted(OBJECT_INPUTS))
def test_every_dropped_key_or_retyped_value_ends_as_documented(name, tmp_path, capsys):
    # a refused mutant ends with exit 2 (or 1 and its named problem) and one
    # stderr line; a harmless one writes what its twin writes
    source, twin_source = tmp_path / name, tmp_path / f"twin-{name}"
    refused = 0
    for text, twin in mutated_inputs(name, shape_mutants):
        source.write_text(text)
        (tmp_path / "out").unlink(missing_ok=True)
        code, body = run(OBJECT_INPUTS[name] + ["--input", str(source)], tmp_path)
        err = capsys.readouterr().err
        if twin is None:
            assert code in (1, 2) and err.count("\n") == 1, (text, code, err)
            assert code == 1 or (body == b"" and err.startswith("error: ")), (text, err)
            refused += 1
        else:
            twin_source.write_text(twin)
            want = run(OBJECT_INPUTS[name] + ["--input", str(twin_source)], tmp_path, "twin")
            assert (code, body, err) == (*want, capsys.readouterr().err), text
    assert refused >= 6


NON_BITS = ["abc", "012", "0\u0661"]  # a letter, a digit past 1, a non-ASCII digit


def non_bit_rows(value):
    """Copies of a table object with one row of non-bit strings inserted at
    each place of its entries; each with the row's entry number and its string."""
    rows = value["entries"]
    for i in range(len(rows) + 1):
        for bits in NON_BITS:
            yield {**value, "entries": rows[:i] + [[bits, 2, 3]] + rows[i:]}, i, bits


@pytest.mark.parametrize("name", ["table.json", "table_lines.txt"])
def test_a_non_bit_table_string_is_refused_naming_its_entry(name, tmp_path, capsys):
    source = tmp_path / name
    if name.endswith(".json"):
        mutants = [(text, f"table entry #{i}", bits)
                   for text, i, bits in mutated_inputs(name, non_bit_rows)]
    else:
        lines = (FIXTURES / name).read_text().splitlines(keepends=True)
        mutants = [("".join(lines[:i] + [f"{bits} 2 3\n"] + lines[i:]), f"line {i + 1}", bits)
                   for i in range(len(lines) + 1) for bits in NON_BITS + ["-0"]]
    for text, place, bits in mutants:
        source.write_text(text)
        assert run(OBJECT_INPUTS["table.json"] + ["--input", str(source)], tmp_path) == (2, b"")
        want = f"error: {place}: bit string may contain only 0 and 1, got {bits!r}\n"
        assert capsys.readouterr().err == want, text
    assert len(mutants) > 20
    if name.endswith(".json"):
        # a row of three characters, or an object of three keys, is no entry at all
        value = json.loads((FIXTURES / name).read_text())
        for row in ["012", {"0": 1, "1": 2, "": 3}]:
            source.write_text(json.dumps({**value, "entries": value["entries"] + [row]}))
            assert run(OBJECT_INPUTS[name] + ["--input", str(source)], tmp_path) == (2, b"")
            assert capsys.readouterr().err == f"error: bad table entry {row!r}\n"


@pytest.mark.parametrize("name", ["semimeasure_flat.jsonl", "semimeasure_tree.jsonl"])
def test_liminf_of_semimeasure_families(name, tmp_path):
    code, body = run(["liminf", "--input", str(FIXTURES / name)], tmp_path)
    p = jsonio.parse_presentation((FIXTURES / name).read_text())
    values = {u: ll.format_fraction(v) for u, v in ll.liminf_family(p).items()}
    assert values
    assert code == 0
    assert json.loads(body) == {"type": "semimeasure-family", "values": values}


def test_cover_open_output_values(tmp_path):
    code, body = run(
        ["cover-open", "--input", str(FIXTURES / "open_family.jsonl"), "--lmax", "2"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(body)
    assert payload["intervals"] == ["0"] and payload["measure"] == "1/2"


def test_lowbasis_output_values(tmp_path):
    code, body = run(
        ["lowbasis", "--input", str(FIXTURES / "forcing.json"), "--witness-length", "2"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(body)
    assert payload["answers"] == [["T1", "halts"], ["T2", "diverges"]]
    assert payload["witness"] == "11"


def test_lowbasis_witness_length_beyond_depth_cap_exits_two(tmp_path, capsys):
    code, body = run(
        ["lowbasis", "--input", str(FIXTURES / "forcing.json"), "--witness-length", "5000"],
        tmp_path,
    )
    assert (code, body) == (2, b"")
    assert "exceeds the interval depth cap 64" in capsys.readouterr().err


def test_parse_error_exits_two(tmp_path):
    assert main(["cover-open", "--input", "/does/not/exist", "--lmax", "2"]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["validate", "--input", str(bad)]) == 2


def test_missing_required_flag_exits_two():
    assert main(["cover-open", "--input", str(FIXTURES / "open_family.jsonl")]) == 2


def test_wrong_family_kind_exits_two():
    assert (
        main(
            [
                "cover-tree",
                "--input",
                str(FIXTURES / "semimeasure_flat.jsonl"),
                "--grid",
                EIGHTHS,
            ]
        )
        == 2
    )


def test_invalid_presentation_exits_one(tmp_path):
    code = main(
        [
            "cover-sets",
            "--input",
            str(FIXTURES / "set_family_bad.jsonl"),
            "--output",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1


def test_csv_where_supported(tmp_path):
    code, body = run(
        [
            "deficiency",
            "--input",
            str(FIXTURES / "table.json"),
            "--omega",
            "0000",
            "--horizon",
            "4",
            "--c",
            "1",
            "--format",
            "csv",
        ],
        tmp_path,
    )
    assert code == 0
    lines = body.decode().splitlines()
    assert lines[0] == "prefix,d,dbar"
    assert lines[-1] == "0000,1,1"


def test_epsilon_flag_overrides_header(tmp_path):
    code, body = run(
        [
            "validate",
            "--input",
            str(FIXTURES / "open_family.jsonl"),
            "--epsilon",
            "1/8",
        ],
        tmp_path,
    )
    assert code == 1
    assert "measure bound" in json.loads(body)["problems"][0]


def test_k_flag_overrides_header(tmp_path):
    code, body = run(
        ["validate", "--input", str(FIXTURES / "set_family.jsonl"), "--k", "1"],
        tmp_path,
    )
    assert code == 1
    assert "capacity" in json.loads(body)["problems"][0]


@pytest.mark.parametrize(
    "flag,value,family,kind",
    [
        ("k", "3", "semimeasure_flat.jsonl", "SemimeasureFamilyPresentation"),
        ("k", "3", "open_family.jsonl", "OpenFamilyPresentation"),
        ("epsilon", "1/1000", "semimeasure_flat.jsonl", "SemimeasureFamilyPresentation"),
        ("epsilon", "1/1000", "set_family.jsonl", "SetFamilyPresentation"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "liminf"])
def test_override_flag_on_the_wrong_kind_of_log_exits_two(
    command, flag, value, family, kind, tmp_path, capsys
):
    argv = [command, "--input", str(FIXTURES / family), f"--{flag}", value]
    assert run(argv, tmp_path) == (2, b"")
    owner = "SetFamilyPresentation" if flag == "k" else "OpenFamilyPresentation"
    assert capsys.readouterr().err.splitlines() == [
        f"error: --{flag} applies only to {owner} event logs, not {kind}"
    ]


@pytest.mark.parametrize("where", ["header", "flag"])
@pytest.mark.parametrize("command", ["validate", "liminf", "cover-sets"])
def test_huge_k_decides_as_k_above_the_universe(command, where, tmp_path):
    # no set outgrows the universe, so k = 10^12 must give the artifacts of
    # k = |universe| + 1 (apart from "k") without building a 2^k integer
    source = FIXTURES / "set_family.jsonl"
    header, *events = source.read_text().splitlines(keepends=True)
    header = json.loads(header)

    def artifact(k):
        if where == "flag":
            argv = ["--input", str(source), "--k", str(k)]
        else:
            family = tmp_path / f"k{k}.jsonl"
            family.write_text(json.dumps({**header, "k": k}) + "\n" + "".join(events))
            argv = ["--input", str(family)]
        code, body = run([command, *argv], tmp_path, name=f"out{k}")
        return code, {key: value for key, value in json.loads(body).items() if key != "k"}

    assert artifact(10**12) == artifact(len(header["universe"]) + 1)


def test_csv_unsupported_exits_two():
    assert (
        main(
            [
                "cover-sets",
                "--input",
                str(FIXTURES / "set_family.jsonl"),
                "--format",
                "csv",
            ]
        )
        == 2
    )


def test_emitted_event_logs_reparse_and_revalidate(tmp_path):
    family_path = tmp_path / "family.jsonl"
    assert (
        main(
            [
                "trace-to-family",
                "--input",
                str(FIXTURES / "trace.json"),
                "--nmax",
                "4",
                "--grid",
                "0,1/4,1/2,3/4,1",
                "--output",
                str(family_path),
            ]
        )
        == 0
    )
    assert main(["validate", "--input", str(family_path)]) == 0
    parsed = jsonio.parse_presentation(family_path.read_text())
    assert jsonio.dump_presentation(parsed) == family_path.read_text()


def test_deficiency_family_feeds_cover_open(tmp_path):
    family_path = tmp_path / "deficiency.jsonl"
    assert (
        main(
            [
                "deficiency-family",
                "--input",
                str(FIXTURES / "table.json"),
                "--c",
                "0",
                "--nmin",
                "2",
                "--nmax",
                "4",
                "--output",
                str(family_path),
            ]
        )
        == 0
    )
    out = tmp_path / "cover.json"
    assert (
        main(
            [
                "cover-open",
                "--input",
                str(family_path),
                "--lmax",
                "4",
                "--output",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    region = ll.normalize(payload["intervals"])
    assert region.covers_string("0000") and region.covers_string("1111")


def test_depth_cap_env_applies_to_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "2")
    deep = tmp_path / "deep.jsonl"
    deep.write_text(
        '{"type": "open-family", "epsilon": "1/2", "granularity": null}\n'
        '{"stage": 0, "kind": "tail", "index": 0, "interval": "000"}\n'
    )
    code, body = run(["validate", "--input", str(deep)], tmp_path)
    assert code == 1
    assert "deeper" in json.loads(body)["problems"][0]


def test_deep_intervals_run_without_recursion_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "5000")
    stem = "0" * 2999
    family = tmp_path / "deep.jsonl"
    family.write_text(
        '{"type": "open-family", "epsilon": "1/2", "granularity": null}\n'
        + "".join(
            json.dumps({"stage": 0, "kind": "tail", "index": 0, "interval": stem + bit}) + "\n"
            for bit in "01"
        )
    )
    forcing = tmp_path / "forcing.json"
    forcing.write_text(
        json.dumps({"initialU": ["0" * 3000], "queries": [{"label": "T", "intervals": ["1" * 3000]}]})
    )
    code, body = run(["validate", "--input", str(family)], tmp_path)
    assert code == 0 and json.loads(body)["valid"]
    code, body = run(
        ["lowbasis", "--input", str(forcing), "--witness-length", "3000"], tmp_path, name="out2"
    )
    assert code == 0
    assert json.loads(body)["witness"] == "0" * 2999 + "1"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,name,text",
    [
        (
            "validate",
            "family.jsonl",
            '{"type": "open-family", "epsilon": "1/2", "granularity": null}\n'
            '{"stage": 0, "kind": "tail", "index": true, "interval": "0"}\n',
        ),
        (
            "decompose",
            "family.jsonl",
            '{"type": "open-family", "epsilon": "1/2", "granularity": [[true, 3]]}\n'
            '{"stage": 0, "kind": "tail", "index": 0, "interval": "0"}\n',
        ),
        ("freq", "trace.json", '{"prefix": [], "period": [true, false]}\n'),
    ],
    ids=["index", "granularity", "trace-slot"],
)
def test_json_booleans_are_not_naturals(command, name, text, tmp_path):
    source = tmp_path / name
    source.write_text(text)
    assert main([command, "--input", str(source), "--output", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("kind", ['"tree-family"', '["open-family"]', "null"])
def test_unknown_presentation_type_exits_two(kind, tmp_path, capsys):
    source = tmp_path / "family.jsonl"
    source.write_text('{"type": %s}\n{"stage": 0, "kind": "tail", "index": 0}\n' % kind)
    assert run(["validate", "--input", str(source)], tmp_path) == (2, b"")
    assert "unknown presentation type" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"entries": [["0", true, 2]]}', "bad table entry"),
        ('{"entries": [["", 1, false]]}', "bad table entry"),
        ("[1, 2]", "table JSON must be an object"),
        ('{"conditionMode": "plain"}', "table JSON needs 'conditionMode' and an 'entries' list"),
        ('{"entries": ["012"]}', "bad table entry '012'"),
        ('{"entries": [{"0": 1, "1": 2, "": 3}]}', "bad table entry {'0': 1, '1': 2, '': 3}"),
    ],
    ids=["condition-bool", "value-bool", "json-array", "no-entries", "string-row", "object-row"],
)
def test_table_json_is_checked_strictly(text, message, tmp_path, capsys):
    source = tmp_path / "table.json"
    source.write_text(text)
    argv = ["deficiency", "--input", str(source), "--omega", "0", "--horizon", "1", "--c", "0"]
    assert run(argv, tmp_path) == (2, b"")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "row", ["0 1_0 3", "1 \u0661 4", "- 0 +2", "0 0 \uff12"],
    ids=["underscore", "arabic-indic", "plus", "fullwidth"],
)
def test_table_lines_take_only_ascii_integers(row, tmp_path, capsys):
    source = tmp_path / "table.txt"
    source.write_text(f"- 0 2\n{row}\n")
    argv = ["deficiency", "--input", str(source), "--omega", "0", "--horizon", "1", "--c", "0"]
    assert run(argv, tmp_path) == (2, b"")
    assert capsys.readouterr().err == "error: line 2: condition and value must be integers\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--input", str(FIXTURES / "set_family.jsonl")],
        ["cover-sets", "--input", str(FIXTURES / "set_family.jsonl")],
        ["lowbasis", "--input", str(FIXTURES / "forcing.json"), "--witness-length", "2"],
    ],
    ids=["validate", "cover-sets", "lowbasis"],
)
def test_invalid_depth_cap_env_exits_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "junk")
    assert run(argv, tmp_path)[0] == 2
    err = capsys.readouterr().err
    assert err == "error: LIMITLAB_MAX_DEPTH must be an integer, got 'junk'\n"


def test_zero_depth_cap_env_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LIMITLAB_MAX_DEPTH", "0")
    assert run(["validate", "--input", str(FIXTURES / "set_family.jsonl")], tmp_path) == (2, b"")
    assert capsys.readouterr().err == "error: LIMITLAB_MAX_DEPTH must be positive, got 0\n"


def test_output_into_a_missing_directory_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "out"
    argv = ["validate", "--input", str(FIXTURES / "set_family.jsonl"), "--output", str(target)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_line_format_table_parses():
    table = jsonio.parse_complexity_table((FIXTURES / "table_lines.txt").read_text())
    assert table.mode == "conditional"
    assert table.value("") == 2
    assert table.value("0") == 3


def test_table_json_round_trip():
    table = jsonio.parse_complexity_table((FIXTURES / "table.json").read_text())
    emitted = jsonio.dumps_artifact(table_payload_by_sort(table))
    assert jsonio.parse_complexity_table(emitted).entries == table.entries


def test_presentation_round_trip_all_kinds():
    for name in (
        "set_family.jsonl",
        "semimeasure_flat.jsonl",
        "semimeasure_tree.jsonl",
        "open_family.jsonl",
        "open_family_gran.jsonl",
    ):
        text = (FIXTURES / name).read_text()
        parsed = jsonio.parse_presentation(text)
        assert jsonio.parse_presentation(jsonio.dump_presentation(parsed)) == parsed
    with pytest.raises(TypeError, match="^not a presentation: tuple$"):
        jsonio.dump_presentation(tuple(parsed))


def declared_flags(name):
    command = COMMANDS[name]
    return {*command.required, *command.optional, "output", *(["format"] if command.csv else [])}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_help_lists_exactly_the_declared_flags(name, capsys):
    assert main([name, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--([a-z][a-z-]*)", capsys.readouterr().out))
    assert listed == declared_flags(name) | {"help"}


def run_captured(run):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_one_command_parser_prints_the_full_parsers_text(name):
    # help and usage errors come from the parser of all 16 commands
    required = [text for flag in COMMANDS[name].required for text in (f"--{flag}", "1")]
    for argv in ([name, "--help"], [name, *required, "--bogus"]):
        full = run_captured(lambda: build_parser().parse_args(argv))
        assert run_captured(lambda: main(argv)) == full
        assert full[0] in (0, 2) and full[1] + full[2]


PARSER = build_parser()


def assert_plain_path_agrees(argv):
    """main's own reading of ``argv`` is None or exactly argparse's."""
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(PARSER.parse_args(argv)), argv
    return plain


GOLDEN_ARGV = [with_input_paths(argv) for _, argv, _ in GOLDEN_RUNS]


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=[name for name, _, _ in GOLDEN_RUNS])
def test_plain_path_reads_the_golden_command_lines(argv):
    assert assert_plain_path_agrees(argv) is not None
    assert assert_plain_path_agrees([*argv, "--output", "out"]) is not None


@pytest.mark.parametrize(
    "argv",
    [
        ["complexity", "--lmax=7", "--nmax", "2"],
        ["complexity", "--lm", "7", "--nmax", "2"],
        ["complexity", "--lmax", "7", "--nmax", "2", "--lmax", "3"],
        ["complexity", "--", "--lmax", "7", "--nmax", "2"],
        ["complexity", "--lmax", "7", "--nmax", "2", "--"],
        ["complexity", "-h"],
        ["complexity", "--lmax", "7", "--nmax", "2", "--help"],
        ["deficiency-family", "--input", "t", "--c", "-1", "--nmin", "2", "--nmax", "4"],
        ["deficiency-family", "--input", "t", "--c", "0", "--nmin", "2", "--nmax", "4",
         "--format", "csv"],
        ["complexity", "--lmax", "7"],
        ["complexity", "--lmax", "7", "--nmax", "2", "--format", "xml"],
        ["complexity", "--lmax", "x", "--nmax", "2"],
        ["complexity", "--lmax", "7", "--nmax"],
        ["complexity", "--lmax", "7", "2", "--nmax"],
        ["complexity", "--lmax", "7", "--nmax", "2", "extra", "x"],
        ["-h"],
        ["--help", "complexity"],
        ["compl", "--lmax", "7", "--nmax", "2"],
        [],
    ],
    ids=[
        "equals-sign", "abbreviation", "repeated-flag", "double-dash", "trailing-double-dash",
        "short-help", "long-help", "negative-value", "format-without-csv", "missing-required",
        "bad-choice", "bad-type", "missing-value", "value-out-of-place", "positional",
        "top-level-help", "help-before-command", "command-abbreviation", "empty",
    ],
)
def test_plain_path_leaves_irregular_command_lines_to_argparse(argv):
    assert cli._plain_args(argv) is None


def test_readme_lists_each_commands_flags():
    rows = {}
    for line in (HERE.parent / "README.md").read_text().splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) == 3 and re.fullmatch(r" `[a-z-]+` ", cells[0]):
            rows[cells[0].strip(" `")] = [set(re.findall(r"--([a-z-]+)", c)) for c in cells[1:]]
    assert rows == {
        name: [set(command.required), declared_flags(name) - set(command.required) - {"output"}]
        for name, command in COMMANDS.items()
    }


def test_format_exists_only_on_row_shaped_reports():
    with_csv = {name for name in COMMANDS if "format" in declared_flags(name)}
    assert with_csv == {"complexity", "deficiency", "randomness-report", "freq"}


@pytest.mark.parametrize(
    "argv",
    [
        ["freq", "--input", str(FIXTURES / "trace.json"), "--k", "3"],
        [
            "deficiency-family", "--input", str(FIXTURES / "table.json"),
            "--c", "0", "--nmin", "2", "--nmax", "4", "--format", "csv",
        ],
        ["complexity", "--lmax", "2", "--nmax", "2", "--input", "x"],
        ["cover-sets", "--input", str(FIXTURES / "set_family.jsonl"), "--epsilon", "1/2"],
    ],
    ids=["freq-k", "deficiency-family-format", "complexity-input", "cover-sets-epsilon"],
)
def test_undeclared_flag_exits_two(argv, tmp_path, capsys):
    assert run(argv, tmp_path) == (2, b"")
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["deficiency-family", "--input", "table.json", "--c", "-1", "--nmin", "2", "--nmax", "4"],
        ["complexity-bounds", "--input", "open_family_levels.jsonl", "--c", "-1"],
        ["deficiency", "--input", "table.json", "--omega", "0a", "--horizon", "4", "--c", "1"],
        ["randomness-report", "--input", "table.json", "--omega", "0a1", "--c", "1"],
        ["complexity", "--lmax", "1_0", "--nmax", "2"],
        ["complexity", "--lmax", "\u0663", "--nmax", "2"],
        ["complexity", "--lmax", "2", "--nmax", "+2"],
        ["complexity", "--lmax", " 2", "--nmax", "2"],
        ["cover-open-strong", "--input", "open_family_gran.jsonl", "--epsilon-prime", "1_0/16"],
        ["complexity", "--lmax", "17", "--nmax", "2"],
        ["complexity-bounds", "--input", "open_family.jsonl", "--c", "1"],
    ],
    ids=[
        "deficiency-family-negative-c", "complexity-bounds-negative-c", "omega-not-bits",
        "randomness-omega-not-bits",
        "underscore-natural", "arabic-indic-natural", "plus-natural", "space-natural",
        "underscore-rational", "complexity-lmax-above-bound", "complexity-bounds-no-granularity",
    ],
)
def test_bad_flag_values_exit_two_without_traceback(argv, tmp_path, capsys):
    assert run(with_input_paths(argv), tmp_path) == (2, b"")
    err = capsys.readouterr().err
    assert "error:" in err or "usage:" in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "command,text,where",
    [
        (["validate"], '{"type": "set-family", "k": 1, "universe": ["0"]}\n'
         f'{{"stage": 0, "kind": "single", "index": {LONG_INT}, "element": "0"}}\n', "line 2"),
        (["liminf"], f'{{"type": "set-family", "k": {LONG_INT}, "universe": ["0"]}}\n', "line 1"),
        (["freq"], f'{{"prefix": [], "period": [1, {LONG_INT}]}}', "trace"),
        (["randomness-report", "--omega", "0", "--c", "0"],
         f'{{"conditionMode": "conditional", "entries": [["", 0, {LONG_INT}]]}}', "table"),
        (["lowbasis", "--witness-length", "1"],
         f'{{"initialU": [], "queries": [], "x": {LONG_INT}}}', "forcing instance"),
    ],
    ids=["event-log", "event-log-header", "trace", "table", "forcing-instance"],
)
def test_an_integer_too_long_to_read_is_named_by_its_place(command, text, where, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text)
    assert run(command + ["--input", str(path)], tmp_path) == (2, b"")
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: {where}: an integer literal has more digits than "
        f"sys.get_int_max_str_digits() = {limit}\n"
    )


@NEEDS_DIGIT_LIMIT
@pytest.mark.parametrize(
    "argv",
    [
        ["complexity", "--nmax", "2", "--lmax", LONG_INT],
        ["cover-open-strong", "--input", "open_family_gran.jsonl", "--epsilon-prime",
         f"1/{LONG_INT}"],
        ["cover-semimeasure", "--input", "semimeasure_flat.jsonl", "--grid", f"0,{LONG_INT}/2"],
    ],
    ids=["lmax", "epsilon-prime", "grid"],
)
def test_a_flag_too_long_to_read_is_named_by_the_limit(argv, tmp_path, capsys):
    assert run(with_input_paths(argv), tmp_path) == (2, b"")
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(TOO_MANY_DIGITS)
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "argv,shown",
    [
        (["complexity", "--nmax", "2", "--lmax", LONG_TEXT], "natural"),
        (["cover-open-strong", "--input", "open_family_gran.jsonl", "--epsilon-prime",
          LONG_TEXT], "rational"),
        (["cover-semimeasure", "--input", "semimeasure_flat.jsonl", "--grid", f"0,1,{LONG_TEXT}"],
         "grid"),
        (["complexity", "--nmax", "2", "--lmax", "2", "--format", LONG_TEXT], "choice"),
    ],
    ids=["lmax", "epsilon-prime", "grid", "format"],
)
def test_a_long_flag_value_is_echoed_cut_short(argv, shown, tmp_path, capsys):
    assert run(with_input_paths(argv), tmp_path) == (2, b"")
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"invalid {shown}" in errors[0] and "characters)" in errors[0]
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "argv,line",
    [
        (["complexity", "--lmax", "abc", "--nmax", "2"],
         "limitlab complexity: error: argument --lmax: invalid natural value: 'abc'"),
        (["complexity", "--lmax", "2", "--nmax", "2", "--format", "xml"],
         "limitlab complexity: error: argument --format: invalid choice: 'xml' "
         "(choose from 'json', 'csv')"),
        (["cover-semimeasure", "--input", "semimeasure_flat.jsonl", "--grid", "0,1/0"],
         "limitlab cover-semimeasure: error: argument --grid: invalid grid value: '0,1/0'"),
        (["cover-open-strong", "--input", "open_family_gran.jsonl", "--epsilon-prime", "x"],
         "limitlab cover-open-strong: error: argument --epsilon-prime: "
         "invalid rational value: 'x'"),
    ],
    ids=["natural", "choice", "grid", "rational"],
)
def test_a_short_flag_value_is_refused_in_argparse_words(argv, line, tmp_path, capsys):
    assert run(with_input_paths(argv), tmp_path) == (2, b"")
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.endswith(f"\n{line}\n")


def test_deficiency_family_refuses_a_c_too_long_to_write(tmp_path, capsys):
    # 2^20000 has 6021 digits, beyond CPython's default 4300-digit text limit
    argv = ["deficiency-family", "--input", "table.json", "--nmin", "2", "--nmax", "4", "--c"]
    assert run(with_input_paths(argv + ["20000"]), tmp_path) == (2, b"")
    err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err) == 1 and "c = 20000" in err[0] and "digits" in err[0]
    code, body = run(with_input_paths(argv + ["14000"]), tmp_path)
    assert code == 0 and b'"epsilon": "1/' in body


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_deficiency_family_refuses_a_length_too_long_to_count(tmp_path, capsys):
    # a one-entry table fills no length >= 1; the refusal of length 20000
    # would write 2^20000, 6021 digits, beyond CPython's default 4300
    table = tmp_path / "table.json"
    table.write_text('{"conditionMode": "conditional", "entries": [["", 0, 2]]}')
    argv = ["deficiency-family", "--input", str(table), "--c", "0", "--nmin"]
    assert run(argv + ["20000", "--nmax", "20000"], tmp_path) == (2, b"")
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: length 20000 (--nmin or --horizon) is too large: the count 2^20000 needs "
        f"more than {sys.get_int_max_str_digits()} digits, the interpreter's limit for "
        "integer text (sys.get_int_max_str_digits)"
    ]
    assert run(argv + ["3", "--nmax", "3"], tmp_path) == (2, b"")
    assert capsys.readouterr().err == "error: table is missing 8 of the 8 strings of length 3\n"


def test_cover_open_strong_refuses_a_slack_too_long_to_write(tmp_path, capsys):
    # the slack (3/4 - 1/2) / 2^14301 = 1/2^14303 has 4306 digits, beyond CPython's
    # default 4300; it is refused before the 14301 decomposition parts are built
    log = tmp_path / "log.jsonl"
    log.write_text(
        '{"type": "open-family", "epsilon": "1/2", "granularity": [[14300, 1]]}\n'
        '{"stage": 0, "kind": "tail", "index": 14300, "interval": "0"}\n'
    )
    argv = ["cover-open-strong", "--input", str(log), "--epsilon-prime", "3/4"]
    assert run(argv, tmp_path) == (2, b"")
    assert capsys.readouterr().err.splitlines() == [
        "error: the slack (epsilon' - epsilon) / 2^14301 at the last breakpoint 14300 "
        f"(--epsilon-prime) needs more than {sys.get_int_max_str_digits()} digits, the "
        "interpreter's limit for integer text (sys.get_int_max_str_digits)"
    ]


def test_complexity_bounds_decides_a_large_c_without_writing_it(tmp_path, capsys):
    argv = ["complexity-bounds", "--input", str(FIXTURES / "open_family_levels.jsonl")]
    assert run(argv + ["--c", "20000"], tmp_path) == (2, b"")
    assert capsys.readouterr().err.splitlines() == [
        "error: c = 20000 (--c) is too large: the bound 2^-20000 needs more than "
        f"{sys.get_int_max_str_digits()} digits, the interpreter's limit for integer text "
        "(sys.get_int_max_str_digits)"
    ]
    assert run(argv + ["--c", "2"], tmp_path) == (2, b"")
    assert capsys.readouterr().err == (
        "error: measure bound violated: epsilon = 1/2 exceeds 2^-2 = 1/4\n"
    )
    # epsilon 0 is within every 2^-c
    log = tmp_path / "empty.jsonl"
    log.write_text('{"type": "open-family", "epsilon": "0/1", "granularity": [[0, 0]]}\n')
    for c in ("0", "20000", "10000000000"):
        code, out = run(["complexity-bounds", "--input", str(log), "--c", c], tmp_path)
        assert (code, out) == (0, b'{\n  "bounds": {}\n}\n')


def test_randomness_report_checks_counting_in_time_of_the_table_size(tmp_path):
    # a count is at most the number of entries, so a large value adds no m to check
    table = tmp_path / "table.json"
    table.write_text('{"conditionMode":"conditional","entries":[["",0,2],["0",1,100000]]}\n')
    argv = ["randomness-report", "--input", str(table), "--omega", "0", "--c", "0"]
    started = time.monotonic()
    code, out = run(argv, tmp_path)
    assert time.monotonic() - started < 1.0
    assert code == 0
    assert json.loads(out) == {"c": 0, "count": 2, "largest": 1, "qualifying": [0, 1]}


@pytest.mark.parametrize(
    "granularity,want",
    [
        ("[]", 2),
        ("[[5, 5]]", 2),
        ("[[2, 2]]", 1),  # the level is bounded, so validation refuses the deep event
    ],
)
def test_complexity_bounds_refuses_a_level_the_granularity_leaves_unbounded(
    granularity, want, tmp_path, capsys
):
    log = tmp_path / "deep.jsonl"
    log.write_text(
        f'{{"type": "open-family", "epsilon": "1/16", "granularity": {granularity}}}\n'
        '{"stage": 0, "kind": "tail", "index": 2, "interval": "0000"}\n'
    )
    assert run(["complexity-bounds", "--input", str(log), "--c", "2"], tmp_path) == (want, b"")
    lines = capsys.readouterr().err.splitlines()
    if want == 2:
        assert lines == [
            "error: the granularity does not bound n=2, whose member holds the interval "
            "'0000', longer than n"
        ]
    else:
        assert lines == ["granularity violated at n=2: event #0 interval '0000' longer than c(n)=2"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_output_file_exits_two_with_one_error_line():
    done = limitlab("complexity", "--lmax", "11", "--nmax", "11", "--output", "/dev/full",
                    stdout=subprocess.DEVNULL)
    lines = done.stderr.splitlines()
    assert done.returncode == 2, done.stderr
    assert len(lines) == 1 and lines[0].startswith("error: cannot write /dev/full: ")


NESTED = "[" * 100_000


@pytest.mark.parametrize(
    "argv,text",
    [
        (["lowbasis", "--witness-length", "2"], NESTED),
        (["freq"], NESTED),
        (["deficiency", "--omega", "0", "--horizon", "1", "--c", "1"], NESTED),
        (["validate"], '{"type": "set-family", "k": 2, "universe": ["0"]}\n' + NESTED),
    ],
    ids=["forcing-instance", "trace", "table", "event-log-line"],
)
def test_deeply_nested_json_exits_two(argv, text, tmp_path, capsys):
    source = tmp_path / "input.json"
    source.write_text(text)
    assert run(argv + ["--input", str(source)], tmp_path) == (2, b"")
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and err.endswith(": JSON nested too deeply\n")


@pytest.mark.parametrize("grid,shown", [("-1/2,0,1/4,1/2,3/2", "-1/2"), ("0,1/4,1/2,3/2", "3/2")])
@pytest.mark.parametrize(
    "command,family",
    [("cover-semimeasure", "semimeasure_flat.jsonl"), ("cover-tree", "semimeasure_tree.jsonl")],
)
def test_grid_values_outside_unit_interval_exit_two(command, family, grid, shown, tmp_path, capsys):
    argv = [command, "--input", str(FIXTURES / family), f"--grid={grid}"]
    assert run(argv, tmp_path) == (2, b"")
    assert capsys.readouterr().err.splitlines() == [f"error: grid value {shown} outside [0, 1]"]


@pytest.mark.parametrize(
    "argv,line",
    [
        (
            ["cover-open-strong", "--epsilon", "1", "--epsilon-prime", "1"],
            "error: epsilon' must exceed epsilon (1/1 <= 1/1)",
        ),
        (
            ["complexity-bounds", "--epsilon", "2", "--c", "0"],
            "error: measure bound violated: epsilon = 2/1 exceeds 2^-0 = 1/1",
        ),
    ],
    ids=["cover-open-strong", "complexity-bounds"],
)
def test_rationals_in_error_messages_are_num_den(argv, line, tmp_path, capsys):
    argv = argv + ["--input", str(FIXTURES / "open_family_gran.jsonl")]
    assert run(argv, tmp_path) == (2, b"")
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize(
    "argv",
    [
        ["deficiency", "--input", "table.json", "--omega", "0", "--horizon", "60", "--c", "1"],
        ["deficiency-family", "--input", "table.json", "--c", "0", "--nmin", "60", "--nmax", "60"],
    ],
    ids=["deficiency-horizon", "deficiency-family-nmin"],
)
def test_table_too_short_is_refused_before_enumerating(argv, tmp_path, capsys):
    assert run(with_input_paths(argv), tmp_path) == (2, b"")
    assert "table is missing" in capsys.readouterr().err


# Values tried for each flag; the integers stay small, since large ones are
# legitimately exponential work (e.g. `cover-open --lmax 40`).  `--k` sets no
# work of its own, so it also takes a 31-digit value.
FUZZ_VALUES = {
    "epsilon": st.sampled_from(["1/2", "3/4", "1", "1/4", "0", "-1/2", "1/0"]),
    "epsilon-prime": st.sampled_from(["3/4", "1", "7/8", "1/2", "-1", "q"]),
    "grid": st.sampled_from([EIGHTHS, "0,1/4,1/2,3/4,1", "0,1/2,1", "0,1", ","]),
    "omega": st.text(alphabet="01a", max_size=5),
    "format": st.sampled_from(["json", "csv", "csv", "xml"]),
    "k": st.sampled_from(["-1", "0", "1", "2", "3", "6", "1" + "0" * 30]),
}
FUZZ_INPUTS = {argv[0]: argv[2] for _, argv, _ in GOLDEN_RUNS if "--input" in argv}


def mutate(draw, data):
    data = bytearray(data)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if not data:
            break
        at = draw(st.integers(0, len(data) - 1))
        how = draw(st.integers(0, 3))
        if how == 0:
            del data[at]
        else:
            data[at] = draw(st.integers(0, 255) if how == 1 else st.sampled_from(b"0123456789/-"))
    return bytes(data)


@st.composite
def fuzzed_runs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = COMMANDS[name]
    flags = [*command.required]
    flags += [flag for flag in command.optional if draw(st.booleans())]
    if "format" in declared_flags(name) and draw(st.booleans()):
        flags.append("format")
    if draw(st.integers(0, 7)) == 0:
        flags.append(draw(st.sampled_from(sorted(set(FLAGS) - declared_flags(name)))))
    data = None
    if "input" in flags:
        # mostly the command's own kind of input, sometimes another kind
        inputs = [FUZZ_INPUTS[name]] if draw(st.integers(0, 7)) else sorted(FUZZ_INPUTS.values())
        data = mutate(draw, (FIXTURES / draw(st.sampled_from(inputs))).read_bytes())
    values = {
        flag: draw(FUZZ_VALUES.get(flag, st.integers(-2, 6).map(str)))
        for flag in flags if flag not in ("input", "output")
    }
    return name, flags, values, data


@settings(derandomize=True, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_runs())
def test_fuzzed_runs_end_in_a_known_exit(case):
    name, flags, values, data = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [name]
        for flag in flags:
            value = values.get(flag, f"{tmp}/{flag}")
            argv += [f"--{flag}", value]
        assert_plain_path_agrees(argv)
        if data is not None:
            Path(tmp, "input").write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


ODD_VALUES = st.sampled_from(["", "x", " 1", "a=b", "0", "1/2", "0,1", "csv", "-", "-1", "--lmax"])
STRAY_TOKENS = st.sampled_from(["--", "-h", "--help", "--lm", "--lmax=2", "--out", "x", "freq"])


@st.composite
def command_lines(draw):
    """A command's flags in any order with plain or odd values, now and then one more token."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = COMMANDS[name]
    optional = [flag for flag in command.flags() if flag not in command.required]
    flags = [*command.required, *draw(st.lists(st.sampled_from(optional), unique=True))]
    argv = [name]
    for flag in draw(st.permutations(flags)):
        value = draw(st.one_of(FUZZ_VALUES.get(flag, st.integers(-1, 9).map(str)), ODD_VALUES))
        argv += [f"--{flag}", value]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(STRAY_TOKENS))
    return argv


@settings(derandomize=True, max_examples=500, deadline=None)
@given(command_lines())
def test_plain_path_reads_command_lines_as_argparse_does(argv):
    event("plain" if assert_plain_path_agrees(argv) is not None else "argparse")


@pytest.mark.parametrize(
    "argv,code",
    [
        (["complexity", "--lmax", "2", "--nmax", "2"], 0),
        (["validate", "--input", str(FIXTURES / "set_family_bad.jsonl")], 1),
        (["freq", "--input", str(FIXTURES / "table_lines.txt")], 2),
        (["complexity", "--help"], 0),
        (["complexity", "--lmax", "2"], 2),
    ],
    ids=["artifact", "invalid-log", "parse-error", "help", "usage"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_the_collector_on_every_exit(argv, code, enabled, tmp_path, capsys):
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv + ["--output", str(tmp_path / "out")]) == code
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_commands_run_with_the_collector_paused(monkeypatch, tmp_path):
    seen = []
    real = jsonio.artifact_pieces
    monkeypatch.setattr(
        jsonio, "artifact_pieces", lambda payload: seen.append(gc.isenabled()) or real(payload)
    )
    assert gc.isenabled()
    assert run(["complexity", "--lmax", "2", "--nmax", "2"], tmp_path)[0] == 0
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize(
    "argv,code",
    [
        (["complexity", "--lmax", "2", "--nmax", "2"], 0),
        (["validate", "--input", str(FIXTURES / "set_family_bad.jsonl")], 1),
        (["complexity", "--help"], 0),
        (["complexity", "--lmax", "2"], 2),
    ],
    ids=["artifact", "invalid-log", "help", "usage"],
)
def test_process_entry_exits_once_after_the_flushes_and_handlers(
    argv, code, monkeypatch, tmp_path
):
    events = []

    class Stream(io.StringIO):
        def flush(self):
            events.append(("flush", self))

    stdout, stderr = Stream(), Stream()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    # pytest's own handlers stay registered: this stands for running every handler
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: events.append(("atexit",)))
    monkeypatch.setattr(os, "_exit", lambda status: events.append(("exit", status)))
    # a coverage tracer or a plugin's thread would leave the ending to the interpreter
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(sys, "argv", ["limitlab", *argv, "--output", str(tmp_path / "out")])
    main()
    assert events == [("flush", stdout), ("flush", stderr), ("atexit",), ("exit", code)]


def test_library_calls_never_end_the_process(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(os, "_exit", calls.append)
    for golden_name, argv, want_code in GOLDEN_RUNS[:4]:
        assert run(with_input_paths(argv), tmp_path, name=golden_name)[0] == want_code
    assert calls == []


def limitlab(*argv, interpreter_flags=(), entry=("-m", "limitlab.cli"), **kwargs):
    """Run ``python -m limitlab.cli`` in a child process, the way the installed script runs,
    or another ``entry`` program given ``argv``."""
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout fails at the flush, not at the write
    return subprocess.run(
        [sys.executable, *interpreter_flags, *entry, *argv], env=env,
        stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60, **kwargs,
    )


# the library holds no assert (tests/test_layout.py), so -O may change no byte
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_process_entry_writes_the_goldens(flags, tmp_path):
    for golden_name, argv, want_code in GOLDEN_RUNS:
        want = (GOLDEN / golden_name).read_bytes()
        out = tmp_path / golden_name
        done = limitlab(*with_input_paths(argv), "--output", str(out), interpreter_flags=flags,
                        stdout=subprocess.DEVNULL)
        assert done.returncode == want_code, (argv, done.stderr)
        assert out.read_bytes() == want, argv
        if golden_name in ("complexity.json", "validate.json"):  # through a pipe, then frozen exit
            done = limitlab(*with_input_paths(argv), interpreter_flags=flags,
                            stdout=subprocess.PIPE)
            assert (done.returncode, done.stdout.encode()) == (want_code, want), argv
    done = limitlab("freq", "--input", str(FIXTURES / "trace.json"), "--k", "3",
                    interpreter_flags=flags, stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout) == (2, "")
    assert "unrecognized arguments: --k 3" in done.stderr and "Traceback" not in done.stderr


def test_a_profiled_process_entry_prints_its_table(tmp_path):
    # cProfile prints its table once the program returns, so the run may not end early
    argv = ["complexity", "--lmax", "1", "--nmax", "1"]
    done = limitlab(*argv, "--output", str(tmp_path / "profiled"),
                    interpreter_flags=["-m", "cProfile"], stdout=subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, "")
    assert "function calls" in done.stdout and "ncalls" in done.stdout
    assert (tmp_path / "profiled").read_bytes() == run(argv, tmp_path)[1]


# what a program that calls main() leaves for the exit: an atexit handler runs
# before the process ends early, and a live thread keeps the interpreter's ending
LEFT_FOR_THE_EXIT = {
    "atexit-handler": "atexit.register(print, 'after main', flush=True)\n",
    "live-thread":
        "threading.Thread(target=lambda: (time.sleep(0.2), print('after main'))).start()\n",
}


@pytest.mark.parametrize("left", sorted(LEFT_FOR_THE_EXIT))
def test_what_a_caller_leaves_for_the_exit_still_runs(left, tmp_path):
    code = (
        "import atexit, sys, threading, time\n"
        f"{LEFT_FOR_THE_EXIT[left]}"
        "from limitlab.cli import main\n"
        "sys.exit(main())\n"
    )
    argv = ["complexity", "--lmax", "1", "--nmax", "1"]
    done = limitlab(*argv, "--output", str(tmp_path / "entry"), entry=["-c", code],
                    stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout, done.stderr) == (0, "after main\n", "")
    assert (tmp_path / "entry").read_bytes() == run(argv, tmp_path)[1]


def test_help_into_a_broken_pipe_ends_as_the_interpreter_ends():
    # the help stays buffered and its flush fails: the process then ends, with
    # the status and words the interpreter gives any program that wrote that text
    text = limitlab("complexity", "--help", stdout=subprocess.PIPE).stdout
    endings = []
    for argv, entry in [
        (["complexity", "--help"], ["-m", "limitlab.cli"]),
        ([text], ["-c", "import sys; sys.stdout.write(sys.argv[1])"]),
    ]:
        kwargs = _broken_pipe()
        try:
            done = limitlab(*argv, entry=entry, **kwargs)
        finally:
            os.close(kwargs["stdout"])
        endings.append((done.returncode, done.stderr))
    assert endings[0] == endings[1]
    assert endings[0][0] == 120 and "BrokenPipeError" in endings[0][1]


# the limitlab modules a process has loaded, printed as it ends: complexity, freq and
# lowbasis load only for the commands that run them, and a stray top-level import of
# one would load it into every process
LOADED = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(*sorted(\n"
    "    m[9:] for m in sys.modules if m.startswith('limitlab.')), flush=True))\n"
)
ENTRY = "import runpy\nrunpy.run_module('limitlab.cli', run_name='__main__', alter_sys=True)\n"
ALWAYS = {"cantor", "covers", "families", "jsonio"}
# the library module a command loads beyond ALWAYS, for the commands that load one
LAZY = {
    "lowbasis": "lowbasis", "complexity": "complexity", "deficiency": "complexity",
    "deficiency-family": "complexity", "complexity-bounds": "complexity",
    "randomness-report": "complexity", "freq": "freq", "trace-to-family": "freq",
}


@pytest.mark.parametrize("code,argv,want_code,want", [
    ("import limitlab\n", [], 0, set()),
    ("import limitlab.cli\n", [], 0, ALWAYS | {"cli"}),
    *((ENTRY, with_input_paths(argv), want_code,
       ALWAYS | ({LAZY[argv[0]]} if argv[0] in LAZY else set()))
      for _, argv, want_code in GOLDEN_RUNS),
], ids=["package", "cli", *(argv[0] for _, argv, _ in GOLDEN_RUNS)])
def test_a_process_loads_only_the_modules_its_command_runs(code, argv, want_code, want, tmp_path):
    output = ["--output", str(tmp_path / "out")] if argv else []
    done = limitlab(*argv, *output, entry=["-c", LOADED + code], stdout=subprocess.PIPE)
    # only a command that exits nonzero may write to stderr
    assert (done.returncode, done.stderr == "") == (want_code, want_code == 0), done.stderr
    assert set(done.stdout.split()) == want


SET_FAMILY_K1 = (
    '{"type": "set-family", "k": 1, "universe": ["0", "1", "00"]}\n'
    '{"stage": 0, "kind": "tail", "index": 0, "element": "0"}\n'
)


def _accept_all(segments, bases, pieces, labels, budget):  # a point-mask sweep without budget
    return ((start, end, tuple(labels)) for start, end, _ in segments)


def _accept_none(segments, bases, pieces, labels, budget):
    return ((start, end, ()) for start, end, _ in segments)


def _over_budget(segments, elements, rgrid, scale, tree):  # a semimeasure loop without budget
    runs = [(start, end, tuple((r, u) for u in elements for r in rgrid))
            for start, end, _ in segments]
    return runs, dict.fromkeys(["", *elements], 2 * scale)  # the root and every element at 2


def _no_value(segments, elements, rgrid, scale, tree):
    return [(start, end, ()) for start, end, _ in segments], {}


# (module, name, replacement, argv): one break of each guarantee check
BROKEN = {
    "cover-sets-budget": ("covers", "_sweep", _accept_all, ["cover-sets"]),
    "cover-sets-liminf": ("covers", "_sweep", _accept_none, ["cover-sets"]),
    "cover-open-budget": ("covers", "_sweep", _accept_all,
                          ["cover-open", "--input", "open_family.jsonl", "--lmax", "2"]),
    "cover-open-liminf": ("covers", "_sweep", _accept_none,
                          ["cover-open", "--input", "open_family.jsonl", "--lmax", "2"]),
    "cover-semimeasure-budget": ("covers", "_semimeasure_runs", _over_budget,
        ["cover-semimeasure", "--input", "semimeasure_flat.jsonl", "--grid", EIGHTHS]),
    "cover-semimeasure-liminf": ("covers", "_semimeasure_runs", _no_value,
        ["cover-semimeasure", "--input", "semimeasure_flat.jsonl", "--grid", EIGHTHS]),
    "cover-tree-budget": ("covers", "_semimeasure_runs", _over_budget,
        ["cover-tree", "--input", "semimeasure_tree.jsonl", "--grid", EIGHTHS]),
    "cover-tree-liminf": ("covers", "_semimeasure_runs", _no_value,
        ["cover-tree", "--input", "semimeasure_tree.jsonl", "--grid", EIGHTHS]),
    "cover-open-strong-budget": (
        "covers", "_parts", lambda p, segments: [ll.FULL],
        ["cover-open-strong", "--input", "open_family_gran.jsonl", "--epsilon-prime", "3/4"]),
    "lowbasis-witness": (
        "lowbasis", "_clopen", lambda ranges, depth: ll.FULL,
        ["lowbasis", "--input", "forcing.json", "--witness-length", "2"]),
    "complexity-bounds-count": (
        "complexity", "members", lambda p, nmax=None: [(2, 3, ll.FULL)],
        ["complexity-bounds", "--input", "open_family_levels.jsonl", "--c", "1"]),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_a_broken_guarantee_exits_one_naming_it(case, monkeypatch, tmp_path, capsys):
    module, name, broken, argv = BROKEN[case]
    monkeypatch.setattr(getattr(ll, module), name, broken)
    if argv == ["cover-sets"]:
        (tmp_path / "family.jsonl").write_text(SET_FAMILY_K1)
        argv = argv + ["--input", str(tmp_path / "family.jsonl")]
    out = tmp_path / "out"
    assert main(with_input_paths(argv) + ["--output", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("guarantee violated: "), lines
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_a_broken_guarantee_exits_one_under_every_flag(flags, tmp_path):
    (tmp_path / "family.jsonl").write_text(SET_FAMILY_K1)
    out = tmp_path / "out.json"
    code = (
        "import sys\n"
        "from limitlab import covers\n"
        "from limitlab.cli import main\n"
        "covers._sweep = lambda segments, bases, pieces, labels, budget: (\n"
        "    (start, end, tuple(labels)) for start, end, _ in segments)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, "cover-sets", "--input",
         str(tmp_path / "family.jsonl"), "--output", str(out)],
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "guarantee violated: cover-sets holds 3 elements, not < 2^k\n"
    assert not out.exists()


def _broken_pipe():
    read, write = os.pipe()
    os.close(read)
    return {"stdout": write}


@pytest.mark.parametrize(
    "stdout",
    [
        pytest.param(lambda: {"preexec_fn": lambda: os.close(1)}, id="closed-fd"),
        pytest.param(
            lambda: {"stdout": os.open("/dev/full", os.O_WRONLY)}, id="dev-full",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
        pytest.param(_broken_pipe, id="broken-pipe"),
    ],
)
def test_unwritable_stdout_exits_two_with_one_error_line(stdout):
    kwargs = stdout()
    try:
        done = limitlab("complexity", "--lmax", "3", "--nmax", "3", **kwargs)
    finally:
        if "stdout" in kwargs:
            os.close(kwargs["stdout"])
    lines = done.stderr.splitlines()
    assert done.returncode == 2, done.stderr
    assert len(lines) == 1 and lines[0].startswith("error: cannot write standard output: ")
    assert "Traceback" not in done.stderr


def test_goldens_run_without_argparse():
    # -S keeps the imports of site-packages .pth files out of the check
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    code = (
        "import json, os, sys, tempfile\n"
        "from limitlab.cli import main\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    codes = [main(argv + ['--output', os.path.join(tmp, 'out')])\n"
        "             for argv in json.loads(sys.argv[1])]\n"
        "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps(GOLDEN_ARGV)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[want for _, _, want in GOLDEN_RUNS]} []\n"


def test_cli_import_loads_no_dataclasses():
    # -S keeps the imports of site-packages .pth files out of the check
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    code = "import limitlab.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"

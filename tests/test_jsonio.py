"""The artifact writers against their definitions in ``oracles``."""

import enum
import json
import random
from collections import OrderedDict
from fractions import Fraction

import pytest

import limitlab as ll
from limitlab import jsonio
from limitlab.cli import main
from oracles import csv_by_join, dumps_artifact_by_json
from test_cli import GOLDEN, GOLDEN_RUNS, with_input_paths


class Label(str):
    pass


class Flag(enum.IntEnum):
    ON = 1


# text that would break a re-indent which mistook string content for structure
TRICKY = [",", "[", "]", '"', "\\", "\n", "],\n[", '"]\n["', ": ", "\t", "é", "☃", "\U0001d11e"]

# shapes the writer picks out, and the near misses it must leave to the walk
EDGE_CASES = [
    {}, [], "", 0, None, [[]], [[], []], [[1], []], [[], [1]], [[1, [2]]], [1, [2]], [[1], 2],
    [{}], [[{}]], [(1, 2), [3]], ((),), {"a": [[-(10**30)], [True, False, None]]},
    # subclasses: a record, an ordered dict, a str and an int subclass
    [ll.IndexSpec("tail", 3), ll.tail(4)], [[ll.single(0)]], OrderedDict([("b", 1), ("a", [2])]),
    [[Label("x\ny"), 1], [Label("z"), Flag.ON]],
]


def rand_str(rng):
    return "".join(rng.choice(TRICKY + ["0", "1", "ab", " "]) for _ in range(rng.randint(0, 4)))


def rand_scalar(rng):
    return rng.choice([
        lambda: rand_str(rng), lambda: rng.randint(-3, 40), lambda: -rng.randint(2**64, 2**90),
        lambda: rng.choice([True, False, None]),
    ])()


def rand_row(rng, depth):
    row = [rand_scalar(rng) for _ in range(rng.randint(0, 4))]
    if depth and rng.random() < 0.1:
        row.insert(rng.randint(0, len(row)), rand_value(rng, depth - 1))
    return tuple(row) if rng.random() < 0.1 else row


def rand_value(rng, depth=3):
    kind = rng.randint(0, 4 if depth else 2)
    if kind == 0:
        return rand_scalar(rng)
    if kind == 1:
        return [rand_scalar(rng) for _ in range(rng.randint(0, 5))]
    if kind == 2:
        # rows of mostly one width, some ragged or empty
        width = rng.randint(1, 3)
        return [
            rand_row(rng, depth) if rng.random() < 0.2 else [rand_scalar(rng) for _ in range(width)]
            for _ in range(rng.randint(0, 6))
        ]
    if kind == 3:
        return {rand_str(rng): rand_value(rng, depth - 1) for _ in range(rng.randint(0, 4))}
    return [rand_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]


def golden_payloads(monkeypatch, tmp_path):
    """Every payload the golden command lines hand to ``dumps_artifact``."""
    payloads = []
    real = jsonio.dumps_artifact
    monkeypatch.setattr(jsonio, "dumps_artifact", lambda p: payloads.append(p) or real(p))
    for _, argv, code in GOLDEN_RUNS:
        assert main(with_input_paths(argv) + ["--output", str(tmp_path / "out")]) == code
    return payloads


def test_artifact_text_matches_json_dumps(monkeypatch, tmp_path):
    rng = random.Random("artifact-writer")
    payloads = [*EDGE_CASES, *golden_payloads(monkeypatch, tmp_path)]
    assert len(payloads) == len(EDGE_CASES) + 14  # two goldens are event logs
    payloads += [
        {rand_str(rng): rand_value(rng) for _ in range(rng.randint(0, 4))}
        if rng.random() < 0.7 else rand_value(rng)
        for _ in range(5000)
    ]
    for payload in payloads:
        assert jsonio.dumps_artifact(payload) == dumps_artifact_by_json(payload), payload


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {None: 1}}, [{"a": 1, 2: 3}], {(): 0}])
def test_artifact_keys_must_be_strings(payload):
    with pytest.raises(TypeError):
        jsonio.dumps_artifact(payload)


# cover goldens as the library builds their payloads (set and open logs are tuples of rows)
COVER_GOLDENS = (
    "cover_sets.json", "cover_semimeasure.json", "cover_open.json", "cover_open_strong.json"
)


def test_artifacts_never_use_the_pure_python_encoder(monkeypatch, tmp_path):
    # json.dumps with indent builds its chunks in json.encoder._make_iterencode
    calls = []
    real = json.encoder._make_iterencode
    monkeypatch.setattr(
        json.encoder, "_make_iterencode", lambda *args: calls.append(1) or real(*args)
    )
    for name in ("complexity.json", "cover_sets.json"):
        text = (GOLDEN / name).read_text()
        assert jsonio.dumps_artifact(json.loads(text)) == text
    built = {}
    dumps = jsonio.dumps_artifact
    for name, argv, code in GOLDEN_RUNS:
        if name in COVER_GOLDENS:
            spy = lambda p, _n=name: dumps(built.setdefault(_n, p))  # noqa: E731
            monkeypatch.setattr(jsonio, "dumps_artifact", spy)
            assert main(with_input_paths(argv) + ["--output", str(tmp_path / "out")]) == code
    assert sorted(built) == sorted(COVER_GOLDENS)
    assert any(type(payload["acceptedOps"]) is tuple for payload in built.values())
    for name, payload in built.items():
        assert dumps(payload) == (GOLDEN / name).read_text()
    assert calls == []
    dumps_artifact_by_json(json.loads(text))  # the spy sees the fallback when there is one
    assert calls


# writer, header, the rows as the writer renders them, a random payload
CSV_SHAPES = {
    "complexity": (
        jsonio.complexity_table_to_csv, ("bits", "condition", "value"),
        lambda p: ([bits or "-", cond, value] for bits, cond, value in p["entries"]),
        lambda rng, n: {"entries": [
            [rng.choice(["", "0", "101", rand_str(rng)]), rng.randint(0, 9), rand_scalar(rng)]
            for _ in range(n)
        ]},
        "complexity.json",
    ),
    "deficiency": (
        jsonio.deficiency_report_to_csv, ("prefix", "d", "dbar"),
        lambda p: p["perPrefix"],
        lambda rng, n: {"perPrefix": [[rand_str(rng), rand_scalar(rng), rand_scalar(rng)]
                                      for _ in range(n)]},
        "deficiency.json",
    ),
    "randomness": (
        jsonio.randomness_report_to_csv, ("n",),
        lambda p: ([n] for n in p["qualifying"]),
        lambda rng, n: {"qualifying": [rand_scalar(rng) for _ in range(n)]},
        "randomness.json",
    ),
    "frequencies": (
        jsonio.frequencies_to_csv, ("value", "frequency"),
        lambda p: p["frequencies"].items(),
        lambda rng, n: {"frequencies": {rand_str(rng): rand_str(rng) for _ in range(n)}},
        "freq.json",
    ),
}


@pytest.mark.parametrize("shape", sorted(CSV_SHAPES))
def test_csv_text_matches_joined_rows(shape):
    writer, header, rows, make, golden = CSV_SHAPES[shape]
    rng = random.Random(f"csv:{shape}")
    payloads = [json.loads((GOLDEN / golden).read_text())]
    payloads += [make(rng, rng.randint(0, 8)) for _ in range(500)]
    for payload in payloads:
        assert writer(payload) == csv_by_join(header, rows(payload)), payload


def test_semimeasure_log_formats_each_run_once(monkeypatch):
    # one tail(10**4) event: 10**4 + 1 thresholds repeat one run's ops
    p = ll.SemimeasureFamilyPresentation(
        events=(ll.ValueEvent(0, ll.tail(10**4), "0", Fraction(1, 2)),)
    )
    cover = ll.cover_semimeasure(p, [Fraction(n, 8) for n in range(9)])
    calls = []
    real = jsonio.format_fraction
    monkeypatch.setattr(jsonio, "format_fraction", lambda value: calls.append(1) or real(value))
    payload = jsonio.cover_semimeasure_to_json(cover)
    ops = sum(len(ops) for _, _, ops in cover.runs)
    assert len(calls) <= ops + len(cover.values) + 1
    assert len(cover.accepted_ops) > 10**4
    assert [list(row) for row in payload["acceptedOps"]] == [
        [real(r), n, u] for r, n, u in cover.accepted_ops
    ]

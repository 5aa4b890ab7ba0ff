"""The artifact writers against their definitions in ``oracles``."""

import enum
import hashlib
import json
import random
import tracemalloc
from collections import OrderedDict
from fractions import Fraction

import pytest

import limitlab as ll
from limitlab import complexity, jsonio
from limitlab.cli import main
from generators import EIGHTHS, gen_open_family, gen_semimeasure_family, gen_set_family
from oracles import accepted_ops, csv_by_join, dumps_artifact_by_json, rows_of_runs
from oracles import table_of, table_payload_by_sort
from test_cli import GOLDEN, GOLDEN_RUNS, run, with_input_paths


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
    """Every payload the golden command lines hand to ``artifact_pieces``."""
    payloads = []
    real = jsonio.artifact_pieces
    monkeypatch.setattr(jsonio, "artifact_pieces", lambda p: payloads.append(p) or real(p))
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


# cover goldens as the library builds their payloads (their logs are Runs)
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
    pieces = jsonio.artifact_pieces
    for name, argv, code in GOLDEN_RUNS:
        if name in COVER_GOLDENS:
            spy = lambda p, _n=name: pieces(built.setdefault(_n, p))  # noqa: E731
            monkeypatch.setattr(jsonio, "artifact_pieces", spy)
            assert main(with_input_paths(argv) + ["--output", str(tmp_path / "out")]) == code
    assert sorted(built) == sorted(COVER_GOLDENS)
    assert all(type(payload["acceptedOps"]) is jsonio.Runs for payload in built.values())
    for name, payload in built.items():
        assert "".join(pieces(payload)) == (GOLDEN / name).read_text()
    assert calls == []
    dumps_artifact_by_json(json.loads(text))  # the spy sees the fallback when there is one
    assert calls


def test_goldens_are_written_without_expanding_a_log(monkeypatch, tmp_path):
    # every log is written from its runs (the library has no expanded view
    # of a cover's log) and the complexity table from its blocks: no table map is built
    def refuse(*args):
        raise AssertionError("an expanded view was built")

    monkeypatch.setattr(complexity, "complexity_table", refuse)
    for name, argv, code in GOLDEN_RUNS:
        assert run(with_input_paths(argv), tmp_path) == (code, (GOLDEN / name).read_bytes()), name


def complexity_payload(max_len, nmax):
    return jsonio.complexity_blocks_to_json(ll.complexity_blocks(max_len, nmax))


def golden(name):
    return json.loads((GOLDEN / name).read_text())


# writer, header, the rows as the writer renders them, a random payload, a golden payload
CSV_SHAPES = {
    "complexity": (
        jsonio.complexity_table_to_csv, ("bits", "condition", "value"),
        # "-" for the empty bits, and for any empty field of a random run
        lambda p: ([format(v) or "-" for v in row] for row in rows_of_runs(p["entries"])),
        lambda rng, n: {"entries": rand_runs(rng)} if rng.random() < 0.5 else complexity_payload(
            rng.randint(0, 4), rng.randint(0, 9)),
        complexity_payload(2, 2),  # as `complexity --lmax 2 --nmax 2` builds it
    ),
    "deficiency": (
        jsonio.deficiency_report_to_csv, ("prefix", "d", "dbar"),
        lambda p: p["perPrefix"],
        lambda rng, n: {"perPrefix": [[rand_str(rng), rand_scalar(rng), rand_scalar(rng)]
                                      for _ in range(n)]},
        golden("deficiency.json"),
    ),
    "randomness": (
        jsonio.randomness_report_to_csv, ("n",),
        lambda p: ([n] for n in p["qualifying"]),
        lambda rng, n: {"qualifying": [rand_scalar(rng) for _ in range(n)]},
        golden("randomness.json"),
    ),
    "frequencies": (
        jsonio.frequencies_to_csv, ("value", "frequency"),
        lambda p: p["frequencies"].items(),
        lambda rng, n: {"frequencies": {rand_str(rng): rand_str(rng) for _ in range(n)}},
        golden("freq.json"),
    ),
}


@pytest.mark.parametrize("shape", sorted(CSV_SHAPES))
def test_csv_text_matches_joined_rows(shape):
    writer, header, rows, make, golden_payload = CSV_SHAPES[shape]
    rng = random.Random(f"csv:{shape}")
    payloads = [golden_payload] + [make(rng, rng.randint(0, 8)) for _ in range(500)]
    for payload in payloads:
        assert "".join(writer(payload)) == csv_by_join(header, rows(payload)), payload


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
    assert len(accepted_ops(cover)) > 10**4
    assert json.loads(jsonio.dumps_artifact(payload))["acceptedOps"] == [
        [real(r), n, u] for r, n, u in accepted_ops(cover)
    ]


# piece sizes that put the chunk boundaries inside and between runs
CHUNKS = [1 << 14, 1, 2, 3, 7]


def written(payload, monkeypatch, chunk):
    monkeypatch.setattr(jsonio, "_CHUNK", chunk)
    return "".join(jsonio.artifact_pieces(payload))


def test_complexity_artifacts_match_the_expanded_rows(monkeypatch):
    # the oracles sort the map of complexity_table, the expanded view, never the runs
    # (a table without conditions, which complexity_blocks refuses to build, has no groups)
    cases = [(lmax, nmax) for lmax in range(8) for nmax in range(8)] + [(3, 40)]
    tables = [(case, ll.complexity_table(*case), complexity_payload(*case)) for case in cases]
    tables.append(("empty", table_of({}), jsonio.complexity_blocks_to_json([])))
    for case, table, payload in tables:
        expanded = table_payload_by_sort(table)
        want = dumps_artifact_by_json(expanded)
        rows = ([bits or "-", cond, value] for bits, cond, value in expanded["entries"])
        want_csv = csv_by_join(("bits", "condition", "value"), rows)
        for chunk in CHUNKS:
            assert written(payload, monkeypatch, chunk) == want, (case, chunk)
            assert "".join(jsonio.complexity_table_to_csv(payload)) == want_csv


def test_complexity_groups_are_bounded_whatever_the_condition_count():
    # the 299,998 conditions above --lmax 2 are one group, one run filled from their range
    tracemalloc.start()
    try:
        payload = complexity_payload(2, 300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert payload["entries"].runs[-1][1] == (range(3, 300_001),)


def single_lines(runs):
    """``runs`` with each newline in a string made a space, so that a CSV row is one line."""
    flat = lambda value: value.replace("\n", " ") if type(value) is str else value  # noqa: E731
    return jsonio.Runs(
        (tuple(tuple(map(flat, row)) for row in rows),
         tuple(column if type(column) is range else list(map(flat, column)) for column in columns))
        for rows, columns in runs.runs
    )


def test_csv_pieces_hold_at_most_a_chunk_of_rows(monkeypatch):
    # a piece holds at most _CHUNK rows of one run, or one repeat of a run whose rows are more
    def widest_piece(payload):
        return max(piece.count("\n") for piece in jsonio.complexity_table_to_csv(payload))

    payload = complexity_payload(11, 300)
    widest_run = max(len(rows) for rows, _ in payload["entries"].runs)
    assert widest_run == 2**12 - 1
    assert widest_piece(payload) <= max(jsonio._CHUNK, widest_run)
    rng = random.Random("csv-pieces")
    for chunk in CHUNKS:
        monkeypatch.setattr(jsonio, "_CHUNK", chunk)
        for _ in range(300):
            runs = single_lines(rand_runs(rng))
            widest_run = max((len(rows) for rows, _ in runs.runs), default=0)
            assert widest_piece({"entries": runs}) <= max(chunk, widest_run), runs.runs


def test_csv_text_of_random_runs_matches_their_rows(monkeypatch):
    # braces, quotes, several slots and empty runs, cut at every piece size; "-" for an empty field
    header = ("bits", "condition", "value")
    rng = random.Random("csv-runs")
    for chunk in CHUNKS:
        monkeypatch.setattr(jsonio, "_CHUNK", chunk)
        for _ in range(300):
            runs = single_lines(rand_runs(rng))
            rows = ([format(v) or "-" for v in row] for row in rows_of_runs(runs))
            want = csv_by_join(header, rows)
            assert "".join(jsonio.complexity_table_to_csv({"entries": runs})) == want, runs.runs


def _fraction_text(r):
    return f"{r.numerator}/{r.denominator}"


def random_covers(rng):
    """A random cover of each kind: its artifact payload and the ``acceptedOps``
    rows of its log expanded by ``oracles.accepted_ops``."""
    p = gen_set_family(rng)
    cover = ll.cover_sets(p, nmax=max(ll.breakpoints(p)) + rng.randint(0, 3))
    yield cover, jsonio.cover_set_to_json(cover, p.k), [[n, u] for n, u in accepted_ops(cover)]
    for tree in (False, True):
        p = gen_semimeasure_family(rng, tree=tree)
        cover = ll.cover_semimeasure(p, EIGHTHS, nmax=max(ll.breakpoints(p)) + rng.randint(0, 3))
        rows = [[_fraction_text(r), n, u] for r, n, u in accepted_ops(cover)]
        yield cover, jsonio.cover_semimeasure_to_json(cover), rows
    p = gen_open_family(rng, max_depth=4)
    cover = ll.cover_open(p, lmax=4, nmax=max(ll.breakpoints(p)) + rng.randint(0, 3))
    yield cover, jsonio.cover_open_to_json(cover), [[x, n] for x, n in accepted_ops(cover)]
    p = gen_open_family(rng, with_granularity=True, max_depth=4)
    cover = ll.cover_open_strong(p, p.epsilon + Fraction(1, 8))
    yield cover, jsonio.cover_open_to_json(cover), [[x, n] for x, n in accepted_ops(cover)]


def test_cover_logs_match_the_expanded_rows(monkeypatch):
    rng = random.Random("cover-logs")
    empty_logs = idle_runs = 0
    for _ in range(40):
        for cover, payload, rows in random_covers(rng):
            want = dumps_artifact_by_json({**payload, "acceptedOps": rows})
            for chunk in CHUNKS:
                assert written(payload, monkeypatch, chunk) == want, (cover, chunk)
            empty_logs += not rows
            idle_runs += any(not ops for _, _, ops in cover.runs)
    assert empty_logs and idle_runs


# literal text with braces, which a fill must copy as it is and never read as a format field
BRACES = ["{", "}", "{0}", "{}", "}}{{", "{1]"]


def rand_literal(rng):
    return rng.choice(BRACES) if rng.random() < 0.3 else rand_scalar(rng)


def rand_runs(rng):
    """A Runs list of random rows (scalars and slots) and columns."""
    runs = []
    for _ in range(rng.randint(0, 4)):
        count = rng.randint(0, 5)
        columns = []
        for _ in range(rng.randint(1, 3)):
            start = rng.randint(-3, 2**70)
            columns.append(rng.choice([
                [rand_str(rng) + rng.choice(BRACES) for _ in range(count)],
                [rng.randint(-(2**70), 40) for _ in range(count)],
                range(start, start + count),
            ]))
        slots = [jsonio._Slot(i) for i in range(len(columns))]
        rows = tuple(
            tuple(rng.choice(slots) if rng.random() < 0.4 else rand_literal(rng)
                  for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3))
        )
        runs.append((rows, tuple(columns)))
    return jsonio.Runs(runs)


def test_runs_text_matches_the_rows_they_stand_for(monkeypatch):
    # literal braces, quotes and newlines, one or several slots, empty runs
    rng = random.Random("runs")
    for _ in range(1500):
        payload = {rand_str(rng): rand_runs(rng), "nested": {"rows": rand_runs(rng)}}
        want = dumps_artifact_by_json(payload)
        for chunk in CHUNKS[:3]:
            assert written(payload, monkeypatch, chunk) == want, want


@pytest.mark.parametrize("column", [[True], [1, False], ["0", 1], [None]])
def test_runs_columns_hold_no_bool_and_no_mixed_kinds(column):
    payload = {"rows": jsonio.Runs([(((jsonio._Slot(0), "x"),), (column,))])}
    with pytest.raises(TypeError):
        jsonio.dumps_artifact(payload)


def test_set_cover_of_a_large_index_is_written_in_small_pieces():
    # one tail(10^6) event on a two-element universe: a 73.8 MB log from two runs
    p = ll.SetFamilyPresentation(
        k=2, universe=("0", "1"), events=(ll.SetEvent(0, ll.tail(10**6), "0"),)
    )
    payload = jsonio.cover_set_to_json(ll.cover_sets(p), p.k)
    digest, size = hashlib.sha256(), 0
    tracemalloc.start()
    try:
        for piece in jsonio.artifact_pieces(payload):
            data = piece.encode()
            digest.update(data)
            size += len(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    # the artifact of the expanded rows, as written before the logs were filled from runs
    assert (size, digest.hexdigest()) == (
        73777930, "1af600cb33d25700fd2356afc40832ff26d48d35a7be78de797215b6793598ed"
    )


def table_texts(entries, mode):
    """The JSON form and the line form of one flat table."""
    rows = [[bits, cond, value] for (bits, cond), value in entries.items()]
    lines = "".join(f"{bits or '-'} {cond} {value}\n" for bits, cond, value in rows)
    return (json.dumps({"conditionMode": mode, "entries": rows}), f"mode {mode}\n{lines}")


@pytest.mark.parametrize("mode", ["conditional", "plain"])
def test_both_table_forms_parse_to_one_table(mode):
    # the M0 table, less a few rows, plus rows under conditions no lookup reads
    rng = random.Random(f"table-forms-{mode}")
    entries = dict(ll.complexity_table(4, 5).entries)
    for key in rng.sample(sorted(entries), 6):
        del entries[key]
    entries.update({("0110", 9): 1, ("", 7): 0, ("1", 0): 8})
    tables = [jsonio.parse_complexity_table(text) for text in table_texts(entries, mode)]
    assert tables[0] == tables[1] == table_of(entries, mode)
    assert tables[0].entries == entries
    assert [len(d) for d in tables[0].by_condition.values()] == [
        sum(1 for _, cond in entries if cond == c) for c in tables[0].by_condition
    ]


def test_reading_a_table_builds_no_pair_per_row():
    # `complexity --lmax 10 --nmax 10`, 1.1 MB of 22,517 rows: one dict per condition
    # peaks at 4.25 MiB, where a map keyed by (string, condition) pairs took 6.30 MiB
    text = jsonio.dumps_artifact(complexity_payload(10, 10))
    rows = json.loads(text)["entries"]
    lines = "".join(f"{bits or '-'} {cond} {value}\n" for bits, cond, value in rows)
    for form, bound in ((text, 5 * 2**20), (lines, 4 * 2**20)):
        tracemalloc.start()
        try:
            table = jsonio.parse_complexity_table(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak
        assert len(table.entries) == 22_517

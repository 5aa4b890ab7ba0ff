import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import limitlab as ll
from limitlab import jsonio
from limitlab.cli import COMMANDS, FLAGS, main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

EIGHTHS = "0/8,1/8,2/8,3/8,4/8,5/8,6/8,7/8,1"

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
    ],
    ids=["condition-bool", "value-bool", "json-array"],
)
def test_table_json_is_checked_strictly(text, message, tmp_path, capsys):
    source = tmp_path / "table.json"
    source.write_text(text)
    argv = ["deficiency", "--input", str(source), "--omega", "0", "--horizon", "1", "--c", "0"]
    assert run(argv, tmp_path) == (2, b"")
    assert message in capsys.readouterr().err


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


def test_line_format_table_parses():
    table = jsonio.parse_complexity_table((FIXTURES / "table_lines.txt").read_text())
    assert table.mode == "conditional"
    assert table.value("") == 2
    assert table.value("0") == 3


def test_table_json_round_trip():
    table = jsonio.parse_complexity_table((FIXTURES / "table.json").read_text())
    emitted = jsonio.dumps_artifact(jsonio.complexity_table_to_json(table))
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


def declared_flags(name):
    command = COMMANDS[name]
    return {*command.required, *command.optional, "output", *(["format"] if command.csv else [])}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_help_lists_exactly_the_declared_flags(name, capsys):
    assert main([name, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--([a-z][a-z-]*)", capsys.readouterr().out))
    assert listed == declared_flags(name) | {"help"}


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
    ],
    ids=["deficiency-family-negative-c", "complexity-bounds-negative-c", "omega-not-bits"],
)
def test_bad_flag_values_exit_two_without_traceback(argv, tmp_path, capsys):
    assert run(with_input_paths(argv), tmp_path) == (2, b"")
    err = capsys.readouterr().err
    assert "error:" in err or "usage:" in err
    assert "Traceback" not in err


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
# legitimately exponential work (e.g. `cover-open --lmax 40`).
FUZZ_VALUES = {
    "epsilon": st.sampled_from(["1/2", "3/4", "1", "1/4", "0", "-1/2", "1/0"]),
    "epsilon-prime": st.sampled_from(["3/4", "1", "7/8", "1/2", "-1", "q"]),
    "grid": st.sampled_from([EIGHTHS, "0,1/4,1/2,3/4,1", "0,1/2,1", "0,1", ","]),
    "omega": st.text(alphabet="01a", max_size=5),
    "format": st.sampled_from(["json", "csv", "csv", "xml"]),
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
        if data is not None:
            Path(tmp, "input").write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


def test_cli_import_loads_no_dataclasses():
    # -S keeps the imports of site-packages .pth files out of the check
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    code = "import limitlab.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"

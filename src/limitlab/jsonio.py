"""File formats: event logs, instance files, tables, result artifacts.

Presentations travel as line-oriented JSON event logs: a header line naming
the family kind and its parameters, then one event per line with fields
``stage``, ``kind`` (single/tail), ``index`` and the payload (``element``,
``element``+``value`` or ``interval``).  Rationals are always the exact text
"num/den"; no floats are read or written anywhere.

Emitted artifacts are deterministic: keys sorted, fixed indentation, one
trailing newline, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cantor import ClopenSet, format_fraction, normalize, parse_fraction
from .complexity import ComplexityTable, DeficiencyReport, RandomnessReport
from .covers import CoverOpenSet, CoverSemimeasure, CoverSet
from .families import (
    IndexSpec,
    IntervalEvent,
    OpenFamilyPresentation,
    Presentation,
    SemimeasureFamilyPresentation,
    SetEvent,
    SetFamilyPresentation,
    ValidationReport,
    ValueEvent,
)
from .freq import PartialTrace
from .lowbasis import ForcingInstance, ForcingOutcome


def dumps_artifact(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _one_line(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def _parse_spec(obj: dict, where: str) -> IndexSpec:
    kind = obj.get("kind")
    if kind not in ("single", "tail"):
        raise ValueError(f"{where}: index spec needs kind single|tail and a natural index")
    return IndexSpec(kind, _require_int(obj, "index", where))


def _require_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ValueError(f"{where}: missing or non-string field {key!r}")
    return value


def _require_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{where}: missing or non-integer field {key!r}")
    return value


# The event-log format per header type: presentation class, header keys,
# event class and event payload keys.  Every line also carries "stage",
# "kind" and "index"; every payload field is a string.
_EVENT_LOGS = {
    "set-family": (SetFamilyPresentation, ("k", "universe"), SetEvent, ("element",)),
    "semimeasure-family": (
        SemimeasureFamilyPresentation, ("tree",), ValueEvent, ("element", "value")),
    "open-family": (
        OpenFamilyPresentation, ("epsilon", "granularity"), IntervalEvent, ("interval",)),
}
_KIND_OF = {cls: kind for kind, (cls, *_) in _EVENT_LOGS.items()}
# fields whose log form differs from their record value, both ways
_DUMP = {
    "universe": list,
    "epsilon": format_fraction,
    "value": format_fraction,
    "granularity": lambda g: None if g is None else [list(pair) for pair in g],
}
_LOAD = {"value": parse_fraction}


def _same(value: Any) -> Any:
    return value


def _json_line(no: int, line: str) -> Any:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {no}: not JSON: {exc}") from None


def parse_presentation(text: str) -> Presentation:
    """Parse a line-oriented event log into the presentation it describes."""
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line]
    if not lines:
        raise ValueError("empty event log: a header line is required")
    no, head_text = lines[0]
    header = _json_line(no, head_text)
    if not isinstance(header, dict) or "type" not in header:
        raise ValueError(f"line {no}: header must be an object with a 'type' field")
    kind = header["type"]
    if not isinstance(kind, str) or kind not in _EVENT_LOGS:
        raise ValueError(f"unknown presentation type {kind!r}")
    cls, _, event_cls, payload_keys = _EVENT_LOGS[kind]
    events = []
    for no, line in lines[1:]:
        obj = _json_line(no, line)
        if not isinstance(obj, dict):
            raise ValueError(f"line {no}: event must be a JSON object")
        where = f"line {no}"
        stage, spec = _require_int(obj, "stage", where), _parse_spec(obj, where)
        payload = [_LOAD.get(key, _same)(_require_str(obj, key, where)) for key in payload_keys]
        events.append(event_cls(stage, spec, *payload))
    if cls is SetFamilyPresentation:
        universe = header.get("universe")
        if not isinstance(universe, list) or not all(isinstance(u, str) for u in universe):
            raise ValueError("header: 'universe' must be a list of strings")
        fields = {"k": _require_int(header, "k", "header"), "universe": tuple(universe)}
    elif cls is SemimeasureFamilyPresentation:
        fields = {"tree": header.get("tree", False)}
        if not isinstance(fields["tree"], bool):
            raise ValueError("header: 'tree' must be a boolean")
    else:
        granularity = header.get("granularity")
        if granularity is not None:
            if not isinstance(granularity, list) or not all(
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
                for pair in granularity
            ):
                raise ValueError("header: 'granularity' must be a list of [n, c] pairs")
            granularity = tuple((n, c) for n, c in granularity)
        fields = {
            "epsilon": parse_fraction(_require_str(header, "epsilon", "header")),
            "granularity": granularity,
        }
    return cls(events=tuple(events), **fields)


def _fields(obj: Any, keys: tuple[str, ...]) -> dict:
    return {key: _DUMP.get(key, _same)(getattr(obj, key)) for key in keys}


def dump_presentation(p: Presentation) -> str:
    kind = _KIND_OF.get(type(p))
    if kind is None:
        raise TypeError(f"not a presentation: {type(p).__name__}")
    _, header_keys, _, payload_keys = _EVENT_LOGS[kind]
    lines = [_one_line({"type": kind, **_fields(p, header_keys)})]
    lines.extend(
        _one_line(
            {"stage": ev.stage, "kind": ev.spec.kind, "index": ev.spec.index,
             **_fields(ev, payload_keys)}
        )
        for ev in p.events
    )
    return "\n".join(lines) + "\n"


def clopen_to_json(s: ClopenSet) -> list[str]:
    return list(s.intervals)


def _region(s: ClopenSet) -> dict:
    return {"intervals": clopen_to_json(s), "measure": format_fraction(s.measure())}


def _values(values: dict[str, Fraction]) -> dict[str, str]:
    return {u: format_fraction(v) for u, v in sorted(values.items())}


def report_to_json(report: ValidationReport) -> dict:
    return {"valid": report.ok, "problems": list(report.problems)}


def liminf_to_json(p: Presentation, member) -> dict:
    if isinstance(p, SetFamilyPresentation):
        return {"type": "set-family", "elements": sorted(member)}
    if isinstance(p, SemimeasureFamilyPresentation):
        return {"type": "semimeasure-family", "values": _values(member)}
    return {"type": "open-family", **_region(member)}


def cover_set_to_json(cover: CoverSet, k: int) -> dict:
    return {
        "k": k,
        "elements": sorted(cover.elements),
        "acceptedOps": [[n, u] for n, u in cover.accepted_ops],
    }


def cover_semimeasure_to_json(cover: CoverSemimeasure) -> dict:
    return {
        "tree": cover.tree,
        "values": _values(cover.values),
        "totalMass": format_fraction(cover.total_mass()),
        "acceptedOps": [[format_fraction(r), n, u] for r, n, u in cover.accepted_ops],
    }


def cover_open_to_json(cover: CoverOpenSet) -> dict:
    payload = {**_region(cover.region), "acceptedOps": [[x, n] for x, n in cover.accepted_ops]}
    if cover.slack_report is not None:
        payload["slack"] = [[i, format_fraction(b)] for i, b in cover.slack_report]
    return payload


def decomposition_to_json(parts: list[ClopenSet]) -> dict:
    return {"parts": [{"index": i, **_region(part)} for i, part in enumerate(parts)]}


def parse_forcing_instance(text: str) -> ForcingInstance:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("forcing instance must be a JSON object")
    initial = obj.get("initialU")
    if not isinstance(initial, list):
        raise ValueError("forcing instance needs 'initialU': a list of intervals")
    queries_json = obj.get("queries", [])
    if not isinstance(queries_json, list):
        raise ValueError("'queries' must be a list")
    queries = []
    for i, q in enumerate(queries_json):
        if not isinstance(q, dict):
            raise ValueError(f"query #{i} must be an object")
        label = q.get("label", f"query-{i}")
        if not isinstance(label, str):
            raise ValueError(f"query #{i}: label must be a string")
        intervals = q.get("intervals")
        if not isinstance(intervals, list):
            raise ValueError(f"query #{i} needs 'intervals': a list of bit strings")
        queries.append((label, normalize(intervals)))
    return ForcingInstance(initial_u=normalize(initial), queries=tuple(queries))


def forcing_outcome_to_json(outcome: ForcingOutcome) -> dict:
    return {
        "answers": [[label, verdict] for label, verdict in outcome.answers],
        "finalU": clopen_to_json(outcome.final_u),
        "witness": outcome.witness_prefix,
    }


def parse_trace(text: str) -> PartialTrace:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("trace must be a JSON object with 'prefix' and 'period'")
    prefix = obj.get("prefix", [])
    period = obj.get("period")
    if not isinstance(prefix, list) or not isinstance(period, list):
        raise ValueError("trace needs list fields 'prefix' and 'period'")
    return PartialTrace(prefix=tuple(prefix), period=tuple(period))


_EMPTY_BITS = "-"


def parse_complexity_table(text: str) -> ComplexityTable:
    """Table files: JSON form, or lines "bits condition value" ('-' = empty).

    The line form may open with "mode plain" or "mode conditional"
    (conditional is the default).
    """
    body = text.lstrip()
    if body.startswith(("{", "[")):
        obj = json.loads(body)
        if not isinstance(obj, dict):
            raise ValueError("table JSON must be an object with an 'entries' list")
        mode = obj.get("conditionMode", "conditional")
        raw = obj.get("entries")
        if mode not in ("conditional", "plain") or not isinstance(raw, list):
            raise ValueError("table JSON needs 'conditionMode' and an 'entries' list")
        entries = {}
        for row in raw:
            # exact types: json.loads makes no subclasses, and bool is excluded
            if not (
                type(row) is list
                and len(row) == 3
                and type(row[0]) is str
                and type(row[1]) is int
                and type(row[2]) is int
            ):
                raise ValueError(f"bad table entry {row!r}")
            entries[(row[0], row[1])] = row[2]
        return ComplexityTable(entries=entries, mode=mode)
    mode = "conditional"
    entries = {}
    for no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "mode":
            if len(fields) != 2 or fields[1] not in ("conditional", "plain"):
                raise ValueError(f"line {no}: mode must be conditional or plain")
            mode = fields[1]
            continue
        if len(fields) != 3:
            raise ValueError(f"line {no}: expected 'bits condition value'")
        bits, cond_text, value_text = fields
        bits = "" if bits == _EMPTY_BITS else bits
        try:
            cond, value = int(cond_text), int(value_text)
        except ValueError:
            raise ValueError(f"line {no}: condition and value must be integers") from None
        entries[(bits, cond)] = value
    return ComplexityTable(entries=entries, mode=mode)


def complexity_table_to_json(t: ComplexityTable) -> dict:
    rows = sorted(
        ([bits, cond, value] for (bits, cond), value in t.entries.items()),
        key=lambda row: (row[1], len(row[0]), row[0]),
    )
    return {"conditionMode": t.mode, "entries": rows}


def deficiency_report_to_json(report: DeficiencyReport) -> dict:
    return {
        "horizon": report.horizon,
        "c": report.c,
        "perPrefix": [[x, d, dbar] for x, d, dbar in report.per_prefix],
    }


def randomness_report_to_json(report: RandomnessReport) -> dict:
    return {
        "c": report.c,
        "qualifying": list(report.qualifying),
        "count": report.count,
        "largest": report.largest,
    }


def frequencies_to_json(table: dict[int, Fraction]) -> dict:
    return {"frequencies": {str(x): format_fraction(v) for x, v in sorted(table.items())}}


def bounds_to_json(bounds: dict[str, int]) -> dict:
    return {"bounds": {u: v for u, v in sorted(bounds.items(), key=lambda kv: (len(kv[0]), kv[0]))}}


# The CSV writers render the rows of the matching JSON payload, in its order.
def _csv(header: tuple[str, ...], rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def complexity_table_to_csv(payload: dict) -> str:
    rows = ([bits or _EMPTY_BITS, cond, value] for bits, cond, value in payload["entries"])
    return _csv(("bits", "condition", "value"), rows)


def deficiency_report_to_csv(payload: dict) -> str:
    return _csv(("prefix", "d", "dbar"), payload["perPrefix"])


def randomness_report_to_csv(payload: dict) -> str:
    return _csv(("n",), ([n] for n in payload["qualifying"]))


def frequencies_to_csv(payload: dict) -> str:
    return _csv(("value", "frequency"), payload["frequencies"].items())

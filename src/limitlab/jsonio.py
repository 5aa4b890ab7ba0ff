"""File formats: event logs, instance files, tables, result artifacts.

Presentations travel as line-oriented JSON event logs: a header line naming
the family kind and its parameters, then one event per line with fields
``stage``, ``kind`` (single/tail), ``index`` and the payload (``element``,
``element``+``value`` or ``interval``).  Rationals are always the exact text
"num/den"; no floats are read or written anywhere.  Every input object is
closed: a key its format does not list is refused, naming the key.

Emitted artifacts are deterministic: keys sorted, fixed indentation, one
trailing newline, so identical inputs produce byte-identical outputs.  Their
text is exactly ``json.dumps(payload, sort_keys=True, indent=2) + "\n"``
(every key is a ``str``; any other key raises ``TypeError``), but ``indent``
would make CPython fall back to its pure-Python encoder.  So one walker,
:func:`_pieces`, goes through dicts and other arrays item by item and hands
lists and tuples of scalars to one call each of the C encoder with the item separator
``"\n"``, then re-indents that text with ``str.replace``.  This is exact
because the C encoder escapes every newline inside a string (``ensure_ascii``
text holds no raw control character), so each ``"\n"`` in its output is an
item separator.  A list of rows thus goes item by item, one C call per row.

The long row logs, the ``complexity`` table's ``entries`` and the covers'
``acceptedOps``, are never built as rows: their payloads hold a
:class:`Runs` list, each run a row template and the columns that fill it
(a block of the table's strings, or a segment's range of thresholds).
:func:`artifact_pieces` writes one repeat of a run's rows once, its literals
as the C encoder writes them, and fills the slots with
``encode_basestring_ascii`` text for strings and ``format`` text for ints.
Each piece is one C join that interleaves the texts of that repeat, each
repeated, with the slot texts of a chunk of the columns, whatever the number
of slots; no text is read as a template.  A piece holds at most
``_CHUNK`` rows of one run (or one repeat), so a log of 10^6 thresholds never
exists as one list or one string, and the command line writes the pieces as
they come.  The CSV writer of the table fills the same runs.
"""

from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .cantor import ClopenSet, _TooManyDigits, _digit_limit, _echo, _not_bits, format_fraction
from .cantor import normalize, parse_fraction, parse_int
from .covers import CoverOpenSet, CoverSemimeasure, CoverSet
from .families import (
    EVENT_CLASS,
    IndexSpec,
    OpenFamilyPresentation,
    Presentation,
    SemimeasureFamilyPresentation,
    SetFamilyPresentation,
    ValidationReport,
    _same,
)

if TYPE_CHECKING:  # annotations only: each parser imports the record it builds as it runs
    from .complexity import ComplexityTable, DeficiencyReport, RandomnessReport
    from .freq import PartialTrace
    from .lowbasis import ForcingInstance, ForcingOutcome


# items separated by a bare newline; given scalars and lists and tuples of scalars only,
# picked by exact type (subclasses, such as records, take the walk)
_encode = json.JSONEncoder(separators=("\n", ":")).encode
_SCALARS = {str, int, bool, type(None)}
_CHUNK = 1 << 14  # rows per written piece, unless one repeat of a run holds more


class _Slot(int):
    """In the rows of a run, the place that column ``int(self)`` of the run fills."""


_FIRST, _SECOND = _Slot(0), _Slot(1)


class Runs:
    """A list of rows held as runs, which the writers fill without building the rows.

    Each run is ``(rows, columns)``: ``rows`` are rows of scalars in which a
    ``_Slot`` marks a place filled from a column, and ``columns`` are
    sequences of equal length, each only of ``str`` or only of ``int``.  The
    run stands for its ``rows`` filled from the first value of every column,
    then from the second, and so on.
    """

    __slots__ = ("runs",)

    def __init__(self, runs):
        self.runs = tuple(runs)


def dumps_artifact(payload: Any) -> str:
    return "".join(artifact_pieces(payload))


def artifact_pieces(payload: Any) -> Iterator[str]:
    """The text of :func:`dumps_artifact`, in pieces: a :class:`Runs` value
    comes run by run, at most ``_CHUNK`` rows (or one repeat) per piece."""
    yield from _pieces(payload, "")
    yield "\n"


def _pieces(value: Any, pad: str) -> Iterator[str]:
    """``value`` as ``json.dumps(sort_keys=True, indent=2)`` writes it at
    indentation ``pad``, in pieces: the one walker of an artifact.  Lists and
    tuples of scalars are one C call each, so records go in as they are."""
    if type(value) is Runs:
        yield from _json_runs(value.runs, pad)
    elif not value or not isinstance(value, (dict, list, tuple)):
        yield _encode(value)  # a scalar, or an empty list or dict
    elif isinstance(value, dict):
        if set(map(type, value)) != {str}:
            raise TypeError("artifact keys must be strings")
        inner, sep = pad + "  ", "{\n"
        for key in sorted(value):
            yield f"{sep}{inner}{_encode(key)}: "
            yield from _pieces(value[key], inner)
            sep = ",\n"
        yield f"\n{pad}}}"
    elif set(map(type, value)) <= _SCALARS:
        inner = pad + "  "
        body = _encode(value)[1:-1].replace("\n", ",\n" + inner)
        yield f"[\n{inner}{body}\n{pad}]"
    else:
        inner, sep = pad + "  ", "[\n"
        for item in value:
            yield sep + inner
            yield from _pieces(item, inner)
            sep = ",\n"
        yield f"\n{pad}]"


def _json_runs(runs: tuple, pad: str) -> Iterable[str]:
    """A :class:`Runs` list as :func:`_pieces` writes the list of its rows."""
    if not any(rows and len(columns[0]) for rows, columns in runs):
        return ("[]",)
    inner, item = pad + "  ", pad + "    "
    head, between, tail = f"{inner}[\n{item}", f",\n{item}", f"\n{inner}]"
    template = lambda rows: _template(rows, head, between, tail, ",\n", _json_literal)  # noqa: E731
    pieces = _run_pieces(runs, template, ",\n", encode_basestring_ascii)
    return chain(("[\n",), pieces, (f"\n{pad}]",))


# a scalar's text in a run's rows is the C encoder's, taken directly for str and int
_LITERALS = {str: encode_basestring_ascii, int: int.__repr__}


def _json_literal(value: Any) -> str:
    return _LITERALS.get(type(value), _encode)(value)


def _template(rows, head: str, between: str, tail: str, sep: str, literal) -> list:
    """One repeat of a run's ``rows``, each written ``head``, its items
    ``between`` each other, ``tail``, and ``sep`` between rows: texts at even
    positions, with the column number of each slot between them."""
    parts, text = [], ""
    for i, row in enumerate(rows):
        text += sep + head if i else head
        for j, value in enumerate(row):
            if j:
                text += between
            if type(value) is _Slot:
                parts += (text, int(value))
                text = ""
            else:
                text += literal(value)
        text += tail
    parts.append(text)
    return parts


def _texts(column, quote) -> Iterator[str]:
    """A column's slot texts: ``quote``d strings or decimal ints, never a bool."""
    kinds = {int} if type(column) is range else set(map(type, column))
    if kinds == {str}:
        return map(quote, column)
    if kinds == {int}:
        return map(format, column)
    raise TypeError(f"a run column must hold only str or only int, not {kinds}")


def _run_pieces(runs: Iterable, template, sep: str, quote) -> Iterator[str]:
    """The rows of ``runs``, ``sep`` between rows, each run in pieces of at most
    ``_CHUNK`` rows (or one repeat, when it holds more); none when there is no row.

    ``template(rows)`` gives the texts of one repeat with the column number of
    each slot between them.  A piece is one C join over a ``zip`` of those
    texts, each ``repeat``ed, and of the current chunk of each slot's column
    texts (a list, since several slots may name one column).  Its first
    stream, the repeat's first text, bounds the zip at the chunk's length and
    carries ``sep`` before every repeat but the very first.
    """
    lead = ""  # sep once a row is written
    for rows, columns in runs:
        if not (rows and len(columns[0])):
            continue
        first, *parts = template(rows)
        texts = [_texts(column, quote) for column in columns]
        step = max(1, _CHUNK // len(rows))
        for _ in range(0, len(columns[0]), step):
            chunk = [list(islice(values, step)) for values in texts]
            heads = chain((lead + first,), repeat(sep + first, len(chunk[0]) - 1))
            fills = (repeat(part) if i % 2 else chunk[part] for i, part in enumerate(parts))
            yield "".join(chain.from_iterable(zip(heads, *fills)))
            lead = sep


def _parse_spec(obj: dict, where: str) -> IndexSpec:
    kind = obj.get("kind")
    if kind not in ("single", "tail"):
        raise ValueError(f"{where}: index spec needs kind single|tail and a natural index")
    return IndexSpec(kind, _field(obj, "index", where, int))


def _field(obj: dict, key: str, where: str, kind: type) -> Any:
    """``obj[key]``, refused by name unless it is a ``kind``, ``str`` or ``int``: the
    exact type, as ``json.loads`` makes no subclasses and a bool is no int."""
    value = obj.get(key)
    if type(value) is not kind:
        shown = "integer" if kind is int else "string"
        raise ValueError(f"{where}: missing or non-{shown} field {_echo(key)}")
    return value


def _object(value: Any, where: str, known: frozenset, refusal: str) -> dict:
    """``value`` as a closed input object: ``refusal`` unless it is a dict, and
    a key outside ``known`` refused by name, since a misspelt field would
    change what the input means."""
    if not isinstance(value, dict):
        raise ValueError(refusal)
    if not known.issuperset(value):
        key = next(key for key in value if key not in known)
        raise ValueError(f"{where}: unknown field {_echo(key)}")
    return value


# The event-log format per header type: presentation class, header keys and
# event payload keys (its event class is families.EVENT_CLASS's).  Every line
# also carries "stage", "kind" and "index"; every payload field is a string.
_EVENT_LOGS = {
    "set-family": (SetFamilyPresentation, ("k", "universe"), ("element",)),
    "semimeasure-family": (SemimeasureFamilyPresentation, ("tree",), ("element", "value")),
    "open-family": (OpenFamilyPresentation, ("epsilon", "granularity"), ("interval",)),
}
_KIND_OF = {cls: kind for kind, (cls, *_) in _EVENT_LOGS.items()}
# fields whose log form differs from their record value, both ways
_DUMP = {"epsilon": format_fraction, "value": format_fraction}
_LOAD = {"value": parse_fraction}


def _loads(text: str, where: str) -> Any:
    """``json.loads``; text it cannot read is a ValueError naming ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{where}: JSON nested too deeply") from None
    except ValueError:  # the only other: an int literal longer than the interpreter converts
        raise ValueError(
            f"{where}: an integer literal has more digits than {_digit_limit()}") from None


def parse_presentation(text: str) -> Presentation:
    """Parse a line-oriented event log into the presentation it describes."""
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line]
    if not lines:
        raise ValueError("empty event log: a header line is required")
    no, head_text = lines[0]
    header = _loads(head_text, f"line {no}")
    refusal = f"line {no}: header must be an object with a 'type' field"
    if not isinstance(header, dict) or "type" not in header:
        raise ValueError(refusal)
    kind = header["type"]
    if not isinstance(kind, str) or kind not in _EVENT_LOGS:
        raise ValueError(f"unknown presentation type {_echo(kind)}")
    cls, header_keys, payload_keys = _EVENT_LOGS[kind]
    event_cls = EVENT_CLASS[cls]
    _object(header, f"line {no}", frozenset(("type", *header_keys)), refusal)
    event_keys = frozenset(("stage", "kind", "index", *payload_keys))
    events = []
    for no, line in lines[1:]:
        where = f"line {no}"
        refusal = f"{where}: event must be a JSON object"
        obj = _object(_loads(line, where), where, event_keys, refusal)
        stage, spec = _field(obj, "stage", where, int), _parse_spec(obj, where)
        payload = [_LOAD.get(key, _same)(_field(obj, key, where, str)) for key in payload_keys]
        events.append(event_cls(stage, spec, *payload))
    if cls is SetFamilyPresentation:
        universe = header.get("universe")
        if not isinstance(universe, list) or not all(isinstance(u, str) for u in universe):
            raise ValueError("header: 'universe' must be a list of strings")
        fields = {"k": _field(header, "k", "header", int), "universe": tuple(universe)}
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
            "epsilon": parse_fraction(_field(header, "epsilon", "header", str)),
            "granularity": granularity,
        }
    return cls(events=tuple(events), **fields)


def _fields(obj: Any, keys: tuple[str, ...]) -> dict:
    return {key: _DUMP.get(key, _same)(getattr(obj, key)) for key in keys}


def dump_presentation(p: Presentation) -> str:
    kind = _KIND_OF.get(type(p))
    if kind is None:
        raise TypeError(f"not a presentation: {type(p).__name__}")
    _, header_keys, payload_keys = _EVENT_LOGS[kind]
    lines = [{"type": kind, **_fields(p, header_keys)}]
    lines.extend(
        {"stage": ev.stage, "kind": ev.spec.kind, "index": ev.spec.index,
         **_fields(ev, payload_keys)}
        for ev in p.events
    )
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def _region(s: ClopenSet) -> dict:
    return {"intervals": s.intervals, "measure": format_fraction(s.measure())}


def _values(values: dict[str, Fraction]) -> dict[str, str]:
    return {u: format_fraction(v) for u, v in values.items()}


def report_to_json(report: ValidationReport) -> dict:
    return {"valid": report.ok, "problems": report.problems}


def liminf_to_json(p: Presentation, member) -> dict:
    if isinstance(p, SetFamilyPresentation):
        body = {"elements": sorted(member)}
    elif isinstance(p, SemimeasureFamilyPresentation):
        body = {"values": _values(member)}
    else:
        body = _region(member)
    return {"type": _KIND_OF[type(p)], **body}


def _threshold_runs(runs: tuple, row) -> Runs:
    """A cover's log from its runs ``(start, end, ops)``: ``row(op)`` for each
    op, with the threshold in ``_FIRST``, filled from ``range(start, end)``."""
    return Runs((tuple(map(row, ops)), (range(start, end),)) for start, end, ops in runs)


def cover_set_to_json(cover: CoverSet, k: int) -> dict:
    return {
        "k": k,
        "elements": sorted(cover.elements),
        "acceptedOps": _threshold_runs(cover.runs, lambda u: (_FIRST, u)),
    }


def cover_semimeasure_to_json(cover: CoverSemimeasure) -> dict:
    # each run's ops are formatted once
    return {
        "tree": cover.tree,
        "values": _values(cover.values),
        "totalMass": format_fraction(cover.total_mass()),
        "acceptedOps": _threshold_runs(
            cover.runs, lambda op: (format_fraction(op[0]), _FIRST, op[1])),
    }


def cover_open_to_json(cover: CoverOpenSet) -> dict:
    payload = {**_region(cover.region), "acceptedOps": _threshold_runs(
        cover.runs, lambda x: (x, _FIRST))}
    if cover.slack_report is not None:
        payload["slack"] = [[i, format_fraction(b)] for i, b in cover.slack_report]
    return payload


def decomposition_to_json(parts: list[ClopenSet]) -> dict:
    return {"parts": [{"index": i, **_region(part)} for i, part in enumerate(parts)]}


def parse_forcing_instance(text: str) -> ForcingInstance:
    from .lowbasis import ForcingInstance
    obj = _object(_loads(text, "forcing instance"), "forcing instance",
                  frozenset(("initialU", "queries")), "forcing instance must be a JSON object")
    initial = obj.get("initialU")
    if not isinstance(initial, list):
        raise ValueError("forcing instance needs 'initialU': a list of intervals")
    queries_json = obj.get("queries", [])
    if not isinstance(queries_json, list):
        raise ValueError("'queries' must be a list")
    queries, query_keys = [], frozenset(("label", "intervals"))
    for i, q in enumerate(queries_json):
        q = _object(q, f"query #{i}", query_keys, f"query #{i} must be an object")
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
        "answers": outcome.answers,
        "finalU": outcome.final_u.intervals,
        "witness": outcome.witness_prefix,
    }


def parse_trace(text: str) -> PartialTrace:
    from .freq import PartialTrace
    obj = _object(_loads(text, "trace"), "trace", frozenset(("prefix", "period")),
                  "trace must be a JSON object with 'prefix' and 'period'")
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
    from .complexity import MODES, ComplexityTable
    body = text.lstrip()
    if body.startswith(("{", "[")):
        obj = _object(_loads(body, "table"), "table", frozenset(("conditionMode", "entries")),
                      "table JSON must be an object with an 'entries' list")
        mode = obj.get("conditionMode", "conditional")
        raw = obj.get("entries")
        if mode not in MODES or not isinstance(raw, list):
            raise ValueError("table JSON needs 'conditionMode' and an 'entries' list")
        by_condition = defaultdict(dict)
        for row in raw:
            # a row that is not a list of three unpacks wrongly or into a str
            # (a string's characters, an object's keys) where an int belongs;
            # exact types: json.loads makes no subclasses, and bool is excluded
            try:
                bits, cond, value = row
                if type(bits) is not str or type(cond) is not int or type(value) is not int:
                    raise TypeError
            except (TypeError, ValueError):
                raise ValueError(f"bad table entry {_echo(row)}") from None
            by_condition[cond][bits] = value
        # one C-level pass over every string: deleting the bits leaves nothing
        if "".join(chain.from_iterable(by_condition.values())).encode().translate(None, b"01"):
            i = next(i for i, row in enumerate(raw) if row[0].strip("01"))
            raise ValueError(f"table entry #{i}: {_not_bits(raw[i][0])}")
        # a pair given twice: name its second entry
        if sum(map(len, by_condition.values())) < len(raw):
            first: dict = {}
            i = next(i for i, row in enumerate(raw) if first.setdefault(tuple(row[:2]), i) != i)
            bits, cond, _ = raw[i]
            raise ValueError(f"table entry #{i} repeats bits {_echo(bits)} under condition {cond}")
        return ComplexityTable(by_condition=dict(by_condition), mode=mode)
    mode = "conditional"
    by_condition = {}
    for no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "mode":
            if len(fields) != 2 or fields[1] not in MODES:
                raise ValueError(f"line {no}: mode must be conditional or plain")
            mode = fields[1]
            continue
        if len(fields) != 3:
            raise ValueError(f"line {no}: expected 'bits condition value'")
        bits, cond_text, value_text = fields
        bits = "" if bits == _EMPTY_BITS else bits
        if bits.strip("01"):
            raise ValueError(f"line {no}: {_not_bits(bits)}")
        try:
            cond, value = parse_int(cond_text), parse_int(value_text)
        except _TooManyDigits as exc:
            raise ValueError(f"line {no}: {exc}") from None
        except ValueError:
            raise ValueError(f"line {no}: condition and value must be integers") from None
        strings = by_condition.setdefault(cond, {})
        if bits in strings:
            raise ValueError(f"line {no}: repeats bits {_echo(bits)} under condition {cond}")
        strings[bits] = value
    return ComplexityTable(by_condition=by_condition, mode=mode)


def complexity_blocks_to_json(groups: list[tuple]) -> dict:
    """The table of ``complexity.complexity_blocks`` as runs.

    A group of several conditions has one value per block, so it is one run
    filled from its range of conditions.  A single condition's block is one
    run, its strings in the first column (and its values in the second).
    """
    runs = []
    for conditions, blocks in groups:
        if len(conditions) > 1:
            rows = tuple((u, _FIRST, values) for strings, values in blocks for u in strings)
            runs.append((rows, (conditions,)))
            continue
        cond = conditions[0]
        runs.extend(
            (((_FIRST, cond, values),), (strings,)) if type(values) is int
            else (((_FIRST, cond, _SECOND),), (strings, values))
            for strings, values in blocks
        )
    return {"conditionMode": "conditional", "entries": Runs(runs)}


def deficiency_report_to_json(report: DeficiencyReport) -> dict:
    return {
        "horizon": report.horizon,
        "c": report.c,
        "perPrefix": report.per_prefix,
    }


def randomness_report_to_json(report: RandomnessReport) -> dict:
    return report._asdict()


def frequencies_to_json(table: dict[int, Fraction]) -> dict:
    return {"frequencies": {str(x): format_fraction(v) for x, v in sorted(table.items())}}


def bounds_to_json(bounds: dict[str, int]) -> dict:
    return {"bounds": bounds}


# The CSV writers render the rows of the matching JSON payload, in its order,
# as text pieces.
def _csv(header: tuple[str, ...], rows) -> list[str]:
    return [",".join(header) + "\n", "".join(",".join(map(format, row)) + "\n" for row in rows)]


def _csv_bits(column):
    if type(column) is list and "" in column:
        return [bits or _EMPTY_BITS for bits in column]
    return column


def _csv_literal(value: Any) -> str:
    return format(value) or _EMPTY_BITS


def complexity_table_to_csv(payload: dict) -> Iterable[str]:
    # a row's bits are its only string, written "-" when empty, in a run's rows or columns
    template = lambda rows: _template(rows, "", ",", "\n", "", _csv_literal)  # noqa: E731
    runs = ((rows, tuple(map(_csv_bits, columns))) for rows, columns in payload["entries"].runs)
    return chain(_csv(("bits", "condition", "value"), ()), _run_pieces(runs, template, "", str))


def deficiency_report_to_csv(payload: dict) -> list[str]:
    return _csv(("prefix", "d", "dbar"), payload["perPrefix"])


def randomness_report_to_csv(payload: dict) -> list[str]:
    return _csv(("n",), zip(payload["qualifying"]))


def frequencies_to_csv(payload: dict) -> list[str]:
    return _csv(("value", "frequency"), payload["frequencies"].items())

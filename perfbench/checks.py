"""Correctness checks on the artifacts of one pass.

``check_artifact`` raises ``CheckError`` when an artifact does not parse or
breaks the guarantee its command promises; otherwise it returns the counts
the benchmark derives from it (tentative operations tried and accepted by a
cover, entries of a complexity table).  Cover guarantees are checked against
the liminf recomputed from the input family (``family.py``):

* cover-sets: the liminf is contained and there are fewer than 2^k elements;
* cover-semimeasure / cover-tree: the liminf is dominated and the (tree)
  mass is at most 1;
* cover-open / cover-open-strong: the liminf is contained and the measure is
  at most epsilon / epsilon'.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

from family import breakpoints, liminf, read_log, tree_root, union_measure


class CheckError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _open_region(art: dict) -> list[str]:
    region = art["intervals"]
    _require(region == sorted(region), "intervals not sorted")
    _require(
        all(not b.startswith(a) for a, b in zip(region, region[1:])),
        "intervals not prefix-free",
    )
    _require(_frac(art["measure"]) == union_measure(region), "reported measure is wrong")
    return region


def _cover_open(art: dict, header: dict, events: list[dict], budget: Fraction) -> None:
    region = _open_region(art)
    mu = union_measure(region)
    _require(mu <= budget, f"measure {mu} exceeds the budget {budget}")
    _require(
        union_measure(region + liminf(header, events)) == mu, "liminf not contained in the cover"
    )


def _cover_semimeasure(art: dict, header: dict, events: list[dict], tree: bool) -> None:
    values = {u: _frac(v) for u, v in art["values"].items()}
    _require(art["tree"] is tree, "tree flag differs from the input")
    for u, v in liminf(header, events).items():
        _require(values.get(u, Fraction(0)) >= v, f"liminf value of {u!r} not dominated")
    mass = tree_root(values) if tree else sum(values.values(), Fraction(0))
    _require(mass <= 1, f"mass {mass} exceeds 1")


def check_artifact(path: Path, check: dict, resolve) -> dict:
    """Check one artifact; ``resolve`` maps a job path template to a Path."""
    try:
        return _check(path, check, resolve)
    except CheckError:
        raise
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError,
            ZeroDivisionError, csv.Error) as exc:
        raise CheckError(f"unreadable artifact: {type(exc).__name__}: {exc}") from None


def _check(path: Path, check: dict, resolve) -> dict:
    kind = check["kind"]
    if kind == "presentation":
        header, _ = read_log(path)
        _require(header["type"] == check["type"], f"expected a {check['type']} log")
        return {}
    if kind == "table-csv":
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == ["bits", "condition", "value"], "bad csv header")
        entries = len(rows) - 1
    else:
        art = json.loads(path.read_text(encoding="utf-8"))
        entries = len(art["entries"]) if kind == "table" else 0
    if kind in ("table", "table-csv"):
        # literal mode describes every string up to lmax under every condition
        expected = (check["nmax"] + 1) * (2 ** (check["lmax"] + 1) - 1)
        _require(entries == expected, f"{entries} table entries, expected {expected}")
        return {"table_entries": entries}
    if kind == "valid":
        _require(art == {"valid": True, "problems": []}, "family reported invalid")
        return {}
    if kind in ("bounds", "deficiency", "randomness"):
        if kind == "deficiency":
            _require(len(art["perPrefix"]) == len(check["omega"]) + 1, "wrong prefix count")
        if kind == "randomness":
            _require(art["count"] == len(art["qualifying"]), "count differs from the list")
        if kind == "bounds":
            _require(isinstance(art["bounds"], dict), "bounds must be an object")
        return {}
    if kind == "freq":
        trace = json.loads(resolve(check["trace"]).read_text(encoding="utf-8"))
        period = trace["period"]
        expected = {
            str(x): Fraction(period.count(x), len(period)) for x in set(period) if x is not None
        }
        got = {x: _frac(v) for x, v in art["frequencies"].items()}
        _require(got == expected, "limit frequencies differ from the trace's period shares")
        return {}
    if kind == "lowbasis":
        instance = json.loads(resolve(check["instance"]).read_text(encoding="utf-8"))
        _require(len(art["answers"]) == len(instance["queries"]), "not every query answered")
        witness = art["witness"]
        _require(
            not any(witness.startswith(x) or x.startswith(witness) for x in art["finalU"]),
            "witness meets the final U",
        )
        return {}

    header, events = read_log(resolve(check["family"]))
    last = breakpoints(events)[-1]
    if kind == "liminf":
        member = liminf(header, events)
        if header["type"] == "set-family":
            _require(set(art["elements"]) == member, "liminf elements differ")
        elif header["type"] == "semimeasure-family":
            got = {u: _frac(v) for u, v in art["values"].items()}
            _require(got == member, "liminf values differ")
        else:
            region = _open_region(art)
            _require(
                union_measure(region) == union_measure(member)
                == union_measure(region + member),
                "liminf region differs",
            )
        return {}
    if kind == "decompose":
        member = liminf(header, events)
        parts = [part["intervals"] for part in art["parts"]]
        mu = union_measure(member)
        _require(
            sum((union_measure(p) for p in parts), Fraction(0)) == mu
            == union_measure([x for p in parts for x in p] + member),
            "parts are not a disjoint decomposition of the liminf",
        )
        return {}
    accepted = len(art["acceptedOps"])
    if kind == "cover-open":
        _cover_open(art, header, events, Fraction(header["epsilon"]))
        tried = (last + 1) * (2 ** (check["lmax"] + 1) - 1)
    elif kind == "cover-open-strong":
        _cover_open(art, header, events, _frac(check["epsilon_prime"]))
        return {}
    elif kind == "cover-sets":
        elements = set(art["elements"])
        _require(len(elements) < 2 ** header["k"], "too many elements")
        _require(liminf(header, events) <= elements, "liminf not contained in the cover")
        tried = (last + 1) * len(header["universe"])
    elif kind in ("cover-semimeasure", "cover-tree"):
        _cover_semimeasure(art, header, events, kind == "cover-tree")
        grid = len(check["grid"].split(","))
        tried = (last + 1) * len({ev["element"] for ev in events}) * grid
    else:
        raise CheckError(f"no check for {kind!r}")
    return {"ops_tried": tried, "ops_accepted": accepted}

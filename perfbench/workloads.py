"""Seeded inputs and fixed job lists for the three benchmark workloads.

Each ``make_*`` function writes its inputs into a directory and returns the
jobs of one pass.  The shape of every input (event kinds and indices, string
lengths, values, which element an event names) is drawn from a random
generator with a fixed seed; ``--seed`` picks a relabelling of it (``Labels``):
a bit mask flipped into every binary string and a permutation of the trace
values.  Flipping the same positions of every string is an automorphism of
the binary tree, so measures, prefix structure, budgets and validity are
unchanged, and different seeds give different inputs of the same cost (up
to the order in which strings sort).  Validity of generated families is
checked here with code of the benchmark's own, so the inputs do not change
when the program does.

A job is a dict: ``id``, ``argv`` (a ``limitlab`` command line in which
``{in}`` and ``{out}`` stand for the input and artifact directories),
``artifact`` (the ``--output`` file) and ``check`` (what ``checks.py``
verifies in the artifact).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from family import breakpoints, member, tree_root, union_measure, value_table


def _bits(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


class Labels:
    """The seed's relabelling of a workload's inputs."""

    def __init__(self, rng: random.Random):
        self.mask = [rng.randint(0, 1) for _ in range(64)]
        self.values = list(range(5))
        rng.shuffle(self.values)

    def flip(self, u: str) -> str:
        return "".join("01"[int(b) ^ m] for b, m in zip(u, self.mask))


def _distinct_bits(rng: random.Random, count: int, lo: int, hi: int) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        u = _bits(rng, lo, hi)
        if u not in out:
            out.append(u)
    return out


def _frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _write_log(path: Path, header: dict, events: list[dict]) -> None:
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(ev, sort_keys=True) for ev in events)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _grow(rng: random.Random, count: int, propose, valid, first: list[dict]) -> list[dict]:
    """Append proposed events while every breakpoint stays within budget."""
    events = list(first)
    for _ in range(count * 20):
        if len(events) >= count:
            break
        trial = events + [dict(propose(), stage=len(events) // 3)]
        if all(valid(member(trial, n)) for n in breakpoints(trial)):
            events = trial
    return events


def _open_valid(epsilon: Fraction):
    return lambda events: union_measure(ev["interval"] for ev in events) <= epsilon


def _semimeasure_valid(tree: bool):
    def valid(events: list[dict]) -> bool:
        table = value_table(events)
        return (tree_root(table) if tree else sum(table.values(), Fraction(0))) <= 1

    return valid


def _job(job_id: str, argv: list[str], artifact: str, **check) -> dict:
    return {
        "id": job_id,
        "argv": argv + ["--output", "{out}/" + artifact],
        "artifact": artifact,
        "check": check,
    }


def _family_jobs(prefix: str, family: str) -> list[dict]:
    return [
        _job(f"{prefix}.validate", ["validate", "--input", family], f"{prefix}.validate.json",
             kind="valid"),
        _job(f"{prefix}.liminf", ["liminf", "--input", family], f"{prefix}.liminf.json",
             kind="liminf", family=family),
    ]


# --- open-cover --------------------------------------------------------------
# Why: inside the cover_open loop most time goes to clopen algebra on small
# sets (ClopenSet.union / _canon, measure, interval_overlap), which is where
# a faster clopen representation and incremental measures should show.  The
# deficiency-family pipeline gives structured families covered up to depth
# L; the random families give many overlapping intervals per index.

OPEN_LEVELS = (7, 8)  # complexity table / deficiency family / cover depth
RANDOM_OPEN_FAMILIES = 4
RANDOM_OPEN_LAST = 6  # last index (a tail event sits there)
RANDOM_OPEN_EVENTS = 16
RANDOM_OPEN_LMAX = 7


def make_open_cover(rng: random.Random, lab: Labels, indir: Path) -> list[dict]:
    jobs: list[dict] = []
    for level in OPEN_LEVELS:
        pre = f"oc.L{level}"
        table, fam = f"{{out}}/{pre}.table.json", f"{{out}}/{pre}.family.jsonl"
        jobs.append(_job(f"{pre}.complexity",
                         ["complexity", "--lmax", str(level), "--nmax", str(level)],
                         f"{pre}.table.json", kind="table", lmax=level, nmax=level))
        jobs.append(_job(f"{pre}.deficiency-family",
                         ["deficiency-family", "--input", table, "--c", "1", "--nmin", "2",
                          "--nmax", str(level)],
                         f"{pre}.family.jsonl", kind="presentation", type="open-family"))
        jobs.append(_job(f"{pre}.validate", ["validate", "--input", fam],
                         f"{pre}.validate.json", kind="valid"))
        jobs.append(_job(f"{pre}.cover-open",
                         ["cover-open", "--input", fam, "--lmax", str(level)],
                         f"{pre}.cover-open.json", kind="cover-open", family=fam, lmax=level))
        jobs.append(_job(f"{pre}.cover-open-strong",
                         ["cover-open-strong", "--input", fam, "--epsilon-prime", "3/4"],
                         f"{pre}.cover-open-strong.json", kind="cover-open-strong",
                         family=fam, epsilon_prime="3/4"))
        jobs.append(_job(f"{pre}.decompose", ["decompose", "--input", fam],
                         f"{pre}.decompose.json", kind="decompose", family=fam))
        jobs.append(_job(f"{pre}.complexity-bounds",
                         ["complexity-bounds", "--input", fam, "--c", "1"],
                         f"{pre}.bounds.json", kind="bounds"))
    epsilon = Fraction(1, 2)
    for i in range(RANDOM_OPEN_FAMILIES):
        name = f"random-open-{i}.jsonl"

        def propose():
            n = rng.randint(0, RANDOM_OPEN_LAST - 1)
            return {"kind": rng.choice(("single", "tail")), "index": n,
                    "interval": lab.flip(_bits(rng, 3, RANDOM_OPEN_LMAX))}

        last = {"stage": 0, "kind": "tail", "index": RANDOM_OPEN_LAST, "interval": lab.flip(_bits(rng, 3, 3))}
        events = _grow(rng, RANDOM_OPEN_EVENTS, propose,
                       _open_valid(epsilon), [last])
        _write_log(indir / name, {"type": "open-family", "epsilon": _frac(epsilon),
                                  "granularity": None}, events)
        fam = "{in}/" + name
        jobs.append(_job(f"oc.r{i}.cover-open",
                         ["cover-open", "--input", fam, "--lmax", str(RANDOM_OPEN_LMAX)],
                         f"oc.r{i}.cover-open.json", kind="cover-open", family=fam,
                         lmax=RANDOM_OPEN_LMAX))
    return jobs


# --- tail-index --------------------------------------------------------------
# Why: families with a few events at large indices.  The covers keep one
# working copy per index 0..nmax and families.family_at rescans the log for
# each, so cost grows with the index value, not with the number of
# breakpoints; segment-wise working copies should show here.  No clopen set
# is built, so this is the bypass case for clopen-algebra changes, and the
# acceptedOps logs (about 2*10^4 operations) keep jsonio writing.

SET_LAST = 1000
SET_K = 4
SET_UNIVERSE = 20
SET_EVENTS = 12
FLAT_LAST = 75
TREE_LAST = 45
SEMIMEASURE_ELEMENTS = 6
SEMIMEASURE_EVENTS = 10
SIXTEENTHS = [Fraction(i, 16) for i in range(17)]
TRACE_NMAX = 64
TRACE_PREFIX = 6
TRACE_PERIOD = 8


def _grid_arg() -> str:
    return ",".join(_frac(g) for g in SIXTEENTHS)


def make_tail_index(rng: random.Random, lab: Labels, indir: Path) -> list[dict]:
    jobs: list[dict] = []

    universe = [lab.flip(u) for u in _distinct_bits(rng, SET_UNIVERSE, 2, 8)]

    def propose_set():
        return {"kind": rng.choice(("single", "tail")),
                "index": rng.randint(100, SET_LAST - 1), "element": rng.choice(universe)}

    cap = 2**SET_K
    first = [{"stage": 0, "kind": "tail", "index": SET_LAST, "element": u}
             for u in rng.sample(universe, 3)]
    events = _grow(rng, SET_EVENTS, propose_set,
                   lambda member: len({ev["element"] for ev in member}) < cap, first)
    _write_log(indir / "sets.jsonl", {"type": "set-family", "k": SET_K, "universe": universe},
               events)
    fam = "{in}/sets.jsonl"
    jobs += _family_jobs("ti.sets", fam)
    jobs.append(_job("ti.sets.cover-sets", ["cover-sets", "--input", fam],
                     "ti.sets.cover.json", kind="cover-sets", family=fam))

    for name, tree, last in (("flat", False, FLAT_LAST), ("tree", True, TREE_LAST)):
        elements = [lab.flip(u) for u in _distinct_bits(rng, SEMIMEASURE_ELEMENTS, 1, 5)]

        def propose_value():
            return {"kind": rng.choice(("single", "tail")), "index": rng.randint(1, last - 1),
                    "element": rng.choice(elements),
                    "value": _frac(rng.choice(SIXTEENTHS[1:9]))}

        first = [{"stage": 0, "kind": "tail", "index": last, "element": elements[0],
                  "value": _frac(rng.choice(SIXTEENTHS[1:5]))}]
        events = _grow(rng, SEMIMEASURE_EVENTS, propose_value, _semimeasure_valid(tree), first)
        _write_log(indir / f"{name}.jsonl", {"type": "semimeasure-family", "tree": tree}, events)
        fam = "{in}/" + f"{name}.jsonl"
        command = "cover-tree" if tree else "cover-semimeasure"
        jobs += _family_jobs(f"ti.{name}", fam)
        jobs.append(_job(f"ti.{name}.{command}",
                         [command, "--input", fam, "--grid", _grid_arg()],
                         f"ti.{name}.cover.json", kind=command, family=fam,
                         grid=_grid_arg()))

    values = [None, *lab.values]
    trace = {"prefix": [rng.choice(values) for _ in range(TRACE_PREFIX)],
             "period": [rng.choice(values[1:])] + [rng.choice(values)
                                                   for _ in range(TRACE_PERIOD - 1)]}
    (indir / "trace.json").write_text(json.dumps(trace) + "\n", encoding="utf-8")
    jobs.append(_job("ti.trace.freq", ["freq", "--input", "{in}/trace.json"],
                     "ti.trace.freq.json", kind="freq", trace="{in}/trace.json"))
    fam = "{out}/ti.trace.family.jsonl"
    jobs.append(_job("ti.trace.trace-to-family",
                     ["trace-to-family", "--input", "{in}/trace.json", "--nmax",
                      str(TRACE_NMAX), "--grid", _grid_arg()],
                     "ti.trace.family.jsonl", kind="presentation", type="semimeasure-family"))
    jobs.append(_job("ti.trace.cover-semimeasure",
                     ["cover-semimeasure", "--input", fam, "--grid", _grid_arg()],
                     "ti.trace.cover.json", kind="cover-semimeasure", family=fam,
                     grid=_grid_arg()))
    return jobs


# --- bulk-artifacts ----------------------------------------------------------
# Why: M0 enumeration, multi-MB table files written and read back, and
# clopen algebra on sets of hundreds to a thousand intervals (a long
# open-family log, forcing queries with deep intervals).  No covers loop
# runs (decompose is left out, it lives in covers), so this is the bypass
# case for cover-loop changes, while cantor and jsonio are used in bulk.

BULK_LEVEL = 11
BULK_OMEGA = 11
FORCING_QUERIES = 80
FORCING_INTERVALS = 20
FORCING_DEPTH = (8, 20)
OPEN_LOG_EVENTS = 1200
OPEN_LOG_LAST = 300


def make_bulk_artifacts(rng: random.Random, lab: Labels, indir: Path) -> list[dict]:
    level = str(BULK_LEVEL)
    table = "{out}/ba.table.json"
    jobs = [
        _job("ba.complexity", ["complexity", "--lmax", level, "--nmax", level],
             "ba.table.json", kind="table", lmax=BULK_LEVEL, nmax=BULK_LEVEL),
        _job("ba.complexity-csv",
             ["complexity", "--lmax", level, "--nmax", level, "--format", "csv"],
             "ba.table.csv", kind="table-csv", lmax=BULK_LEVEL, nmax=BULK_LEVEL),
    ]
    omega = lab.flip(_bits(rng, BULK_OMEGA, BULK_OMEGA))
    jobs.append(_job("ba.deficiency",
                     ["deficiency", "--input", table, "--omega", omega, "--horizon", level,
                      "--c", "1"],
                     "ba.deficiency.json", kind="deficiency", omega=omega))
    jobs.append(_job("ba.randomness-report",
                     ["randomness-report", "--input", table, "--omega", omega, "--c", "1"],
                     "ba.randomness.json", kind="randomness", omega=omega))
    fam = "{out}/ba.family.jsonl"
    jobs.append(_job("ba.deficiency-family",
                     ["deficiency-family", "--input", table, "--c", "1", "--nmin", "2",
                      "--nmax", level],
                     "ba.family.jsonl", kind="presentation", type="open-family"))
    jobs.append(_job("ba.complexity-bounds", ["complexity-bounds", "--input", fam, "--c", "1"],
                     "ba.bounds.json", kind="bounds"))

    lo, hi = FORCING_DEPTH
    instance = {
        "initialU": [lab.flip(_bits(rng, 2, 4))],
        "queries": [{"label": f"q{i}",
                     "intervals": [lab.flip(_bits(rng, lo, hi))
                                   for _ in range(FORCING_INTERVALS)]}
                    for i in range(FORCING_QUERIES)],
    }
    (indir / "forcing.json").write_text(json.dumps(instance, indent=1) + "\n", encoding="utf-8")
    jobs.append(_job("ba.lowbasis",
                     ["lowbasis", "--input", "{in}/forcing.json", "--witness-length", str(hi)],
                     "ba.lowbasis.json", kind="lowbasis", instance="{in}/forcing.json"))

    # every interval extends one of eight depth-4 cells, so each member has
    # measure at most 1/2 and the log is valid by construction
    cells = rng.sample([format(i, "04b") for i in range(16)], 8)
    events = [{"stage": i // 8, "kind": rng.choice(("single", "tail")),
               "index": rng.randint(0, OPEN_LOG_LAST),
               "interval": lab.flip(rng.choice(cells) + _bits(rng, 2, 10))}
              for i in range(OPEN_LOG_EVENTS)]
    events[-1]["kind"], events[-1]["index"] = "tail", OPEN_LOG_LAST
    _write_log(indir / "openlog.jsonl",
               {"type": "open-family", "epsilon": "1/2", "granularity": None}, events)
    jobs += _family_jobs("ba.openlog", "{in}/openlog.jsonl")
    return jobs


WORKLOADS = {
    "open-cover": make_open_cover,
    "tail-index": make_tail_index,
    "bulk-artifacts": make_bulk_artifacts,
}


def make_inputs(workload: str, seed: int, indir: Path) -> list[dict]:
    """Write the workload's inputs for ``seed`` into ``indir``; return its jobs."""
    shape = random.Random(f"{workload}:shape")
    labels = Labels(random.Random(f"{workload}:{seed}"))
    return WORKLOADS[workload](shape, labels, indir)

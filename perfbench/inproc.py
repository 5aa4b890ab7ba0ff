"""Run a workload's jobs inside one process, untraced and traced in turn.

Usage: python3 perfbench/inproc.py --jobs JOBS.json --in DIR --out DIR
       --report REPORT.json --spans SPANS.json

Every job is ``limitlab.cli.main(argv)``.  Each of ROUNDS rounds runs every
job once plain (artifacts to ``OUT/plain``), then once traced (to
``OUT/traced``), so both kinds of pass share one process and one warm state
and ``trace.overhead_s`` can be the difference of their median wall times.
For a traced pass the public functions of the eight ``limitlab`` modules
are wrapped from here, with no change to the program, and unwrapped after
it: each wrapper is bound in every module namespace that imported the
function by name (``covers.family_at``, ``cli.validate``, ...), and
``ClopenSet`` methods are wrapped on the class.  A wrapped call records its
count and its self time, which excludes the time of wrapped calls made
inside it.  Calls outside ``cantor`` are kept as spans (name, start, end,
parent, job); ``cantor`` calls, which run millions of times, are only summed
into the span that made them.  The report holds every pass's wall time,
each job's exit code and the last traced pass's per-function totals; that
pass's spans go to their own file.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import traceback
from pathlib import Path

ROUNDS = 3

MODULES = ("cantor", "families", "covers", "complexity", "jsonio", "lowbasis", "freq", "cli")

CLOPEN_METHODS = (
    "union", "intersection", "difference", "complement", "measure", "interval_overlap",
    "leftmost_avoiding",
)

FUNCTIONS = {
    "cantor": ("normalize",),
    "families": ("family_at", "breakpoints", "validate", "liminf_family", "tree_closure"),
    "covers": ("cover_sets", "cover_semimeasure", "cover_open", "cover_open_strong",
               "decompose_liminf"),
    "complexity": ("complexity_table", "deficiency_report", "deficiency_family",
                   "randomness_report", "counting_violations", "cover_to_complexity_bounds"),
    "lowbasis": ("force",),
    "freq": ("limit_frequency", "trace_to_family"),
    "cli": ("main",),
}


def _jsonio_groups(jsonio) -> dict[str, str]:
    """jsonio functions by group: parse_* and the serializers."""
    groups = {}
    for name, value in vars(jsonio).items():
        if not callable(value) or getattr(value, "__module__", None) != jsonio.__name__:
            continue
        if name.startswith("parse_"):
            groups[name] = "jsonio.parse"
        elif name in ("dumps_artifact", "dump_presentation") or name.endswith(
            ("_to_json", "_to_csv")
        ):
            groups[name] = "jsonio.serialize"
    return groups


class Tracer:
    """Counts, self times and spans of wrapped calls in this process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds]
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[list] = []  # [child seconds, enclosing span]
        self._patched: list[tuple] = []  # (owner, name, original)

    def wrap(self, key: str, fn, hot: bool):
        stats = self.stats.setdefault(key, [0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                span = parent[1] if parent else None
            else:
                span = {"id": len(spans), "name": key, "job": self.job,
                        "parent": parent[1]["id"] if parent and parent[1] else None}
                spans.append(span)
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                own = total - frame[0]
                stats[0] += 1
                stats[1] += own
                if parent is not None:
                    parent[0] += total
                if not hot:
                    span.update(start=start, end=end, self_s=own)
                elif span is not None:
                    agg = span.setdefault("hot", {}).setdefault(key, [0, 0.0])
                    agg[0] += 1
                    agg[1] += own

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target; return the problems found (empty when all patched)."""
        mods = {name: importlib.import_module(f"limitlab.{name}") for name in MODULES}
        namespaces = [importlib.import_module("limitlab"), *mods.values()]

        def patch(key: str, original, hot: bool) -> None:
            wrapped = self.wrap(key, original, hot)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, name, original))
                        setattr(ns, name, wrapped)

        for module, names in FUNCTIONS.items():
            for name in names:
                patch(f"{module}.{name}", getattr(mods[module], name), module == "cantor")
        for name, group in _jsonio_groups(mods["jsonio"]).items():
            patch(group, getattr(mods["jsonio"], name), False)
        clopen = mods["cantor"].ClopenSet
        for name in CLOPEN_METHODS:
            original = vars(clopen)[name]
            self._patched.append((clopen, name, original))
            setattr(clopen, name, self.wrap(f"cantor.{name}", original, True))
        # bindings made by `from .x import y` that the pass goes through
        return [f"{ns}.{name} is not wrapped"
                for ns, name in (("covers", "family_at"), ("covers", "normalize"),
                                 ("complexity", "family_at"), ("cli", "validate"),
                                 ("cli", "cover_open"), ("jsonio", "normalize"))
                if not hasattr(getattr(mods[ns], name), "__wrapped__")]

    def uninstall(self) -> None:
        """Put every original back where install() found it."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()


def run_pass(cli, jobs: list[dict], indir: str, out: str, tracer=None) -> tuple[float, dict]:
    """Run every job once through cli.main; return the wall time and exit codes."""
    codes = {}
    start = time.perf_counter()
    for job in jobs:
        argv = [a.format(**{"in": indir, "out": out}) for a in job["argv"]]
        if tracer:
            tracer.job = job["id"]
        try:
            codes[job["id"]] = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            codes[job["id"]] = exc.code
        except Exception as exc:  # a crash fails this job, not the whole pass
            traceback.print_exc()
            codes[job["id"]] = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, codes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--in", dest="indir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    import limitlab.cli  # noqa: F401  (import cost stays out of the passes)

    jobs = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
    cli = sys.modules["limitlab.cli"]
    report = {"plain_s": [], "traced_s": [], "codes": {}, "problems": []}
    for kind in ("plain", "traced"):
        Path(args.out, kind).mkdir(parents=True, exist_ok=True)
    for _ in range(ROUNDS):
        wall, report["codes"]["plain"] = run_pass(cli, jobs, args.indir, f"{args.out}/plain")
        report["plain_s"].append(wall)
        tracer = Tracer()
        report["problems"] = tracer.install()
        try:
            wall, report["codes"]["traced"] = run_pass(
                cli, jobs, args.indir, f"{args.out}/traced", tracer)
        finally:
            tracer.uninstall()
        report["traced_s"].append(wall)
    # counts and self times are those of the last traced pass
    report["stats"] = {k: {"calls": c, "self_s": s} for k, (c, s) in tracer.stats.items()}
    report["spans"] = len(tracer.spans)
    Path(args.spans).write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    Path(args.report).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

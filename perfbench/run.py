"""limitlab benchmark: run a workload's CLI jobs, check them, report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload open-cover --seed 1 --seconds 30 --trace 0

``--workload`` is one of open-cover, tail-index, bulk-artifacts, or ``all``.
The program is run from ``src/`` of the checkout; nothing is installed.

A pass runs every job of the workload once, in order, each as its own
``python3 -m limitlab.cli`` child process (a closed loop with one client:
the next job starts when the previous one has exited).  Passes repeat until
``--seconds`` would be exceeded, and at least one runs.  Each child's CPU
time and peak RSS come from its own rusage (``os.wait4``), never from
RUSAGE_CHILDREN, which is a high-water mark over all children.  Every
artifact is checked (``checks.py``) and its sha256 recorded; a job fails on
an unexpected exit code, a missing or unreadable artifact, a broken
guarantee, or an artifact that differs from the first pass's.

Around every job run two more children: before it a start that only
imports ``limitlab.cli`` (the set-up time), after it ``reference.py``, a
fixed piece of pure-Python work that does not use the program.  On a
shared 2-core VM the speed of a pure-Python process was seen to drift by up
to a factor of two over minutes, and the jobs slow with it; so each job's
and each start's times are scaled by REFERENCE_S over the mean of the
reference runs just before and just after it.  A program change moves the job and not the
reference, so it moves the scaled time in full; drift moves both.  The
unscaled times stay in the results file.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics, all scaled:

* wall_s       median over passes of one pass's summed job wall time;
* cpu_s        the same for user+sys CPU of the pass's children;
* peak_rss_mb  median over passes of the largest peak RSS of one job;
* setup_s      median over all starts of a child that imports limitlab.cli.

With ``--trace 1`` it holds the per-layer metrics instead: before the
child-process passes, ``inproc.py`` runs the jobs inside one process,
untraced and traced in turn, and the last traced pass gives calls and self
time per wrapped function; the child-process passes give
``cli.<command>.wall_s`` and ``.peak_rss_mb``.

Inputs are generated from ``--seed`` before timing starts.  Work files go to
``perfbench/.work/``; the results file there lists every sample and every
artifact's sha256, so two commits can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import CheckError, check_artifact
from inproc import CLOPEN_METHODS, FUNCTIONS, MODULES
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 120
# seconds that one run of reference.py is taken to last: every time is
# reported as (measured time) * REFERENCE_S / (reference.py's time around it)
REFERENCE_S = 0.1
SETUP_ARGV = (sys.executable, "-c", "import limitlab.cli")
REFERENCE_ARGV = (sys.executable, str(HERE / "reference.py"))

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

COMMANDS = (
    "validate", "liminf", "cover-sets", "cover-semimeasure", "cover-tree", "cover-open",
    "cover-open-strong", "decompose", "lowbasis", "complexity", "deficiency",
    "deficiency-family", "complexity-bounds", "randomness-report", "freq", "trace-to-family",
)

# wrapped functions whose calls and self time are reported, by metric key
LAYER_KEYS = (
    tuple(f"cantor.{name}" for name in FUNCTIONS["cantor"] + CLOPEN_METHODS)
    + tuple(f"{module}.{name}" for module in ("families", "covers", "complexity")
            for name in FUNCTIONS[module])
    + ("jsonio.parse", "jsonio.serialize", "lowbasis.force", "freq.limit_frequency",
       "freq.trace_to_family", "cli.main")
)

# modules each workload must call (its main load) and must not call at all;
# a wrapper that silently failed to patch would show up here
MAIN_LOAD = {
    "open-cover": ("cantor", "families", "covers", "complexity", "jsonio", "cli"),
    "tail-index": ("families", "covers", "freq", "jsonio", "cli"),
    "bulk-artifacts": ("cantor", "families", "complexity", "jsonio", "lowbasis", "cli"),
}
IDLE = {"open-cover": (), "tail-index": ("cantor",), "bulk-artifacts": ("covers",)}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units of every metric reported with --trace 1."""
    names = []
    for key in LAYER_KEYS:
        names += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
    names += [(f"{module}.self_s", "s") for module in MODULES]
    names += [("covers.ops_tried", "count"), ("covers.ops_accepted", "count"),
              ("covers.accept_ratio", "ratio"), ("complexity.table_entries", "count"),
              ("jsonio.bytes_in", "B"), ("jsonio.bytes_out", "B")]
    for command in COMMANDS:
        names += [(f"cli.{command}.wall_s", "s"), (f"cli.{command}.peak_rss_mb", "MB")]
    names.append(("trace.overhead_s", "s"))
    return names


def _fill(template: str, dirs: dict) -> str:
    return template.format(**{"in": dirs["in"], "out": dirs["out"]})


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_child(argv, env: dict, err=subprocess.DEVNULL) -> dict:
    """Run one child to its end; exit code, wall time and its own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def run_reference(env: dict) -> dict:
    ref = run_child(REFERENCE_ARGV, env)
    if ref["code"] != 0:
        raise RuntimeError(f"reference.py exited with {ref['code']}")
    return ref


def run_job(job: dict, dirs: dict, env: dict, errlog: Path, before: dict) -> tuple[dict, dict]:
    """Start limitlab.cli once, run the job, then reference.py.

    The record keeps the raw times and the mean of the reference runs just
    before and just after, which scale it (``scaled``).  Returns the record
    and the reference run after it, which is the next job's ``before``.
    """
    setup = run_child(SETUP_ARGV, env)
    argv = [sys.executable, "-m", "limitlab.cli", *(_fill(a, dirs) for a in job["argv"])]
    with errlog.open("wb") as err:
        rec = run_child(argv, env, err)
    after = run_reference(env)
    rec.update(id=job["id"], command=job["argv"][0], setup_s=setup["wall_s"],
               setup_code=setup["code"], ref_wall_s=(before["wall_s"] + after["wall_s"]) / 2,
               ref_cpu_s=(before["cpu_s"] + after["cpu_s"]) / 2)
    return rec, after


def scaled(rec: dict, key: str) -> float:
    """A record's time at the reference speed (see REFERENCE_S)."""
    ref = rec["ref_cpu_s"] if key == "cpu_s" else rec["ref_wall_s"]
    return rec[key] * REFERENCE_S / ref


def check_pass(jobs: list[dict], records: list[dict], dirs: dict, first: dict) -> None:
    """Mark failed records; the first pass's artifacts get the full checks."""
    for job, rec in zip(jobs, records):
        if rec["setup_code"] != 0:
            rec["failure"] = f"import of limitlab.cli exited with {rec['setup_code']}"
            continue
        if rec["code"] != 0:
            rec["failure"] = f"exit code {rec['code']}"
            continue
        path = dirs["out"] / job["artifact"]
        try:
            rec["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            rec["failure"] = "no artifact"
            continue
        known = first.get(job["id"])
        if known is None:
            known = first[job["id"]] = {"sha256": rec["sha256"]}
            try:
                known["counts"] = check_artifact(
                    path, job["check"], lambda t: Path(_fill(t, dirs)))
            except CheckError as exc:
                known["failure"] = str(exc)
        if known["sha256"] != rec["sha256"]:
            rec["failure"] = "artifact differs from the first pass"
        elif "failure" in known:
            rec["failure"] = known["failure"]


def run_inproc(work: Path, dirs: dict, env: dict) -> dict:
    out = work / "inproc"
    report = work / "inproc.json"
    argv = [sys.executable, str(HERE / "inproc.py"), "--jobs", str(work / "jobs.json"),
            "--in", str(dirs["in"]), "--out", str(out), "--report", str(report),
            "--spans", str(work / "spans.json")]
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=JOB_TIMEOUT_S)
    result = json.loads(report.read_text(encoding="utf-8"))
    result["out"] = out
    return result


def inproc_failures(jobs: list[dict], result: dict, first: dict) -> list[str]:
    failures = []
    for kind, codes in result["codes"].items():
        for job in jobs:
            code = codes.get(job["id"])
            expected = first.get(job["id"], {}).get("sha256")
            path = result["out"] / kind / job["artifact"]
            if code != 0:
                failures.append(f"{job['id']}: {kind} in-process exit {code}")
            elif not path.is_file() or (
                hashlib.sha256(path.read_bytes()).hexdigest() != expected
            ):
                failures.append(f"{job['id']}: {kind} in-process artifact differs from the CLI's")
    return failures


def layer_metrics(workload: str, jobs: list[dict], passes: list[list[dict]], first: dict,
                  dirs: dict, traced: dict) -> tuple[dict, list[str]]:
    stats = traced["stats"]
    values: dict[str, float] = {}
    for key in LAYER_KEYS:
        entry = stats.get(key, {"calls": 0, "self_s": 0.0})
        values[f"{key}.calls"] = entry["calls"]
        values[f"{key}.self_s"] = entry["self_s"]
    calls = {}
    for module in MODULES:
        mine = [v for k, v in stats.items() if k.startswith(module + ".")]
        values[f"{module}.self_s"] = sum(v["self_s"] for v in mine)
        calls[module] = sum(v["calls"] for v in mine)
    counts = [first.get(job["id"], {}).get("counts", {}) for job in jobs]
    tried = sum(c.get("ops_tried", 0) for c in counts)
    accepted = sum(c.get("ops_accepted", 0) for c in counts)
    values["covers.ops_tried"] = tried
    values["covers.ops_accepted"] = accepted
    values["covers.accept_ratio"] = accepted / tried if tried else 0.0
    values["complexity.table_entries"] = sum(c.get("table_entries", 0) for c in counts)
    values["jsonio.bytes_in"] = sum(
        Path(_fill(job["argv"][job["argv"].index("--input") + 1], dirs)).stat().st_size
        for job in jobs if "--input" in job["argv"])
    values["jsonio.bytes_out"] = sum(
        (traced["out"] / "traced" / job["artifact"]).stat().st_size for job in jobs
        if (traced["out"] / "traced" / job["artifact"]).is_file())
    for command in COMMANDS:
        walls = [sum(scaled(r, "wall_s") for r in p if r["command"] == command)
                 for p in passes]
        peaks = [max((r["rss_mb"] for r in p if r["command"] == command), default=0.0)
                 for p in passes]
        values[f"cli.{command}.wall_s"] = statistics.median(walls)
        values[f"cli.{command}.peak_rss_mb"] = statistics.median(peaks)
    values["trace.overhead_s"] = (statistics.median(traced["traced_s"])
                                  - statistics.median(traced["plain_s"]))

    problems = list(traced["problems"])
    problems += [f"{m} made no calls on its main workload {workload}"
                 for m in MAIN_LOAD[workload] if not calls[m]]
    problems += [f"{m} made {calls[m]} calls on {workload}, where it must be idle"
                 for m in IDLE[workload] if calls[m]]
    return values, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / ".work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    dirs = {"in": work / "in", "out": work / "out"}
    for path in (*dirs.values(), work / "logs"):
        path.mkdir(parents=True)
    jobs = make_inputs(workload, seed, dirs["in"])
    (work / "jobs.json").write_text(json.dumps(jobs, indent=1) + "\n", encoding="utf-8")
    # bytecode caching on, as for an installed package; the cache stays in .work
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(work.parent / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    run_child(SETUP_ARGV, env)  # writes the bytecode caches
    start = time.perf_counter()
    traced = run_inproc(work, dirs, env) if trace else None
    passes: list[list[dict]] = []
    first: dict = {}
    ref = run_reference(env)
    while True:
        began = time.perf_counter()
        for stale in dirs["out"].iterdir():
            stale.unlink()
        records = []
        for job in jobs:
            rec, ref = run_job(job, dirs, env, work / "logs" / f"{job['id']}.stderr", ref)
            records.append(rec)
        check_pass(jobs, records, dirs, first)
        passes.append(records)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break

    attempted = sum(len(p) for p in passes)
    failures = [f"{r['id']}: {r['failure']}" for p in passes for r in p if "failure" in r]
    result = {"workload": workload, "seed": seed, "trace": trace, "passes": len(passes)}
    if trace:
        attempted += 2 * len(jobs)  # the last round's plain and traced passes
        failures += inproc_failures(jobs, traced, first)
        values, problems = layer_metrics(workload, jobs, passes, first, dirs, traced)
        units = dict(per_layer_metrics())
        result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
        result["self_checks"] = problems
        selfs = {m: values[f"{m}.self_s"] for m in MODULES}
        result["self_s_by_module"] = dict(sorted(selfs.items(), key=lambda kv: -kv[1]))
        result["spans"] = traced["spans"]
    else:
        problems = []
        samples = {
            "wall_s": [sum(scaled(r, "wall_s") for r in p) for p in passes],
            "cpu_s": [sum(scaled(r, "cpu_s") for r in p) for p in passes],
            "peak_rss_mb": [max(r["rss_mb"] for r in p) for p in passes],
            "setup_s": [scaled(r, "setup_s") for p in passes for r in p],
        }
        result["spread"] = {name: _spread(samples[name]) for name, _ in END_TO_END}
        result["unscaled"] = {
            "wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
            "setup_s": statistics.median(r["setup_s"] for p in passes for r in p),
            "reference_s": statistics.median(r["ref_wall_s"] for p in passes for r in p),
        }
        result["metrics"] = {name: {"value": result["spread"][name]["median"], "unit": unit}
                             for name, unit in END_TO_END}
    result.update(attempted=attempted, failed=len(failures), failures=failures[:50],
                  correct=not failures and not problems,
                  artifacts={job_id: entry["sha256"] for job_id, entry in first.items()},
                  jobs=[[{k: r[k] for k in ("id", "code", "wall_s", "cpu_s", "rss_mb", "setup_s",
                                             "ref_wall_s", "ref_cpu_s")}
                         for r in p] for p in passes])
    (work / "results.json").write_text(json.dumps(result, indent=1, default=str) + "\n",
                                       encoding="utf-8")
    for bulky in (dirs["out"], work / "inproc"):
        shutil.rmtree(bulky, ignore_errors=True)
    return result


def summary(result: dict) -> list[str]:
    share = result["failed"] / result["attempted"]
    lines = [f"{result['workload']}: seed {result['seed']}, {result['passes']} passes, "
             f"{result['attempted']} jobs, {result['failed']} failed "
             f"(failed_share {share:.4f}), correct={result['correct']}"]
    for name, spread in result.get("spread", {}).items():
        unit = result["metrics"][name]["unit"]
        lines.append(f"  {name:<12} {spread['median']:.4f} {unit}  "
                     f"(q1 {spread['q1']:.4f}, q3 {spread['q3']:.4f}, n={spread['n']})")
    if "unscaled" in result:
        raw = result["unscaled"]
        lines.append(f"  unscaled medians: pass {raw['wall_s']:.4f} s, setup {raw['setup_s']:.4f} s,"
                     f" reference.py {raw['reference_s']:.4f} s (scaled to {REFERENCE_S} s)")
    if result["trace"]:
        lines.append("  self time by module: " + ", ".join(
            f"{m} {s:.3f}s" for m, s in result["self_s_by_module"].items()))
        lines.append(f"  trace.overhead_s {result['metrics']['trace.overhead_s']['value']:.3f} s"
                     f", {result['spans']} spans")
        lines += [f"  self-check failed: {p}" for p in result["self_checks"]]
    lines += [f"  failed: {f}" for f in result["failures"][:10]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="limitlab benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "limitlab" / "cli.py").is_file():
        print(f"error: no limitlab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        print("\n".join(summary(result)))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

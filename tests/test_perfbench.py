import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import limitlab.covers
import limitlab.families
from limitlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
INPROC = PERFBENCH / "inproc.py"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_trace_finds_every_binding_it_checks():
    # the traced benchmark run rebinds names imported with `from .x import y`
    # and reports any it cannot find; a refactor that drops one fails here
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    tracer = inproc.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
    assert limitlab.covers.family_at is limitlab.families.family_at


def test_benchmark_artifacts_keep_their_bytes(tmp_path, monkeypatch):
    # every job of the three workloads at seed 1, run in order through cli.main;
    # the sha256 of each artifact was recorded before the writers changed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    want = json.loads((FIXTURES / "perfbench_sha256.json").read_text())
    got = {}
    for workload in workloads.WORKLOADS:
        dirs = {"in": tmp_path / workload / "in", "out": tmp_path / workload / "out"}
        for path in dirs.values():
            path.mkdir(parents=True)
        for job in workloads.make_inputs(workload, 1, dirs["in"]):
            argv = [arg.format(**dirs) for arg in job["argv"]]
            assert main(argv) == 0, job["id"]
            artifact = (dirs["out"] / job["artifact"]).read_bytes()
            got[job["id"]] = hashlib.sha256(artifact).hexdigest()
    assert len(got) == 39
    assert got == want

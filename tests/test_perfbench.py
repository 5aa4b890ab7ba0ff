import importlib.util
from pathlib import Path

import limitlab.covers
import limitlab.families

INPROC = Path(__file__).resolve().parent.parent / "perfbench" / "inproc.py"


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

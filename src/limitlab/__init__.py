"""limitlab: exact desk-scale constructions over staged families.

Everything is computed with exact rational arithmetic: clopen subsets of
Cantor space, staged presentations of set / semimeasure / open families and
their liminf, the acceptable-operation covering constructions, a tiny exact
complexity lab with randomness-deficiency analysis, a forcing simulator for
low witnesses, and limit frequencies of eventually periodic traces.

Presentations, events and results are immutable ``collections.namedtuple``
records: a run imports those of every module it loads, and
``typing.NamedTuple`` classes made the package's own import a third slower.
Being tuples, they iterate over their fields and compare by value alone, equal
to any tuple with the same fields.

The package imports lazily (PEP 562): ``import limitlab`` loads none of its
modules.  ``_EXPORTS`` is the one list of what the package exports, by the
module that defines each name (``__all__`` is built from it), and the first of
a module's names read imports that module.  The command table of ``cli`` reads
each of the lazily loaded modules when a command runs it, so a CLI process
loads only the layers its command runs: ``cantor``, ``families``, ``covers``,
``jsonio`` and ``cli`` always; ``complexity`` for the ``complexity``,
``deficiency``, ``deficiency-family``, ``complexity-bounds`` and
``randomness-report`` commands; ``freq`` for ``freq`` and ``trace-to-family``;
``lowbasis`` for ``lowbasis``.  Those three cost 0.66, 0.29 and 0.29 ms of
import self time (``python -X importtime``, median of 25 starts with warm
bytecode, Python 3.11 on a shared 2-core VM), and every other command skips
all three.
"""

import importlib

# every exported name, by the module that defines it; __getattr__ imports it on first use
_EXPORTS = {
    "cantor": (
        "EMPTY", "FULL", "ClopenSet", "format_fraction", "interval", "max_interval_depth",
        "normalize", "parse_fraction",
    ),
    "complexity": (
        "ComplexityTable", "DeficiencyReport", "RandomnessReport", "complexity_blocks",
        "complexity_table", "counting_violations", "cover_to_complexity_bounds",
        "deficiency_family", "deficiency_report", "exact_complexity", "randomness_report",
        "run_m0",
    ),
    "covers": (
        "CoverOpenSet", "CoverSemimeasure", "CoverSet", "cover_open", "cover_open_strong",
        "cover_semimeasure", "cover_sets", "decompose_liminf",
    ),
    "families": (
        "IndexSpec", "IntervalEvent", "OpenFamilyPresentation",
        "SemimeasureFamilyPresentation", "SetEvent", "SetFamilyPresentation",
        "ValidationError", "ValidationReport", "ValueEvent", "breakpoints", "family_at",
        "liminf_family", "members", "single", "tail", "tree_closure", "validate",
    ),
    "freq": ("PartialTrace", "limit_frequency", "running_frequency", "trace_to_family"),
    "lowbasis": ("ForcingInstance", "ForcingOutcome", "force"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A library module, or an exported name, imported on first use.  The first
    name read from a module binds all of that module's names here, as the
    ``from .module import ...`` of an eager package would."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        from .cantor import _echo

        raise AttributeError(f"module '{__name__}' has no attribute {_echo(name)}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    bound = globals()
    for each in _EXPORTS[_HOME[name]]:
        bound.setdefault(each, getattr(module, each))
    return bound[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})

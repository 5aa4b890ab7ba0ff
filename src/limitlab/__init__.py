"""limitlab: exact desk-scale constructions over staged families.

Everything is computed with exact rational arithmetic: clopen subsets of
Cantor space, staged presentations of set / semimeasure / open families and
their liminf, the acceptable-operation covering constructions, a tiny exact
complexity lab with randomness-deficiency analysis, a forcing simulator for
low witnesses, and limit frequencies of eventually periodic traces.

Presentations, events and results are immutable ``typing.NamedTuple``
records, chosen over dataclasses for their far lower import cost.  Being
tuples, they iterate over their fields and compare by value alone: a record
equals a plain tuple, or a record of another class, with the same fields.
"""

from .cantor import (
    EMPTY,
    FULL,
    ClopenSet,
    boolean_op,
    format_fraction,
    interval,
    max_interval_depth,
    normalize,
    parse_fraction,
)
from .complexity import (
    ComplexityTable,
    DeficiencyReport,
    RandomnessReport,
    complexity_table,
    counting_violations,
    cover_to_complexity_bounds,
    deficiency_family,
    deficiency_report,
    exact_complexity,
    randomness_report,
    run_m0,
)
from .covers import (
    CoverOpenSet,
    CoverSemimeasure,
    CoverSet,
    cover_open,
    cover_open_strong,
    cover_semimeasure,
    cover_sets,
    decompose_liminf,
    replay_set_ops,
    semimeasure_to_complexity,
)
from .families import (
    IndexSpec,
    IntervalEvent,
    OpenFamilyPresentation,
    SemimeasureFamilyPresentation,
    SetEvent,
    SetFamilyPresentation,
    ValidationError,
    ValidationReport,
    ValueEvent,
    breakpoints,
    family_at,
    liminf_family,
    members,
    single,
    tail,
    tree_closure,
    validate,
)
from .freq import PartialTrace, limit_frequency, running_frequency, trace_to_family
from .lowbasis import ForcingInstance, ForcingOutcome, force

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "FULL",
    "ClopenSet",
    "ComplexityTable",
    "CoverOpenSet",
    "CoverSemimeasure",
    "CoverSet",
    "DeficiencyReport",
    "ForcingInstance",
    "ForcingOutcome",
    "IndexSpec",
    "IntervalEvent",
    "OpenFamilyPresentation",
    "PartialTrace",
    "RandomnessReport",
    "SemimeasureFamilyPresentation",
    "SetEvent",
    "SetFamilyPresentation",
    "ValidationError",
    "ValidationReport",
    "ValueEvent",
    "boolean_op",
    "breakpoints",
    "complexity_table",
    "counting_violations",
    "cover_open",
    "cover_open_strong",
    "cover_semimeasure",
    "cover_sets",
    "cover_to_complexity_bounds",
    "decompose_liminf",
    "deficiency_family",
    "deficiency_report",
    "exact_complexity",
    "family_at",
    "force",
    "format_fraction",
    "interval",
    "liminf_family",
    "limit_frequency",
    "max_interval_depth",
    "members",
    "normalize",
    "parse_fraction",
    "randomness_report",
    "replay_set_ops",
    "run_m0",
    "running_frequency",
    "semimeasure_to_complexity",
    "single",
    "tail",
    "trace_to_family",
    "tree_closure",
    "validate",
]

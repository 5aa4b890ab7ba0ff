"""Batch front door: validate inputs, run a construction, emit one artifact.

One command per process; exit status 0 on success, 1 on a
``ValidationError`` (the input fails validation, or a construction's check
of its own guarantee fails), 2 on any other ``ValueError`` (parse or
configuration errors).  Identical input and flags produce byte-identical
output.

Every command is one entry of ``COMMANDS``: its help text, its required and
optional flags, a run function returning the JSON payload (or the text of an
event log), and, for the row-shaped reports, a CSV writer of that payload.
A command accepts only the flags its entry names, plus ``--output``, and
``--format`` when it has a CSV writer.

A command line of declared ``--flag value`` pairs, each flag given once, is
read straight from ``COMMANDS`` and ``FLAGS`` into the namespace argparse
would build, so a run imports no argparse and builds no parser.  Any other
command line, and any value a flag's type refuses, goes to the argparse
parser, which writes every help, usage and error text; a refused value is
echoed cut short, by ``cantor._echo``.

:func:`main` pauses the cyclic garbage collector for the command and restores
the caller's setting when it returns.  Everything a command builds (tuples,
lists, dicts, ``Fraction``s) is acyclic, so reference counting frees it; the
collector's passes over 10^5 table rows and keys would find nothing.  The few
cycles argparse makes, when a command line goes to it, are left for the
collector once it is restored.  When ``main`` is the process entry point
(called without ``argv``) it ends the process itself once the artifact is
written (see :func:`_end_process`), so the interpreter's teardown does not free,
object by object, memory the process gives back by exiting.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from collections import namedtuple
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Optional, Sequence

# the complexity, freq and lowbasis commands read their module off the lazy package when
# they run, so a process loads none of those modules unless its command runs one
import limitlab

from . import jsonio
from .cantor import _TooManyDigits, _echo, parse_fraction, parse_int
from .covers import (
    cover_open,
    cover_open_strong,
    cover_semimeasure,
    cover_sets,
    decompose_liminf,
)
from .families import (
    OpenFamilyPresentation,
    SemimeasureFamilyPresentation,
    SetFamilyPresentation,
    ValidationError,
    liminf_family,
    validate,
)


def natural(text: str) -> int:
    value = parse_int(text)
    if value < 0:
        raise ValueError(text)
    return value


def rational(text: str):
    return parse_fraction(text)


def grid(text: str) -> list:
    values = [parse_fraction(piece) for piece in text.split(",") if piece.strip()]
    if not values:
        raise ValueError(text)
    return values


FLAGS: dict[str, dict[str, Any]] = {
    "input": {"help": "input file"},
    "output": {"help": "output file (stdout when absent)"},
    "k": {"type": natural, "help": "capacity exponent override"},
    "epsilon": {"type": rational, "help": "measure bound override, num/den"},
    "epsilon-prime": {"type": rational, "help": "enlarged bound, num/den"},
    "c": {"type": natural, "help": "deficiency / measure exponent parameter"},
    "lmax": {"type": natural, "help": "candidate interval depth / max string length"},
    "nmax": {"type": natural, "help": "largest index threshold / condition / level"},
    "nmin": {"type": natural, "help": "smallest level"},
    "horizon": {"type": natural, "help": "extension horizon for dbar"},
    "grid": {"type": grid, "help": "comma-separated rationals, e.g. 0,1/8,1/4"},
    "omega": {"help": "sequence prefix under study"},
    "witness-length": {"type": natural, "help": "witness prefix length"},
    "format": {"choices": ("json", "csv"), "default": "json"},
}


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _write(pieces: Iterable[str], path: Optional[str]) -> None:
    where = "standard output" if path is None else path
    if path is None and sys.stdout is None:  # file descriptor 1 was closed at start-up
        raise ValueError(f"cannot write {where}: it is closed")
    try:
        if path is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # a full disk or a closed pipe fails here, not at shutdown
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
    except OSError as exc:
        if path is None:  # what stays buffered goes to /dev/null, or the flush at exit fails again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValueError(f"cannot write {where}: {exc}") from None


def _presentation(args, expected=None):
    p = jsonio.parse_presentation(_read(args.input))
    if expected is not None and not isinstance(p, expected):
        raise ValueError(
            f"this command expects a {expected.__name__} event log, got {type(p).__name__}"
        )
    for flag, kind in (("k", SetFamilyPresentation), ("epsilon", OpenFamilyPresentation)):
        value = getattr(args, flag, None)
        if value is not None:
            if not isinstance(p, kind):
                raise ValueError(
                    f"--{flag} applies only to {kind.__name__} event logs, not {type(p).__name__}"
                )
            p = p._replace(**{flag: value})
    return p


def _table(args):
    return jsonio.parse_complexity_table(_read(args.input))


def _trace(args):
    return jsonio.parse_trace(_read(args.input))


def _liminf(p) -> dict:
    return jsonio.liminf_to_json(p, liminf_family(p))


def _cover_sets(args) -> dict:
    p = _presentation(args, SetFamilyPresentation)
    return jsonio.cover_set_to_json(cover_sets(p, nmax=args.nmax), p.k)


def _cover_semimeasure(args, tree: bool) -> dict:
    p = _presentation(args, SemimeasureFamilyPresentation)
    if p.tree != tree:
        raise ValueError("cover-tree expects a tree event log and cover-semimeasure a flat one")
    return jsonio.cover_semimeasure_to_json(cover_semimeasure(p, args.grid, nmax=args.nmax))


def _open(args):
    return _presentation(args, OpenFamilyPresentation)


class Command(namedtuple("Command", "help required optional run csv", defaults=(None,))):
    """``run``: parsed flags (as attributes) -> JSON payload, or event-log text;
    ``csv``, if any: JSON payload -> CSV text, in pieces."""

    __slots__ = ()

    def flags(self) -> tuple[str, ...]:
        """Every flag the command accepts: its own, ``output``, and ``format`` with a CSV writer."""
        return (*self.required, *self.optional, "output", *(("format",) if self.csv else ()))


# Run functions look library and jsonio functions up when they run, so a
# rebinding of a module attribute (a tracer, a test double) takes effect.
COMMANDS: dict[str, Command] = {
    "validate": Command(
        "check every invariant of an event log", ("input",), ("k", "epsilon"),
        lambda a: jsonio.report_to_json(validate(_presentation(a)))),
    "liminf": Command(
        "exact liminf of a presented family", ("input",), ("k", "epsilon"),
        lambda a: _liminf(_presentation(a))),
    "cover-sets": Command(
        "small set containing the liminf of a set family", ("input",), ("k", "nmax"),
        _cover_sets),
    "cover-semimeasure": Command(
        "semimeasure dominating the liminf of a flat family", ("input", "grid"), ("nmax",),
        lambda a: _cover_semimeasure(a, tree=False)),
    "cover-tree": Command(
        "tree semimeasure dominating the liminf of a tree family", ("input", "grid"), ("nmax",),
        lambda a: _cover_semimeasure(a, tree=True)),
    "cover-open": Command(
        "open set of measure <= epsilon containing the liminf", ("input", "lmax"),
        ("epsilon", "nmax"),
        lambda a: jsonio.cover_open_to_json(cover_open(_open(a), lmax=a.lmax, nmax=a.nmax))),
    "cover-open-strong": Command(
        "cover the liminf within an enlarged budget", ("input", "epsilon-prime"), ("epsilon",),
        lambda a: jsonio.cover_open_to_json(cover_open_strong(_open(a), a.epsilon_prime))),
    "decompose": Command(
        "disjoint decomposition of the liminf of an open family", ("input",), ("epsilon",),
        lambda a: jsonio.decomposition_to_json(decompose_liminf(_open(a)))),
    "lowbasis": Command(
        "force query answers while keeping the complement nonempty",
        ("input", "witness-length"), (),
        lambda a: jsonio.forcing_outcome_to_json(limitlab.lowbasis.force(
            jsonio.parse_forcing_instance(_read(a.input)), witness_length=a.witness_length))),
    "complexity": Command(
        "exact description-length table of the reference machine", ("lmax", "nmax"), (),
        lambda a: jsonio.complexity_blocks_to_json(
            limitlab.complexity.complexity_blocks(a.lmax, a.nmax)),
        lambda payload: jsonio.complexity_table_to_csv(payload)),
    "deficiency": Command(
        "per-prefix deficiency report of a sequence prefix", ("input", "omega", "horizon", "c"),
        (), lambda a: jsonio.deficiency_report_to_json(limitlab.complexity.deficiency_report(
            _table(a), omega_prefix=a.omega, horizon=a.horizon, c=a.c)),
        lambda payload: jsonio.deficiency_report_to_csv(payload)),
    "deficiency-family": Command(
        "staged open family of compressible strings", ("input", "c", "nmin", "nmax"), (),
        lambda a: jsonio.dump_presentation(limitlab.complexity.deficiency_family(
            _table(a), c=a.c, n_range=(a.nmin, a.nmax)))),
    "complexity-bounds": Command(
        "ordinal-coding bounds read off a small cover", ("input", "c"), ("epsilon",),
        lambda a: jsonio.bounds_to_json(
            limitlab.complexity.cover_to_complexity_bounds(_open(a), c=a.c))),
    "randomness-report": Command(
        "prefix lengths where the sequence stays incompressible", ("input", "omega", "c"), (),
        lambda a: jsonio.randomness_report_to_json(limitlab.complexity.randomness_report(
            _table(a), omega_prefix=a.omega, c=a.c)),
        lambda payload: jsonio.randomness_report_to_csv(payload)),
    "freq": Command(
        "exact limit frequencies of an eventually periodic trace", ("input",), (),
        lambda a: jsonio.frequencies_to_json(limitlab.freq.limit_frequency(_trace(a))),
        lambda payload: jsonio.frequencies_to_csv(payload)),
    "trace-to-family": Command(
        "replay a trace into a staged semimeasure family", ("input", "nmax", "grid"), (),
        lambda a: jsonio.dump_presentation(
            limitlab.freq.trace_to_family(_trace(a), nmax=a.nmax, grid=a.grid))),
}


def build_parser():
    """The argparse parser of every command (imports argparse).

    A flag with a type or choices refuses a value in argparse's words, the value
    cut short by ``_echo``, and names the limit for integer text too long to convert.
    """
    import argparse

    def worded(parse: Callable[[str], Any], choices) -> Callable[[str], Any]:
        def parse_flag(text: str) -> Any:
            try:
                value = parse(text)
            except _TooManyDigits as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
            except (TypeError, ValueError):
                refusal = f"invalid {parse.__name__} value: {_echo(text)}"
                raise argparse.ArgumentTypeError(refusal) from None
            if choices is not None and value not in choices:
                shown = ", ".join(map(repr, choices))
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {_echo(value)} (choose from {shown})"
                )
            return value

        return parse_flag

    parser = argparse.ArgumentParser(
        prog="limitlab",
        description="Exact staged-family constructions, covers and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for flag in command.flags():
            spec = FLAGS[flag]
            if "type" in spec or "choices" in spec:
                spec = {**spec, "type": worded(spec.get("type", str), spec.get("choices"))}
            cmd.add_argument(f"--{flag}", required=flag in command.required, **spec)
    return parser


def _plain_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The flags argparse would parse from ``argv``, or None to leave ``argv`` to argparse.

    Read here is only a command followed by ``--flag value`` pairs: each flag
    declared for the command and given once, no value starting with "-", each
    value passing its type and choices, and every required flag present.
    Every flag takes one value, so such a line has one reading, argparse's.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    declared = command.flags()
    values = {flag: FLAGS[flag].get("default") for flag in declared}
    given = set()
    for option, text in zip(argv[1::2], argv[2::2]):
        flag = option[2:]
        if not option.startswith("--") or flag not in declared or flag in given:
            return None
        if text.startswith("-"):
            return None
        spec = FLAGS[flag]
        try:
            value = spec["type"](text) if "type" in spec else text
        except Exception:  # argparse words the refusal, or raises what it does not word
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given.add(flag)
        values[flag] = value
    if not given.issuperset(command.required):
        return None
    return SimpleNamespace(
        command=argv[0], **{flag.replace("-", "_"): value for flag, value in values.items()}
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit status; ``argv`` defaults to ``sys.argv[1:]``.

    A well-formed command line runs without argparse (see :func:`_plain_args`);
    argparse parses any other, and writes its help or its usage error.

    Without ``argv`` this is the process entry point, and it does not return
    unless :func:`_end_process` leaves the ending to the interpreter.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = _main(argv)
    finally:
        if enabled:
            gc.enable()
    if argv is None:
        _end_process(code)
    return code


def _end_process(code: int) -> None:
    """End the process with status ``code`` as the interpreter would, less its teardown.

    Standard output and error are flushed and the ``atexit`` handlers run; then
    ``os._exit`` skips the collections, module clean-up and deallocation of
    every object of the run.  Each file a command writes is closed by its
    ``with`` block and no limitlab object has a finaliser, so nothing of the
    run is lost.  Returns, leaving the interpreter to end the process, when a
    flush fails (its exit status and its words on a broken pipe are the
    interpreter's) or when something still needs the interpreter: a tracer or
    profiler (``python -m cProfile`` prints its table after the program
    ends), ``python -i``, or a thread besides this one.
    """
    threading = sys.modules.get("threading")
    if (
        sys.gettrace() or sys.getprofile() or sys.flags.inspect
        or threading is not None and threading.active_count() > 1
    ):
        return
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: the file descriptor was closed at start-up
                stream.flush()
    except (OSError, ValueError):
        return
    atexit._run_exitfuncs()
    os._exit(code)


def _main(argv: Optional[Sequence[str]]) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed the usage error or the help
            return exc.code
    command = COMMANDS[args.command]
    try:
        payload = command.run(args)
        if isinstance(payload, str):
            pieces = [payload]
        elif getattr(args, "format", None) == "csv":
            pieces = command.csv(payload)
        else:
            pieces = jsonio.artifact_pieces(payload)
        _write(pieces, args.output)
    except ValidationError as exc:
        for problem in exc.report.problems:
            print(problem, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # validate writes its report either way and exits 1 when it is not valid
    if isinstance(payload, dict) and payload.get("valid") is False:
        for problem in payload["problems"]:
            print(problem, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

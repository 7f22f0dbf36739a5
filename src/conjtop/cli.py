"""Command line frontend: reads the command line, dispatches, maps exit codes.

A plain command line (a command, its object and the flags it reads, each
spelled in full) is read by ``_read`` from the two tables below.  Any
other line, including every help request and every malformed one, goes
to argparse, which writes all help, usage and error text; so a plain
command imports neither argparse nor gettext.  The handlers and the
Report live in ``conjtop.commands``, one submodule per group, and a
command loads only its own.  Exit codes separate violated theorems (1)
from malformed input (2).
"""

import sys
from importlib import import_module
from types import SimpleNamespace

from .commands import Report, _trace_lines
from .errors import InputError, ModelIntegrityError

# every argument a command can read, as the user spells it
_ARGUMENTS = {
    "object": {"help": "named object from the model or library"},
    "--h": {"help": "distinguished middle class, e.g. '(1,1)'"},
    "--chi": {"type": int, "help": "Euler characteristic of the real part"},
    "--type": {"choices": ("I_abs", "I_rel", "II"), "help": "surface type"},
    "--h1-trivial": {"action": "store_true",
                     "help": "assert trivial first mod-2 homology of the complexification"},
    "--cut": {"help": "cutting chain: marked cycle name or inline simplices"},
    "--cocycle": {"help": "1-cocycle: marked cycle name or inline edges"},
    "--curve": {"help": "closed curve: marked cycle name or inline edges"},
    "--y1": {"help": "first curve for compare"},
    "--y2": {"help": "second curve for compare"},
    "--model": {"help": "model file (defaults to the bundled library)"},
    "--machine": {"action": "store_true", "help": "print only the machine-readable section"},
}

# command -> (its submodule of conjtop.commands, its handler there, the
# arguments it reads, in the order its report echoes them)
_COMMANDS = {
    "homology": ("spaces", "_cmd_homology", ("object",)),
    "fixed-set": ("spaces", "_cmd_fixed_set", ("object",)),
    "conj-form": ("spaces", "_cmd_conj_form", ("object",)),
    "classify": ("spaces", "_cmd_classify", ("object", "--h")),
    "divide": ("curves", "_cmd_divide", ("object",)),
    "orient": ("curves", "_cmd_orient", ("object",)),
    "cover": ("curves", "_cmd_cover", ("object", "--cut", "--cocycle")),
    "orient-cover": ("curves", "_cmd_orient_cover", ("object", "--curve")),
    "compare": ("curves", "_cmd_compare", ("object", "--y1", "--y2")),
    "congruence": ("numbers", "_cmd_congruence", ("--chi", "--type", "--h1-trivial")),
    "lattice-audit": ("numbers", "_cmd_lattice_audit", ("object",)),
    "qform": ("numbers", "_cmd_qform", ("object",)),
}
_SHARED = ("--model", "--machine")  # the arguments every command reads


def _dest(arg):
    """The namespace attribute of an argument, as argparse names it."""
    return arg.lstrip("-").replace("-", "_")


def run(command: str, model, args) -> Report:
    """Dispatch one command against a model; raises on failures."""
    if command not in _COMMANDS:
        raise InputError(f"unknown command {command!r}")
    group, handler, arguments = _COMMANDS[command]
    echo = [command]
    for arg in arguments:
        val = getattr(args, _dest(arg), None)
        if val is True:
            echo.append(arg)
        elif val is not None and val is not False:
            echo.append(f"{arg} {val}" if arg.startswith("-") else val)
    report = Report(" ".join(echo))
    getattr(import_module(f".commands.{group}", __package__), handler)(model, args, report)
    return report


def _read(argv):
    """The namespace argparse makes of a plain command line, or None.

    A plain line names a command, then its object and the flags it reads in
    any order, each at most once and spelled in full, every flag value not
    starting with ``-``, a ``--type`` among its choices and a ``--chi`` of
    at most 64 ASCII digits.  Anything else is argparse's to read or refuse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _COMMANDS[argv[0]][2] + _SHARED
    args = {_dest(arg): False if _ARGUMENTS[arg].get("action") else None for arg in arguments}
    args["command"] = argv[0]
    tokens = iter(argv[1:])
    seen = set()
    for token in tokens:
        arg = token if token.startswith("-") else "object"
        if arg not in arguments or arg in seen:
            return None
        seen.add(arg)
        spec = _ARGUMENTS[arg]
        if spec.get("action"):
            value = True
        else:
            value = token if arg == "object" else next(tokens, "-")  # a missing value is "-"
            if value.startswith("-") or "choices" in spec and value not in spec["choices"]:
                return None
            if "type" in spec:
                if not (value.isascii() and value.isdigit() and len(value) <= 64):
                    return None
                value = int(value)
        args[_dest(arg)] = value
    if "object" in arguments and "object" not in seen:
        return None
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser, for help, usage and every line ``_read`` leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="conjtop",
        description="Topology of involutions on finite complexes: types, double "
        "covers, complex semi-orientations, congruences, quadratic invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, arguments) in _COMMANDS.items():
        # no prefix matching: it would read a stray --h as --help
        p = sub.add_parser(name, allow_abbrev=False)
        for arg in arguments + _SHARED:
            p.add_argument(arg, **_ARGUMENTS[arg])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return 2 if e.code not in (0, None) else 0
    try:
        if args.model:
            from .modelfile import parse_model

            with open(args.model, "r", encoding="utf-8") as fh:
                model = parse_model(fh.read())
        elif hasattr(args, "object"):
            from .models import model_library

            model = model_library(args.object)  # only the group that defines it
        else:
            model = None  # congruence reads no object
        report = run(args.command, model, args)
    except InputError as e:
        sys.stdout.write(f"input error: {e}\n")
        return 2
    except ModelIntegrityError as e:
        sys.stdout.write(f"model integrity violation: {e}\n")
        if args.machine:
            sys.stdout.write(_trace_lines(e.report))
        return 1
    except (OSError, UnicodeDecodeError) as e:
        sys.stdout.write(f"input error: {e}\n")
        return 2
    sys.stdout.write(report.render(machine_only=args.machine))
    return 0


if __name__ == "__main__":
    sys.exit(main())

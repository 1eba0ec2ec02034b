"""The command line's grammar, read from the command and option tables of cli.

parse() reads argv the way argparse did: the command first, then options
in any order. An option is its name, a unique prefix of it, or -h for
--help; its value is the next argument or the text after '=' (a value that
begins with '-' needs the '=' form, unless it is '-' or a negative number),
and the last occurrence of an option wins. The usage line and the --help
text are rendered from the same tables. Nothing here writes or exits:
--help, --version and misuse raise UsageExit with the text to print.
"""

from __future__ import annotations

from . import __version__

_DESCRIPTION = "Gravitational-redshift dephasing toolkit for optical lattice clocks"
_HELP = (None, "show this help message and exit")
# The options read before the command.
_TOP = {"--help": _HELP, "--version": (None, "show program's version number and exit")}


class UsageExit(Exception):
    """--help or --version, whose text goes to stdout with exit code 0, or,
    if misuse, the usage and error lines, which go to stderr with exit 2."""

    def __init__(self, text: str, misuse: bool):
        super().__init__(text)
        self.misuse = misuse


def _invocation(option: str, metavar: str | None) -> str:
    return option if metavar is None else f"{option} {metavar}"


def _usage(commands: dict, command: str | None, level: dict) -> str:
    spelled = " ".join(
        "[-h]" if option == "--help" else f"[{_invocation(option, metavar)}]"
        for option, (metavar, _) in level.items()
    )
    if command is None:
        return f"usage: gravclock {spelled} {{{','.join(commands)}}} ..."
    return f"usage: gravclock {command} {spelled}"


def _help(commands: dict, command: str | None, level: dict) -> str:
    sections = {
        "options": [
            ("-h, --help" if option == "--help" else _invocation(option, metavar), text)
            for option, (metavar, text) in level.items()
        ]
    }
    if command is None:
        sections = {"commands": [(name, text) for name, (_, text) in commands.items()], **sections}
    lines = [_usage(commands, command, level), ""]
    lines.append(_DESCRIPTION if command is None else commands[command][1])
    for title, rows in sections.items():
        lines += ["", f"{title}:"]
        for left, text in rows:  # a left column too wide puts its text on the next line
            lines.append(f"  {left:<22}{text}" if len(left) < 21 else f"  {left}\n{'':24}{text}")
    return "\n".join(lines) + "\n"


def _is_value(arg: str) -> bool:
    """Whether arg is read as a value rather than an option: '-' and negative
    numbers are values, as argparse reads them."""
    return not arg.startswith("-") or arg == "-" or arg[1:].replace(".", "", 1).isdecimal()


def _option(name: str, level: dict) -> str | None:
    """The option that name spells: itself, -h for --help, or a unique prefix."""
    name = "--help" if name == "-h" else name
    if name in level:
        return name
    matches = [option for option in level if option.startswith(name)]
    return matches[0] if len(matches) == 1 and len(name) > 2 else None


def parse(argv: list[str], commands: dict, options: dict) -> tuple[str, dict[str, str | bool]]:
    """The command and the options given after it, {option: value, or True
    for a flag}. commands maps each command to (runner, help line), options
    each option to (metavar, help), a None metavar marking a flag; every
    command takes every option."""
    command: str | None = None
    level = _TOP
    given: dict[str, str | bool] = {}
    unknown: list[str] = []

    def misuse(message: str) -> UsageExit:
        return UsageExit(f"{_usage(commands, command, level)}\ngravclock: error: {message}\n", True)

    args = iter(argv)
    for arg in args:
        name, equals, value = arg.partition("=") if arg.startswith("--") else (arg, "", "")
        option = None if _is_value(arg) else _option(name, level)
        if option is None:
            if command is not None or not _is_value(arg):
                unknown.append(arg)
            elif arg in commands:
                command, level = arg, {"--help": _HELP, **options}
            else:
                names = ", ".join(map(repr, commands))
                raise misuse(f"argument command: invalid choice: {arg!r} (choose from {names})")
            continue
        metavar, _ = level[option]
        if metavar is None:
            if equals:
                raise misuse(f"argument {option}: ignored explicit argument {value!r}")
            if option == "--help":
                raise UsageExit(_help(commands, command, level), False)
            if option == "--version":
                raise UsageExit(f"gravclock {__version__}\n", False)
            given[option] = True
            continue
        if not equals:
            value = next(args, None)
            if value is None or not _is_value(value):
                raise misuse(f"argument {option}: expected one argument")
        given[option] = value
    if command is None:
        raise misuse("the following arguments are required: command")
    if unknown:
        raise misuse(f"unrecognized arguments: {' '.join(unknown)}")
    return command, given

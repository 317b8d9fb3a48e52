"""Command lines read against a table of options, without argparse.

A command's options are :class:`Option` records: flag, kind, default,
required, choices and help.  :func:`read` takes what argparse takes for
such a table: ``--opt value`` and ``--opt=value``, a unique prefix of a
flag, the last of a repeated option, and a negative number as a value.
After ``--`` every argument is a stray one.  It raises :class:`UsageError`
where argparse would exit 2, in argparse's order.  :func:`usage` and
:func:`help_text` write the text that ``-h`` and usage errors print.
"""

from __future__ import annotations

from .geom import Record


class Option(Record):
    """One option of a command.  ``kind`` reads its value: int, float or
    str, or bool for a switch, which takes no value and stores True."""

    flag: str
    kind: type = str
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str | None = None

    def __post_init__(self) -> None:
        if self.kind is bool:  # a switch is off until given
            object.__setattr__(self, "default", False)

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def invocation(self) -> str:
        """The flag, with a metavar when it takes a value."""
        if self.kind is bool:
            return self.flag
        metavar = "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper()
        return f"{self.flag} {metavar}"


HELP = Option("--help", bool, help="show this help message and exit")


class UsageError(Exception):
    """A command line that the table of options does not accept."""


def _negative_number(arg: str) -> bool:
    """Whether arg, which starts with ``-``, is ``-N``, ``-N.N`` or ``-.N``
    with N decimal digits: a value, not an option."""
    body = arg[1:]
    whole, dot, frac = body.partition(".")
    return body.isdecimal() or bool(dot) and frac.isdecimal() and (not whole or whole.isdecimal())


def _match(arg: str, options: tuple[Option, ...]) -> tuple[Option | None, str | None] | None:
    """What ``arg`` is among ``options``: None for a value, else the option
    it names, None when unknown, and the text after its ``=`` (None when
    there is no ``=``).  A value may start with ``-`` only as a negative
    number, as ``-`` alone, or when it holds a space."""
    if len(arg) < 2 or arg[0] != "-" or arg == "--":
        return None
    if arg == "-h":
        return HELP, None
    flag, eq, text = arg.partition("=")
    if arg.startswith("--"):
        found = [o for o in options if o.flag == flag] or [
            o for o in options if o.flag.startswith(flag)
        ]
        if len(found) > 1:
            flags = ", ".join(o.flag for o in found)
            raise UsageError(f"ambiguous option: {arg} could match {flags}")
        if found:
            return found[0], text if eq else None
    if _negative_number(arg) or " " in arg:
        return None
    return None, None


def read(
    options: tuple[Option, ...], args: list[str], exclusive: tuple[str, ...]
) -> dict[str, object] | None:
    """Each option's value by ``dest``, its default where ``args`` do not
    give it; None when they ask for help.  At most one flag of
    ``exclusive`` may be given.  Errors come in argparse's order: an
    ambiguous option, then each option's own error from left to right,
    then the missing options, then the stray arguments."""
    end = args.index("--") if "--" in args else len(args)
    known = (*options, HELP)
    found = [_match(arg, known) for arg in args[:end]]
    values = {o.dest: o.default for o in options}
    given: set[str] = set()
    stray = []
    i = 0
    while i < end:
        arg, hit = args[i], found[i]
        i += 1
        if hit is None or hit[0] is None:
            stray.append(arg)
            continue
        option, text = hit
        if option.kind is bool:
            if text is not None:
                raise UsageError(f"argument {option.flag}: ignored explicit argument {text!r}")
            if option is HELP:
                return None
            value: object = True
        else:
            if text is None:
                if i == end or found[i] is not None:
                    raise UsageError(f"argument {option.flag}: expected one argument")
                text = args[i]
                i += 1
            try:
                value = option.kind(text)
            except ValueError:
                kind = option.kind.__name__
                raise UsageError(f"argument {option.flag}: invalid {kind} value: {text!r}") from None
            if option.choices is not None and value not in option.choices:
                choices = ", ".join(option.choices)
                raise UsageError(
                    f"argument {option.flag}: invalid choice: {value!r} (choose from {choices})"
                )
        if option.flag in exclusive:
            for other in given.intersection(exclusive) - {option.flag}:
                raise UsageError(f"argument {option.flag}: not allowed with argument {other}")
        given.add(option.flag)
        values[option.dest] = value
    missing = [o.flag for o in options if o.required and o.flag not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    stray += args[end:]
    if stray:
        raise UsageError(f"unrecognized arguments: {' '.join(stray)}")
    return values


def usage(prog: str, options: tuple[Option, ...], positional: str) -> str:
    """``usage: prog [-h]``, each option (bracketed unless required) and
    then ``positional``, wrapped at 79 columns under the first word."""
    words = [o.invocation() if o.required else f"[{o.invocation()}]" for o in options]
    lines = [f"usage: {prog}"]
    indent = " " * len(lines[0])
    for word in ["[-h]", *words, *positional.split()]:
        if len(lines[-1]) + 1 + len(word) > 79 and len(lines[-1]) > len(indent):
            lines.append(indent)
        lines[-1] += " " + word
    return "\n".join(lines)


def help_text(
    prog: str, about: str, options: tuple[Option, ...], positional: str, commands: dict[str, str]
) -> str:
    """The usage, what prog does, its commands (help by name) when it has
    any, and its options, each row's help in column 24."""
    sections = {
        "commands": list(commands.items()),
        "options": [("-h, --help", HELP.help), *((o.invocation(), o.help) for o in options)],
    }
    lines = [usage(prog, options, positional), "", about]
    for title, rows in sections.items():
        lines += ["", f"{title}:"] if rows else []
        for left, text in rows:
            if text is None:
                lines.append(f"  {left}")
            elif len(left) <= 20:
                lines.append(f"  {left:<20}  {text}")
            else:
                lines += [f"  {left}", f"{'':24}{text}"]
    return "\n".join(lines)

"""README names every function the package exports and every CLI option the parser defines."""

import argparse
import inspect
import itertools
import re
from pathlib import Path

import perronkit
from perronkit.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_function_is_named_in_readme():
    """Classes (errors, result records, matrix types) are skipped."""
    text = README.read_text(encoding="utf-8")
    functions = [name for name, obj in vars(perronkit).items()
                 if not name.startswith("_") and inspect.isfunction(obj)]
    assert functions
    assert [name for name in functions if not re.search(rf"\b{name}\b", text)] == []


def _parser_options(parser, words=()):
    """(command, option strings of each optional action) for every leaf
    command of parser, such as "perron" or "gen tridiag"; --help is left out."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), [a.option_strings for a in parser._actions if a.option_strings and a.dest != "help"]
    for action in subs:
        for name, sub in action.choices.items():
            yield from _parser_options(sub, (*words, name))


def _synopsis_options():
    """{command: options named} from the fenced synopsis under ``## CLI``;
    an indented line continues the command above it."""
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    commands = {}
    for line in block.splitlines():
        if line.startswith("perronkit "):
            words = line.split()[1:]
            name = " ".join(itertools.takewhile(lambda w: re.fullmatch(r"[a-z]+", w), words))
            commands[name] = set()
        commands[name] |= set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", line))
    return commands


def test_cli_synopsis_names_exactly_the_parsers_options():
    synopsis = _synopsis_options()
    parser = dict(_parser_options(build_parser()))
    assert sorted(synopsis) == sorted(parser)
    for command, actions in parser.items():
        known = {s for strings in actions for s in strings}
        assert sorted(synopsis[command] - known) == [], command  # named, but no such option
        assert [strings for strings in actions if not synopsis[command] & set(strings)] == [], command

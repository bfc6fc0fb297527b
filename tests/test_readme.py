"""README names only what the package provides: its "Library" list and
its command-line usage block."""

import argparse
import functools
import re
from pathlib import Path

import evdown
from evdown.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_names() -> list[str]:
    """The names each bullet of README's "Library" list is about: the
    backquoted names before the bullet's first colon, call arguments
    dropped."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"\n- ", section.split("importable from `evdown`:")[1])
    return [name for bullet in bullets[1:]
            for name in re.findall(r"`([A-Za-z_][\w.]*)",
                                   bullet.split(":", 1)[0])]


def test_library_list_resolves():
    """Each name resolves from evdown; a dotted one such as
    ``evio.EventWriter`` from the submodule it names."""
    names = library_names()
    assert {"EventStream", "run", "Downsampler",
            "evio.BinaryEvents"} <= set(names)
    missing = []
    for name in names:
        try:
            functools.reduce(getattr, name.split("."), evdown)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_usage_block_names_every_subcommand():
    """The subcommands run in README's "Command line" usage block are
    exactly those the parser offers, so neither outlives the other."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r"^evdown (\S+)", block, flags=re.M))
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert documented == set(sub.choices) == {"downsample", "synth",
                                              "metrics"}

"""The README's examples run as written."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from gnomon_triples.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _first_code_block(heading: str) -> str:
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split("```", 2)[1]


def cli_examples() -> list[tuple[list[str], str]]:
    """Each ``## CLI`` example as (argv, the key=value tokens its comment shows)."""
    examples = []
    for line in _first_code_block("## CLI").replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        command = re.sub(r"\[[^]]*\]", "", command)
        if command.strip():
            expected = " ".join(re.findall(r"\w+=\S+", comment))
            examples.append((shlex.split(command)[1:], expected))
    return examples


CLI_EXAMPLES = cli_examples()


@pytest.mark.parametrize("argv,expected", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_cli_example_exits_zero(argv, expected, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(expected)


def test_cli_examples_cover_the_annotated_outputs():
    shown = {" ".join(argv): expected for argv, expected in CLI_EXAMPLES if expected}
    assert shown == {
        "invert 4961 6480 8161": "S=3280 t=40 l=41",
        "invert 6 8 10 --general": "k=2 S=2 t=1 l=1",
        "scale 15 8 17 3": "k=3 x=45 y=24 z=51",
    }


def test_library_import_runs():
    """The ``## Library`` block, run REPL-style: ``_`` is the last expression's value."""
    block = _first_code_block("## Library").partition("\n")[2]
    namespace, shown = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            namespace["_"] = shown[ast.get_source_segment(block, node)] = value
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert shown["construct(_).values()"] == (4961, 6480, 8161)
    assert isinstance(node, ast.Expr) and namespace["_"] is True
    assert {"gnomon_pair", "pair_progressions", "index_of", "render"} <= namespace.keys()

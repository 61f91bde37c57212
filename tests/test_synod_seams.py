"""Guards on where the Synod instance and the acceptor's row format live.

Every caller runs its Paxos instance through ``SynodProposer.round``, and
only the acceptor decodes a ``_paxos/`` row by attribute name (everyone
else reads ``AcceptorState`` or a ``LearnReply``).  These scans fail when a
module grows its own PREPARE loop or its own row decoding again.
"""

import ast
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ROW_ATTRIBUTES = {"ATTR_BALLOT", "ATTR_VALUE", "ATTR_CHOSEN", "ATTR_NEXT_BAL"}


@cache
def modules() -> dict[str, ast.Module]:
    """Every module of the package, parsed once: ``{relative path: tree}``."""
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


def names_used(tree) -> set[str]:
    """Every imported name and every ``x.NAME`` attribute in *tree*."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_only_the_acceptor_imports_the_row_attributes():
    users = {
        module for module, tree in modules().items()
        if module != "wal/log.py" and names_used(tree) & ROW_ATTRIBUTES
    }
    assert users == {"paxos/acceptor.py"}


def prepare_calls(tree) -> list[int]:
    """Lines calling ``<x>.prepare(...)``, the ``LogEntry.prepare``
    constructor aside."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "prepare"
        and not (isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "LogEntry")
    ]


def test_no_prepare_phase_outside_the_proposer():
    # A module listed here runs a PREPARE phase itself: use
    # SynodProposer.round instead.
    offenders = {
        module: prepare_calls(tree) for module, tree in modules().items()
        if module != "paxos/proposer.py" and prepare_calls(tree)
    }
    assert offenders == {}

"""Guards on the lane axis: one name scheme and one addressing path.

Service and store node names are built only by ``sim/shard.py``
(``service_node_name``, ``store_name``, ``ShardMap``), and every actor
addresses services through a ``ShardMap`` — a one-lane map gives the
historic ``svc:V1`` names — so no module tests for a missing map.  The
lanes' independence is one kernel bit the harness sets; no module declares
a channel graph.  These scans fail when a second naming path or a channel
declaration grows back.
"""

import ast
import re
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: A service or store node name being built: ``svc:`` / ``store:`` followed
#: by a datacenter (``V1``), a placeholder (f-string) or nothing (an
#: f-string part whose datacenter follows).
NAME_FORMAT = re.compile(r"\b(?:svc|store):(?:$|[A-Z{])")

#: Functions that build node names.
NAME_BUILDERS = {
    "service_name", "service_node_name", "ordered_service_names", "store_name",
}

#: The channel-graph surface the independence bit replaced.
CHANNEL_NAMES = {
    "restrict_channels", "restrict_lane_channels", "lane_channels",
    "channels_for_client", "channels_for_pump", "_channels",
}


@cache
def modules() -> dict[str, ast.Module]:
    """Every module of the package, parsed once: ``{relative path: tree}``."""
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


def name_formats(tree) -> list[int]:
    """Lines of string constants (f-string parts too) spelling a node name."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and NAME_FORMAT.search(node.value)
    ]


def test_node_name_formats_live_in_the_shard_map():
    users = {
        module: name_formats(tree) for module, tree in modules().items()
        if name_formats(tree)
    }
    assert set(users) == {"sim/shard.py"}


def name_builders(tree) -> set[str]:
    """Node-name builders defined in *tree*."""
    return {
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in NAME_BUILDERS
    }


def test_node_name_builders_live_in_the_shard_map():
    builders = {
        module: sorted(name_builders(tree)) for module, tree in modules().items()
        if name_builders(tree)
    }
    assert builders == {"sim/shard.py": sorted(NAME_BUILDERS)}


def is_shard_map(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "shard_map") or (
        isinstance(node, ast.Attribute) and node.attr == "shard_map"
    )


def none_tests(tree) -> list[int]:
    """Lines comparing a ``shard_map`` against ``None`` with is / is not."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if (any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(is_shard_map(operand) for operand in operands)
                and any(isinstance(operand, ast.Constant)
                        and operand.value is None for operand in operands)):
            lines.append(node.lineno)
    return lines


def test_no_module_tests_for_a_missing_shard_map():
    offenders = {
        module: none_tests(tree) for module, tree in modules().items()
        if none_tests(tree)
    }
    assert offenders == {}


def channel_names(tree) -> set[str]:
    """Channel-graph names defined, called or read in *tree*."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name):
            found.add(node.id)
    return found & CHANNEL_NAMES


def test_no_channel_graph_is_declared():
    offenders = {
        module: sorted(channel_names(tree)) for module, tree in modules().items()
        if channel_names(tree)
    }
    assert offenders == {}

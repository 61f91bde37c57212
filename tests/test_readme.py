"""The README's "What runs together" list is the compatibility table."""

from __future__ import annotations

from pathlib import Path

from repro.config import COMBINATION_RULES

README = Path(__file__).resolve().parents[1] / "README.md"
BEGIN = "<!-- BEGIN combination rules -->\n"
END = "<!-- END combination rules -->"


def render_rules() -> str:
    """One line per row: ``- A × B — refused: reason``."""
    return "".join(
        f"- {rule.axes[0]} × {rule.axes[1]} — refused: {rule.reason}\n"
        for rule in COMBINATION_RULES
    )


def test_readme_block_equals_the_table():
    text = README.read_text(encoding="utf-8")
    block = text.split(BEGIN, 1)[1].split(END, 1)[0]
    assert block == render_rules(), (
        "README.md's combination block is stale; replace it with:\n"
        + render_rules()
    )

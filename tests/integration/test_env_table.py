"""The Environment table in docs/ARCHITECTURE.md names every env knob.

Every ``REPRO_*`` variable the package reads appears in ``src/repro`` as
a whole string literal, so collecting those literals and comparing them
with the table's rows, in both directions, keeps the documented set and
the read set equal.  Each row's module column must also read the name.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
DOC = SRC.parents[1] / "docs" / "ARCHITECTURE.md"
NAME = re.compile(r"REPRO_[A-Z0-9]+(?:_[A-Z0-9]+)*")
ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \|[^|]*\| `([^`]+)` \|")


def _literals() -> dict[str, set[str]]:
    """``REPRO_*`` string literals under ``src/repro`` -> reading modules."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and NAME.fullmatch(node.value)
            ):
                module = path.relative_to(SRC).as_posix()
                found.setdefault(node.value, set()).add(module)
    return found


def _table() -> dict[str, str]:
    """The Environment section's rows: name -> module column."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("\n## ")
    (body,) = [s for s in section if s.split("\n", 1)[0].endswith("Environment")]
    rows: dict[str, str] = {}
    for line in body.splitlines():
        match = ROW.match(line)
        if match:
            assert match.group(1) not in rows, f"duplicate row {match.group(1)}"
            rows[match.group(1)] = match.group(2)
    return rows


def test_table_and_source_name_the_same_knobs():
    read = _literals()
    documented = _table()
    assert sorted(set(read) - set(documented)) == [], "read but not documented"
    assert sorted(set(documented) - set(read)) == [], "documented but never read"


def test_each_row_names_a_module_that_reads_it():
    read = _literals()
    for name, module in _table().items():
        assert module in read.get(name, set()), f"{name} is not read in {module}"

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "locvol"


def test_no_assert_guards_in_the_package():
    # `python -O` strips assert statements, so every guard must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found

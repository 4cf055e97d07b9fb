"""No float enters a decision: ``src/ietkit`` has no float literal, no true
division ``/`` and no ``float(...)`` call, except in ``QuadNum.__float__``,
which exists for display and sanity checks only."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "ietkit").glob("*.py"))


def offences(source: str) -> list[str]:
    """Each float literal, true division and ``float(...)`` call of ``source``
    outside ``QuadNum.__float__``, as ``"line: what"``."""
    tree = ast.parse(source)
    allowed = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "QuadNum":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__float__":
                    allowed.update(map(id, ast.walk(fn)))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: true division")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{node.lineno}: float(...) call")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_float_in_the_package(path):
    assert offences(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_each_offence():
    source = "x = 0.5\ny = 1 / 3\ny /= 2\nz = float(x)\nw = 7 // 2\n"
    assert offences(source) == [
        "1: float literal 0.5", "2: true division", "3: true division", "4: float(...) call",
    ]


def test_only_quadnum_float_is_exempt():
    source = (
        "class QuadNum:\n    def __float__(self):\n        return (1 + 2 ** 0.5) / 3\n"
        "class Other:\n    def __float__(self):\n        return 1 / 3\n"
    )
    assert offences(source) == ["6: true division"]
    # arith.py passes through the exemption alone.
    arith = (SOURCES[0].parent / "arith.py").read_text(encoding="utf-8")
    assert offences(arith.replace("def __float__", "def _as_float")) != []

"""The functions the benchmark's layer tracer wraps exist where it looks.

``benchmark/tracer.py`` wraps every name in its ``TRACED`` table: a plain
name as a module attribute, a dotted name ``Class.method`` as an entry of
that class's own ``__dict__``.  A refactor that renames, moves or inherits
one of them breaks ``benchmark/run.py --trace 1``; this test fails first.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _traced() -> dict:
    """The literal TRACED table, read from the tracer's source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("benchmark/tracer.py defines no TRACED table")


def test_every_traced_name_is_defined_where_the_tracer_looks():
    checked = 0
    for layer, attrs in _traced().items():
        module = importlib.import_module(f"gentorsion.{layer}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(module, cls_name)), f"{layer}.{attr}"
            else:
                assert callable(getattr(module, attr, None)), f"{layer}.{attr}"
            checked += 1
    assert checked >= 20

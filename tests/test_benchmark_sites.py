"""The benchmark's tracer wraps conecal functions by module and attribute path.

Its tests are not part of this suite, so a rename in ``src`` that breaks a
wrapped site would only show when the benchmark runs. ``perfbench/tracing.py``
is parsed here, not imported or executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_sites():
    """``(module, attribute path)`` of every entry of ``tracing.WRAPPED``."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no WRAPPED")


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
def test_every_wrapped_site_resolves():
    sites = wrapped_sites()
    assert sites
    for module_name, path in sites:
        assert module_name.split(".")[0] == "conecal", module_name
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # the tracer reads the attribute from the owner's own namespace
        assert attr in vars(owner), f"{module_name}.{path}"

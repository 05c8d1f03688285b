"""Guard for the benchmark's tracer: every function it wraps still exists.

``perfbench/tracing.py`` names the riskdp functions and methods it wraps
(``TRACED``) by module and attribute path.  A refactor that renames or
removes one of them would only show when ``perfbench/run.py --trace 1``
runs, so this test imports the tracer read-only and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("riskdp_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("span, target", sorted(_traced().items()))
def test_traced_name_resolves(span, target):
    module_name, path = target
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{span}: {module_name}.{path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)

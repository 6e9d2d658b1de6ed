"""Every name that perfbench's tracer wraps must exist in the package, or the
traced benchmark run fails at its first wrap."""

import importlib.util
import sys
from pathlib import Path

import binoether  # noqa: F401  (loads every module the tracer names)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    # loaded by path: perfbench is not a package, and tracing.py imports
    # only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    wraps = _tracing_module().WRAPS
    assert wraps
    missing = [(module, attr) for module, attr, _ in wraps
               if not hasattr(sys.modules.get(module), attr)]
    assert missing == []

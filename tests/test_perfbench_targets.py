"""The benchmark tracer names functions by path; each must still exist.

``perfbench/tracer.py`` wraps its ``TARGETS`` by module and attribute path
and lists a missing one instead of failing, so a rename would otherwise
show only in the benchmark's own self-test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = load_tracer()
    missing = []
    for target in tracer.TARGETS:
        module, *path = target.split(".")
        owner = importlib.import_module(f"twistconn.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(target)
    assert missing == []


def test_every_traced_module_imports():
    tracer = load_tracer()
    for module in tracer.MODULES:
        importlib.import_module(f"twistconn.{module}")

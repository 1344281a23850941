"""The benchmark tracer names functions by path; each must still exist.

``perfbench/tracer.py`` wraps its ``TARGETS`` by module and attribute path
and lists a missing one instead of failing, so a rename would otherwise
show only in the benchmark's own self-test.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from twistconn import cli

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


SELFTEST = TRACER.parent / "selftest.py"
# the mutation scenario of tests/test_mutants.py: dense S and T, caps 1,1
MUTATION_SCENARIO = ("q: 2\nm: 2\nn: 2\nmax_exponent: 1\nmax_degree: 1\n"
                     "[S]\n2 1\n1 1\n[T]\n1 2\n1 3\n")


def known_calls():
    """``KNOWN_CALLS`` of the benchmark's self-test, read from its source:
    (traced function, workloads on which it must be called)."""
    for node in ast.parse(SELFTEST.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["KNOWN_CALLS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no KNOWN_CALLS in perfbench/selftest.py")


def test_check_bimodule_makes_the_known_calls(monkeypatch, tmp_path, capsys):
    """check-bimodule calls every function the self-test expects on the
    bimodule workload, so that dropping one fails here too."""
    calls = {}
    for target, workloads in known_calls():
        if "bimodule" not in workloads:
            continue
        module, *path = target.split(".")
        owner = importlib.import_module(f"twistconn.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        calls[target] = 0

        def counted(*args, _target=target, _original=original, **kwargs):
            calls[_target] += 1
            return _original(*args, **kwargs)

        # a function imported by name is counted in every importing module
        owners = [owner] if isinstance(owner, type) else [
            mod for name, mod in sys.modules.items()
            if name.startswith("twistconn")
            and getattr(mod, path[-1], None) is original]
        for where in owners:
            monkeypatch.setattr(where, path[-1], counted)
    assert {"bimodule.ProductSwap.apply", "bimodule.act_left",
            "product.ProductConnection.nabla"} <= set(calls)
    scenario = tmp_path / "mutation.cfg"
    scenario.write_text(MUTATION_SCENARIO)
    assert cli.main(["check-bimodule", "--scenario", str(scenario),
                     "--caps", "1,1", "--format", "json"]) == 0
    capsys.readouterr()
    assert [t for t, count in calls.items() if not count] == []

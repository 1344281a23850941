"""Every check that loops over naive basis inputs in src/ decides them
through the one per-term loop, ``product._decided_by_terms``.

A function under src/twistconn/ that calls ``iter_naive_basis`` or
``_theorem_inputs`` must also call ``_decided_by_terms``, unless it is
listed below with the reason it keeps its own loop.  A function is a
module-level function or a method, with everything nested inside it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistconn"
INPUT_LOOPS = {"iter_naive_basis", "_theorem_inputs"}
HELPER = "_decided_by_terms"

# module.function -> why it keeps its own loop over the inputs
ALLOWED = {
    "product._theorem_inputs": "it yields the inputs that the helper decides",
    "bimodule._piece_morphism": "each side stops at its first failure and the "
    "loop at the second, so one fact per term would branch on its caller",
    "product.check_twist_independence": "it compares paired inputs under two "
    "module twists, not two maps on one input",
    "product.quantum_plane_report": "it builds a payload and stops at its first "
    "mismatch; it counts no cases",
    "runner._curvature_payload": "it renders the curvature of each input; it "
    "counts no cases",
}


def _functions(tree: ast.Module):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def _called(node: ast.AST) -> set[str]:
    """The names called anywhere inside ``node``, bare or as attributes."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def hand_written_loops(package: Path = PACKAGE) -> list[str]:
    """module.function of each function that loops over the inputs without
    the helper."""
    return sorted(f"{path.stem}.{name}" for path in package.glob("*.py")
                  for name, node in _functions(ast.parse(path.read_text(encoding="utf-8")))
                  if _called(node) & INPUT_LOOPS and HELPER not in _called(node))


def test_input_loops_go_through_the_helper():
    # every entry of ALLOWED still loops by hand, so none is stale
    assert hand_written_loops() == sorted(ALLOWED)


def test_guard_flags_a_hand_written_loop(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def check_new(pc, caps):\n"
        "    return run_cases('new', (None for label, pv in\n"
        "                             product.iter_naive_basis(pc.m, pc.rmt, caps)))\n"
        "\n\n"
        "def check_shared(pc, caps):\n"
        "    def cases(label, pv):\n"
        "        yield None\n"
        "    return run_cases('shared', _decided_by_terms(\n"
        "        iter_naive_basis(pc.m, pc.rmt, caps), cases, 1))\n"
        "\n\n"
        "class Checks:\n"
        "    def theorem(self, pc, caps):\n"
        "        return [pv for _, pv in _theorem_inputs(pc, caps, 0, 1)]\n")
    assert hand_written_loops(tmp_path) == ["mod.Checks.theorem", "mod.check_new"]

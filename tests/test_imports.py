"""Import guard: a run loads only the layers its checks use.

Each case runs a fresh interpreter and lists the modules it loaded; no
timing is involved.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = str(ROOT / "scenarios" / "bimodule_q2.cfg")
LATE = {"twistconn.product", "twistconn.connections", "twistconn.bimodule"}


def loaded(code: str) -> set[str]:
    """The modules loaded after ``code`` runs in a fresh interpreter; its
    stdout goes nowhere, the list comes from the original stdout."""
    probe = ("import os, sys\n"
             "sys.stdout = open(os.devnull, 'w')\n"
             f"{code}\n"
             "sys.__stdout__.write('\\n'.join(sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split("\n"))


def cli_run(subcommand: str) -> str:
    return ("from twistconn.cli import main\n"
            f"main([{subcommand!r}, '--scenario', {SCENARIO!r}, "
            "'--caps', '1,1', '--format', 'json'])")


def test_package_import_loads_no_submodule():
    assert {m for m in loaded("import twistconn")
            if m.startswith("twistconn.")} == set()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    new = loaded("import twistconn.cli") - loaded("pass")
    assert {"dataclasses", "inspect"}.isdisjoint(new)


def test_check_axioms_run_leaves_the_later_layers_unloaded():
    modules = loaded(cli_run("check-axioms"))
    assert "twistconn.twist" in modules
    assert LATE.isdisjoint(modules)


def test_check_bimodule_run_loads_every_layer():
    assert LATE <= loaded(cli_run("check-bimodule"))


def test_every_export_resolves():
    code = ("import twistconn\n"
            "for name in twistconn.__all__:\n"
            "    assert getattr(twistconn, name).__module__.startswith('twistconn.')\n"
            "from twistconn import *")
    assert LATE <= loaded(code)

"""Outside-in tracer: runs the twistconn CLI with its layer functions wrapped.

    python3 perfbench/tracer.py OUT.json INVOCATION_ID -- <twistconn CLI args>

Stdout and the exit code are the CLI's own, so the benchmark's gate judges a
traced invocation like an untraced one.  At exit the tracer writes OUT.json:

- ``funcs``: for each traced function, its calls and self time, also split
  by the calling layer (the module of the nearest traced caller).  Self time
  is the function's time minus that of the traced calls it made.
- ``layers``: self time summed per module.  Besides the traced functions,
  every module-level ``check_*`` function is wrapped so that the time of a
  check's own loop counts to the module that owns the check.
- ``checks``: one entry per ``Report.add``, with the result's name and
  cases; its time runs from the previous ``Report.add`` (or from the end of
  ``build_objects``) to this one.
- ``spans``: name, start, end, parent and invocation id of ``cli.main``,
  the set-up phases, ``run_checks``, ``Report.to_json`` and every check.
- ``qpow``: calls and distinct exponents of ``AlgebraTwist.qpow``.

Nothing here is imported by an untraced benchmark run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (module, attribute path) of every function whose calls and self time the
# benchmark reports; module is relative to the twistconn package.
TARGETS = (
    "cli.main",
    "forms.Form.__init__", "forms.Form.__mul__", "forms.Form.__add__",
    "forms.Form.d", "forms.word_mul", "forms.word_differential",
    "tdga.ProductForm.__init__", "tdga.ProductForm.__add__",
    "tdga.ProductForm.scale", "tdga.ProductForm.d",
    "twist.AlgebraTwist.mul", "twist.AlgebraTwist.cross",
    "twist.AlgebraTwist.qpow", "twist.RightModuleTwist.cross_word",
    "twist.RightModuleTwist.uncross_word", "twist.LeftModuleTwist.cross_word",
    "rationals.MatrixPowers.power",
    "connections.ModuleConnection.nabla",
    "connections.ModuleConnection.curvature_matrix",
    "product.ProductConnection.nabla", "product.ProductConnection.curvature",
    "product.act_right", "product.act_right_form", "product.f_free_to_naive",
    "product.f_naive_to_free",
    "bimodule.act_left", "bimodule.ProductSwap.apply", "bimodule.FormSwap.apply",
    "scenario.load_scenario_file", "runner.build_objects", "runner.run_checks",
    "reports.Report.to_json",
)
MODULES = ("cli", "scenario", "runner", "reports", "rationals", "forms", "tdga",
           "twist", "connections", "product", "bimodule")
SPANNED = {"cli.main", "scenario.load_scenario_file", "runner.build_objects",
           "runner.run_checks", "reports.Report.to_json"}


class Tracer:
    def __init__(self, invocation: int):
        self.invocation = invocation
        self.stack = [["main", 0.0]]   # frames: [layer, time of traced children]
        self.agg: dict[tuple[str, str], list] = {}  # (name, caller) -> [calls, self]
        self.spans: list[dict] = []
        self.span_stack: list[int] = []
        self.checks: list[dict] = []
        self.check_mark: float | None = None
        self.qpow_exponents: set = set()
        self.missing: list[str] = []

    def wrap(self, name: str, layer: str, fn):
        agg, stack, clock = self.agg, self.stack, time.perf_counter
        spanned = name in SPANNED
        record_exponent = self.qpow_exponents.add if name == "twist.AlgebraTwist.qpow" \
            else None

        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            if record_exponent is not None:
                record_exponent(args[1])
            if spanned:
                span = self._open(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                caller[1] += dt
                entry = agg.get((name, caller[0]))
                if entry is None:
                    agg[(name, caller[0])] = [1, dt - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += dt - frame[1]
                if spanned:
                    self._close(span, t0, t1)
                    if name == "runner.build_objects":
                        self.check_mark = t1

        return functools.update_wrapper(traced, fn)

    def _open(self, name: str) -> dict:
        span = {"name": name, "invocation": self.invocation,
                "parent": self.span_stack[-1] if self.span_stack else None}
        self.span_stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict, t0: float, t1: float) -> None:
        span["start"], span["end"] = t0, t1
        self.span_stack.pop()

    def wrap_report_add(self, fn):
        def add(report, result):
            now = time.perf_counter()
            start = self.check_mark if self.check_mark is not None else now
            self.check_mark = now
            self.checks.append({"name": result.name, "s": now - start,
                                "cases": result.cases})
            self.spans.append({"name": f"check.{result.name}",
                               "invocation": self.invocation,
                               "parent": self.span_stack[-1] if self.span_stack
                               else None, "start": start, "end": now})
            return fn(report, result)
        return functools.update_wrapper(add, fn)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"twistconn.{m}") for m in MODULES}
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "twistconn" or key.startswith("twistconn.")]
        for target in TARGETS:
            module, *path = target.split(".")
            owner = modules[module]
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None:
                self.missing.append(target)
                continue
            self._replace(owner, path[-1], fn, self.wrap(target, module, fn),
                          namespaces, is_method=len(path) > 1)
        for module, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("check_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    self._replace(mod, attr, fn,
                                  self.wrap(f"{module}.{attr}", module, fn),
                                  namespaces, is_method=False)
        report_cls = modules["reports"].Report
        report_cls.add = self.wrap_report_add(report_cls.add)

    @staticmethod
    def _replace(owner, attr, fn, wrapped, namespaces, is_method) -> None:
        if is_method:
            setattr(owner, attr, wrapped)
            return
        # a function imported by name lives on in every importing namespace
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, name, wrapped)

    def result(self) -> dict:
        funcs: dict[str, dict] = {}
        layers = {m: 0.0 for m in MODULES}
        for (name, caller), (calls, self_s) in self.agg.items():
            layers[name.split(".", 1)[0]] += self_s
            if name not in TARGETS:
                continue
            entry = funcs.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "by_caller": {}})
            entry["calls"] += calls
            entry["self_s"] += self_s
            entry["by_caller"][caller] = {"calls": calls, "self_s": self_s}
        return {"funcs": funcs, "layers": layers, "checks": self.checks,
                "spans": self.spans, "missing": self.missing,
                "qpow": {"calls": funcs.get("twist.AlgebraTwist.qpow",
                                            {}).get("calls", 0),
                         "distinct": len(self.qpow_exponents)}}


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, invocation, cli_args = sys.argv[1], int(sys.argv[2]), sys.argv[4:]
    tracer = Tracer(invocation)
    tracer.install()
    from twistconn import cli
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.result(), handle)


if __name__ == "__main__":
    sys.exit(main())

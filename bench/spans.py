"""Span recording around priorstab's public functions, applied from outside.

`Recorder.install` wraps every public module-level function of the traced
modules and rebinds each module attribute that refers to it (``solve_lp``,
for example, is bound in both ``lp`` and ``stability``).  Spans are kept in
memory as (parent, name, start_ns, end_ns, attrs) and turned into per-layer
metrics by `layer_metrics`; `uninstall` restores the original bindings.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types

LAYERS = ("cli", "io", "beliefs", "core", "stability", "lp", "selection", "scenarios")


def _lp_size(args, kwargs, out):
    lp = args[0] if args else kwargs["lp"]
    return {"rows": lp.eq_matrix.shape[0], "vars": lp.num_variables, "status": out.status.value}


def _text_bytes(args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


ANNOTATE = {"lp.solve_lp": _lp_size, "io.atomic_write_text": _text_bytes}


class Recorder:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[sid] = (parent, name, t0, time.perf_counter_ns(), None)
                raise
            t1 = time.perf_counter_ns()
            stack.pop()
            spans[sid] = (parent, name, t0, t1, annotate(args, kwargs, out) if annotate else None)
            return out

        return wrapper

    def install(self) -> None:
        package = "priorstab"
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(module, attr, wrapped[id(obj)][1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    own = [t1 - t0 for _, _, t0, t1, _ in spans]
    for parent, _, t0, t1, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced round (see README for what each moves)."""
    ns = 1e-9
    own = self_times(spans)
    total = {}
    calls = {}
    for _, name, t0, t1, _ in spans:
        total[name] = total.get(name, 0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1

    def inclusive(*names):
        return sum(total.get(n, 0) for n in names) * ns

    def count(name):
        return calls.get(name, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(o for o, s in zip(own, spans) if s[1].startswith(layer + ".")) * ns
    out["io.load_s"] = inclusive(*(n for n in total if n.startswith("io.load_")))
    out["io.write_s"] = inclusive("io.write_rows", "io.write_data_rows", "io.write_json")
    out["io.bytes_written"] = sum(s[4]["bytes"] for s in spans if s[1] == "io.atomic_write_text" and s[4])
    out["beliefs.catalog_s"] = inclusive("beliefs.default_catalog")
    out["core.bayes_acts_calls"] = count("core.bayes_acts")
    out["core.bayes_acts_s"] = inclusive("core.bayes_acts")
    out["stability.radius_calls"] = count("stability.robustness_radius")
    out["stability.radius_s"] = inclusive("stability.robustness_radius")
    out["stability.margin_evals"] = count("stability.worst_case_margin")
    out["stability.margin_evals_per_radius"] = (
        count("stability.worst_case_margin") / max(1, count("stability.robustness_radius")))
    out["stability.need_calls"] = count("stability.contamination_need")
    out["stability.need_s"] = inclusive("stability.contamination_need")
    out["stability.certificate_calls"] = count("stability.strict_inadmissibility_certificate")
    out["stability.certificate_s"] = inclusive("stability.strict_inadmissibility_certificate")

    solves = [s for s in spans if s[1] == "lp.solve_lp"]
    caller = {"stability.contamination_need": "need",
              "stability.strict_inadmissibility_certificate": "certificate",
              "lp.band_feasible_with_halfspaces": "feasibility"}
    by_kind = {kind: [] for kind in caller.values()}
    for s in solves:
        kind = caller.get(spans[s[0]][1]) if s[0] >= 0 else None
        if kind:
            by_kind[kind].append(s)
    need = by_kind["need"]
    out["stability.need_feasible_ratio"] = (
        sum(s[4]["status"] == "optimal" for s in need) / max(1, len(need)))
    out["lp.solve_s"] = inclusive("lp.solve_lp")
    for kind, group in by_kind.items():
        out[f"lp.solves_{kind}"] = len(group)
    out["lp.rows_per_solve"] = sum(s[4]["rows"] for s in solves) / max(1, len(solves))
    out["lp.vars_per_solve"] = sum(s[4]["vars"] for s in solves) / max(1, len(solves))
    out["lp.greedy_calls"] = count("lp.minimize_over_band")
    out["lp.greedy_s"] = inclusive("lp.minimize_over_band")
    out["selection.path_s"] = inclusive("selection.selection_path")
    out["selection.gamma_s"] = inclusive("selection.gamma_aggregate")
    out["selection.rex_s"] = inclusive("selection.rex_score")
    out["scenarios.features_s"] = inclusive("scenarios.monthly_features")
    out["scenarios.kmeans_s"] = inclusive("scenarios.kmeans_partition")
    out["scenarios.utility_matrix_s"] = inclusive("scenarios.utility_matrix")
    out["trace.spans"] = len(spans)
    return out


UNITS = {
    "io.bytes_written": "bytes",
    "stability.margin_evals_per_radius": "evals",
    "stability.need_feasible_ratio": "ratio",
    "lp.rows_per_solve": "rows",
    "lp.vars_per_solve": "vars",
    "trace.accounted_share": "ratio",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def write_spans(path: str, rounds) -> None:
    """One CSV line per span: round, id, parent, name, start_ns, end_ns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,id,parent,name,start_ns,end_ns\n")
        for r, spans in enumerate(rounds):
            for i, (parent, name, t0, t1, _) in enumerate(spans):
                fh.write(f"{r},{i},{parent},{name},{t0},{t1}\n")


def source_lines(package_dir: str) -> dict[str, int]:
    """Non-blank, non-comment source lines of each module of the package."""
    out = {}
    for fname in sorted(os.listdir(package_dir)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(package_dir, fname), encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
        key = fname[:-3].strip("_")
        out[f"{key}.loc"] = sum(1 for ln in lines if ln and not ln.startswith("#"))
    return out

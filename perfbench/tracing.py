"""Spans around ``harmonia``'s layer boundaries, recorded from outside the program.

``Tracer.install`` replaces each public function of a layer wherever a
``harmonia`` module binds it (``harmonia.placement.mutual_information``,
``harmonia.sweep.build_joint``, ...) and a few methods on their classes
(``JointTable.marginal``) with a wrapper that records a span: its id, the id
of the span that was open when it started (its cause), its name, its start,
its end and, for some spans, a size.  The program's source is not touched;
``uninstall`` puts every original back.

Spans are kept in memory.  The process writes them to
``spans-<pid>.csv`` in the trace directory when it uninstalls.  Pool workers
forked by ``harmonia.sweep.run_sweep`` inherit the wrappers; each worker
writes its spans whenever its outermost span closes, because a pool worker
is terminated without running exit handlers.  ``summarise`` reads every
file of the directory and derives the per-layer metrics; a layer's self time
is its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

#: (module, layer, functions) traced at every place a harmonia module binds them.
FUNCTIONS = (
    ("harmonia.generators", "generators",
     ("random_model", "derive_seed", "copy_model", "independent_model",
      "correlated_pair_counterexample")),
    ("harmonia.distributions", "distributions", ("build_joint", "check_factorization")),
    ("harmonia.information", "information",
     ("entropy", "mutual_information", "conditional_mutual_information",
      "chain_rule_residual", "is_markov_chain", "data_processing_gap")),
    ("harmonia.placement", "placement",
     ("stage_view", "remainder_predictability", "remainder_relation_checks",
      "verify_remainder_theorem", "verify_pending_theorem", "verify_irrelevance",
      "lattice_report", "placement_profile", "optimal_head_position")),
    ("harmonia.sweep", "sweep.battery", ("theorem_battery", "checks_for_joint")),
    ("harmonia.sweep", "sweep", ("run_sweep", "_battery_rows", "write_report", "write_witnesses")),
    ("harmonia.estimation", "estimation",
     ("sample", "next_element_score", "plug_in_mi", "empirical_joint")),
    ("harmonia.modelio", "modelio",
     ("load_any", "load_model", "load_joint", "save_model", "save_joint")),
    ("harmonia.cli", "cli", ("main",)),
)

#: (module, class, layer, methods) traced on the class itself.
METHODS = (
    ("harmonia.distributions", "JointTable", "distributions", ("marginal", "condition")),
    ("harmonia.estimation", "SampleSet", "estimation", ("to_csv",)),
)


def _file_bytes(out) -> int:
    out.flush()
    return os.fstat(out.fileno()).st_size


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


SPAN_HEADER = ("id", "parent", "name", "start_s", "end_s", "size")


class Tracer:
    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, size)
        self.stack: list[int] = []
        self.next_id = 0
        self.in_worker = False
        self.sweep_cpu = {"parent": 0.0, "workers": 0.0}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            before = size.before(args, kwargs) if size else None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                value = size.after(args, kwargs, before, result) if size else 0
                tracer.spans.append((sid, parent, name, start, end, value))
                if tracer.in_worker and not tracer.stack:
                    tracer.flush()

        return wrapper

    def _after_fork(self) -> None:
        # A forked pool worker starts with a copy of the parent's spans and
        # open stack; it keeps only its own.
        self.spans, self.stack, self.in_worker = [], [], True

    def flush(self) -> None:
        path = self.directory / f"spans-{os.getpid()}.csv"
        new = not path.exists()
        with open(path, "a", newline="") as f:
            writer = csv.writer(f)
            if new:
                writer.writerow(SPAN_HEADER)
            writer.writerows(self.spans)
        self.spans = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        import sys

        self.directory.mkdir(parents=True, exist_ok=True)
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "harmonia"]
        for module_name, layer, names in FUNCTIONS:
            home = sys.modules[module_name]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}:{fname}", original, _SIZES.get(fname))
                if fname == "run_sweep":
                    wrapper = self._with_cpu(wrapper)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for module_name, cls_name, layer, names in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            for mname in names:
                original = cls.__dict__[mname]
                self._restore.append((cls, mname, original))
                setattr(cls, mname, self._wrap(f"{layer}:{cls_name}.{mname}", original,
                                               _SIZES.get(mname)))
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
        self.flush()

    def _with_cpu(self, wrapper):
        tracer = self

        @functools.wraps(wrapper)
        def timed(*args, **kwargs):
            parent, workers = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            try:
                return wrapper(*args, **kwargs)
            finally:
                tracer.sweep_cpu["parent"] += _cpu(resource.RUSAGE_SELF) - parent
                tracer.sweep_cpu["workers"] += _cpu(resource.RUSAGE_CHILDREN) - workers

        return timed


class _Size:
    """How a span measures its size: bytes written to an output file, or a
    property of the returned value."""

    def __init__(self, out_arg=None, of_result=None):
        self.out_arg = out_arg
        self.of_result = of_result

    def before(self, args, kwargs):
        out = self._out(args, kwargs)
        return _file_bytes(out) if out is not None else 0

    def after(self, args, kwargs, before, result):
        if self.of_result is not None:
            return self.of_result(result) if result is not None else 0
        out = self._out(args, kwargs)
        return _file_bytes(out) - before if out is not None else 0

    def _out(self, args, kwargs):
        if self.out_arg is None:
            return None
        name, index = self.out_arg
        out = kwargs.get(name, args[index] if len(args) > index else None)
        return out if hasattr(out, "fileno") else None


_SIZES = {
    "build_joint": _Size(of_result=lambda joint: int(joint.probs.size)),
    "write_report": _Size(out_arg=("out", 1)),
    "to_csv": _Size(out_arg=("out", 1)),
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("generators.calls", "count"),
    ("generators.self_s", "s"),
    ("distributions.build_joint.calls", "count"),
    ("distributions.marginal.calls", "count"),
    ("distributions.joint_cells", "count"),
    ("distributions.self_s", "s"),
    ("information.calls", "count"),
    ("information.mi_calls", "count"),
    ("information.cmi_calls", "count"),
    ("information.self_s", "s"),
    ("placement.calls", "count"),
    ("placement.self_s", "s"),
    ("sweep.battery.self_s", "s"),
    ("sweep.battery_p50_ms", "ms"),
    ("sweep.battery_p99_ms", "ms"),
    ("sweep.write_report_s", "s"),
    ("sweep.report_bytes", "bytes"),
    ("sweep.parent_cpu_s", "s"),
    ("sweep.workers_cpu_s", "s"),
    ("estimation.sample_s", "s"),
    ("estimation.score_s", "s"),
    ("estimation.to_csv_s", "s"),
    ("estimation.csv_bytes", "bytes"),
    ("modelio.load_s", "s"),
    ("cli.self_s", "s"),
    ("trace_overhead_s", "s"),
)

#: Metrics that count work; the rest are times and sizes.
COUNTS = {name for name, unit in PER_LAYER if unit in ("count", "bytes")}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def read_spans(directory: Path) -> list[list[tuple]]:
    """The spans of every process that wrote into ``directory``, per process."""
    out = []
    for path in sorted(Path(directory).glob("spans-*.csv")):
        with open(path, newline="") as f:
            reader = csv.reader(f)
            next(reader)
            out.append([
                (int(i), int(p), name, float(s), float(e), int(v))
                for i, p, name, s, e, v in reader
            ])
    return out


def summarise(directory: Path, sweep_cpu: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round (all but ``trace_overhead_s``)."""
    calls: dict[str, int] = defaultdict(int)
    sizes: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    outer_s: dict[str, float] = defaultdict(float)
    battery_ms: list[float] = []
    for spans in read_spans(directory):
        by_id = {s[0]: s for s in spans}
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end, value in spans:
            if parent >= 0:
                covered[parent] += end - start
        for sid, parent, name, start, end, value in spans:
            layer, func = name.split(":")
            calls[name] += 1
            sizes[name] += value
            self_s[layer] += (end - start) - covered[sid]
            parent_layer = by_id[parent][2].split(":")[0] if parent in by_id else ""
            if parent_layer != layer:
                outer_s[name] += end - start
            if func == "theorem_battery":
                battery_ms.append((end - start) * 1000.0)

    def layer_calls(layer):
        return sum(c for name, c in calls.items() if name.split(":")[0] == layer)

    def outer(layer, *funcs):
        return sum(outer_s[f"{layer}:{f}"] for f in funcs)

    return {
        "generators.calls": layer_calls("generators"),
        "generators.self_s": self_s["generators"],
        "distributions.build_joint.calls": calls["distributions:build_joint"],
        "distributions.marginal.calls": calls["distributions:JointTable.marginal"],
        "distributions.joint_cells": sizes["distributions:build_joint"],
        "distributions.self_s": self_s["distributions"],
        "information.calls": layer_calls("information"),
        "information.mi_calls": calls["information:mutual_information"],
        "information.cmi_calls": calls["information:conditional_mutual_information"],
        "information.self_s": self_s["information"],
        "placement.calls": layer_calls("placement"),
        "placement.self_s": self_s["placement"],
        "sweep.battery.self_s": self_s["sweep.battery"],
        "sweep.battery_p50_ms": percentile(battery_ms, 50),
        "sweep.battery_p99_ms": percentile(battery_ms, 99),
        "sweep.write_report_s": outer("sweep", "write_report"),
        "sweep.report_bytes": sizes["sweep:write_report"],
        "sweep.parent_cpu_s": sweep_cpu["parent"],
        "sweep.workers_cpu_s": sweep_cpu["workers"],
        "estimation.sample_s": outer("estimation", "sample"),
        "estimation.score_s": outer("estimation", "next_element_score"),
        "estimation.to_csv_s": outer("estimation", "SampleSet.to_csv"),
        "estimation.csv_bytes": sizes["estimation:SampleSet.to_csv"],
        "modelio.load_s": outer("modelio", "load_any", "load_model", "load_joint"),
        "cli.self_s": self_s["cli"],
    }

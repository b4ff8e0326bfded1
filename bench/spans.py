"""Outside-in layer tracing for the ucsk benchmark.

The tracer replaces the public functions that each layer of ``ucsk`` is
entered through with thin wrappers, in every ``ucsk`` module namespace
that binds them (so ``ucsk.cli.design_constellation`` and
``ucsk.linksim.build_hypotheses`` are both caught), and restores them
afterwards.  Nothing inside the package is edited.

Each wrapper records a span: a name, a start, an end and the span that
was open when it began.  Spans stay in memory until the run ends.  A
span's self time is its duration minus the part of that interval its
direct child spans cover, so children running in parallel worker threads
are not subtracted twice.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# Span name -> (module, attribute[, method]) of the entry point it wraps.
ENTRY_POINTS = {
    "cli.io": [
        ("ucsk.cli", "write_curve_csv"),
        ("ucsk.cli", "write_constellation_json"),
    ],
    "optimizer.design": [("ucsk.optimizer", "design_constellation")],
    "optimizer.minimize": [("ucsk.optimizer", "minimize")],
    "colorimetry.nearest_boundary": [
        ("ucsk.colorimetry", "GamutPolygon", "nearest_boundary")
    ],
    "colorimetry.solve_fluxes": [("ucsk.colorimetry", "solve_fluxes")],
    "constellation.build": [("ucsk.constellation", "build_constellation")],
    "channel.path_loss": [("ucsk.channel", "path_loss")],
    "linksim.build_hypotheses": [("ucsk.linksim", "build_hypotheses")],
    "linksim.simulate_ser": [("ucsk.linksim", "simulate_ser")],
    "linksim.detect_ml": [("ucsk.linksim", "detect_ml")],
    "linksim.ndtri": [("ucsk.linksim", "ndtri")],
    "linksim.mutual_information": [("ucsk.linksim", "mutual_information")],
    "linksim.logsumexp": [("ucsk.linksim", "logsumexp")],
    "linksim.union_bound": [("ucsk.linksim", "union_bound_ser")],
}

# Root span the benchmark opens around each ``ucsk.cli.main(argv)`` call.
ROOT = "cli"
# Span opened around the objective that ``minimize`` is handed.
OBJECTIVE = "optimizer.objective"

# Per-layer metric -> (unit, how it is derived).  ("calls"|"s"|"self_s",
# span) reads a span aggregate; ("counter", key) reads a counter.
LAYER_METRICS = {
    "cli.self_s": ("s", ("self_s", ROOT)),
    "cli.io_s": ("s", ("s", "cli.io")),
    "optimizer.design.calls": ("count", ("calls", "optimizer.design")),
    "optimizer.design.s": ("s", ("s", "optimizer.design")),
    "optimizer.minimize.calls": ("count", ("calls", "optimizer.minimize")),
    "optimizer.minimize.self_s": ("s", ("self_s", "optimizer.minimize")),
    "optimizer.iterations": ("count", ("counter", "iterations")),
    "optimizer.objective.calls": ("count", ("calls", OBJECTIVE)),
    "optimizer.objective.self_s": ("s", ("self_s", OBJECTIVE)),
    "optimizer.starts": ("count", ("counter", "starts")),
    "optimizer.starts_feasible_ratio": ("ratio", ("ratio", "starts_converged", "starts")),
    "colorimetry.nearest_boundary.calls": ("count", ("calls", "colorimetry.nearest_boundary")),
    "colorimetry.nearest_boundary.s": ("s", ("s", "colorimetry.nearest_boundary")),
    "colorimetry.solve_fluxes.calls": ("count", ("calls", "colorimetry.solve_fluxes")),
    "constellation.build.calls": ("count", ("calls", "constellation.build")),
    "constellation.build.s": ("s", ("s", "constellation.build")),
    "channel.path_loss.calls": ("count", ("calls", "channel.path_loss")),
    "linksim.build_hypotheses.calls": ("count", ("calls", "linksim.build_hypotheses")),
    "linksim.simulate_ser.s": ("s", ("s", "linksim.simulate_ser")),
    "linksim.simulate_ser.self_s": ("s", ("self_s", "linksim.simulate_ser")),
    "linksim.detect_ml.calls": ("count", ("calls", "linksim.detect_ml")),
    "linksim.detect_ml.s": ("s", ("s", "linksim.detect_ml")),
    "linksim.ndtri.s": ("s", ("s", "linksim.ndtri")),
    "linksim.mutual_information.s": ("s", ("s", "linksim.mutual_information")),
    "linksim.mutual_information.self_s": ("s", ("self_s", "linksim.mutual_information")),
    "linksim.logsumexp.s": ("s", ("s", "linksim.logsumexp")),
    "linksim.union_bound.s": ("s", ("s", "linksim.union_bound")),
    "linksim.symbols": ("count", ("counter", "symbols")),
    "linksim.mi_samples": ("count", ("counter", "mi_samples")),
}


class Recorder:
    """In-memory span store.

    Spans are tuples ``(id, name, parent_id, start, end)``; times come
    from ``time.perf_counter``.  Each thread keeps its own stack of open
    spans.  A span begun on a thread with no open span (a worker of the
    package's chunk pool) takes the innermost open span of the thread
    that created the recorder as its parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.root_labels: dict[int, str] = {}
        self.root_counters: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._root_label = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._span(name, None, fn, args, kwargs)

    def root(self, label: str, fn, *args):
        """Run one top-level call as a ``cli`` span labelled ``label``."""
        self._root_label = label
        return self._span(ROOT, label, fn, args, {})

    def _span(self, name, label, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else 0
        span_id = next(self._ids)
        if label is not None:
            self.root_labels[span_id] = label
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, parent, start, end))

    def count(self, key: str, amount: int) -> None:
        """Add to a counter, in total and for the current top-level call."""
        self.counters[key] += int(amount)
        self.root_counters[self._root_label][key] += int(amount)


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its direct
    children's intervals, clipped to its own interval."""
    children = defaultdict(list)
    for span_id, _, parent, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end in spans:
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted(children.get(span_id, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[span_id] = (end - start) - covered
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed duration and summed self time."""
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for span_id, name, _, start, end in spans:
        row = agg[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += selfs[span_id]
    return agg


def layer_metrics(spans, counters) -> dict[str, float]:
    """Every per-layer metric of LAYER_METRICS for one set of spans."""
    agg = aggregate(spans)
    out = {}
    for metric, (_, source) in LAYER_METRICS.items():
        kind = source[0]
        if kind == "counter":
            out[metric] = counters.get(source[1], 0)
        elif kind == "ratio":
            den = counters.get(source[2], 0)
            out[metric] = counters.get(source[1], 0) / den if den else 0.0
        else:
            row = agg.get(source[1], {"calls": 0, "s": 0.0, "self_s": 0.0})
            out[metric] = row[kind]
    return out


def per_root(spans, root_labels) -> dict[str, dict[str, int]]:
    """Span counts broken down by the top-level call each span belongs to."""
    parent_of = {s[0]: s[2] for s in spans}
    root_of: dict[int, int] = {}

    def find(span_id: int) -> int:
        path = []
        while span_id not in root_labels and span_id in parent_of:
            if span_id in root_of:
                span_id = root_of[span_id]
                break
            path.append(span_id)
            span_id = parent_of[span_id]
        for p in path:
            root_of[p] = span_id
        return span_id

    out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span_id, name, _, _, _ in spans:
        label = root_labels.get(find(span_id))
        if label is not None:
            out[label][name] += 1
    return out


def write_spans(path, passes) -> None:
    """Write the spans of every traced pass as gzip'd JSON lines."""
    with gzip.open(path, "wt") as fh:
        for index, rec in enumerate(passes):
            for span_id, name, parent, start, end in rec.spans:
                fh.write(
                    json.dumps(
                        {"pass": index, "id": span_id, "name": name,
                         "parent": parent, "start": start, "end": end}
                    )
                    + "\n"
                )


class Tracer:
    """Installs span-recording wrappers on the ucsk entry points."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._restore: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def install(self) -> None:
        for name, targets in ENTRY_POINTS.items():
            for target in targets:
                self._install_one(name, target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install_one(self, name: str, target: tuple) -> None:
        module = sys.modules.get(target[0])
        owner = module
        for attr in target[1:-1]:
            owner = getattr(owner, attr, None)
        original = getattr(owner, target[-1], None) if owner is not None else None
        if original is None:
            self.missing.add(".".join(target))
            return
        wrapper = self._wrapper(name, original)
        if owner is not module:  # a method: patch the class once
            self._patch(owner, target[-1], original, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ucsk" or mod_name.startswith("ucsk.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _wrapper(self, name: str, original):
        rec = self.rec
        if name == "optimizer.minimize":
            def minimize(fun, x0, *args, **kwargs):
                def objective(*a, **k):
                    return rec.call(OBJECTIVE, fun, *a, **k)
                res = rec.call(name, original, objective, x0, *args, **kwargs)
                rec.count("iterations", getattr(res, "nit", 0))
                return res
            return minimize
        hook = _HOOKS.get(name)
        if hook is None:
            def wrapped(*args, **kwargs):
                return rec.call(name, original, *args, **kwargs)
            return wrapped
        sig = inspect.signature(original)

        def hooked(*args, **kwargs):
            result = rec.call(name, original, *args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                hook(rec, bound.arguments, result)
            except (KeyError, AttributeError, TypeError):
                # The entry point's signature or result changed; the
                # counter stays short and the run says so.
                self.missing.add(f"{name} counters")
            return result
        return hooked


def _design_hook(rec: Recorder, arguments, result) -> None:
    rec.count("starts", arguments["cfg"].multistart_count)
    rec.count("starts_converged", result.starts_converged)


def _ser_hook(rec: Recorder, arguments, result) -> None:
    rec.count("symbols", arguments["n_symbols"] * len(list(arguments["snr_db_grid"])))


def _mi_hook(rec: Recorder, arguments, result) -> None:
    rec.count("mi_samples", arguments["n_samples"])


_HOOKS = {
    "optimizer.design": _design_hook,
    "linksim.simulate_ser": _ser_hook,
    "linksim.mutual_information": _mi_hook,
}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes (counts repeat exactly)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

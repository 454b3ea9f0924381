"""In-process tracer for the per-layer metrics.

The tracer wraps shopdialog's public functions from outside: for each target
it replaces the module attribute in every shopdialog module that imported the
name (so `engine.items_in_region`, `evalhub.items_in_region` and
`catalog.items_in_region` all record).  Each call becomes a span (name,
start, end, parent, dialog id) kept in memory; a layer's self time is its
span minus its children's spans.

Limits of tracing from outside: spans recorded inside `--jobs N` pool workers
stay in the forked worker and are lost (no workload traces `--jobs N`), and
the forced-RECOMMEND_ITEM fallback inside `eligible_acts` has no
public boundary to observe.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

TARGETS = {
    "catalog": ("load_catalog", "scene_value_universe", "items_in_region"),
    "ontology": ("load_ontology", "concepts_for_value", "spd_oracle"),
    "engine": ("new_session", "salesperson_step", "customer_step", "apply_turn", "flow_to_dict",
               "write_flows", "read_flows", "flow_from_dict", "generate_corpus"),
    "realizer": ("load_templates", "realize_corpus", "realize_dialog", "realize_turn", "item_description"),
    "evalhub": ("build_gold", "corpus_stats", "split_corpus", "read_predictions", "write_predictions",
                "eval_set_task", "eval_set_task_macro", "eval_act", "eval_recommend", "eval_response",
                "extract_item_ids"),
}
MODULES = ("cli", "engine", "catalog", "ontology", "realizer", "evalhub")
GOLD_TASKS = ("spd", "rru", "act", "recommend", "response")

# Per-layer metrics with their units.  Layer_metrics() gives all of them for
# one traced pass except the dialog percentiles and their sample count, which
# pool the dialogs of several passes.
LAYER_UNITS: dict[str, str] = {
    "engine.dialog.p50_ms": "ms", "engine.dialog.p99_ms": "ms",
    "engine.dialog.samples": "count", "engine.dialog.self_s": "s",
    **{f"engine.{f}.{k}": u for f in ("new_session", "salesperson_step", "customer_step", "apply_turn")
       for k, u in (("calls", "count"), ("s", "s"))},
    "engine.customer_step.retries": "count",
    "engine.useful_step_ratio": "ratio",
    "engine.rounds_per_dialog": "count",
    "engine.accepted_ratio": "ratio",
    "engine.flow_to_dict.s": "s",
    "engine.write_flows.self_s": "s",
    "engine.read_flows.s": "s", "engine.read_flows.self_s": "s", "engine.read_flows.mb_per_s": "MB/s",
    "engine.flow_from_dict.s": "s",
    "realizer.load_templates.s": "s", "realizer.realize_corpus.s": "s",
    **{f"realizer.{f}.{k}": u for f in ("realize_dialog", "realize_turn", "item_description")
       for k, u in (("calls", "count"), ("s", "s"))},
    **{f"evalhub.build_gold.{t}.s": "s" for t in GOLD_TASKS},
    "evalhub.corpus_stats.s": "s", "evalhub.split_corpus.s": "s",
    "evalhub.read_predictions.calls": "count", "evalhub.read_predictions.s": "s",
    "evalhub.write_predictions.s": "s",
    **{f"evalhub.{f}.s": "s" for f in ("eval_set_task", "eval_set_task_macro", "eval_act", "eval_recommend")},
    "evalhub.eval_response.s": "s", "evalhub.eval_response.pairs": "count",
    "evalhub.extract_item_ids.calls": "count",
    "catalog.load_catalog.s": "s", "ontology.load_ontology.s": "s",
    **{f"{m}.{f}.{k}": u for m, f in (("catalog", "scene_value_universe"), ("catalog", "items_in_region"),
                                      ("ontology", "concepts_for_value"), ("ontology", "spd_oracle"))
       for k, u in (("calls", "count"), ("s", "s"))},
}

NAME, START, END, PARENT, DIALOG = range(5)


class Tracer:
    """Records spans in memory while installed; `install()` patches, `uninstall()` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._dialog: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._dialog])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers
    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "evalhub.build_gold":
                span_name = f"{name}.{(args[3] if len(args) > 3 else kwargs['task']).lower()}"
            elif name == "engine.read_flows":
                tracer.counters["engine.read_flows.bytes"] += os.path.getsize(args[0])
            elif name == "evalhub.eval_response":
                tracer.counters["evalhub.eval_response.pairs"] += len(args[1])
            idx = tracer.open(span_name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.counters[f"{name}.raised"] += 1
                raise
            finally:
                tracer.close(idx)

        return traced

    def _wrap_generate_corpus(self, fn):
        """Time each next() of the corpus generator: one dialog at --jobs 1, a wait on workers otherwise."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            jobs = kwargs.get("jobs", args[5] if len(args) > 5 else 1)
            name = "engine.dialog" if jobs <= 1 else "engine.generate_corpus.wait"
            gen = fn(*args, **kwargs)
            index = 0
            while True:
                tracer._dialog = f"d{index:05d}"
                idx = tracer.open(name)
                try:
                    flow = next(gen)
                except StopIteration:
                    tracer.spans[idx][NAME] = "engine.generate_corpus.wait"
                    return
                finally:
                    tracer.close(idx)
                    tracer._dialog = None
                tracer.counters["engine.dialogs"] += 1
                tracer.counters["engine.accepted"] += flow.outcome == "success"
                index += 1
                yield flow

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"shopdialog.{m}") for m in MODULES]
        for home, names in TARGETS.items():
            home_mod = importlib.import_module(f"shopdialog.{home}")
            for attr in names:
                orig = getattr(home_mod, attr)
                name = f"{home}.{attr}"
                wrapper = self._wrap_generate_corpus(orig) if name == "engine.generate_corpus" else self._wrap(name, orig)
                for mod in modules:
                    if mod.__dict__.get(attr) is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Spans as TSV: index, name, start_s, end_s (from the first span), parent, dialog id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tdialog_id\n")
            for i, (name, start, end, parent, dialog) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.7f}\t{end - t0:.7f}\t{parent}\t{dialog or ''}\n")

    # -- metrics
    def layer_metrics(self) -> dict[str, float]:
        dur = [s[END] - s[START] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for i, s in enumerate(self.spans):
            total[s[NAME]] += dur[i]
            self_s[s[NAME]] += dur[i] - child[i]
            calls[s[NAME]] += 1
        c = self.counters
        m: dict[str, float] = {}
        for name in LAYER_UNITS:
            base, _, kind = name.rpartition(".")
            if kind == "s":
                m[name] = total[base]
            elif kind == "self_s":
                m[name] = self_s[base]
            elif kind == "calls":
                m[name] = calls[base]
        m["engine.customer_step.retries"] = c["engine.customer_step.raised"]
        sales = calls["engine.salesperson_step"]
        m["engine.useful_step_ratio"] = (calls["engine.customer_step"] - c["engine.customer_step.raised"]) / sales if sales else 0.0
        dialogs = c["engine.dialogs"]
        m["engine.rounds_per_dialog"] = calls["engine.apply_turn"] / dialogs if dialogs else 0.0
        m["engine.accepted_ratio"] = c["engine.accepted"] / dialogs if dialogs else 0.0
        read_s = total["engine.read_flows"]
        m["engine.read_flows.mb_per_s"] = c["engine.read_flows.bytes"] / 1e6 / read_s if read_s else 0.0
        m["evalhub.eval_response.pairs"] = c["evalhub.eval_response.pairs"]
        return m

    def dialog_ms(self) -> list[float]:
        return [(s[END] - s[START]) * 1000.0 for s in self.spans if s[NAME] == "engine.dialog"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}

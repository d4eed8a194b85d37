"""Span recording around the package's public functions, and self times.

``install`` replaces each function in ``WRAPPED`` by a wrapper that records
a span: name, start, end, parent span and thread. Every reference to the
original function held in a module global of the package, or in a dict that
is a module global (such as ``metrics.CORRELATIONS``, filled at import
time), is replaced too; the returned callable puts the originals back.

Spans live in memory until the command ends. A span opened on a thread that
has no open span of its own (a pool worker of ``gateway.complete_batch``)
takes as parent the innermost open span of the main thread, which is the
call that is blocked on the pool.

Per-element functions called millions of times (``icd.icd_distance``,
``icd.lca``) are deliberately not wrapped; their work is counted from the
values the wrapped callers return instead.
"""
from __future__ import annotations

import collections
import hashlib
import importlib
import inspect
import itertools
import pkgutil
import threading
import time

import numpy as np

import ehrbench


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _kmeans_counts(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n, d = np.shape(a["embeddings"])
    iters = result.iterations_run
    return {"icd.kmeans_iters": iters,
            "icd.kmeans_dist_bytes": iters * n * a["k"] * d * 8}


def _distance_counts(fn, args, kwargs, result):
    sizes = collections.Counter(_bound(fn, args, kwargs)["assignment"].labels)
    return {"icd.distance_pairs": sum(c * (c - 1) // 2 for c in sizes.values())}


def _icl_counts(fn, args, kwargs, result):
    block = hashlib.sha256(repr(result).encode("utf-8")).hexdigest()[:16]
    return {"prompts.icl_synth_calls": 1, "icl_block": block}


# wrapped function -> (time metric its self time adds to, counter or None).
# A counter gets (function, args, kwargs, result) and returns span attributes.
WRAPPED = {
    "ehr.load_catalog": ("ehr.load_s", None),
    "ehr.load_cohort": ("ehr.load_s",
                        lambda f, a, k, r: {"ehr.records": len(r.records)}),
    "ehr.split_cohort": ("ehr.split_s", None),
    "prompts.icl_spec_from_cohort": ("prompts.icl_spec_s", None),
    "prompts.build_prompt": (
        "prompts.render_s",
        lambda f, a, k, r: {"prompts.prompt_chars": len(r.text)}),
    "prompts.synthesize_icl_examples": ("prompts.icl_synth_s", _icl_counts),
    "gateway.complete_batch": ("gateway.batch_s", None),
    "gateway.complete": ("gateway.batch_s",
                         lambda f, a, k, r: {"gateway.requests": 1}),
    "gateway.decode_probability": (
        "gateway.decode_s",
        lambda f, a, k, r: {"gateway.decodes": 1,
                            "gateway.decoded": int(r.status == "decoded")}),
    "gateway.missing_rate": ("gateway.decode_s", None),
    "gateway.embed": (
        "gateway.embed_s",
        lambda f, a, k, r: {"gateway.embed_texts": len(r)}),
    "metrics.bootstrap": (
        "metrics.bootstrap_s",
        lambda f, a, k, r: {"metrics.resamples": r.n_resamples}),
    "metrics.auroc": ("metrics.auroc_s",
                      lambda f, a, k, r: {"metrics.metric_calls": 1}),
    "metrics.auprc": ("metrics.auprc_s",
                      lambda f, a, k, r: {"metrics.metric_calls": 1}),
    "metrics.sentence_matching_eval": ("metrics.grid_s", None),
    "metrics.pearson": ("metrics.pearson_s", None),
    "metrics.spearman": ("metrics.spearman_s", None),
    "metrics.kendall": ("metrics.kendall_s", None),
    "icd.parse_order_file": ("icd.parse_s", None),
    "icd.filter_broad_codes": ("icd.parse_s", None),
    "icd.build_tree": ("icd.tree_s", None),
    "icd.hierarchy_benchmark": ("icd.sweep_s", None),
    "icd.kmeans": ("icd.kmeans_s", _kmeans_counts),
    "icd.avg_code_distance": ("icd.distance_s", _distance_counts),
}
ROOT_SPAN = "cli.main"
ROOT_METRIC = "cli.self_s"

Span = collections.namedtuple(
    "Span", "id parent name start_ns end_ns thread error attrs")


class Recorder:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.get_ident()

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            parent = self._main_stack[-1][0] if self._main_stack else None
        frame = (next(self._ids), parent, name, time.perf_counter_ns())
        stack.append(frame)
        return frame

    def close(self, frame, end=None, error=None, attrs=None):
        if end is None:
            end = time.perf_counter_ns()
        self._stack().pop()
        span_id, parent, name, start = frame
        self.spans.append(Span(span_id, parent, name, start, end,
                               threading.get_ident(), error, attrs or {}))

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        return _wrap(self, name, fn, None)(*args, **kwargs)


def _wrap(recorder, name, fn, counter):
    def wrapper(*args, **kwargs):
        frame = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.close(frame, error=type(exc).__name__)
            raise
        end = time.perf_counter_ns()
        # counting runs outside the span, so the span times only the call
        attrs = counter(fn, args, kwargs, result) if counter else None
        recorder.close(frame, end=end, attrs=attrs)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def install(recorder):
    """Wrap every function in WRAPPED; returns a callable that undoes it."""
    modules = [importlib.import_module(f"ehrbench.{info.name}")
               for info in pkgutil.iter_modules(ehrbench.__path__)]
    wrappers = {}
    for qualname, (_, counter) in WRAPPED.items():
        mod_name, attr = qualname.split(".")
        fn = getattr(importlib.import_module(f"ehrbench.{mod_name}"), attr)
        wrappers[id(fn)] = (fn, _wrap(recorder, qualname, fn, counter))
    undo = []
    for module in modules:
        tables = [v for k, v in vars(module).items()
                  if isinstance(v, dict) and not k.startswith("__")]
        for container in [vars(module), *tables]:
            for key, value in list(container.items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if value is original:
                    container[key] = wrapper
                    undo.append((container, key, value))

    def restore():
        for container, key, value in reversed(undo):
            container[key] = value

    return restore


def self_times(spans):
    """Wall-clock seconds attributed to each span name.

    At every instant the innermost open spans (those with no open child)
    share the elapsed time equally, so the result partitions the time
    covered by the outermost spans exactly, concurrent spans included.
    """
    events = []
    for s in spans:
        events.append((s.start_ns, 0, s.id, s))
        events.append((s.end_ns, 1, -s.id, s))
    events.sort(key=lambda e: e[:3])
    by_id = {s.id: s for s in spans}
    open_children = collections.Counter()
    active, innermost = set(), set()
    totals = collections.defaultdict(float)
    last = None
    for t, kind, _, s in events:
        if innermost:
            share = (t - last) / len(innermost) / 1e9
            for span_id in innermost:
                totals[by_id[span_id].name] += share
        last = t
        if kind == 0:
            active.add(s.id)
            innermost.discard(s.parent)
            open_children[s.parent] += 1
            if not open_children[s.id]:
                innermost.add(s.id)
        else:
            active.discard(s.id)
            innermost.discard(s.id)
            open_children[s.parent] -= 1
            if s.parent in active and not open_children[s.parent]:
                innermost.add(s.parent)
    return dict(totals)


def layer_times(spans):
    """Self seconds per time metric of WRAPPED, plus the root's own time."""
    metric_of = {name: metric for name, (metric, _) in WRAPPED.items()}
    metric_of[ROOT_SPAN] = ROOT_METRIC
    out = collections.defaultdict(float)
    for name, seconds in self_times(spans).items():
        out[metric_of[name]] += seconds
    return dict(out)

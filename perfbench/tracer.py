"""Span recorder for the traced benchmark run.

The program itself carries no instrumentation for this benchmark: the
tracer wraps the public entry points of each layer (and two private hooks
of the service, to link a request to the micro-batch that served it) from
the outside, records one span per call in memory, and writes the spans to
disk when the run ends.

A span is ``(id, parent, name, start, end, root)``.  ``parent`` is the
enclosing span on the same thread (0 at top level); ``root`` is the id of
the training step or service request the span belongs to (``None`` outside
both).  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Span = Tuple[int, int, str, float, float, object]

#: Module-level functions wrapped wherever a module holds a reference.
FUNCTION_SPANS = (
    ("repro.datasets.zoo", "load_dataset", "datasets.generate"),
    ("repro.datasets.splits", "split_edges", "datasets.split"),
    ("repro.core.loss", "skip_gram_loss", "core.loss"),
    ("repro.eval.link_prediction", "evaluate_link_prediction", "eval.link_prediction"),
    ("repro.core.persistence", "export_embeddings", "persistence.export"),
    ("repro.core.persistence", "load_embeddings", "persistence.load"),
)

#: Class methods wrapped in place: (module, class, attribute, span name).
METHOD_SPANS = (
    ("repro.core.model", "HybridGNN", "__init__", "core.model_init"),
    ("repro.core.trainer", "SkipGramTrainer", "__init__", "core.trainer_init"),
    ("repro.core.trainer", "SkipGramTrainer", "generate_pairs", "sampling.pairs"),
    ("repro.core.trainer", "SkipGramTrainer", "make_batches", "sampling.batches"),
    ("repro.sampling.negative", "UnigramNegativeSampler", "sample_like", "sampling.negatives"),
    ("repro.core.model", "HybridGNN", "forward", "core.forward"),
    ("repro.core.model", "HybridGNN", "relation_embedding", "core.relation_embedding"),
    ("repro.core.model", "HybridGNN", "node_embeddings", "core.node_embeddings"),
    ("repro.core.hybrid_aggregation", "MetapathFlow", "forward", "core.metapath_flow"),
    ("repro.core.hybrid_aggregation", "ExplorationFlow", "forward", "core.exploration_flow"),
    ("repro.core.hierarchical_attention", "MetapathLevelAttention", "forward",
     "core.metapath_attention"),
    ("repro.core.hierarchical_attention", "RelationshipLevelAttention", "forward",
     "core.relationship_attention"),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward"),
    ("repro.nn.optim", "Adam", "step", "nn.optim_step"),
    ("repro.nn.optim", "Optimizer", "zero_grad", "nn.zero_grad"),
    ("repro.serving.engine", "BatchServingEngine", "topk_batch", "serving.engine_topk"),
    ("repro.serving.engine", "BatchServingEngine", "similar_topk", "serving.engine_similar"),
    ("repro.serving.engine", "RelationEmbeddingCache", "table", "serving.cache_table"),
    ("repro.serving.deltas", "DeltaGraphView", "csr", "serving.delta_csr"),
    ("repro.serving.deltas", "DeltaGraphView", "add_edge", "serving.add_edge"),
    ("repro.serving.deltas", "DeltaGraphView", "compact", "serving.compact"),
    ("repro.serving.service", "RecommendService", "_execute", "service.execute"),
)

#: Spans inside a service batch that count as work, not waiting.
SERVICE_WORK = {
    "serving.engine_topk", "serving.engine_similar", "serving.delta_csr",
    "serving.add_edge", "serving.compact",
}


class Tracer:
    """Records spans and per-step counters while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.extras: Dict[int, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []
        self._pending_rid: Dict[object, object] = {}
        # Training-step counters (the trainer runs on one thread).
        self._step_ids = itertools.count(1)
        self.steps = 0
        self.pairs_generated = 0
        self.embedding_lookups = 0
        self.lookup_rows = 0
        self.rows_updated = 0
        self._row_masks: Dict[int, np.ndarray] = {}
        self._embedding_weights: Dict[int, object] = {}
        self.enabled = True

    @contextlib.contextmanager
    def paused(self):
        """Leave the calls made inside (the output checks) unrecorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- span recording -----------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.root = None
        return local

    def _record(self, name: str, fn, args, kwargs, extra=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        local = self._state()
        parent = local.stack[-1] if local.stack else 0
        sid = next(self._ids)
        local.stack.append(sid)
        root = local.root
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            local.stack.pop()
            self.spans.append((sid, parent, name, start, end, root))
            if extra is not None:
                self.extras[sid] = extra

    def request(self, rid, fn, *args):
        """Run one client request as a root span ``serve.request``."""
        local = self._state()
        local.root = rid
        try:
            return self._record("serve.request", fn, args, {})
        finally:
            local.root = None

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for module_name, attr, name in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            self._patch_function(original, self._span_wrapper(original, name))
        for module_name, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[attr]
            self._patch_attr(cls, attr, self._method_wrapper(original, name))
        from repro.nn.layers import Embedding
        from repro.serving.service import RecommendService

        self._patch_attr(Embedding, "forward",
                         self._embedding_wrapper(vars(Embedding)["forward"]))
        self._patch_attr(RecommendService, "_admit",
                         self._admit_wrapper(vars(RecommendService)["_admit"]))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        self._pending_rid.clear()

    def _patch_attr(self, owner, attr, value) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _patch_function(self, original, wrapper) -> None:
        """Rebind every module-level reference to ``original``."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patch_attr(module, key, wrapper)

    def _span_wrapper(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._record(name, original, args, kwargs)

        return wrapper

    def _method_wrapper(self, original, name):
        tracer = self
        if name == "sampling.pairs":
            @functools.wraps(original)
            def count_pairs(*args, **kwargs):
                pairs = tracer._record(name, original, args, kwargs)
                if tracer.enabled:
                    tracer.pairs_generated += sum(len(p) for p in pairs.values())
                return pairs
            return count_pairs
        if name == "service.execute":
            @functools.wraps(original)
            def execute(service, key, items):
                rids = [tracer._pending_rid.pop(item, None) for item in items]
                return tracer._record(name, original, (service, key, items), {},
                                      extra=(key[0], rids))
            return execute
        return self._span_wrapper(original, name)

    def _admit_wrapper(self, original):
        tracer = self

        @functools.wraps(original)
        def admit(service, key, payloads):
            requests = original(service, key, payloads)
            if tracer.enabled:
                rid = tracer._state().root
                for request in requests:
                    tracer._pending_rid[request] = rid
            return requests

        return admit

    def _embedding_wrapper(self, original):
        tracer = self

        @functools.wraps(original)
        def forward(embedding, indices):
            if tracer.enabled and tracer._state().root is not None:
                tracer.embedding_lookups += 1
                weight = embedding.weight
                mask = tracer._row_masks.get(id(weight))
                if mask is None:
                    mask = np.zeros(weight.data.shape[0], dtype=bool)
                    tracer._row_masks[id(weight)] = mask
                    tracer._embedding_weights[id(weight)] = weight
                mask[np.asarray(indices).ravel()] = True
            return original(embedding, indices)

        return forward

    # -- training steps (called by the workloads' StepClock) -----------
    def begin_step(self) -> None:
        """A training step starts: the spans until :meth:`end_step` share its id."""
        if self.enabled:
            self._state().root = ("step", next(self._step_ids))

    def end_step(self, optimizer) -> None:
        """A training step ended with ``optimizer.step()``: count its rows."""
        if not self.enabled:
            return
        self._state().root = None
        self.steps += 1
        self.rows_updated += sum(
            param.data.shape[0] for param in optimizer.params
            if param.grad is not None and id(param) in self._embedding_weights
        )
        for mask in self._row_masks.values():
            self.lookup_rows += int(mask.sum())
            mask[:] = False

    # -- output -------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for sid, parent, name, start, end, root in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end,
                    "root": list(root) if isinstance(root, tuple) else root,
                }) + "\n")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, outcome) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    ``outcome`` is the traced workload's :class:`workloads.Outcome`: it
    carries the positive pairs stepped, each service request's client-side
    latency and the service's own counters (cache hits, compactions, batch
    sizes) read after the run.
    """
    request_ms = outcome.request_ms
    duration: Dict[int, float] = {}
    child_sum: Dict[int, float] = defaultdict(float)
    children: Dict[int, List[int]] = defaultdict(list)
    by_name: Dict[str, List[int]] = defaultdict(list)
    names: Dict[int, str] = {}
    for sid, parent, name, start, end, _root in tracer.spans:
        duration[sid] = end - start
        child_sum[parent] += end - start
        children[parent].append(sid)
        by_name[name].append(sid)
        names[sid] = name

    def total(name: str) -> float:
        return float(sum(duration[s] for s in by_name[name]))

    def self_total(name: str) -> float:
        return float(sum(duration[s] - child_sum[s] for s in by_name[name]))

    def per_call_median(name: str) -> float:
        return _median([duration[s] for s in by_name[name]])

    def ratio(num: float, den: float) -> float:
        return float(num) / den if den else 0.0

    steps = tracer.steps
    out = {
        "datasets.generate_s": per_call_median("datasets.generate"),
        "datasets.split_s": per_call_median("datasets.split"),
        "core.model_init_s": (per_call_median("core.model_init")
                              + per_call_median("core.trainer_init")),
        "sampling.pairs_s": total("sampling.pairs"),
        "sampling.batches_s": total("sampling.batches"),
        "sampling.pairs_used_frac": ratio(outcome.pairs_stepped, tracer.pairs_generated),
        "sampling.negatives_s": total("sampling.negatives"),
        "core.forward_s": total("core.forward"),
        "core.metapath_flow_s": total("core.metapath_flow"),
        "core.exploration_flow_s": total("core.exploration_flow"),
        "core.metapath_attention_s": total("core.metapath_attention"),
        "core.relationship_attention_s": total("core.relationship_attention"),
        "core.loss_s": total("core.loss"),
        "core.node_embeddings_s": total("core.node_embeddings"),
        "core.relation_embedding_calls_per_forward": ratio(
            len(by_name["core.relation_embedding"]), len(by_name["core.forward"])),
        "nn.backward_s": total("nn.backward"),
        "nn.optim_step_s": total("nn.optim_step"),
        "nn.zero_grad_s": total("nn.zero_grad"),
        "nn.embedding_lookups_per_step": ratio(tracer.embedding_lookups, steps),
        "nn.lookup_rows_per_step": ratio(tracer.lookup_rows, steps),
        "nn.param_rows_updated_per_step": ratio(tracer.rows_updated, steps),
        "nn.update_useful_frac": ratio(tracer.lookup_rows, tracer.rows_updated),
        "eval.link_prediction_s": self_total("eval.link_prediction"),
        "persistence.export_write_s": self_total("persistence.export"),
        "persistence.load_s": total("persistence.load"),
        "serving.engine_topk_s": total("serving.engine_topk"),
        "serving.engine_similar_s": total("serving.engine_similar"),
        "serving.cache_table_s": total("serving.cache_table"),
        "serving.delta_csr_s": total("serving.delta_csr"),
        "serving.delta_csr_calls": float(len(by_name["serving.delta_csr"])),
        "serving.add_edge_s": total("serving.add_edge"),
        "serving.compact_s": total("serving.compact"),
    }

    # Service requests: link each to the batch that executed it.
    served_by: Dict[object, int] = {}
    batch_start = {
        sid: start for sid, _parent, name, start, _end, _root in tracer.spans
        if name == "service.execute"
    }
    batches = sorted(batch_start, key=batch_start.get)
    previous_endpoint: Dict[int, Optional[str]] = {}
    last = None
    for sid in batches:
        endpoint, rids = tracer.extras[sid]
        previous_endpoint[sid] = last
        last = endpoint
        for rid in rids:
            served_by[rid] = sid
    waits, after_write, after_read = [], [], []
    for sid, _parent, name, start, end, root in tracer.spans:
        if name != "serve.request" or root not in served_by:
            continue
        batch = served_by[root]
        work = sum(duration[c] for c in children[batch] if names[c] in SERVICE_WORK)
        waits.append(1000.0 * (end - start - work))
        endpoint = tracer.extras[batch][0]
        if endpoint != "feedback" and root in request_ms:
            previous = previous_endpoint[batch]
            (after_write if previous == "feedback" else after_read).append(request_ms[root])
    out["serving.read_after_write_ms_p50"] = _median(after_write)
    out["serving.read_after_read_ms_p50"] = _median(after_read)
    out["serving.queue_wait_ms_p50"] = _median(waits)
    stats = outcome.service_stats or {}
    out["serving.cache_hit_frac"] = ratio(
        stats.get("cache_hits", 0), stats.get("cache_hits", 0) + stats.get("cache_misses", 0))
    out["serving.compactions"] = float(stats.get("compactions", 0))
    out["serving.mean_batch_size"] = float(stats.get("mean_batch_size", 0.0))
    return out

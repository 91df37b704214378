"""The three HybridGNN workloads, driven through the program's public API.

Each workload takes a seed, builds its inputs from it, sets up several
times, runs its timed phase once, sets up several times more and then runs
its output checks untimed.  ``setup_s`` is the median of all set-ups, so
it samples the host's speed over the whole run and not only at its start.
It returns an :class:`Outcome` with the end-to-end metrics the benchmark
gates on, the same numbers under the workload's own names (``detail``),
and the op counts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import HybridGNN, SkipGramTrainer, export_embeddings, load_embeddings
from repro.datasets import load_dataset, split_edges
from repro.eval import evaluate_link_prediction
from repro.experiments import get_profile, make_model
from repro.nn.optim import Adam
from repro.sampling.negative import UnigramNegativeSampler
from repro.serving import (
    RecommendService, ServiceConfig, TraceOp, generate_trace, replay_trace,
)
from repro.verify.golden import load_entry

WORK_DIR = Path(__file__).resolve().parent / "out"

#: Service requests per embed-serve-10k run: ~30% are writes, so the
#: default compaction threshold (512 pending edges) is crossed at least
#: twice on every seed.
SERVE_OPS = 4000
#: Final-state reads compared between the concurrent and the synchronous
#: service (half of them probe the sources of sampled writes).
FINAL_READS = 64
#: Leading train-100k steps replayed on an independently built twin.
TWIN_STEPS = 2


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    detail: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    pairs_stepped: int = 0
    request_ms: Dict[object, float] = field(default_factory=dict)
    service_stats: Optional[Dict[str, float]] = None

    @property
    def correct(self) -> bool:
        return not self.problems


def unrecorded(tracer):
    """Context for the output checks: the tracer (if any) records nothing."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def timed_build(build: Callable[[], object]) -> Tuple[object, float]:
    """Build once; return the build and its wall time."""
    gc.collect()
    start = time.perf_counter()
    built = build()
    return built, time.perf_counter() - start


def timed_setup(build: Callable[[], object], repeats: int) -> Tuple[object, List[float]]:
    """Build ``repeats`` times; return the last build and every build time."""
    times, built = [], None
    for _ in range(repeats):
        built = None
        built, seconds = timed_build(build)
        times.append(seconds)
    return built, times


class StepClock:
    """Times training steps from outside the trainer.

    A step starts when the trainer draws its negatives
    (``UnigramNegativeSampler.sample_like``, the first call of every step)
    and ends when ``Adam.step`` returns.  Also counts the positive pairs
    stepped.  Used on traced and untraced runs alike; it adds two clock
    reads per step.  On a traced run it also tells the tracer where each
    step begins and ends (the end after reading the clock), so the tracer
    needs no step hooks of its own.
    """

    def __init__(self, tracer=None):
        self.latencies: List[float] = []
        self.pairs = 0
        self._start = 0.0
        self._tracer = tracer

    def __enter__(self):
        clock = self
        sample_like = UnigramNegativeSampler.sample_like
        step = Adam.step
        tracer = self._tracer

        def timed_sample_like(sampler, nodes, *args, **kwargs):
            clock._start = time.perf_counter()
            clock.pairs += len(nodes)
            if tracer is not None:
                tracer.begin_step()
            return sample_like(sampler, nodes, *args, **kwargs)

        def timed_step(optimizer, *args, **kwargs):
            try:
                return step(optimizer, *args, **kwargs)
            finally:
                clock.latencies.append(time.perf_counter() - clock._start)
                if tracer is not None:
                    tracer.end_step(optimizer)

        self._originals = (sample_like, step)
        UnigramNegativeSampler.sample_like = timed_sample_like
        Adam.step = timed_step
        return self

    def __exit__(self, *exc):
        UnigramNegativeSampler.sample_like, Adam.step = self._originals
        return False

    @property
    def steps(self) -> int:
        return len(self.latencies)

    def ms(self, q: float) -> float:
        """The ``q``-th percentile of step latency, in milliseconds."""
        return percentile([1000.0 * s for s in self.latencies], q)

    def mean_ms(self) -> float:
        return 1000.0 * float(np.mean(self.latencies))


def _training_metrics(clock: StepClock, train_s: float) -> Dict[str, float]:
    return {
        "throughput_per_s": clock.pairs / train_s,
        "latency_ms": clock.mean_ms(),
        "peak_rss_mb": peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# train-smoke
# ----------------------------------------------------------------------
def _flat_metrics(metrics: Dict[str, Dict]) -> Dict[str, float]:
    flat = dict(metrics["overall"])
    for relation, values in metrics["per_relation"].items():
        for key, value in values.items():
            flat[f"{relation}/{key}"] = value
    return flat


def _test_metrics_problem(report, seed: int, profile) -> Optional[str]:
    """Compare the test metrics with the golden entry when its seed is run.

    At any other seed there is no reference; the metrics must then be
    finite percentages.
    """
    fresh = _flat_metrics({"overall": report.overall, "per_relation": report.per_relation})
    golden = load_entry("taobao", "HybridGNN")
    if golden is None:
        return "golden entry taobao__HybridGNN is missing"
    if (golden.seed, golden.profile, golden.scale) == (seed, profile.name, profile.scale):
        stored = _flat_metrics(golden.metrics)
        if set(stored) != set(fresh):
            return f"test metric keys differ from the golden entry: {sorted(fresh)}"
        worst = max(abs(fresh[key] - stored[key]) for key in stored)
        if not worst <= golden.tolerance:
            return f"test metrics drift {worst} pp from the golden entry"
    elif not all(np.isfinite(v) and 0.0 <= v <= 100.0 for v in fresh.values()):
        return f"test metrics out of range: {fresh}"
    return None


def train_smoke(seed: int, seconds: int, tracer=None) -> Outcome:
    """The ``repro train --model HybridGNN`` smoke recipe: one whole fit."""
    profile = get_profile("smoke")

    def build():
        data = load_dataset("taobao", scale=profile.scale, seed=seed)
        split = split_edges(data.graph, rng=seed + 10_000)
        return data, split, make_model("HybridGNN", profile, seed)

    (data, split, model), setup_times = timed_setup(build, repeats=5)
    with StepClock(tracer) as clock:
        start = time.perf_counter()
        model.fit(data, split)
        train_s = time.perf_counter() - start
    metrics = _training_metrics(clock, train_s)
    setup_s = metrics["setup_s"] = statistics.median(
        setup_times + timed_setup(build, repeats=6)[1])
    with unrecorded(tracer):
        report = evaluate_link_prediction(model, split.test)

    problems, failed = [], 0
    losses = model.history.losses
    if not np.all(np.isfinite(losses)):
        failed += clock.steps
        problems.append(f"non-finite epoch loss: {losses}")
    problem = _test_metrics_problem(report, seed, profile)
    if problem:
        failed += 1
        problems.append(problem)

    detail = {
        "setup_s": (setup_s, "s"),
        "train_pairs_per_s": (metrics["throughput_per_s"], "pairs/s"),
        "test_roc_auc": (report.overall["roc_auc"], "%"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MiB"),
        "train_s": (train_s, "s"),
        "steps": (clock.steps, "count"),
        "step_ms_p50": (clock.ms(50), "ms"),
        "step_ms_p90": (clock.ms(90), "ms"),
        "epochs": (len(losses), "count"),
    }
    return Outcome(metrics, detail, attempted=clock.steps + 1, failed=failed,
                   problems=problems, pairs_stepped=clock.pairs)


# ----------------------------------------------------------------------
# train-100k
# ----------------------------------------------------------------------
def train_100k(seed: int, seconds: int, tracer=None) -> Outcome:
    """HybridGNN steps on taobao-xl at |V| = 10^5: ``seconds`` steps.

    Each epoch of at most ``max_batches_per_epoch`` batches samples fresh
    pairs (as ``fit`` does with ``resample_walks_every=1``), until
    ``seconds`` steps have run.
    """
    profile = get_profile("smoke")

    def build():
        data = load_dataset("taobao-xl", scale=0.1, seed=seed)
        split = split_edges(data.graph, rng=seed + 10_000)
        schemes = data.all_schemes()
        model = HybridGNN(split.train_graph, schemes, profile.hybrid, rng=seed)
        return SkipGramTrainer(model, schemes, split, profile.trainer, rng=seed + 1)

    trainer, setup_times = timed_setup(build, repeats=5)
    losses = []
    with StepClock(tracer) as clock:
        start = time.perf_counter()
        while len(losses) < seconds:
            batches = trainer.make_batches(trainer.generate_pairs())[: seconds - len(losses)]
            if not batches:
                break
            for batch in batches:
                losses.append(trainer.apply_updates([batch]))
        train_s = time.perf_counter() - start
    metrics = _training_metrics(clock, train_s)
    del trainer, batches

    # An independently built twin (its build is one more set-up) replays
    # the first steps; its losses must match the measured trainer's bit
    # for bit.
    twin, twin_setup = timed_build(build)
    setup_s = metrics["setup_s"] = statistics.median(setup_times + [twin_setup])
    with unrecorded(tracer):
        twin_batches = twin.make_batches(twin.generate_pairs())
        twin_losses = [twin.apply_updates([batch]) for batch in twin_batches[:TWIN_STEPS]]
        del twin, twin_batches

    problems = []
    failed = int(np.sum(~np.isfinite(losses)))
    if failed:
        problems.append(f"{failed} non-finite step losses")
    if len(losses) != seconds:
        failed += seconds - len(losses)
        problems.append(f"ran {len(losses)} of {seconds} steps")
    if losses[:TWIN_STEPS] != twin_losses:
        failed += TWIN_STEPS
        problems.append(f"step losses differ between twin runs: {losses[:TWIN_STEPS]} "
                        f"vs {twin_losses}")

    detail = {
        "setup_s": (setup_s, "s"),
        "train_pairs_per_s": (metrics["throughput_per_s"], "pairs/s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MiB"),
        "train_s": (train_s, "s"),
        "steps": (clock.steps, "count"),
        "step_ms_p50": (clock.ms(50), "ms"),
        "step_ms_p90": (clock.ms(90), "ms"),
        "loss_digest": (hashlib.sha256(np.asarray(losses).tobytes()).hexdigest()[:16], "sha256"),
    }
    return Outcome(metrics, detail, attempted=seconds, failed=failed,
                   problems=problems, pairs_stepped=clock.pairs)


# ----------------------------------------------------------------------
# embed-serve-10k
# ----------------------------------------------------------------------
def _cold_dependencies(trace, base_nodes: int) -> Dict[int, int]:
    """For each read of a cold node: the trace position that created it."""
    created: Dict[int, int] = {}
    needs: Dict[int, int] = {}
    for position, op in enumerate(trace):
        if op.op == "feedback":
            for node in op.nodes:
                if node >= base_nodes and node not in created:
                    created[node] = position
        elif op.nodes[0] >= base_nodes:
            needs[position] = created[op.nodes[0]]
    return needs


def _call(service, op):
    if op.op == "recommend":
        return service.recommend(op.nodes[0], op.relation, op.k)
    if op.op == "similar":
        return service.similar(op.nodes[0], op.relation, op.k)
    return service.feedback(op.nodes[0], op.nodes[1], op.relation)


def _drive_clients(service, trace, needs, tracer) -> Tuple[Dict[int, float], List[str], float]:
    """Two closed-loop clients; returns latency per position, errors, wall time.

    Client 0 sends every write in trace order plus the even-numbered reads;
    client 1 sends the odd-numbered reads.  A read of a cold node waits
    until client 0 has completed the write that created it.
    """
    plan: List[List[int]] = [[], []]
    reads = 0
    for position, op in enumerate(trace):
        if op.op == "feedback":
            plan[0].append(position)
        else:
            plan[reads % 2].append(position)
            reads += 1
    latency: Dict[int, float] = {}
    errors: List[str] = []
    progress = {"done": -1}
    cond = threading.Condition()
    gate = threading.Barrier(3)

    def client(index: int) -> None:
        gate.wait()
        for position in plan[index]:
            if position in needs:
                with cond:
                    cond.wait_for(lambda: progress["done"] >= needs[position], timeout=60)
            op = trace[position]
            start = time.perf_counter()
            try:
                if tracer is None:
                    _call(service, op)
                else:
                    tracer.request(position, _call, service, op)
            except Exception as error:  # counted as a failed op, run continues
                errors.append(f"{op.op}@{position}: {type(error).__name__}: {error}")
            latency[position] = time.perf_counter() - start
            if index == 0:
                with cond:
                    progress["done"] = position
                    cond.notify_all()

    threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in (0, 1)]
    for thread in threads:
        thread.start()
    gate.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=150)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        errors.append("a client did not finish within 150 s")
    return latency, errors, wall


def embed_serve_10k(seed: int, seconds: int, tracer=None) -> Outcome:
    """Export -> load -> serve a mixed trace on taobao-xl at |V| = 10^4."""
    profile = get_profile("smoke")

    def build():
        data = load_dataset("taobao-xl", scale=0.01, seed=seed)
        split = split_edges(data.graph, rng=seed + 10_000)
        model = HybridGNN(split.train_graph, data.all_schemes(), profile.hybrid, rng=seed)
        return split.train_graph, model

    (graph, model), setup_times = timed_setup(build, repeats=5)
    num_nodes, relations = graph.num_nodes, list(model.relations)
    problems: List[str] = []

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        start = time.perf_counter()
        path = export_embeddings(model, num_nodes, relations, Path(tmp) / "embeddings")
        store = load_embeddings(path)
        embed_s = time.perf_counter() - start
    trace = generate_trace(graph, SERVE_OPS, seed=seed)
    service = RecommendService(store, graph)
    latency, errors, serve_s = _drive_clients(
        service, trace, _cold_dependencies(trace, num_nodes), tracer)
    problems.extend(errors[:5])
    endpoint = service.endpoint_stats.values()
    service_stats = {
        "cache_hits": service.engine.cache.hits,
        "cache_misses": service.engine.cache.misses,
        "compactions": service.view.compactions,
        "mean_batch_size": (sum(stats.requests for stats in endpoint)
                            / max(1, sum(stats.batches for stats in endpoint))),
    }
    too_few_compactions = service.view.compactions < 2
    if too_few_compactions:
        problems.append(f"only {service.view.compactions} compactions (expected >= 2)")
    peak_mb = peak_rss_mb()
    setup_s = statistics.median(setup_times + timed_setup(build, repeats=6)[1])

    read_positions = [p for p, op in enumerate(trace) if op.op != "feedback"]
    with unrecorded(tracer):
        bad_tables = 0
        for relation in relations:
            table = store.tables[relation]
            if (table.shape != (num_nodes, profile.hybrid.base_dim)
                    or not np.all(np.isfinite(table))
                    or not np.array_equal(
                        table, model.node_embeddings(np.arange(num_nodes), relation))):
                bad_tables += 1
                problems.append(f"exported table {relation!r} is malformed")
        # A synchronous replay of the same trace, twice: its digest must
        # repeat, and its final adjacency and reads must equal the
        # concurrent service's.
        sync = [RecommendService(store, graph, config=ServiceConfig(flush_interval=0.0))
                for _ in range(2)]
        digests = [replay_trace(s, trace)["digest"] for s in sync]
        if digests[0] != digests[1]:
            problems.append("synchronous replay digest does not repeat")
        # Final-state reads: recommendations for the sources of sampled
        # writes (their exclusion lists depend on every edge ingested) and
        # a sample of the trace's own reads.
        rng = np.random.default_rng(seed)
        writes = [op for op in trace if op.op == "feedback"]
        probes = [TraceOp("recommend", op.relation, op.nodes[:1])
                  for op in rng.choice(writes, size=FINAL_READS // 2, replace=False)]
        probes += [trace[p] for p in rng.choice(
            read_positions, size=FINAL_READS - len(probes), replace=False)]
        mismatched = 0
        for probe in probes:
            live_ids, live_scores = _call(service, probe)
            sync_ids, sync_scores = _call(sync[0], probe)
            if not (np.array_equal(live_ids, sync_ids)
                    and np.array_equal(live_scores, sync_scores)):
                mismatched += 1
        if mismatched:
            problems.append(f"{mismatched}/{FINAL_READS} final-state reads differ from the "
                            "synchronous replay")
        for relation in relations:
            live_csr, sync_csr = service.view.csr(relation), sync[0].view.csr(relation)
            if not all(np.array_equal(a, b) for a, b in zip(live_csr, sync_csr)):
                mismatched += 1
                problems.append(f"final {relation!r} adjacency differs from the "
                                "synchronous replay's")

    read_ms = [1000.0 * latency[p] for p in read_positions if p in latency]
    write_ms = [1000.0 * v for p, v in latency.items() if trace[p].op == "feedback"]
    served = len(latency) - len(errors)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": served / serve_s,
        "latency_ms": percentile(read_ms, 50),
        "peak_rss_mb": peak_mb,
    }
    detail = {
        "setup_s": (setup_s, "s"),
        "embed_nodes_per_s": (num_nodes * len(relations) / embed_s, "rows/s"),
        "serve_ops_per_s": (metrics["throughput_per_s"], "ops/s"),
        "serve_read_ms_p50": (metrics["latency_ms"], "ms"),
        "serve_read_ms_p90": (percentile(read_ms, 90), "ms"),
        "serve_read_ms_p99": (percentile(read_ms, 99), "ms"),
        "serve_write_ms_p50": (percentile(write_ms, 50), "ms"),
        "serve_write_ms_p99": (percentile(write_ms, 99), "ms"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MiB"),
        "reads": (len(read_ms), "count"),
        "writes": (len(write_ms), "count"),
        "compactions": (service_stats["compactions"], "count"),
        "mean_batch_size": (service_stats["mean_batch_size"], "count"),
        "sync_digest": (digests[0][:16], "sha256"),
    }
    return Outcome(metrics, detail, attempted=len(relations) + len(trace),
                   failed=(bad_tables + len(errors) + mismatched + too_few_compactions
                           + (digests[0] != digests[1])),
                   problems=problems, request_ms={p: 1000.0 * v for p, v in latency.items()},
                   service_stats=service_stats)


WORKLOADS = {
    "train-smoke": train_smoke,
    "train-100k": train_100k,
    "embed-serve-10k": embed_serve_10k,
}

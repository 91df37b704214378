"""Differential oracles for the training step and the sharded trainer.

Six gates, in two strictness classes:

**Bit-exact** (tolerance 1e-6, observed diff must be 0.0):

- the staged ``SkipGramTrainer.fit`` (sample→batch→update) against the
  pre-refactor monolithic loop kept verbatim as
  ``SkipGramTrainer._reference_fit`` — losses, validation scores and every
  final parameter, on identically seeded twin models;
- HybridGNN steps with the row-scatter embedding backward and the
  alias-grouped in-place ``Adam`` against the dense kernels they replaced,
  kept verbatim below as :func:`_reference_embedding_backward` and
  :func:`_reference_adam_step` — every step loss and the bytes of every
  parameter;
- the shard plan — every worker count must partition the node space
  exactly (disjoint and complete);
- ``ParallelSkipGramTrainer`` with ``workers=1`` (the deterministic mode)
  across two identically seeded runs;
- averaging mode with K=2 across two identically seeded runs (averaging
  is deterministic for any K; hogwild deliberately is not).

**Metric tolerance** (:data:`AUC_TOLERANCE`):

- K-worker training (hogwild and averaging) against the single-worker
  baseline on a vectorized-engine graph large enough that the validation
  set pins ROC-AUC to well under the tolerance — the oracle reports
  ``|auc_K - auc_1|`` on the [0, 1] scale.  (Metrics come back in
  percent; the oracle divides by 100.)

``benchmarks/bench_training.py`` re-runs the tolerance gate at 10⁶ nodes
with wall-clock measurements; this suite keeps the CI-sized version.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, List

import numpy as np

import repro.nn.tensor as tensor_module
from repro.core import HybridGNN, HybridGNNConfig, SkipGramTrainer, TrainerConfig
from repro.datasets import load_dataset, split_edges
from repro.nn.module import Parameter
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor
from repro.train import (
    ParallelSkipGramTrainer,
    ParallelTrainerConfig,
    shard_nodes,
)
from repro.verify.oracles import OracleResult, _result

__all__ = ["AUC_TOLERANCE", "parallel_oracles"]

#: K-worker training must land within this ROC-AUC distance (on the [0, 1]
#: scale) of the single-worker baseline.
AUC_TOLERANCE = 0.01

#: Trainer settings shared by the K-worker quality gates.
_GATE_CONFIG = dict(
    dim=16, epochs=3, batch_size=2048, num_walks=1, walk_length=6, window=2
)


def _history_state_diff(hist_a, hist_b, state_a, state_b) -> float:
    """0.0 iff histories and parameter states are bit-identical."""
    if hist_a.losses != hist_b.losses:
        return float("inf")
    if hist_a.val_scores != hist_b.val_scores:
        return float("inf")
    if set(state_a) != set(state_b):
        return float("inf")
    diffs = [
        float(np.max(np.abs(state_a[name] - state_b[name])))
        if state_a[name].size
        else 0.0
        for name in state_a
    ]
    return max(diffs) if diffs else 0.0


def _staged_vs_reference(seed: int) -> OracleResult:
    dataset = load_dataset("taobao", scale=0.25, seed=7)
    model_config = HybridGNNConfig(
        base_dim=8, edge_dim=4, metapath_fanouts=(3, 2, 2, 2, 2, 2),
        exploration_fanout=3, exploration_depth=1,
    )
    trainer_config = TrainerConfig(
        epochs=2, batch_size=128, num_walks=1, walk_length=6, window=2,
        patience=2,
    )

    def run(method_name: str):
        split = split_edges(dataset.graph, rng=8)
        model = HybridGNN(
            split.train_graph, dataset.all_schemes(), model_config, rng=seed
        )
        trainer = SkipGramTrainer(
            model, dataset.all_schemes(), split, trainer_config,
            rng=seed + 1,
        )
        history = getattr(trainer, method_name)()
        return history, model.state_dict()

    hist_staged, state_staged = run("fit")
    hist_ref, state_ref = run("_reference_fit")
    diff = _history_state_diff(hist_staged, hist_ref, state_staged, state_ref)
    return _result(
        "staged_fit_vs_monolith", "trainer", diff,
        detail="sample→batch→update fit vs pre-refactor _reference_fit "
               f"({len(hist_ref.losses)} epochs, losses+val+params)",
    )


def _reference_embedding_backward(weight: Tensor, indices: np.ndarray,
                                  grad: np.ndarray) -> None:
    """The embedding backward before row scatter: one dense scatter per lookup.

    A verbatim copy of the original ``embedding_lookup`` backward body,
    kept as the oracle for ``repro.nn.tensor._scatter_rows``.  Never
    optimise it — its value is that it does not change.
    """
    full = np.zeros_like(weight.data)
    np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.data.shape[-1]))
    weight._accumulate(full)


def _reference_adam_step(self) -> None:
    """Adam's step before alias grouping: one moment pair per listed entry.

    A copy of the original ``Adam.step``, kept as the oracle for the
    grouped in-place step.  Only the last line differs: it rebinds
    ``param.data`` (the write path lint rule R003 requires outside the
    optimizer modules) where the original subtracted in place; the values
    are the same.  Never optimise it.
    """
    self._step += 1
    bias1 = 1.0 - self.beta1**self._step
    bias2 = 1.0 - self.beta2**self._step
    for param, m, v in zip(self.params, self._m, self._v):
        if param.grad is None:
            continue
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _ReferenceAdam(Optimizer):
    """The original ``Adam``: per-entry moments, stepped by the reference."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    step = _reference_adam_step


@contextlib.contextmanager
def _reference_embedding_kernel():
    """Route every embedding backward through the dense reference."""
    original = tensor_module._scatter_rows
    tensor_module._scatter_rows = _reference_embedding_backward
    try:
        yield
    finally:
        tensor_module._scatter_rows = original


def _sparse_step_vs_reference(seed: int, steps: int = 12) -> OracleResult:
    dataset = load_dataset("taobao", scale=0.25, seed=7)
    trainer_config = TrainerConfig(
        batch_size=128, num_walks=1, walk_length=6, window=2,
        learning_rate=2e-2,
    )

    def run(reference: bool):
        split = split_edges(dataset.graph, rng=8)
        model = HybridGNN(split.train_graph, dataset.all_schemes(),
                          HybridGNNConfig(base_dim=8, edge_dim=4), rng=seed)
        trainer = SkipGramTrainer(model, dataset.all_schemes(), split,
                                  trainer_config, rng=seed + 1)
        kernel = contextlib.nullcontext()
        if reference:
            trainer._optimizer = _ReferenceAdam(
                model.parameters(), lr=trainer_config.learning_rate)
            kernel = _reference_embedding_kernel()
        with kernel:
            batches = trainer.make_batches(trainer.generate_pairs())[:steps]
            losses = [trainer.apply_updates([batch]) for batch in batches]
        return losses, model.state_dict()

    fast_losses, fast_state = run(reference=False)
    ref_losses, ref_state = run(reference=True)
    mismatched = [
        name for name in ref_state
        if fast_state[name].tobytes() != ref_state[name].tobytes()
    ]
    same = fast_losses == ref_losses and set(fast_state) == set(ref_state)
    diff = 0.0 if same and not mismatched else float("inf")
    return _result(
        "sparse_step_vs_reference", "trainer", diff,
        detail=f"row-scatter backward + grouped Adam vs dense reference "
               f"({len(ref_losses)} HybridGNN steps; {len(mismatched)} of "
               f"{len(ref_state)} params differ in bytes)",
    )


def _shard_plan_exact() -> OracleResult:
    diff = 0.0
    checked = 0
    for num_nodes in (1, 97, 1000):
        for workers in (1, 2, 3, 8):
            shards = shard_nodes(num_nodes, workers)
            merged = np.concatenate(shards) if shards else np.empty(0)
            if len(merged) != num_nodes:
                diff = float("inf")
            elif not np.array_equal(np.sort(merged), np.arange(num_nodes)):
                diff = float("inf")
            checked += 1
    return _result(
        "shard_plan_partition", "parallel", diff,
        detail=f"{checked} (nodes, workers) plans disjoint + complete",
    )


def _xl_split(seed: int):
    dataset = load_dataset("taobao-xl", scale=0.02, seed=7)
    return dataset, split_edges(dataset.graph, rng=8)


def _fit(dataset, split, seed: int, **config_kwargs):
    trainer = ParallelSkipGramTrainer(
        dataset.all_schemes(), split,
        ParallelTrainerConfig(**{**_GATE_CONFIG, **config_kwargs}),
        rng=seed,
    )
    history = trainer.fit()
    return history, trainer.state_dict()


def _determinism(dataset, split, seed: int, name: str,
                 **config_kwargs) -> OracleResult:
    hist_a, state_a = _fit(dataset, split, seed, **config_kwargs)
    hist_b, state_b = _fit(dataset, split, seed, **config_kwargs)
    diff = _history_state_diff(hist_a, hist_b, state_a, state_b)
    workers = config_kwargs.get("workers", 1)
    mode = config_kwargs.get("update_mode", "hogwild")
    return _result(
        name, "parallel", diff,
        detail=f"two seeded runs, workers={workers} mode={mode} "
               "(losses+val+tables)",
    )


def parallel_oracles(seed: int = 0) -> List[OracleResult]:
    """The ``repro verify --suite parallel`` gate set."""
    results = [
        _staged_vs_reference(seed),
        _sparse_step_vs_reference(seed),
        _shard_plan_exact(),
    ]

    dataset, split = _xl_split(seed)
    results.append(
        _determinism(dataset, split, seed, "single_worker_determinism",
                     workers=1)
    )
    results.append(
        _determinism(dataset, split, seed, "average_mode_determinism",
                     workers=2, update_mode="average")
    )

    baseline, _ = _fit(dataset, split, seed, workers=1)
    for mode in ("hogwild", "average"):
        parallel, _ = _fit(dataset, split, seed, workers=2, update_mode=mode)
        # Metrics are percentages; the gate works on the [0, 1] AUC scale.
        diff = abs(parallel.best_val_score - baseline.best_val_score) / 100.0
        results.append(
            _result(
                f"two_worker_{mode}_auc", "parallel", diff,
                tolerance=AUC_TOLERANCE,
                detail=(
                    f"val ROC-AUC workers=2 {parallel.best_val_score:.2f}% "
                    f"vs workers=1 {baseline.best_val_score:.2f}% "
                    f"({dataset.graph.num_nodes} nodes)"
                ),
            )
        )
    return results

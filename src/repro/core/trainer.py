"""Training loop for HybridGNN (Sect. III-E / IV-C).

Pipeline per the paper: metapath-based random walks per relationship feed a
heterogeneous skip-gram objective; the model is optimised with Adam; early
stopping watches validation ROC-AUC with a five-epoch patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import TrainerConfig
from repro.core.loss import skip_gram_loss
from repro.core.model import HybridGNN
from repro.datasets.splits import EdgeSplit
from repro.errors import TrainingError
from repro.eval.link_prediction import evaluate_link_prediction
from repro.graph.schema import MetapathScheme
from repro.nn.optim import Adam
from repro.perf import StageProfiler
from repro.sampling.context import context_pairs
from repro.sampling.metapath_walk import relationship_walk_matrix
from repro.sampling.random_walk import UniformRandomWalker
from repro.sampling.negative import UnigramNegativeSampler
from repro.utils.rng import SeedLike, as_rng, spawn_rng


@dataclass
class TrainingHistory:
    """Per-epoch record of one training run."""

    losses: List[float] = field(default_factory=list)
    val_scores: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_score: float = float("-inf")
    stopped_early: bool = False


class SkipGramTrainer:
    """Fits any walk-supervised relation-aware model on one edge split.

    The model must expose ``forward(nodes, relation) -> Tensor``,
    ``parameters()``, ``context`` (an :class:`~repro.nn.layers.Embedding`
    used for skip-gram contexts), ``num_negatives``, ``invalidate_cache()``
    and the ``state_dict``/``load_state_dict`` pair.  HybridGNN and the
    skip-gram baselines (GATNE, HAN, MAGNN) all satisfy this.

    The epoch loop is decomposed into three explicitly-bounded stages so
    alternative executors (the sharded trainer in ``repro.train.parallel``)
    can swap any one of them without re-implementing the rest:

    - **sample** — :meth:`generate_pairs`: walks → (center, context) pairs
      per relationship.  Consumes spawned child RNGs only.
    - **batch** — :meth:`make_batches`: pairs → shuffled fixed-size batch
      list.  Consumes the trainer RNG (permutation + shuffle) and applies
      the ``max_batches_per_epoch`` cap.
    - **update** — :meth:`apply_updates`: batches → mean loss.  Consumes
      only the negative sampler's private RNG; all parameter mutation
      happens here.

    Stage boundaries are data (plain dict/list of arrays), never shared
    mutable state, which is what makes them shippable across process
    boundaries.  :meth:`fit` composes the stages; :meth:`_reference_fit`
    keeps the pre-refactor monolithic loop as a differential oracle
    (``repro verify --suite parallel`` checks bit-identity).
    """

    def __init__(
        self,
        model,
        schemes_by_relation: Dict[str, List[MetapathScheme]],
        split: EdgeSplit,
        config: Optional[TrainerConfig] = None,
        rng: SeedLike = None,
    ):
        self.model = model
        self.schemes_by_relation = schemes_by_relation
        self.split = split
        self.config = TrainerConfig() if config is None else config
        self.profiler = StageProfiler()
        self._rng = as_rng(rng)
        self._negative_sampler = UnigramNegativeSampler(
            split.train_graph, rng=spawn_rng(self._rng)
        )
        self._optimizer = Adam(model.parameters(), lr=self.config.learning_rate)

    # -- sample stage --------------------------------------------------
    def generate_pairs(self) -> Dict[str, np.ndarray]:
        """Skip-gram (center, context) pairs per relationship.

        Walks follow the relationship's predefined metapath schemes only
        (Eq. 12): the objective supervises *relationship-specific* proximity,
        while inter-relationship information enters through the exploration
        aggregation flow, not through the contexts.  Relationships whose
        schemes yield no walks (e.g. very sparse ones) fall back to plain
        uniform walks inside their subgraph.
        """
        graph = self.split.train_graph
        config = self.config
        pairs: Dict[str, np.ndarray] = {}
        for relation in graph.schema.relationships:
            with self.profiler.stage("sampling.walks"):
                matrix, lengths = relationship_walk_matrix(
                    graph,
                    self.schemes_by_relation.get(relation, []),
                    num_walks=config.num_walks,
                    length=config.walk_length,
                    rng=spawn_rng(self._rng),
                )
                keep = lengths > 1
                if not keep.any() and graph.num_edges_in(relation) > 0:
                    fallback = UniformRandomWalker(
                        graph, relation=relation, rng=spawn_rng(self._rng)
                    )
                    matrix, lengths = fallback.walks_matrix(
                        config.num_walks, config.walk_length
                    )
                    keep = lengths > 1
                matrix, lengths = matrix[keep], lengths[keep]
            with self.profiler.stage("sampling.pairs"):
                extracted = context_pairs((matrix, lengths), config.window)
            if len(extracted):
                pairs[relation] = extracted
        if not pairs:
            raise TrainingError(
                "no training pairs were generated; check walk settings and schemes"
            )
        return pairs

    # -- batch stage ---------------------------------------------------
    def make_batches(
        self, pairs: Dict[str, np.ndarray]
    ) -> List[Tuple[str, np.ndarray]]:
        """Shuffle pairs per relation and slice them into training batches.

        Consumes the trainer RNG (one permutation per relation, in pair-dict
        order, then one global shuffle) — the exact draw sequence of the
        pre-refactor loop, so seeded runs stay bit-identical.  The shuffle
        runs over ``(relation, order, start)`` slots, a list of the same
        length as the batch list, so only the batches kept by the
        ``max_batches_per_epoch`` cap are ever copied out of ``pairs``.
        """
        config = self.config
        size = config.batch_size
        with self.profiler.stage("train.batching"):
            slots: List[Tuple[str, np.ndarray, int]] = []
            for relation, relation_pairs in pairs.items():
                order = self._rng.permutation(len(relation_pairs))
                slots.extend(
                    (relation, order, start)
                    for start in range(0, len(relation_pairs), size)
                )
            self._rng.shuffle(slots)
            if config.max_batches_per_epoch:
                slots = slots[: config.max_batches_per_epoch]
            batches = [
                (relation, pairs[relation][order[start: start + size]])
                for relation, order, start in slots
            ]
        return batches

    # -- update stage --------------------------------------------------
    def apply_updates(self, batches: List[Tuple[str, np.ndarray]]) -> float:
        """Run one optimisation step per batch; return the mean batch loss.

        The only stage that mutates parameters.  Negatives come from the
        sampler's private RNG, so the sample/batch stages can be replayed
        or swapped without perturbing the update stream.
        """
        with self.profiler.stage("train.sgd"):
            total_loss = self._run_batches(batches)
        self.model.invalidate_cache()
        return total_loss / max(1, len(batches))

    def _train_epoch(self, pairs: Dict[str, np.ndarray]) -> float:
        return self.apply_updates(self.make_batches(pairs))

    def _run_batches(self, batches: List[Tuple[str, np.ndarray]]) -> float:
        model = self.model
        total_loss = 0.0
        for relation, batch in batches:
            centers = batch[:, 0]
            contexts = batch[:, 1]
            negatives = self._negative_sampler.sample_like(
                contexts, model.num_negatives
            )
            embeddings = model(centers, relation)
            loss = skip_gram_loss(embeddings, model.context, contexts, negatives)
            self._optimizer.zero_grad()
            loss.backward()
            self._optimizer.step()
            total_loss += loss.item()
        return total_loss

    def _validation_score(self) -> Optional[float]:
        if not self.split.val:
            return None
        with self.profiler.stage("eval.validation"):
            report = evaluate_link_prediction(self.model, self.split.val)
        return report["roc_auc"]

    # ------------------------------------------------------------------
    def fit(self) -> TrainingHistory:
        """Train with early stopping; restores the best parameters.

        With ``config.resample_walks_every == 0`` (default) walks are
        sampled once and the same pairs feed every epoch — the historical
        behaviour, kept so goldens stay bit-identical.  A positive value
        re-runs the sample stage every that-many epochs, so later epochs
        train on fresh random-walk contexts instead of a frozen corpus.
        """
        config = self.config
        history = TrainingHistory()
        pairs = self.generate_pairs()
        best_state = None
        epochs_since_best = 0

        for epoch in range(config.epochs):
            if (
                config.resample_walks_every
                and epoch
                and epoch % config.resample_walks_every == 0
            ):
                pairs = self.generate_pairs()
            loss = self._train_epoch(pairs)
            history.losses.append(loss)
            val_score = self._validation_score()
            if val_score is not None:
                history.val_scores.append(val_score)
                if val_score > history.best_val_score:
                    history.best_val_score = val_score
                    history.best_epoch = epoch
                    best_state = self.model.state_dict()
                    epochs_since_best = 0
                else:
                    epochs_since_best += 1
            if config.verbose:
                val_text = f", val ROC-AUC {val_score:.2f}" if val_score is not None else ""
                print(f"epoch {epoch + 1}/{config.epochs}: loss {loss:.4f}{val_text}")
            if val_score is not None and epochs_since_best >= config.patience:
                history.stopped_early = True
                break

        if best_state is not None:
            self.model.load_state_dict(best_state)
            self.model.invalidate_cache()
        return history

    # ------------------------------------------------------------------
    def _reference_fit(self) -> TrainingHistory:
        """Pre-refactor monolithic training loop, kept as the oracle.

        A verbatim copy of ``fit`` as it stood before the sample→batch→
        update decomposition (and before ``resample_walks_every``): one
        inline epoch body doing batching + SGD.  ``repro verify --suite
        parallel`` runs this against the staged :meth:`fit` on identically
        seeded twins and demands bit-identical losses, validation scores
        and final parameters.  Never optimise or "clean up" this method —
        its value is that it does not change.
        """
        config = self.config
        model = self.model
        history = TrainingHistory()
        pairs = self.generate_pairs()
        best_state = None
        epochs_since_best = 0

        for epoch in range(config.epochs):
            with self.profiler.stage("train.batching"):
                batches: List[Tuple[str, np.ndarray]] = []
                for relation, relation_pairs in pairs.items():
                    order = self._rng.permutation(len(relation_pairs))
                    for start in range(0, len(relation_pairs), config.batch_size):
                        batches.append((relation, relation_pairs[order[start: start + config.batch_size]]))
                self._rng.shuffle(batches)
                if config.max_batches_per_epoch:
                    batches = batches[: config.max_batches_per_epoch]
            with self.profiler.stage("train.sgd"):
                total_loss = self._run_batches(batches)
            model.invalidate_cache()
            loss = total_loss / max(1, len(batches))

            history.losses.append(loss)
            val_score = self._validation_score()
            if val_score is not None:
                history.val_scores.append(val_score)
                if val_score > history.best_val_score:
                    history.best_val_score = val_score
                    history.best_epoch = epoch
                    best_state = self.model.state_dict()
                    epochs_since_best = 0
                else:
                    epochs_since_best += 1
            if config.verbose:
                val_text = f", val ROC-AUC {val_score:.2f}" if val_score is not None else ""
                print(f"epoch {epoch + 1}/{config.epochs}: loss {loss:.4f}{val_text}")
            if val_score is not None and epochs_since_best >= config.patience:
                history.stopped_early = True
                break

        if best_state is not None:
            self.model.load_state_dict(best_state)
            self.model.invalidate_cache()
        return history


# HybridGNN was the trainer's original (and primary) client.
HybridGNNTrainer = SkipGramTrainer

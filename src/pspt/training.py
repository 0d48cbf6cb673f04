"""Adapter-parameter training with the combined pointwise + pairwise loss.

Each step scores its whole in-batch-expanded batch with one scoring
call, which encodes each distinct passage once per forward however many
of the batch's questions it serves, averages the per-pair loss,
backpropagates into the soft prompt and adapter only, clips the global
gradient norm (logged with whether it clipped), and applies Adam with
linearly decaying learning rates (logging the norm of the update to the
soft prompt and to the adapter, and the batch's pairwise accuracy and
mean margin s_pos - s_neg). A dev pass is one scoring call over all dev
pairs, logged with its loss and pairwise accuracy; scoring cuts each
call into forwards of at most ~512 rows. Early stopping keeps the
parameter snapshot with the best dev loss.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .adapter import PsptParams
from .checkpoint import atomic_open
from .errors import ConfigError, ContractError, DataError, NumericError
from .evaluation import QaDataset
from .model import MicroLM, Vocabulary, dev_count
from .optim import Adam, clip_global_norm, trainable
from .scoring import question_loglik
from .tensor import Tensor

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingInstance:
    question_id: str
    question: list[int]
    positive_id: str
    positive: list[int]
    negative_id: str
    negative: list[int]

    def __post_init__(self):
        if not self.question:
            raise ContractError(f"instance {self.question_id}: empty question")
        if self.positive_id == self.negative_id:
            raise ContractError(
                f"instance {self.question_id}: positive and negative share id {self.positive_id!r}")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 4
    in_batch_negatives: int = 4
    epochs: int = 20
    lr_soft_prompt: float = 3e-2
    lr_adapter: float = 3e-5
    early_stop_patience: int = 3
    seed: int = 0
    train_sample_size: int = 320
    dev_fraction: float = 0.1
    grad_clip: float = 1.0
    point_weight: float = 1.0
    pair_weight: float = 1.0

    def __post_init__(self):
        for name in ("batch_size", "in_batch_negatives", "lr_soft_prompt", "lr_adapter",
                     "early_stop_patience", "train_sample_size", "grad_clip"):
            if not getattr(self, name) > 0:  # so NaN fails too
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.in_batch_negatives > self.batch_size:
            raise ConfigError(
                f"in_batch_negatives {self.in_batch_negatives} exceeds batch_size {self.batch_size}")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ConfigError("dev_fraction must lie in [0, 1)")
        weights = (self.point_weight, self.pair_weight)
        if not all(w >= 0 for w in weights) or max(weights) == 0:
            raise ConfigError(f"point_weight and pair_weight {weights} must be "
                              "non-negative and not both 0")


def build_instances(dataset: QaDataset, seed: int, sample_size: int,
                    vocab: Vocabulary) -> list[TrainingInstance]:
    """Sample one (question, positive, negative) triple per sampled question."""
    if sample_size < 1:
        raise ConfigError("sample_size must be at least 1")
    eligible = []
    for question in dataset.questions:
        positives = [p for p in question.passages if p.relevant]
        negatives = [p for p in question.passages if not p.relevant]
        q_ids = vocab.encode(question.text)
        if not positives or not negatives or not q_ids:
            logger.warning("skipping question %s: needs a non-empty question, a positive, "
                           "and a negative passage", question.question_id)
            continue
        eligible.append((question, positives, negatives, q_ids))
    if len(eligible) < sample_size:
        raise DataError(f"only {len(eligible)} eligible questions, need {sample_size}")
    rng = T.make_rng(seed, 30)
    chosen = rng.choice(len(eligible), size=sample_size, replace=False)
    instances = []
    for idx in chosen:
        question, positives, negatives, q_ids = eligible[int(idx)]
        pos = positives[int(rng.integers(0, len(positives)))]
        neg = negatives[int(rng.integers(0, len(negatives)))]
        instances.append(TrainingInstance(
            question.question_id, q_ids,
            pos.passage_id, vocab.encode(pos.text),
            neg.passage_id, vocab.encode(neg.text),
        ))
    return instances


def expand_in_batch(batch: list[TrainingInstance], m: int) -> list[TrainingInstance]:
    """Give each question up to m negatives: its own, then other instances'
    positives and negatives round-robin, never reusing its own positive id.
    Returns one (question, positive, negative) pair per negative."""
    if m < 1:
        raise ContractError("in-batch negative count must be at least 1")
    pairs: list[TrainingInstance] = []
    for i, inst in enumerate(batch):
        others = batch[i + 1:] + batch[:i]
        pool = [(inst.negative_id, inst.negative)]
        pool += [(o.positive_id, o.positive) for o in others]
        pool += [(o.negative_id, o.negative) for o in others]
        taken = {inst.positive_id}
        for pid, toks in pool:
            if len(taken) > m:
                break
            if pid not in taken:
                taken.add(pid)
                pairs.append(replace(inst, negative_id=pid, negative=toks))
    return pairs


def _terms(scores: Tensor, sizes: list[int]) -> tuple[Tensor, Tensor, np.ndarray]:
    """Point terms -s_pos, [Q, 1], hinges max(0, s_neg - s_pos), one row per
    negative, and the margins s_pos - s_neg as plain data, one per negative,
    from packed scores laid out as one [positive, *negatives] run per
    question, question i having sizes[i] negatives."""
    counts = np.asarray(sizes)
    starts = np.cumsum(1 + counts) - 1 - counts
    column = T.reshape(scores, (-1, 1))
    point = T.neg(T.gather_rows(column, starts))
    negatives = T.gather_rows(column, np.delete(np.arange(scores.shape[0]), starts))
    own = T.gather_rows(point, np.repeat(np.arange(len(counts)), counts))
    gaps = T.add(negatives, own)
    return point, T.relu(gaps), -gaps.data[:, 0]


def loss_point(question, positive, params: PsptParams, model: MicroLM) -> Tensor:
    """Negative question log-likelihood given the positive passage."""
    return T.neg(T.tsum(question_loglik([question], [positive], params, model)))


def loss_pair(question, positive, negative, params: PsptParams, model: MicroLM) -> Tensor:
    """Hinge on the score margin: max(0, score(negative) - score(positive))."""
    return T.tsum(_terms(question_loglik([question] * 2, [positive, negative], params, model),
                         [1])[1])


def loss_total(question, positive, negative, params: PsptParams, model: MicroLM,
               point_weight: float = 1.0, pair_weight: float = 1.0) -> Tensor:
    point, pair, _ = _terms(question_loglik([question] * 2, [positive, negative], params, model),
                            [1])
    return T.add(T.mul(T.tsum(point), point_weight), T.mul(T.tsum(pair), pair_weight))


def _batch_loss(pairs: list[TrainingInstance], params: PsptParams, model: MicroLM,
                config: TrainConfig) -> tuple[Tensor, Tensor, Tensor, np.ndarray]:
    """Mean pair-level loss, its point and pair parts, and each pair's
    margin s_pos - s_neg (grouped by question): every question's positive
    and all of its negatives are scored by one question_loglik call, which
    encodes a passage that several questions of one forward use once, and
    one _terms call turns its scores into the loss terms."""
    groups: dict[tuple[str, str], list[TrainingInstance]] = {}
    for p in pairs:
        groups.setdefault((p.question_id, p.positive_id), []).append(p)
    questions = [g[0].question for g in groups.values() for _ in range(1 + len(g))]
    passages = [d for g in groups.values() for d in [g[0].positive, *(p.negative for p in g)]]
    sizes = [len(g) for g in groups.values()]
    points, hinges, margins = _terms(question_loglik(questions, passages, params, model), sizes)
    point = T.tsum(T.mul(points, np.array(sizes)[:, None] / len(pairs)))  # one per pair
    pair = T.mul(T.tsum(hinges), 1.0 / len(pairs))
    total = T.add(T.mul(point, config.point_weight), T.mul(pair, config.pair_weight))
    return total, point, pair, margins


@dataclass
class TrainResult:
    params: PsptParams
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_loss: float | None = None
    steps: int = 0


def write_train_log(log: list[dict], path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        for record in log:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _dev_loss(instances: list[TrainingInstance], params: PsptParams, model: MicroLM,
              config: TrainConfig) -> tuple[float, float]:
    """Mean loss_total over the instances, and the share of them whose
    positive outscores their negative, from one scoring call over their
    (positive, negative) pairs."""
    total, _, _, margins = _batch_loss(instances, params, model, config)
    return total.item(), _pair_accuracy(margins)


def _pair_accuracy(margins: np.ndarray) -> float:
    """Share of pairs with s_pos > s_neg (a tie counts as wrong)."""
    return float(np.mean(margins > 0))


def _update_norm(tensors: list[Tensor], before: list[np.ndarray]) -> float:
    """L2 norm of what the last optimizer step added to the tensors, in float64."""
    return math.sqrt(sum(float(np.square(t.data.astype(np.float64) - b).sum())
                         for t, b in zip(tensors, before, strict=True)))


def train(config: TrainConfig, instances: list[TrainingInstance], model: MicroLM,
          params: PsptParams) -> TrainResult:
    """Optimize the adapter parameters; the model itself is never touched.

    Epoch 0 runs no steps: its dev pass scores the untrained parameters.
    Returns the parameter snapshot of the first epoch with the least dev
    loss or, without a dev split, the last epoch's parameters.
    """
    if config.epochs == 0:
        return TrainResult(params=params)
    if not instances:
        raise DataError("no training instances")

    order = T.make_rng(config.seed, 10).permutation(len(instances))
    n_dev = dev_count(len(instances), config.dev_fraction)
    dev_set = [instances[i] for i in order[:n_dev]]
    train_set = [instances[i] for i in order[n_dev:]]

    e1 = params.soft_prompt.e1
    adapters = [params.adapter.A, params.adapter.B]
    theta = [e1, *adapters]
    opt = Adam([([e1], config.lr_soft_prompt), (adapters, config.lr_adapter)])
    total_steps = config.epochs * math.ceil(len(train_set) / config.batch_size)

    result = TrainResult(params=params)
    for epoch in range(config.epochs + 1):
        perm = T.make_rng(config.seed, 20, epoch).permutation(len(train_set)) if epoch else []
        for start in range(0, len(perm), config.batch_size):
            batch = [train_set[i] for i in perm[start:start + config.batch_size]]
            pairs = expand_in_batch(batch, config.in_batch_negatives)
            step = result.steps
            scale = 1.0 - step / total_steps
            with trainable(theta):
                total, point, pair, margins = _batch_loss(pairs, params, model, config)
                loss_value = total.item()
                if not math.isfinite(loss_value):
                    raise NumericError(f"non-finite loss at step {step}")
                T.backward(total)
                grad_norm = clip_global_norm(theta, config.grad_clip)
                before = [t.data for t in theta]  # Adam replaces each array, never writes into it
                opt.step(scale)
            result.log.append({
                "step": step,
                "epoch": epoch,
                "lr_g1": config.lr_soft_prompt * scale,
                "lr_g2": config.lr_adapter * scale,
                "loss": loss_value,
                "loss_point": point.item(),
                "loss_pair": pair.item(),
                "pair_accuracy": _pair_accuracy(margins),
                "mean_margin": float(np.mean(margins, dtype=np.float64)),
                "grad_norm": grad_norm,
                "clipped": grad_norm > config.grad_clip,
                "update_norm_soft_prompt": _update_norm([e1], before[:1]),
                "update_norm_adapter": _update_norm(adapters, before[1:]),
            })
            result.steps += 1
        if dev_set:
            dev, accuracy = _dev_loss(dev_set, params, model, config)
            improved = epoch == 0 or dev < result.best_dev_loss
            result.log.append({"epoch": epoch, "dev_loss": dev, "dev_pair_accuracy": accuracy,
                               "best": improved})
        else:  # nothing to stop early on: the last epoch's parameters
            dev, improved = None, epoch == config.epochs
        if improved:
            result.params, result.best_dev_loss = params.astype(e1.dtype), dev
            result.best_epoch = epoch
        elif dev_set and epoch - result.best_epoch >= config.early_stop_patience:
            break
    return result

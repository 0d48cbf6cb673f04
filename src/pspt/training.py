"""Adapter-parameter training with the combined pointwise + pairwise loss.

Each step scores its whole in-batch-expanded batch in one packed forward,
in which each distinct passage is encoded once however many of the
batch's questions it serves, averages the per-pair loss,
backpropagates into the soft prompt and adapter only, clips the global
gradient norm (logged with whether it clipped), and applies Adam with
linearly decaying learning rates. A dev pass is one packed forward per
MAX_PACKED_ROWS rows of dev pairs. Early stopping keeps the parameter
snapshot with the best dev loss.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .adapter import SEPARATOR_ROWS, PsptParams
from .checkpoint import atomic_open
from .errors import ConfigError, ContractError, DataError, NumericError
from .evaluation import QaDataset
from .model import MicroLM, Vocabulary
from .optim import Adam, clip_global_norm, trainable
from .scoring import MAX_PACKED_ROWS, _groups, question_loglik
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


@dataclass
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

    def validate(self) -> None:
        positive = {
            "batch_size": self.batch_size,
            "in_batch_negatives": self.in_batch_negatives,
            "lr_soft_prompt": self.lr_soft_prompt,
            "lr_adapter": self.lr_adapter,
            "early_stop_patience": self.early_stop_patience,
            "train_sample_size": self.train_sample_size,
            "grad_clip": self.grad_clip,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.in_batch_negatives > self.batch_size:
            raise ConfigError(
                f"in_batch_negatives {self.in_batch_negatives} exceeds batch_size {self.batch_size}")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ConfigError("dev_fraction must lie in [0, 1)")


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


def _terms(scores: Tensor, sizes: list[int]) -> tuple[Tensor, Tensor]:
    """Point terms -s_pos, [Q, 1], and hinges max(0, s_neg - s_pos), one row
    per negative, from packed scores laid out as one [positive, *negatives]
    run per question, question i having sizes[i] negatives."""
    counts = np.asarray(sizes)
    starts = np.cumsum(1 + counts) - 1 - counts
    column = T.reshape(scores, (-1, 1))
    point = T.neg(T.gather_rows(column, starts))
    negatives = T.gather_rows(column, np.delete(np.arange(scores.shape[0]), starts))
    own = T.gather_rows(point, np.repeat(np.arange(len(counts)), counts))
    return point, T.relu(T.add(negatives, own))


def loss_point(question, positive, params: PsptParams, model: MicroLM) -> Tensor:
    """Negative question log-likelihood given the positive passage."""
    return T.neg(T.tsum(question_loglik([question], [positive], params, model)))


def loss_pair(question, positive, negative, params: PsptParams, model: MicroLM) -> Tensor:
    """Hinge on the score margin: max(0, score(negative) - score(positive))."""
    return T.tsum(_terms(question_loglik([question] * 2, [positive, negative], params, model),
                         [1])[1])


def loss_total(question, positive, negative, params: PsptParams, model: MicroLM,
               point_weight: float = 1.0, pair_weight: float = 1.0) -> Tensor:
    point, pair = _terms(question_loglik([question] * 2, [positive, negative], params, model),
                         [1])
    return T.add(T.mul(T.tsum(point), point_weight), T.mul(T.tsum(pair), pair_weight))


def _batch_loss(pairs: list[TrainingInstance], params: PsptParams, model: MicroLM,
                config: TrainConfig) -> tuple[Tensor, Tensor, Tensor]:
    """Mean pair-level loss from one packed forward: every question's
    positive and all of its negatives are scored by one question_loglik
    call, which encodes a passage that several questions use once, and
    one _terms call turns its scores into the loss terms."""
    groups: dict[tuple[str, str], list[TrainingInstance]] = {}
    for p in pairs:
        groups.setdefault((p.question_id, p.positive_id), []).append(p)
    questions = [g[0].question for g in groups.values() for _ in range(1 + len(g))]
    passages = [d for g in groups.values() for d in [g[0].positive, *(p.negative for p in g)]]
    sizes = [len(g) for g in groups.values()]
    points, hinges = _terms(question_loglik(questions, passages, params, model), sizes)
    point = T.tsum(T.mul(points, np.array(sizes)[:, None] / len(pairs)))  # one per pair
    pair = T.mul(T.tsum(hinges), 1.0 / len(pairs))
    total = T.add(T.mul(point, config.point_weight), T.mul(pair, config.pair_weight))
    return total, point, pair


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
              config: TrainConfig) -> float:
    """Mean loss_total over the instances, from one packed forward per
    MAX_PACKED_ROWS rows of their (positive, negative) segments."""
    rows = [len(i.positive) + len(i.negative) + 2 * (SEPARATOR_ROWS + len(i.question))
            for i in instances]
    return sum(_batch_loss(group, params, model, config)[0].item() * len(group)
               for group in _groups(instances, rows, MAX_PACKED_ROWS)) / len(instances)


def train(config: TrainConfig, instances: list[TrainingInstance], model: MicroLM,
          params: PsptParams) -> TrainResult:
    """Optimize the adapter parameters; the model itself is never touched.

    Returns the parameter snapshot with the best dev loss (the untrained
    snapshot counts as epoch 0).
    """
    config.validate()
    if config.epochs == 0:
        return TrainResult(params=params)
    if not instances:
        raise DataError("no training instances")

    order = T.make_rng(config.seed, 10).permutation(len(instances))
    n_dev = 0
    if len(instances) > 1 and config.dev_fraction > 0:
        n_dev = min(max(1, int(len(instances) * config.dev_fraction)), len(instances) - 1)
    dev_set = [instances[i] for i in order[:n_dev]]
    train_set = [instances[i] for i in order[n_dev:]]

    theta = list(params.tensors().values())
    e1 = params.soft_prompt.e1
    adapters = [params.adapter.A, params.adapter.B]
    opt = Adam([([e1], config.lr_soft_prompt), (adapters, config.lr_adapter)])

    steps_per_epoch = math.ceil(len(train_set) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch

    log: list[dict] = []
    best_snapshot = params.astype(e1.dtype)
    best_dev = _dev_loss(dev_set, params, model, config) if dev_set else None
    best_epoch = 0
    if best_dev is not None:
        log.append({"epoch": 0, "dev_loss": best_dev, "best": True})
    bad_epochs = 0
    step = 0

    for epoch in range(1, config.epochs + 1):
        perm = T.make_rng(config.seed, 20, epoch).permutation(len(train_set))
        for start in range(0, len(train_set), config.batch_size):
            batch = [train_set[i] for i in perm[start:start + config.batch_size]]
            pairs = expand_in_batch(batch, config.in_batch_negatives)
            scale = 1.0 - step / total_steps
            with trainable(theta):
                total, point, pair = _batch_loss(pairs, params, model, config)
                loss_value = total.item()
                if not math.isfinite(loss_value):
                    raise NumericError(f"non-finite loss at step {step}")
                T.backward(total)
                grad_norm = clip_global_norm(theta, config.grad_clip)
                opt.step(scale)
            log.append({
                "step": step,
                "epoch": epoch,
                "lr_g1": config.lr_soft_prompt * scale,
                "lr_g2": config.lr_adapter * scale,
                "loss": loss_value,
                "loss_point": point.item(),
                "loss_pair": pair.item(),
                "grad_norm": grad_norm,
                "clipped": grad_norm > config.grad_clip,
            })
            step += 1
        if dev_set:
            dev = _dev_loss(dev_set, params, model, config)
            improved = dev < best_dev
            log.append({"epoch": epoch, "dev_loss": dev, "best": improved})
            if improved:
                best_dev = dev
                best_epoch = epoch
                best_snapshot = params.astype(e1.dtype)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.early_stop_patience:
                    logger.info("early stop after epoch %d (best epoch %d)", epoch, best_epoch)
                    break
        else:
            best_snapshot = params.astype(e1.dtype)
            best_epoch = epoch

    return TrainResult(params=best_snapshot, log=log, best_epoch=best_epoch,
                       best_dev_loss=best_dev, steps=step)

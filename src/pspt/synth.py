"""Seeded synthetic QA corpus generator for end-to-end demos and tests.

Every question belongs to a topic and shares one "bridge" token with its
positive passage. Topic question-words and topic passage-words live in
disjoint vocabularies, so the topic association is invisible to lexical
matching and must be learned. Bridge words are reused across questions,
which floods BM25 with near-tied confuser passages: the positive lands
somewhere inside the tie group, usually reachable at k=10 but often
outside the top 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .adapter import SEPARATOR_TEXT
from .errors import EXIT_OK, ArgumentParser, ConfigError, DataError, PsptError, report_error
from .evaluation import Passage, QaDataset, Question, bm25_run, save_dataset, write_run_file


PASSAGE_WORDS_PER_TOPIC = 3
QUESTION_WORDS_PER_TOPIC = 2
N_FILLER_WORDS = 40
# same-bridge confusers per passage pool, and the pool size (positive included)
CONFUSER_MIN, CONFUSER_MAX = 4, 11
POOL_SIZE = 14


@dataclass(frozen=True)
class SynthConfig:
    n_questions: int = 400
    n_topics: int = 40
    n_bridge_words: int = 30
    filler_tokens_min: int = 3
    filler_tokens_max: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.n_topics < 1:
            raise ConfigError(f"n_topics must be at least 1, got {self.n_topics}")
        if self.n_bridge_words < 2:
            # with one bridge word no question has an other-bridge negative
            raise ConfigError(f"n_bridge_words must be at least 2, got {self.n_bridge_words}")
        if not 0 <= self.filler_tokens_min <= self.filler_tokens_max:
            raise ConfigError(f"filler token range [{self.filler_tokens_min}, "
                              f"{self.filler_tokens_max}] must satisfy 0 <= min <= max")
        if self.n_questions < 2 * self.n_bridge_words:
            raise ConfigError("need several questions per bridge word")
        group = self.n_questions // self.n_bridge_words
        if group <= CONFUSER_MAX:
            raise ConfigError(
                f"only ~{group} questions per bridge; confuser_max {CONFUSER_MAX} unreachable")


def build_synthetic_dataset(config: SynthConfig = SynthConfig()) -> QaDataset:
    rng = T.make_rng(config.seed, 40)
    topics = [
        (
            [f"tp{k}x{j}" for j in range(PASSAGE_WORDS_PER_TOPIC)],
            [f"tq{k}x{j}" for j in range(QUESTION_WORDS_PER_TOPIC)],
        )
        for k in range(config.n_topics)
    ]
    bridges = [f"br{i}" for i in range(config.n_bridge_words)]
    fillers = [f"fl{i}" for i in range(N_FILLER_WORDS)]

    # near-equal bridge groups, shuffled so bridges do not track topics
    bridge_of = [bridges[i % config.n_bridge_words] for i in range(config.n_questions)]
    rng.shuffle(bridge_of)
    # passage ids are a random permutation, so BM25 tie-breaks carry no signal
    id_perm = rng.permutation(config.n_questions)

    question_texts, positive_texts, positive_ids = [], [], []
    for i in range(config.n_questions):
        passage_words, question_words = topics[i % config.n_topics]
        bridge = bridge_of[i]
        question_texts.append("find " + " ".join(question_words) + f" near {bridge}")
        n_fill = int(rng.integers(config.filler_tokens_min, config.filler_tokens_max + 1))
        body = list(passage_words) + [bridge]
        body += [fillers[j] for j in rng.integers(0, N_FILLER_WORDS, size=n_fill).tolist()]
        rng.shuffle(body)
        positive_texts.append(" ".join(body))
        positive_ids.append(f"d{int(id_perm[i]):04d}")

    by_bridge: dict[str, list[int]] = {}
    for i, bridge in enumerate(bridge_of):
        by_bridge.setdefault(bridge, []).append(i)
    # the questions of every other bridge, ascending: one list per bridge word,
    # not one scan of all questions per question
    other_bridges = {bridge: [j for j, b in enumerate(bridge_of) if b != bridge]
                     for bridge in by_bridge}
    # every pool a passage joins as a negative shares one (immutable) Passage
    negatives = [Passage(pid, text, False) for pid, text in zip(positive_ids, positive_texts)]

    questions = []
    for i in range(config.n_questions):
        same_bridge = [j for j in by_bridge[bridge_of[i]] if j != i]
        n_confusers = int(rng.integers(CONFUSER_MIN, CONFUSER_MAX + 1))
        n_confusers = min(n_confusers, len(same_bridge))
        confusers = [same_bridge[int(j)] for j in
                     rng.choice(len(same_bridge), size=n_confusers, replace=False)]
        others = other_bridges[bridge_of[i]]
        n_rest = POOL_SIZE - 1 - n_confusers
        rest = [others[int(j)] for j in rng.choice(len(others), size=n_rest, replace=False)]
        passages = [Passage(positive_ids[i], positive_texts[i], True)]
        passages += [negatives[j] for j in confusers + rest]
        questions.append(Question(f"q{i:04d}", question_texts[i], passages))
    return QaDataset(questions)


def split_dataset(dataset: QaDataset, n_train: int) -> tuple[QaDataset, QaDataset]:
    """Leading questions for training, the rest held out for evaluation."""
    if not 0 < n_train < len(dataset.questions):
        raise ConfigError(f"n_train {n_train} outside (0, {len(dataset.questions)})")
    return (QaDataset(dataset.questions[:n_train]),
            QaDataset(dataset.questions[n_train:]))


def pretraining_texts(dataset: QaDataset) -> list[str]:
    """Passage-then-question strings teaching the model the scoring layout."""
    out = []
    for q in dataset.questions:
        positives = [p for p in q.passages if p.relevant]
        for p in positives:
            out.append(f"{p.text} {SEPARATOR_TEXT} {q.text}")
    return out


def pack_sequences(units: list[list[int]], target_len: int, seed: int,
                   n_sequences: int) -> list[list[int]]:
    """Concatenate shuffled units into n_sequences sequences of target_len tokens.

    Without packing the model would only ever train the first ~20 positions,
    and scoring with a long soft prompt would run on untrained position
    embeddings.
    """
    for name, value in (("target_len", target_len), ("n_sequences", n_sequences)):
        if not value >= 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    if not any(map(len, units)):
        raise DataError("no unit to pack holds a token")
    rng = T.make_rng(seed, 41)
    packed = []
    order: list[int] = []
    cursor = 0
    for _ in range(n_sequences):
        seq: list[int] = []
        while len(seq) < target_len:
            if cursor >= len(order):
                order = [int(i) for i in rng.permutation(len(units))]
                cursor = 0
            seq.extend(units[order[cursor]])
            cursor += 1
        packed.append(seq[:target_len])
    return packed


def main(argv=None) -> int:
    parser = ArgumentParser(
        prog="python -m pspt.synth",
        description="Generate a seeded synthetic QA dataset (JSON-lines). Exit codes "
                    "are those of the pspt CLI.")
    parser.add_argument("out", help="output dataset path")
    parser.add_argument("--questions", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-split", help="also write the leading questions here")
    parser.add_argument("--eval-split", help="also write the remaining questions here")
    parser.add_argument("--train-size", type=int, default=320)
    parser.add_argument("--bm25-run", help="write a BM25 run over the eval split (or all)")
    parser.add_argument("--k", type=int, default=10, help="BM25 run depth")
    try:
        args = parser.parse_args(argv)
        if args.k < 1:
            raise ConfigError(f"--k must be at least 1, got {args.k}")
        dataset = build_synthetic_dataset(SynthConfig(n_questions=args.questions, seed=args.seed))
        # split before the first write, so a bad --train-size leaves no file behind
        train_ds, eval_ds = (split_dataset(dataset, args.train_size)
                             if args.train_split or args.eval_split else (None, dataset))
        save_dataset(dataset, args.out)
        print(f"wrote {len(dataset)} questions to {args.out}")
        if args.train_split:
            save_dataset(train_ds, args.train_split)
            print(f"wrote train split ({len(train_ds)}) to {args.train_split}")
        if args.eval_split:
            save_dataset(eval_ds, args.eval_split)
            print(f"wrote eval split ({len(eval_ds)}) to {args.eval_split}")
        if args.bm25_run:
            write_run_file(bm25_run(eval_ds, k=args.k), args.bm25_run)
            print(f"wrote BM25 top-{args.k} run to {args.bm25_run}")
    except (PsptError, OSError) as exc:
        return report_error(exc)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

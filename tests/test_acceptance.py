"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. The end-to-end experiment (criterion 4) trains
the adapter for real and takes a few minutes of CPU time.
"""

import json
import math
import time

import numpy as np
import pytest

from gradcheck import finite_diff_grad, max_rel_err
from pspt import tensor as T
from pspt.adapter import init_pspt_params, passage_embedding
from pspt.checkpoint import load_model
from pspt.cli import DEFAULTS as CLI_DEFAULTS
from pspt.cli import main as cli_main
from pspt.evaluation import (
    RetrievalRun,
    RunEntry,
    bm25_run,
    evaluate,
    hit_at_k,
    paired_t_test,
    recall_at_k,
    save_dataset,
    write_run_file,
)
from pspt.model import MicroLM, ModelConfig, Vocabulary, continue_pretraining, holdout_split
from pspt.optim import trainable
from pspt.scoring import (
    Candidate,
    make_pspt_scorer,
    make_upr_scorer,
    rerank_with_scores,
    score_pspt,
    score_upr,
)
from pspt.synth import (
    SynthConfig,
    build_synthetic_dataset,
    pack_sequences,
    pretraining_texts,
    split_dataset,
)
from pspt.training import (
    TrainConfig,
    TrainingInstance,
    build_instances,
    loss_pair,
    loss_point,
    loss_total,
    train,
)


def report(n, name, ok, detail=""):
    print(f"\n[criterion {n}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def micro_model(seed=5):
    vocab = Vocabulary([f"w{i}" for i in range(46)])  # |V| = 50
    config = ModelConfig(vocab_size=50, dim=32, n_layers=1, n_heads=4, max_seq_len=32)
    return MicroLM.init(config, vocab, seed)


def test_criterion_1_gradient_correctness():
    """Analytic gradients of the combined loss match finite differences."""
    t0 = time.time()
    model = micro_model().astype(np.float64)
    params = init_pspt_params(model, hard_prompt="w0 w1", soft_prompt_len=4,
                              rank=1, alpha=16.0, seed=3).astype(np.float64)
    rng = T.make_rng(17)
    params.soft_prompt.e1.data += rng.normal(0, 0.05, params.soft_prompt.e1.shape)
    params.adapter.A.data = rng.normal(0, 0.05, params.adapter.A.shape)
    params.adapter.B.data = rng.normal(0, 0.05, params.adapter.B.shape)
    q, d_pos, d_neg = [10, 11, 12], [20, 21, 22, 23], [30, 31]
    arrays = [params.soft_prompt.e1.data, params.adapter.A.data, params.adapter.B.data]

    def objective(_):
        return loss_total(q, d_pos, d_neg, params, model).item()

    fd = finite_diff_grad(objective, arrays, eps=1e-5)
    worst = 0.0
    with trainable(params.tensors().values()):
        T.backward(loss_total(q, d_pos, d_neg, params, model))
        for tensor, grad in zip(params.tensors().values(), fd):
            worst = max(worst, max_rel_err(tensor.grad, grad))
    elapsed = time.time() - t0
    report(1, "gradient correctness", worst < 1e-4 and elapsed < 120,
           f"(max rel err {worst:.2e} over {sum(a.size for a in arrays)} coords, {elapsed:.1f}s)")


def test_criterion_2_frozen_model_invariance():
    """Model checksum is bitwise identical before and after training."""
    model = micro_model()
    params = init_pspt_params(model, hard_prompt="w0 w1", soft_prompt_len=4, seed=1)
    rng = T.make_rng(23)
    instances = []
    for i in range(12):
        q = [int(x) for x in rng.integers(4, 50, size=3)]
        pos = q[:2] + [int(rng.integers(4, 50))]
        neg = [int(x) for x in rng.integers(4, 50, size=3)]
        instances.append(TrainingInstance(f"q{i}", q, f"p{i}", pos, f"n{i}", neg))
    before = model.checksum()
    train(TrainConfig(epochs=3, batch_size=4, in_batch_negatives=2, seed=2,
                      train_sample_size=12), instances, model, params)
    after = model.checksum()
    report(2, "frozen model invariance", before == after,
           f"(sha256 {before[:12]}... unchanged)")


def test_criterion_3_init_identity():
    """Fresh parameters reproduce hard-prompt scoring; adapter adds nothing."""
    model = micro_model()
    prompt = "w0 w1 w2 w3 w4 w5"
    ids = model.vocab.encode(prompt)
    params = init_pspt_params(model, hard_prompt=prompt, soft_prompt_len=len(ids), seed=4)
    rng = T.make_rng(29)
    worst_score, worst_embed = 0.0, 0.0
    for _ in range(100):
        q = [int(x) for x in rng.integers(4, 50, size=rng.integers(1, 6))]
        d = [int(x) for x in rng.integers(4, 50, size=rng.integers(1, 10))]
        sp = score_pspt(q, d, params, model)
        su = score_upr(q, d, model, prompt_text=prompt)
        worst_score = max(worst_score, abs(sp - su))
        e2 = passage_embedding(d, params, model).data
        e4 = model.embed(d).data
        worst_embed = max(worst_embed, float(np.max(np.abs(e2 - e4))))
    report(3, "init identity", worst_score < 1e-5 and worst_embed < 1e-7,
           f"(max score gap {worst_score:.2e}, max embedding gap {worst_embed:.2e})")


def _rerank_run(dataset, base_run, scorer, tag):
    queries = {}
    for qid, entries in base_run.queries.items():
        question = dataset.by_id[qid]
        cands = [Candidate(e.passage_id, dataset.passage_text(e.passage_id), e.rank, e.score)
                 for e in entries]
        ranked = rerank_with_scores(question.text, cands, scorer)
        queries[qid] = [RunEntry(c.passage_id, i + 1, s) for i, (c, s) in enumerate(ranked)]
    return RetrievalRun(tag, queries)


@pytest.mark.slow
def test_criterion_4_synthetic_end_to_end():
    """Trained reranking beats BM25 and untrained UPR by 10+ points of H@5."""
    t0 = time.time()
    seed = 7
    dataset = build_synthetic_dataset(SynthConfig(n_questions=400, seed=0))
    train_ds, eval_ds = split_dataset(dataset, 320)
    vocab = Vocabulary.from_texts(dataset.texts())
    config = ModelConfig(vocab_size=len(vocab))

    units = [vocab.encode(t) for t in pretraining_texts(train_ds)]
    corpus = pack_sequences(units, target_len=90, seed=seed, n_sequences=400)
    model = MicroLM.init(config, vocab, seed)
    continue_pretraining(model, holdout_split(corpus, seed)[0], seed, steps=1000)

    params = init_pspt_params(model, soft_prompt_len=50, rank=1, alpha=16.0, seed=seed)
    instances = build_instances(train_ds, seed=seed, sample_size=320, vocab=vocab)
    result = train(TrainConfig(batch_size=4, in_batch_negatives=4, epochs=20,
                               lr_soft_prompt=3e-2, lr_adapter=3e-5,
                               early_stop_patience=3, seed=seed,
                               train_sample_size=320), instances, model, params)

    base = bm25_run(eval_ds, k=10)
    upr = _rerank_run(eval_ds, base, make_upr_scorer(model), "upr")
    pspt = _rerank_run(eval_ds, base, make_pspt_scorer(model, result.params), "pspt")
    macros = {r.tag: r.macro for r in evaluate([base, upr, pspt], eval_ds, k_list=[5]).runs}
    h5 = {tag: m["H@5"] for tag, m in macros.items()}

    pairs = build_instances(eval_ds, seed=seed + 1, sample_size=len(eval_ds.questions),
                            vocab=vocab)
    correct = sum(
        int(score_pspt(p.question, p.positive, result.params, model)
            > score_pspt(p.question, p.negative, result.params, model))
        for p in pairs)
    accuracy = correct / len(pairs)
    elapsed = time.time() - t0
    ok = (h5["pspt"] >= h5["bm25"] + 0.10 and h5["pspt"] >= h5["upr"] + 0.10
          and accuracy >= 0.85 and elapsed < 900)
    report(4, "synthetic end-to-end improvement", ok,
           f"(H@5 bm25={h5['bm25']:.4f} upr={h5['upr']:.4f} pspt={h5['pspt']:.4f}, "
           f"pairwise acc={accuracy:.4f}, {elapsed:.0f}s)")


def test_criterion_5_loss_semantics():
    """Hinge positivity, identical-passage zero, additivity, uniform value."""
    model = micro_model()
    params = init_pspt_params(model, hard_prompt="w0 w1", soft_prompt_len=4, seed=6)
    rng = T.make_rng(31)
    params.adapter.B.data = rng.normal(0, 0.05, params.adapter.B.shape).astype(np.float32)
    hinge_ok = True
    additive_gap = 0.0
    for _ in range(25):
        q = [int(x) for x in rng.integers(4, 50, size=3)]
        dp = [int(x) for x in rng.integers(4, 50, size=4)]
        dn = [int(x) for x in rng.integers(4, 50, size=4)]
        pair = loss_pair(q, dp, dn, params, model).item()
        hinge_ok &= pair >= 0.0
        total = loss_total(q, dp, dn, params, model).item()
        point = loss_point(q, dp, params, model).item()
        additive_gap = max(additive_gap, abs(total - (point + pair)))
    same_zero = loss_pair([5, 6], [10, 11], [10, 11], params, model).item() == 0.0

    uniform = micro_model(seed=9)
    uniform.params["tok_emb"].data[:] = 0.0
    uparams = init_pspt_params(uniform, hard_prompt="w0", soft_prompt_len=2, seed=1)
    upoint = loss_point([5, 6, 7], [8], uparams, uniform).item()
    uniform_gap = abs(upoint - 3 * math.log(50))
    ok = hinge_ok and same_zero and additive_gap == 0.0 and uniform_gap < 1e-4
    report(5, "loss semantics", ok,
           f"(additivity gap {additive_gap:.1e}, uniform gap {uniform_gap:.1e})")


def test_criterion_6_metric_oracle_equivalence():
    """R@k and H@k equal brute-force set enumeration on 1000 random cases."""
    rng = T.make_rng(37)
    mismatches = 0
    monotone = True
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        ranking = [f"p{i}" for i in rng.permutation(n)]
        relevant = {f"p{i}" for i in range(n) if rng.random() < 0.35}
        if not relevant:
            relevant = {ranking[int(rng.integers(0, n))]}
        k = int(rng.integers(1, n + 3))
        hits = sum(1 for pid in ranking[:k] for r in relevant if pid == r)
        found = 1 if any(pid == r for pid in ranking[:k] for r in relevant) else 0
        if recall_at_k(ranking, relevant, k) != hits / len(relevant):
            mismatches += 1
        if hit_at_k(ranking, relevant, k) != found:
            mismatches += 1
        values = [(recall_at_k(ranking, relevant, kk), hit_at_k(ranking, relevant, kk))
                  for kk in range(1, n + 1)]
        monotone &= all(values[i][0] <= values[i + 1][0] and values[i][1] <= values[i + 1][1]
                        for i in range(len(values) - 1))
    report(6, "metric oracle equivalence", mismatches == 0 and monotone,
           f"(1000 cases, {mismatches} mismatches, monotone={monotone})")


def _p_by_integration(t, df):
    # Simpson over the density; low df has heavy tails, so widen the window
    # until the truncated mass is negligible (tail ~ x**-df / df)
    hi = abs(t) + 60.0
    while hi ** -df / df > 1e-9:
        hi *= 2
    n = 400001
    xs = np.linspace(abs(t), hi, n)
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    ys = c * (1 + xs * xs / df) ** (-(df + 1) / 2)
    h = (hi - abs(t)) / (n - 1)
    return 2 * (h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()))


def test_criterion_7_significance_test_correctness():
    """paired_t_test agrees with numeric t-CDF integration on 50 fixtures."""
    rng = T.make_rng(43)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 40))
        a = rng.uniform(0, 1, size=n)
        b = np.clip(a - rng.normal(0.02, 0.08, size=n), 0, 1)
        diff = a - b
        sd = diff.std(ddof=1)
        if sd == 0:
            continue
        t = diff.mean() / (sd / math.sqrt(n))
        expected = min(1.0, _p_by_integration(t, n - 1))
        worst = max(worst, abs(paired_t_test(a, b) - expected))
    conventions = (paired_t_test([1, 2, 3], [1, 2, 3]) == 1.0
                   and paired_t_test([2, 3, 4, 5], [1, 2, 3, 4]) == 0.0)
    report(7, "significance test correctness", worst < 1e-4 and conventions,
           f"(max |Δp| {worst:.2e}, zero-variance conventions hold)")


def test_criterion_8_reproducibility(tmp_path):
    """CLI train and rerank artifacts are byte-identical across reruns."""
    dataset = build_synthetic_dataset(
        SynthConfig(n_questions=60, n_topics=10, n_bridge_words=5, seed=3))
    dataset_path = tmp_path / "data.jsonl"
    save_dataset(dataset, dataset_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 21,
        "model": {"dim": 16, "n_layers": 1, "n_heads": 2, "max_seq_len": 96},
        "adapter": {"soft_prompt_len": 6},
        "train": {"epochs": 1, "train_sample_size": 8, "batch_size": 4,
                  "in_batch_negatives": 2},
        "paths": {"dataset": str(dataset_path), "output_dir": str(tmp_path)},
    }))
    model_path = tmp_path / "model.ckpt"
    assert cli_main(["--config", str(config_path), "init-model", "--out", str(model_path)]) == 0
    run_path = tmp_path / "bm25.run"
    write_run_file(bm25_run(dataset, k=8), run_path)

    artifacts = []
    for attempt in ("a", "b"):
        theta = tmp_path / f"theta_{attempt}.ckpt"
        log = tmp_path / f"log_{attempt}.jsonl"
        assert cli_main(["--config", str(config_path), "train",
                         "--checkpoint", str(model_path), "--out", str(theta),
                         "--log", str(log)]) == 0
        rerun = tmp_path / f"rerank_{attempt}.run"
        assert cli_main(["--config", str(config_path), "rerank", "--run-in", str(run_path),
                         "--run-out", str(rerun), "--scorer", "pspt",
                         "--checkpoint", str(model_path), "--params", str(theta)]) == 0
        artifacts.append((theta.read_bytes(), log.read_bytes(), rerun.read_bytes()))
    identical = artifacts[0] == artifacts[1]
    report(8, "reproducibility", identical, f"(rerun identical={identical})")


def test_criterion_9_trainable_fraction(tmp_path, capsys):
    """Printed trainable fraction equals the closed form and stays under 1%.

    `init-model` runs with the default model and adapter configuration, so
    the closed form (l_s*dim + V*r + r*dim) takes dim from the written
    checkpoint and l_s, r from the CLI adapter defaults. The printed frozen
    and trainable counts must match the model and the closed form exactly,
    and the printed fraction must be below 1% of the frozen parameters.
    """
    dataset = build_synthetic_dataset(
        SynthConfig(n_questions=60, n_topics=10, n_bridge_words=5, seed=3))
    dataset_path = tmp_path / "data.jsonl"
    save_dataset(dataset, dataset_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"paths": {"dataset": str(dataset_path),
                                                 "output_dir": str(tmp_path)}}))
    assert cli_main(["--config", str(config_path), "init-model",
                     "--out", str(tmp_path / "m.ckpt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    frozen = int(lines[0].split(":")[1])
    theta = int(lines[1].split(":")[1])
    printed_fraction = float(lines[2].split(":")[1].rstrip("%"))
    model = load_model(tmp_path / "m.ckpt")
    adapter = CLI_DEFAULTS["adapter"]
    v, dim = model.config.vocab_size, model.config.dim
    l_s, r = adapter["soft_prompt_len"], adapter["rank"]
    closed_form = l_s * dim + v * r + r * dim
    with capsys.disabled():
        equality = (theta == closed_form and frozen == model.param_count()
                    and abs(printed_fraction - 100 * closed_form / frozen) < 1e-4)
        under_one_percent = printed_fraction < 1.0
        report(9, "trainable fraction", equality and under_one_percent,
               f"(closed-form equality: {equality}; fraction {printed_fraction:.4f}% "
               f"vs <1% target: {under_one_percent}; dim={dim}, V={v}, l_s={l_s}, r={r})")

"""The three benchmark workloads: set-up, warm-up, closed-loop measurement, checks.

Every workload drives the ``pspt`` package through its public functions, one
call at a time (one process, one worker, closed loop: a query or step starts
only after the previous one finished), which is how ``pspt rerank`` and
``pspt train`` process their inputs. Calls go through module attributes
(``scoring.rerank_with_scores``) so that a traced run sees them.

Correctness checks run outside the timed regions. A failed check marks the
operation it belongs to as failed.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import pspt.adapter as adapter
import pspt.checkpoint as checkpoint
import pspt.evaluation as evaluation
import pspt.model as model_mod
import pspt.scoring as scoring
import pspt.synth as synth
import pspt.tensor as tensor
import pspt.training as training

import layers
from tracing import SpanArrays, Tracer

SETUP_REPEATS = 9
# |float32 score - float64 score| allowed on the re-scored sample (sum mode)
F64_ATOL = 2e-3
# |score alone - score in its list| allowed; batching or padding may reorder sums
ALONE_ATOL = 1e-4
ALONE_RTOL = 1e-5
CHECK_QUERIES = 4


@dataclass(frozen=True)
class RerankSpec:
    scorer: str  # "pspt" or "upr"
    dim: int = 64
    n_layers: int = 2
    filler_tokens_min: int = 3
    filler_tokens_max: int = 8
    n_questions: int = 400
    n_bridge_words: int = 30
    n_train: int = 320
    k: int = 10
    soft_prompt_len: int = 50


@dataclass(frozen=True)
class TrainSpec:
    dim: int = 128
    n_layers: int = 4
    n_questions: int = 400
    n_bridge_words: int = 30
    n_train: int = 320
    pack_len: int = 90
    n_sequences: int = 400
    pretrain_steps: int = 8
    pretrain_batch: int = 8
    instances: int = 40
    batch_size: int = 4
    in_batch_negatives: int = 4
    soft_prompt_len: int = 50


# why each workload exists: see BENCHMARK.json and README.md
WORKLOADS = {
    "rerank_prefix": RerankSpec(scorer="pspt"),
    "rerank_longdoc": RerankSpec(scorer="upr", filler_tokens_min=80, filler_tokens_max=200),
    "train_pipeline": TrainSpec(),
}


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    alias: str | None = None  # the metric's name in BENCHMARK.json, if any


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    def add(self, name: str, value: float, unit: str, samples: int, alias=None) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), alias)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_exception(outcome: Outcome, what: str) -> None:
    if not outcome.notes:
        traceback.print_exc(file=sys.stderr)
    outcome.fail(f"{what}: {sys.exc_info()[1]!r}")


def _synth_config(spec, seed: int, **extra) -> synth.SynthConfig:
    return synth.SynthConfig(n_questions=spec.n_questions, n_bridge_words=spec.n_bridge_words,
                             seed=seed, **extra)


def _model_roundtrip_ok(model, loaded) -> bool:
    return (loaded.config == model.config and loaded.vocab.tokens == model.vocab.tokens
            and sorted(loaded.params) == sorted(model.params)
            and all(loaded.params[n].data.dtype == p.data.dtype
                    and loaded.params[n].data.tobytes() == p.data.tobytes()
                    for n, p in model.params.items()))


def _params_roundtrip_ok(params, loaded) -> bool:
    a, b = params.tensors(), loaded.tensors()
    return (a.keys() == b.keys() and loaded.adapter.rank == params.adapter.rank
            and loaded.adapter.alpha == params.adapter.alpha
            and all(a[n].data.tobytes() == b[n].data.tobytes() for n in a))


def _usage() -> tuple[int, float, float]:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_minflt, r.ru_utime, r.ru_stime


def _add_usage(outcome: Outcome, before, after, ops: int, op_name: str) -> None:
    """Minor page faults per operation and the system share of CPU time."""
    faults, user, sys_time = (b - a for a, b in zip(before, after))
    outcome.add(f"minor_faults_per_{op_name}", faults / max(1, ops), "count", ops)
    outcome.add("sys_time_share", sys_time / max(1e-9, user + sys_time), "fraction", ops)


class _SetupSampler:
    """Runs the remaining set-ups spread evenly over the timed loop.

    Machine speed drifts over tens of seconds, so set-ups done back to back
    sample one moment; spread out, their median follows the whole run like
    the loop's own metrics. Callers exclude `spent` from loop timings.
    """

    def __init__(self, build, outcome: Outcome, seconds: float, setup_times: list):
        self.build, self.outcome, self.setup_times = build, outcome, setup_times
        reps = SETUP_REPEATS - len(setup_times)
        t0 = time.perf_counter()
        self.due = [t0 + seconds * (k + 0.5) / reps for k in range(reps)]
        self.spent = 0.0

    def __call__(self, finish: bool = False) -> None:
        while self.due and (finish or time.perf_counter() >= self.due[0]):
            self.due.pop(0)
            t0 = time.perf_counter()
            self.setup_times += _timed_setups(self.build, self.outcome, 1,
                                              first=len(self.setup_times))[1]
            self.spent += time.perf_counter() - t0


def _timed_setups(build, outcome: Outcome, reps: int, tracer: Tracer | None = None,
                  first: int = 0):
    """Run set-up `reps` times; return the last state and each duration."""
    durations, state = [], None
    for i in range(first, first + reps):
        outcome.attempted += 1
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            state, ok = build(i)
        except Exception:
            state, ok = None, False
            _report_exception(outcome, f"setup {i}")
        finally:
            durations.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
        if state is not None and not ok:
            outcome.fail(f"setup {i}: checkpoint round trip is not bit-exact")
    return state, durations


# --------------------------------------------------------------------------
# Reranking
# --------------------------------------------------------------------------

@dataclass
class RerankState:
    model: object
    params: object
    scorer: object
    queries: list  # (question text, [Candidate]) in run-file order
    ckpt_bytes: int


def _rerank_setup(spec: RerankSpec, seed: int, work_dir: str, rep: int):
    dataset = synth.build_synthetic_dataset(_synth_config(
        spec, seed, filler_tokens_min=spec.filler_tokens_min,
        filler_tokens_max=spec.filler_tokens_max))
    _, eval_ds = synth.split_dataset(dataset, spec.n_train)
    vocab = model_mod.Vocabulary.from_texts(dataset.texts())
    config = model_mod.ModelConfig(vocab_size=len(vocab), dim=spec.dim, n_layers=spec.n_layers)
    model = model_mod.MicroLM.init(config, vocab, seed)

    model_path = os.path.join(work_dir, f"model{rep}.ckpt")
    checkpoint.save_model(model, model_path)
    loaded = checkpoint.load_model(model_path)
    ok = _model_roundtrip_ok(model, loaded)
    ckpt_bytes = os.path.getsize(model_path)

    params = None
    if spec.scorer == "pspt":
        params = adapter.init_pspt_params(loaded, soft_prompt_len=spec.soft_prompt_len, seed=seed)
        # stand-in for a trained adapter: a fresh B is zero and would hide the adapter path
        rng = tensor.make_rng(seed, 901)
        params.adapter.B.data = rng.normal(0.0, 0.01, params.adapter.B.shape).astype(np.float32)
        params_path = os.path.join(work_dir, f"pspt{rep}.ckpt")
        adapter.save_params(params, params_path)
        loaded_params = adapter.load_params(params_path)
        ok = ok and _params_roundtrip_ok(params, loaded_params)
        ckpt_bytes += os.path.getsize(params_path)
        params = loaded_params
        scorer = scoring.make_pspt_scorer(loaded, params)
    else:
        scorer = scoring.make_upr_scorer(loaded)

    run_path = os.path.join(work_dir, f"bm25_{rep}.run")
    evaluation.write_run_file(evaluation.bm25_run(eval_ds, k=spec.k), run_path)
    run = evaluation.read_run_file(run_path)
    queries = []
    for qid in sorted(run.queries):
        cands = [scoring.Candidate(e.passage_id, eval_ds.passage_text(e.passage_id), e.rank,
                                   e.score) for e in run.queries[qid]]
        queries.append((eval_ds.by_id[qid].text, cands))
    return RerankState(loaded, params, scorer, queries, ckpt_bytes), ok


def _rerank_once(state: RerankState, qi: int, outcome: Outcome):
    text, cands = state.queries[qi]
    try:
        return scoring.rerank_with_scores(text, cands, state.scorer)
    except Exception:
        _report_exception(outcome, f"query {qi}")
        return None


def _rerank_loop(state: RerankState, outcome: Outcome, seconds: float, between):
    """Closed loop cycling over the queries for `seconds`; `between` runs
    between queries and its time is left out of the returned wall time."""
    records, lat = [], []
    n = len(state.queries)
    t_start = time.perf_counter()
    while not records or time.perf_counter() - t_start < seconds:
        qi = len(records) % n
        t0 = time.perf_counter()
        ranked = _rerank_once(state, qi, outcome)
        lat.append(time.perf_counter() - t0)
        records.append((qi, ranked))
        between()
    between(finish=True)
    return records, lat, time.perf_counter() - t_start - between.spent


def _paired_trace(tracer: Tracer, unit, seconds: float, at_boundary=lambda i: True):
    """Run each unit of work untraced, then again traced, until `seconds` have
    passed at a boundary. Returns (units, untraced seconds, traced seconds, usage):
    the difference of the seconds is the tracing overhead on identical work, and
    usage holds the page faults and user/system CPU seconds of the traced units."""
    untraced = traced = 0.0
    usage = [0, 0.0, 0.0]  # faults, user and system seconds of the traced units
    i = 0
    t_start = time.perf_counter()
    while not (i and at_boundary(i) and time.perf_counter() - t_start >= seconds):
        t0 = time.perf_counter()
        unit(i, False)
        untraced += time.perf_counter() - t0
        tracer.install()
        try:
            u0, t0 = _usage(), time.perf_counter()
            unit(i, True)
            traced += time.perf_counter() - t0
            usage = [acc + b - a for acc, a, b in zip(usage, u0, _usage())]
        finally:
            tracer.uninstall()
        i += 1
    return i, untraced, traced, usage


def _check_rerank(spec: RerankSpec, state: RerankState, records, outcome: Outcome,
                  seed: int) -> None:
    outcome.attempted += len(records)
    first_ok: dict[int, list] = {}
    for qi, ranked in records:
        if ranked is None:
            continue  # counted when it raised
        cands = state.queries[qi][1]
        ids = [c.passage_id for c, _ in ranked]
        if len(ids) != len(cands) or sorted(ids) != sorted(c.passage_id for c in cands):
            outcome.fail(f"query {qi}: reranked list is not a permutation of its input")
        elif not all(math.isfinite(s) and s <= 0.0 for _, s in ranked):
            outcome.fail(f"query {qi}: a sum-mode score is non-finite or positive")
        else:
            first_ok.setdefault(qi, ranked)

    # fixed sample: re-score every candidate in float64, and one candidate on its own
    model64 = state.model.astype(np.float64)
    if spec.scorer == "pspt":
        scorer64 = scoring.make_pspt_scorer(model64, state.params.astype(np.float64))
    else:
        scorer64 = scoring.make_upr_scorer(model64)
    rng = tensor.make_rng(seed, 902)
    worst_gap = 0.0
    for qi in sorted(first_ok)[:CHECK_QUERIES]:
        text, ranked = state.queries[qi][0], first_ok[qi]
        cand, in_list = ranked[int(rng.integers(0, len(ranked)))]
        try:
            gap = max(abs(s - scorer64(text, c.text)) for c, s in ranked)
            alone = scoring.rerank_with_scores(text, [cand], state.scorer)[0][1]
        except Exception:
            _report_exception(outcome, f"query {qi}: re-scoring the sample")
            continue
        worst_gap = max(worst_gap, gap)
        if not gap <= F64_ATOL:
            outcome.fail(f"query {qi}: float32 and float64 scores differ by {gap:.3g}")
        if not abs(alone - in_list) <= ALONE_ATOL + ALONE_RTOL * abs(in_list):
            outcome.fail(f"query {qi}: candidate alone scores {alone!r}, in its list {in_list!r}")
    outcome.info["max_float64_gap"] = worst_gap


def run_rerank(spec: RerankSpec, seed: int, seconds: float, trace: bool,
               work_dir: str) -> tuple[Outcome, Tracer | None]:
    outcome = Outcome()
    tracer = Tracer() if trace else None
    def build(rep):
        return _rerank_setup(spec, seed, work_dir, rep)

    state, setup_times = _timed_setups(build, outcome, SETUP_REPEATS if trace else 1, tracer)
    if state is None:
        return outcome, tracer
    n = len(state.queries)
    outcome.info.update(model=_model_info(state.model), queries=n, candidates_per_query=spec.k)

    for qi in range(min(2, n)):  # warm-up, not counted
        _rerank_once(state, qi, Outcome())

    if not trace:
        usage = _usage()
        records, lat, wall = _rerank_loop(
            state, outcome, seconds, _SetupSampler(build, outcome, seconds, setup_times))
        usage = usage, _usage()
        _check_rerank(spec, state, records, outcome, seed)
        cands = sum(len(state.queries[qi][1]) for qi, _ in records)
        outcome.add("setup_s", statistics.median(setup_times), "s", len(setup_times), "setup_s")
        outcome.add("candidates_per_s", cands / wall, "1/s", cands, "throughput_per_s")
        outcome.add("query_ms_p50", 1e3 * _percentile(lat, 50), "ms", len(lat), "latency_ms_p50")
        outcome.add("query_ms_p90", 1e3 * _percentile(lat, 90), "ms", len(lat), "latency_ms_p90")
        outcome.add("peak_rss_mb", _peak_rss_mb(), "MB", 1, "peak_rss_mb")
        _add_usage(outcome, *usage, len(records), "query")
        _add_error_rate(outcome)
        return outcome, None

    # traced run: every query untraced then traced, over whole passes
    records = []

    def unit(i, traced):
        records.append((i % n, _rerank_once(state, i % n, outcome)))

    loop_from = len(tracer)
    queries, untraced_s, traced_s, usage = _paired_trace(tracer, unit, seconds,
                                                         lambda i: i % n == 0)
    _check_rerank(spec, state, records, outcome, seed)
    layers.add_layer_metrics(outcome, SpanArrays(tracer), loop_from=loop_from, passes=queries // n,
                             traced_s=traced_s, untraced_s=untraced_s, usage=usage,
                             setup_reps=len(setup_times), ckpt_bytes=state.ckpt_bytes,
                             dev_passes=0)
    _add_error_rate(outcome)
    return outcome, tracer


# --------------------------------------------------------------------------
# Pretraining + adapter training
# --------------------------------------------------------------------------

@dataclass
class TrainState:
    model: object
    corpus: list
    instances: list
    pairs_per_train: int
    ckpt_bytes: int
    pretrain_calls: int = 0  # also the seed offset of the next pretraining step


def _train_config(spec: TrainSpec, seed: int, n_instances: int) -> training.TrainConfig:
    return training.TrainConfig(batch_size=spec.batch_size,
                                in_batch_negatives=spec.in_batch_negatives, epochs=1,
                                seed=seed, train_sample_size=n_instances)


def _pairs_per_epoch(config: training.TrainConfig, n_instances: int) -> int:
    """Training pairs in one epoch: every non-dev instance times its negatives."""
    n_dev = min(max(1, int(n_instances * config.dev_fraction)), n_instances - 1)
    return (n_instances - n_dev) * config.in_batch_negatives


def _train_setup(spec: TrainSpec, seed: int, work_dir: str, rep: int):
    dataset = synth.build_synthetic_dataset(_synth_config(spec, seed))
    train_ds, _ = synth.split_dataset(dataset, spec.n_train)
    vocab = model_mod.Vocabulary.from_texts(dataset.texts())
    config = model_mod.ModelConfig(vocab_size=len(vocab), dim=spec.dim, n_layers=spec.n_layers)
    model = model_mod.MicroLM.init(config, vocab, seed)
    model_path = os.path.join(work_dir, f"model{rep}.ckpt")
    checkpoint.save_model(model, model_path)
    loaded = checkpoint.load_model(model_path)
    ok = _model_roundtrip_ok(model, loaded)

    units = [u for u in (vocab.encode(t) for t in synth.pretraining_texts(train_ds)) if u]
    corpus = synth.pack_sequences(units, target_len=spec.pack_len, seed=seed,
                                  n_sequences=spec.n_sequences)
    instances = training.build_instances(train_ds, seed=seed, sample_size=spec.instances,
                                         vocab=vocab)
    pairs = _pairs_per_epoch(_train_config(spec, seed, len(instances)), len(instances))
    return TrainState(loaded, corpus, instances, pairs, os.path.getsize(model_path)), ok


def _all_finite(model) -> bool:
    return all(np.isfinite(p.data).all() for p in model.params.values())


def _train_iteration(spec: TrainSpec, state: TrainState, seed: int, it: int,
                     outcome: Outcome, instances=None, pretrain_steps=None,
                     between=lambda: None):
    """N one-step continue_pretraining calls, then one epoch of training.train.

    Returns per-step pretraining seconds and the train call's seconds (None
    where an operation raised). Checks, and `between`, run outside the timed
    calls.
    """
    model = state.model
    instances = state.instances if instances is None else instances
    steps = spec.pretrain_steps if pretrain_steps is None else pretrain_steps
    pre_times = []
    before = model.checksum()
    for s in range(steps):
        outcome.attempted += 1
        state.pretrain_calls += 1
        t0 = time.perf_counter()
        try:
            model_mod.continue_pretraining(model, state.corpus, seed=seed + state.pretrain_calls,
                                           steps=1, batch_size=spec.pretrain_batch)
        except Exception:
            _report_exception(outcome, f"pretrain step {it}.{s}")
            continue
        pre_times.append(time.perf_counter() - t0)
        between()
    if pre_times and not _all_finite(model):
        outcome.fail(f"iteration {it}: pretraining left non-finite weights")
    if pre_times and model.checksum() == before:
        outcome.fail(f"iteration {it}: pretraining did not change the weights")

    outcome.attempted += 1
    params = adapter.init_pspt_params(model, soft_prompt_len=spec.soft_prompt_len, seed=seed + it)
    theta0 = {n: t.data.copy() for n, t in params.tensors().items()}
    frozen = model.checksum()
    t0 = time.perf_counter()
    try:
        result = training.train(_train_config(spec, seed + it, len(instances)), instances,
                                model, params)
    except Exception:
        _report_exception(outcome, f"train call {it}")
        return pre_times, None, None
    train_time = time.perf_counter() - t0
    _check_train(result, theta0, frozen, model, outcome, it)
    return pre_times, train_time, result


def _check_train(result, theta0, frozen, model, outcome: Outcome, it: int) -> None:
    losses = [r[k] for r in result.log for k in ("loss", "loss_point", "loss_pair", "dev_loss")
              if k in r]
    dev = [r["dev_loss"] for r in result.log if "dev_loss" in r]
    theta = result.params.tensors()
    if model.checksum() != frozen:
        outcome.fail(f"train call {it}: the frozen model changed")
    elif not all(math.isfinite(v) for v in losses):
        outcome.fail(f"train call {it}: a logged loss is not finite")
    elif not (dev and result.best_dev_loss is not None and result.best_dev_loss < dev[0]):
        outcome.fail(f"train call {it}: best dev loss is not below the epoch-0 dev loss")
    elif all(np.array_equal(theta[n].data, theta0[n]) for n in theta0):
        outcome.fail(f"train call {it}: theta did not change")


def run_train(spec: TrainSpec, seed: int, seconds: float, trace: bool,
              work_dir: str) -> tuple[Outcome, Tracer | None]:
    outcome = Outcome()
    tracer = Tracer() if trace else None
    def build(rep):
        return _train_setup(spec, seed, work_dir, rep)

    state, setup_times = _timed_setups(build, outcome, SETUP_REPEATS if trace else 1, tracer)
    if state is None:
        return outcome, tracer
    outcome.info.update(model=_model_info(state.model), instances=len(state.instances),
                        pretrain_steps_per_iteration=spec.pretrain_steps)

    # warm-up, not counted: one pretraining step and a short training call, too
    # short for the dev-loss gate
    _train_iteration(spec, state, seed, 0, Outcome(), instances=state.instances[:8],
                     pretrain_steps=1)

    tokens_per_step = spec.pretrain_batch * spec.pack_len
    if not trace:
        pre, trains = [], []
        it = 1
        sampler = _SetupSampler(build, outcome, seconds, setup_times)
        usage = _usage()
        t_start = time.perf_counter()
        while it == 1 or time.perf_counter() - t_start < seconds:
            p, t, _ = _train_iteration(spec, state, seed, it, outcome, between=sampler)
            pre += p
            trains += [t] if t is not None else []
            it += 1
        sampler(finish=True)
        usage = usage, _usage()
        outcome.add("setup_s", statistics.median(setup_times), "s", len(setup_times), "setup_s")
        if trains:
            outcome.add("train_pairs_per_s", state.pairs_per_train * len(trains) / sum(trains),
                        "1/s", len(trains), "throughput_per_s")
        if pre:
            outcome.add("pretrain_tokens_per_s", tokens_per_step * len(pre) / sum(pre), "1/s",
                        len(pre))
            outcome.add("pretrain_step_ms_p50", 1e3 * _percentile(pre, 50), "ms", len(pre),
                        "latency_ms_p50")
            outcome.add("pretrain_step_ms_p90", 1e3 * _percentile(pre, 90), "ms", len(pre),
                        "latency_ms_p90")
        outcome.add("peak_rss_mb", _peak_rss_mb(), "MB", 1, "peak_rss_mb")
        _add_usage(outcome, *usage, it - 1, "iteration")
        _add_error_rate(outcome)
        return outcome, None

    # traced run: every pipeline iteration untraced then traced
    dev_passes = []

    def unit(i, traced):
        _, _, result = _train_iteration(spec, state, seed, 2 * i + 1 + traced, outcome)
        if traced and result is not None:
            dev_passes.append(sum(1 for r in result.log if "dev_loss" in r))

    loop_from = len(tracer)
    iterations, untraced_s, traced_s, usage = _paired_trace(tracer, unit, seconds)
    layers.add_layer_metrics(outcome, SpanArrays(tracer), loop_from=loop_from, passes=iterations,
                             traced_s=traced_s, untraced_s=untraced_s, usage=usage,
                             setup_reps=len(setup_times), ckpt_bytes=state.ckpt_bytes,
                             dev_passes=sum(dev_passes))
    _add_error_rate(outcome)
    return outcome, tracer


def _add_error_rate(outcome: Outcome) -> None:
    outcome.add("error_rate", outcome.failed / max(1, outcome.attempted), "fraction",
                outcome.attempted)


def _model_info(model) -> dict:
    c = model.config
    return {"dim": c.dim, "n_layers": c.n_layers, "n_heads": c.n_heads,
            "vocab_size": c.vocab_size, "max_seq_len": c.max_seq_len,
            "params": model.param_count()}


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: str, spec=None):
    """Run one workload; `spec` overrides its size (the smoke test shrinks it)."""
    spec = WORKLOADS[name] if spec is None else spec
    runner = run_train if isinstance(spec, TrainSpec) else run_rerank
    return runner(spec, seed, seconds, trace, work_dir)

"""Per-layer metrics computed from the spans of a traced run.

Every metric is listed with the layer it describes. Volumes and times are
normalised per pass: one pass over all held-out queries for a rerank
workload, one pipeline iteration (pretraining steps plus one training epoch)
for ``train_pipeline``. Metrics marked ``report_only`` are printed but not
sent in the result line, because on some workload their layer does not run
and the value would be a constant zero time.
"""

from __future__ import annotations

import numpy as np

from tracing import SCORING_PRIMITIVES, TENSOR_OPS, SpanArrays

OPS = tuple("tensor." + op for op in TENSOR_OPS)
FORWARD = "model.forward_logprobs"
LOOP_ROOTS = ("scoring.rerank_with_scores", "model.continue_pretraining", "training.train")


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _p50_ms(durations: np.ndarray) -> float:
    return 1e3 * float(np.median(durations)) if durations.size else 0.0


def _step_windows(sp: SpanArrays, loop: np.ndarray):
    """(start, end) of each training step: expand_in_batch start to Adam.step end."""
    in_train = sp.under("training.train") & loop
    starts = np.sort(sp.start[in_train & sp.is_("training.expand_in_batch")])
    ends = np.sort(sp.end[in_train & sp.is_("optim.adam_step")])
    return starts, ends[:len(starts)]


def _in_windows(times: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    if not starts.size:
        return np.zeros(times.shape, dtype=bool)
    idx = np.searchsorted(starts, times, side="right") - 1
    ok = idx >= 0
    ok[ok] = times[ok] <= ends[idx[ok]]
    return ok


def add_layer_metrics(outcome, sp: SpanArrays, *, loop_from: int, passes: int,
                      traced_s: float, untraced_s: float, usage, setup_reps: int,
                      ckpt_bytes: int, dev_passes: int) -> None:
    """Add every per-layer metric to `outcome`; see README.md for the map."""
    n = len(sp.name)
    loop = np.arange(n) >= loop_from
    setup = ~loop
    work = loop & sp.under(*LOOP_ROOTS)
    prim = work & sp.is_(*SCORING_PRIMITIVES)
    under_prim = work & sp.under(*SCORING_PRIMITIVES)
    ops = work & sp.is_(*OPS)
    fwd = work & sp.is_(FORWARD)
    n_prim = int(prim.sum())
    step_starts, step_ends = _step_windows(sp, loop)
    n_steps = len(step_starts)
    in_step = work & _in_windows(sp.start, step_starts, step_ends)

    def add(name, value, unit, samples, report_only=False):
        outcome.add(name, value, unit, samples, None if report_only else name)

    def per_pass_ms(mask):
        return 1e3 * float(sp.dur[mask].sum()) / passes

    # tensor
    add("tensor.ops_per_candidate", _ratio((ops & under_prim).sum(), n_prim), "count", n_prim)
    add("tensor.ops_per_train_step", _ratio((ops & in_step).sum(), n_steps), "count", n_steps)
    mm = work & sp.is_("tensor.matmul")
    add("tensor.matmul.calls", mm.sum() / passes, "count", passes)
    add("tensor.matmul.fwd_ms", per_pass_ms(mm), "ms", int(mm.sum()))
    add("tensor.matmul.gflop", sp.aux_b[mm].sum() / 1e9 / passes, "GFLOP", passes)
    add("tensor.matmul.gflop_per_s", _ratio(sp.aux_b[mm].sum() / 1e9, sp.dur[mm].sum()),
        "GFLOP/s", int(mm.sum()))
    split = work & sp.is_("tensor.slice_cols", "tensor.concat_cols", "tensor.transpose")
    add("tensor.head_split_ms", per_pass_ms(split), "ms", int(split.sum()))
    for op in ("softmax_rows", "log_softmax_rows", "layer_norm"):
        m = work & sp.is_("tensor." + op)
        add(f"tensor.{op}.fwd_ms", per_pass_ms(m), "ms", int(m.sum()))
    bwd = work & sp.is_("tensor.backward")
    add("tensor.backward_ms", per_pass_ms(bwd), "ms", int(bwd.sum()), report_only=True)
    add("tensor.backward.calls", bwd.sum() / passes, "count", passes)
    add("tensor.out_bytes_per_step", _ratio(sp.aux_a[ops & in_step].sum(), n_steps), "bytes",
        n_steps)

    # model
    add("model.forward.calls", fwd.sum() / passes, "count", passes)
    add("model.forward.rows", sp.aux_a[fwd].sum() / passes, "count", passes)
    add("model.forward_self_ms", 1e3 * sp.self_time[fwd].sum() / passes, "ms", int(fwd.sum()))
    add("model.forward.rows_per_s", _ratio(sp.aux_a[fwd].sum(), sp.dur[fwd].sum()), "1/s",
        int(fwd.sum()))
    enc = work & sp.is_("model.encode")
    add("model.encode.calls_per_candidate", _ratio(enc.sum(), n_prim), "count", n_prim)
    pre = work & sp.is_("model.continue_pretraining")
    add("model.pretrain_step_ms_p50", _p50_ms(sp.dur[pre]), "ms", int(pre.sum()),
        report_only=True)

    # adapter
    asm = work & sp.is_("adapter.assemble_blocks", "adapter.assemble_input",
                        "adapter.passage_embedding")
    add("adapter.assemble_self_ms", 1e3 * sp.self_time[asm].sum() / passes, "ms",
        int(asm.sum()))
    blocks = work & sp.is_("adapter.assemble_blocks")
    add("adapter.prefix_row_share",
        _ratio(sp.aux_a[blocks].sum(), sp.aux_a[fwd & under_prim].sum()), "fraction",
        int(blocks.sum()))
    add("adapter.truncated_passages", sp.aux_b[blocks].sum() / passes, "count", passes)

    # scoring
    add("scoring.score_ms_p50", _p50_ms(sp.dur[prim]), "ms", n_prim)
    rr = work & sp.is_("scoring.rerank_with_scores")
    add("scoring.rerank_self_ms", 1e3 * sp.self_time[rr].sum() / passes, "ms", int(rr.sum()),
        report_only=True)
    add("scoring.forward_share",
        _ratio(sp.dur[fwd & under_prim].sum(), sp.dur[prim].sum()), "fraction", n_prim)

    # training
    step_ms = 1e3 * (step_ends - step_starts)
    add("training.step_ms_p50", float(np.median(step_ms)) if n_steps else 0.0, "ms", n_steps,
        report_only=True)
    add("training.forwards_per_step", _ratio((fwd & in_step).sum(), n_steps), "count", n_steps)
    add("training.backward_share",
        _ratio(sp.dur[bwd & in_step].sum(), (step_ends - step_starts).sum()), "fraction",
        n_steps)
    dev = work & sp.is_("training.loss_total")
    add("training.dev_pass_ms", _ratio(1e3 * sp.dur[dev].sum(), dev_passes), "ms", dev_passes,
        report_only=True)
    add("training.dev_forwards_per_instance",
        _ratio((fwd & sp.under("training.loss_total")).sum(), dev.sum()), "count",
        int(dev.sum()))

    # optim: Adam and clipping over every frozen weight, inside pretraining
    in_pre = work & sp.under("model.continue_pretraining")
    adam = in_pre & sp.is_("optim.adam_step")
    clip_pre = in_pre & sp.is_("optim.clip_global_norm")
    add("optim.adam_step_ms", _ratio(1e3 * sp.dur[adam].sum(), adam.sum()), "ms",
        int(adam.sum()), report_only=True)
    add("optim.clip_ms", _ratio(1e3 * sp.dur[clip_pre].sum(), clip_pre.sum()), "ms",
        int(clip_pre.sum()), report_only=True)
    clip = work & sp.is_("optim.clip_global_norm")
    add("optim.clipped_share", _ratio((sp.aux_a[clip] > sp.aux_b[clip]).sum(), clip.sum()),
        "fraction", int(clip.sum()))

    # checkpoint, evaluation, synth: per set-up
    def per_setup_ms(*names):
        m = setup & sp.is_(*names)
        return 1e3 * float(sp.dur[m].sum()) / setup_reps

    add("checkpoint.save_ms", per_setup_ms("checkpoint.save_model", "checkpoint.save_params"),
        "ms", setup_reps)
    add("checkpoint.load_ms", per_setup_ms("checkpoint.load_model", "checkpoint.load_params"),
        "ms", setup_reps)
    add("checkpoint.bytes", ckpt_bytes, "bytes", 1)
    add("evaluation.bm25_run_ms", per_setup_ms("evaluation.bm25_run"), "ms", setup_reps,
        report_only=True)
    add("evaluation.run_io_ms",
        per_setup_ms("evaluation.write_run_file", "evaluation.read_run_file"), "ms",
        setup_reps, report_only=True)
    add("synth.build_ms", per_setup_ms("synth.build_synthetic_dataset"), "ms", setup_reps)

    # the process: page faults (fresh pages for large temporaries) and kernel time
    faults, user, sys_time = usage
    add("process.minor_faults_per_pass", faults / passes, "count", passes)
    add("process.sys_share", _ratio(sys_time, user + sys_time), "fraction", passes)

    # the tracer itself: overhead on identical work, and time outside any span
    top = loop & (sp.parent < 0)
    overhead = traced_s - untraced_s
    uncovered = traced_s - float(sp.dur[top].sum())
    add("trace.overhead_ms", 1e3 * overhead / passes, "ms", passes, report_only=True)
    add("trace.overhead_share", _ratio(overhead, untraced_s), "fraction", passes)
    add("trace.uncovered_ms", 1e3 * uncovered / passes, "ms", passes, report_only=True)
    add("trace.uncovered_share", _ratio(uncovered, traced_s), "fraction", passes)
    outcome.info["trace"] = {
        "passes": passes, "spans": n, "traced_s": traced_s, "untraced_s": untraced_s,
        "top_level_self_covers_wall_within_overhead": bool(uncovered <= max(overhead, 0.0)),
    }

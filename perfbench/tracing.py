"""In-memory span tracer that wraps the public functions of the pspt package.

Spans are recorded by wrappers installed from outside the package: every
public function the benchmark cares about is replaced, at each module where
callers look it up, by a wrapper that records a span (name, parent, start,
end) plus two layer-specific values. Nothing inside ``pspt`` changes, and
uninstalling restores the original objects.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import pspt.adapter
import pspt.checkpoint
import pspt.evaluation
import pspt.model
import pspt.optim
import pspt.scoring
import pspt.synth
import pspt.tensor
import pspt.training

TENSOR_OPS = ("add", "neg", "mul", "matmul", "transpose", "relu", "log_softmax_rows",
              "softmax_rows", "layer_norm", "gather_rows", "take_entries", "concat_rows",
              "concat_cols", "slice_cols", "tsum")

SCORING_PRIMITIVES = ("scoring.question_loglik", "scoring.hard_prompt_loglik")


class Tracer:
    """Keeps spans as parallel arrays; ``aux_a``/``aux_b`` hold per-layer values.

    Tensor ops: aux_a = output bytes, aux_b = matmul FLOPs (from shapes).
    model.forward_logprobs: aux_a = input rows.
    adapter.assemble_blocks: aux_a = shared prefix rows, aux_b = 1 if the
    passage was truncated. optim.clip_global_norm: aux_a = returned norm,
    aux_b = limit.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux_a = array("d")
        self.aux_b = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.name)

    # -- recording --------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.aux_a.append(0.0)
        self.aux_b.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, measure=None):
        nid = self.name_id(name)
        opener, closer = self._open, self._close
        aux_a, aux_b = self.aux_a, self.aux_b

        def traced(*args, **kwargs):
            idx = opener(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closer(idx)
            if measure is not None:
                aux_a[idx], aux_b[idx] = measure(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, measure=None) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, measure))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each place it is looked up."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        T = pspt.tensor
        for op in TENSOR_OPS:
            self._patch(T, op, "tensor." + op,
                        _matmul_measure if op == "matmul" else _op_measure)
        self._patch(T, "backward", "tensor.backward")

        M = pspt.model
        self._patch(M.MicroLM, "forward_logprobs", "model.forward_logprobs", _forward_measure)
        self._patch(M.Vocabulary, "encode", "model.encode")
        self._patch(M, "continue_pretraining", "model.continue_pretraining")
        self._patch(pspt.optim.Adam, "step", "optim.adam_step")
        for mod in (M, pspt.training):
            self._patch(mod, "clip_global_norm", "optim.clip_global_norm", _clip_measure)

        A, S = pspt.adapter, pspt.scoring
        for mod in (A, S):
            self._patch(mod, "assemble_blocks", "adapter.assemble_blocks", _assemble_measure)
        self._patch(S, "assemble_input", "adapter.assemble_input")
        self._patch(A, "passage_embedding", "adapter.passage_embedding")
        self._patch(A, "save_params", "checkpoint.save_params")
        self._patch(A, "load_params", "checkpoint.load_params")

        for mod in (S, pspt.training):
            self._patch(mod, "question_loglik", "scoring.question_loglik")
        for fn in ("hard_prompt_loglik", "score_pspt", "score_upr", "rerank_with_scores"):
            self._patch(S, fn, "scoring." + fn)

        for fn in ("train", "expand_in_batch", "loss_total", "loss_point", "loss_pair",
                   "build_instances"):
            self._patch(pspt.training, fn, "training." + fn)
        for fn in ("save_model", "load_model"):
            self._patch(pspt.checkpoint, fn, "checkpoint." + fn)
        for fn in ("bm25_run", "write_run_file", "read_run_file"):
            self._patch(pspt.evaluation, fn, "evaluation." + fn)
        for fn in ("build_synthetic_dataset", "pack_sequences"):
            self._patch(pspt.synth, fn, "synth." + fn)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def save(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            aux_a=np.frombuffer(self.aux_a), aux_b=np.frombuffer(self.aux_b))


def _op_measure(out, args, kwargs):
    return float(out.data.nbytes), 0.0


def _matmul_measure(out, args, kwargs):
    a, b = args[0].shape, args[1].shape
    return float(out.data.nbytes), 2.0 * a[0] * a[1] * b[1]


def _forward_measure(out, args, kwargs):
    return float(out.shape[0]), 0.0


def _clip_measure(out, args, kwargs):
    limit = args[1] if len(args) > 1 else kwargs["max_norm"]
    return float(out), float(limit)


def _assemble_measure(out, args, kwargs):
    """Prefix rows, and 1.0 if assemble_blocks cut the passage."""
    prefix_blocks, passage_ids, question_ids = args[1], args[2], args[3]
    rows_per_token = args[5] if len(args) > 5 else kwargs.get("rows_per_passage_token", 1)
    prefix = sum(b.shape[0] for b in prefix_blocks)
    passage_rows = out.embeddings.shape[0] - prefix - _SEPARATOR_ROWS - len(question_ids)
    truncated = passage_rows < len(passage_ids) * rows_per_token
    return float(prefix), float(truncated)


# encode() maps each token to one id, so the separator's row count is its token count
_SEPARATOR_ROWS = len(pspt.model.tokenize_text(pspt.adapter.SEPARATOR_TEXT))


class SpanArrays:
    """Numpy views of a tracer's spans, with derived durations and self times."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start).copy()
        self.end = np.frombuffer(tracer.end).copy()
        self.aux_a = np.frombuffer(tracer.aux_a).copy()
        self.aux_b = np.frombuffer(tracer.aux_b).copy()
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names if n in self.names], dtype=np.int32)

    def is_(self, *names: str) -> np.ndarray:
        return np.isin(self.name, self.ids(*names))

    def under(self, *names: str) -> np.ndarray:
        """Spans that are, or descend from, a span with one of these names."""
        flag = self.is_(*names)
        anc = self.parent.copy()
        # pointer jumping: after k rounds each span has checked 2^k ancestors
        while (anc >= 0).any():
            live = anc >= 0
            flag[live] |= flag[anc[live]]
            nxt = anc.copy()
            nxt[live] = anc[anc[live]]
            anc = nxt
        return flag

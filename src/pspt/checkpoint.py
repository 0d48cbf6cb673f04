"""Binary checkpoint container for model and adapter parameters.

Layout: magic "PSPT" | u32 version | u64 header length | JSON header |
raw little-endian float32 buffers in header order | 32-byte SHA-256 of
every byte before it. The JSON header holds the model config, the
vocabulary, free-form metadata and the buffer index (name + shape per
buffer). Round trips are bit-exact. The reader checks the digest before
it parses the header, then the header's structure and that the last
buffer ends where the digest begins. Files of versions 1 (no checksum)
and 2 (a checksum of the buffers only) are rejected with a
CheckpointError that names their version; re-create them.

Every file the package writes (checkpoints, run files, training logs,
datasets and eval reports) goes through `atomic_open`, so a reader sees
the old file or the whole new one, never a part.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointError, ConfigError
from .model import MicroLM, ModelConfig, Vocabulary, param_shapes
from .tensor import Tensor

MAGIC = b"PSPT"
VERSION = 3
DIGEST_BYTES = 32


@contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open a new file beside `path` for writing ("w" or "wb" mode). If the
    `with` block ends without error, the new file replaces `path` (a
    symlink's target, not the link) by os.replace; if it raises, the new
    file is removed. An existing path that is not a regular file (a device
    or a pipe) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as f:
            yield f
        return
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    f = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


@dataclass
class Checkpoint:
    buffers: dict[str, np.ndarray]
    config: ModelConfig | None
    vocab: Vocabulary | None
    meta: dict


def save_checkpoint_file(path, buffers: dict[str, np.ndarray], *,
                         config: ModelConfig | None = None,
                         vocab: Vocabulary | None = None,
                         meta: dict | None = None) -> None:
    names = sorted(buffers)
    arrays = [np.ascontiguousarray(buffers[n], dtype="<f4") for n in names]
    header = {
        "config": asdict(config) if config is not None else None,
        "vocab": vocab.tokens if vocab is not None else None,
        "meta": meta or {},
        "buffers": [{"name": n, "shape": list(buffers[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as f:
        for part in (MAGIC, struct.pack("<IQ", VERSION, len(header_bytes)), header_bytes, *arrays):
            digest.update(part)
            f.write(part)
        f.write(digest.digest())


def load_checkpoint_file(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"bad magic: expected {MAGIC!r}, got {raw[:4]!r}")
    version, header_len = struct.unpack_from("<IQ", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {VERSION} "
                              "(version 1 has no checksum and version 2 checks only its "
                              "buffers: re-create the file)")
    end = len(raw) - DIGEST_BYTES
    if end < 16 or hashlib.sha256(memoryview(raw)[:end]).digest() != raw[end:]:
        raise CheckpointError("file bytes do not match their SHA-256: corrupted or truncated file")
    if 16 + header_len > end:
        raise CheckpointError("truncated header")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("buffers"), list):
        raise CheckpointError("header has no buffer index")
    offset = 16 + header_len
    buffers: dict[str, np.ndarray] = {}
    for entry in header["buffers"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list) and all(map(_is_count, entry["shape"]))):
            raise CheckpointError(f"malformed buffer entry {entry!r}")
        name, shape = entry["name"], tuple(entry["shape"])
        nbytes = math.prod(shape) * 4
        if offset + nbytes > end:
            raise CheckpointError(f"truncated payload at buffer {name!r}")
        buffers[name] = np.frombuffer(raw, dtype="<f4", count=nbytes // 4, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != end:
        raise CheckpointError(f"{end - offset} trailing bytes after the last buffer")
    config, vocab, meta = header.get("config"), header.get("vocab"), header.get("meta", {})
    if config and not (isinstance(config, dict) and all(map(_is_count, config.values()))):
        raise CheckpointError(f"model config {config!r} is not an object of integers")
    if vocab is not None and not (isinstance(vocab, list) and all(isinstance(t, str) for t in vocab)):
        raise CheckpointError("vocabulary is not a list of strings")
    if not isinstance(meta, dict):
        raise CheckpointError("header meta is not an object")
    try:  # unknown or missing config fields, values out of range, repeated tokens
        return Checkpoint(buffers, ModelConfig(**config) if config else None,
                          None if vocab is None else Vocabulary(vocab), meta)
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"invalid model config or vocabulary: {exc}") from None


def _is_count(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def save_model(model: MicroLM, path, meta: dict | None = None) -> None:
    buffers = {name: p.data for name, p in model.params.items()}
    save_checkpoint_file(path, buffers, config=model.config, vocab=model.vocab, meta=meta)


def load_model(path) -> MicroLM:
    ckpt = load_checkpoint_file(path)
    if ckpt.config is None or ckpt.vocab is None:
        raise CheckpointError("checkpoint carries no model config/vocabulary")
    params = {name: Tensor(arr) for name, arr in ckpt.buffers.items()}
    shapes, expected = {n: t.shape for n, t in params.items()}, param_shapes(ckpt.config)
    if shapes != expected:  # a shape of None is a missing or unknown buffer
        bad = [f"{n} {shapes.get(n)} (expected {expected.get(n)})"
               for n in sorted(shapes.keys() | expected.keys()) if shapes.get(n) != expected.get(n)]
        raise CheckpointError(f"buffers disagree with the model config: {', '.join(bad)}")
    try:
        return MicroLM(ckpt.config, ckpt.vocab, params)
    except ConfigError as exc:  # vocabulary size differs from config
        raise CheckpointError(str(exc)) from None

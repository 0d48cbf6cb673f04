"""Binary checkpoint container for model and adapter parameters.

Layout: magic "PSPT" | u32 version | u64 header length | JSON header |
raw little-endian float32 buffers in header order. The JSON header holds
the model config, the vocabulary, free-form metadata, the buffer index
(name + shape per buffer) and the SHA-256 of the buffer bytes. Round
trips are bit-exact. The reader checks the header's structure, that the
last buffer ends the file and that the buffer bytes match their
checksum. Version 1 files, written before the checksum existed, are
rejected with a CheckpointError that names their version; re-create them.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointError, ConfigError
from .model import MicroLM, ModelConfig, Vocabulary, param_shapes
from .tensor import Tensor

MAGIC = b"PSPT"
VERSION = 2


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
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a)
    header = {
        "config": asdict(config) if config is not None else None,
        "vocab": vocab.tokens if vocab is not None else None,
        "meta": meta or {},
        "buffers": [{"name": n, "shape": list(buffers[n].shape)} for n in names],
        "sha256": digest.hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for a in arrays:
            f.write(a.tobytes())


def load_checkpoint_file(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"bad magic: expected {MAGIC!r}, got {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {VERSION} "
                              "(version 1 has no buffer checksum: re-create the file)")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    if 16 + header_len > len(raw):
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
        if offset + nbytes > len(raw):
            raise CheckpointError(f"truncated payload at buffer {name!r}")
        buffers[name] = np.frombuffer(raw, dtype="<f4", count=nbytes // 4, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{len(raw) - offset} trailing bytes after the last buffer")
    if header.get("sha256") != hashlib.sha256(memoryview(raw)[16 + header_len:]).hexdigest():
        raise CheckpointError("buffer bytes do not match the header's SHA-256: corrupted file")
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

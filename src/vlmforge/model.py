"""Toy auto-regressive visual-language model with exact analytic gradients.

Three pieces: a patch-embedding vision encoder (bidirectional pre-norm
blocks), a projector bridging vision width to decoder width (linear, one
transformer block, or 2x2 spatial downsample), and a causal pre-norm decoder
with learned absolute positions. Everything is plain numpy in float64 so
gradients can be checked against finite differences to tight tolerance; a
float32 mode exists for speed. No dropout anywhere, for determinism.

One batched path serves every caller. A batch's sequences are concatenated
into one flat (N, D) array, and every position-wise op runs on it: token and
position embeddings, LayerNorm, the QKV/out and MLP matmuls, GELU, the head
and the loss. Attention alone keeps sequences apart: it runs once per group
of equal-length sequences, on a (B_g, H, L, L) view of the group's gathered
rows, so no score is padding. A batch of one length (one sequence, an image
stack) is a single group, a plain reshape of the flat rows. The batch's
images, deduplicated by image_id, go through `encode_image` and `project`
once as one (N_img, T, D) stack.

Backward walks the same layout and does only the work the trainable groups
need: frozen groups get no gradient buffers, no weight-gradient matmuls and
no reductions, and it stops at the projector's input while the vision
encoder is frozen.

Decoding a continuation of one sequence (greedy generation, candidate
ranking) runs the same blocks with a `KVCache`. The prefill is the batched
pass at B=1 over the prefix, its images encoded once, and every causal block
also writes its keys and values into preallocated (heads, max_positions, dh)
buffers. An extension feeds only the new text rows through the blocks: they
take positions from the cache's length P on, write their keys and values at
P.. and attend over [:P+n]. Setting the length back rewinds the cache to a
shorter prefix without copying anything. `forward` and `sequence_loss`
re-run the whole sequence and are the uncached reference for both.

Parameters live in one contiguous buffer per group: the name's first
component (vision / projector / embed / llm / head) is the group, the
freezing unit. The config fixes every name and shape, and `Model.views`
lays a group's parameters back to back in `Model.buffers[group]`, names
sorted; `Model.params` holds those views, so an optimizer can update a whole
group as one array. A v2 checkpoint is the config JSON and those buffers at
the config's dtype: exact, with no per-parameter records.

Importing this module keeps freed memory in the process heap. A training
step builds a few MB of activations and frees them at its end. By default
glibc then hands the heap's free top back to the kernel, since its dynamic
trim threshold is only twice the largest block freed so far, and the next
step page-faults the same memory back in: 700-1,100 minor faults and about
2 ms of system time per step of the benchmark's pretrain stream, whose step
takes about 9 ms. `_keep_freed_memory` fixes glibc's mmap threshold at
HEAP_MMAP_THRESHOLD, so every block below 32 MiB comes from the heap, and
its trim threshold at HEAP_TRIM_THRESHOLD. The cost is memory: up
to HEAP_TRIM_THRESHOLD (256 MiB) of freed heap stays mapped to the process
instead of going back to the system. The setting is process-wide, and does
nothing where the C library has no `mallopt` (anything but glibc).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import struct
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
from scipy.special import erf

from .errors import ConfigMismatchError, VlmforgeError
from .manifest import atomic_open
from .packing import TEXT, ByteTokenizer, PackedSample, tokens_per_image

logger = logging.getLogger(__name__)

CKPT_MAGIC = b"VLMCKPT\x00"
CKPT_VERSION = 2

PARAM_GROUPS = ("vision", "projector", "embed", "llm", "head")
DTYPES = {"float64": np.float64, "float32": np.float32}

HEAP_MMAP_THRESHOLD = 32 << 20  # glibc's largest allowed value on 64-bit hosts
HEAP_TRIM_THRESHOLD = 256 << 20  # freed heap top that stays mapped
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h


def _keep_freed_memory() -> bool:
    """Fix glibc's mmap and trim thresholds so that a step's freed
    activations stay in the heap for the next step; True if both were set.

    Setting either threshold turns off glibc's dynamic adjustment of both,
    so both are set: the trim threshold alone still faults, and the mmap
    threshold alone faults more than the defaults. Without a `mallopt`
    symbol this does nothing and returns False."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return False
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD) == 1
    if not (mmap_set and trim_set):
        logger.info("mallopt refused the heap thresholds (mmap %s, trim %s); "
                    "freed memory goes back to the system", mmap_set, trim_set)
    return mmap_set and trim_set


_keep_freed_memory()


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class Linear:
    kind: str = "linear"


@dataclass(frozen=True)
class TransformerBlockProjector:
    heads: int = 2
    kind: str = "transformer"


@dataclass(frozen=True)
class Downsample:
    factor: int = 2
    kind: str = "downsample"


ProjectorVariant = Linear | TransformerBlockProjector | Downsample
PROJECTORS = {cls.kind: cls for cls in (Linear, TransformerBlockProjector, Downsample)}


# JSON value types, and their names, that a field of each scalar type takes
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), type(None): ((type(None),), "null")}


def fields_from_json(cls, obj) -> dict:
    """A JSON object's keys as keyword arguments for dataclass `cls`, which
    supplies the defaults; a non-object, an unknown key, a missing required
    key or a value of the wrong type raises ConfigMismatchError. Fields of a
    scalar type, or a union of them, are type-checked here; the callers
    convert the others (projectors, policies, candidate lists)."""
    name = cls.__name__
    if not isinstance(obj, dict):
        raise ConfigMismatchError(f"a {name} must be a JSON object, not {obj!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigMismatchError(f"unknown {name} keys: {', '.join(unknown)}")
    missing = [key for key, f in known.items() if key not in obj
               and f.default is f.default_factory is MISSING]
    if missing:
        raise ConfigMismatchError(f"{name} lacks required keys: {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    for key, value in obj.items():
        hint = hints[key]
        options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        if all(o in _JSON_TYPES for o in options) and not any(
                type(value) in _JSON_TYPES[o][0] for o in options):
            expected = " or ".join(_JSON_TYPES[o][1] for o in options)
            raise ConfigMismatchError(f"{name} key {key!r} must be {expected}, not {value!r}")
    return dict(obj)


def projector_from_json(obj) -> ProjectorVariant:
    """A projector from its kind name or its JSON object; absent fields take defaults."""
    obj = {"kind": obj} if isinstance(obj, str) else obj
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in PROJECTORS:
        raise ConfigMismatchError(
            f"unknown projector kind {kind!r} (expected one of {', '.join(PROJECTORS)})"
        )
    return PROJECTORS[kind](**fields_from_json(PROJECTORS[kind], obj))


@dataclass(frozen=True)
class ModelConfig:
    """The model's shape: the one source of its defaults, the CLI's included."""

    resolution: int = 16
    patch: int = 8
    vision_dim: int = 16
    model_dim: int = 32
    ffn_dim: int = 64
    vision_layers: int = 1
    llm_layers: int = 2
    heads: int = 2
    vocab_size: int = 260
    projector: ProjectorVariant = field(default_factory=Linear)
    max_positions: int = 160
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise ConfigMismatchError(
                f"unknown dtype {self.dtype!r} (expected one of {', '.join(DTYPES)})"
            )
        least = [(key, getattr(self, key), 1) for key in (
            "resolution", "patch", "vision_dim", "model_dim", "ffn_dim", "heads",
            "vocab_size", "max_positions")]
        least += [(key, getattr(self, key), 0) for key in ("vision_layers", "llm_layers")]
        if isinstance(self.projector, TransformerBlockProjector):
            least.append(("projector heads", self.projector.heads, 1))
        if isinstance(self.projector, Downsample):
            least.append(("projector factor", self.projector.factor, 1))
        for key, value, minimum in least:
            if value < minimum:
                raise ConfigMismatchError(f"{key} must be at least {minimum}, not {value}")
        if self.model_dim % self.heads:
            raise ConfigMismatchError("model_dim must be divisible by heads")
        if isinstance(self.projector, TransformerBlockProjector):
            if self.vision_dim % self.projector.heads:
                raise ConfigMismatchError("vision_dim must be divisible by projector heads")
        if self.slot_length > self.max_positions:
            raise ConfigMismatchError("an image does not fit in max_positions")

    @property
    def downsample(self) -> int:
        return self.projector.factor if isinstance(self.projector, Downsample) else 1

    @property
    def encoder_grid(self) -> int:
        return self.resolution // self.patch

    @property
    def encoder_tokens(self) -> int:
        return tokens_per_image(self.resolution, self.patch, 1)

    @property
    def slot_length(self) -> int:
        return tokens_per_image(self.resolution, self.patch, self.downsample)

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj) -> "ModelConfig":
        """A config from a full or partial JSON object; the projector may be
        a kind name or an object."""
        kwargs = fields_from_json(ModelConfig, obj)
        if "projector" in kwargs:
            kwargs["projector"] = projector_from_json(kwargs["projector"])
        return ModelConfig(**kwargs)


@dataclass
class ForwardTrace:
    logits: np.ndarray  # (L, vocab)
    hidden: list[np.ndarray]  # llm_layers + 1 entries of (L, model_dim)


# ---------------------------------------------------------------------------
# batch layout


class _Layout:
    """B sequences stored back to back as flat (N, F) rows, grouped by length.

    Position-wise ops run on the flat rows. Attention runs once per group of
    equal-length sequences: `groups` holds (L, B_g, rows), where `rows`
    gathers the group's flat rows in order, so `a[rows]` reshapes to its
    (B_g, L, F) view. `rows` is None when the group is the whole batch and
    the view is a plain reshape, as for any batch of one length.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths)
        self.N = int(lengths.sum())
        if (lengths == lengths[0]).all():
            self.groups = [(int(lengths[0]), len(lengths), None)]
            return
        starts = np.cumsum(lengths) - lengths
        self.groups = []
        for L in np.unique(lengths):
            first = starts[lengths == L]
            self.groups.append((int(L), len(first), (first[:, None] + np.arange(L)).ravel()))

    def add_positions(self, x, table, offset=0):
        """x += table[offset + position of each row], in place."""
        for L, B, rows in self.groups:
            if rows is None:
                x.reshape(B, L, -1)[...] += table[offset : offset + L]
            else:
                x[rows] += np.tile(table[offset : offset + L], (B, 1))

    def sum_positions(self, dx, out):
        """out[position] += the sum of dx over every row at that position."""
        for L, B, rows in self.groups:
            out[:L] += (dx if rows is None else dx[rows]).reshape(B, L, -1).sum(axis=0)


# ---------------------------------------------------------------------------
# primitive layers (each returns output + cache; backward mirrors it and
# skips its weight gradients when handed no gradient dict)


def _mean_last(a):
    """a.mean(axis=-1, keepdims=True), bit for bit, without ndarray.mean's
    Python overhead, which dominates on the (1, D) rows of a decode step."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _ln_fwd(x, g, b, eps=1e-5):
    mu = _mean_last(x)
    xc = x - mu
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def _ln_bwd(dout, cache, grads, prefix):
    xhat, inv, g = cache
    if grads is not None:
        grads[f"{prefix}.g"] += (dout * xhat).sum(axis=0)
        grads[f"{prefix}.b"] += dout.sum(axis=0)
    dxhat = dout * g
    return inv * (
        dxhat
        - _mean_last(dxhat)
        - xhat * _mean_last(dxhat * xhat)
    )


def _gelu_fwd(x):
    phi = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    return x * phi, (x, phi)


def _gelu_bwd(dout, cache):
    x, phi = cache
    d = x * x
    d *= -0.5
    np.exp(d, out=d)
    d *= x / math.sqrt(2.0 * math.pi)  # x * pdf(x)
    d += phi
    d *= dout
    return d


def _linear_bwd(dout, x, w, grads, w_name, b_name, need_dx=True):
    """Backward of x @ w + b; `grads` None skips the weight gradients."""
    if grads is not None:
        grads[w_name] += x.T @ dout
        grads[b_name] += dout.sum(axis=0)
    return dout @ w.T if need_dx else None


@functools.lru_cache(maxsize=256)
def _causal_bias(L: int, dtype) -> np.ndarray:
    """(L, L) additive mask, -inf above the diagonal and 0 elsewhere; read-only."""
    bias = np.where(np.triu(np.ones((L, L), dtype=bool), k=1), -np.inf, 0.0).astype(dtype)
    bias.flags.writeable = False
    return bias


def _softmax_(a):
    """Softmax over the last axis, in place."""
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def _qkv_weights(p, prefix):
    w = np.concatenate([p[f"{prefix}.wq"], p[f"{prefix}.wk"], p[f"{prefix}.wv"]], axis=1)
    b = np.concatenate([p[f"{prefix}.bq"], p[f"{prefix}.bk"], p[f"{prefix}.bv"]])
    return w, b


def _attn_fwd(x, p, prefix, heads, causal, layout=None, past=None):
    """Multi-head attention over the flat rows of `layout` (default: one sequence).

    Each sequence attends within itself only. `past` is (key buffer, value
    buffer, P) of one sequence whose first P positions are cached: the rows,
    positions P.., write their keys and values there and attend over
    [:P + rows].
    """
    N, D = x.shape
    layout = layout or _Layout([N])
    dh = D // heads
    w, b = _qkv_weights(p, prefix)
    qkv = x @ w + b
    o = None if len(layout.groups) == 1 else np.empty_like(x)
    kept = []  # per group: (qh, kh, vh, attn)
    for L, B, rows in layout.groups:
        part = qkv if rows is None else qkv[rows]
        qh, kh, vh = part.reshape(B, L, 3, heads, dh).transpose(2, 0, 3, 1, 4)
        P, M = 0, L  # cached positions, and a causal mask size covering P + L
        if past is not None:
            kbuf, vbuf, P = past
            kbuf[:, P : P + L] = kh[0]
            vbuf[:, P : P + L] = vh[0]
            kh, vh, M = kbuf[None, :, : P + L], vbuf[None, :, : P + L], kbuf.shape[1]
        attn = qh @ kh.transpose(0, 1, 3, 2)
        attn /= math.sqrt(dh)
        if causal:
            attn += _causal_bias(M, attn.dtype)[P : P + L, : P + L]
        _softmax_(attn)
        heads_out = (attn @ vh).transpose(0, 2, 1, 3).reshape(B * L, D)
        if rows is None:
            o = heads_out
        else:
            o[rows] = heads_out
        kept.append((qh, kh, vh, attn))
    out = o @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]
    return out, (x, kept, o, layout)


def _attn_bwd(dout, cache, p, g, prefix, heads):
    x, kept, o, layout = cache
    N, D = x.shape
    dh = D // heads
    do = _linear_bwd(dout, o, p[f"{prefix}.wo"], g, f"{prefix}.wo", f"{prefix}.bo")
    dqkv = np.empty((N, 3 * D), dtype=x.dtype)  # columns in wq | wk | wv order
    for (L, B, rows), (qh, kh, vh, attn) in zip(layout.groups, kept):
        doh = (do if rows is None else do[rows]).reshape(B, L, heads, dh).transpose(0, 2, 1, 3)
        part = dqkv if rows is None else np.empty((B * L, 3 * D), dtype=x.dtype)
        dq, dk, dv = part.reshape(B, L, 3, heads, dh).transpose(2, 0, 3, 1, 4)
        dv[...] = attn.transpose(0, 1, 3, 2) @ doh
        dscores = doh @ vh.transpose(0, 1, 3, 2)
        # attention backward is the memory peak of a training pass, so the
        # (B, heads, L, L) temporaries are dropped as soon as they are used
        del doh
        # softmax backward, in place; masked entries have attn == 0 hence zero
        dscores -= np.einsum("bhij,bhij->bhi", dscores, attn)[..., None]
        dscores *= attn
        dscores /= math.sqrt(dh)
        dq[...] = dscores @ kh
        dk[...] = dscores.transpose(0, 1, 3, 2) @ qh
        del dscores
        if rows is not None:
            dqkv[rows] = part
    w, _ = _qkv_weights(p, prefix)
    if g is not None:
        gw = x.T @ dqkv
        gb = dqkv.sum(axis=0)
        for i, name in enumerate("qkv"):
            g[f"{prefix}.w{name}"] += gw[:, i * D : (i + 1) * D]
            g[f"{prefix}.b{name}"] += gb[i * D : (i + 1) * D]
    return dqkv @ w.T


def _block_fwd(x, p, prefix, heads, causal, layout=None, past=None):
    h1, ln1_cache = _ln_fwd(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    x2, attn_cache = _attn_fwd(h1, p, f"{prefix}.attn", heads, causal, layout, past)
    x2 += x
    h2, ln2_cache = _ln_fwd(x2, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    pre = h2 @ p[f"{prefix}.mlp.w1"] + p[f"{prefix}.mlp.b1"]
    act, gelu_cache = _gelu_fwd(pre)
    out = act @ p[f"{prefix}.mlp.w2"] + p[f"{prefix}.mlp.b2"]
    out += x2
    return out, (ln1_cache, attn_cache, ln2_cache, gelu_cache, h2, act)


def _block_bwd(dout, cache, p, g, prefix, heads):
    """Gradient w.r.t. the block input; `g` None skips the block's weights."""
    ln1_cache, attn_cache, ln2_cache, gelu_cache, h2, act = cache
    mlp = f"{prefix}.mlp"
    dact = _linear_bwd(dout, act, p[f"{mlp}.w2"], g, f"{mlp}.w2", f"{mlp}.b2")
    dpre = _gelu_bwd(dact, gelu_cache)
    dh2 = _linear_bwd(dpre, h2, p[f"{mlp}.w1"], g, f"{mlp}.w1", f"{mlp}.b1")
    dx2 = dout + _ln_bwd(dh2, ln2_cache, g, f"{prefix}.ln2")
    dh1 = _attn_bwd(dx2, attn_cache, p, g, f"{prefix}.attn", heads)
    dx2 += _ln_bwd(dh1, ln1_cache, g, f"{prefix}.ln1")
    return dx2


def _xent_(logits, targets):
    """Per-row cross-entropy; overwrites `logits` with its gradient.

    Log-softmax and softmax run in place, so a (rows, vocab) pass allocates
    nothing of that size beyond the logits themselves.
    """
    rows = np.arange(len(targets))
    logits -= logits.max(axis=-1, keepdims=True)
    picked = logits[rows, targets]
    np.exp(logits, out=logits)
    z = logits.sum(axis=-1)
    logits /= z[:, None]
    logits[rows, targets] -= 1.0
    return np.log(z) - picked


# ---------------------------------------------------------------------------
# the model


@dataclass
class _Pass:
    """A batched forward pass: its layout, decoder output and backward caches."""

    layout: _Layout
    tokens: np.ndarray  # (N,) int64 token ids, flat
    text: np.ndarray  # (N,) bool, TEXT positions
    normed: np.ndarray  # (N, model_dim) final-LN output, the head's input
    final_ln: tuple
    # a training pass keeps the decoder block caches and, when the batch has
    # images, (slot rows, their rows in the projected stack, stack rows,
    # encoder cache, projector cache); any other pass keeps the hidden states
    blocks: list
    images: tuple | None
    hidden: list[np.ndarray]


class KVCache:
    """Every decoder block's keys and values for one sequence's first `length`
    positions, in buffers preallocated to max_positions. Decoding n more rows
    writes positions length.. and advances `length` by n; setting `length`
    back rewinds to a shorter prefix."""

    def __init__(self, cfg: ModelConfig):
        shape = (cfg.llm_layers, cfg.heads, cfg.max_positions, cfg.model_dim // cfg.heads)
        self.k = np.empty(shape, dtype=cfg.np_dtype)
        self.v = np.empty(shape, dtype=cfg.np_dtype)
        self.length = 0


class Model:
    """Parameter store plus a batched forward/backward over packed samples."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray] | None = None):
        """`params` (default: the seeded init), exactly the config's names and
        shapes, is copied into the group buffers; `params` then holds views."""
        self.cfg = cfg
        self.buffers = {group: np.empty(size, dtype=cfg.np_dtype)
                        for group, size in self._group_sizes(cfg).items()}
        self.params = self.views(cfg, self.buffers)
        if params is None:
            self._init_params()
            return
        wrong = sorted(params.keys() ^ self.params.keys()) or [
            n for n, view in self.params.items() if np.shape(params[n]) != view.shape]
        if wrong:
            raise ConfigMismatchError(f"parameters {wrong} do not match the config's names and shapes")
        for name, view in self.params.items():
            view[...] = params[name]

    # -- parameter layout

    @staticmethod
    def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
        """Every parameter's shape under `cfg`, names sorted."""
        shapes: dict[str, tuple] = {}
        patch_in = cfg.patch * cfg.patch * 3
        shapes["vision.patch.w"] = (patch_in, cfg.vision_dim)
        shapes["vision.patch.b"] = (cfg.vision_dim,)
        shapes["vision.pos"] = (cfg.encoder_tokens, cfg.vision_dim)
        for i in range(cfg.vision_layers):
            shapes.update(Model._block_shapes(f"vision.block{i}", cfg.vision_dim, cfg.ffn_dim))
        if isinstance(cfg.projector, TransformerBlockProjector):
            shapes.update(Model._block_shapes("projector.block", cfg.vision_dim, cfg.ffn_dim))
            shapes["projector.out.w"] = (cfg.vision_dim, cfg.model_dim)
            shapes["projector.out.b"] = (cfg.model_dim,)
        else:
            shapes["projector.w"] = (cfg.downsample**2 * cfg.vision_dim, cfg.model_dim)
            shapes["projector.b"] = (cfg.model_dim,)
        shapes["embed.tok"] = (cfg.vocab_size, cfg.model_dim)
        shapes["embed.pos"] = (cfg.max_positions, cfg.model_dim)
        for i in range(cfg.llm_layers):
            shapes.update(Model._block_shapes(f"llm.block{i}", cfg.model_dim, cfg.ffn_dim))
        shapes["llm.final_ln.g"] = (cfg.model_dim,)
        shapes["llm.final_ln.b"] = (cfg.model_dim,)
        shapes["head.w"] = (cfg.model_dim, cfg.vocab_size)
        shapes["head.b"] = (cfg.vocab_size,)
        return dict(sorted(shapes.items()))

    @staticmethod
    def _block_shapes(prefix, dim, ffn):
        shapes = {
            f"{prefix}.ln1.g": (dim,),
            f"{prefix}.ln1.b": (dim,),
            f"{prefix}.ln2.g": (dim,),
            f"{prefix}.ln2.b": (dim,),
            f"{prefix}.mlp.w1": (dim, ffn),
            f"{prefix}.mlp.b1": (ffn,),
            f"{prefix}.mlp.w2": (ffn, dim),
            f"{prefix}.mlp.b2": (dim,),
        }
        for proj in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.attn.{proj}"] = (dim, dim)
        for bias in ("bq", "bk", "bv", "bo"):
            shapes[f"{prefix}.attn.{bias}"] = (dim,)
        return shapes

    @staticmethod
    def _group_sizes(cfg: ModelConfig) -> dict[str, int]:
        """Each group's element count, groups sorted."""
        by_group = itertools.groupby(Model.param_shapes(cfg).items(), lambda i: Model.group_of(i[0]))
        return {group: sum(math.prod(shape) for _, shape in items) for group, items in by_group}

    @staticmethod
    def views(cfg: ModelConfig, buffers: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Each parameter of the groups in `buffers` (group -> flat buffer) ->
        its slot there: a group's parameters lie back to back, names sorted.
        The one place that computes a parameter's offset."""
        views, offsets = {}, dict.fromkeys(buffers, 0)
        for name, shape in Model.param_shapes(cfg).items():
            if (group := Model.group_of(name)) in buffers:
                start, offsets[group] = offsets[group], offsets[group] + math.prod(shape)
                views[name] = buffers[group][start : offsets[group]].reshape(shape)
        return views

    def _init_params(self) -> None:
        """The seeded init, drawn in name order straight into the buffers."""
        cfg = self.cfg
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x6D6F64656C]))
        depth = max(1, cfg.vision_layers + cfg.llm_layers)
        scale = 0.02 / np.sqrt(depth)
        for name, view in self.params.items():
            if name.endswith(("ln1.g", "ln2.g", "final_ln.g")):
                view[...] = 1.0
            elif name.endswith(".b") or name.endswith(
                ("bq", "bk", "bv", "bo", "b1", "b2")
            ):
                view[...] = 0.0
            elif name in ("embed.tok", "embed.pos", "vision.pos"):
                view[...] = rng.normal(0.0, 0.02, size=view.shape)
            else:
                view[...] = rng.normal(0.0, scale, size=view.shape)

    @staticmethod
    def group_of(name: str) -> str:
        return name.split(".", 1)[0]

    def group_names(self) -> list[str]:
        return list(self.buffers)

    def param_count(self, group: str | None = None) -> int:
        return sum(buf.size for g, buf in self.buffers.items() if group in (None, g))

    # -- vision path

    def _patchify(self, pixels: np.ndarray) -> np.ndarray:
        """(R, R, 3) -> (T, patch_in), or a stack (n, R, R, 3) -> (n, T, patch_in)."""
        cfg = self.cfg
        if pixels.ndim not in (3, 4) or pixels.shape[-3:] != (cfg.resolution, cfg.resolution, 3):
            raise ConfigMismatchError(
                f"pixel grid {pixels.shape} does not match resolution {cfg.resolution}"
            )
        g, ps, lead = cfg.encoder_grid, cfg.patch, pixels.shape[:-3]
        patches = pixels.reshape(*lead, g, ps, g, ps, 3).swapaxes(-4, -3)
        return patches.reshape(*lead, g * g, ps * ps * 3).astype(cfg.np_dtype)

    def encode_image(self, pixels: np.ndarray, with_cache: bool = False):
        """Patchify, embed, add 2-D positions, run bidirectional blocks.

        Takes one (R, R, 3) image or an (n, R, R, 3) stack, which runs as one
        batch of n equal-length sequences; returns (T, D) or (n, T, D).
        """
        cfg, p = self.cfg, self.params
        flat = self._patchify(pixels)
        lead = flat.shape[:-2]
        x = flat @ p["vision.patch.w"] + p["vision.patch.b"] + p["vision.pos"]
        x = x.reshape(-1, cfg.vision_dim)
        layout = _Layout([cfg.encoder_tokens] * (x.shape[0] // cfg.encoder_tokens))
        caches = []
        for i in range(cfg.vision_layers):
            x, cache = _block_fwd(x, p, f"vision.block{i}", cfg.heads, False, layout)
            caches.append(cache)
        x = x.reshape(*lead, cfg.encoder_tokens, cfg.vision_dim)
        if with_cache:
            return x, (flat.reshape(-1, flat.shape[-1]), caches)
        return x

    def _encode_image_bwd(self, dout, cache, g):
        cfg = self.cfg
        flat, caches = cache
        dx = dout
        for i in reversed(range(cfg.vision_layers)):
            dx = _block_bwd(dx, caches[i], self.params, g, f"vision.block{i}", cfg.heads)
        g["vision.patch.w"] += flat.T @ dx
        g["vision.patch.b"] += dx.sum(axis=0)
        g["vision.pos"] += dx.reshape(-1, cfg.encoder_tokens, cfg.vision_dim).sum(axis=0)

    # -- projector

    def project(self, visual: np.ndarray, with_cache: bool = False):
        """Map encoder tokens into decoder space per the configured variant.

        Linear and Downsample map each f x f neighborhood of encoder tokens,
        concatenated in row-major order; Linear is f = 1. Takes (T, vision_dim) or an (n, T, vision_dim) stack; returns
        (slot_length, model_dim) or (n, slot_length, model_dim).
        """
        cfg, p = self.cfg, self.params
        T = cfg.encoder_tokens
        if visual.ndim not in (2, 3) or visual.shape[-2] != T:
            raise ConfigMismatchError(
                f"projector expects {T} tokens, got {visual.shape[-2]}"
            )
        lead = visual.shape[:-2]
        flat = visual.reshape(-1, cfg.vision_dim)
        n = flat.shape[0] // T
        proj = cfg.projector
        if isinstance(proj, TransformerBlockProjector):
            layout = _Layout([T] * n)
            h, block_cache = _block_fwd(flat, p, "projector.block", proj.heads, False, layout)
            out = h @ p["projector.out.w"] + p["projector.out.b"]
            cache = (h, block_cache)
        else:
            side, f = cfg.encoder_grid // cfg.downsample, cfg.downsample
            v = flat.reshape(n, side, f, side, f, cfg.vision_dim).swapaxes(2, 3)
            v = v.reshape(n * side * side, f * f * cfg.vision_dim)
            out = v @ p["projector.w"] + p["projector.b"]
            cache = v
        out = out.reshape(*lead, cfg.slot_length, cfg.model_dim)
        if with_cache:
            return out, cache
        return out

    def _project_bwd(self, dout, cache, g, need_dx):
        """Backward over flat (n * slot_length, model_dim) rows; `g` None = frozen."""
        cfg, p = self.cfg, self.params
        if isinstance(cfg.projector, TransformerBlockProjector):
            h, block_cache = cache
            dh = _linear_bwd(dout, h, p["projector.out.w"], g,
                             "projector.out.w", "projector.out.b")
            return _block_bwd(dh, block_cache, p, g, "projector.block", cfg.projector.heads)
        dv = _linear_bwd(dout, cache, p["projector.w"], g, "projector.w", "projector.b", need_dx)
        if dv is None:
            return None
        side, f = cfg.encoder_grid // cfg.downsample, cfg.downsample
        dv = dv.reshape(-1, side, side, f, f, cfg.vision_dim).swapaxes(2, 3)
        return dv.reshape(-1, cfg.vision_dim)

    # -- batched forward

    def _check_sample(self, sample: PackedSample, pixels: dict[str, np.ndarray]):
        cfg = self.cfg
        if len(sample) > cfg.max_positions:
            raise ConfigMismatchError(
                f"sample length {len(sample)} exceeds max_positions {cfg.max_positions}"
            )
        if sample.tokens.max(initial=0) >= cfg.vocab_size:
            raise ConfigMismatchError("token id out of vocabulary range")
        for slot in sample.image_slots:
            if slot.image_id not in pixels:
                raise VlmforgeError(f"image slot {slot.image_id!r} is not bound to pixels")
            if slot.length != cfg.slot_length:
                raise ConfigMismatchError(
                    f"slot length {slot.length} != model slot length {cfg.slot_length}"
                )

    def _forward(self, samples: list[PackedSample], pixels, train: bool,
                 kv: KVCache | None = None) -> _Pass:
        """Embed, merge the images in, and run the decoder over a whole batch.

        A training pass keeps what backward needs; any other pass keeps the
        hidden states instead. Given an empty KVCache, the pass over its one
        sample is that sample's prefill.
        """
        pixels = pixels or {}
        for sample in samples:
            self._check_sample(sample, pixels)
        cfg, p = self.cfg, self.params
        layout = _Layout([len(s) for s in samples])
        tokens = np.concatenate([s.tokens for s in samples]).astype(np.int64)
        text = np.concatenate([s.modality_mask for s in samples]) == TEXT
        x = p["embed.tok"][tokens]
        images = None
        image_ids = list(dict.fromkeys(
            slot.image_id for s in samples for slot in s.image_slots))
        if image_ids:
            stack = np.stack([pixels[i] for i in image_ids])
            enc, enc_cache = self.encode_image(stack, with_cache=True)
            proj, proj_cache = self.project(enc, with_cache=True)
            index = {image_id: k for k, image_id in enumerate(image_ids)}
            S = cfg.slot_length
            dst, src, offset = [], [], 0
            for s in samples:
                for slot in s.image_slots:
                    dst.append(offset + slot.start)
                    src.append(index[slot.image_id] * S)
                offset += len(s)
            dst = (np.asarray(dst)[:, None] + np.arange(S)).ravel()
            src = (np.asarray(src)[:, None] + np.arange(S)).ravel()
            x[dst] = proj.reshape(-1, cfg.model_dim)[src]
            if train:
                images = (dst, src, len(image_ids) * S, enc_cache, proj_cache)
        layout.add_positions(x, p["embed.pos"])
        normed, final_ln, kept = self._decode(x, layout, train, kv)
        if train:
            return _Pass(layout, tokens, text, normed, final_ln, kept, images, [])
        return _Pass(layout, tokens, text, normed, final_ln, [], None, kept)

    def _decode(self, x, layout: _Layout, train: bool, kv: KVCache | None = None):
        """The decoder blocks and final LayerNorm over embedded rows.

        Returns the final LayerNorm's output and cache, and the block caches
        (training) or the hidden states (otherwise). With a KVCache the rows
        are one sequence continuing it from its length, which then advances
        past them.
        """
        cfg, p = self.cfg, self.params
        kept = [] if train else [x]  # block caches or hidden states
        for i in range(cfg.llm_layers):
            past = None if kv is None else (kv.k[i], kv.v[i], kv.length)
            x, cache = _block_fwd(x, p, f"llm.block{i}", cfg.heads, True, layout, past)
            kept.append(cache if train else x)
        if kv is not None:
            kv.length += layout.N
        normed, final_ln = _ln_fwd(x, p["llm.final_ln.g"], p["llm.final_ln.b"])
        return normed, final_ln, kept

    def forward(self, sample: PackedSample | list[PackedSample],
                pixels: dict[str, np.ndarray] | None = None):
        """Run merged sequences through the decoder, capturing hidden states.

        One sample gives one ForwardTrace (the batched pass at B=1). A list
        runs as one batch, its images encoded once, and gives one trace per
        sample. Every position is recomputed: this is the uncached reference
        for `prefill` and `extend`.
        """
        p = self.params
        samples = [sample] if isinstance(sample, PackedSample) else list(sample)
        fw = self._forward(samples, pixels, train=False)
        logits = fw.normed @ p["head.w"] + p["head.b"]
        if isinstance(sample, PackedSample):
            return ForwardTrace(logits, fw.hidden)
        ends = list(itertools.accumulate(len(s) for s in samples))
        return [ForwardTrace(logits[a:b], [h[a:b] for h in fw.hidden])
                for a, b in zip([0] + ends, ends)]

    # -- loss and gradients

    @staticmethod
    def shifted_targets(sample: PackedSample):
        """Next-token targets aligned with logits positions.

        targets[i] = tokens[i+1]; mask[i] selects positions whose *target*
        carries loss (loss_mask of the target position). The final position
        has no target and is masked.
        """
        L = len(sample)
        targets = np.zeros(L, dtype=np.int64)
        mask = np.zeros(L, dtype=np.float64)
        if L > 1:
            targets[: L - 1] = sample.tokens[1:].astype(np.int64)
            mask[: L - 1] = sample.loss_mask[1:].astype(np.float64)
        return targets, mask

    def _scored_rows(self, samples, fw: _Pass):
        """Rows that carry loss, their targets and weights, and their logits."""
        targets, mask = zip(*(self.shifted_targets(s) for s in samples))
        mask = np.concatenate(mask)
        rows = np.flatnonzero(mask)
        logits = fw.normed[rows] @ self.params["head.w"] + self.params["head.b"]
        return rows, np.concatenate(targets)[rows], mask[rows], logits

    def loss_and_grads(
        self,
        samples: PackedSample | list[PackedSample],
        pixels: dict[str, np.ndarray] | None = None,
        trainable=None,
    ):
        """Mean masked next-token cross-entropy over a (micro)batch, and its gradients.

        The mean is over all masked target positions across the batch; the
        batch runs as one pass. Gradients cover every parameter group, frozen
        or not, when `trainable` is None; otherwise only the named groups get
        gradient arrays, and backward skips every weight gradient and every
        layer below that none of them needs. An all-masked batch is flagged
        and yields exactly zero loss and gradients.
        """
        if isinstance(samples, PackedSample):
            samples = [samples]
        train = set(PARAM_GROUPS if trainable is None else trainable)
        grads = {name: np.zeros_like(arr) for name, arr in self.params.items()
                 if self.group_of(name) in train}
        fw = self._forward(samples, pixels, train=True)
        rows, targets, weights, dlogits = self._scored_rows(samples, fw)
        total = float(weights.sum())
        if total == 0.0:
            logger.warning("loss_and_grads: batch has no loss-masked positions")
            return 0.0, grads
        loss = float(_xent_(dlogits, targets) @ weights) / total
        dlogits *= (weights / total)[:, None]
        head = grads if "head" in train else None
        dnormed = _linear_bwd(dlogits, fw.normed[rows], self.params["head.w"], head,
                              "head.w", "head.b")
        del dlogits  # (rows, vocab): freed before the decoder's backward
        self._backward(fw, rows, dnormed, grads, train)
        return loss, grads

    def _backward(self, fw: _Pass, rows, dnormed, grads, train):
        """Backward from the final LayerNorm's output gradient at the scored
        rows down to every layer a trainable group needs, freeing each block's
        cache once it is used."""
        cfg, p = self.cfg, self.params

        def owned(group):
            return grads if group in train else None

        need_embed = "embed" in train
        need_images = fw.images is not None and bool({"projector", "vision"} & train)
        if not ("llm" in train or need_embed or need_images):
            return
        dx = np.zeros_like(fw.normed)
        dx[rows] = dnormed
        dx = _ln_bwd(dx, fw.final_ln, owned("llm"), "llm.final_ln")
        for i in reversed(range(cfg.llm_layers)):
            dx = _block_bwd(dx, fw.blocks.pop(), p, owned("llm"), f"llm.block{i}", cfg.heads)
        if need_embed:
            fw.layout.sum_positions(dx, grads["embed.pos"])
            np.add.at(grads["embed.tok"], fw.tokens[fw.text], dx[fw.text])
        if need_images:
            dst, src, n_rows, enc_cache, proj_cache = fw.images
            dproj = np.zeros((n_rows, cfg.model_dim), dtype=dx.dtype)
            np.add.at(dproj, src, dx[dst])
            denc = self._project_bwd(dproj, proj_cache, owned("projector"), "vision" in train)
            if "vision" in train:
                self._encode_image_bwd(denc, enc_cache, grads)

    def loss_from_trace(self, trace: ForwardTrace, targets, mask) -> float:
        """Mean masked cross-entropy of an existing trace against explicit targets."""
        targets = np.asarray(targets, dtype=np.int64)
        mask = np.asarray(mask, dtype=np.float64)
        n = float(mask.sum())
        if n == 0.0:
            return 0.0
        return float(_xent_(trace.logits.copy(), targets) @ mask) / n

    def sequence_loss(self, sample: PackedSample | list[PackedSample], pixels=None):
        """Loss only (no gradients) for scoring.

        One sample gives its mean masked cross-entropy as a float. A list is
        scored as one batch, its images encoded once, and gives an array of
        per-sample means. A sample with no masked position scores 0. It is
        the uncached reference for `continuation_losses`.
        """
        samples = [sample] if isinstance(sample, PackedSample) else list(sample)
        fw = self._forward(samples, pixels, train=False)
        rows, targets, weights, logits = self._scored_rows(samples, fw)
        owner = np.repeat(np.arange(len(samples)), [len(s) for s in samples])[rows]
        ce = np.bincount(owner, _xent_(logits, targets) * weights, minlength=len(samples))
        n = np.bincount(owner, weights, minlength=len(samples))
        losses = np.divide(ce, n, out=np.zeros(len(samples)), where=n > 0)
        return float(losses[0]) if isinstance(sample, PackedSample) else losses

    # -- cached decoding

    def prefill(self, sample: PackedSample, pixels=None) -> tuple[KVCache, np.ndarray]:
        """Decode one sample, its images encoded once, into a new KVCache.

        Returns the cache and the logits of the sample's last position.
        """
        kv = KVCache(self.cfg)
        fw = self._forward([sample], pixels, train=False, kv=kv)
        return kv, fw.normed[-1] @ self.params["head.w"] + self.params["head.b"]

    def extend(self, kv: KVCache, ids) -> np.ndarray:
        """Decode the text tokens `ids` at positions kv.length.. from the
        cache, which then covers them too; returns their (n, vocab) logits."""
        cfg, p = self.cfg, self.params
        ids = np.asarray(ids, dtype=np.int64)
        if kv.length + len(ids) > cfg.max_positions:
            raise ConfigMismatchError(
                f"sample length {kv.length + len(ids)} exceeds max_positions {cfg.max_positions}"
            )
        if ids.max(initial=0) >= cfg.vocab_size:
            raise ConfigMismatchError("token id out of vocabulary range")
        layout = _Layout([len(ids)])
        x = p["embed.tok"][ids]
        layout.add_positions(x, p["embed.pos"], kv.length)
        normed, _, _ = self._decode(x, layout, False, kv)
        return normed @ p["head.w"] + p["head.b"]

    def continuation_losses(self, prefix: PackedSample, continuations, pixels=None) -> np.ndarray:
        """Mean next-token cross-entropy of each continuation (a non-empty
        list of text token ids) after `prefix`; equal to `sequence_loss` of
        `append_text(prefix, ids, loss=True)`.

        The prefix is decoded once: its last logits score every first token,
        each continuation extends the cache, which is rewound to the prefix
        after each one.
        """
        if not all(len(ids) for ids in continuations):
            raise VlmforgeError("empty continuation")
        kv, first = self.prefill(prefix, pixels)
        losses = np.empty(len(continuations))
        for c, ids in enumerate(continuations):
            logits = np.vstack([first, self.extend(kv, ids)[:-1]])
            kv.length = len(prefix)
            losses[c] = _xent_(logits, np.asarray(ids, dtype=np.int64)).mean()
        return losses

    def generate(self, prefix: PackedSample, pixels=None, max_new: int = 32) -> list[int]:
        """Greedy continuation; stops at EOS (id vocab-specific: 257).

        The prefix is prefilled once; each new token then extends the cache
        by one position.
        """
        eos = ByteTokenizer().eos
        if len(prefix) + max_new > self.cfg.max_positions:
            raise ConfigMismatchError("prefix + max_new exceeds max_positions")
        out: list[int] = []
        for step in range(max_new):
            if step == 0:
                kv, logits = self.prefill(prefix, pixels)
            else:
                logits = self.extend(kv, out[-1:])[0]
            nxt = int(np.argmax(logits))
            if nxt == eos:
                break
            out.append(nxt)
        return out

    # -- checkpoints

    def group_checksum(self, group: str) -> str:
        return hashlib.sha256(self.buffers[group].tobytes()).hexdigest()

    def save_checkpoint(self, path) -> None:
        """Atomic v2 checkpoint: magic, version and config length, config
        JSON, then the group buffers at the config's dtype, little-endian."""
        cfg_json = json.dumps(self.cfg.to_json(), sort_keys=True).encode()
        dtype = np.dtype(self.cfg.np_dtype).newbyteorder("<")
        with atomic_open(path, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<II", CKPT_VERSION, len(cfg_json)))
            fh.write(cfg_json)
            for buf in self.buffers.values():
                fh.write(buf.astype(dtype, copy=False).tobytes())

    @staticmethod
    def load_checkpoint(path, expect_cfg: ModelConfig | None = None) -> "Model":
        """Read a v2 checkpoint back exactly. The config is decoded first, and
        the rest of the file must be the very bytes its buffers take; any bad
        or short header, bad config, or short or long file raises
        VlmforgeError naming the file before a buffer is allocated."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if fh.read(8) != CKPT_MAGIC:
                raise VlmforgeError(f"{path}: not a VLMCKPT file")
            if size < 16:
                raise VlmforgeError(f"{path}: truncated checkpoint")
            version, cfg_len = struct.unpack("<II", fh.read(8))
            if version != CKPT_VERSION:
                raise VlmforgeError(f"{path}: unsupported checkpoint version {version}")
            if 16 + cfg_len > size:
                raise VlmforgeError(f"{path}: truncated checkpoint")
            try:
                cfg = ModelConfig.from_json(json.loads(fh.read(cfg_len).decode("utf-8")))
            except (ValueError, ConfigMismatchError) as exc:  # not UTF-8 JSON, or no ModelConfig
                raise VlmforgeError(f"{path}: bad checkpoint config: {exc}") from None
            if expect_cfg is not None and cfg != expect_cfg:
                raise ConfigMismatchError(f"{path}: checkpoint config mismatch")
            dtype = np.dtype(cfg.np_dtype).newbyteorder("<")
            sizes = Model._group_sizes(cfg)
            want, have = sum(sizes.values()) * dtype.itemsize, size - 16 - cfg_len
            if have != want:
                raise VlmforgeError(f"{path}: {'truncated' if have < want else 'overlong'} "
                                    f"checkpoint: {have} parameter bytes, config implies {want}")
            buffers = {group: np.frombuffer(fh.read(n * dtype.itemsize), dtype)
                       for group, n in sizes.items()}
        return Model(cfg, Model.views(cfg, buffers))

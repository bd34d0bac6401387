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

Greedy generation decodes a continuation of one sequence through the same
blocks with a `KVCache`. The cache owns what does not change between
tokens: each decoder block's QKV weights, fused once from the parameters
it was made with, and the keys and values they produced, in preallocated
(heads, max_positions, dh) buffers. The prefill is the batched pass at B=1
over the prefix, its images encoded once, and every causal block also
writes its keys and values there. An extension feeds only the new text
rows through the blocks: they take positions from the cache's length P on,
write their keys and values at P.. and attend over [:P+n]. `generate`
checks its prefix and max_new once, then steps one row at a time: each
step reuses one shared one-row layout and adds no causal mask, since a
row at the cache's end sees every cached position, and its LayerNorms, as
any on one row, take the row's mean and inverse deviation as scalars, not
(1, 1) arrays (`_ln_fwd`). Candidate ranking continues one prefix by
every candidate in a single pass: the prefix is its first sequence,
decoded as a prefill, and each group of equal-length
candidates attends as one (B_g, H, L, P+L) block over the prefix's cached
keys and values and its own rows, never over another candidate's.
A prefill's head reads only the prefix's last row, and ranking's that row
and the candidate rows. So in either pass the last decoder block computes
keys and values for every row, and caches the prefix's, but runs its query
side (scores, softmax, the attention output, LN2 and the MLP) and the final
LayerNorm on those rows only. Training and `extend` read every row and
cut none. `forward` re-runs the whole sequence and is the uncached
reference for generation and ranking.

The final LayerNorm and the head run only in the passes that read the
head: training, scoring, `prefill`, `extend` and `forward`. A pass hands
on the last block's output and normalises it when first read (`_Pass`), so
`hidden_states`, which feeds the alignment probe from the same batched
pass as `forward`, runs neither.

Every loss is next-token cross-entropy: row r of the flat batch predicts
token r + 1, and one loss mask over the batch, 0 at every IMAGE position
and at each sample's first position, picks and weighs the scored rows
(`_flatten`). The head and the cross-entropy run on those rows only
(`_head_xent`); `_sample_means` averages them per sample.

A training batch of two or more samples is two fixed halves (`_halves`),
cut by the samples' lengths alone so that their positions balance. Each
half is a training pass of its own (`_scored_grads`), whose cross-entropy
sum and gradients are taken over the whole batch's scored weight, and the
two add up: loss = (first sum + second sum) / total, grads = first +
second. That is the definition of a batch's loss and gradients, on every
host, and it agrees with one pass over the batch to rounding (within
1e-12 relative). A batch of one sample is one pass. Where the process may
run on two CPUs, a worker process computes the second half while the
caller computes the first (`halves`); elsewhere the caller computes both,
through the same function and so with the same bits.

Each public entry that takes samples checks its batch once, before any
block runs (`_check`): the sample contract that shards are held to too
(`packing.check_batch`), then the model's own limits. The passes behind
the entries check nothing, so neither half of a training step, here or in
the worker, re-checks its slice; `extend` checks only its new ids.

Parameters live in one contiguous buffer per group: the name's first
component (vision / projector / embed / llm / head) is the group, the
freezing unit. `Model._layout`, built from `param_shapes` once per config,
lays a group's parameters back to back in `Model.buffers[group]`, names
sorted; `Model.params` holds the views it gives, so an optimizer updates a
whole group as one array. A training step's gradients take the same layout,
one zeroed buffer per trainable group, and are added and shared as whole
buffers. A v2 checkpoint is the config JSON and the parameter buffers at the
config's dtype: exact, with no per-parameter records.

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

Importing it also pins every loaded OpenBLAS to one thread
(`_one_blas_thread`). OpenBLAS splits a matmul's sums by its thread count,
so a run's bits would otherwise depend on OMP_NUM_THREADS; a second BLAS
thread never made a step faster, and training's worker takes the second
core. Run manifests record the BLAS and its thread counts (`blas_record`).
The bits also depend on OpenBLAS's kernel choice for the CPU, so identity
across hosts is not claimed.
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

from . import halves
from .errors import ConfigMismatchError, VlmforgeError
from .manifest import atomic_open
from .packing import TEXT, ByteTokenizer, PackedSample, check_batch, tokens_per_image

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


def _loaded_openblas() -> list[tuple[str, ctypes.CDLL]]:
    """(path, handle) of every OpenBLAS library mapped into this process, as
    /proc/self/maps lists them; none where there is no such file."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh)
                            if len(parts) == 6 and "openblas" in os.path.basename(parts[5])})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append((path, ctypes.CDLL(path)))
        except OSError:  # replaced on disk since it was loaded
            continue
    return libs


# the C types of the OpenBLAS functions read here: (argument types, result type)
_OPENBLAS_FNS = {"set_num_threads": ((ctypes.c_int,), None),
                 "get_num_threads": ((), ctypes.c_int),
                 "get_corename": ((), ctypes.c_char_p)}


def _openblas_fn(lib: ctypes.CDLL, name: str):
    """`lib`'s openblas_<name> under the export name its build uses (numpy's
    and scipy's bundled builds prefix it, 64-bit-integer builds suffix it),
    with its C types declared; None if it has none."""
    for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
        fn = getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
        if fn is not None:
            fn.argtypes, fn.restype = _OPENBLAS_FNS[name]
            return fn
    return None


def _one_blas_thread() -> bool:
    """Pin every loaded OpenBLAS to one thread, so that a run's bits do not
    depend on OMP_NUM_THREADS; True if each one found took it. Where no
    OpenBLAS, or no thread setter, is found, BLAS keeps its own count."""
    pinned = []
    for _, lib in _loaded_openblas():
        setter, getter = _openblas_fn(lib, "set_num_threads"), _openblas_fn(lib, "get_num_threads")
        if setter is not None and getter is not None:
            setter(1)
            pinned.append(getter() == 1)
    if not pinned:
        logger.info("no OpenBLAS thread setter found; BLAS keeps its own thread count")
    return bool(pinned) and all(pinned)


_one_blas_thread()


def blas_record() -> dict:
    """The BLAS numpy was built with, and each loaded OpenBLAS's thread count
    and kernel (the CPU its code was chosen for) by file name, for run
    manifests."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas = {}
    threads, kernels = {}, {}
    for path, lib in _loaded_openblas():
        if (getter := _openblas_fn(lib, "get_num_threads")) is not None:
            threads[os.path.basename(path)] = getter()
        if (corename := _openblas_fn(lib, "get_corename")) is not None:
            kernels[os.path.basename(path)] = (corename() or b"").decode("ascii", "replace")
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "kernels": kernels}


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
    the view is a plain reshape, as for any batch of one length, and a slice
    when the group is one sequence, so its view is not a copy.

    With a `prefix` of P > 0 rows, the layout holds a prefix and sequences
    that each continue it: groups[0] is the prefix's P rows, and every later
    group's sequences take the positions from P on.
    """

    def __init__(self, lengths, prefix: int = 0):
        self.prefix, self.N = prefix, prefix + int(sum(lengths))
        starts = {}  # length -> the first flat row of each sequence of that length
        for start, L in zip(itertools.accumulate(lengths, initial=prefix), lengths):
            starts.setdefault(int(L), []).append(start)
        groups = [(prefix, [0])] if prefix else []
        groups += sorted(starts.items())
        if len(groups) == 1:
            L, first = groups[0]
            self.groups = [(L, len(first), None)]
            return
        self.groups = [(L, len(first), slice(first[0], first[0] + L) if len(first) == 1
                        else (np.array(first)[:, None] + np.arange(L)).ravel())
                       for L, first in groups]

    @classmethod
    @functools.lru_cache(maxsize=256)
    def single(cls, L: int) -> "_Layout":
        """The layout of one sequence of length L, built once per L and
        shared: nothing changes a layout once it is built."""
        return cls([L])

    def add_positions(self, x, table, offset=0):
        """x += table[offset + position of each row], in place."""
        for i, (L, B, rows) in enumerate(self.groups):
            start = offset + (self.prefix if i else 0)
            if rows is None:
                x.reshape(B, L, -1)[...] += table[start : start + L]
            else:
                x[rows] += np.tile(table[start : start + L], (B, 1))

    def sum_positions(self, dx, out):
        """out[position] += the sum of dx over every row at that position."""
        for L, B, rows in self.groups:
            out[:L] += (dx if rows is None else dx[rows]).reshape(B, L, -1).sum(axis=0)


# ---------------------------------------------------------------------------
# primitive layers (each returns output + cache; backward mirrors it and
# skips its weight gradients when handed no gradient dict)


# Hot reductions call np.add.reduce and np.maximum.reduce directly:
# ndarray.sum, .max and .mean are those reductions behind a Python wrapper,
# so the bits are the same and each call is cheaper.


def _mean_last(a):
    """a.mean(axis=-1, keepdims=True), bit for bit, without ndarray.mean's
    Python overhead."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


LN_EPS = 1e-5  # LayerNorm's variance floor


def _ln_fwd(x, g, b):
    """LayerNorm over the last axis of flat (N, D) rows; returns the output
    and the backward cache (xhat, inv, g), inv being 1 / sqrt(var + LN_EPS).

    A single row, as in every decode step, takes its mean and inv as scalars
    of its dtype rather than (1, 1) arrays: the same operations, bit for
    bit, without five ufunc calls' overhead on one element each, which made
    LayerNorm the largest cost of a decode step. `_ln_bwd` takes either."""
    if len(x) == 1:
        t, D = x.dtype.type, x.shape[1]
        mu = np.add.reduce(x, -1)[0] / D
        xc = x - mu
        var = np.add.reduce(xc * xc, -1)[0] / D
        # eps as a t, so that numpy 1.x adds in t as the array path does; a
        # double sqrt rounded to float32 is float32's own, correctly rounded one
        inv = t(1.0) / t(math.sqrt(var + t(LN_EPS)))
    else:
        mu = _mean_last(x)
        xc = x - mu
        var = _mean_last(xc * xc)
        inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def _ln_bwd(dout, cache, grads, prefix):
    xhat, inv, g = cache
    if grads is not None:
        grads[f"{prefix}.g"] += np.add.reduce(dout * xhat, axis=0)
        grads[f"{prefix}.b"] += np.add.reduce(dout, axis=0)
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
        grads[b_name] += np.add.reduce(dout, axis=0)
    return dout @ w.T if need_dx else None


@functools.lru_cache(maxsize=256)
def _causal_bias(L: int, dtype) -> np.ndarray:
    """(L, L) additive mask, -inf above the diagonal and 0 elsewhere; read-only."""
    bias = np.where(np.triu(np.ones((L, L), dtype=bool), k=1), -np.inf, 0.0).astype(dtype)
    bias.flags.writeable = False
    return bias


def _softmax_(a):
    """Softmax over the last axis, in place."""
    a -= np.maximum.reduce(a, axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= np.add.reduce(a, axis=-1, keepdims=True)
    return a


def _qkv_weights(p, prefix):
    w = np.concatenate([p[f"{prefix}.wq"], p[f"{prefix}.wk"], p[f"{prefix}.wv"]], axis=1)
    b = np.concatenate([p[f"{prefix}.bq"], p[f"{prefix}.bk"], p[f"{prefix}.bv"]])
    return w, b


def _attn_fwd(x, p, prefix, heads, causal, layout, past=None, first=0):
    """Multi-head attention over the flat rows of `layout`.

    Each sequence attends within itself only. `past` is (key buffer, value
    buffer, P, fused QKV weights) of one sequence whose first P positions
    are cached: the first group's one sequence, positions P.., writes its
    keys and values there and attends over [:P + rows]. In a layout with a
    prefix every later group's sequences continue it in turn: they attend
    over the cached [:P + prefix] and their own rows, and stay out of the
    cache. Without `past` the weights are fused here, and the cache keeps
    them for `_attn_bwd`.

    The output holds the rows from `first` on. With `first` > 0 the first
    group must be rows [0, L) of the flat layout: it computes keys and
    values for all of its rows, but queries only from row `first` on.
    """
    D = x.shape[1]
    dh = D // heads
    if past is None:
        w, b = _qkv_weights(p, prefix)
    else:
        kbuf, vbuf, cached, (w, b) = past
    qkv = x @ w + b
    o = None if len(layout.groups) == 1 else np.empty_like(x)
    kept = []  # per group: (qh, kh, vh, attn)
    for i, (L, B, rows) in enumerate(layout.groups):
        part = qkv if rows is None else qkv[rows]
        qh, kh, vh = part.reshape(B, L, 3, heads, dh).transpose(2, 0, 3, 1, 4)
        Q = 0 if i else first  # the group's first query row
        if Q:
            qh = qh[:, :, Q:]
        P, M = 0, L  # cached positions, and a causal mask size covering P + L
        if past is not None:
            P, M = cached, kbuf.shape[1]
            if i == 0:
                kbuf[:, P : P + L] = kh[0]
                vbuf[:, P : P + L] = vh[0]
                kh, vh = kbuf[None, :, : P + L], vbuf[None, :, : P + L]
            else:
                P += layout.prefix
                keys = np.empty((B, heads, P + L, dh), dtype=kh.dtype)
                values = np.empty_like(keys)
                keys[:, :, :P], keys[:, :, P:] = kbuf[:, :P], kh
                values[:, :, :P], values[:, :, P:] = vbuf[:, :P], vh
                kh, vh = keys, values
        attn = qh @ kh.transpose(0, 1, 3, 2)
        attn /= math.sqrt(dh)
        # a sequence's last row sees every position before it, so the mask
        # row of a lone query row is all zeros; adding it could only turn a
        # -0.0 score into +0.0, which the softmax maps to the same bits
        if causal and L - Q > 1:
            attn += _causal_bias(M, attn.dtype)[P + Q : P + L, : P + L]
        _softmax_(attn)
        heads_out = (attn @ vh).transpose(0, 2, 1, 3).reshape(B * (L - Q), D)
        if rows is None:
            o = heads_out
        else:
            o[slice(Q, L) if Q else rows] = heads_out  # a cut first group is rows [0, L)
        kept.append((qh, kh, vh, attn))
    if len(layout.groups) > 1:
        o = o[first:]
    out = o @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]
    return out, (x, kept, o, layout, w)


def _attn_bwd(dout, cache, p, g, prefix, heads):
    x, kept, o, layout, w = cache
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
    if g is not None:
        gw = x.T @ dqkv
        gb = dqkv.sum(axis=0)
        for i, name in enumerate("qkv"):
            g[f"{prefix}.w{name}"] += gw[:, i * D : (i + 1) * D]
            g[f"{prefix}.b{name}"] += gb[i * D : (i + 1) * D]
    return dqkv @ w.T


def _block_fwd(x, p, prefix, heads, causal, layout, past=None, first=0):
    """A pre-norm block over the flat rows of `layout`. Its output holds the
    rows from `first` on, and only they go through the query side: scores,
    softmax, the attention output, LN2 and the MLP."""
    h1, ln1_cache = _ln_fwd(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    x2, attn_cache = _attn_fwd(h1, p, f"{prefix}.attn", heads, causal, layout, past, first)
    x2 += x[first:]
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
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    picked = logits[rows, targets]
    np.exp(logits, out=logits)
    z = np.add.reduce(logits, axis=-1)
    logits /= z[:, None]
    logits[rows, targets] -= 1.0
    return np.log(z) - picked


def _sample_means(owner, ce, weights, n):
    """Each of `n` samples' weighted mean of the per-row losses `ce`, row i
    belonging to sample owner[i]; 0 for a sample whose rows weigh nothing."""
    total = np.bincount(owner, ce * weights, minlength=n)
    count = np.bincount(owner, weights, minlength=n)
    return np.divide(total, count, out=np.zeros(n), where=count > 0)


def _halves(lengths) -> tuple[list[int], list[int]]:
    """A batch of two or more samples as two halves of sample indices, each
    in batch order. Longest first, and in batch order among equal lengths,
    each sample joins the half with fewer positions so far, the second on a
    tie: the second half, which the worker takes, may hold more positions,
    since the caller's share of a step also sends it and adds up. The
    halves depend on the lengths alone, so their bits are the same on every
    host."""
    halves, sizes = ([], []), [0, 0]
    for i in sorted(range(len(lengths)), key=lambda i: -lengths[i]):
        side = int(sizes[1] <= sizes[0])
        halves[side].append(i)
        sizes[side] += lengths[i]
    return sorted(halves[0]), sorted(halves[1])


def _sample_rows(samples):
    """Each sample's slice of a batch's flat rows."""
    ends = list(itertools.accumulate(len(s) for s in samples))
    return [slice(a, b) for a, b in zip([0] + ends, ends)]


# ---------------------------------------------------------------------------
# the model


@dataclass
class _Pass:
    """A batched forward pass: its layout, decoder output and backward caches."""

    layout: _Layout
    tokens: np.ndarray  # (N,) int64 token ids, flat
    text: np.ndarray  # (N,) bool, TEXT positions
    scored: tuple | None  # a scoring pass's (rows, targets, weights)
    # the last decoder block's output: (N, model_dim), or in a pass with a
    # KVCache the rows from the cached sequence's last one on
    out: np.ndarray
    final_gb: tuple  # the final LayerNorm's gain and bias
    # a training pass keeps the decoder block caches and, when the batch has
    # images, (slot rows, their rows in the projected stack, stack rows,
    # encoder cache, projector cache); any other pass keeps the hidden states
    blocks: list
    images: tuple | None
    hidden: list[np.ndarray]

    @functools.cached_property
    def final_ln(self) -> tuple:
        """The final LayerNorm over `out`: its output and backward cache. It
        runs on first read, so a pass that reads only the hidden states runs
        neither it nor the head."""
        return _ln_fwd(self.out, *self.final_gb)

    @property
    def normed(self) -> np.ndarray:
        """The final LayerNorm's output, the head's input."""
        return self.final_ln[0]


class KVCache:
    """Every decoder block's keys and values for one sequence's first `length`
    positions, in buffers preallocated to max_positions. Decoding n more rows
    writes positions length.. and advances `length` by n.

    The cache belongs to the parameters of the model it was made from: it
    holds each decoder block's QKV weights, fused once from them, and the
    keys and values those weights produced. A cache made before the
    parameters change decodes with the old ones; make a new one instead."""

    def __init__(self, model: Model):
        cfg = model.cfg
        shape = (cfg.llm_layers, cfg.heads, cfg.max_positions, cfg.model_dim // cfg.heads)
        self.k = np.empty(shape, dtype=cfg.np_dtype)
        self.v = np.empty(shape, dtype=cfg.np_dtype)
        self.qkv = [_qkv_weights(model.params, f"llm.block{i}.attn")
                    for i in range(cfg.llm_layers)]
        self.length = 0


class Model:
    """Parameter store plus a batched forward/backward over packed samples."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray] | None = None):
        """`params` (default: the seeded init), exactly the config's names and
        shapes, is copied into the group buffers; `params` then holds views."""
        self.cfg = cfg
        sizes = self._group_sizes(cfg)
        try:
            self.buffers = {group: np.empty(size, cfg.np_dtype) for group, size in sizes.items()}
        except (MemoryError, ValueError) as exc:  # no room, or past numpy's largest array
            raise ConfigMismatchError(f"the config's {sum(sizes.values()):,} parameters cannot "
                                      f"be allocated: {exc}") from None
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
    @functools.lru_cache(maxsize=16)
    def _layout(cfg: ModelConfig) -> types.MappingProxyType:
        """Each group -> its size and its parameters' (name, offset, shape)
        in its flat buffer, names sorted: the one place that computes an
        offset. Kept for the last 16 configs, and read-only, since every
        caller of a config shares it."""
        table: dict[str, tuple[int, tuple]] = {}
        for name, shape in Model.param_shapes(cfg).items():
            group = Model.group_of(name)
            size, entries = table.get(group, (0, ()))
            table[group] = size + math.prod(shape), entries + ((name, size, shape),)
        return types.MappingProxyType(table)

    @staticmethod
    def _group_sizes(cfg: ModelConfig) -> dict[str, int]:
        """Each group's element count, groups sorted."""
        return {group: size for group, (size, _) in Model._layout(cfg).items()}

    @staticmethod
    def views(cfg: ModelConfig, buffers: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Each parameter of the groups in `buffers` (group -> flat buffer) ->
        its slot there, as `_layout` places it."""
        return {name: buffers[group][start : start + math.prod(shape)].reshape(shape)
                for group, (_, entries) in Model._layout(cfg).items() if group in buffers
                for name, start, shape in entries}

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

    def _check_ids(self, ids: np.ndarray):
        """Every id in [0, vocab_size): a negative one would index embed.tok
        from its end."""
        if len(ids) and (ids.min() < 0 or ids.max() >= self.cfg.vocab_size):
            raise ConfigMismatchError("token id out of vocabulary range")

    def _check(self, samples: list[PackedSample], pixels) -> None:
        """Refuse a batch that breaks the sample contract (`check_batch`) or
        this model's limits: max_positions, the vocabulary, the slot length,
        and pixels bound at its resolution. Each public entry calls this
        once per call, before any block runs."""
        check_batch(samples)
        cfg, pixels = self.cfg, pixels or {}
        longest = max(len(s) for s in samples)
        if longest > cfg.max_positions:
            raise ConfigMismatchError(
                f"sample length {longest} exceeds max_positions {cfg.max_positions}")
        self._check_ids(np.concatenate([s.tokens for s in samples]))
        S, grid = cfg.slot_length, (cfg.resolution, cfg.resolution, 3)
        for s in samples:
            for slot in s.image_slots:
                if slot.image_id not in pixels:
                    raise VlmforgeError(f"image slot {slot.image_id!r} is not bound to pixels")
                if np.shape(pixels[slot.image_id]) != grid:
                    raise ConfigMismatchError(f"pixel grid {np.shape(pixels[slot.image_id])} "
                                              f"does not match resolution {cfg.resolution}")
                if slot.length != S:
                    raise ConfigMismatchError(
                        f"slot length {slot.length} != model slot length {S}")

    def _flatten(self, samples: list[PackedSample], scored: bool) -> tuple:
        """A checked batch (`_check`) as flat rows: the int64 token ids, the
        TEXT mask, a scored batch's scored rows, the images in order of first
        use, every slot's flat rows and each slot's first row in the
        projected image stack. Scored row r predicts token r + 1 and weighs
        as its loss bit; no sample has one at its first position, so a
        sample's last row predicts nothing."""
        S = self.cfg.slot_length
        tokens = np.concatenate([s.tokens for s in samples]).astype(np.int64)
        text = np.concatenate([s.modality_mask for s in samples]) == TEXT
        score = None
        if scored:
            mask = np.concatenate([s.loss_mask for s in samples])
            rows = np.flatnonzero(mask[1:])
            score = rows, tokens[rows + 1], mask[rows + 1].astype(np.float64)
        image_ids = list(dict.fromkeys(
            slot.image_id for s in samples for slot in s.image_slots))
        index = {image_id: k for k, image_id in enumerate(image_ids)}
        dst, src, offset = [], [], 0
        for s in samples:
            for slot in s.image_slots:
                dst.append(offset + slot.start)
                src.append(index[slot.image_id] * S)
            offset += len(s)
        dst = (np.asarray(dst, dtype=np.int64)[:, None] + np.arange(S)).ravel()
        return tokens, text, score, image_ids, dst, src

    def _forward(self, samples: list[PackedSample], pixels, train: bool,
                 kv: KVCache | None = None, scored: bool = False) -> _Pass:
        """Embed, merge the images in, and run the decoder over a whole batch,
        which the entry that took it has checked (`_check`).

        A training pass keeps what backward needs; any other pass keeps the
        hidden states instead; the final LayerNorm runs when a caller first
        reads `normed` or `final_ln`. Given an empty KVCache, the pass is
        the first sample's prefill, and every later sample continues that
        one, as a layout with that sample as its prefix lays them out. The
        head then reads only the first sample's last row, which predicts
        what follows it, and the later samples' rows, so the decoder's
        output starts at that row.
        """
        pixels = pixels or {}
        tokens, text, score, image_ids, dst, src = self._flatten(samples, scored)
        cfg, p = self.cfg, self.params
        S = cfg.slot_length
        lengths = [len(s) for s in samples]
        layout = _Layout(lengths) if kv is None else _Layout(lengths[1:], prefix=lengths[0])
        x = p["embed.tok"][tokens]
        images = None
        if image_ids:
            stack = np.stack([pixels[i] for i in image_ids])
            enc, enc_cache = self.encode_image(stack, with_cache=True)
            proj, proj_cache = self.project(enc, with_cache=True)
            src = (np.asarray(src)[:, None] + np.arange(S)).ravel()
            x[dst] = proj.reshape(-1, cfg.model_dim)[src]
            if train:
                images = (dst, src, len(image_ids) * S, enc_cache, proj_cache)
        layout.add_positions(x, p["embed.pos"])
        first = 0 if kv is None else lengths[0] - 1
        out, kept = self._decode(x, layout, train, kv, first)
        final_gb = (p["llm.final_ln.g"], p["llm.final_ln.b"])
        if train:
            return _Pass(layout, tokens, text, score, out, final_gb, kept, images, [])
        return _Pass(layout, tokens, text, score, out, final_gb, [], None, kept)

    def _decode(self, x, layout: _Layout, train: bool, kv: KVCache | None = None,
                first: int = 0):
        """The decoder blocks over embedded rows; the final LayerNorm is left
        to the callers that read the head.

        Returns the last block's output, and the block caches (training) or
        the hidden states (otherwise). With a KVCache the first group's one
        sequence continues it from its length, which then advances past it;
        a prefixed layout's later sequences continue that one in turn and
        stay out of the cache.

        The output holds the rows from `first` on, the first the caller
        reads: the last block computes keys and values for every row, so the
        cache covers them all, and runs its query side on those rows only.
        So does the last hidden state.
        """
        cfg, p = self.cfg, self.params
        kept = [] if train else [x]  # block caches or hidden states
        last = cfg.llm_layers - 1
        for i in range(cfg.llm_layers):
            past = None if kv is None else (kv.k[i], kv.v[i], kv.length, kv.qkv[i])
            x, cache = _block_fwd(x, p, f"llm.block{i}", cfg.heads, True, layout, past,
                                  first if i == last else 0)
            kept.append(cache if train else x)
            del cache  # outside training, freed before the next block runs
        if kv is not None:
            kv.length += layout.groups[0][0]
        if last < 0:  # no block cut the rows
            x = x[first:]
        return x, kept

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
        self._check(samples, pixels)
        fw = self._forward(samples, pixels, train=False)
        logits = fw.normed @ p["head.w"] + p["head.b"]
        if isinstance(sample, PackedSample):
            return ForwardTrace(logits, fw.hidden)
        return [ForwardTrace(logits[rows], [h[rows] for h in fw.hidden])
                for rows in _sample_rows(samples)]

    def hidden_states(self, samples: list[PackedSample],
                      pixels: dict[str, np.ndarray] | None = None) -> list[list[np.ndarray]]:
        """Each sample's llm_layers + 1 hidden states, as `forward` captures
        them, from one batched pass that runs neither the final LayerNorm
        nor the head."""
        samples = list(samples)
        self._check(samples, pixels)
        fw = self._forward(samples, pixels, train=False)
        return [[h[rows] for h in fw.hidden] for rows in _sample_rows(samples)]

    # -- loss and gradients

    def _head_xent(self, normed, targets):
        """The head's logits on the final-LN rows `normed`, and each row's
        cross-entropy against its target; the logits are overwritten with
        that cross-entropy's gradient."""
        logits = normed @ self.params["head.w"] + self.params["head.b"]
        return _xent_(logits, targets), logits

    def loss_and_grads(
        self,
        samples: PackedSample | list[PackedSample],
        pixels: dict[str, np.ndarray] | None = None,
        trainable=None,
    ):
        """Mean masked next-token cross-entropy over a (micro)batch, and its gradients.

        The mean is over all masked target positions across the batch.
        Gradients cover every parameter group, frozen or not, when
        `trainable` is None; otherwise only the named groups get gradients,
        and backward skips every weight gradient and every layer below that
        none of them needs; each group's are views into a fresh buffer
        (`views`). Every check runs on the whole batch first; an all-masked
        batch is then flagged and yields exactly zero loss and gradients,
        with no pass run.

        A batch of one sample runs as one pass. A larger batch is two fixed
        halves (`_halves`), each a pass of its own whose cross-entropy sum and
        gradients are taken over the whole batch's scored weight `total`,
        and they add up: loss = (first sum + second sum) / total, grads =
        first + second, added group by group. The second half runs in this
        process's worker where there is one (`halves`), and here otherwise,
        through the same `_scored_grads`, so the bits do not depend on the host.
        """
        samples = [samples] if isinstance(samples, PackedSample) else list(samples)
        self._check(samples, pixels)
        train = set(PARAM_GROUPS if trainable is None else trainable)
        buffers, grads = self._zero_grads(train)
        total = float(sum(np.count_nonzero(s.loss_mask) for s in samples))
        if total == 0.0:
            logger.warning("loss_and_grads: batch has no loss-masked positions")
            return 0.0, grads
        if len(samples) == 1:
            return self._scored_grads(samples, pixels, train, total, grads) / total, grads
        first, second = ([samples[i] for i in half] for half in _halves([len(s) for s in samples]))
        with halves.second_half(self, second, pixels, train, total) as second_half:
            ce = self._scored_grads(first, pixels, train, total, grads)
            other_ce, other_buffers = second_half()
            for group, buf in buffers.items():
                buf += other_buffers[group]
        return (ce + other_ce) / total, grads

    def _zero_grads(self, train) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """A zeroed gradient buffer for each group in `train`, and each of
        their parameters' gradient as a view into it."""
        buffers = {group: np.zeros(size, self.cfg.np_dtype)
                   for group, size in self._group_sizes(self.cfg).items() if group in train}
        return buffers, self.views(self.cfg, buffers)

    def _scored_grads(self, samples, pixels, train, total: float, grads) -> float:
        """One training pass over `samples`: returns the sum of its scored
        rows' weighted cross-entropies, and adds the gradients of that sum
        over `total` to `grads`, which holds the trainable parameters'."""
        fw = self._forward(samples, pixels, train=True, scored=True)
        rows, targets, weights = fw.scored
        normed = fw.normed[rows]
        ce, dlogits = self._head_xent(normed, targets)
        dlogits *= (weights / total)[:, None]
        head = grads if "head" in train else None
        dnormed = _linear_bwd(dlogits, normed, self.params["head.w"], head, "head.w", "head.b")
        del dlogits  # (rows, vocab): freed before the decoder's backward
        self._backward(fw, rows, dnormed, grads, train)
        return float(ce @ weights)

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
        dx = np.zeros_like(fw.out)
        dx[rows] = dnormed
        dx = _ln_bwd(dx, fw.final_ln[1], owned("llm"), "llm.final_ln")
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

    def sequence_loss(self, sample: PackedSample | list[PackedSample], pixels=None):
        """Loss only (no gradients).

        One sample gives its mean masked cross-entropy as a float. A list is
        scored as one batch, its images encoded once, and gives an array of
        per-sample means. A sample with no masked position scores 0.
        """
        samples = [sample] if isinstance(sample, PackedSample) else list(sample)
        self._check(samples, pixels)
        fw = self._forward(samples, pixels, train=False, scored=True)
        rows, targets, weights = fw.scored
        ce, _ = self._head_xent(fw.normed[rows], targets)
        owner = np.repeat(np.arange(len(samples)), [len(s) for s in samples])[rows]
        losses = _sample_means(owner, ce, weights, len(samples))
        return float(losses[0]) if isinstance(sample, PackedSample) else losses

    # -- cached decoding

    def prefill(self, sample: PackedSample, pixels=None) -> tuple[KVCache, np.ndarray]:
        """Decode one sample, its images encoded once, into a new KVCache.

        Returns the cache and the logits of the sample's last position. The
        cache holds every position's keys and values; the last block's query
        side and the final LayerNorm run on the last position only.
        """
        self._check([sample], pixels)
        kv = KVCache(self)
        fw = self._forward([sample], pixels, train=False, kv=kv)
        return kv, fw.normed[-1] @ self.params["head.w"] + self.params["head.b"]

    def extend(self, kv: KVCache, ids) -> np.ndarray:
        """Decode the text tokens `ids` at positions kv.length.. from the
        cache, which then covers them too; returns their (n, vocab) logits."""
        cfg = self.cfg
        ids = np.asarray(ids, dtype=np.int64)
        if kv.length + len(ids) > cfg.max_positions:
            raise ConfigMismatchError(
                f"sample length {kv.length + len(ids)} exceeds max_positions {cfg.max_positions}"
            )
        self._check_ids(ids)
        return self._extend(kv, ids)

    def _extend(self, kv: KVCache, ids) -> np.ndarray:
        """`extend` of ids already checked to be in range and to fit."""
        p = self.params
        layout = _Layout.single(len(ids))
        x = p["embed.tok"][ids]
        layout.add_positions(x, p["embed.pos"], kv.length)
        out, _ = self._decode(x, layout, False, kv)
        normed, _ = _ln_fwd(out, p["llm.final_ln.g"], p["llm.final_ln.b"])
        return normed @ p["head.w"] + p["head.b"]

    def continuation_losses(self, prefix: PackedSample, continuations, pixels=None) -> np.ndarray:
        """Mean next-token cross-entropy of each continuation (a non-empty
        list of text token ids) after `prefix`: the mean over its tokens of
        the cross-entropy that `forward`'s logits of the prefix followed by
        the continuation give each of them.

        One decoder pass scores them all: the prefix is its first sequence,
        and each continuation continues the prefix at positions len(prefix)..,
        attending over the prefix and itself but never over another
        continuation. The head runs on the prefix's last row, which predicts
        every first token, and on the continuation rows, and the last block's
        query side and the final LayerNorm run on those rows only.
        """
        cfg, P = self.cfg, len(prefix)
        ids = [np.asarray(c, dtype=np.int64) for c in continuations]
        if not ids or not all(len(c) for c in ids):
            raise VlmforgeError("no continuation, or an empty one")
        n = np.array([len(c) for c in ids])
        if P + n.max() > cfg.max_positions:
            raise ConfigMismatchError(
                f"sample length {P + n.max()} exceeds max_positions {cfg.max_positions}"
            )
        # a continuation's last token predicts nothing, but goes in with the
        # rest: its id is checked with theirs, and the continuation's rows
        # attend over as many positions as in the appended sequence
        fed = [PackedSample(c, np.full(len(c), TEXT, dtype=np.uint8),
                            np.zeros(len(c), dtype=np.uint8)) for c in ids]
        self._check([prefix] + fed, pixels)
        fw = self._forward([prefix] + fed, pixels, train=False, kv=KVCache(self))
        # the output starts at the prefix's last row, which predicts every
        # continuation's first token; target j > 0 of a continuation is
        # predicted by its row j - 1
        rows = np.arange(n.sum())
        rows[np.cumsum(n) - n] = 0
        ce, _ = self._head_xent(fw.normed[rows], np.concatenate(ids))
        return _sample_means(np.repeat(np.arange(len(n)), n), ce, np.ones(len(rows)), len(n))

    def generate(self, prefix: PackedSample, pixels=None, max_new: int = 32) -> list[int]:
        """Greedy continuation; stops at EOS (id vocab-specific: 257).

        The prefix and max_new are checked once, and the prefix is prefilled
        once, even for max_new 0, so that every prefix `prefill` refuses is
        refused here too. Each new token then extends the cache by one
        position without `extend`'s checks: it is an argmax over the
        vocabulary, and the check on max_new made room for it.
        """
        eos = ByteTokenizer().eos
        if max_new < 0:
            raise ConfigMismatchError(f"max_new must be at least 0, not {max_new}")
        if len(prefix) + max_new > self.cfg.max_positions:
            raise ConfigMismatchError("prefix + max_new exceeds max_positions")
        kv, logits = self.prefill(prefix, pixels)
        out: list[int] = []
        for step in range(max_new):
            if step:
                logits = self._extend(kv, out[-1:])[0]
            nxt = int(logits.argmax())
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

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
and the loss. Attention alone runs on a right-padded (B, H, Lmax, Lmax)
view; padding sits after every real position and the decoder is causal, so
no key-padding mask is needed. The batch's images, deduplicated by image_id,
go through `encode_image` and `project` once as one (N_img, T, D) stack.
`forward(sample)` is the B=1 case, where the flat and padded layouts are one
reshape apart.

Backward walks the same layout and does only the work the trainable groups
need: frozen groups get no gradient buffers, no weight-gradient matmuls and
no reductions, and it stops at the projector's input while the vision
encoder is frozen.

Parameters live in a flat name -> array store; the name's first component
(vision / projector / embed / llm / head) is the freezing unit.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import struct
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
from scipy.special import erf

from .errors import ConfigMismatchError, VlmforgeError
from .manifest import atomic_open
from .packing import TEXT, PackedSample, tokens_per_image

logger = logging.getLogger(__name__)

CKPT_MAGIC = b"VLMCKPT\x00"
CKPT_VERSION = 1

PARAM_GROUPS = ("vision", "projector", "embed", "llm", "head")
DTYPES = {"float64": np.float64, "float32": np.float32}


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


def fields_from_json(cls, obj) -> dict:
    """A JSON object's keys as keyword arguments for dataclass `cls`, which
    supplies the defaults; a non-object, an unknown key or a missing required
    key raises ConfigMismatchError."""
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
    """B sequences stored back to back as flat rows, plus a right-padded view.

    Position-wise ops run on the flat (N, F) rows; attention runs on the
    (B, Lmax, F) view. When every sequence has the same length the two are
    one reshape apart and `rows` is None.
    """

    def __init__(self, lengths):
        self.B = len(lengths)
        self.Lmax = max(lengths)
        self.rows = None  # flat row -> row of the padded (B * Lmax) view
        if min(lengths) != self.Lmax:
            starts = np.arange(self.B) * self.Lmax
            self.rows = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, lengths)])

    def pad(self, a):
        """(N, F) flat rows -> (B, Lmax, F), zero past each sequence's end."""
        if self.rows is None:
            return a.reshape(self.B, self.Lmax, -1)
        out = np.zeros((self.B * self.Lmax, a.shape[-1]), dtype=a.dtype)
        out[self.rows] = a
        return out.reshape(self.B, self.Lmax, -1)

    def unpad(self, a):
        """(B, Lmax, ...) -> (N, F) flat rows."""
        flat = a.reshape(self.B * self.Lmax, -1)
        return flat if self.rows is None else flat[self.rows]

    def add_positions(self, x, table):
        """x += table[position of each row], in place."""
        if self.rows is None:
            x.reshape(self.B, self.Lmax, -1)[...] += table[: self.Lmax]
        else:
            x += table[self.rows % self.Lmax]


# ---------------------------------------------------------------------------
# primitive layers (each returns output + cache; backward mirrors it and
# skips its weight gradients when handed no gradient dict)


def _ln_fwd(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
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
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
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


def _attn_fwd(x, p, prefix, heads, causal, layout=None):
    """Multi-head attention over the flat rows of `layout` (default: one sequence).

    Bidirectional attention takes equal-length sequences only, since it
    would attend to padding.
    """
    N, D = x.shape
    layout = layout or _Layout([N])
    B, L, dh = layout.B, layout.Lmax, D // heads
    w, b = _qkv_weights(p, prefix)
    qkv = layout.pad(x @ w + b).reshape(B, L, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    qh, kh, vh = qkv  # (B, heads, L, dh) each
    attn = qh @ kh.transpose(0, 1, 3, 2)
    attn /= math.sqrt(dh)
    if causal:
        attn += _causal_bias(L, attn.dtype)
    _softmax_(attn)
    o = layout.unpad((attn @ vh).transpose(0, 2, 1, 3))
    out = o @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]
    return out, (x, qh, kh, vh, attn, o, layout)


def _attn_bwd(dout, cache, p, g, prefix, heads):
    x, qh, kh, vh, attn, o, layout = cache
    D = x.shape[1]
    B, L, dh = layout.B, layout.Lmax, D // heads
    do = _linear_bwd(dout, o, p[f"{prefix}.wo"], g, f"{prefix}.wo", f"{prefix}.bo")
    doh = layout.pad(do).reshape(B, L, heads, dh).transpose(0, 2, 1, 3)
    dqkv = np.empty((B, L, 3, heads, dh), dtype=x.dtype)
    dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)  # views in (B, heads, L, dh) order
    dv[...] = attn.transpose(0, 1, 3, 2) @ doh
    dscores = doh @ vh.transpose(0, 1, 3, 2)
    # attention backward is the memory peak of a training pass, so padded
    # temporaries are dropped as soon as they are used
    del doh
    # softmax backward, in place; masked entries have attn == 0 hence zero
    dscores -= np.einsum("bhij,bhij->bhi", dscores, attn)[..., None]
    dscores *= attn
    dscores /= math.sqrt(dh)
    dq[...] = dscores @ kh
    dk[...] = dscores.transpose(0, 1, 3, 2) @ qh
    del dscores
    dqkv = layout.unpad(dqkv)  # (N, 3D), columns in wq | wk | wv order
    w, _ = _qkv_weights(p, prefix)
    if g is not None:
        gw = x.T @ dqkv
        gb = dqkv.sum(axis=0)
        for i, name in enumerate("qkv"):
            g[f"{prefix}.w{name}"] += gw[:, i * D : (i + 1) * D]
            g[f"{prefix}.b{name}"] += gb[i * D : (i + 1) * D]
    return dqkv @ w.T


def _block_fwd(x, p, prefix, heads, causal, layout=None):
    h1, ln1_cache = _ln_fwd(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    x2, attn_cache = _attn_fwd(h1, p, f"{prefix}.attn", heads, causal, layout)
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


class Model:
    """Parameter store plus a batched forward/backward over packed samples."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray] | None = None):
        self.cfg = cfg
        self.params = params if params is not None else self._init_params()

    # -- parameter construction

    def _param_shapes(self) -> dict[str, tuple]:
        cfg = self.cfg
        shapes: dict[str, tuple] = {}
        patch_in = cfg.patch * cfg.patch * 3
        shapes["vision.patch.w"] = (patch_in, cfg.vision_dim)
        shapes["vision.patch.b"] = (cfg.vision_dim,)
        shapes["vision.pos"] = (cfg.encoder_tokens, cfg.vision_dim)
        for i in range(cfg.vision_layers):
            shapes.update(self._block_shapes(f"vision.block{i}", cfg.vision_dim, cfg.ffn_dim))
        if isinstance(cfg.projector, TransformerBlockProjector):
            shapes.update(self._block_shapes("projector.block", cfg.vision_dim, cfg.ffn_dim))
            shapes["projector.out.w"] = (cfg.vision_dim, cfg.model_dim)
            shapes["projector.out.b"] = (cfg.model_dim,)
        else:
            shapes["projector.w"] = (cfg.downsample**2 * cfg.vision_dim, cfg.model_dim)
            shapes["projector.b"] = (cfg.model_dim,)
        shapes["embed.tok"] = (cfg.vocab_size, cfg.model_dim)
        shapes["embed.pos"] = (cfg.max_positions, cfg.model_dim)
        for i in range(cfg.llm_layers):
            shapes.update(self._block_shapes(f"llm.block{i}", cfg.model_dim, cfg.ffn_dim))
        shapes["llm.final_ln.g"] = (cfg.model_dim,)
        shapes["llm.final_ln.b"] = (cfg.model_dim,)
        shapes["head.w"] = (cfg.model_dim, cfg.vocab_size)
        shapes["head.b"] = (cfg.vocab_size,)
        return shapes

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

    def _init_params(self) -> dict[str, np.ndarray]:
        cfg = self.cfg
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x6D6F64656C]))
        depth = max(1, cfg.vision_layers + cfg.llm_layers)
        scale = 0.02 / np.sqrt(depth)
        params: dict[str, np.ndarray] = {}
        for name, shape in sorted(self._param_shapes().items()):
            if name.endswith(("ln1.g", "ln2.g", "final_ln.g")):
                arr = np.ones(shape)
            elif name.endswith(".b") or name.endswith(
                ("bq", "bk", "bv", "bo", "b1", "b2")
            ):
                arr = np.zeros(shape)
            elif name in ("embed.tok", "embed.pos", "vision.pos"):
                arr = rng.normal(0.0, 0.02, size=shape)
            else:
                arr = rng.normal(0.0, scale, size=shape)
            params[name] = arr.astype(cfg.np_dtype)
        return params

    @staticmethod
    def group_of(name: str) -> str:
        return name.split(".", 1)[0]

    def group_names(self) -> list[str]:
        return sorted({self.group_of(n) for n in self.params})

    def param_count(self, group: str | None = None) -> int:
        return sum(
            arr.size
            for name, arr in self.params.items()
            if group is None or self.group_of(name) == group
        )

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

    def _forward(self, samples: list[PackedSample], pixels, train: bool) -> _Pass:
        """Embed, merge the images in, and run the decoder over a whole batch.

        A training pass keeps what backward needs; any other pass keeps the
        hidden states instead.
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
        kept = []  # block caches or hidden states
        if not train:
            kept.append(x)
        for i in range(cfg.llm_layers):
            x, cache = _block_fwd(x, p, f"llm.block{i}", cfg.heads, True, layout)
            kept.append(cache if train else x)
        normed, final_ln = _ln_fwd(x, p["llm.final_ln.g"], p["llm.final_ln.b"])
        if train:
            return _Pass(layout, tokens, text, normed, final_ln, kept, images, [])
        return _Pass(layout, tokens, text, normed, final_ln, [], None, kept)

    def forward(self, sample: PackedSample, pixels: dict[str, np.ndarray] | None = None):
        """Run one merged sequence through the decoder, capturing hidden states.

        This is the batched pass at B=1, with no padding.
        """
        p = self.params
        fw = self._forward([sample], pixels, train=False)
        logits = fw.normed @ p["head.w"] + p["head.b"]
        return ForwardTrace(logits, fw.hidden)

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
            layout = fw.layout
            grads["embed.pos"][: layout.Lmax] += layout.pad(dx).sum(axis=0)
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
        per-sample means. A sample with no masked position scores 0.
        """
        samples = [sample] if isinstance(sample, PackedSample) else list(sample)
        fw = self._forward(samples, pixels, train=False)
        rows, targets, weights, logits = self._scored_rows(samples, fw)
        owner = np.repeat(np.arange(len(samples)), [len(s) for s in samples])[rows]
        ce = np.bincount(owner, _xent_(logits, targets) * weights, minlength=len(samples))
        n = np.bincount(owner, weights, minlength=len(samples))
        losses = np.divide(ce, n, out=np.zeros(len(samples)), where=n > 0)
        return float(losses[0]) if isinstance(sample, PackedSample) else losses

    # -- generation

    def generate(self, prefix: PackedSample, pixels=None, max_new: int = 32) -> list[int]:
        """Greedy continuation; stops at EOS (id vocab-specific: 257)."""
        from .packing import ByteTokenizer  # avoid cycle at import

        eos = ByteTokenizer().eos
        if len(prefix) + max_new > self.cfg.max_positions:
            raise ConfigMismatchError("prefix + max_new exceeds max_positions")
        tokens = list(prefix.tokens.astype(int))
        modality = list(prefix.modality_mask.astype(int))
        out: list[int] = []
        for _ in range(max_new):
            sample = PackedSample(
                np.asarray(tokens, dtype=np.uint32),
                np.asarray(modality, dtype=np.uint8),
                np.zeros(len(tokens), dtype=np.uint8),
                list(prefix.image_slots),
                prefix.stage_tag,
            )
            trace = self.forward(sample, pixels)
            nxt = int(np.argmax(trace.logits[-1]))
            if nxt == eos:
                break
            out.append(nxt)
            tokens.append(nxt)
            modality.append(TEXT)
        return out

    # -- checkpoints

    def group_checksum(self, group: str) -> str:
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self.params):
            if self.group_of(name) == group:
                h.update(self.params[name].tobytes())
        return h.hexdigest()

    def save_checkpoint(self, path) -> None:
        """Little-endian float32 checkpoint with the config embedded; atomic."""
        cfg_json = json.dumps(self.cfg.to_json(), sort_keys=True).encode()
        with atomic_open(path, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<II", CKPT_VERSION, len(cfg_json)))
            fh.write(cfg_json)
            fh.write(struct.pack("<I", len(self.params)))
            for name in sorted(self.params):
                arr = self.params[name]
                raw = name.encode()
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.astype("<f4").tobytes())

    @staticmethod
    def load_checkpoint(path, expect_cfg: ModelConfig | None = None) -> "Model":
        """Read a checkpoint; a short read anywhere raises VlmforgeError."""
        with open(path, "rb") as fh:

            def read(n: int) -> bytes:
                data = fh.read(n)
                if len(data) != n:
                    raise VlmforgeError(f"{path}: truncated checkpoint")
                return data

            if fh.read(8) != CKPT_MAGIC:
                raise VlmforgeError(f"{path}: not a VLMCKPT file")
            version, cfg_len = struct.unpack("<II", read(8))
            if version != CKPT_VERSION:
                raise VlmforgeError(f"{path}: unsupported checkpoint version {version}")
            cfg = ModelConfig.from_json(json.loads(read(cfg_len)))
            if expect_cfg is not None and cfg != expect_cfg:
                raise ConfigMismatchError(f"{path}: checkpoint config mismatch")
            (n_params,) = struct.unpack("<I", read(4))
            params: dict[str, np.ndarray] = {}
            for _ in range(n_params):
                (name_len,) = struct.unpack("<H", read(2))
                name = read(name_len).decode()
                (ndim,) = struct.unpack("<I", read(4))
                shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
                count = int(np.prod(shape)) if shape else 1
                arr = np.frombuffer(read(4 * count), dtype="<f4").reshape(shape)
                params[name] = arr.astype(cfg.np_dtype)
        return Model(cfg, params)

"""Three-stage training orchestration with per-group freeze policies.

Stage 0 warms up the projector on caption pairs with everything else frozen;
stage 1 pre-trains on a blended document stream; stage 2 is instruction
tuning (optionally joint with text-only demos). Freezing is bitwise: frozen
groups receive no parameter updates and no optimizer-moment updates.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import corpus as corpus_mod
from .errors import NumericError, VlmforgeError
from .model import PARAM_GROUPS, Model, ModelConfig, Linear, TransformerBlockProjector
from .packing import ByteTokenizer, PackedSample, bind_pixels, pack_document, pack_sft
from .seeding import child_seed, substream

logger = logging.getLogger(__name__)

STAGE_NAMES = ("init-projector", "pretrain", "sft")


@dataclass(frozen=True)
class FreezePolicy:
    trainable: frozenset[str]

    def __post_init__(self):
        unknown = self.trainable - set(PARAM_GROUPS)
        if unknown:
            raise VlmforgeError(f"unknown parameter groups in policy: {sorted(unknown)}")

    @staticmethod
    def of(*groups: str) -> "FreezePolicy":
        return FreezePolicy(frozenset(groups))


@dataclass
class StageSpec:
    name: str
    policy: FreezePolicy
    steps: int
    lr: float
    warmup: int | None = None  # default: 3% of steps
    batch_size: int = 8
    text_only_fraction: float = 0.0  # sft only: joint text-only share

    def __post_init__(self):
        self.steps, self.batch_size = int(self.steps), int(self.batch_size)
        self.lr, self.text_only_fraction = float(self.lr), float(self.text_only_fraction)
        for key, ok, rule in (
                ("steps", self.steps >= 1, "at least 1"),
                ("batch_size", self.batch_size >= 1, "at least 1"),
                ("warmup", self.warmup is None or self.warmup >= 0, "at least 0"),
                ("lr", math.isfinite(self.lr) and self.lr >= 0, "finite and at least 0"),
                ("text_only_fraction", 0 <= self.text_only_fraction <= 1, "in [0, 1]")):
            if not ok:
                raise VlmforgeError(
                    f"stage {self.name!r}: {key} must be {rule}, not {getattr(self, key)}")

    def warmup_steps(self) -> int:
        if self.warmup is not None:
            return self.warmup
        return max(1, round(0.03 * self.steps))


@dataclass
class StagePlan:
    stages: list[StageSpec]

    def __post_init__(self):
        for stage in self.stages:
            if stage.name not in STAGE_NAMES:
                raise VlmforgeError(f"unknown stage name {stage.name!r}")


@dataclass
class LogRecord:
    step: int
    stage: str
    loss: float
    lr: float
    tokens: int
    images: int


class RunLog:
    """Per-step training records, serialized as a fixed-column CSV."""

    COLUMNS = ("step", "stage", "loss", "lr", "tokens", "images")

    def __init__(self, records: list[LogRecord] | None = None):
        self.records: list[LogRecord] = records or []

    def append(self, record: LogRecord) -> None:
        self.records.append(record)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        for r in self.records:
            writer.writerow([r.step, r.stage, repr(r.loss), repr(r.lr), r.tokens, r.images])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "RunLog":
        """The records of `to_csv` text; a missing column, a short row or a
        value that does not parse raises VlmforgeError naming the line."""
        reader = csv.DictReader(io.StringIO(text))
        missing = [c for c in RunLog.COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise VlmforgeError(f"line 1: no {', '.join(missing)} column")
        records = []
        for row in reader:
            step, stage, loss, lr, tokens, images = (row[c] for c in RunLog.COLUMNS)
            try:
                if None in (step, stage, loss, lr, tokens, images):
                    raise ValueError(f"fewer than {len(reader.fieldnames)} fields")
                records.append(LogRecord(int(step), stage, float(loss), float(lr),
                                         int(tokens), int(images)))
            except ValueError as exc:
                raise VlmforgeError(f"line {reader.line_num}: {exc}") from None
        return RunLog(records)

    def losses(self, stage: str | None = None) -> list[float]:
        return [r.loss for r in self.records if stage is None or r.stage == stage]


ADAM_BETAS = (0.9, 0.95)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.05
CLIP_NORM = 1.0  # bound on the global gradient norm


class AdamW:
    """Decoupled-weight-decay Adam over the trainable groups only; each step
    takes its learning rate from the schedule, so `lr` is not read.

    A step updates each trainable group as one array: the model's group
    buffer and the moments, kept as one buffer per group too (`m_buffers`,
    `v_buffers`, laid out as `Model.views` says). Every trainable parameter
    must therefore be the model's view into its group buffer; construction
    refuses one that was replaced, since its updates would miss the array
    the model reads.
    """

    def __init__(self, model: Model, policy: FreezePolicy, lr: float):
        self.model = model
        self.t = 0
        trainable = {g: buf for g, buf in model.buffers.items() if g in policy.trainable}
        views = model.views(model.cfg, trainable)
        for name, view in views.items():
            if model.params[name].ctypes.data != view.ctypes.data:
                raise VlmforgeError(f"parameter {name!r} is not a view of the model's "
                                    f"{Model.group_of(name)} buffer")
        self.m_buffers = {g: np.zeros_like(buf) for g, buf in trainable.items()}
        self.v_buffers = {g: np.zeros_like(buf) for g, buf in trainable.items()}
        self.groups = {g: [n for n in views if Model.group_of(n) == g] for g in trainable}
        self.squares = {g: np.empty_like(buf) for g, buf in trainable.items()}  # clip-norm scratch
        self.square_parts = model.views(model.cfg, self.squares)

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        """Update parameters and moments in place, `grads` read only, in the
        operation order of p -= lr * (mhat / (sqrt(vhat) + eps) + wd * p).

        The clip norm sums each gradient's squares separately, in name
        order, so a group-wise step is bit-identical to a per-array one."""
        flat = {group: np.concatenate([grads[n] for n in names], axis=None)
                for group, names in self.groups.items()}
        for group, g in flat.items():
            np.multiply(g, g, out=self.squares[group])
        sq = 0.0
        for part in self.square_parts.values():
            sq += float(part.sum())
        norm = math.sqrt(sq)
        scale = CLIP_NORM / norm if norm > CLIP_NORM else 1.0
        b1, b2 = ADAM_BETAS
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        # two scratch arrays per group: the gathered gradient, which becomes
        # the update, and `tmp`, which becomes the denominator and then wd * p
        for group, g in flat.items():
            m, v, p = self.m_buffers[group], self.v_buffers[group], self.model.buffers[group]
            if scale != 1.0:
                g *= scale
            tmp = (1 - b1) * g
            m *= b1
            m += tmp
            np.multiply(g, 1 - b2, out=tmp)
            tmp *= g  # (1 - b2) * g * g
            v *= b2
            v += tmp
            denom = np.divide(v, bc2, out=tmp)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            update = np.divide(m, bc1, out=g)
            update /= denom
            update += np.multiply(p, WEIGHT_DECAY, out=denom)
            update *= lr
            p -= update


def lr_at(stage: StageSpec, step: int) -> float:
    """Linear warmup then cosine decay to zero; step is 0-based."""
    warmup = stage.warmup_steps()
    if step < warmup:
        return stage.lr * (step + 1) / warmup
    remaining = max(1, stage.steps - warmup)
    progress = (step - warmup) / remaining
    return stage.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def run_stage(
    stage: StageSpec,
    model: Model,
    batches: Iterator[list[PackedSample]],
    log: RunLog | None = None,
    start_step: int = 0,
    stop_step: int | None = None,
    optimizer: AdamW | None = None,
) -> tuple[RunLog, AdamW]:
    """Run one stage's optimizer steps over a deterministic batch stream.

    Frozen groups stay bit-identical throughout, including their (absent)
    optimizer moments, and backward computes no gradients for them. NaN
    loss aborts with the step number. start_step / stop_step support
    interrupt-and-resume without changing the lr schedule, which always
    spans the full stage; the cumulative token and image counts resume from
    the stage's last record in `log`.
    """
    log = log if log is not None else RunLog()
    opt = optimizer if optimizer is not None else AdamW(model, stage.policy, stage.lr)
    last = next((r for r in reversed(log.records) if r.stage == stage.name), None)
    tokens_seen = last.tokens if last else 0
    images_seen = last.images if last else 0
    for step in range(start_step, stop_step if stop_step is not None else stage.steps):
        batch = next(batches)
        pixels = bind_pixels(batch, model.cfg.resolution)
        loss, grads = model.loss_and_grads(batch, pixels, trainable=stage.policy.trainable)
        if not math.isfinite(loss):
            raise NumericError(
                f"non-finite loss at stage {stage.name!r} step {step} "
                f"(batch of {len(batch)} samples)"
            )
        lr = lr_at(stage, step)
        opt.step(grads, lr)
        tokens_seen += sum(len(s) for s in batch)
        images_seen += sum(len(s.image_slots) for s in batch)
        log.append(LogRecord(step, stage.name, float(loss), lr, tokens_seen, images_seen))
    return log, opt


# ---------------------------------------------------------------------------
# data streams


def batched(samples: Iterator[PackedSample], batch_size: int) -> Iterator[list[PackedSample]]:
    batch: list[PackedSample] = []
    for sample in samples:
        batch.append(sample)
        if len(batch) == batch_size:
            yield batch
            batch = []


def document_sample_stream(
    docs: Iterator[corpus_mod.InterleavedDocument],
    tok: ByteTokenizer,
    cfg: ModelConfig,
    max_len: int,
) -> Iterator[PackedSample]:
    for doc in docs:
        yield from pack_document(doc, tok, cfg.slot_length, max_len)


def sft_sample_stream(
    visual_demos: list[tuple[str, str, str]],
    text_demos: list[tuple[None, str, str]],
    text_only_fraction: float,
    tok: ByteTokenizer,
    cfg: ModelConfig,
    seed: int,
) -> Iterator[PackedSample]:
    """Joint-SFT mix: text-only demos at the requested fraction, seeded."""
    if not visual_demos and not text_demos:
        raise VlmforgeError("no SFT demos provided")
    rng = substream(seed, "trainer/sft-mix")
    cursors = [0, 0]
    while True:
        use_text = bool(text_demos) and (
            not visual_demos or rng.random() < text_only_fraction
        )
        pool = text_demos if use_text else visual_demos
        idx = cursors[int(use_text)] % len(pool)
        cursors[int(use_text)] += 1
        yield pack_sft(pool[idx], tok, cfg.slot_length)


# ---------------------------------------------------------------------------
# named recipe presets (train-vs-freeze LLM x projector variant)

ALL_TRAINABLE = FreezePolicy.of("projector", "embed", "llm", "head")
PROJECTOR_ONLY = FreezePolicy.of("projector")

PRESETS = {
    # (pretrain policy, sft policy, projector variant)
    "a": (PROJECTOR_ONLY, PROJECTOR_ONLY, TransformerBlockProjector()),
    "b": (PROJECTOR_ONLY, ALL_TRAINABLE, TransformerBlockProjector()),
    "c": (ALL_TRAINABLE, ALL_TRAINABLE, TransformerBlockProjector()),
    "d": (ALL_TRAINABLE, ALL_TRAINABLE, Linear()),
}


# per stage: init-projector, pretrain, sft
PRESET_STEPS = (50, 200, 50)
PRESET_LRS = (1e-2, 3e-3, 1e-3)
PRESET_TEXT_ONLY_FRACTION = 0.25  # sft share of text-only demos
CAPTION_PROMPT = "Describe the image: "  # prompt of the visual SFT demos


def preset_plan(
    name: str,
    steps: tuple[int, int, int] = PRESET_STEPS,
    batch_size: int = StageSpec.batch_size,
) -> tuple[StagePlan, object]:
    """Build the stage plan for one of the four named configurations.

    Step counts and learning rates are desk-scale defaults, not published
    values. Returns (plan, projector variant).
    """
    if name not in PRESETS:
        raise VlmforgeError(f"unknown preset {name!r} (expected one of a, b, c, d)")
    pretrain_policy, sft_policy, projector = PRESETS[name]
    plan = StagePlan(
        [
            StageSpec("init-projector", PROJECTOR_ONLY, steps[0], PRESET_LRS[0],
                      batch_size=batch_size),
            StageSpec("pretrain", pretrain_policy, steps[1], PRESET_LRS[1],
                      batch_size=batch_size),
            StageSpec(
                "sft",
                sft_policy,
                steps[2],
                PRESET_LRS[2],
                batch_size=batch_size,
                text_only_fraction=PRESET_TEXT_ONLY_FRACTION,
            ),
        ]
    )
    return plan, projector


@dataclass
class RecipeCorpora:
    """Materialized inputs for a full recipe run."""

    interleaved: list[corpus_mod.InterleavedDocument]
    pairs: list[corpus_mod.PairSample]


def stage_batches(
    stage: StageSpec,
    corpora: RecipeCorpora,
    tok: ByteTokenizer,
    cfg: ModelConfig,
    max_len: int,
    seed: int,
) -> Iterator[list[PackedSample]]:
    """Deterministic batch stream for one stage of the recipe: caption pairs for
    init-projector, an equal blend of whichever corpora are present for pretrain,
    and for sft two demos per caption pair: a visual one (describe the image)
    and a text-only one (repeat the caption)."""
    if stage.name == "sft":
        visual = [(p.image_id, CAPTION_PROMPT, p.caption) for p in corpora.pairs]
        text = [(None, "Repeat after me: " + p.caption + " -> ", p.caption)
                for p in corpora.pairs]
        stream = sft_sample_stream(visual, text, stage.text_only_fraction, tok, cfg, seed)
        return batched(stream, stage.batch_size)
    pair_docs = [corpus_mod.pair_as_document(p) for p in corpora.pairs]
    if stage.name == "init-projector":
        sources, wanted, key = [pair_docs], "caption pairs", "stage0"
    else:
        sources, wanted, key = [corpora.interleaved, pair_docs], "documents", "pretrain"
    sources = [docs for docs in sources if docs]
    if not sources:
        raise VlmforgeError(f"stage {stage.name!r} trains on {wanted}, and none were given")
    blend = [(docs, 1.0 / len(sources)) for docs in sources]
    sampler = corpus_mod.BlendSampler(blend, child_seed(seed, key))
    return batched(document_sample_stream(iter(sampler), tok, cfg, max_len), stage.batch_size)


def run_recipe(
    plan: StagePlan,
    model: Model,
    corpora: RecipeCorpora,
    seed: int,
    on_stage_end: Callable[[str, Model], None] | None = None,
) -> RunLog:
    """Execute the staged recipe sequentially; each stage resumes the last.

    Documents are packed into samples of at most the model's max_positions.
    """
    tok = ByteTokenizer()
    log = RunLog()
    for stage in plan.stages:
        batches = stage_batches(stage, corpora, tok, model.cfg, model.cfg.max_positions, seed)
        run_stage(stage, model, batches, log=log)
        if on_stage_end is not None:
            on_stage_end(stage.name, model)
    return log


def compare_loss_curves(log_a: RunLog, log_b: RunLog, final_window: int = 100) -> dict:
    """Mean and final-window loss gap (a - b) over aligned steps; the window
    is the last `final_window` of them, at least 1."""
    if final_window < 1:
        raise VlmforgeError(f"the final window must be at least 1 step, not {final_window}")
    a = {(r.stage, r.step): r.loss for r in log_a.records}
    b = {(r.stage, r.step): r.loss for r in log_b.records}
    shared = sorted(set(a) & set(b))
    if not shared:
        raise VlmforgeError("loss curves share no (stage, step) points")
    gaps = [a[key] - b[key] for key in shared]
    window = gaps[-final_window:]
    return {
        "aligned_steps": len(shared),
        "mean_gap": float(np.mean(gaps)),
        "final_window_gap": float(np.mean(window)),
        "final_window": len(window),
    }

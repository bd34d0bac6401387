"""Inputs, timed loops and metrics of the three benchmark workloads.

Every workload runs in one process on the acceptance `toy_cfg`:

1. set-up: fixture generation, corpus parsing, model construction, task and
   probe building;
2. the timed closed loop, in whole rounds until the run length is spent.
   A round is one set-up whose result is dropped, one main round
   (ROUND_STEPS optimizer steps on the pretrain workloads, every 4-shot
   candidate-rank item once on `kshot-eval`), one greedy-generation pass
   over the 0-shot prompts and one alignment profile per probe sample,
   the last two on a copy of the seeded-init model;
3. one checkpoint save and load;
4. the output checks, untimed.

Every round repeats the same operations on the same inputs: the pretrain
stream restarts from its seed each round while the model keeps training.
The host's cores slow down by up to 1.8x when neighbouring tenants are
busy, in bursts of seconds and in phases longer than a run. So an
operation's time is the fastest of its repeats (set-up included), medians
and tails are taken over the distinct operations of a round, and every
reported time is scaled to the reference core speed: multiplied by
REFERENCE_KERNEL_S over the run's fastest `kernel()` call, a fixed numpy
workload timed in every round.

With tracing on, every other round is traced; the difference between the
medians of traced and untraced rounds is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import itertools
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from vlmforge import corpus, diagnostics, evaluation, fixtures, packing, trainer
from vlmforge.model import Model, ModelConfig, TransformerBlockProjector
from vlmforge.packing import ByteTokenizer

import checks
from tracer import Tracer

TOK = ByteTokenizer()

WORKLOADS = ("pretrain", "pretrain-frozen-llm", "kshot-eval")
POLICIES = {"pretrain": trainer.ALL_TRAINABLE, "pretrain-frozen-llm": trainer.PROJECTOR_ONLY}

# pretrain: the preset learning rate and batch; a schedule far longer than any
# run keeps the rate near its peak, so every step does the same kind of work
BATCH = 8
LR = 3e-3
WARMUP = 10
SCHEDULE_STEPS = 1_000_000
ROUND_STEPS = 50
LOSS_WINDOW = 10
# kshot-eval
K_SHOT = 4
N_ITEMS = 64  # one round scores every item once
N_DEMOS = 64
COLORS = ("red", "blue", "green", "gold")
# probes, on every workload
GEN_PROMPTS = 8
MAX_NEW = 32  # what evaluation.score_item asks of Model.generate
ALIGN_SAMPLES = 32
FD_ENTRIES = 8  # finite-difference entries per trainable group
FD_EPS = 1e-5
FD_MIN_GRAD = 1e-5
# speed reference: fastest `kernel()` call on the reference host (README)
REFERENCE_KERNEL_S = 5e-4
KERNEL_CALLS = 5  # per round


def toy_cfg(seed: int) -> ModelConfig:
    """The acceptance suite's toy configuration."""
    return ModelConfig(resolution=16, patch=8, vision_dim=16, model_dim=32, ffn_dim=64,
                       vision_layers=1, llm_layers=2, heads=2,
                       projector=TransformerBlockProjector(), max_positions=96, seed=seed)


def fixture_spec(seed: int) -> fixtures.FixtureSpec:
    # 2 images x 28 text bytes per document -> 66-position samples; default
    # 22/23-byte captions -> 28/29-position pairs
    return fixtures.FixtureSpec(n_docs=1000, images_per_doc=2, tokens_per_image=28,
                                n_pairs=2000, seed=seed)


@dataclasses.dataclass
class Inputs:
    seed: int
    cfg: ModelConfig
    model: Model
    corpora: trainer.RecipeCorpora
    items: list[evaluation.EvalItem]
    demo_pool: list[evaluation.EvalItem]
    pixels: dict[str, np.ndarray]
    prompts: list[packing.PackedSample]
    probe: list[packing.PackedSample]


def _color_items(rng, prefix: str, seed: int, n: int) -> list[evaluation.EvalItem]:
    items = []
    for i in range(n):
        answer, distractor = (COLORS[j] for j in rng.choice(len(COLORS), size=2, replace=False))
        items.append(evaluation.EvalItem(f"{prefix}-{i:03d}", "color: ", answer,
                                         image_id=f"kshot-{seed}-{prefix}-{i:03d}",
                                         candidates=[answer, distractor]))
    return items


def setup(seed: int, work_dir: Path, tracer: Tracer) -> Inputs:
    cfg = toy_cfg(seed)
    with tracer.span("fixtures.fixture_gen"):
        paths = fixtures.fixture_gen(fixture_spec(seed), work_dir)
    with tracer.span("corpus.parse_corpus"):
        interleaved = list(corpus.parse_corpus(paths["interleaved"], "interleaved-jsonl",
                                               strict=True))
        pairs = list(corpus.parse_corpus(paths["pairs"], "pairs-jsonl", strict=True))
    with tracer.span("model.init"):
        model = Model(cfg)
    with tracer.span("evaluation.task"):
        rng = np.random.default_rng(seed)
        items = _color_items(rng, "item", seed, N_ITEMS)
        demo_pool = _color_items(rng, "demo", seed, N_DEMOS)
        task = evaluation.EvalTask("colors", items, demo_pool, "candidate-rank")
        task.validate()
        pixels = {it.image_id: packing.pixels_for(it.image_id, cfg.resolution)
                  for it in items + demo_pool}
        prompts = [evaluation.build_kshot(it, 0, demo_pool, seed, TOK, cfg.slot_length,
                                          cfg.max_positions)
                   for it in items[:GEN_PROMPTS]]
    with tracer.span("diagnostics.probe"):
        probe = [s for doc in interleaved[:ALIGN_SAMPLES]
                 for s in packing.pack_document(doc, TOK, cfg.slot_length, cfg.max_positions)]
        probe = probe[:ALIGN_SAMPLES]
        pixels.update(packing.bind_pixels(probe, cfg.resolution))
    return Inputs(seed, cfg, model, trainer.RecipeCorpora(interleaved, pairs), items,
                  demo_pool, pixels, prompts, probe)


# ---------------------------------------------------------------------------
# tracing hooks: spans around the public calls of each layer


def instrument(tracer: Tracer, models, trainable=frozenset(), opt=None) -> None:
    def forward_positions(_result, args):
        tracer.count("model.forward.positions", len(args[0]))

    def frozen_bytes(result, _args):
        grads = result[1]
        tracer.count("model.frozen_grad_bytes",
                     sum(g.nbytes for n, g in grads.items() if Model.group_of(n) not in trainable))

    for model in models:
        tracer.wrap(model, "forward", "model.forward", after=forward_positions)
        tracer.wrap(model, "loss_and_grads", "model.loss_and_grads", after=frozen_bytes)
        for attr in ("encode_image", "project", "sequence_loss", "generate", "save_checkpoint"):
            tracer.wrap(model, attr, "model." + attr)
    tracer.wrap(trainer, "bind_pixels", "packing.bind_pixels")
    tracer.wrap(diagnostics, "chamfer_cosine", "diagnostics.chamfer_cosine")
    if opt is not None:
        tracer.wrap(opt, "step", "trainer.adamw_step")


# ---------------------------------------------------------------------------
# computed FLOPs (matmuls only; the decoder computes full L x L scores)


def _block_flops(L: int, dim: int, ffn: int) -> int:
    return 8 * L * dim * dim + 4 * L * L * dim + 4 * L * dim * ffn


def forward_flops(cfg: ModelConfig, length: int, images: int) -> int:
    T = cfg.encoder_tokens
    vision = 2 * T * cfg.patch * cfg.patch * 3 * cfg.vision_dim
    vision += cfg.vision_layers * _block_flops(T, cfg.vision_dim, cfg.ffn_dim)
    projector = _block_flops(T, cfg.vision_dim, cfg.ffn_dim) + 2 * T * cfg.vision_dim * cfg.model_dim
    decoder = cfg.llm_layers * _block_flops(length, cfg.model_dim, cfg.ffn_dim)
    decoder += 2 * length * cfg.model_dim * cfg.vocab_size
    return images * (vision + projector) + decoder


# ---------------------------------------------------------------------------
# the timed loops


class Timings:
    """Durations of the operations of each round, split by whether tracing was on."""

    def __init__(self):
        self.rounds: dict[bool, list[list[float]]] = {False: [], True: []}

    def start_round(self, traced: bool) -> None:
        self.rounds[traced].append([])

    def add(self, seconds: float, traced: bool) -> None:
        self.rounds[traced][-1].append(seconds)

    def fastest(self, traced: bool) -> list[float]:
        """Each operation's fastest repeat, in round order."""
        return [min(repeats) for repeats in zip(*self.rounds[traced])]

    @property
    def count(self) -> int:
        return sum(len(r) for rounds in self.rounds.values() for r in rounds)


class TimedBatches:
    """Batch stream that stamps each request run_stage makes.

    One optimizer step is the time between successive requests (batch
    fetch, pixel binding, loss_and_grads, AdamW, log); the last step of a
    round ends when run_stage returns.
    """

    def __init__(self, batches, tracer: Tracer):
        self.batches = batches
        self.tracer = tracer
        self.marks: list[float] = []
        self.seen: list[list[packing.PackedSample]] = []

    def __iter__(self):
        return self

    def __next__(self):
        self.marks.append(time.perf_counter())
        with self.tracer.span("trainer.next_batch"):
            batch = next(self.batches)
        self.seen.append(batch)
        return batch


class TrainRounds:
    """ROUND_STEPS optimizer steps per round; the model and AdamW carry over."""

    def __init__(self, inp: Inputs, policy, tracer: Tracer):
        self.inp, self.tracer = inp, tracer
        self.stage = trainer.StageSpec("pretrain", policy, SCHEDULE_STEPS, LR, warmup=WARMUP,
                                       batch_size=BATCH)
        self.opt = trainer.AdamW(inp.model, policy, LR)
        self.ops = Timings()
        self.step = 0
        self.losses: list[float] = []
        self.token_pairs: list[tuple[int, int]] = []
        self.first_round: list[list[packing.PackedSample]] = []
        self.before = self._checksums()

    def _checksums(self) -> dict[str, str]:
        return {g: self.inp.model.group_checksum(g) for g in self.inp.model.group_names()}

    def round(self, traced: bool) -> None:
        inp = self.inp
        stream = TimedBatches(trainer.stage_batches(self.stage, inp.corpora, TOK, inp.cfg,
                                                    inp.cfg.max_positions, inp.seed),
                              self.tracer)
        # a fresh log per round: run_stage's resume path mis-sums the
        # cumulative tokens column of a non-empty log (see CHANGES.md)
        log = trainer.RunLog()
        trainer.run_stage(self.stage, inp.model, stream, log=log, start_step=self.step,
                          stop_step=self.step + ROUND_STEPS, optimizer=self.opt)
        marks = stream.marks + [time.perf_counter()]
        self.ops.start_round(traced)
        for begin, end in zip(marks, marks[1:]):
            self.ops.add(end - begin, traced)
        self.step += ROUND_STEPS
        self.losses += log.losses()
        counted = sum(len(s) for batch in stream.seen for s in batch)
        self.token_pairs.append((counted, log.records[-1].tokens))
        if not self.first_round:
            self.first_round = stream.seen

    @property
    def positions_per_round(self) -> int:
        return sum(len(s) for batch in self.first_round for s in batch)

    @property
    def flops_per_round(self) -> int:
        return 3 * sum(forward_flops(self.inp.cfg, len(s), len(s.image_slots))
                       for batch in self.first_round for s in batch)

    def observe(self, obs: dict) -> None:
        obs.update(before=self.before, after=self._checksums(), losses=self.losses,
                   token_pairs=self.token_pairs, first_batch=self.first_round[0])


class KshotRounds:
    """4-shot candidate-rank items; a round scores every item once."""

    def __init__(self, inp: Inputs, tracer: Tracer):
        self.inp, self.tracer = inp, tracer
        self.ops = Timings()
        self.rounds: list[list[str]] = []
        self.records = []

    def round(self, traced: bool) -> None:
        inp, cfg, span = self.inp, self.inp.cfg, self.tracer.span
        self.ops.start_round(traced)
        predictions = []
        for item in inp.items:
            t0 = time.perf_counter()
            with span("evaluation.build_kshot"):
                packed = evaluation.build_kshot(item, K_SHOT, inp.demo_pool, inp.seed, TOK,
                                                cfg.slot_length, cfg.max_positions)
            with span("evaluation.score_item"):
                prediction, _ = evaluation.score_item(inp.model, packed, inp.pixels,
                                                      "candidate-rank", item, TOK)
            self.ops.add(time.perf_counter() - t0, traced)
            predictions.append(prediction)
            if not self.rounds:
                self.records.append((item, packed, prediction))
        self.rounds.append(predictions)

    def _scored(self):
        """(positions, images) of every candidate sequence a round scores."""
        return [(len(packed) + len(TOK.encode(cand)), len(packed.image_slots))
                for item, packed, _ in self.records for cand in item.candidates]

    @property
    def positions_per_round(self) -> int:
        return sum(length for length, _ in self._scored())

    @property
    def flops_per_round(self) -> int:
        return sum(forward_flops(self.inp.cfg, length, images) for length, images in self._scored())

    def observe(self, obs: dict) -> None:
        obs.update(rank_records=self.records, rank_rounds=self.rounds)


class Probes:
    """Greedy generation and alignment passes on a copy of the seeded-init model."""

    def __init__(self, inp: Inputs, tracer: Tracer):
        self.inp, self.tracer = inp, tracer
        self.model = Model(inp.cfg, {n: a.copy() for n, a in inp.model.params.items()})
        self.gen = Timings()  # seconds per generated token, one entry per prompt
        self.align = Timings()
        self.generated: list[list[list[int]]] = []
        self.profiles: list[list[diagnostics.AlignmentProfile]] = []  # per pass, per sample

    def generate(self, traced: bool) -> None:
        self.gen.start_round(traced)
        outputs = []
        for prompt in self.inp.prompts:
            t0 = time.perf_counter()
            outputs.append(self.model.generate(prompt, self.inp.pixels, max_new=MAX_NEW))
            self.gen.add((time.perf_counter() - t0) / max(1, len(outputs[-1])), traced)
        self.generated.append(outputs)

    def alignment(self, traced: bool) -> None:
        self.align.start_round(traced)
        profiles = []
        for sample in self.inp.probe:
            t0 = time.perf_counter()
            with self.tracer.span("diagnostics.alignment_profile"):
                profiles.append(diagnostics.alignment_profile(self.model, [sample],
                                                              self.inp.pixels))
            self.align.add(time.perf_counter() - t0, traced)
        self.profiles.append(profiles)

    @property
    def tokens_per_pass(self) -> int:
        return sum(len(out) for out in self.generated[0])

    def observe(self, obs: dict) -> None:
        obs.update(probe_model=self.model, generated=self.generated, profiles=self.profiles)


def checkpoint_round_trip(inp: Inputs, work_dir: Path, tracer: Tracer, obs: dict) -> int:
    tracer.phase = "checkpoint"
    instrument(tracer, [inp.model])
    path = work_dir / "final.ckpt"
    inp.model.save_checkpoint(path)
    with tracer.span("model.load_checkpoint"):
        reloaded = Model.load_checkpoint(path, expect_cfg=inp.cfg)
    tracer.restore()
    obs.update(saved={n: a.copy() for n, a in inp.model.params.items()},
               reloaded=reloaded.params)
    return path.stat().st_size


def gradient_entries(inp: Inputs, policy, sample) -> list:
    """Float64 central differences of loss_and_grads at the seeded init."""
    model = Model(inp.cfg)
    pixels = packing.bind_pixels([sample], inp.cfg.resolution)
    _, grads = model.loss_and_grads(sample, pixels)
    rng = np.random.default_rng(inp.seed)
    entries = []
    for group in sorted(policy.trainable):
        # entries a central difference resolves well below the tolerance
        candidates = [(name, idx) for name in sorted(grads) if Model.group_of(name) == group
                      for idx in zip(*np.nonzero(np.abs(grads[name]) >= FD_MIN_GRAD))]
        for pick in rng.choice(len(candidates), size=FD_ENTRIES, replace=False):
            name, idx = candidates[pick]
            arr = model.params[name]
            orig = arr[idx]
            arr[idx] = orig + FD_EPS
            plus, _ = model.loss_and_grads(sample, pixels)
            arr[idx] = orig - FD_EPS
            minus, _ = model.loss_and_grads(sample, pixels)
            arr[idx] = orig
            entries.append((name, tuple(int(i) for i in idx), (plus - minus) / (2 * FD_EPS),
                            float(grads[name][idx])))
    return entries


# ---------------------------------------------------------------------------
# one run


def verify(workload: str, inp: Inputs, obs: dict) -> dict[str, list[str]]:
    """Every check of the workload, by name; run after the tracing hooks are gone."""
    model = obs["probe_model"]
    results = {
        "generation": checks.generations(model, [(p, out) for p, out in
                                                 zip(inp.prompts, obs["generated"][0])],
                                         inp.pixels, MAX_NEW),
        "generation_repeats": checks.repeats("generation", obs["generated"][0],
                                             obs["generated"][1:]),
        "alignment": checks.alignment(model, inp.probe, inp.pixels, obs["profiles"][0]),
        "alignment_repeats": checks.repeats(
            "alignment", [p.per_layer for p in obs["profiles"][0]],
            [[p.per_layer for p in profiles] for profiles in obs["profiles"][1:]]),
        "checkpoint": checks.checkpoint(obs["saved"], obs["reloaded"]),
    }
    if workload == "kshot-eval":
        results["ranking"] = checks.rankings(inp.model, obs["rank_records"], inp.pixels)
        results["ranking_repeats"] = checks.repeats("ranking", obs["rank_rounds"][0],
                                                    obs["rank_rounds"][1:])
        return results
    losses = obs["losses"]
    results.update(
        finite_losses=checks.finite_losses(losses),
        first_loss=checks.first_loss(losses, inp.cfg.vocab_size),
        gradient=checks.gradients(obs["gradients"]),
        trained_positions=checks.trained_positions(obs["token_pairs"]),
        freeze=checks.freeze(obs["before"], obs["after"], POLICIES[workload].trainable),
    )
    if workload == "pretrain":
        results["loss_decreases"] = checks.loss_decreases(losses, LOSS_WINDOW)
    return results


_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_X = _KERNEL_RNG.normal(size=(66, 32))
_KERNEL_W = {name: _KERNEL_RNG.normal(size=shape) * 0.1 for name, shape in
             (("q", (32, 32)), ("k", (32, 32)), ("v", (32, 32)), ("o", (32, 32)),
              ("w1", (32, 64)), ("w2", (64, 32)))}


def kernel() -> float:
    """Seconds for four pre-norm attention blocks on a (66, 32) sequence.

    The same mix of small matmuls and interpreter overhead as the model's
    own blocks, but code of the benchmark's, so no change to the program
    moves it; it only measures how fast the core is running right now.
    """
    t0 = time.perf_counter()
    x = _KERNEL_X
    for _ in range(4):
        h = (x - x.mean(axis=-1, keepdims=True)) / (x.std(axis=-1, keepdims=True) + 1e-5)
        q, k, v = (h @ _KERNEL_W[n] for n in "qkv")
        qh, kh, vh = (a.reshape(66, 2, 16).transpose(1, 0, 2) for a in (q, k, v))
        scores = qh @ kh.transpose(0, 2, 1) / 4.0
        scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
        heads = (scores / scores.sum(axis=-1, keepdims=True)) @ vh
        x = x + heads.transpose(1, 0, 2).reshape(66, 32) @ _KERNEL_W["o"]
        x = x + np.tanh(x @ _KERNEL_W["w1"]) @ _KERNEL_W["w2"]
    return time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it, and its level."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        raise ValueError(f"{n} operations are too few for a tail")
    return ordered[n - 11], 100.0 * (n - 10) / n


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path):
    """Run one workload; returns (result, observations, inputs, details, tracer)."""
    tracer = Tracer()
    set_ups = Timings()
    set_ups.start_round(False)
    t0 = time.perf_counter()
    inp = setup(seed, work_dir, tracer)
    set_ups.add(time.perf_counter() - t0, False)

    if workload == "kshot-eval":
        main, trainable, opt = KshotRounds(inp, tracer), frozenset(), None
    else:
        main = TrainRounds(inp, POLICIES[workload], tracer)
        trainable, opt = POLICIES[workload].trainable, main.opt
    probes = Probes(inp, tracer)
    kernel_s: list[float] = []
    start = time.perf_counter()
    for index in itertools.count():
        # traced runs trace every other round, so traced and untraced rounds
        # see the same host conditions and differ only by the tracing
        traced = trace and index % 2 == 1
        if traced:
            tracer.enabled = True
            instrument(tracer, [inp.model, probes.model], trainable, opt)
        kernel_s.append(min(kernel() for _ in range(KERNEL_CALLS)))
        tracer.phase = "setup"
        set_ups.start_round(traced)
        t0 = time.perf_counter()
        setup(seed, work_dir, tracer)
        set_ups.add(time.perf_counter() - t0, traced)
        tracer.phase = "main"
        main.round(traced)
        tracer.phase = "generate"
        probes.generate(traced)
        tracer.phase = "align"
        probes.alignment(traced)
        if traced:
            tracer.restore()
            tracer.enabled = False
        if time.perf_counter() - start >= seconds and index >= (1 if trace else 0):
            break
    tracer.enabled = trace
    obs: dict = {}
    ckpt_bytes = checkpoint_round_trip(inp, work_dir, tracer, obs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    main.observe(obs)
    probes.observe(obs)
    if workload != "kshot-eval":
        obs["gradients"] = gradient_entries(inp, POLICIES[workload], obs["first_batch"][0])
    failures = verify(workload, inp, obs)

    fastest = main.ops.fastest(False)
    scale = REFERENCE_KERNEL_S / min(kernel_s)
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds_untraced": len(main.ops.rounds[False]),
        "rounds_traced": len(main.ops.rounds[True]),
        "ops_per_round": len(fastest),
        "generated_tokens_per_pass": probes.tokens_per_pass,
        "speed_scale": scale, "kernel_s_rounds": kernel_s,
        "setup_s_rounds": set_ups.rounds[False],
        "checks": failures,
        "op_s_rounds": main.ops.rounds[False],
        "generate_s_per_token_rounds": probes.gen.rounds[False],
        "align_s_rounds": probes.align.rounds[False],
    }
    if trace:
        metrics = per_layer_metrics(tracer, main, probes, set_ups, ckpt_bytes)
    else:
        op_tail, details["op_tail_percentile"] = tail(fastest)
        metrics = {
            "setup_s": (set_ups.fastest(False)[0] * scale, "s"),
            "op_ms": (statistics.median(fastest) * 1e3 * scale, "ms"),
            "op_ms_tail": (op_tail * 1e3 * scale, "ms"),
            "positions_per_s": (main.positions_per_round / (sum(fastest) * scale), "1/s"),
            "generate_token_ms": (statistics.median(probes.gen.fastest(False)) * 1e3 * scale,
                                  "ms"),
            "align_sample_ms": (statistics.median(probes.align.fastest(False)) * 1e3 * scale,
                                "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    attempted = set_ups.count + main.ops.count + probes.gen.count + probes.align.count
    result = {"correct": not any(failures.values()), "attempted": attempted, "failed": 0,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, obs, inp, details, tracer


def per_layer_metrics(tracer: Tracer, main, probes: Probes, set_ups: Timings,
                      ckpt_bytes: int) -> dict:
    """Layer times of the traced rounds per operation of the phase they serve."""
    n_ops = sum(len(r) for r in main.ops.rounds[True])
    incl, self_t = tracer.totals("main")
    gen_incl, gen_self = tracer.totals("generate")
    align_incl, align_self = tracer.totals("align")
    ck_incl, _ = tracer.totals("checkpoint")
    setup_incl, _ = tracer.totals("setup")
    n_set_ups = len(set_ups.rounds[True])
    tokens = probes.tokens_per_pass * len(probes.gen.rounds[True])
    samples = sum(len(r) for r in probes.align.rounds[True])
    untraced_median = statistics.median(main.ops.fastest(False))
    flops_per_op = main.flops_per_round / len(main.ops.rounds[False][0])

    def per_op(table, name):
        return table.get(name, 0.0) * 1e3 / n_ops

    def calls(phase, name, per):
        return tracer.counter(phase, name) / per

    return {
        "trainer.next_batch_ms": (per_op(incl, "trainer.next_batch"), "ms"),
        "trainer.adamw_step_ms": (per_op(incl, "trainer.adamw_step"), "ms"),
        "packing.bind_pixels_ms": (per_op(incl, "packing.bind_pixels"), "ms"),
        "model.encode_image_ms": (per_op(incl, "model.encode_image"), "ms"),
        "model.encode_image_calls": (calls("main", "model.encode_image.calls", n_ops), "count"),
        "model.project_ms": (per_op(incl, "model.project"), "ms"),
        "model.project_calls": (calls("main", "model.project.calls", n_ops), "count"),
        "model.forward_self_ms": (per_op(self_t, "model.forward"), "ms"),
        "model.loss_and_grads_self_ms": (per_op(self_t, "model.loss_and_grads"), "ms"),
        "model.frozen_grad_bytes": (calls("main", "model.frozen_grad_bytes", n_ops), "B"),
        "model.flops_per_op": (float(flops_per_op), "flop"),
        "model.gflops_per_s": (flops_per_op / untraced_median / 1e9, "GFLOP/s"),
        "model.sequence_loss_self_ms": (per_op(self_t, "model.sequence_loss"), "ms"),
        "evaluation.build_kshot_ms": (per_op(incl, "evaluation.build_kshot"), "ms"),
        "evaluation.score_item_self_ms": (per_op(self_t, "evaluation.score_item"), "ms"),
        "model.generate_self_ms": (gen_self.get("model.generate", 0.0) * 1e3 / tokens, "ms"),
        "model.forward_ms_per_token": (gen_incl.get("model.forward", 0.0) * 1e3 / tokens, "ms"),
        "model.decoder_positions_per_token": (calls("generate", "model.forward.positions",
                                                    tokens), "count"),
        "model.encode_image_calls_per_token": (calls("generate", "model.encode_image.calls",
                                                     tokens), "count"),
        "diagnostics.chamfer_cosine_ms": (align_incl.get("diagnostics.chamfer_cosine", 0.0)
                                          * 1e3 / samples, "ms"),
        "diagnostics.alignment_profile_self_ms": (
            align_self.get("diagnostics.alignment_profile", 0.0) * 1e3 / samples, "ms"),
        "model.save_checkpoint_ms": (ck_incl.get("model.save_checkpoint", 0.0) * 1e3, "ms"),
        "model.load_checkpoint_ms": (ck_incl.get("model.load_checkpoint", 0.0) * 1e3, "ms"),
        "model.checkpoint_bytes": (float(ckpt_bytes), "B"),
        "corpus.parse_corpus_ms": (setup_incl.get("corpus.parse_corpus", 0.0) * 1e3
                                   / n_set_ups, "ms"),
        "fixtures.fixture_gen_ms": (setup_incl.get("fixtures.fixture_gen", 0.0) * 1e3
                                    / n_set_ups, "ms"),
        "trace.overhead_ms_per_op": ((statistics.median(main.ops.fastest(True))
                                      - untraced_median) * 1e3, "ms"),
    }

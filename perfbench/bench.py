"""Workloads, correctness checks and metrics of the mambavla benchmark.

One run sets the stack up (several times, reporting the median set-up time),
then measures three phases that a researcher reproducing the paper waits on,
each as a closed loop with one client -- every input waits for the previous
reply:

  train    align -> cotrain -> manip on fixed-seed rows, a checkpoint after
           each stage; every pass restarts from the same initial weights
  control  simworld.evaluate over fresh seeded episodes with a learned policy
           (multimodal_forward -> predict_pose -> validate -> lift_to_3d)
  reason   image + text history prefill, then greedy decode without EOS

Every run prints every end-to-end metric, so every workload runs all three
phases: the workload's own phase fills the run's time, and fixed-size probes
of the two other phases are spread evenly through it.  Only the inputs come
from the seed; the program sees nothing else of the benchmark.

Times are wall-clock times of the operations, with nothing in the timed
interval but the operation, scaled to a quiet host by a gauge read around
each operation: the host's speed drifts by up to ~1.7x on small shared
virtual machines (see README.md, "Noise").
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from mambavla import datasets, diffcore, fileio, mamba, policy, simworld, trainer, vispipe
from mambavla.config import ModelConfig, TrainConfig

from tracer import Tracer

CLOCK = time.perf_counter

WORKLOADS = {
    "train_pipeline": "train",
    "closed_loop": "control",
    "reason_decode": "reason",
}
PHASES = ("train", "control", "reason")
TRACED_MODULES = (diffcore, mamba, vispipe, policy, trainer, simworld, datasets, fileio)

# Training rows and model weights come from this fixed seed, so the final
# losses are a pure function of the program's arithmetic: a change that leaves
# the arithmetic alone reproduces them to rounding.  The run seed orders the
# batches.
DATA_SEED = 2406
STAGE_ROWS = {"align": 4, "cotrain": 4, "manip": 8}    # one batch = all rows
STAGE_STEPS = {"align": 2, "cotrain": 2, "manip": 4}
FINETUNE_ROWS, FINETUNE_STEPS = 8, 4                   # closed-loop head

CHUNK_EPISODES = 12          # one evaluate call; a multiple of the 3 archetypes
MIN_CHUNKS = 9               # 108 decisions, so p90 has >= 10 samples beyond it

# Text-history lengths: the octave midpoints of log-uniform 16..1024.  A fixed
# grid keeps the median request the same in every run; the seed draws the
# text, the image and the order.
HISTORY_LENGTHS = (23, 45, 91, 181, 362, 724)
DECODE_TOKENS = 32           # decode steps per request, no EOS stop
CHECK_DECODE_TOKENS = 8
DECODE_BUCKETS = ((64, "p16_64"), (256, "p64_256"), (1025, "p256_1024"))

SETUP_REPEATS = 3

PRIMITIVES = tuple(f"diffcore.{fn.__name__}" for fn in diffcore.PRIMITIVES.values())
CALL_KINDS = {"slice": "diffcore.tslice", "mul": "diffcore.mul", "add": "diffcore.add",
              "matmul": "diffcore.matmul", "concat": "diffcore.concat",
              "silu": "diffcore.silu", "exp": "diffcore.exp"}

# Exceptions a layer call raises on bad data or non-finite arithmetic
# (ShapeError and FormatError are ValueErrors, NonFiniteError is an
# ArithmeticError, spawn_object gives up with RuntimeError).
LAYER_ERRORS = (ArithmeticError, ValueError, RuntimeError)


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def bucket_of(length: int) -> str:
    for upper, name in DECODE_BUCKETS:
        if length < upper:
            return name
    raise ValueError(f"history length {length} outside 16..1024")


@dataclass
class Request:
    image: np.ndarray
    prefix: list[int]

    @property
    def bucket(self) -> str:
        return bucket_of(len(self.prefix))


class HostGauge:
    """The host's current speed, read from a fixed run of small numpy work.

    The host's speed for one core drifts by up to ~1.7x over seconds to
    minutes (see README.md, "Noise"), and it slows the thread's CPU time as
    much as its wall time.  A reading is the fastest of three repetitions of
    the gauge's work, so a lone interrupt does not count as a slow host.  The
    gauge is the benchmark's own code: a change to the program cannot move it.

    Between `sampling()`'s entry and exit the gauge is also read every
    PERIOD_S from a timer signal, which Python runs between two bytecodes of
    whatever is executing, so readings fall inside long operations too --
    but not while `hold` is set, inside a short operation whose own time
    would then carry the reading's cache misses.
    """

    REFERENCE_S = 125e-6       # one reading on a quiet host (2-vCPU x86 VM)
    REPEATS, ITERATIONS = 3, 20
    PERIOD_S = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(256).astype(np.float32)
        self.w = rng.standard_normal((256, 256)).astype(np.float32)
        self.readings: list[float] = []
        self.spent = 0.0       # seconds spent reading the gauge
        self.busy = self.hold = False

    def read(self) -> None:
        if self.busy:          # the timer fired during a reading
            return
        self.busy = True
        begin, best = CLOCK(), math.inf
        for _ in range(self.REPEATS):
            start, x = CLOCK(), self.x
            for _ in range(self.ITERATIONS):
                x = np.tanh(self.w @ x * 0.01 + self.x)
            best = min(best, CLOCK() - start)
        self.readings.append(best)
        self.spent += CLOCK() - begin
        self.busy = False

    @contextmanager
    def sampling(self):
        def tick(signum, frame):
            if not self.hold:
                self.read()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


HOST = HostGauge()


@contextmanager
def timed(sink: list, sampled: bool = True):
    """Append the body's time in seconds, scaled to the quiet host, to `sink`.

    The gauge is read before and after the body, and within it unless
    `sampled` is false (for bodies of a few ms).  The body's wall time, less
    the time the readings within it took, is scaled by the mean over those
    readings of the reference over the reading: each reading stands for the
    host's speed over an equal share of the interval.
    """
    first = len(HOST.readings)
    HOST.read()
    hold, HOST.hold = HOST.hold, not sampled
    spent, start = HOST.spent, CLOCK()
    try:
        yield
    finally:
        HOST.hold = hold
    wall = CLOCK() - start - (HOST.spent - spent)
    HOST.read()
    speed = statistics.fmean(HostGauge.REFERENCE_S / g for g in HOST.readings[first:])
    sink.append(wall * speed)


@dataclass
class LayerCounters:
    """Counts taken by tracer hooks, which need a call's arguments or result."""
    model: trainer.VlaModel | None = None      # whose gradients are attributed
    frozen_bytes: dict[str, list] = field(
        default_factory=lambda: {s: [0, 0] for s in trainer.STAGES})
    rmck_bytes: list[int] = field(default_factory=list)
    rows_made: dict[str, int] = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    workdir: str
    tracer: Tracer | None
    cfg: ModelConfig
    train_cfg: TrainConfig
    tok: mamba.WordTokenizer
    model: trainer.VlaModel
    initial: dict[str, np.ndarray]
    stage_rows: dict[str, list]
    policy_model: trainer.VlaModel
    episode_base: int
    images: list[np.ndarray]
    corpus: list[list[int]]
    counters: LayerCounters
    attempted: int = 0
    failed: int = 0
    # train: seconds per stage run
    stage_time: dict[str, list] = field(default_factory=lambda: {s: [] for s in trainer.STAGES})
    step_ms: dict[str, list] = field(default_factory=lambda: {s: [] for s in trainer.STAGES})
    losses: list[dict] = field(default_factory=list)
    # control: seconds per decision and per evaluate chunk
    control_time: list[float] = field(default_factory=list)
    decisions: list[bool] = field(default_factory=list)   # pose valid?
    chunk_time: list[float] = field(default_factory=list)
    successes: int = 0
    episodes: int = 0
    # reason: seconds per prefill (with its token count), grouped by round of
    # history lengths, and per decode step
    ttft_time: dict[int, list[float]] = field(default_factory=dict)
    prefill_tokens: list[int] = field(default_factory=list)
    tpot_time: list[float] = field(default_factory=list)
    decode_tokens: dict[str, int] = field(default_factory=dict)

    def phase(self, label: str):
        return self.tracer.in_phase(label) if self.tracer is not None else nullcontext()


def _fail_op(ctx: Context, what: str) -> None:
    ctx.failed += 1
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


# ---------------------------------------------------------------------------
# set-up


def setup(seed: int, workdir: str, counters: LayerCounters) -> Context:
    """Build everything a run needs, including one warm-up of each phase."""
    cfg = ModelConfig()
    tok = mamba.WordTokenizer.build(datasets.corpus_texts(), max_vocab=cfg.vocab_size)
    model = trainer.VlaModel(cfg, seed=DATA_SEED)
    initial = {name: p.data.copy() for name, p in model.named_params()}
    manip_rows = datasets.episode_rows(datasets.make_manip_samples(
        STAGE_ROWS["manip"], DATA_SEED, successful_only=True))
    stage_rows = {
        "align": datasets.make_caption_samples(STAGE_ROWS["align"], DATA_SEED),
        "cotrain": datasets.make_instruct_samples(STAGE_ROWS["cotrain"], DATA_SEED),
        "manip": manip_rows,
    }

    # the closed-loop policy: a short head fine-tune on the fixed-seed
    # backbone, saved and reloaded the way a user deploys it
    tuned = trainer.VlaModel(cfg, seed=DATA_SEED)
    trainer.run_stage(tuned, "manip", manip_rows[:FINETUNE_ROWS], FINETUNE_STEPS,
                      TrainConfig().manip,
                      dataclasses.replace(TrainConfig(), batch_size=FINETUNE_ROWS),
                      tok, seed=DATA_SEED)
    ckpt = os.path.join(workdir, "policy.rmck")
    trainer.save_checkpoint(tuned, ckpt)
    policy_model = trainer.load_checkpoint(ckpt)

    rng = np.random.default_rng(seed)
    images = [simworld.render(simworld.spawn_object(int(s)))[0].astype(np.float32)
              for s in rng.integers(10**6, 10**9, size=len(HISTORY_LENGTHS))]
    corpus = [tok.encode(text) for text in datasets.corpus_texts()]
    ctx = Context(seed=seed, workdir=workdir, tracer=None, cfg=cfg,
                  train_cfg=TrainConfig(), tok=tok, model=model, initial=initial,
                  stage_rows=stage_rows, policy_model=policy_model,
                  episode_base=int(rng.integers(10**6, 10**9)),
                  images=images, corpus=corpus, counters=counters)
    counters.model = model

    # warm-up: one training step, one decision, one short request
    trainer.run_stage(model, "align", stage_rows["align"], 1, ctx.train_cfg.align,
                      _stage_cfg(ctx, "align"), tok, seed=seed)
    _restore(ctx)
    simworld.evaluate(_make_policy(ctx, [], []), 1, ctx.episode_base - 1)
    _decode(ctx, request(ctx, -1, 0), 2)
    return ctx


def _stage_cfg(ctx: Context, stage: str) -> TrainConfig:
    return dataclasses.replace(ctx.train_cfg, batch_size=STAGE_ROWS[stage])


def _restore(ctx: Context) -> None:
    # run_stage never clears a leaf's .grad and backward adds into it, so the
    # gradient buffers are part of the state a pass starts from
    for name, p in ctx.model.named_params():
        p.data = ctx.initial[name].copy()
        p.grad = None


# ---------------------------------------------------------------------------
# train phase


def train_pass(ctx: Context) -> None:
    """align -> cotrain -> manip from the initial weights, with checks."""
    _restore(ctx)
    losses = {}
    for stage in trainer.STAGES:
        rows = ctx.stage_rows[stage]
        before = {name: p.data.copy() for name, p in ctx.model.named_params()}
        ctx.attempted += 1
        try:
            with ctx.phase(stage), timed(ctx.stage_time[stage]):
                metrics, _ = trainer.run_stage(
                    ctx.model, stage, rows, STAGE_STEPS[stage],
                    getattr(ctx.train_cfg, stage), _stage_cfg(ctx, stage), ctx.tok,
                    seed=ctx.seed, out_dir=ctx.workdir, steps_limit=STAGE_STEPS[stage])
        except LAYER_ERRORS:
            _fail_op(ctx, f"{stage} stage")
            return
        ctx.step_ms[stage].extend(row["wall_ms"] / len(rows) for row in metrics)
        losses[stage] = [row["loss"] for row in metrics]
        _check_frozen(ctx, stage, before)
    _check_losses(ctx, losses)
    ctx.losses.append(losses)


def _check_frozen(ctx: Context, stage: str, before: dict) -> None:
    for name, p in ctx.model.named_params():
        if not ctx.model.is_trainable(name) and not np.array_equal(p.data, before[name]):
            raise CheckFailed(f"{stage}: frozen parameter {name} changed")


def _check_losses(ctx: Context, losses: dict) -> None:
    for stage, values in losses.items():
        if len(values) != STAGE_STEPS[stage] or not all(map(math.isfinite, values)):
            raise CheckFailed(f"{stage}: expected {STAGE_STEPS[stage]} finite losses, "
                              f"got {values}")
    for stage in ("cotrain", "manip"):
        if not losses[stage][-1] < losses[stage][0]:
            raise CheckFailed(f"{stage}: loss did not fall over its budget: "
                              f"{losses[stage]}")
    if ctx.losses and losses != ctx.losses[0]:
        raise CheckFailed(f"train pass is not deterministic: {losses} "
                          f"vs {ctx.losses[0]}")


# ---------------------------------------------------------------------------
# control phase


def _make_policy(ctx: Context, times: list, decisions: list):
    """Learned policy: observation -> validated, lifted pose.

    A layer error is counted as a failed operation and handed to evaluate as
    a ValueError, which scores the episode as failed; an invalid pose (not
    orthonormal, off-image, or zero depth under the pixel) is a decision, not
    a failure.  Every decision is timed, valid or not.
    """
    model, tok = ctx.policy_model, ctx.tok

    def learned_policy(obs: simworld.Observation) -> policy.EndEffectorPose:
        ctx.attempted += 1
        error = None
        with timed(times, sampled=False):
            try:
                ids = [tok.BOS] + tok.encode(obs.prompt)
                out = vispipe.multimodal_forward(model.encoder, model.projector, model.lm,
                                                 obs.rgb.astype(np.float32), ids)
                pose = policy.predict_pose(model.head, out.hidden)
            except LAYER_ERRORS as err:
                _fail_op(ctx, "policy forward")
                error = ValueError(f"policy error: {err}")
                error.__cause__ = err
            else:
                try:
                    pose.validate()
                    pose.a_pos = policy.lift_to_3d(pose.contact_pixel, obs.depth, obs.cam)
                except ValueError as err:
                    error = err
        decisions.append(error is None)
        if error is not None:
            raise error
        return pose

    return learned_policy


def control_chunk(ctx: Context, index: int) -> None:
    decisions: list[bool] = []
    first = ctx.episode_base + index * CHUNK_EPISODES
    times: list[float] = []
    learned = _make_policy(ctx, times, decisions)
    with ctx.phase("control"), timed(ctx.chunk_time):
        rate, log = simworld.evaluate(learned, CHUNK_EPISODES, first)
    ctx.control_time.extend(times)
    if len(log) != CHUNK_EPISODES or len(decisions) != CHUNK_EPISODES:
        raise CheckFailed(f"control: {len(log)} episodes logged and {len(decisions)} "
                          f"decisions for {CHUNK_EPISODES} episodes")
    for i, (entry, valid) in enumerate(zip(log, decisions)):
        if entry["seed"] != first + i:
            raise CheckFailed(f"control: episode {i} logged seed {entry['seed']}")
        if valid == ("error" in entry):
            raise CheckFailed(f"control: episode {entry['seed']} pose valid={valid} "
                              f"but logged {entry}")
    ctx.decisions.extend(decisions)
    ctx.successes += sum(entry["success"] for entry in log)
    ctx.episodes += CHUNK_EPISODES
    if not math.isclose(rate, sum(e["success"] for e in log) / CHUNK_EPISODES):
        raise CheckFailed(f"control: success rate {rate} disagrees with the log")


# ---------------------------------------------------------------------------
# reason phase


def request(ctx: Context, round_index: int, slot: int) -> Request:
    """Request `slot` of a round: history length HISTORY_LENGTHS[slot]."""
    rng = np.random.default_rng([ctx.seed, round_index + 1, slot])
    length = HISTORY_LENGTHS[slot]
    ids = [ctx.tok.BOS]
    while len(ids) < length:
        ids.extend(ctx.corpus[int(rng.integers(len(ctx.corpus)))])
    image = ctx.images[int(rng.integers(len(ctx.images)))]
    return Request(image=image, prefix=ids[:length])


def _decode(ctx: Context, req: Request, steps: int,
            record_round: int | None = None) -> list[int]:
    """Prefill, then `steps` recurrent decode steps; returns 1 + steps ids.

    With `record_round`, the times go to the ttft/tpot samples and the work to
    the prefill/decode phases of the trace.
    """
    record = record_round is not None
    model = ctx.model
    phase = ctx.phase if record else (lambda label: nullcontext())
    ttft, tpot = [], []
    with phase("prefill"), timed(ttft):
        out = vispipe.multimodal_forward(model.encoder, model.projector, model.lm,
                                         req.image, req.prefix)
        next_id = int(np.argmax(out.text_logits.data[-1]))
    state = out.state
    del out                    # free the prefill graph before decoding
    ids = [next_id]
    with phase("decode." + req.bucket):
        for _ in range(steps):
            with timed(tpot, sampled=False):
                logits, state = model.lm.lm_forward([next_id], state)
                next_id = int(np.argmax(logits.data[-1]))
            ids.append(next_id)
    if record:
        ctx.ttft_time.setdefault(record_round, []).extend(ttft)
        ctx.tpot_time.extend(tpot)
    return ids


def reason_request(ctx: Context, index: int) -> None:
    """Request `index`: every round of len(HISTORY_LENGTHS) requests covers
    each history length once, in an order drawn from the seed."""
    round_index, position = divmod(index, len(HISTORY_LENGTHS))
    order = np.random.default_rng([ctx.seed, round_index + 1]).permutation(len(HISTORY_LENGTHS))
    req = request(ctx, round_index, int(order[position]))
    ctx.attempted += 1
    try:
        _decode(ctx, req, DECODE_TOKENS, record_round=round_index)
    except LAYER_ERRORS:
        _fail_op(ctx, f"request of {len(req.prefix)} tokens")
        return
    ctx.prefill_tokens.append(len(req.prefix) + ctx.cfg.n_patches)
    ctx.decode_tokens[req.bucket] = ctx.decode_tokens.get(req.bucket, 0) + DECODE_TOKENS


def check_decode(ctx: Context) -> None:
    """Recurrent decode == argmax of one full forward == the package's loop."""
    req = request(ctx, 0, 0)
    model = ctx.model
    ids = _decode(ctx, req, CHECK_DECODE_TOKENS)
    full = vispipe.multimodal_forward(model.encoder, model.projector, model.lm,
                                      req.image, req.prefix + ids[:-1])
    n = len(req.prefix)
    full_ids = [int(i) for i in np.argmax(full.text_logits.data[n - 1:], axis=1)]
    package_ids = vispipe.generate_greedy_multimodal(
        model.encoder, model.projector, model.lm, req.image, req.prefix, len(ids))
    if not ids == full_ids == package_ids:
        raise CheckFailed(f"reason: recurrent decode {ids}, full forward {full_ids}, "
                          f"generate_greedy_multimodal {package_ids}")


# ---------------------------------------------------------------------------
# schedule


UNITS = {"train": lambda ctx, i: train_pass(ctx),
         "control": control_chunk,
         "reason": reason_request}
# Units each phase runs at least -- the whole run of a probe phase: 4 passes
# (short ones, so that the probe samples several host states), 108 decisions
# and 384 decode steps (p90 has >= 10 samples beyond it), and 2 rounds of
# history lengths
MIN_UNITS = {"train": 4, "control": MIN_CHUNKS, "reason": 2 * len(HISTORY_LENGTHS)}


def measure(ctx: Context, workload: str, seconds: float) -> float:
    """Fill `seconds` with the workload's own phase, with the probe units of
    the two other phases spread evenly through it.

    The host's speed drifts over seconds, so a probe run in one block would
    sample one host state; spread out, it sees the same mix as the own phase.
    """
    own = WORKLOADS[workload]
    probes = sorted(((i + 0.5) / MIN_UNITS[phase], phase, i)
                    for phase in PHASES if phase != own
                    for i in range(MIN_UNITS[phase]))
    start = CLOCK()
    deadline = start + seconds
    own_done, last_own = 0, 0.0
    while probes or own_done < MIN_UNITS[own] or CLOCK() + last_own / 2 < deadline:
        now = CLOCK()
        if probes and (probes[0][0] * seconds <= now - start or now + last_own / 2 >= deadline):
            _, phase, index = probes.pop(0)
            UNITS[phase](ctx, index)
        else:
            UNITS[own](ctx, own_done)
            own_done += 1
            last_own = CLOCK() - now
    return CLOCK() - start


# ---------------------------------------------------------------------------
# metrics


def _ms(seconds, q: float) -> float:
    return 1e3 * float(np.percentile(np.asarray(seconds, dtype=np.float64), q))


def _round_p50_ms(rounds: list[list[float]]) -> float:
    """Mean over rounds of history lengths of each round's median, in ms.

    Every round holds each length once, so each round's median sits between
    the same two lengths; the median of all prefills would instead jump
    between them with the few requests of a last, incomplete round.
    """
    return statistics.fmean(_ms(times, 50) for times in rounds)


def end_to_end(ctx: Context, setup_s: list[float]) -> dict[str, float]:
    def rate(stage: str) -> float:
        times = ctx.stage_time[stage]
        return STAGE_ROWS[stage] * STAGE_STEPS[stage] * len(times) / sum(times)

    rounds = [t for t in ctx.ttft_time.values() if len(t) == len(HISTORY_LENGTHS)]
    loss = ctx.losses[0]
    return {
        "setup_s": statistics.median(setup_s),
        "align_samples_per_s": rate("align"),
        "cotrain_samples_per_s": rate("cotrain"),
        "manip_samples_per_s": rate("manip"),
        "cotrain_loss_final": loss["cotrain"][-1],
        "manip_loss_final": loss["manip"][-1],
        "control_ms_p50": _ms(ctx.control_time, 50),
        "control_ms_p90": _ms(ctx.control_time, 90),
        "episodes_per_s": CHUNK_EPISODES * len(ctx.chunk_time) / sum(ctx.chunk_time),
        "ttft_ms_p50": _round_p50_ms(rounds),
        "prefill_tokens_per_s": sum(ctx.prefill_tokens)
        / sum(t for times in ctx.ttft_time.values() for t in times),
        "tpot_ms_p50": _ms(ctx.tpot_time, 50),
        "tpot_ms_p90": _ms(ctx.tpot_time, 90),
    }


def install_hooks(tracer: Tracer, counters: LayerCounters) -> None:
    def frozen_grads(args, kwargs, grads):
        stage, model = tracer.phase, counters.model
        if stage not in trainer.STAGES or model is None:
            return
        names = {id(p): name for name, p in model.named_params()}
        acc = counters.frozen_bytes[stage]
        for leaf, grad in grads.items():
            name = names.get(id(leaf))
            if name is not None:
                acc[1] += grad.nbytes
                if not model.is_trainable(name):
                    acc[0] += grad.nbytes

    def rows(kind):
        def count(args, kwargs, result):
            counters.rows_made[kind] = counters.rows_made.get(kind, 0) + len(result)
        return count

    tracer.hooks.update({
        "diffcore.backward": frozen_grads,
        "fileio.write_rmck": lambda args, kwargs, result:
            counters.rmck_bytes.append(os.path.getsize(args[0])),
        "datasets.make_caption_samples": rows("caption"),
        "datasets.make_instruct_samples": rows("instruct"),
        "datasets.make_manip_samples": rows("manip"),
    })


def per_layer(ctx: Context) -> dict[str, float]:
    """Per-layer metrics of a traced run, per unit of work of each phase."""
    tr, counters = ctx.tracer, ctx.counters
    passes = len(ctx.losses)
    units = {stage: STAGE_ROWS[stage] * STAGE_STEPS[stage] * passes for stage in trainer.STAGES}
    units["control"] = ctx.episodes
    units["prefill"] = sum(ctx.prefill_tokens)
    units["decode"] = sum(ctx.decode_tokens.values())
    units.update({f"decode.{b}": n for b, n in ctx.decode_tokens.items()})

    def per(phase, value, scale=1.0):
        return scale * value / units[phase] if units.get(phase) else 0.0

    def ms(span, phase, self_time=False):
        total = tr.self_s(span, phase) if self_time else tr.inclusive_s(span, phase)
        return per(phase, total, 1e3)

    m: dict[str, float] = {}
    for phase in ("align", "cotrain", "manip", "control", "prefill", "decode"):
        m[f"diffcore.nodes.{phase}"] = per(phase, tr.calls(PRIMITIVES, phase))
        m[f"diffcore.fwd_self_ms.{phase}"] = ms(PRIMITIVES, phase, self_time=True)
    for phase in ("align", "prefill", "decode"):
        for kind, span in CALL_KINDS.items():
            m[f"diffcore.calls.{kind}.{phase}"] = per(phase, tr.calls(span, phase))
    measured = ("align", "cotrain", "manip", "control", "prefill", "decode")
    nodes = tr.calls(PRIMITIVES, measured)
    m["diffcore.us_per_node"] = 1e6 * tr.self_s(PRIMITIVES, measured) / nodes if nodes else 0.0
    for stage in trainer.STAGES:
        m[f"diffcore.backward_ms.{stage}"] = ms("diffcore.backward", stage)

    for phase in ("align", "cotrain", "control", "prefill", "decode"):
        block = tr.inclusive_s("mamba.MambaBlock.forward", phase)
        scan = tr.inclusive_s("mamba.selective_scan_tape", phase)
        m[f"mamba.block_ms.{phase}"] = per(phase, block, 1e3)
        m[f"mamba.scan_ms.{phase}"] = per(phase, scan, 1e3)
        m[f"mamba.scan_share.{phase}"] = scan / block if block else 0.0
    for phase in ("align", "prefill", "decode"):
        m[f"mamba.embed_ms.{phase}"] = ms("mamba.LanguageModel.embed_tokens", phase)
    for _, bucket in DECODE_BUCKETS:
        phase = f"decode.{bucket}"
        m[f"mamba.decode_step_ms.{bucket}"] = ms("mamba.LanguageModel.lm_forward", phase)
        m[f"mamba.decode_nodes_per_token.{bucket}"] = per(phase, tr.calls(PRIMITIVES, phase))

    m["vispipe.encode_ms.control"] = ms("vispipe.PatchEncoder.encode", "control")
    m["vispipe.project_ms.control"] = ms("vispipe.MlpProjector.project", "control")
    m["vispipe.multimodal_forward_ms.control"] = ms("vispipe.multimodal_forward", "control")
    m["vispipe.multimodal_forward_ms.manip"] = ms("vispipe.multimodal_forward", "manip")

    m["policy.head_forward_ms.control"] = ms("policy.PoseHead.forward", "control")
    m["policy.head_forward_ms.manip"] = ms("policy.PoseHead.forward", "manip")
    m["policy.predict_pose_ms.control"] = ms("policy.predict_pose", "control")
    m["policy.position_loss_ms.manip"] = ms("policy.position_loss", "manip")
    m["policy.direction_loss_ms.manip"] = ms("policy.direction_loss", "manip")

    for stage in trainer.STAGES:
        m[f"trainer.step_ms.{stage}"] = statistics.median(ctx.step_ms[stage])
        m[f"trainer.adamw_ms.{stage}"] = ms("trainer.adamw_step", stage)
        frozen, total = counters.frozen_bytes[stage]
        m[f"trainer.frozen_grad_share.{stage}"] = frozen / total if total else 0.0
    for stage in ("align", "cotrain"):
        m[f"trainer.cross_entropy_ms.{stage}"] = ms("trainer.cross_entropy_loss", stage)

    m["simworld.spawn_ms"] = ms("simworld.spawn_object", "control")
    m["simworld.render_ms"] = ms("simworld.render_buffers", "control")
    m["simworld.renders_per_episode"] = per("control", tr.calls("simworld.render_buffers",
                                                                "control"))
    m["simworld.interact_ms"] = ms("simworld.interact", "control")
    m["simworld.invalid_pose_share"] = ctx.decisions.count(False) / len(ctx.decisions)
    m["simworld.success_rate"] = ctx.successes / ctx.episodes

    for kind, span in (("caption", "datasets.make_caption_samples"),
                       ("instruct", "datasets.make_instruct_samples"),
                       ("manip", "datasets.make_manip_samples")):
        made = counters.rows_made.get(kind, 0)
        m[f"datasets.make_ms.{kind}"] = 1e3 * tr.inclusive_s(span, "setup") / made if made else 0.0
    kept = counters.rows_made.get("manip", 0)
    m["datasets.draws_per_kept"] = tr.calls("simworld.collect_episode", "setup") / kept \
        if kept else 0.0

    for name, span in (("write", "fileio.write_rmck"), ("read", "fileio.read_rmck")):
        calls = tr.calls(span, ("setup",) + trainer.STAGES)
        total = tr.inclusive_s(span, ("setup",) + trainer.STAGES)
        m[f"fileio.{name}_rmck_ms"] = 1e3 * total / calls if calls else 0.0
    m["fileio.rmck_bytes"] = statistics.median(counters.rmck_bytes) \
        if counters.rmck_bytes else 0.0

    m["failed_share"] = ctx.failed / ctx.attempted
    return m


def check_constant_decode_cost(metrics: dict[str, float]) -> None:
    counts = {b: metrics[f"mamba.decode_nodes_per_token.{b}"] for _, b in DECODE_BUCKETS}
    if len(set(counts.values())) != 1 or not all(c > 0 for c in counts.values()):
        raise CheckFailed(f"decode nodes per token differ between prefix buckets: {counts}")


# ---------------------------------------------------------------------------
# entry


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> dict:
    """One benchmark run; returns the result object (metrics without units).

    Untraced: SETUP_REPEATS set-ups, the measured schedule, the checks and
    the end-to-end metrics.  Traced: one traced set-up, the same schedule
    traced, the checks, and the per-layer metrics with the tracing overhead.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {list(WORKLOADS)}")
    tracer = Tracer(TRACED_MODULES) if trace else None
    counters = LayerCounters()
    setup_s: list[float] = []
    ctx = None
    try:
        # the periodic gauge would land inside the traced spans; per-layer
        # metrics are not scaled
        with tracer if tracer is not None else HOST.sampling():
            if tracer is not None:
                install_hooks(tracer, counters)
                tracer.phase = "setup"
            for _ in range(1 if trace else SETUP_REPEATS):
                with timed(setup_s):
                    ctx = setup(seed, workdir, counters)
            ctx.tracer = tracer
            wall = measure(ctx, workload, seconds)
            p5, p50, p95 = np.percentile(HOST.readings, (5, 50, 95)) * 1e6
            print(f"perfbench: {len(HOST.readings)} gauge readings p5/p50/p95 "
                  f"{p5:.1f}/{p50:.1f}/{p95:.1f} us; times are scaled to "
                  f"{HostGauge.REFERENCE_S * 1e6:.0f} us", flush=True)
            with ctx.phase("check"):
                check_decode(ctx)
        if tracer is None:
            return _result(ctx, end_to_end(ctx, setup_s))
        metrics = per_layer(ctx)
        check_constant_decode_cost(metrics)
    except CheckFailed as err:
        print(f"perfbench: correctness check failed: {err}", file=sys.stderr)
        return {"correct": False, "attempted": max(ctx.attempted, 1) if ctx else 1,
                "failed": ctx.failed if ctx else 0, "metrics": {}}
    # traced minus untraced time of the measured schedule, as its span count
    # times the cost of one span: a traced/untraced pair of real units differs
    # by more run-to-run noise than the few per cent the spans add
    spans = sum(rec[0] for (phase, _), rec in tracer.stats.items()
                if phase not in ("setup", "check"))
    overhead = spans * tracer.span_cost()
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / (wall - overhead)
    return _result(ctx, metrics)


def _result(ctx: Context, metrics: dict[str, float]) -> dict:
    return {"correct": True, "attempted": ctx.attempted, "failed": ctx.failed,
            "metrics": metrics}

"""Three-stage training protocol: alignment, instruction co-training, and
manipulation fine-tuning.

The composite model owns four named parameter groups — encoder, projector,
lm, head — and the active stage decides which groups the optimizer may touch:
align updates the projector, cotrain updates projector and language model,
manip updates only the policy head.  Frozen groups are guaranteed
bit-identical across a stage run.

`set_stage` turns `requires_grad` on for exactly the stage's trainable
parameters, a pure function of the stage, so a forward builds no tape
through frozen groups.  `run_stage` turns every flag off and frees every
`.grad` when it returns or raises, so a forward after it builds no tape at
all, as on a model from `VlaModel(...)` or `load_checkpoint` (a checkpoint
is weights and the model config only).  `model.stage` names the last stage
set: the mask that `is_trainable`, `init_optim` and `param_report` read.

An align or cotrain step is one graph: the batch's (image, text) rows are
packed into one sequence (`vispipe.multimodal_forward_packed`), with the
scan state and conv context reset at each row's start.  The packing sets
the cross-entropy's weights: each of row i's n_i answer targets weighs
1/(n_i B), so the loss is the mean over rows of each row's mean, as if each
row were its own graph.  `run_stage` walks one stream of batches, each
epoch in a fresh permutation, for at most `steps_limit` steps.
"""

from __future__ import annotations

import csv
import itertools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from mambavla import diffcore as dc
from mambavla import fileio
from mambavla.config import ModelConfig, StageHyperparams, TrainConfig, is_integer
from mambavla.mamba import LanguageModel, WordTokenizer
from mambavla.policy import (PoseHead, direction_loss, pool_global_token, position_loss,
                             require_rotations)
from mambavla.vispipe import (MlpProjector, PatchEncoder, multimodal_forward,
                               multimodal_forward_packed)

__all__ = [
    "STAGES",
    "VlaModel",
    "OptimState",
    "set_stage",
    "cross_entropy_loss",
    "init_optim",
    "adamw_step",
    "run_stage",
    "save_checkpoint",
    "load_checkpoint",
    "param_report",
]

STAGES = ("align", "cotrain", "manip")
GROUPS = ("encoder", "projector", "lm", "head")

_STAGE_GROUPS = {
    None: (),
    "align": ("projector",),
    "cotrain": ("projector", "lm"),
    "manip": ("head",),
}

# AdamW's b1, b2 and eps (see `adamw_step`)
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class VlaModel:
    """Vision encoder + projector + language model + policy head."""

    def __init__(self, cfg: ModelConfig, seed: int = 0,
                 dtype=np.float32):
        self._build(cfg, np.random.default_rng(seed), dtype)

    def _build(self, cfg: ModelConfig, rng, dtype) -> None:
        self.cfg = cfg
        self.encoder = PatchEncoder(cfg, rng, dtype)
        self.projector = MlpProjector(cfg, rng, dtype)
        self.lm = LanguageModel(cfg, rng, dtype)
        self.head = PoseHead(cfg, rng, dtype)
        self.stage: str | None = None
        for _, p in self.named_params():
            p.requires_grad = False

    def group_params(self, group: str):
        module = {"encoder": self.encoder, "projector": self.projector,
                  "lm": self.lm, "head": self.head}[group]
        yield from module.named_params()

    def named_params(self):
        """Every parameter exactly once, as ('group.name', tensor)."""
        for group in GROUPS:
            for name, p in self.group_params(group):
                yield f"{group}.{name}", p

    def is_trainable(self, name: str) -> bool:
        return name.split(".", 1)[0] in _STAGE_GROUPS[self.stage]


def set_stage(model: VlaModel, stage: str) -> VlaModel:
    """Apply the stage's freeze mask: `model.stage` names it and
    `requires_grad` is on for exactly its trainable parameters, a pure
    function of the stage.  `run_stage` turns the flags off again."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    model.stage = stage
    for name, p in model.named_params():
        p.requires_grad = model.is_trainable(name)
    return model


# ---------------------------------------------------------------------------
# losses


def cross_entropy_loss(logits: dc.Tensor, targets, weights) -> dc.Tensor:
    """The weighted negative log-likelihood of the targets,
    -sum_l weights[l] * log softmax(logits[l])[targets[l]].

    weights: one finite weight per position, cast to the logits' dtype.
    Uniform 1/L gives the mean; a zero weight leaves a position unsupervised.
    """
    L, V = logits.data.shape
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise ValueError(f"cross_entropy: targets must be integer ids, got {targets.dtype}")
    targets = targets.astype(np.int64, copy=False)
    if targets.shape != (L,):
        raise ValueError(f"targets shape {targets.shape} != ({L},)")
    if np.any((targets < 0) | (targets >= V)):
        raise ValueError("cross_entropy: target id outside vocabulary")
    dtype = logits.data.dtype
    weights = np.asarray(weights, dtype=dtype)
    if weights.shape != (L,) or not np.isfinite(weights).all():
        raise ValueError(f"cross_entropy: weights must be {L} finite values")

    onehot = np.zeros((L, V), dtype=dtype)
    onehot[np.arange(L), targets] = 1.0
    logp = dc.matmul(dc.mul(dc.log_softmax_rows(logits),
                            dc.tensor(onehot, dtype=dtype)),
                     dc.tensor(np.ones((V, 1), dtype=dtype), dtype=dtype))  # [L, 1]
    # negated weights fold the sign into the sum
    return dc.matmul(dc.tensor(-weights.reshape(1, L), dtype=dtype), logp)  # [1, 1]


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # two flat work arrays, each as large as the largest parameter with
    # moments, that every update computes in
    scratch: tuple = ()


def init_optim(model: VlaModel) -> OptimState:
    """Zero moments for the parameters the model's stage trains, and no
    others, plus the update's scratch space."""
    state = OptimState()
    for name, p in model.named_params():
        if model.is_trainable(name):
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
    if state.m:
        largest = max(state.m.values(), key=lambda a: a.size)
        state.scratch = (np.empty(largest.size, largest.dtype),
                         np.empty(largest.size, largest.dtype))
    return state


def adamw_step(model: VlaModel, grads: dict, state: OptimState, lr: float,
               weight_decay: float = 0.0) -> None:
    """Decoupled-weight-decay Adam over the parameters that have moments in
    `state`: the trainable ones when `init_optim` ran.

    grads maps 'group.name' to a numpy array of the parameter's shape;
    missing entries are treated as zero gradient (decay still applies).  A
    gradient of another shape raises a ValueError naming the parameter, as
    broadcasting would spread it over every entry.  Non-finite gradients
    raise, naming the parameter group.  Every gradient is checked before
    the first write, so a refused gradient leaves every parameter, moment
    and `state.step` as they were.  An update with non-finite new values
    raises too and leaves that parameter unchanged: the write is in place,
    so no primitive would check it again, and it calls `drop_derived` so
    that values cached from the old ones, like the scan's A, are derived
    anew (see `diffcore`).

    The update runs in place in the state's scratch arrays, in the operation
    order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p - lr (m_hat / (sqrt(v_hat) + eps) + wd p).
    """
    updates = []
    for name, p in model.named_params():
        if name not in state.m:
            continue
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        elif np.shape(g) != p.data.shape:
            raise ValueError(f"adamw_step: gradient for {name} has shape {np.shape(g)}, "
                             f"the parameter {p.data.shape}")
        elif not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient in parameter group "
                f"{name.split('.', 1)[0]!r} ({name})")
        updates.append((name, p, g))
    state.step += 1
    t = state.step
    c1, c2 = 1 - _BETA1 ** t, 1 - _BETA2 ** t
    for name, p, g in updates:
        m, v = state.m[name], state.v[name]
        s, s2 = (buf[:p.data.size].reshape(p.data.shape) for buf in state.scratch)
        m *= _BETA1
        np.multiply(g, 1 - _BETA1, out=s)
        m += s
        v *= _BETA2
        np.multiply(g, 1 - _BETA2, out=s)
        s *= g
        v += s
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(m, c1, out=s)
            np.divide(v, c2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += _ADAM_EPS
            s /= s2
            np.multiply(p.data, weight_decay, out=s2)
            s += s2
            s *= lr
            np.subtract(p.data, s, out=s)           # the new values, not yet written
        if not np.all(np.isfinite(s)):
            raise FloatingPointError(
                f"non-finite update in parameter group "
                f"{name.split('.', 1)[0]!r} ({name})")
        p.data[...] = s
        p.drop_derived()


# ---------------------------------------------------------------------------
# batch construction


def _encode_pair(tokenizer: WordTokenizer, prompt: str, answer: str):
    """Teacher-forced ids: inputs [BOS p.. a..], targets [p.. a.. EOS], and
    the number of leading targets that are prompt tokens."""
    p_ids = tokenizer.encode(prompt)
    text = [tokenizer.BOS] + p_ids + tokenizer.encode(answer) + [tokenizer.EOS]
    return text[:-1], np.asarray(text[1:]), len(p_ids)


def _stage1_batch_loss(model: VlaModel, tokenizer: WordTokenizer,
                       rows: list[dict]) -> dc.Tensor:
    """The align/cotrain loss of a batch as one packed graph: the mean over
    rows of each row's mean over its answer targets (EOS included)."""
    inputs, targets, n_prompt = zip(*(_encode_pair(tokenizer, row["prompt"], row["answer"])
                                      for row in rows))
    out = multimodal_forward_packed(model.encoder, model.projector, model.lm,
                                    [np.asarray(row["image"]) for row in rows], list(inputs))
    # row i's n_i answer targets weigh 1 / (n_i B) each, so every row weighs 1/B
    weights = np.concatenate([(np.arange(len(t)) >= n) / ((len(t) - n) * len(rows))
                              for t, n in zip(targets, n_prompt)])
    return cross_entropy_loss(out.text_logits, np.concatenate(targets), weights)


def _backbone_feature(model: VlaModel, tokenizer: WordTokenizer,
                      image: np.ndarray, prompt: str) -> np.ndarray:
    """The pooled backbone row [1, d_model] that the pose head reads."""
    ids = [tokenizer.BOS] + tokenizer.encode(prompt)
    out = multimodal_forward(model.encoder, model.projector, model.lm,
                             np.asarray(image), ids)
    return pool_global_token(out.hidden).data


def _column(dataset, key: str, shape: tuple) -> np.ndarray:
    """Every row's `key`, each a real array of this shape, stacked in float64."""
    for i, row in enumerate(dataset):
        arr = np.asarray(row[key])
        if arr.shape != shape or arr.dtype.kind not in "iuf":
            raise ValueError(f"run_stage: {key}[{i}] must be {shape} real numbers, "
                             f"got {arr.shape} of {arr.dtype}")
    return np.array([row[key] for row in dataset], dtype=np.float64)


def _check_rows(stage: str, dataset, encoder: PatchEncoder) -> None:
    """Refuse a row that a step would fail on, naming row i's field as
    field[i]: its keys, its image by the encoder's rules, its prompt (and
    answer outside manip) a str, and in manip its pos_uv two finite values
    in [0, 1] and its rot a rotation by the pose losses' rule."""
    if len(dataset) == 0:
        raise ValueError("run_stage: dataset is empty")
    texts = ("prompt",) if stage == "manip" else ("prompt", "answer")
    want = {"image", *texts} | ({"pos_uv", "rot"} if stage == "manip" else set())
    for i, row in enumerate(dataset):
        if not isinstance(row, dict) or not want.issubset(row):
            raise ValueError(
                f"dataset schema mismatch for stage {stage!r}: "
                f"rows need keys {sorted(want)}")
        try:
            encoder.check_image(row["image"])
        except (ValueError, dc.NonFiniteError) as err:
            raise type(err)(f"run_stage: image[{i}]: {err}") from err
        for key in texts:
            if not isinstance(row[key], str):
                raise ValueError(f"run_stage: {key}[{i}] must be a str, "
                                 f"got {type(row[key]).__name__}")
    if stage == "manip":
        uv = _column(dataset, "pos_uv", (2,))
        bad = np.flatnonzero(~((uv >= 0.0) & (uv <= 1.0)).all(axis=1))  # NaN fails both
        if bad.size:
            raise ValueError(f"run_stage: pos_uv[{bad[0]}] must be two finite values "
                             f"in [0, 1], got {tuple(uv[bad[0]].tolist())}")
        require_rotations("run_stage: rot", _column(dataset, "rot", (3, 3)))


# ---------------------------------------------------------------------------
# stage runner


def run_stage(model: VlaModel, stage: str, dataset: list, epochs: int,
              hyper: StageHyperparams, train_cfg: TrainConfig,
              tokenizer: WordTokenizer, seed: int = 0,
              out_dir: str | None = None, steps_limit: int | None = None):
    """Train one stage; returns (metrics rows, checkpoint path or None).

    Every row is checked before the stage is set or out_dir opened, so a
    bad row raises, naming its index and field, before any weight moves.
    Per-step metrics (loss, lr, the step's `tape_nodes` and wall time) go
    to `metrics_{stage}.csv` when out_dir is given, each row written as its
    step ends, so a run that raises keeps the rows of the steps it finished;
    the final weights go to `ckpt_{stage}.rmck` only when the stage
    completes.  Parameters outside the stage's trainable set
    are bit-identical before and after.  `model.stage` stays `stage`, but
    every `requires_grad` is off and every `.grad` freed once it returns or
    raises after setting the stage, so the model it leaves runs inference
    without a tape and holds no gradients.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    _check_rows(stage, dataset, model.encoder)
    if not (is_integer(epochs) and epochs >= 1):
        raise ValueError(f"run_stage: epochs must be an integer >= 1, got {epochs!r}")
    if not (steps_limit is None or (is_integer(steps_limit) and steps_limit >= 1)):
        raise ValueError(f"run_stage: steps_limit must be None or an integer >= 1, "
                         f"got {steps_limit!r}")
    set_stage(model, stage)
    metrics_file = None
    try:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            metrics_file = open(os.path.join(out_dir, f"metrics_{stage}.csv"), "w",
                                newline="", encoding="utf-8")
            writer = csv.DictWriter(metrics_file, fieldnames=["step", "stage", "loss", "lr",
                                                              "tape_nodes", "wall_ms"])
            writer.writeheader()
        state = init_optim(model)
        rng = np.random.default_rng(seed)
        params = dict(model.named_params())

        cache = None
        if stage == "manip":
            # the backbone is frozen in stage 2, so its features are constants:
            # compute them once per sample instead of once per step
            cache = np.concatenate([_backbone_feature(model, tokenizer, row["image"],
                                                      row["prompt"]) for row in dataset])

        size = train_cfg.batch_size
        # each epoch's order is drawn when the epoch starts
        batches = (order[start:start + size]
                   for order in (rng.permutation(len(dataset)) for _ in range(epochs))
                   for start in range(0, len(dataset), size))
        metrics = []
        for step, batch in enumerate(itertools.islice(batches, steps_limit), start=1):
            t0 = time.perf_counter()
            if stage == "manip":
                out = model.head.forward(dc.tensor(cache[batch], dtype=cache.dtype))
                gt_uv = np.stack([dataset[i]["pos_uv"] for i in batch])
                gt_rot = np.stack([dataset[i]["rot"] for i in batch])
                loss = dc.add(position_loss(out.pixel, gt_uv),
                              direction_loss(out.rot, gt_rot))
            else:
                loss = _stage1_batch_loss(model, tokenizer, [dataset[idx] for idx in batch])

            tape_nodes = dc.tape_nodes(loss)
            grads_by_tensor = dc.backward(loss)
            grads = {name: grads_by_tensor[p] for name, p in params.items()
                     if p in grads_by_tensor}
            adamw_step(model, grads, state, lr=hyper.lr, weight_decay=hyper.weight_decay)
            metrics.append({"step": step, "stage": stage,
                            "loss": float(loss.data.reshape(-1)[0]),
                            "lr": hyper.lr,
                            "tape_nodes": tape_nodes,
                            "wall_ms": (time.perf_counter() - t0) * 1e3})
            if metrics_file is not None:
                writer.writerow(metrics[-1])
                metrics_file.flush()
    finally:
        if metrics_file is not None:
            metrics_file.close()
        for _, p in model.named_params():
            p.requires_grad = False
            p.grad = None

    ckpt_path = None
    if out_dir is not None:
        ckpt_path = os.path.join(out_dir, f"ckpt_{stage}.rmck")
        save_checkpoint(model, ckpt_path)
    return metrics, ckpt_path


# ---------------------------------------------------------------------------
# checkpointing and reporting


def save_checkpoint(model: VlaModel, path: str) -> None:
    """Write the weights and config as RMCK, which stores float32 only."""
    tensors = {name: p.data for name, p in model.named_params()}
    for name, arr in tensors.items():
        if arr.dtype != np.float32:
            raise ValueError(
                f"save_checkpoint: parameter {name!r} is {arr.dtype.name}; "
                f"RMCK stores float32 only, so the weights would lose precision")
    fileio.write_rmck(path, tensors, {"model": vars(model.cfg)})


class _ZeroDraws:
    """Stands in for the init generator where every drawn value is about to
    be overwritten: each draw is zeros of the requested size."""

    def normal(self, loc, scale, size):
        return np.zeros(size, dtype=np.float32)

    uniform = normal


def load_checkpoint(path: str) -> VlaModel:
    """The model a checkpoint holds, with no stage: the inference setting,
    as `VlaModel(...)` builds it.  A checkpoint is weights and the model
    config; a "stage" key, which older checkpoints carry, is ignored."""
    tensors, config = fileio.read_rmck(path)
    cfg_dict = config.get("model")
    if not isinstance(cfg_dict, dict):
        raise fileio.FormatError("checkpoint config missing 'model' record")
    unknown = set(cfg_dict) - set(vars(ModelConfig()))
    if unknown:
        raise fileio.FormatError(
            f"checkpoint config has unknown fields {sorted(unknown)}")
    # every value is overwritten below, so the parameters start as zeros
    # rather than as random draws
    model = VlaModel.__new__(VlaModel)
    try:
        model._build(ModelConfig(**cfg_dict), _ZeroDraws(), np.float32)
    except ValueError as err:
        raise fileio.FormatError(f"checkpoint config: {err}") from err
    names = {name for name, _ in model.named_params()}
    if names != set(tensors):
        missing = sorted(names - set(tensors))[:3]
        extra = sorted(set(tensors) - names)[:3]
        raise fileio.FormatError(
            f"checkpoint tensors do not match the model: "
            f"missing {missing}, unexpected {extra}")
    for name, p in model.named_params():
        t = tensors[name]
        if t.shape != p.data.shape:
            raise fileio.FormatError(
                f"checkpoint tensor {name!r} has shape {t.shape}, "
                f"expected {p.data.shape}")
        p.data = t.astype(p.data.dtype, copy=False)
    return model


def param_report(model: VlaModel) -> dict:
    """Exact per-group parameter counts and the active-stage trainable ratio."""
    groups = {}
    for group in GROUPS:
        groups[group] = int(sum(p.data.size
                                for _, p in model.group_params(group)))
    total = sum(groups.values())
    trainable = sum(groups[g] for g in _STAGE_GROUPS[model.stage])
    return {"groups": groups, "total": total,
            "stage": model.stage, "trainable": trainable,
            "ratio": trainable / total if total else 0.0}

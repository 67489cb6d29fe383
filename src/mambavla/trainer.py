"""Three-stage training protocol: alignment, instruction co-training, and
manipulation fine-tuning.

The composite model owns four named parameter groups — encoder, projector,
lm, head — and the active stage decides which groups the optimizer may touch:
align updates the projector, cotrain updates projector and language model,
manip updates only the policy head.  Frozen groups are guaranteed
bit-identical across a stage run.

`requires_grad` follows the stage: `set_stage` turns it on for exactly the
trainable parameters, so a forward builds no backward tape through frozen
groups.  A model with no stage has no trainable group and builds no tape at
all, which is the inference setting.

An align or cotrain step is one graph: the batch's (image, text) rows are
packed into one sequence (`vispipe.multimodal_forward_packed`), with the
scan state and conv context reset at each row's start, and the loss is the
mean over rows of each row's masked mean, as if each row were its own graph.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field

import numpy as np

from mambavla import diffcore as dc
from mambavla import fileio
from mambavla.config import ModelConfig, StageHyperparams, TrainConfig, is_integer
from mambavla.mamba import LanguageModel, WordTokenizer
from mambavla.policy import PoseHead, direction_loss, pool_global_token, position_loss
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
    """Apply the stage's freeze mask: `requires_grad` on exactly the
    trainable parameters; flags are a pure function of the stage."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    model.stage = stage
    for name, p in model.named_params():
        p.requires_grad = model.is_trainable(name)
    return model


# ---------------------------------------------------------------------------
# losses


def cross_entropy_loss(logits: dc.Tensor, targets, ignore_mask=None,
                       starts=None) -> dc.Tensor:
    """Mean negative log-softmax of the target class over unmasked positions.

    ignore_mask: optional boolean [L]; True positions are excluded (visual
    and prompt positions carry no supervision).  starts, the first row of
    each sample packed into logits (None is one sample), checked as
    `diffcore.selective_scan` checks its own, makes the loss the mean over
    samples of each sample's masked mean, so a sample weighs the same however
    many positions it has; every sample needs an unmasked position.
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
    keep = np.ones(L, dtype=bool) if ignore_mask is None \
        else ~np.asarray(ignore_mask, dtype=bool)
    if keep.shape != (L,):
        raise ValueError("ignore_mask must have one entry per position")
    starts = dc._check_starts("cross-entropy", starts, L)
    # unmasked positions of each sample, spread back over its rows
    n_keep = np.add.reduceat(keep, starts, dtype=np.intp)
    if (n_keep == 0).any():
        raise ValueError("cross_entropy: every position of a sample is masked")
    n_keep = np.repeat(n_keep * len(starts), np.diff(starts, append=L))

    dtype = logits.data.dtype
    onehot = np.zeros((L, V), dtype=dtype)
    onehot[np.arange(L), targets] = 1.0
    logp = dc.matmul(dc.mul(dc.log_softmax_rows(logits),
                            dc.tensor(onehot, dtype=dtype)),
                     dc.tensor(np.ones((V, 1), dtype=dtype), dtype=dtype))  # [L, 1]
    # negated mask weights fold the sign into the masked means
    weights = (-keep.astype(dtype) / n_keep).reshape(1, L)
    return dc.matmul(dc.tensor(weights, dtype=dtype), logp)  # [1, 1]


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

    grads maps 'group.name' to a numpy array; missing entries are treated as
    zero gradient (decay still applies).  Non-finite gradients raise, naming
    the parameter group, and so does an update with non-finite new values,
    which leaves that parameter unchanged: the write is in place, so no
    primitive would check it again, and it calls `drop_derived` so that
    values cached from the old ones, like the scan's A, are derived anew
    (see `diffcore`).

    The update runs in place in the state's scratch arrays, in the operation
    order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p - lr (m_hat / (sqrt(v_hat) + eps) + wd p).
    """
    state.step += 1
    t = state.step
    c1, c2 = 1 - _BETA1 ** t, 1 - _BETA2 ** t
    for name, p in model.named_params():
        if name not in state.m:
            continue
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient in parameter group "
                f"{name.split('.', 1)[0]!r} ({name})")
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
    """Teacher-forced ids: inputs [BOS p.. a..], targets [p.. a.. EOS],
    mask ignoring the prompt-token targets."""
    p_ids = tokenizer.encode(prompt)
    a_ids = tokenizer.encode(answer)
    text = [tokenizer.BOS] + p_ids + a_ids + [tokenizer.EOS]
    inputs, targets = text[:-1], text[1:]
    ignore = np.zeros(len(targets), dtype=bool)
    ignore[:len(p_ids)] = True            # targets that are prompt tokens
    return inputs, np.asarray(targets), ignore


def _stage1_batch_loss(model: VlaModel, tokenizer: WordTokenizer,
                       rows: list[dict]) -> dc.Tensor:
    """The align/cotrain loss of a batch as one packed graph: the mean over
    rows of each row's masked mean over its answer targets."""
    inputs, targets, ignore = zip(*(_encode_pair(tokenizer, row["prompt"], row["answer"])
                                    for row in rows))
    out = multimodal_forward_packed(model.encoder, model.projector, model.lm,
                                    [np.asarray(row["image"]) for row in rows], list(inputs))
    starts = np.cumsum([0] + [len(t) for t in targets[:-1]])
    return cross_entropy_loss(out.text_logits, np.concatenate(targets),
                              np.concatenate(ignore), starts)


def _backbone_feature(model: VlaModel, tokenizer: WordTokenizer,
                      image: np.ndarray, prompt: str) -> np.ndarray:
    """The pooled backbone row [1, d_model] that the pose head reads."""
    ids = [tokenizer.BOS] + tokenizer.encode(prompt)
    out = multimodal_forward(model.encoder, model.projector, model.lm,
                             np.asarray(image), ids)
    return pool_global_token(out.hidden).data


def _check_schema(stage: str, dataset) -> None:
    if len(dataset) == 0:
        raise ValueError("run_stage: dataset is empty")
    stage1_keys = {"image", "prompt", "answer"}
    manip_keys = {"image", "prompt", "pos_uv", "rot"}
    want = manip_keys if stage == "manip" else stage1_keys
    for row in dataset:
        if not isinstance(row, dict) or not want.issubset(row):
            raise ValueError(
                f"dataset schema mismatch for stage {stage!r}: "
                f"rows need keys {sorted(want)}")


# ---------------------------------------------------------------------------
# stage runner


def run_stage(model: VlaModel, stage: str, dataset: list, epochs: int,
              hyper: StageHyperparams, train_cfg: TrainConfig,
              tokenizer: WordTokenizer, seed: int = 0,
              out_dir: str | None = None, steps_limit: int | None = None):
    """Train one stage; returns (metrics rows, checkpoint path or None).

    Per-step metrics (loss, lr, the step's `tape_nodes` and wall time) go
    to `metrics_{stage}.csv` and the final weights to `ckpt_{stage}.rmck`
    when out_dir is given.  Parameters outside the stage's trainable set
    are bit-identical before and after.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    _check_schema(stage, dataset)
    if not (is_integer(epochs) and epochs >= 1):
        raise ValueError(f"run_stage: epochs must be an integer >= 1, got {epochs!r}")
    if not (steps_limit is None or (is_integer(steps_limit) and steps_limit >= 1)):
        raise ValueError(f"run_stage: steps_limit must be None or an integer >= 1, "
                         f"got {steps_limit!r}")
    set_stage(model, stage)
    state = init_optim(model)
    rng = np.random.default_rng(seed)
    params = dict(model.named_params())

    cache = None
    if stage == "manip":
        # the backbone is frozen in stage 2, so its features are constants:
        # compute them once per sample instead of once per step
        cache = np.concatenate([_backbone_feature(model, tokenizer, row["image"],
                                                  row["prompt"]) for row in dataset])

    metrics = []
    step = 0
    done = False
    for _ in range(epochs):
        if done:
            break
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            t0 = time.perf_counter()
            if stage == "manip":
                out = model.head.forward(dc.tensor(cache[batch], dtype=cache.dtype))
                gt_uv = np.stack([dataset[i]["pos_uv"] for i in batch])
                gt_rot = np.stack([dataset[i]["rot"] for i in batch])
                loss = dc.add(position_loss(out.pixel, gt_uv),
                              direction_loss(out.rot, gt_rot))
            else:
                loss = _stage1_batch_loss(model, tokenizer,
                                          [dataset[idx] for idx in batch])

            tape_nodes = dc.tape_nodes(loss)
            grads_by_tensor = dc.backward(loss)
            grads = {name: grads_by_tensor[p] for name, p in params.items()
                     if p in grads_by_tensor}
            adamw_step(model, grads, state, lr=hyper.lr,
                       weight_decay=hyper.weight_decay)
            step += 1
            metrics.append({"step": step, "stage": stage,
                            "loss": float(loss.data.reshape(-1)[0]),
                            "lr": hyper.lr,
                            "tape_nodes": tape_nodes,
                            "wall_ms": (time.perf_counter() - t0) * 1e3})
            if steps_limit is not None and step >= steps_limit:
                done = True
                break

    ckpt_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, f"metrics_{stage}.csv")
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["step", "stage", "loss", "lr", "tape_nodes", "wall_ms"])
            writer.writeheader()
            writer.writerows(metrics)
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
    config = {"model": vars(model.cfg).copy(),
              "stage": model.stage or ""}
    fileio.write_rmck(path, tensors, config)


class _ZeroDraws:
    """Stands in for the init generator where every drawn value is about to
    be overwritten: each draw is zeros of the requested size."""

    def normal(self, loc, scale, size):
        return np.zeros(size, dtype=np.float32)

    uniform = normal


def load_checkpoint(path: str) -> VlaModel:
    tensors, config = fileio.read_rmck(path)
    cfg_dict = config.get("model")
    if not isinstance(cfg_dict, dict):
        raise fileio.FormatError("checkpoint config missing 'model' record")
    defaults = vars(ModelConfig())
    unknown = set(cfg_dict) - set(defaults)
    if unknown:
        raise fileio.FormatError(
            f"checkpoint config has unknown fields {sorted(unknown)}")
    for name, value in cfg_dict.items():
        # exact types: bool is an int subclass, and a float or string size
        # would only fail deep inside a module constructor
        if type(value) is not type(defaults[name]):
            raise fileio.FormatError(
                f"checkpoint config field {name!r} must be "
                f"{type(defaults[name]).__name__}, got {type(value).__name__}")
    stage = config.get("stage", "")
    if stage not in ("", *STAGES):
        raise fileio.FormatError(
            f"checkpoint config field 'stage' must be '' or one of {STAGES}, "
            f"got {stage!r}")
    try:
        cfg = ModelConfig(**cfg_dict)
    except ValueError as err:
        raise fileio.FormatError(f"checkpoint config: {err}") from err
    # every value is overwritten below, so the parameters start as zeros
    # rather than as random draws
    model = VlaModel.__new__(VlaModel)
    model._build(cfg, _ZeroDraws(), np.float32)
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
    if stage:
        set_stage(model, stage)
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

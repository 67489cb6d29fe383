"""Dataclass configs for the model, the trainer, and the simulator's camera.

Every run is fully described by (ModelConfig, TrainConfig, seed): the camera
is one frozen `SimConfig`, `simworld.CAMERA`, and the simulator's suction
thresholds and AdamW's betas and epsilon are module constants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# every ModelConfig field that sizes a layer
_MODEL_SIZES = ("image_size", "patch_size", "d_vis", "proj_hidden", "vocab_size",
                "d_model", "n_blocks", "d_state", "d_conv", "expand", "dt_rank",
                "head_hidden")


def is_integer(value) -> bool:
    """The integer rule for a count or seed passed to a function: any
    integer, numpy's included, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(caller: str, seed) -> int:
    """A seed as a Python int: any integer >= 0, numpy's included, not a bool."""
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"{caller}: seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def _is_field_int(value) -> bool:
    # a config field is written to a checkpoint's JSON, so it must be a
    # Python int; isinstance counts a bool as one
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ModelConfig:
    # vision encoder
    image_size: int = 32          # square RGB input, pixels
    patch_size: int = 8           # non-overlapping patches -> (image_size/patch_size)^2 tokens
    d_vis: int = 64               # patch embedding width
    # projector (2-layer MLP, vision width -> LM width)
    proj_hidden: int = 256
    # language model
    vocab_size: int = 2048        # fixed table size; tokenizer ids must stay below this
    d_model: int = 256
    n_blocks: int = 6
    d_state: int = 8              # SSM state size N per channel
    d_conv: int = 4               # causal depthwise conv width
    expand: int = 2               # d_inner = expand * d_model
    dt_rank: int = 16             # low-rank bottleneck for the delta projection (d_model / 16)
    # policy head
    head_variant: str = "mlp2"    # mlp2 | mlp1 | ssm-mlp
    head_hidden: int = 32

    def __post_init__(self):
        # head_variant is checked by PoseHead, which owns the variants
        for name in _MODEL_SIZES:
            value = getattr(self, name)
            if not (_is_field_int(value) and value >= 1):
                raise ValueError(f"ModelConfig: {name} must be an integer >= 1, "
                                 f"got {value!r}")
        if self.image_size % self.patch_size:
            raise ValueError(f"ModelConfig: image_size {self.image_size} must be "
                             f"divisible by patch_size {self.patch_size}")

    @property
    def d_inner(self) -> int:
        return self.expand * self.d_model

    @property
    def n_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side


@dataclass
class StageHyperparams:
    lr: float
    weight_decay: float
    epochs: int

    def __post_init__(self):
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not (math.isfinite(value) and value >= 0.0)):
                raise ValueError(f"StageHyperparams: {name} must be a finite number >= 0, "
                                 f"got {value!r}")


@dataclass
class TrainConfig:
    # per-stage defaults; overfit runs pass their own StageHyperparams to run_stage
    align: StageHyperparams = field(
        default_factory=lambda: StageHyperparams(lr=2e-5, weight_decay=0.0, epochs=1)
    )
    cotrain: StageHyperparams = field(
        default_factory=lambda: StageHyperparams(lr=2e-5, weight_decay=0.0, epochs=2)
    )
    manip: StageHyperparams = field(
        default_factory=lambda: StageHyperparams(lr=1e-5, weight_decay=0.1, epochs=5)
    )
    batch_size: int = 8

    def __post_init__(self):
        if not (_is_field_int(self.batch_size) and self.batch_size >= 1):
            raise ValueError(f"TrainConfig: batch_size must be an integer >= 1, "
                             f"got {self.batch_size!r}")


@dataclass(frozen=True)
class SimConfig:
    # pinhole camera: x right, y down, z forward; intrinsics in pixels.  Frozen:
    # `simworld.CAMERA` is the one instance, and kept renders assume it fixed
    width: int = 32
    height: int = 32
    fx: float = 28.0
    fy: float = 28.0
    cx: float = 16.0
    cy: float = 16.0

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            if not (_is_field_int(value) and value >= 1):
                raise ValueError(f"SimConfig: {name} must be an integer >= 1, got {value!r}")
        for name in ("fx", "fy"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"SimConfig: {name} must be finite and > 0, got {value}")
        for name in ("cx", "cy"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"SimConfig: {name} must be finite, got {value}")

"""Dataclass configs for the model, the trainer, and the simulator.

Every run is fully described by (ModelConfig, TrainConfig, SimConfig, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"StageHyperparams: {name} must be finite and >= 0, "
                                 f"got {value}")


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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 8

    def __post_init__(self):
        if not (isinstance(self.batch_size, int) and self.batch_size >= 1):
            raise ValueError(f"TrainConfig: batch_size must be an integer >= 1, "
                             f"got {self.batch_size!r}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"TrainConfig: {name} must lie in [0, 1), got {value}")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0.0):
            raise ValueError(f"TrainConfig: adam_eps must be finite and > 0, "
                             f"got {self.adam_eps}")


@dataclass
class SimConfig:
    # camera: x right, y down, z forward; intrinsics in pixels
    width: int = 32
    height: int = 32
    fx: float = 28.0
    fy: float = 28.0
    cx: float = 16.0
    cy: float = 16.0
    # suction interaction
    attach_tolerance: float = 1e-2    # max contact-point distance to the movable part, metres
    attach_cone_deg: float = 60.0     # max angle between approach z-axis and inward normal
    pull_magnitude: float = 0.25      # metres, applied along the retract direction
    # success thresholds on the achieved joint displacement
    prismatic_threshold: float = 0.1  # metres
    revolute_threshold: float = 0.1   # radians

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise ValueError(f"SimConfig: {name} must be an integer >= 1, got {value!r}")
        for name in ("fx", "fy"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"SimConfig: {name} must be finite and > 0, got {value}")
        for name in ("cx", "cy"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"SimConfig: {name} must be finite, got {value}")
        for name in ("attach_tolerance", "pull_magnitude",
                     "prismatic_threshold", "revolute_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"SimConfig: {name} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.attach_cone_deg) and 0.0 < self.attach_cone_deg <= 180.0):
            raise ValueError(f"SimConfig: attach_cone_deg must be finite and in (0, 180], "
                             f"got {self.attach_cone_deg}")

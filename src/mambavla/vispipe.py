"""Vision front end: patch encoder, MLP projector, multimodal forward.

The composition order is fixed — encode -> project -> concat -> language
model — and visual tokens always precede text tokens in the concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mambavla import diffcore as dc
from mambavla.config import ModelConfig
from mambavla.diffcore import ShapeError, Tensor
from mambavla.mamba import LanguageModel, ScanState, greedy_continue

__all__ = [
    "PatchEncoder",
    "MlpProjector",
    "MultimodalOutput",
    "multimodal_forward",
    "generate_greedy_multimodal",
]


class PatchEncoder:
    """Non-overlapping p x p patches, linearly embedded, plus a learned
    positional table.  Stands in for a pretrained backbone at desk scale."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        p = cfg.patch_size
        d_in = p * p * 3
        self.cfg = cfg
        self.dtype = dtype
        self.w_patch = dc.param(rng.normal(0.0, d_in ** -0.5, size=(d_in, cfg.d_vis)), dtype)
        self.b_patch = dc.param(np.zeros(cfg.d_vis), dtype)
        self.pos = dc.param(rng.normal(0.0, 0.02, size=(cfg.n_patches, cfg.d_vis)), dtype)

    def named_params(self):
        yield "w_patch", self.w_patch
        yield "b_patch", self.b_patch
        yield "pos", self.pos

    def encode(self, image: np.ndarray) -> Tensor:
        """RGB image [H, W, 3] -> visual features [n_patches, d_vis]."""
        p = self.cfg.patch_size
        image = np.asarray(image)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ShapeError(f"encode: expected [H, W, 3] image, got {image.shape}")
        h, w = image.shape[:2]
        if h != w:
            raise ShapeError(f"encode: image must be square, got {h}x{w}")
        if h % p != 0:
            raise ShapeError(f"encode: image side {h} not divisible by patch size {p}")
        side = h // p
        if side * side != self.cfg.n_patches:
            raise ShapeError(f"encode: image side {h} does not match configured "
                             f"size {self.cfg.image_size}")
        patches = (image.reshape(side, p, side, p, 3)
                        .transpose(0, 2, 1, 3, 4)
                        .reshape(side * side, p * p * 3))
        # per-image mean-patch subtraction: without it the shared backdrop
        # dominates every token and scenes become near-indistinguishable
        # downstream of pooling
        patches = patches - patches.mean(axis=0, keepdims=True)
        flat = dc.tensor(patches, dtype=self.dtype)
        return dc.add(dc.add(dc.matmul(flat, self.w_patch), self.b_patch), self.pos)


class MlpProjector:
    """Per-token two-layer perceptron from encoder width into LM width."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.w1 = dc.param(rng.normal(0.0, cfg.d_vis ** -0.5,
                                      size=(cfg.d_vis, cfg.proj_hidden)), dtype)
        self.b1 = dc.param(np.zeros(cfg.proj_hidden), dtype)
        self.w2 = dc.param(rng.normal(0.0, cfg.proj_hidden ** -0.5,
                                      size=(cfg.proj_hidden, cfg.d_model)), dtype)
        self.b2 = dc.param(np.zeros(cfg.d_model), dtype)

    def named_params(self):
        yield "w1", self.w1
        yield "b1", self.b1
        yield "w2", self.w2
        yield "b2", self.b2

    def project(self, f_v: Tensor) -> Tensor:
        """[N_vis, d_vis] -> [N_vis, d_model]."""
        if f_v.data.ndim != 2 or f_v.shape[1] != self.cfg.d_vis:
            raise ShapeError(f"project: expected [N_vis, {self.cfg.d_vis}], "
                             f"got {f_v.shape}")
        hidden = dc.silu(dc.add(dc.matmul(f_v, self.w1), self.b1))
        return dc.add(dc.matmul(hidden, self.w2), self.b2)


@dataclass
class MultimodalOutput:
    hidden: Tensor        # [n_visual + T, d_model], post final norm
    text_logits: Tensor   # [T, vocab] — logits at the text positions
    n_visual: int
    state: ScanState


def multimodal_forward(encoder: PatchEncoder, projector: MlpProjector,
                       lm: LanguageModel, image: np.ndarray,
                       prompt_ids: list[int]) -> MultimodalOutput:
    """image + prompt tokens -> LM forward over [visual || text].

    The full last-layer hidden states (visual positions included) are exposed
    for the policy head; logits are returned for the text positions only.
    """
    if len(prompt_ids) == 0:
        raise ValueError("multimodal_forward: prompt must contain at least one token")
    f_v = encoder.encode(image)
    f_v_lm = projector.project(f_v)
    seq = dc.concat([f_v_lm, lm.embed_tokens(prompt_ids)], axis=0)
    hidden, state = lm.forward_embedded(seq)
    n_vis = f_v_lm.shape[0]
    text_logits = dc.matmul(dc.tslice(hidden, 0, n_vis, n_vis + len(prompt_ids)),
                            lm.lm_head)
    return MultimodalOutput(hidden=hidden, text_logits=text_logits,
                            n_visual=n_vis, state=state)


def generate_greedy_multimodal(encoder: PatchEncoder, projector: MlpProjector,
                               lm: LanguageModel, image: np.ndarray,
                               prompt_ids: list[int], max_new: int,
                               eos_id: int | None = None) -> list[int]:
    """Greedy decode conditioned on an image prefix; returns only new ids."""
    out_mm = multimodal_forward(encoder, projector, lm, image, prompt_ids)
    return greedy_continue(lm, out_mm.text_logits, out_mm.state, max_new, eos_id)

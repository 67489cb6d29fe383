"""Vision front end: patch encoder, MLP projector, multimodal forward.

The composition order is fixed — encode -> project -> concat -> language
model — and visual tokens always precede text tokens in the concatenation.
Several (image, prompt) pairs pack into one sequence [v_1 || t_1 || v_2 ||
t_2 || ...] that runs as one graph, with the scan state and conv context
reset at each pair's start; one pair runs the same path with one start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mambavla import diffcore as dc
from mambavla.config import ModelConfig
from mambavla.diffcore import NonFiniteError, ShapeError, Tensor
from mambavla.mamba import LanguageModel, ScanState, greedy_continue

__all__ = [
    "PatchEncoder",
    "MlpProjector",
    "MultimodalOutput",
    "multimodal_forward",
    "multimodal_forward_packed",
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

    def check_image(self, image) -> np.ndarray:
        """The image as an array, if it is what `encode` takes: [H, W, 3] at
        the configured size, floats in [0, 1]; raises otherwise."""
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
        if image.dtype.kind != "f":
            raise ShapeError(f"encode: image must hold floats in [0, 1], got {image.dtype}")
        if not np.isfinite(image).all():
            raise NonFiniteError("encode: image contains non-finite values")
        if image.min() < 0.0 or image.max() > 1.0:
            raise ValueError(f"encode: image values must lie in [0, 1], got "
                             f"[{image.min()}, {image.max()}]")
        return image

    def encode(self, image: np.ndarray) -> Tensor:
        """RGB image [H, W, 3] of floats in [0, 1] -> visual features
        [n_patches, d_vis].  A bad image fails here, naming the image."""
        image = self.check_image(image)
        p = self.cfg.patch_size
        side = image.shape[0] // p
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
    hidden: Tensor        # [sum of (n_patches + T_i), d_model], post final norm
    text_logits: Tensor   # [sum of T_i, vocab] — logits at the text positions
    state: ScanState      # the carry after the last pair


def multimodal_forward(encoder: PatchEncoder, projector: MlpProjector,
                       lm: LanguageModel, image: np.ndarray,
                       prompt_ids: list[int]) -> MultimodalOutput:
    """image + prompt tokens -> LM forward over [visual || text].

    The full last-layer hidden states (visual positions included) are exposed
    for the policy head; logits are returned for the text positions only.
    """
    return multimodal_forward_packed(encoder, projector, lm, [image], [prompt_ids])


def multimodal_forward_packed(encoder: PatchEncoder, projector: MlpProjector,
                              lm: LanguageModel, images: list[np.ndarray],
                              prompts: list[list[int]]) -> MultimodalOutput:
    """B (image, prompt tokens) pairs -> one LM forward over [v_1 || t_1 ||
    v_2 || t_2 || ...], with one gather of the text rows and one `lm_head`.

    Each pair is its own sequence: the LM takes the pairs' first rows as
    `starts`, so no state or conv context crosses from one pair into the
    next, and each pair's rows equal those of its own forward up to
    rounding.  One pair is the same path with starts [0].  hidden and
    text_logits hold the pairs in order.
    """
    if len(images) != len(prompts) or len(images) == 0:
        raise ValueError(f"multimodal_forward: needs as many images as prompts, at "
                         f"least one; got {len(images)} and {len(prompts)}")
    pieces, starts, text_rows = [], [], []
    offset = 0
    for image, ids in zip(images, prompts):
        if len(ids) == 0:
            raise ValueError("multimodal_forward: prompt must contain at least one token")
        f_v_lm = projector.project(encoder.encode(image))
        n_vis = f_v_lm.shape[0]
        pieces += [f_v_lm, lm.embed_tokens(ids)]
        starts.append(offset)
        text_rows.append(np.arange(offset + n_vis, offset + n_vis + len(ids)))
        offset += n_vis + len(ids)
    hidden, state = lm.forward_embedded(dc.concat(pieces, axis=0), None, starts)
    text_logits = dc.matmul(dc.gather_rows(hidden, np.concatenate(text_rows)), lm.lm_head)
    return MultimodalOutput(hidden=hidden, text_logits=text_logits, state=state)


def generate_greedy_multimodal(encoder: PatchEncoder, projector: MlpProjector,
                               lm: LanguageModel, image: np.ndarray,
                               prompt_ids: list[int], max_new: int,
                               eos_id: int | None = None) -> list[int]:
    """Greedy decode conditioned on an image prefix; returns only new ids."""
    out_mm = multimodal_forward(encoder, projector, lm, image, prompt_ids)
    return greedy_continue(lm, out_mm.text_logits, out_mm.state, max_new, eos_id)

"""Mamba-style language model built from diffcore primitives.

A block is: pre-norm -> in_proj -> split into (signal, gate); the signal
passes a causal depthwise conv with its bias and SiLU, then a selective scan
whose (B_t, C_t, dt_t) are projected pointwise from the post-conv
activations; the scan output plus a learned skip D.u is gated by silu(gate)
and projected back, with a residual connection.  The scan is exact ZOH
rewritten as Bbar = (Abar - 1) . B / A, exact because A = -exp(A_log) never
crosses zero, then the recurrence, whose backward is one reverse-time
adjoint sweep.

A block is 4 tape nodes at any length: layer-norm (with its gain and bias),
the in_proj matmul, one diffcore `mamba-inner` node for everything after
in_proj (the conv, x_proj, dt_proj, the scan with its delta bias and
softplus, D.u skip and gate, and out_proj), and the residual add.  That node
has the interface of Mamba's mamba_inner_fn (Gu & Dao 2023, arXiv
2312.00752).  Embedding is one gather-rows node, and the final norm one
layer-norm.

Generation carries a ScanState (per-block SSM state + conv context), so
decoding one token costs O(1) in sequence length and reuses the exact same
forward routine as training.  Training packs a batch into one sequence: the
forward takes each sequence's first row as `starts`, Mamba-2's seq_idx (Dao &
Gu 2024, arXiv 2405.21060), and one sequence is starts = [0].  A carried
state belongs to the first sequence; the state returned continues the last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from mambavla import diffcore as dc
from mambavla.config import ModelConfig, is_integer
from mambavla.diffcore import Tensor

__all__ = [
    "WordTokenizer",
    "MambaBlock",
    "LanguageModel",
    "BlockState",
    "ScanState",
    "greedy_continue",
]

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class WordTokenizer:
    """Word-level tokenizer with a corpus-built vocabulary.

    Ids 0..2 are reserved for <unk>, <bos>, <eos>.  Punctuation splits into
    its own tokens; `decode` re-attaches punctuation without a leading space
    so decode(encode(t)) == t for texts made of space-separated words with
    trailing punctuation.
    """

    UNK, BOS, EOS = 0, 1, 2
    RESERVED = ("<unk>", "<bos>", "<eos>")

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(self.RESERVED) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("tokenizer: duplicate tokens in vocabulary")

    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    @classmethod
    def build(cls, corpus: list[str], max_vocab: int = 2048) -> "WordTokenizer":
        """Frequency-ranked vocabulary (ties alphabetical), capped at max_vocab."""
        if not (is_integer(max_vocab) and max_vocab >= len(cls.RESERVED)):
            raise ValueError(f"tokenizer: max_vocab must be an integer >= "
                             f"{len(cls.RESERVED)} (the reserved ids), got {max_vocab!r}")
        counts: dict[str, int] = {}
        for text in corpus:
            for tok in _TOKEN_RE.findall(text):
                counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(counts, key=lambda t: (-counts[t], t))
        room = max_vocab - len(cls.RESERVED)
        return cls(ranked[:room])

    def encode(self, text: str) -> list[int]:
        return [self.token_to_id.get(tok, self.UNK) for tok in _TOKEN_RE.findall(text)]

    def decode(self, ids: list[int]) -> str:
        parts: list[str] = []
        for i in ids:
            if not (0 <= i < len(self.id_to_token)):
                raise ValueError(f"tokenizer: id {i} outside vocabulary "
                                 f"of size {len(self.id_to_token)}")
            if i in (self.BOS, self.EOS):
                continue
            tok = self.id_to_token[i]
            if parts and _TOKEN_RE.fullmatch(tok) and not re.match(r"\w", tok):
                parts[-1] += tok              # punctuation binds left
            else:
                parts.append(tok)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# block


@dataclass
class BlockState:
    """One block's carry, as the primitives return it: marked no-grad
    Tensors, so the next step does not rescan them."""
    h: Tensor         # [E, N] SSM state
    conv_ctx: Tensor  # [w-1, E] trailing pre-conv activations


@dataclass
class ScanState:
    blocks: list[BlockState] = field(default_factory=list)


class MambaBlock:
    """One residual selective-SSM block over [L, d_model] sequences."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        M, E, N = cfg.d_model, cfg.d_inner, cfg.d_state
        R, w = cfg.dt_rank, cfg.d_conv
        self.cfg = cfg

        self.ln_g = dc.param(np.ones(M), dtype)
        self.ln_b = dc.param(np.zeros(M), dtype)
        self.in_proj = dc.param(rng.normal(0.0, M ** -0.5, size=(M, 2 * E)), dtype)
        self.conv_w = dc.param(rng.normal(0.0, w ** -0.5, size=(w, E)), dtype)
        self.conv_b = dc.param(np.zeros(E), dtype)
        self.x_proj = dc.param(rng.normal(0.0, E ** -0.5, size=(E, R + 2 * N)), dtype)
        self.dt_proj = dc.param(rng.uniform(-R ** -0.5, R ** -0.5, size=(R, E)), dtype)
        # softplus(dt_bias) uniform in [0.001, 0.1]
        self.dt_bias = dc.param(np.log(np.expm1(
            np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=E)))), dtype)
        # A = -exp(A_log) initialized to -(1..N) on every channel
        self.A_log = dc.param(
            np.tile(np.log(np.arange(1, N + 1, dtype=np.float64)), (E, 1)), dtype)
        self.D_skip = dc.param(np.ones(E), dtype)
        self.out_proj = dc.param(rng.normal(0.0, E ** -0.5, size=(E, M)), dtype)

    def named_params(self):
        yield "ln_g", self.ln_g
        yield "ln_b", self.ln_b
        yield "in_proj", self.in_proj
        yield "conv_w", self.conv_w
        yield "conv_b", self.conv_b
        yield "x_proj", self.x_proj
        yield "dt_proj", self.dt_proj
        yield "dt_bias", self.dt_bias
        yield "A_log", self.A_log
        yield "D_skip", self.D_skip
        yield "out_proj", self.out_proj

    def forward(self, x: Tensor, state: BlockState | None = None, starts=None
                ) -> tuple[Tensor, BlockState]:
        """x [L, d_model] -> (x + block(x), carry) over the sequences that
        begin at starts (None is one); state is the first one's carry, each
        later one starts from zeros, and the carry returned continues the last."""
        xz = dc.matmul(dc.layer_norm(x, self.ln_g, self.ln_b), self.in_proj)   # [L, 2E]
        out, h, conv_ctx = dc.mamba_inner(
            xz, self.conv_w, self.conv_b, self.x_proj, self.dt_proj, self.dt_bias,
            self.A_log, self.D_skip, self.out_proj, None if state is None else state.h,
            None if state is None else state.conv_ctx, starts)
        return dc.add(x, out), BlockState(h=h, conv_ctx=conv_ctx)


# ---------------------------------------------------------------------------
# language model


class LanguageModel:
    """Token embedding, K Mamba blocks, final norm, vocabulary head."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.embed = dc.param(rng.normal(0.0, 0.02, size=(cfg.vocab_size, cfg.d_model)), dtype)
        self.blocks = [MambaBlock(cfg, rng, dtype) for _ in range(cfg.n_blocks)]
        self.lnf_g = dc.param(np.ones(cfg.d_model), dtype)
        self.lnf_b = dc.param(np.zeros(cfg.d_model), dtype)
        self.lm_head = dc.param(rng.normal(0.0, cfg.d_model ** -0.5,
                                           size=(cfg.d_model, cfg.vocab_size)), dtype)

    def named_params(self):
        yield "embed", self.embed
        for i, blk in enumerate(self.blocks):
            for name, p in blk.named_params():
                yield f"blocks.{i}.{name}", p
        yield "lnf_g", self.lnf_g
        yield "lnf_b", self.lnf_b
        yield "lm_head", self.lm_head

    def embed_tokens(self, ids: list[int]) -> Tensor:
        """Rows of the embedding table, one `gather-rows` node; an id outside
        the vocabulary raises ShapeError."""
        return dc.gather_rows(self.embed, ids)

    def forward_embedded(self, x: Tensor, state: ScanState | None = None,
                         starts=None) -> tuple[Tensor, ScanState]:
        """Run blocks over pre-embedded inputs.

        Returns (hidden [L, d_model] post final norm, state); callers apply
        `lm_head` to the rows they read.  starts and state are as in
        `MambaBlock.forward`: no state or conv context crosses a start.
        """
        new_state = ScanState()
        for i, blk in enumerate(self.blocks):
            x, bs = blk.forward(x, None if state is None else state.blocks[i], starts)
            new_state.blocks.append(bs)
        return dc.layer_norm(x, self.lnf_g, self.lnf_b), new_state

    def lm_forward(self, ids: list[int], state: ScanState | None = None
                   ) -> tuple[Tensor, ScanState]:
        """Token ids -> logits [L, V] (next-token scores at each position)."""
        if len(ids) == 0:
            raise ValueError("lm_forward: empty token sequence")
        hidden, new_state = self.forward_embedded(self.embed_tokens(ids), state)
        return dc.matmul(hidden, self.lm_head), new_state


def greedy_continue(lm: LanguageModel, logits: Tensor, state: ScanState,
                    max_new: int, eos_id: int | None = None) -> list[int]:
    """Greedy decode loop after a prefill that returned (logits, state).

    The first new id is the argmax of the prefill's last logits row; each
    later one feeds the previous id through `lm_forward` with the carried
    state.  Returns only the new ids, stopping after eos_id if given.
    """
    out: list[int] = []
    next_id = int(np.argmax(logits.data[-1]))
    for _ in range(max_new):
        out.append(next_id)
        if eos_id is not None and next_id == eos_id:
            break
        logits, state = lm.lm_forward([next_id], state)
        next_id = int(np.argmax(logits.data[-1]))
    return out

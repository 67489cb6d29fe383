"""Mamba block / language model: causality, state carry, tokenizer, decoding."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mamba_reference
import ssm_reference as ref
from mambavla import diffcore as dc
from mambavla import mamba
from mambavla.config import ModelConfig


def tiny_cfg(**kw) -> ModelConfig:
    base = dict(vocab_size=16, d_model=16, n_blocks=2, d_state=4, d_conv=4,
                expand=2, dt_rank=2, image_size=32, patch_size=8, d_vis=8)
    base.update(kw)
    return ModelConfig(**base)


def tiny_lm(seed=0, dtype=np.float32, **kw) -> mamba.LanguageModel:
    return mamba.LanguageModel(tiny_cfg(**kw), np.random.default_rng(seed), dtype=dtype)


def generate_greedy(lm, prefix_ids, max_new, eos_id=None):
    """Greedy decode of a text prefix: its prefill, then `greedy_continue`."""
    logits, state = lm.lm_forward(prefix_ids)
    return mamba.greedy_continue(lm, logits, state, max_new, eos_id)


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenizer_reserved_ids():
    tok = mamba.WordTokenizer.build(["open the drawer"])
    assert tok.id_to_token[:3] == ["<unk>", "<bos>", "<eos>"]
    assert tok.UNK == 0 and tok.BOS == 1 and tok.EOS == 2


def test_tokenizer_unknown_word_maps_to_unk():
    tok = mamba.WordTokenizer.build(["open the drawer"])
    ids = tok.encode("close the drawer")
    assert ids[0] == tok.UNK
    assert tok.decode(tok.encode("open the drawer")) == "open the drawer"


def test_tokenizer_vocab_cap():
    corpus = [" ".join(f"w{i}" for i in range(5000))]
    tok = mamba.WordTokenizer.build(corpus, max_vocab=2048)
    assert tok.vocab_size <= 2048


@pytest.mark.parametrize("max_vocab", [2, 0, -1])
def test_tokenizer_rejects_a_cap_below_the_reserved_ids(max_vocab):
    # unchecked, max_vocab=2 slices with a negative bound and keeps 7 tokens
    corpus = ["open the drawer and pull the handle now"]
    with pytest.raises(ValueError, match="max_vocab"):
        mamba.WordTokenizer.build(corpus, max_vocab=max_vocab)
    assert mamba.WordTokenizer.build(corpus, max_vocab=3).vocab_size == 3
    assert mamba.WordTokenizer.build(corpus, max_vocab=4).vocab_size == 4


@pytest.mark.parametrize("max_vocab", [100.0, np.float64(60), "5", None], ids=repr)
def test_tokenizer_rejects_a_non_integer_cap(max_vocab):
    # unchecked, a float cap failed as "slice indices must be integers" and
    # "5" or None as a TypeError from the comparison
    with pytest.raises(ValueError, match="max_vocab must be an integer"):
        mamba.WordTokenizer.build(["open the drawer"], max_vocab=max_vocab)
    assert mamba.WordTokenizer.build(["open the drawer"], max_vocab=np.int64(4)).vocab_size == 4


def test_tokenizer_punctuation_binds_left():
    tok = mamba.WordTokenizer.build(["pull the handle now ."])
    text = "pull the handle now."
    assert tok.decode(tok.encode(text)) == text


def test_tokenizer_bos_eos_wrap():
    tok = mamba.WordTokenizer.build(["a b"])
    ids = [tok.BOS] + tok.encode("a b") + [tok.EOS]
    assert ids[0] == tok.BOS and ids[-1] == tok.EOS
    assert tok.decode(ids) == "a b"


def test_tokenizer_decode_rejects_bad_id():
    tok = mamba.WordTokenizer.build(["a"])
    with pytest.raises(ValueError):
        tok.decode([999])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("open close pull push the a drawer door lid "
                                "handle red blue left right".split()),
                min_size=1, max_size=8),
       st.sampled_from(["", ".", "?", "!"]))
def test_tokenizer_roundtrip_over_toy_alphabet(words, punct):
    text = " ".join(words) + punct
    tok = mamba.WordTokenizer.build([text])
    assert tok.decode(tok.encode(text)) == text


# ---------------------------------------------------------------------------
# block mechanics


def test_block_initialization_ranges():
    cfg = tiny_cfg()
    blk = mamba.MambaBlock(cfg, np.random.default_rng(0), dtype=np.float64)
    # A = -exp(A_log) must be -(1..N) per channel
    A = -np.exp(blk.A_log.data)
    np.testing.assert_allclose(A, np.tile(-np.arange(1.0, cfg.d_state + 1),
                                          (cfg.d_inner, 1)), rtol=1e-12)
    # softplus(dt_bias) in [0.001, 0.1]
    dt0 = np.logaddexp(0.0, blk.dt_bias.data)
    assert dt0.min() >= 1e-3 - 1e-9 and dt0.max() <= 0.1 + 1e-9
    assert np.all(blk.D_skip.data == 1.0)


def test_block_preserves_shape_and_differs_from_input():
    blk = mamba.MambaBlock(tiny_cfg(), np.random.default_rng(1))
    x = dc.tensor(np.random.default_rng(2).standard_normal((7, 16)))
    y, state = blk.forward(x)
    assert y.shape == (7, 16)
    assert state.h.shape == (32, 4) and state.conv_ctx.shape == (3, 32)
    assert not np.allclose(y.data, x.data)


def test_block_residual_passthrough_with_zero_out_proj():
    blk = mamba.MambaBlock(tiny_cfg(), np.random.default_rng(1))
    blk.out_proj.data[:] = 0.0
    x = dc.tensor(np.random.default_rng(3).standard_normal((5, 16)))
    y, _ = blk.forward(x)
    np.testing.assert_array_equal(y.data, x.data)


def _select(blk, u):
    """A block's input-dependent (B, C, dt) from post-conv activations u
    [L, E], in numpy: the column windows of u x_proj, then dt_proj."""
    R, N = blk.cfg.dt_rank, blk.cfg.d_state
    sel = u @ blk.x_proj.data
    return sel[:, R:R + N], sel[:, R + N:], sel[:, :R] @ blk.dt_proj.data


def test_select_params_pointwise():
    blk = mamba.MambaBlock(tiny_cfg(), np.random.default_rng(4), dtype=np.float64)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((6, 32))
    B0, C0, d0 = _select(blk, u)
    bumped = u.copy()
    bumped[3] += 1.0
    B1, C1, d1 = _select(blk, bumped)
    for before, after in ((B0, B1), (C0, C1), (d0, d1)):
        assert np.array_equal(before[:3], after[:3])
        assert np.array_equal(before[4:], after[4:])
        assert not np.allclose(before[3], after[3])


def test_delta_is_strictly_positive():
    """The scan's delta = softplus(dt + dt_bias) on a block's own dt and
    dt_bias is > 0: with no input and h0 = 1, every state decays at every
    step, Abar = exp(delta A) < 1, so the summed readout falls strictly."""
    blk = mamba.MambaBlock(tiny_cfg(), np.random.default_rng(6), dtype=np.float64)
    B, _, dt = _select(blk, np.random.default_rng(7).standard_normal((9, 32)) * 3.0)
    L, E, N = 9, 32, 4
    const = lambda a: dc.tensor(a, np.float64)
    y, _ = mamba_reference.selective_scan(const(np.zeros((L, E))), const(dt), blk.A_log,
                                          const(B), const(np.ones((L, N))),
                                          const(np.zeros(E)), const(np.full((L, E), 64.0)),
                                          blk.dt_bias, h0=np.ones((E, N)))
    decay = y.data / 64.0             # silu(64) = 64: sum_n prod_{s<=t} Abar_s
    assert (decay[0] < N).all() and (np.diff(decay, axis=0) < 0).all()


# ---------------------------------------------------------------------------
# language model


def test_lm_forward_shapes_and_id_validation():
    lm = tiny_lm()
    logits, state = lm.lm_forward([1, 5, 3])
    assert logits.shape == (3, 16)
    assert len(state.blocks) == 2
    with pytest.raises(ValueError):
        lm.lm_forward([99])
    with pytest.raises(ValueError):
        lm.lm_forward([])


def test_causality_prefix_bit_identical():
    lm = tiny_lm(seed=8)
    ids = [1, 4, 7, 2, 9, 11]
    base, _ = lm.lm_forward(ids)
    bumped = list(ids)
    bumped[4] = 13
    after, _ = lm.lm_forward(bumped)
    assert np.array_equal(base.data[:4], after.data[:4])
    assert not np.allclose(base.data[4:], after.data[4:])


def test_incremental_state_matches_full_forward():
    # d_conv = 1 carries an empty conv context
    for d_conv in (4, 1):
        lm = tiny_lm(seed=9, dtype=np.float64, d_conv=d_conv)
        ids = [1, 4, 7, 2, 9]
        full, _ = lm.lm_forward(ids)
        logits, state = lm.lm_forward(ids[:2])
        rows = [logits.data[0], logits.data[1]]
        for t in range(2, len(ids)):
            logits, state = lm.lm_forward([ids[t]], state)
            rows.append(logits.data[0])
        np.testing.assert_allclose(np.stack(rows), full.data, rtol=1e-10, atol=1e-12)


def test_block_state_conv_context_owns_its_memory():
    blk = mamba.MambaBlock(tiny_cfg(), np.random.default_rng(10))
    rng = np.random.default_rng(11)
    _, state = blk.forward(dc.tensor(rng.standard_normal((7, 16))))
    _, step = blk.forward(dc.tensor(rng.standard_normal((1, 16))), state)
    for s in (state, step):
        assert s.conv_ctx.shape == (3, 32)
        assert s.conv_ctx.data.base is None   # not a view into a longer array
    # the carried window slides by one row per decoded token
    np.testing.assert_array_equal(step.conv_ctx.data[:2], state.conv_ctx.data[1:])


def test_generate_greedy_deterministic_and_stops_at_eos():
    lm = tiny_lm(seed=11)
    a = generate_greedy(lm, [1, 5], max_new=8)
    b = generate_greedy(lm, [1, 5], max_new=8)
    assert a == b and len(a) == 8
    # treat the last first-occurrence token as eos: decode must stop right there
    k = max(i for i in range(len(a)) if a[i] not in a[:i])
    forced = generate_greedy(lm, [1, 5], max_new=8, eos_id=a[k])
    assert forced == a[:k + 1]


def test_greedy_argmax_ties_take_lowest_id():
    lm = tiny_lm(seed=12)
    # collapse the head so every token scores identically -> argmax must pick id 0
    lm.lm_head.data[:] = 0.0
    out = generate_greedy(lm, [1], max_new=2)
    assert out == [0, 0]


def test_generation_matches_repeated_full_forward():
    lm = tiny_lm(seed=13)
    prefix = [1, 6, 3]
    fast = generate_greedy(lm, prefix, max_new=6)
    slow_ids = list(prefix)
    slow = []
    for _ in range(6):
        logits, _ = lm.lm_forward(slow_ids)
        nxt = int(np.argmax(logits.data[-1]))
        slow.append(nxt)
        slow_ids.append(nxt)
    assert fast == slow


def test_lm_overfit_memorizes_continuation():
    # SGD on -log p reproduces a memorized two-token continuation
    lm = tiny_lm(seed=14, dtype=np.float64)
    seq = [1, 4, 9, 2]                      # predict 4,9,eos after [1,4,9]
    params = [p for _, p in lm.named_params()]
    for _ in range(150):
        logits, _ = lm.lm_forward(seq[:-1])
        logp = dc.log_softmax_rows(logits)
        picks = [dc.tslice(dc.tslice(logp, 0, t, t + 1), 1, tgt, tgt + 1)
                 for t, tgt in enumerate(seq[1:])]
        loss = dc.mul(dc.mean_pool(dc.concat(picks, axis=0)),
                      dc.tensor(-1.0, dtype=np.float64))
        dc.backward(loss)
        for p in params:
            if p.grad is not None:
                p.data = p.data - 0.5 * p.grad
    out = generate_greedy(lm, [1], max_new=3, eos_id=2)
    assert out == [4, 9, 2]


def _unfused_block(blk, x, state=None):
    """A float32 MambaBlock forward as the composition the fused conv and
    scan replace, in numpy in the operation order of the removed nodes: the
    conv, + conv_b, silu; dt_proj + dt_bias, softplus; the scan with its
    D u skip; times silu(gate).  state is (h, conv_ctx) arrays or None.
    Returns (out, h_final, conv_ctx)."""
    cfg = blk.cfg
    E, N, R, w = cfg.d_inner, cfg.d_state, cfg.dt_rank, cfg.d_conv
    L = x.shape[0]
    h0, ctx = state if state is not None else (np.zeros((E, N), x.dtype),
                                               np.zeros((w - 1, E), x.dtype))
    cols = lambda a, start, stop: np.ascontiguousarray(a[:, start:stop])
    proj = dc.layer_norm(dc.tensor(x), blk.ln_g, blk.ln_b).data @ blk.in_proj.data
    u_pre, gate = cols(proj, 0, E), cols(proj, E, 2 * E)
    xp = np.concatenate([ctx, u_pre])
    conv = np.zeros_like(u_pre)
    for i in range(w):
        conv += blk.conv_w.data[i] * xp[i:i + L]
    u = ref.silu(conv + blk.conv_b.data)
    sel = u @ blk.x_proj.data
    dt_low, B, C = cols(sel, 0, R), cols(sel, R, R + N), cols(sel, R + N, R + 2 * N)
    delta = ref.softplus(dt_low @ blk.dt_proj.data + blk.dt_bias.data)
    Abar = np.exp(delta[:, :, None] * -np.exp(blk.A_log.data))
    Bbar = (Abar - 1.0) * -np.exp(-blk.A_log.data) * B[:, None, :]
    y, h = ref._scan_per_step(Abar, Bbar, C, u, h0)
    y = (y + u * blk.D_skip.data) * ref.silu(gate)
    return x + y @ blk.out_proj.data, h, xp[L:]


def test_block_forward_matches_unfused_composition():
    """Folding the conv's bias and SiLU, and the delta bias, softplus and
    gate into the scan, leaves a float32 block bit-identical in output and
    carry, in prefill and over 8 carried decode steps."""
    blk = mamba.MambaBlock(tiny_cfg(), np.random.default_rng(21))
    rng = np.random.default_rng(22)
    blk.conv_b.data = rng.standard_normal(32).astype(np.float32)
    blk.D_skip.data = rng.standard_normal(32).astype(np.float32)
    x = rng.standard_normal((7, 16)).astype(np.float32)
    out, state = blk.forward(dc.tensor(x))
    carry = None
    for step in range(9):
        ref_out, h, ctx = _unfused_block(blk, x, carry)
        assert out.dtype == np.float32
        assert np.array_equal(out.data, ref_out), step
        assert np.array_equal(state.h.data, h) and np.array_equal(state.conv_ctx.data, ctx)
        carry = (h, ctx)
        x = rng.standard_normal((1, 16)).astype(np.float32)
        out, state = blk.forward(dc.tensor(x), state)


def test_block_tape_nodes_do_not_grow_with_length():
    blk = mamba.MambaBlock(tiny_cfg(), np.random.default_rng(16))
    rng = np.random.default_rng(17)
    counts = [dc.tape_nodes(blk.forward(dc.tensor(rng.standard_normal((L, 16))))[0])
              for L in (4, 64)]
    assert counts[0] == counts[1] > 0, counts


def test_decode_step_tape_nodes_do_not_grow_with_prefix():
    lm = tiny_lm(seed=18)
    rng = np.random.default_rng(19)
    counts = []
    for n in (2, 40):
        _, state = lm.lm_forward(rng.integers(0, 16, size=n).tolist())
        logits, _ = lm.lm_forward([5], state)
        counts.append(dc.tape_nodes(logits))
    assert counts[0] == counts[1] > 0, counts


def test_decode_step_scans_each_array_once(scanned_sizes):
    """One decode step on the default config passes fewer than 75,000
    elements to np.isfinite: parameters, node outputs and the carried state
    are checked once, not at every use, and the scan's A is derived once
    (rescanning every input read 3,308,544; checking the carry and A at
    every step read 155,008)."""
    lm = mamba.LanguageModel(ModelConfig(), np.random.default_rng(20))
    _, state = lm.lm_forward([1, 5, 9, 13])
    scanned_sizes.clear()
    lm.lm_forward([7], state)
    assert 0 < sum(scanned_sizes) < 75_000, sum(scanned_sizes)


def test_decode_step_builds_27_nodes(monkeypatch):
    """A default-config decode step makes 4 nodes per block (the norm with
    its gain and bias, the in_proj matmul, one mamba-inner for everything
    after in_proj, and the residual add), plus the embedding gather, the
    final norm and the vocabulary head."""
    lm = mamba.LanguageModel(ModelConfig(), np.random.default_rng(20))
    _, state = lm.lm_forward([1, 5, 9, 13])
    kinds = []
    make_node = dc._make_node

    def spy(kind, *args):
        kinds.append(kind)
        return make_node(kind, *args)

    monkeypatch.setattr(dc, "_make_node", spy)
    lm.lm_forward([7], state)
    assert len(kinds) == 4 * 6 + 3 == 27, kinds
    assert kinds.count("mamba-inner") == 6


def test_block_is_bit_identical_to_its_13_node_composition():
    """A float32 block equals the 13 nodes it fuses bit for bit: output,
    carries and every parameter's and the input's gradient, over a packed
    prefill and a carried decode step."""
    cfg = tiny_cfg()
    runs = []
    for forward in (mamba.MambaBlock.forward, mamba_reference.block_composition):
        blk = mamba.MambaBlock(cfg, np.random.default_rng(24))
        blk.conv_b.data = np.random.default_rng(25).standard_normal(32).astype(np.float32)
        x = dc.tensor(np.random.default_rng(26).standard_normal((9, 16)), requires_grad=True)
        out, state = forward(blk, x, None, [0, 4, 7])
        x_next = dc.tensor(np.random.default_rng(23).standard_normal((1, 16)))
        step, carry = forward(blk, x_next, state)
        readout = dc.tensor(np.random.default_rng(27).standard_normal((10, 16)))
        dc.backward(dc.mean_pool(dc.mul(dc.concat([out, step]), readout)))
        runs.append([out.data, step.data, carry.h.data, carry.conv_ctx.data, x.grad]
                    + [p.grad for _, p in blk.named_params()])
    for i, (got, want) in enumerate(zip(*runs)):
        assert got.dtype == np.float32 and np.array_equal(got, want), i


def test_lm_forward_time_scales_linearly():
    lm = tiny_lm(seed=15, d_model=32, n_blocks=2, d_state=4, vocab_size=32)
    lengths = [512, 1024, 2048, 4096, 8192]
    rng = np.random.default_rng(0)
    id_lists = [rng.integers(0, 32, size=L).tolist() for L in lengths]
    for ids in id_lists:
        lm.lm_forward(ids)                  # warmup for each length
    # the repeats go round-robin across the lengths, so host-speed drift
    # reaches every length alike; best of 2 per length
    times = [math.inf] * len(lengths)
    for _ in range(2):
        for i, ids in enumerate(id_lists):
            times[i] = min(times[i], _timed(lm, ids))
    slope = np.polyfit(np.log(lengths), np.log(times), 1)[0]
    assert 0.8 <= slope <= 1.3, f"fitted slope {slope:.2f}, times {times}"


def _timed(lm, ids):
    # CPU time of this process: another process on the host does not count
    t0 = time.process_time()
    lm.lm_forward(ids)
    return time.process_time() - t0

"""Vision pipeline: patch encoding, projection and multimodal composition
order."""

import numpy as np
import pytest

from gradcheck import grad_check
from mambavla import diffcore as dc
from mambavla import vispipe
from mambavla.config import ModelConfig

RNG = np.random.default_rng(7)


def tiny_cfg(**kw) -> ModelConfig:
    base = dict(vocab_size=16, d_model=16, n_blocks=2, d_state=4, d_conv=4,
                expand=2, dt_rank=2, image_size=32, patch_size=8, d_vis=8,
                proj_hidden=12)
    base.update(kw)
    return ModelConfig(**base)


def tiny_stack(seed=0, dtype=np.float32, **kw):
    from mambavla.mamba import LanguageModel
    cfg = tiny_cfg(**kw)
    rng = np.random.default_rng(seed)
    enc = vispipe.PatchEncoder(cfg, rng, dtype=dtype)
    proj = vispipe.MlpProjector(cfg, rng, dtype=dtype)
    lm = LanguageModel(cfg, rng, dtype=dtype)
    return cfg, enc, proj, lm


def rand_image(side=32, seed=3):
    return np.random.default_rng(seed).random((side, side, 3))


# ---------------------------------------------------------------------------
# patch encoder


def test_patch_count_32x32_p8_gives_16_tokens():
    cfg, enc, _, _ = tiny_stack()
    out = enc.encode(rand_image())
    assert out.shape == (16, cfg.d_vis)


def test_zero_image_with_zero_pos_gives_bias_rows():
    _, enc, _, _ = tiny_stack()
    enc.pos.data[:] = 0.0
    enc.b_patch.data[:] = RNG.standard_normal(enc.b_patch.shape[0])
    out = enc.encode(np.zeros((32, 32, 3)))
    np.testing.assert_array_equal(out.data,
                                  np.tile(enc.b_patch.data, (16, 1)))


def test_swapping_two_patches_swaps_exactly_two_tokens():
    _, enc, _, _ = tiny_stack()
    enc.pos.data[:] = 0.0          # positional add would break locality
    img = rand_image()
    swapped = img.copy()
    # patch (0,0) <-> patch (1,2): raster indices 0 and 6
    swapped[0:8, 0:8], swapped[8:16, 16:24] = (img[8:16, 16:24].copy(),
                                               img[0:8, 0:8].copy())
    a = enc.encode(img).data
    b = enc.encode(swapped).data
    np.testing.assert_array_equal(b[0], a[6])
    np.testing.assert_array_equal(b[6], a[0])
    untouched = [i for i in range(16) if i not in (0, 6)]
    np.testing.assert_array_equal(b[untouched], a[untouched])


def test_encode_rejects_bad_shapes():
    _, enc, _, _ = tiny_stack()
    with pytest.raises(dc.ShapeError):
        enc.encode(np.zeros((30, 30, 3)))       # not divisible by 8
    with pytest.raises(dc.ShapeError):
        enc.encode(np.zeros((32, 16, 3)))       # not square
    with pytest.raises(dc.ShapeError):
        enc.encode(np.zeros((32, 32)))          # missing channels
    with pytest.raises(dc.ShapeError):
        enc.encode(np.zeros((16, 16, 3)))       # divisible but wrong resolution


def _grey_with(value, dtype=np.float64):
    """A mid-grey image with one entry set to value."""
    image = np.full((32, 32, 3), 0.5, dtype)
    image[5, 9, 1] = value
    return image


@pytest.mark.parametrize("image, error, message", [
    (np.full((32, 32, 3), 128, np.uint8), dc.ShapeError, "uint8"),
    (np.full((32, 32, 3), True), dc.ShapeError, "bool"),
    (_grey_with(np.nan), dc.NonFiniteError, "non-finite"),
    (_grey_with(np.inf, np.float32), dc.NonFiniteError, "non-finite"),
    (_grey_with(255.0), ValueError, r"\[0, 1\]"),
    (_grey_with(-0.25, np.float32), ValueError, r"\[0, 1\]"),
], ids=["uint8", "bool", "nan", "inf", "above_1", "below_0"])
def test_encode_rejects_bad_images(image, error, message):
    # the image is checked where it enters, so the error names the image and
    # not the first primitive it would reach
    _, enc, _, _ = tiny_stack()
    with pytest.raises(error, match=f"encode: image.*{message}"):
        enc.encode(image)


def test_encode_accepts_the_range_edges():
    _, enc, _, _ = tiny_stack()
    for value in (0.0, 1.0):
        enc.encode(np.full((32, 32, 3), value, np.float32))


def test_encode_deterministic():
    _, enc, _, _ = tiny_stack()
    img = rand_image()
    np.testing.assert_array_equal(enc.encode(img).data, enc.encode(img).data)


# ---------------------------------------------------------------------------
# projector


def test_projector_zero_weights_is_constant_bias_map():
    cfg, enc, proj, _ = tiny_stack()
    proj.w1.data[:] = 0.0
    proj.w2.data[:] = 0.0
    proj.b2.data[:] = RNG.standard_normal(cfg.d_model)
    out = proj.project(enc.encode(rand_image()))
    np.testing.assert_allclose(out.data, np.tile(proj.b2.data, (16, 1)),
                               rtol=0, atol=0)


def test_projector_tokenwise_independence():
    cfg, _, proj, _ = tiny_stack(dtype=np.float64)
    base = RNG.standard_normal((16, cfg.d_vis))
    bumped = base.copy()
    bumped[5] += 1.0
    a = proj.project(dc.tensor(base, dtype=np.float64)).data
    b = proj.project(dc.tensor(bumped, dtype=np.float64)).data
    assert not np.allclose(a[5], b[5])
    rest = [i for i in range(16) if i != 5]
    np.testing.assert_array_equal(a[rest], b[rest])


def test_projector_gradient_matches_finite_differences():
    cfg, _, proj, _ = tiny_stack(dtype=np.float64)
    feats = RNG.standard_normal((4, cfg.d_vis))
    mix = RNG.standard_normal((4, cfg.d_model))

    def loss(w1):
        proj.w1 = w1
        out = proj.project(dc.tensor(feats, dtype=np.float64))
        return dc.mean_pool(dc.mul(out, dc.tensor(mix, dtype=np.float64)))

    err = grad_check(loss, dc.tensor(proj.w1.data.copy(), dtype=np.float64))
    assert err <= 1e-4, f"projector grad rel err {err:.3e}"


def test_projector_rejects_wrong_width():
    _, _, proj, _ = tiny_stack()
    with pytest.raises(dc.ShapeError):
        proj.project(dc.tensor(np.zeros((16, 5)), dtype=np.float32))


# ---------------------------------------------------------------------------
# multimodal forward


def test_sequence_length_is_visual_plus_text():
    cfg, enc, proj, lm = tiny_stack()
    out = vispipe.multimodal_forward(enc, proj, lm, rand_image(), [1, 5, 9, 2, 3])
    assert cfg.n_patches == 16
    assert out.hidden.shape == (21, cfg.d_model)
    assert out.text_logits.shape == (5, cfg.vocab_size)


def test_composition_order_encode_project_concat_lm(monkeypatch):
    from mambavla.mamba import LanguageModel
    _, enc, proj, lm = tiny_stack()
    image, ids = rand_image(), [1, 2]
    visual_then_text = np.concatenate([proj.project(enc.encode(image)).data,
                                       lm.embed_tokens(ids).data])
    calls = []                      # (method, first argument), on entry
    for cls, name in ((vispipe.PatchEncoder, "encode"),
                      (vispipe.MlpProjector, "project"),
                      (LanguageModel, "embed_tokens"),
                      (LanguageModel, "forward_embedded")):
        def spy(self, arg, *rest, _method=getattr(cls, name), _name=name):
            calls.append((_name, arg))
            return _method(self, arg, *rest)
        monkeypatch.setattr(cls, name, spy)
    vispipe.multimodal_forward(enc, proj, lm, image, ids)
    assert [name for name, _ in calls] == ["encode", "project", "embed_tokens",
                                           "forward_embedded"]
    # the LM reads the concatenation [visual || text]
    np.testing.assert_array_equal(calls[-1][1].data, visual_then_text)


def _pair_rows(prompts, i, n_vis=16):
    """Pair i's rows of the packed hidden states and of the text logits."""
    text = np.cumsum([0] + [len(ids) for ids in prompts])
    return (slice(text[i] + i * n_vis, text[i + 1] + (i + 1) * n_vis),
            slice(text[i], text[i + 1]))


def test_packed_pairs_equal_their_own_forwards():
    _, enc, proj, lm = tiny_stack(dtype=np.float64)
    images = [rand_image(seed=s) for s in (1, 2, 3)]
    prompts = [[1, 5], [2, 7, 9, 3, 4], [6]]
    out = vispipe.multimodal_forward_packed(enc, proj, lm, images, prompts)
    assert out.hidden.shape == (3 * 16 + 8, 16)
    for i, (image, ids) in enumerate(zip(images, prompts)):
        alone = vispipe.multimodal_forward(enc, proj, lm, image, ids)
        rows, text = _pair_rows(prompts, i)
        np.testing.assert_allclose(out.hidden.data[rows], alone.hidden.data, rtol=1e-12)
        np.testing.assert_allclose(out.text_logits.data[text], alone.text_logits.data,
                                   rtol=1e-12)
    # the carry continues the last pair
    for packed_blk, alone_blk in zip(out.state.blocks, alone.state.blocks):
        np.testing.assert_allclose(packed_blk.h.data, alone_blk.h.data, rtol=1e-12)
        np.testing.assert_allclose(packed_blk.conv_ctx.data, alone_blk.conv_ctx.data,
                                   rtol=1e-12)


def test_packed_pairs_do_not_leak():
    """A different image and prompt in the first pair change no row of the
    pairs after it."""
    _, enc, proj, lm = tiny_stack()
    prompts = [[1, 5, 9], [2, 7, 3, 4], [6, 8]]
    outs = [vispipe.multimodal_forward_packed(
        enc, proj, lm, [rand_image(seed=first), rand_image(seed=2), rand_image(seed=3)],
        [[first, 5, 9]] + prompts[1:]) for first in (1, 4)]
    rows, text = _pair_rows(prompts, 0)
    assert not np.array_equal(outs[0].hidden.data[rows], outs[1].hidden.data[rows])
    after, text_after = slice(rows.stop, None), slice(text.stop, None)
    assert np.array_equal(outs[0].hidden.data[after], outs[1].hidden.data[after])
    assert np.array_equal(outs[0].text_logits.data[text_after],
                          outs[1].text_logits.data[text_after])


def test_multimodal_forward_node_count(monkeypatch):
    """One pair is the single-sequence graph: encoder (3 nodes), projector
    (5), embedding gather, concat, 4 per block, final norm, the text-row
    gather and the vocabulary head."""
    _, enc, proj, lm = tiny_stack()
    kinds = []
    make_node = dc._make_node

    def spy(kind, *args):
        kinds.append(kind)
        return make_node(kind, *args)

    monkeypatch.setattr(dc, "_make_node", spy)
    vispipe.multimodal_forward(enc, proj, lm, rand_image(), [1, 5, 9])
    assert len(kinds) == 3 + 5 + 1 + 1 + 4 * 2 + 1 + 1 + 1


def test_packed_forward_needs_one_prompt_per_image():
    _, enc, proj, lm = tiny_stack()
    for images, prompts in (([], []), ([rand_image()], [[1], [2]])):
        with pytest.raises(ValueError, match="as many images as prompts"):
            vispipe.multimodal_forward_packed(enc, proj, lm, images, prompts)
    with pytest.raises(ValueError, match="at least one token"):
        vispipe.multimodal_forward_packed(enc, proj, lm, [rand_image()] * 2, [[1], []])


def test_different_images_change_text_logits():
    _, enc, proj, lm = tiny_stack()
    a = vispipe.multimodal_forward(enc, proj, lm, rand_image(seed=1), [1, 5, 9])
    b = vispipe.multimodal_forward(enc, proj, lm, rand_image(seed=2), [1, 5, 9])
    assert not np.allclose(a.text_logits.data, b.text_logits.data)


def test_image_gradient_reaches_patch_embedding():
    _, enc, proj, lm = tiny_stack()
    out = vispipe.multimodal_forward(enc, proj, lm, rand_image(), [1, 5])
    grads = dc.backward(dc.mean_pool(out.text_logits))
    assert enc.w_patch in grads
    assert np.any(grads[enc.w_patch] != 0.0)


def test_empty_prompt_rejected():
    _, enc, proj, lm = tiny_stack()
    with pytest.raises(ValueError):
        vispipe.multimodal_forward(enc, proj, lm, rand_image(), [])


def test_multimodal_generation_matches_repeated_forward():
    _, enc, proj, lm = tiny_stack(seed=11)
    img = rand_image(seed=4)
    prompt = [1, 7]
    got = vispipe.generate_greedy_multimodal(enc, proj, lm, img, prompt, max_new=6)

    # reference: re-run the full multimodal forward for every grown sequence
    ids = list(prompt)
    want = []
    for _ in range(6):
        out = vispipe.multimodal_forward(enc, proj, lm, img, ids)
        nxt = int(np.argmax(out.text_logits.data[-1]))
        want.append(nxt)
        ids.append(nxt)
    assert got == want


def test_caption_overfit_distinguishes_images():
    """Co-training-style overfit (projector + LM trainable) on two
    (image, caption) pairs sharing the same text prompt: greedy decode must
    reproduce each caption from its own image, which is only possible when
    the visual pathway carries the distinguishing information."""
    cfg, enc, proj, lm = tiny_stack(seed=5, dtype=np.float64)
    bos = 1
    pairs = [(rand_image(seed=9), [4, 11, 7, 2]),     # captions end with eos
             (rand_image(seed=10), [8, 3, 2])]

    params = ([p for _, p in proj.named_params()]
              + [p for _, p in lm.named_params()])
    m = [np.zeros_like(p.data) for p in params]
    v = [np.zeros_like(p.data) for p in params]
    lr = 0.01
    for step in range(1, 201):
        picks = []
        for img, caption in pairs:
            out = vispipe.multimodal_forward(enc, proj, lm, img,
                                             [bos] + caption[:-1])
            logp = dc.log_softmax_rows(out.text_logits)
            picks += [dc.tslice(dc.tslice(logp, 0, t, t + 1), 1, c, c + 1)
                      for t, c in enumerate(caption)]
        loss = dc.mul(dc.mean_pool(dc.concat(picks, axis=0)),
                      dc.tensor(-1.0, dtype=np.float64))
        grads = dc.backward(loss)
        for i, p in enumerate(params):
            g = grads.get(p)
            if g is None:
                continue
            m[i] = 0.9 * m[i] + 0.1 * g
            v[i] = 0.999 * v[i] + 0.001 * g * g
            p.data -= lr * (m[i] / (1 - 0.9 ** step)) / (
                np.sqrt(v[i] / (1 - 0.999 ** step)) + 1e-8)
        if step % 25 == 0:
            decoded = [vispipe.generate_greedy_multimodal(
                enc, proj, lm, img, [bos], max_new=len(cap), eos_id=2)
                for img, cap in pairs]
            if all(d == c for d, (_, c) in zip(decoded, pairs)):
                break
    decoded = [vispipe.generate_greedy_multimodal(
        enc, proj, lm, img, [bos], max_new=len(cap), eos_id=2)
        for img, cap in pairs]
    wanted = [cap for _, cap in pairs]
    assert decoded == wanted, f"decoded {decoded}, wanted {wanted}"


"""Trainer tests: freeze masks, cross-entropy from primitives, AdamW
hand-checked values, stage runs with bit-identical frozen groups, checkpoint
roundtrips, and the parameter report."""

import math
import os
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcheck import grad_check, step_grad_check
from mambavla import datasets as ds
from mambavla import diffcore as dc
from mambavla import fileio, policy, trainer, vispipe
from mambavla.config import ModelConfig, StageHyperparams, TrainConfig
from mambavla.mamba import WordTokenizer


def tiny_cfg(**kw):
    base = dict(vocab_size=64, d_model=16, n_blocks=2, d_state=4, d_conv=4,
                expand=2, dt_rank=2, image_size=32, patch_size=8, d_vis=8,
                proj_hidden=12, head_hidden=8)
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(seed=0, **kw):
    return trainer.VlaModel(tiny_cfg(**kw), seed=seed)


def tokenizer():
    return WordTokenizer.build(ds.corpus_texts())


def snapshot(model):
    return {name: p.data.copy() for name, p in model.named_params()}


def groups_equal(model, snap, group):
    return all(np.array_equal(p.data, snap[name])
               for name, p in model.named_params()
               if name.startswith(group + "."))


# ---------------------------------------------------------------------------
# stage masks


def trainable_groups(model):
    return {name.split(".", 1)[0] for name, _ in model.named_params()
            if model.is_trainable(name)}


def test_stage_masks_exact():
    model = tiny_model()
    assert trainable_groups(model) == set()
    trainer.set_stage(model, "align")
    assert trainable_groups(model) == {"projector"}
    trainer.set_stage(model, "cotrain")
    assert trainable_groups(model) == {"projector", "lm"}
    assert "encoder" not in trainable_groups(model)
    trainer.set_stage(model, "manip")
    assert trainable_groups(model) == {"head"}


def test_unknown_stage_rejected():
    with pytest.raises(ValueError, match="stage"):
        trainer.set_stage(tiny_model(), "pretrain")


def test_every_param_in_exactly_one_group():
    model = tiny_model()
    names = [name for name, _ in model.named_params()]
    assert len(names) == len(set(names))
    assert all(name.split(".")[0] in trainer.GROUPS for name in names)


# ---------------------------------------------------------------------------
# requires_grad follows the stage


def test_requires_grad_follows_the_stage():
    model = tiny_model()
    for stage in (None,) + trainer.STAGES + ("align",):
        if stage is not None:
            trainer.set_stage(model, stage)
        flags = {name: p.requires_grad for name, p in model.named_params()}
        assert flags == {name: model.is_trainable(name) for name in flags}, stage
        assert any(flags.values()) == (stage is not None), stage


def test_manip_stage_forward_builds_no_tape():
    model = tiny_model()
    trainer.set_stage(model, "manip")
    tok = tokenizer()
    row = caption_row()
    out = vispipe.multimodal_forward(model.encoder, model.projector, model.lm,
                                     np.asarray(row["image"]),
                                     [tok.BOS] + tok.encode(row["prompt"]))
    logits, _ = model.lm.lm_forward([tok.BOS], out.state)
    for t in (out.hidden, logits):
        assert t._backward_fn is None and t._parents == () and not t.requires_grad


_STAGE_GROUPS = {"align": {"projector"}, "cotrain": {"projector", "lm"},
                 "manip": {"head"}}


def _two_rows(stage):
    if stage == "manip":
        return manip_rows(2)
    make = ds.make_caption_samples if stage == "align" else ds.make_instruct_samples
    return make(2, seed=0)


def _run_two_rows(model, stage, rows):
    return trainer.run_stage(model, stage, rows, epochs=1,
                             hyper=StageHyperparams(lr=1e-3, weight_decay=0.0, epochs=0),
                             train_cfg=TrainConfig(batch_size=2), tokenizer=tokenizer())


@pytest.mark.parametrize("stage", trainer.STAGES)
def test_run_stage_returns_an_inference_model(stage):
    """run_stage keeps the stage it ran as the model's mask but turns every
    flag off, so a prefill and a head forward after it build no tape.  With
    the flags left on, default-config align and cotrain built 33-34 nodes
    behind the prefill's logits, and every stage 34-68 behind the head's
    rotation."""
    model = tiny_model()
    _run_two_rows(model, stage, _two_rows(stage))
    assert not any(p.requires_grad for _, p in model.named_params())
    assert all(p.grad is None for _, p in model.named_params())
    assert model.stage == stage
    assert trainer.param_report(model)["trainable"] == sum(
        p.data.size for name, p in model.named_params()
        if name.split(".", 1)[0] in _STAGE_GROUPS[stage])
    tok = tokenizer()
    row = caption_row()
    out = vispipe.multimodal_forward(model.encoder, model.projector, model.lm,
                                     np.asarray(row["image"]),
                                     [tok.BOS] + tok.encode(row["prompt"]))
    assert dc.tape_nodes(out.text_logits) == 0
    assert dc.tape_nodes(model.head.forward(policy.pool_global_token(out.hidden)).rot) == 0


@pytest.mark.parametrize("stage", trainer.STAGES)
def test_a_stage_run_that_raises_leaves_no_flag_on(stage):
    """A schema-valid row whose image holds a NaN raises in the encoder,
    after the stage is set: in the first step, or in the manip feature
    cache."""
    rows = _two_rows(stage)
    rows[1]["image"][0, 0, 0] = np.nan
    model = tiny_model()
    with pytest.raises(dc.NonFiniteError, match="encode"):
        _run_two_rows(model, stage, rows)
    assert model.stage == stage
    assert not any(p.requires_grad for _, p in model.named_params())


@pytest.mark.parametrize("stage, modes", [("align", [False, False]),
                                          ("cotrain", [True, True]), ("manip", [])])
def test_mamba_backward_forms_parameter_gradients_only_when_they_train(monkeypatch, stage,
                                                                       modes):
    """mamba-inner forms its parameters' gradients only when one of them
    trains: an align step passes need_params=False to both kernels'
    backwards at each of the 2 blocks, a cotrain step True, and a manip
    step, behind its frozen backbone, runs neither."""
    calls = {"_scan_backward": [], "_conv_backward": []}
    for name, seen in calls.items():
        def spy(g, saved, need_params, kernel=getattr(dc, name), seen=seen):
            seen.append(need_params)
            return kernel(g, saved, need_params)
        monkeypatch.setattr(dc, name, spy)
    metrics, _ = _run_two_rows(tiny_model(), stage, _two_rows(stage))
    assert len(metrics) == 1
    assert calls == {"_scan_backward": modes, "_conv_backward": modes}


def _sample_loss(model, tok, row):
    """One row's align/cotrain loss on its own graph: the per-sample
    composition that the packed batch loss must match."""
    inputs, targets, n_prompt = trainer._encode_pair(tok, row["prompt"], row["answer"])
    out = vispipe.multimodal_forward(model.encoder, model.projector, model.lm,
                                     np.asarray(row["image"]), inputs)
    # the mean over the answer targets
    weights = (np.arange(len(targets)) >= n_prompt) / (len(targets) - n_prompt)
    return trainer.cross_entropy_loss(out.text_logits, targets, weights)


def _all_grads(model, tok, rows):
    dc.backward(dc.mean_pool(dc.concat(
        [_sample_loss(model, tok, row) for row in rows], axis=0)))
    return {name: p.grad for name, p in model.named_params()}


@pytest.mark.parametrize("stage", ["align", "cotrain"])
def test_stage_gradients_equal_those_of_a_full_tape(stage):
    """Frozen parameters off the tape change no trainable gradient by a bit:
    the reference run puts every parameter back on the tape."""
    model = tiny_model(seed=6)
    tok = tokenizer()
    rows = (ds.make_caption_samples(2, seed=5) if stage == "align"
            else ds.make_instruct_samples(2, seed=5))
    trainer.set_stage(model, stage)
    staged = _all_grads(model, tok, rows)
    for _, p in model.named_params():
        p.requires_grad = True
    reference = _all_grads(model, tok, rows)
    for name, _ in model.named_params():
        if model.is_trainable(name):
            assert staged[name] is not None, name
            assert np.array_equal(staged[name], reference[name]), name
        else:
            assert staged[name] is None, name


# ---------------------------------------------------------------------------
# packed align/cotrain batches


@pytest.mark.parametrize("stage", ["align", "cotrain"])
def test_packed_batch_matches_per_sample_composition(stage):
    """In float64 the packed batch's loss and every parameter's gradient
    equal those of the per-sample composition (each row its own graph, the
    mean of the row losses) to rtol 1e-10."""
    tok = tokenizer()
    rows = (ds.make_caption_samples(3, seed=5) if stage == "align"
            else ds.make_instruct_samples(3, seed=5))
    assert len({len(tok.encode(r["prompt"] + " " + r["answer"])) for r in rows}) > 1
    results = []
    for packed in (True, False):
        model = trainer.VlaModel(tiny_cfg(), seed=6, dtype=np.float64)
        trainer.set_stage(model, stage)
        for _, p in model.named_params():
            p.requires_grad = True        # every gradient, not only the stage's
        loss = (trainer._stage1_batch_loss(model, tok, rows) if packed
                else dc.mean_pool(dc.concat([_sample_loss(model, tok, row)
                                             for row in rows], axis=0)))
        dc.backward(loss)
        results.append((loss.item(), {name: p.grad for name, p in model.named_params()}))
    (loss, grads), (loss_ref, grads_ref) = results
    assert loss == pytest.approx(loss_ref, rel=1e-10)
    for name, ref in grads_ref.items():
        if name.startswith("head."):      # the pose head is not on this graph
            assert grads[name] is None and ref is None, name
        else:
            np.testing.assert_allclose(grads[name], ref, rtol=1e-10, err_msg=name)


def test_packed_batch_weights_give_every_row_one_share(monkeypatch):
    """The packed loss weighs row i's n_i answer targets 1/(n_i B) each and
    its prompt targets 0, so every row's weights sum to 1/B."""
    tok = tokenizer()
    rows = ds.make_instruct_samples(3, seed=5)
    seen = []
    cross_entropy_loss = trainer.cross_entropy_loss

    def spy(logits, targets, weights):
        seen.append(weights)
        return cross_entropy_loss(logits, targets, weights)

    monkeypatch.setattr(trainer, "cross_entropy_loss", spy)
    trainer._stage1_batch_loss(tiny_model(), tok, rows)
    (weights,) = seen
    start = 0
    for row in rows:
        _, targets, n_prompt = trainer._encode_pair(tok, row["prompt"], row["answer"])
        w = weights[start:start + len(targets)]
        start += len(targets)
        n = len(targets) - n_prompt
        assert np.all(w[:n_prompt] == 0.0)
        assert np.all(w[n_prompt:] == 1 / (n * len(rows)))
        assert w.sum() == pytest.approx(1 / len(rows), rel=1e-12)
    assert start == len(weights)


# Central differences on these float64 losses carry rounding noise that
# grows as 1/eps (up to ~3e-10 absolute at eps 3e-6) and truncation error
# that grows as eps^2; 3e-6 keeps both under a quarter of the tolerance.  A
# coordinate whose gradient is as small as the noise (A_log has some near
# 4e-8) cannot be judged relative to itself, so the check has an absolute floor.
STEP_GRAD_EPS = 3e-6
STEP_GRAD_RTOL = 1e-5
STEP_GRAD_FLOOR = 1e-9


def _step_loss(stage, model, tok):
    """The loss one `run_stage` step of `stage` differentiates, on 3 rows."""
    if stage != "manip":
        rows = (ds.make_caption_samples(3, seed=5) if stage == "align"
                else ds.make_instruct_samples(3, seed=5))
        return lambda: trainer._stage1_batch_loss(model, tok, rows)
    rows = manip_rows(3)
    cache = np.concatenate([trainer._backbone_feature(model, tok, row["image"], row["prompt"])
                            for row in rows])
    gt_uv = np.stack([row["pos_uv"] for row in rows])
    gt_rot = np.stack([row["rot"] for row in rows])

    def loss():
        out = model.head.forward(dc.tensor(cache, dtype=cache.dtype))
        return dc.add(policy.position_loss(out.pixel, gt_uv),
                      policy.direction_loss(out.rot, gt_rot))
    return loss


@pytest.mark.parametrize("stage", trainer.STAGES)
def test_whole_step_gradient_matches_central_differences(stage):
    """float64, tiny config: 3 random coordinates of every trainable tensor
    and, in cotrain, every coordinate of block 0's A_log, the scan's most
    non-linear input.  Catches a node that is right alone but wired wrong
    into the step (a `starts` list, a gather, a frozen group)."""
    model = trainer.set_stage(trainer.VlaModel(tiny_cfg(), seed=6, dtype=np.float64), stage)
    trainable = {name: p for name, p in model.named_params() if model.is_trainable(name)}
    assert {name.split(".")[0] for name in trainable} == \
        {"align": {"projector"}, "cotrain": {"projector", "lm"}, "manip": {"head"}}[stage]
    rng = np.random.default_rng(0)
    coords = [(p, np.unravel_index(i, p.data.shape)) for p in trainable.values()
              for i in rng.choice(p.data.size, min(3, p.data.size), replace=False)]
    if stage == "cotrain":
        A_log = trainable["lm.blocks.0.A_log"]
        coords += [(A_log, idx) for idx in np.ndindex(A_log.data.shape)]
    analytic, numeric = step_grad_check(_step_loss(stage, model, tokenizer()), coords,
                                        eps=STEP_GRAD_EPS)
    assert np.abs(analytic).max() > 1e-3            # the step has a gradient to check
    np.testing.assert_allclose(analytic, numeric, rtol=STEP_GRAD_RTOL, atol=STEP_GRAD_FLOOR)


def test_packed_align_step_builds_68_nodes(monkeypatch):
    """A default-config 4-row align step is one graph: per row the patch
    encoder (3 nodes), the projector (5) and the embedding gather, then one
    concat, 6 blocks of 4, the final norm, one gather of the text rows,
    the vocabulary head and the 4-node loss."""
    cfg = ModelConfig()
    model = trainer.set_stage(trainer.VlaModel(cfg, seed=0), "align")
    tok = WordTokenizer.build(ds.corpus_texts(), max_vocab=cfg.vocab_size)
    rows = ds.make_caption_samples(4, seed=3)
    kinds = []
    make_node = dc._make_node

    def spy(kind, *args):
        kinds.append(kind)
        return make_node(kind, *args)

    monkeypatch.setattr(dc, "_make_node", spy)
    trainer._stage1_batch_loss(model, tok, rows)
    assert len(kinds) == 4 * 9 + 1 + 4 * 6 + 1 + 1 + 1 + 4 == 68, kinds
    assert kinds.count("mamba-inner") == cfg.n_blocks


def test_align_row_records_the_tape_size(tmp_path):
    """A run_stage row's tape_nodes counts the nodes of its loss graph.  Of
    the 68 nodes of a default-config 4-row align step, the patch encoder's
    3 per row and the embedding gather per row are not on the tape: the
    encoder and the LM are frozen in align, so none of their inputs needs a
    gradient."""
    cfg = ModelConfig()
    metrics, _ = trainer.run_stage(
        trainer.VlaModel(cfg, seed=0), "align", ds.make_caption_samples(4, seed=3),
        epochs=1, hyper=StageHyperparams(lr=1e-5, weight_decay=0.0, epochs=0),
        train_cfg=TrainConfig(batch_size=4),
        tokenizer=WordTokenizer.build(ds.corpus_texts(), max_vocab=cfg.vocab_size),
        out_dir=str(tmp_path))
    assert [row["tape_nodes"] for row in metrics] == [68 - 4 * 3 - 4]
    lines = open(os.path.join(tmp_path, "metrics_align.csv")).read().splitlines()
    assert [line.split(",")[4] for line in lines] == ["tape_nodes", "52"]


def test_unstaged_forward_holds_a_tenth_of_the_taped_one():
    """With no stage nothing builds a tape, so an LM forward holds little
    beyond its outputs (the full tape keeps every node's saved arrays)."""
    model = tiny_model(seed=8)
    ids = np.random.default_rng(0).integers(3, 64, size=300).tolist()

    def held_bytes():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits, state = model.lm.lm_forward(ids)
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    untaped = held_bytes()
    for _, p in model.named_params():
        p.requires_grad = True
    taped = held_bytes()
    assert untaped < taped / 10, (untaped, taped)


# ---------------------------------------------------------------------------
# cross-entropy


def test_uniform_logits_gives_log_vocab():
    logits = dc.tensor(np.zeros((5, 16)), dtype=np.float64)
    loss = trainer.cross_entropy_loss(logits, [3, 0, 15, 7, 1], np.full(5, 1 / 5))
    assert loss.data.reshape(()) == pytest.approx(math.log(16), abs=1e-12)


def test_confident_correct_logit_drives_loss_to_zero():
    logits = np.zeros((3, 8))
    targets = [2, 5, 0]
    logits[np.arange(3), targets] = 40.0
    loss = trainer.cross_entropy_loss(dc.tensor(logits, dtype=np.float64),
                                      targets, np.full(3, 1 / 3))
    assert loss.data.reshape(()) < 1e-10


def test_confidently_wrong_logit_gives_a_large_finite_loss():
    # the target's softmax probability rounds to 0 in float32, so the log of
    # a softmax would be -inf; the log-softmax stays finite
    logits = dc.tensor([[0.0, 120.0]], dtype=np.float32)
    loss = trainer.cross_entropy_loss(logits, [0], [1.0])
    assert loss.data.reshape(()) == 120.0


def test_masked_positions_have_zero_gradient():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((4, 8))
    logits = dc.tensor(raw, dtype=np.float64, requires_grad=True)
    loss = trainer.cross_entropy_loss(logits, [1, 2, 3, 4], [0.5, 0.0, 0.5, 0.0])
    grads = dc.backward(loss)
    g = grads[logits]
    assert np.all(g[1] == 0.0) and np.all(g[3] == 0.0)
    assert np.any(g[0] != 0.0) and np.any(g[2] != 0.0)
    # weighted rows carry softmax-CE gradient (p - onehot) * weight
    p0 = np.exp(raw[0]) / np.exp(raw[0]).sum()
    expect = p0.copy()
    expect[1] -= 1.0
    assert np.allclose(g[0], expect / 2, atol=1e-12)


def test_cross_entropy_gradient_check():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((5, 6))
    point = dc.tensor(raw, dtype=np.float64, requires_grad=True)
    err = grad_check(
        lambda t: trainer.cross_entropy_loss(t, [0, 2, 4, 1, 3], [0.1, 0.0, 0.3, 0.2, 0.4]), point)
    assert err <= 1e-6


@pytest.mark.parametrize("targets", [[1.7, 2.2, 0.9], np.array([1.0, 2.0, 0.0]),
                                     np.array([True, False, True])])
def test_cross_entropy_rejects_non_integer_targets(targets):
    # [1.7, 2.2, 0.9] used to train on [1, 2, 0]
    logits = dc.tensor(np.zeros((3, 4)), dtype=np.float64)
    with pytest.raises(ValueError, match="integer ids"):
        trainer.cross_entropy_loss(logits, targets, np.full(3, 1 / 3))


def test_cross_entropy_rejects_bad_inputs():
    logits = dc.tensor(np.zeros((3, 4)), dtype=np.float64)
    with pytest.raises(ValueError, match="vocabulary"):
        trainer.cross_entropy_loss(logits, [0, 1, 4], np.full(3, 1 / 3))


@pytest.mark.parametrize("weights", [np.full(2, 0.5), np.full((3, 1), 1 / 3), [],
                                     [0.5, float("nan"), 0.5], [0.5, float("inf"), 0.5]],
                         ids=["short", "column", "empty", "nan", "inf"])
def test_cross_entropy_rejects_bad_weights(weights):
    logits = dc.tensor(np.zeros((3, 4)), dtype=np.float64)
    with pytest.raises(ValueError, match="weights"):
        trainer.cross_entropy_loss(logits, [0, 1, 2], weights)


# ---------------------------------------------------------------------------
# AdamW


def test_adamw_first_step_moves_by_lr():
    model = tiny_model()
    trainer.set_stage(model, "manip")
    state = trainer.init_optim(model)
    name, p = next(iter(
        (n, t) for n, t in model.named_params() if n.startswith("head.")))
    before = p.data.copy()
    grads = {name: np.ones_like(p.data)}
    trainer.adamw_step(model, grads, state, lr=0.1)
    delta = p.data - before
    assert np.allclose(delta, -0.1, atol=1e-7)


def test_adamw_decoupled_decay():
    model = tiny_model()
    trainer.set_stage(model, "manip")
    state = trainer.init_optim(model)
    name, p = next(iter(
        (n, t) for n, t in model.named_params() if n.startswith("head.")))
    p.data = np.ones_like(p.data)
    trainer.adamw_step(model, {}, state, lr=0.1, weight_decay=0.1)
    assert np.allclose(p.data, 0.99, atol=1e-12)


def test_adamw_leaves_frozen_groups_untouched():
    model = tiny_model()
    trainer.set_stage(model, "manip")
    state = trainer.init_optim(model)
    snap = snapshot(model)
    grads = {name: np.ones_like(p.data) for name, p in model.named_params()}
    trainer.adamw_step(model, grads, state, lr=0.5)
    for group in ("encoder", "projector", "lm"):
        assert groups_equal(model, snap, group)
    assert not groups_equal(model, snap, "head")


def test_adamw_nonfinite_gradient_names_group():
    model = tiny_model()
    trainer.set_stage(model, "align")
    state = trainer.init_optim(model)
    name, p = next(iter(
        (n, t) for n, t in model.named_params()
        if n.startswith("projector.")))
    bad = np.ones_like(p.data)
    bad.reshape(-1)[0] = np.nan
    with pytest.raises(FloatingPointError, match="projector"):
        trainer.adamw_step(model, {name: bad}, state, lr=0.1)


def test_adamw_refuses_a_gradient_of_another_shape():
    """A (1,) gradient would broadcast over the [32] D_skip and move every
    entry of it."""
    model = tiny_model()
    trainer.set_stage(model, "cotrain")
    state = trainer.init_optim(model)
    name = "lm.blocks.0.D_skip"
    p = dict(model.named_params())[name]
    assert p.data.shape == (32,)
    before = p.data.copy()
    with pytest.raises(ValueError, match=re.escape(name)):
        trainer.adamw_step(model, {name: np.ones(1, np.float32)}, state, lr=0.1)
    assert np.array_equal(p.data, before)


def test_adamw_overflowing_update_names_parameter():
    model = tiny_model()
    trainer.set_stage(model, "manip")
    state = trainer.init_optim(model)
    name, p = next(iter(
        (n, t) for n, t in model.named_params() if n.startswith("head.")))
    p.data[...] = 3e38
    with pytest.raises(FloatingPointError, match=re.escape(name)):
        trainer.adamw_step(model, {name: -np.ones_like(p.data)}, state, lr=1e38)
    assert np.all(p.data == np.float32(3e38))


def test_scan_reads_A_log_after_in_place_and_new_array_writes(tmp_path):
    """The scan derives A = -exp(A_log) once per A_log array: after
    adamw_step writes A_log in place, and after A_log is given a new array,
    the next forward uses the new A, as a model loaded with the same
    weights does."""
    model = tiny_model(seed=3)
    trainer.set_stage(model, "cotrain")
    state = trainer.init_optim(model)
    path = str(tmp_path / "weights.rmck")

    def logits(m):
        return m.lm.lm_forward([1, 5, 9, 13, 2])[0].data

    def reloaded(m):
        trainer.save_checkpoint(m, path)
        return trainer.load_checkpoint(path)

    before = logits(model)                            # derives every block's A
    A_logs = {name: p for name, p in model.named_params() if name.endswith(".A_log")}
    assert len(A_logs) == 2
    trainer.adamw_step(model, {name: np.ones_like(p.data) for name, p in A_logs.items()},
                       state, lr=0.1)
    after_step = logits(model)
    assert not np.array_equal(after_step, before)
    assert np.array_equal(after_step, logits(reloaded(model)))
    for p in A_logs.values():
        p.data = p.data * np.float32(0.5)
    after_new_array = logits(model)
    assert not np.array_equal(after_new_array, after_step)
    assert np.array_equal(after_new_array, logits(reloaded(model)))


# ---------------------------------------------------------------------------
# run_stage


def caption_row(seed=0):
    return ds.make_caption_samples(1, seed=seed)[0]


def test_align_overfit_loss_strictly_decreases():
    """One repeated (image, caption) pair, lr=1e-3: the first 50 steps each
    reduce the loss."""
    model = tiny_model(seed=1)
    tok = tokenizer()
    row = caption_row(seed=4)
    cfg = TrainConfig(batch_size=2)
    metrics, _ = trainer.run_stage(
        model, "align", [row, row], epochs=50,
        hyper=StageHyperparams(lr=1e-3, weight_decay=0.0, epochs=0),
        train_cfg=cfg, tokenizer=tok, seed=0, steps_limit=50)
    losses = [m["loss"] for m in metrics]
    assert len(losses) == 50
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_run_stage_gradient_is_this_steps_alone(monkeypatch):
    """At lr 0 the weights never move, so after several steps on one batch
    the last step's gradients, as adamw_step receives them, must equal one
    fresh backward on that batch: nothing from earlier steps may be added
    in."""
    model = tiny_model(seed=1)
    tok = tokenizer()
    row = caption_row(seed=4)
    steps = []
    adamw_step = trainer.adamw_step

    def spy(model, grads, *args, **kwargs):
        steps.append(grads)
        return adamw_step(model, grads, *args, **kwargs)

    monkeypatch.setattr(trainer, "adamw_step", spy)
    trainer.run_stage(
        model, "align", [row], epochs=4,
        hyper=StageHyperparams(lr=0.0, weight_decay=0.0, epochs=0),
        train_cfg=TrainConfig(batch_size=1), tokenizer=tok, seed=0)
    assert len(steps) == 4
    after_run = {name: steps[-1].get(name) for name, _ in model.named_params()}
    assert any(after_run[name] is not None for name, _ in model.named_params()
               if model.is_trainable(name))

    # run_stage turns every flag off, so the fresh backward needs the stage again
    trainer.set_stage(model, "align")
    loss = dc.mean_pool(dc.concat(
        [_sample_loss(model, tok, row)], axis=0))
    dc.backward(loss)
    for name, p in model.named_params():
        if p.grad is None:
            assert after_run[name] is None, name
        else:
            assert np.allclose(after_run[name], p.grad,
                               rtol=1e-6, atol=1e-9), name


def test_align_touches_only_projector():
    model = tiny_model(seed=2)
    snap = snapshot(model)
    metrics, _ = trainer.run_stage(
        model, "align", [caption_row()], epochs=3,
        hyper=StageHyperparams(lr=1e-3, weight_decay=0.0, epochs=0),
        train_cfg=TrainConfig(batch_size=1), tokenizer=tokenizer(), seed=0)
    assert len(metrics) == 3
    for group in ("encoder", "lm", "head"):
        assert groups_equal(model, snap, group)
    assert not groups_equal(model, snap, "projector")


def test_cotrain_updates_lm_and_projector_not_encoder():
    model = tiny_model(seed=3)
    snap = snapshot(model)
    rows = ds.make_instruct_samples(4, seed=0)
    trainer.run_stage(
        model, "cotrain", rows, epochs=1,
        hyper=StageHyperparams(lr=1e-3, weight_decay=0.0, epochs=0),
        train_cfg=TrainConfig(batch_size=4), tokenizer=tokenizer(), seed=0)
    assert groups_equal(model, snap, "encoder")
    assert groups_equal(model, snap, "head")
    assert not groups_equal(model, snap, "lm")
    assert not groups_equal(model, snap, "projector")


def manip_rows(n=6, seed=0):
    return ds.episode_rows(ds.make_manip_samples(n, seed=seed,
                                                 successful_only=True))


def test_manip_freezes_backbone_bitwise(tmp_path):
    model = tiny_model(seed=4)
    snap = snapshot(model)
    rows = manip_rows(6)
    metrics, ckpt = trainer.run_stage(
        model, "manip", rows, epochs=2,
        hyper=StageHyperparams(lr=1e-3, weight_decay=0.0, epochs=0),
        train_cfg=TrainConfig(batch_size=3), tokenizer=tokenizer(),
        seed=0, out_dir=str(tmp_path))
    for group in ("encoder", "projector", "lm"):
        assert groups_equal(model, snap, group)
    assert not groups_equal(model, snap, "head")
    # metrics CSV: header + one row per step
    lines = open(os.path.join(tmp_path, "metrics_manip.csv")).read().splitlines()
    assert lines[0] == "step,stage,loss,lr,tape_nodes,wall_ms"
    assert len(lines) == len(metrics) + 1
    assert os.path.exists(ckpt)


def test_manip_head_learns():
    model = tiny_model(seed=5)
    rows = manip_rows(8, seed=3)
    metrics, _ = trainer.run_stage(
        model, "manip", rows, epochs=200,
        hyper=StageHyperparams(lr=1e-2, weight_decay=0.0, epochs=0),
        train_cfg=TrainConfig(batch_size=8), tokenizer=tokenizer(),
        seed=0, steps_limit=200)
    first = np.mean([m["loss"] for m in metrics[:5]])
    last = np.mean([m["loss"] for m in metrics[-5:]])
    assert last < 0.5 * first


def _position_loss_on(model, rows, tok):
    feats = np.concatenate([trainer._backbone_feature(
        model, tok, row["image"], row["prompt"]) for row in rows])
    gt = np.stack([row["pos_uv"] for row in rows])
    return policy.position_loss(model.head.forward(dc.tensor(feats)).pixel, gt).item()


def test_manip_head_pixel_depends_on_input():
    """The same fit as test_manip_head_learns must also halve the position
    term: a position branch that cannot see its input only learns one
    constant pixel and leaves most of the L1 error in place."""
    model = tiny_model(seed=5)
    rows = manip_rows(8, seed=3)
    tok = tokenizer()
    start = _position_loss_on(model, rows, tok)
    trainer.run_stage(
        model, "manip", rows, epochs=200,
        hyper=StageHyperparams(lr=1e-2, weight_decay=0.0, epochs=0),
        train_cfg=TrainConfig(batch_size=8), tokenizer=tok,
        seed=0, steps_limit=200)
    assert _position_loss_on(model, rows, tok) < 0.5 * start


def _manip_step_nodes(monkeypatch, batch_size, head_variant="mlp2"):
    """Primitive nodes on the tape of each of two steps of a tiny manip run:
    a spy on dc.backward walks each loss graph before the sweep consumes it."""
    counts = []
    backward = dc.backward

    def spy(root):
        seen, stack, nodes = set(), [root], 0
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                nodes += t._backward_fn is not None
                stack.extend(t._parents)
        counts.append(nodes)
        return backward(root)

    with monkeypatch.context() as patch:
        patch.setattr(dc, "backward", spy)
        metrics, _ = trainer.run_stage(
            tiny_model(seed=4, head_variant=head_variant), "manip", manip_rows(8), epochs=2,
            hyper=StageHyperparams(lr=1e-3, weight_decay=0.0, epochs=0),
            train_cfg=TrainConfig(batch_size=batch_size), tokenizer=tokenizer(),
            seed=0, steps_limit=2)
    # each metrics row records the same count
    assert [row["tape_nodes"] for row in metrics] == counts
    return counts


@pytest.mark.parametrize("head_variant", ["mlp2", "mlp1", "ssm-mlp"])
def test_manip_step_is_one_graph_at_any_batch_size(monkeypatch, head_variant):
    """The head and both losses run on the whole batch at once, so a step's
    tape does not grow with the batch."""
    small = _manip_step_nodes(monkeypatch, 2, head_variant)
    large = _manip_step_nodes(monkeypatch, 8, head_variant)
    assert len(small) == len(large) == 2
    assert small[0] == small[1] == large[0] == large[1] > 0, (small, large)


@pytest.mark.parametrize("head_variant, nodes",
                         [("mlp2", 51), ("mlp1", 48), ("ssm-mlp", 57)])
def test_default_config_manip_row_records_the_head_step_tape(head_variant, nodes):
    """A default-config mlp2 step: two branches (10), sigmoid and the r6 offset
    (2), Gram-Schmidt (28), the pixel loss (4), the rotation loss (6) and their
    sum (1).  mlp1 reads both outputs from one branch through two slices (-3);
    ssm-mlp adds the down-projection (2) and the block's 4 nodes (+6)."""
    model = trainer.VlaModel(ModelConfig(head_variant=head_variant), seed=0)
    for batch_size in (2, 8):
        metrics, _ = trainer.run_stage(
            model, "manip", manip_rows(8), epochs=1,
            hyper=StageHyperparams(lr=1e-3, weight_decay=0.0, epochs=0),
            train_cfg=TrainConfig(batch_size=batch_size), tokenizer=tokenizer(),
            seed=0, steps_limit=1)
        assert [row["tape_nodes"] for row in metrics] == [nodes], batch_size


def test_optimizer_moments_only_for_trainable_parameters():
    model = tiny_model()
    trainer.set_stage(model, "manip")
    state = trainer.init_optim(model)
    trainable = {name for name, _ in model.named_params() if model.is_trainable(name)}
    assert set(state.m) == set(state.v) == trainable


@pytest.mark.parametrize("kw, field", [
    (dict(batch_size=0), "batch_size"),
    (dict(batch_size=-3), "batch_size"),
    (dict(batch_size=2.0), "batch_size"),
], ids=lambda v: str(v))
def test_train_config_rejects_bad_values(kw, field):
    # batch_size=0 used to fail inside run_stage's loop as a range() error
    with pytest.raises(ValueError, match=f"TrainConfig: {field}"):
        TrainConfig(**kw)


MODEL_SIZES = ("image_size", "patch_size", "d_vis", "proj_hidden", "vocab_size", "d_model",
               "n_blocks", "d_state", "d_conv", "expand", "dt_rank", "head_hidden")


@pytest.mark.parametrize("field", MODEL_SIZES)
@pytest.mark.parametrize("value", [0, -2, 4.0])
def test_model_config_rejects_bad_sizes(field, value):
    # d_model=0 used to fail as ZeroDivisionError inside a constructor, and
    # d_state=0 or n_blocks=0 built a degenerate model
    with pytest.raises(ValueError, match=f"ModelConfig: {field} must be an integer >= 1"):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("make, field", [(ModelConfig, f) for f in MODEL_SIZES]
                         + [(TrainConfig, "batch_size")],
                         ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("value", [True, np.int64(4)], ids=repr)
def test_config_sizes_are_python_ints(make, field, value):
    """A config is written to a checkpoint's JSON, so its sizes are Python
    ints.  n_blocks=True used to build a model whose checkpoint
    load_checkpoint then refused as "must be int, got bool"."""
    with pytest.raises(ValueError, match=f"{make.__name__}: {field} must be an integer >= 1"):
        make(**{field: value})


def test_model_config_rejects_image_size_not_divisible_by_patch_size():
    # image_size=30 used to build a model that rejected every image in encode
    with pytest.raises(ValueError, match="image_size 30 must be divisible by patch_size 8"):
        ModelConfig(image_size=30, patch_size=8)


def test_model_config_accepts_its_boundaries():
    cfg = ModelConfig(**dict.fromkeys(MODEL_SIZES, 1))
    assert (cfg.d_inner, cfg.n_patches) == (1, 1)


@pytest.mark.parametrize("lr, weight_decay, field", [
    (-1e-3, 0.0, "lr"),
    (float("nan"), 0.0, "lr"),
    (float("inf"), 0.0, "lr"),
    (1e-3, -0.1, "weight_decay"),
    (1e-3, float("nan"), "weight_decay"),
    # lr=True used to train at 1.0, and lr="1e-3" escaped as a TypeError
    (True, 0.0, "lr"),
    ("1e-3", 0.0, "lr"),
    (1e-3, np.True_, "weight_decay"),
    (1e-3, None, "weight_decay"),
])
def test_stage_hyperparams_reject_bad_values(lr, weight_decay, field):
    with pytest.raises(ValueError, match=f"StageHyperparams: {field}"):
        StageHyperparams(lr=lr, weight_decay=weight_decay, epochs=1)


def test_run_stage_schema_mismatch():
    model = tiny_model()
    with pytest.raises(ValueError, match="schema"):
        trainer.run_stage(model, "align", manip_rows(2), epochs=1,
                          hyper=StageHyperparams(1e-3, 0.0, 0),
                          train_cfg=TrainConfig(), tokenizer=tokenizer())
    with pytest.raises(ValueError, match="schema"):
        trainer.run_stage(model, "manip", [caption_row()], epochs=1,
                          hyper=StageHyperparams(1e-3, 0.0, 0),
                          train_cfg=TrainConfig(), tokenizer=tokenizer())
    with pytest.raises(ValueError, match="empty"):
        trainer.run_stage(model, "align", [], epochs=1,
                          hyper=StageHyperparams(1e-3, 0.0, 0),
                          train_cfg=TrainConfig(), tokenizer=tokenizer())


@pytest.mark.parametrize("kw, field", [
    (dict(epochs=0), "epochs"),
    (dict(epochs=-2), "epochs"),
    (dict(epochs=1.5), "epochs"),
    (dict(epochs=1, steps_limit=0), "steps_limit"),
    (dict(epochs=1, steps_limit=-1), "steps_limit"),
    (dict(epochs=1, steps_limit=2.0), "steps_limit"),
], ids=lambda v: str(v))
def test_run_stage_rejects_bad_loop_bounds(tmp_path, kw, field):
    """Unchecked, epochs=0 trains nothing yet writes a checkpoint,
    steps_limit=0 trains one step, and epochs=1.5 fails inside range().  The
    check runs before the stage is set, so the model and the run directory
    stay as they were."""
    model = tiny_model()
    with pytest.raises(ValueError, match=f"run_stage: {field}"):
        trainer.run_stage(model, "manip", manip_rows(2),
                          hyper=StageHyperparams(1e-3, 0.0, 0),
                          train_cfg=TrainConfig(), tokenizer=tokenizer(),
                          out_dir=str(tmp_path), **kw)
    assert model.stage is None
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("kw, field", [
    (dict(epochs=True), "epochs"),
    (dict(epochs=1, steps_limit=True), "steps_limit"),
], ids=lambda v: str(v))
def test_run_stage_rejects_bool_loop_bounds(kw, field):
    with pytest.raises(ValueError, match=f"run_stage: {field}"):
        trainer.run_stage(tiny_model(), "manip", manip_rows(2),
                          hyper=StageHyperparams(1e-3, 0.0, 0),
                          train_cfg=TrainConfig(), tokenizer=tokenizer(), **kw)


def test_run_stage_runs_numpy_integer_loop_bounds_as_the_ints():
    """Loop bounds follow the seeds' integer rule: np.int64(2) used to be
    refused as "epochs must be an integer"."""
    losses = []
    for epochs, steps_limit in ((np.int64(2), np.uint8(3)), (2, 3)):
        metrics, _ = trainer.run_stage(
            tiny_model(), "manip", manip_rows(4), epochs=epochs,
            hyper=StageHyperparams(1e-3, 0.0, 0), train_cfg=TrainConfig(batch_size=2),
            tokenizer=tokenizer(), steps_limit=steps_limit)
        losses.append([row["loss"] for row in metrics])
    assert len(losses[0]) == 3 and losses[0] == losses[1]


def test_manip_row_with_a_non_finite_pixel_is_named():
    # unchecked, it fails deep inside diffcore as "NonFiniteError: mul: input 0"
    rows = manip_rows(2)
    rows[1]["pos_uv"] = (float("nan"), 0.5)
    with pytest.raises(ValueError, match=r"position_loss: gt\[[01]\] has non-finite"):
        trainer.run_stage(tiny_model(), "manip", rows, epochs=1,
                          hyper=StageHyperparams(1e-3, 0.0, 0),
                          train_cfg=TrainConfig(batch_size=2), tokenizer=tokenizer())


def test_run_stage_batch_order_follows_the_seed():
    """5 rows at batch size 2 over 5 steps span two epochs, each in its own
    permutation: the same seed gives the same losses, and a seed whose
    permutation differs gives others."""
    rows = ds.make_caption_samples(5, seed=2)

    def losses(seed):
        metrics, _ = trainer.run_stage(
            tiny_model(seed=1), "align", rows, epochs=2,
            hyper=StageHyperparams(lr=1e-3, weight_decay=0.0, epochs=0),
            train_cfg=TrainConfig(batch_size=2), tokenizer=tokenizer(),
            seed=seed, steps_limit=5)
        return [row["loss"] for row in metrics]

    assert not np.array_equal(np.random.default_rng(0).permutation(5),
                              np.random.default_rng(1).permutation(5))
    first = losses(0)
    assert len(first) == 5
    assert losses(0) == first
    assert losses(1) != first


def test_stage_runs_are_deterministic(tmp_path):
    paths = []
    for run in ("a", "b"):
        model = tiny_model(seed=6)
        trainer.run_stage(
            model, "manip", manip_rows(5, seed=1), epochs=2,
            hyper=StageHyperparams(lr=1e-3, weight_decay=0.01, epochs=0),
            train_cfg=TrainConfig(batch_size=2), tokenizer=tokenizer(),
            seed=9, out_dir=str(tmp_path / run))
        paths.append(tmp_path / run / "ckpt_manip.rmck")
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    model = tiny_model(seed=7)
    trainer.set_stage(model, "cotrain")
    path = str(tmp_path / "model.rmck")
    trainer.save_checkpoint(model, path)
    back = trainer.load_checkpoint(path)
    assert back.cfg == model.cfg
    assert back.stage is None
    orig = dict(model.named_params())
    for name, p in back.named_params():
        assert np.array_equal(p.data, orig[name].data), name


@pytest.mark.parametrize("variant", ["mlp1", "ssm-mlp"])
def test_checkpoint_roundtrip_other_head_variants(tmp_path, variant):
    model = tiny_model(seed=8, head_variant=variant)
    path = str(tmp_path / "model.rmck")
    trainer.save_checkpoint(model, path)
    back = trainer.load_checkpoint(path)
    orig = dict(model.named_params())
    assert [name for name, _ in back.named_params()] == list(orig)
    for name, p in back.named_params():
        assert p.data.dtype == np.float32 and np.array_equal(p.data, orig[name].data), name


def test_rmck_bytes_follow_the_layout(tmp_path):
    """The writer's bytes are exactly the documented layout, for a float64
    matrix stored as f32, a vector and an empty tensor."""
    tensors = {"w": np.arange(6, dtype=np.float64).reshape(2, 3),
               "v": np.array([2.5, -1.0], np.float32),
               "e": np.zeros((0, 4), np.float32)}
    config = {"b": 1, "a": [2]}
    path = str(tmp_path / "t.rmck")
    fileio.write_rmck(path, tensors, config)
    expect = b"RMCK" + struct.pack("<II", 1, 3)
    for name, arr in tensors.items():
        expect += struct.pack("<I", len(name)) + name.encode()
        expect += struct.pack("<BB", 0, arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
        expect += arr.astype("<f4").tobytes()
    blob = b'{"a": [2], "b": 1}'
    expect += struct.pack("<Q", len(blob)) + blob
    with open(path, "rb") as fh:
        assert fh.read() == expect
    assert os.listdir(tmp_path) == ["t.rmck"]      # no temp file left behind


_RMCK_NAMES = st.text(st.characters(codec="utf-8"), max_size=6)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(shapes=st.dictionaries(_RMCK_NAMES, st.lists(st.integers(0, 3), max_size=4),
                              max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_rmck_roundtrips_random_shapes(shapes, seed):
    # 0-d tensors included: the writer must not promote them to rank 1
    rng = np.random.default_rng(seed)
    tensors = {name: rng.standard_normal(shape).astype(np.float32)
               for name, shape in shapes.items()}
    config = {"shapes": {name: list(shape) for name, shape in shapes.items()}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.rmck")
        fileio.write_rmck(path, tensors, config)
        back, back_config = fileio.read_rmck(path)
    assert back_config == config
    assert list(back) == list(tensors)
    for name, arr in tensors.items():
        assert back[name].shape == arr.shape and back[name].dtype == np.float32
        assert np.array_equal(back[name], arr), name


def _valid_rmck_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.rmck")
        fileio.write_rmck(path, {"s": np.float32(1.5), "m": np.ones((2, 3)),
                                 "e": np.zeros((0, 2))}, {"stage": "", "n": [1, 2]})
        with open(path, "rb") as fh:
            return fh.read()


_RMCK_BYTES = _valid_rmck_bytes()
# the top byte of the empty tensor's second dim: 0x20 there makes the dims
# (0, 2^61 + 2), an empty payload that numpy cannot shape
_HUGE_DIM_BYTE = _RMCK_BYTES.index(struct.pack("<BB2Q", 0, 2, 0, 2)) + 2 + 8 + 7


@settings(max_examples=60, deadline=None, derandomize=True)
@example(edits=[(_HUGE_DIM_BYTE, 0x20)], cut=len(_RMCK_BYTES))
@given(edits=st.lists(st.tuples(st.integers(0, len(_RMCK_BYTES) - 1),
                                st.integers(0, 255)), min_size=1, max_size=4),
       cut=st.integers(0, len(_RMCK_BYTES)))
def test_rmck_byte_mutations_raise_only_format_error(edits, cut):
    raw = bytearray(_RMCK_BYTES)
    for pos, value in edits:
        raw[pos] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.rmck")
        with open(path, "wb") as fh:
            fh.write(raw[:cut])
        try:
            fileio.read_rmck(path)
        except fileio.FormatError:
            pass


def test_checkpoint_refuses_float64_model(tmp_path):
    # RMCK stores float32 only: saving a float64 model would drop precision
    model = trainer.VlaModel(tiny_cfg(), seed=0, dtype=np.float64)
    path = tmp_path / "model.rmck"
    with pytest.raises(ValueError, match="float64"):
        trainer.save_checkpoint(model, str(path))
    assert not path.exists()


def test_checkpoint_tensor_count_matches_model(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "model.rmck")
    trainer.save_checkpoint(model, path)
    tensors, _ = fileio.read_rmck(path)
    assert len(tensors) == sum(1 for _ in model.named_params())


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: b"XXXX" + raw[4:], "bad magic"),
    (lambda raw: raw[:4] + struct.pack("<I", 9) + raw[8:],
     "unsupported checkpoint version 9"),
    (lambda raw: raw[:-5], "truncated file"),
    (lambda raw: raw + b"\x00\x00", "2 trailing bytes"),
    (lambda raw: raw.replace(b"\x01\x00\x00\x00b", b"\x01\x00\x00\x00a"),
     "duplicate tensor name 'a'"),
    (lambda raw: raw.replace(b"\x01\x00\x00\x00b", b"\x01\x00\x00\x00\xff"),
     "tensor 1 name is not valid UTF-8"),
], ids=["magic", "version", "truncated", "trailing", "duplicate", "name_utf8"])
def test_checkpoint_malformed_bytes_are_format_error(tmp_path, corrupt, message):
    path = str(tmp_path / "model.rmck")
    # two tensors named "a" and "b": each name is a u32 length 1, then the byte
    fileio.write_rmck(path, {"a": np.zeros((2, 3)), "b": np.ones((2, 3))},
                      {"stage": ""})
    raw = open(path, "rb").read()
    corrupted = corrupt(raw)
    assert corrupted != raw
    open(path, "wb").write(corrupted)
    with pytest.raises(fileio.FormatError, match=re.escape(message)):
        trainer.load_checkpoint(path)


def test_loaded_checkpoint_is_the_inference_model(tmp_path):
    """A checkpoint holds weights and the model config only, and a loaded
    model has no stage, whatever stage saved it, so its head builds no
    backward tape; an older file's "stage" key is ignored."""
    model = tiny_model(seed=3)
    trainer.set_stage(model, "manip")
    path = str(tmp_path / "model.rmck")
    trainer.save_checkpoint(model, path)
    assert fileio.read_rmck(path)[1] == {"model": vars(model.cfg)}
    back = trainer.load_checkpoint(path)
    assert back.stage is None
    assert not any(p.requires_grad for _, p in back.named_params())
    feats = dc.tensor(np.random.default_rng(0).standard_normal((2, 16)), np.float32)
    out = back.head.forward(feats)
    assert dc.tape_nodes(out.pixel) == 0 and dc.tape_nodes(out.rot) == 0

    old_path = str(tmp_path / "old.rmck")
    fileio.write_rmck(old_path, {name: p.data for name, p in model.named_params()},
                      {"model": vars(model.cfg).copy(), "stage": "cotrain"})
    old = trainer.load_checkpoint(old_path)
    assert old.stage is None
    orig = dict(model.named_params())
    for name, p in old.named_params():
        assert np.array_equal(p.data, orig[name].data), name


def test_checkpoint_unknown_config_field_is_format_error(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "model.rmck")
    cfg = vars(model.cfg).copy()
    cfg["dtype"] = "float32"
    tensors = {name: p.data for name, p in model.named_params()}
    fileio.write_rmck(path, tensors, {"model": cfg})
    with pytest.raises(fileio.FormatError, match=r"unknown fields \['dtype'\]"):
        trainer.load_checkpoint(path)


def test_checkpoint_unknown_head_variant_is_format_error(tmp_path):
    # PoseHead's ValueError used to escape load_checkpoint unwrapped
    model = tiny_model()
    path = str(tmp_path / "model.rmck")
    cfg = vars(model.cfg).copy()
    cfg["head_variant"] = "transformer"
    tensors = {name: p.data for name, p in model.named_params()}
    fileio.write_rmck(path, tensors, {"model": cfg})
    with pytest.raises(fileio.FormatError,
                       match="checkpoint config: unknown head_variant 'transformer'"):
        trainer.load_checkpoint(path)


def test_checkpoint_rejects_mismatched_tensors(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "model.rmck")
    tensors = {name: p.data for name, p in model.named_params()}
    tensors.pop(next(iter(tensors)))
    fileio.write_rmck(path, tensors,
                      {"model": vars(model.cfg).copy(), "stage": ""})
    with pytest.raises(fileio.FormatError, match="missing"):
        trainer.load_checkpoint(path)


def test_checkpoint_non_finite_weight_is_format_error(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "model.rmck")
    tensors = {name: p.data.copy() for name, p in model.named_params()}
    tensors["lm.lm_head"][3, 5] = np.nan
    fileio.write_rmck(path, tensors,
                      {"model": vars(model.cfg).copy(), "stage": ""})
    with pytest.raises(fileio.FormatError, match="lm.lm_head.*non-finite"):
        trainer.load_checkpoint(path)


def test_checkpoint_config_not_an_object_is_format_error(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "model.rmck")
    tensors = {name: p.data for name, p in model.named_params()}
    fileio.write_rmck(path, tensors, [vars(model.cfg).copy()])
    with pytest.raises(fileio.FormatError, match="object"):
        trainer.load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("d_model", 0), ("image_size", 30)])
def test_checkpoint_config_out_of_range_is_format_error(tmp_path, field, value):
    # d_model: 0 used to escape as ZeroDivisionError
    model = tiny_model()
    path = str(tmp_path / "model.rmck")
    cfg = vars(model.cfg).copy()
    cfg[field] = value
    tensors = {name: p.data for name, p in model.named_params()}
    fileio.write_rmck(path, tensors, {"model": cfg, "stage": ""})
    with pytest.raises(fileio.FormatError, match=f"checkpoint config: ModelConfig: {field}"):
        trainer.load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("d_conv", "4"), ("d_model", True),
                                          ("n_blocks", 2.0), ("head_variant", 3)])
def test_checkpoint_config_field_of_wrong_type_is_format_error(tmp_path, field, value):
    model = tiny_model()
    path = str(tmp_path / "model.rmck")
    cfg = vars(model.cfg).copy()
    cfg[field] = value
    tensors = {name: p.data for name, p in model.named_params()}
    fileio.write_rmck(path, tensors, {"model": cfg, "stage": ""})
    with pytest.raises(fileio.FormatError, match=field):
        trainer.load_checkpoint(path)


# ---------------------------------------------------------------------------
# parameter report


def test_param_report_groups_and_ratio():
    model = tiny_model()
    trainer.set_stage(model, "align")
    report = trainer.param_report(model)
    assert set(report["groups"]) == set(trainer.GROUPS)
    assert report["total"] == sum(report["groups"].values())
    assert report["trainable"] == report["groups"]["projector"]
    assert report["ratio"] == report["trainable"] / report["total"]


def test_param_report_default_config_head_ratio():
    """Manip stage on the full-size default config: head is under 0.5%."""
    model = trainer.VlaModel(ModelConfig(), seed=0)
    trainer.set_stage(model, "manip")
    report = trainer.param_report(model)
    assert report["trainable"] == 16712          # mlp2 head, hand-counted
    assert report["ratio"] <= 0.005

"""Every package call that `perfbench/bench.py` makes, with the same argument
shapes (positional where it passes positionally, the same keywords where it
names them) and the same reads of what comes back, on a tiny config.

The benchmark runs on its own checkout after a change; a signature it no
longer matches would end there as a failed run.  Here it fails Tier-1.
"""

import dataclasses
import math

import numpy as np

from mambavla import datasets, diffcore, mamba, policy, simworld, trainer, vispipe
from mambavla.config import ModelConfig, TrainConfig

SEED = 2406


def tiny_cfg():
    return ModelConfig(vocab_size=64, d_model=16, n_blocks=2, d_state=4, d_conv=4,
                       expand=2, dt_rank=2, image_size=32, patch_size=8, d_vis=8,
                       proj_hidden=12, head_hidden=8)


def test_every_benchmark_call_shape(tmp_path):
    cfg = tiny_cfg()
    tok = mamba.WordTokenizer.build(datasets.corpus_texts(), max_vocab=cfg.vocab_size)
    model = trainer.VlaModel(cfg, seed=SEED)
    initial = {name: p.data.copy() for name, p in model.named_params()}
    manip_rows = datasets.episode_rows(datasets.make_manip_samples(
        2, SEED, successful_only=True))
    stage_rows = {
        "align": datasets.make_caption_samples(2, SEED),
        "cotrain": datasets.make_instruct_samples(2, SEED),
        "manip": manip_rows,
    }

    tuned = trainer.VlaModel(cfg, seed=SEED)
    trainer.run_stage(tuned, "manip", manip_rows[:2], 2,
                      TrainConfig().manip,
                      dataclasses.replace(TrainConfig(), batch_size=2),
                      tok, seed=SEED)
    ckpt = str(tmp_path / "policy.rmck")
    trainer.save_checkpoint(tuned, ckpt)
    policy_model = trainer.load_checkpoint(ckpt)

    rng = np.random.default_rng(1)
    images = [simworld.render(simworld.spawn_object(int(s)))[0].astype(np.float32)
              for s in rng.integers(10**6, 10**9, size=2)]
    assert images[0].shape == (cfg.image_size, cfg.image_size, 3)
    assert all(tok.encode(text) for text in datasets.corpus_texts())

    # the train phase: warm-up call, then two passes, each from the initial
    # weights and no gradients as the benchmark restores them; the benchmark
    # fails a run unless every pass gives the same steps_limit finite losses
    train_cfg = TrainConfig()
    trainer.run_stage(model, "align", stage_rows["align"], 1, train_cfg.align,
                      dataclasses.replace(train_cfg, batch_size=2), tok, seed=1)
    # the benchmark's first reason requests prefill on this model: no tape
    warm = vispipe.multimodal_forward(model.encoder, model.projector, model.lm, images[0],
                                      [tok.BOS] + tok.encode("describe the scene"))
    assert diffcore.tape_nodes(warm.text_logits) == 0
    passes = []
    for _ in range(2):
        for name, p in model.named_params():
            p.data = initial[name].copy()
            p.grad = None
        losses = {}
        for stage in trainer.STAGES:
            before = {name: p.data.copy() for name, p in model.named_params()}
            metrics, _ = trainer.run_stage(
                model, stage, stage_rows[stage], 2,
                getattr(train_cfg, stage), dataclasses.replace(train_cfg, batch_size=2), tok,
                seed=1, out_dir=str(tmp_path), steps_limit=2)
            assert [set(row) >= {"wall_ms", "loss"} for row in metrics] == [True, True]
            # the stage run leaves its mask, which the frozen check reads,
            # and no gradient
            assert model.stage == stage
            assert all(p.grad is None for _, p in model.named_params())
            for name, p in model.named_params():
                if not model.is_trainable(name):
                    assert np.array_equal(p.data, before[name]), name
            losses[stage] = [row["loss"] for row in metrics]
        passes.append(losses)
    assert all(len(values) == 2 and all(map(math.isfinite, values))
               for values in passes[0].values()), passes[0]
    assert passes[0] == passes[1]

    # the control phase: the learned policy inside evaluate
    decisions = []

    def learned_policy(obs: simworld.Observation) -> policy.EndEffectorPose:
        ids = [tok.BOS] + tok.encode(obs.prompt)
        out = vispipe.multimodal_forward(policy_model.encoder, policy_model.projector,
                                         policy_model.lm, obs.rgb.astype(np.float32), ids)
        pose = policy.predict_pose(policy_model.head, out.hidden)
        try:
            pose.validate()
            pose.a_pos = policy.lift_to_3d(pose.contact_pixel, obs.depth, obs.cam)
        except ValueError:
            decisions.append(False)
            raise
        decisions.append(True)
        return pose

    simworld.evaluate(learned_policy, 1, 99)
    rate, log = simworld.evaluate(learned_policy, 3, 100)
    assert len(log) == 3 and len(decisions) == 4
    assert [entry["seed"] for entry in log] == [100, 101, 102]
    assert rate == sum(entry["success"] for entry in log) / 3
    assert [valid == ("error" not in entry) for valid, entry in zip(decisions[1:], log)] \
        == [True] * 3

    # the reason phase: prefill, recurrent decode, and the package's loop
    prefix = [tok.BOS] + tok.encode("describe the scene")
    out = vispipe.multimodal_forward(model.encoder, model.projector, model.lm,
                                     images[0], prefix)
    next_id = int(np.argmax(out.text_logits.data[-1]))
    state = out.state
    ids = [next_id]
    for _ in range(2):
        logits, state = model.lm.lm_forward([next_id], state)
        next_id = int(np.argmax(logits.data[-1]))
        ids.append(next_id)
    full = vispipe.multimodal_forward(model.encoder, model.projector, model.lm,
                                      images[0], prefix + ids[:-1])
    n = len(prefix)
    assert [int(i) for i in np.argmax(full.text_logits.data[n - 1:], axis=1)] == ids
    assert vispipe.generate_greedy_multimodal(
        model.encoder, model.projector, model.lm, images[0], prefix, len(ids)) == ids
    assert cfg.n_patches == out.hidden.shape[0] - len(prefix)
    # the benchmark names each primitive's span by its function's name
    assert all(getattr(diffcore, fn.__name__) is fn for fn in diffcore.PRIMITIVES.values())

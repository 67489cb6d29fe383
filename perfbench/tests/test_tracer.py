"""Tests for the benchmark's outside-in tracer.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import inspect
import sys
import types

import numpy as np
import pytest

from mambavla import datasets, diffcore, fileio, mamba, policy, simworld, trainer, vispipe
from mambavla.config import ModelConfig, StageHyperparams, TrainConfig

from tracer import Tracer, traced_targets

MODULES = (diffcore, mamba, vispipe, policy, trainer, simworld, datasets, fileio)


def tiny_cfg():
    return ModelConfig(vocab_size=64, d_model=16, n_blocks=2, d_state=4, d_conv=4,
                       expand=2, dt_rank=2, image_size=32, patch_size=8, d_vis=8,
                       proj_hidden=12, head_hidden=8)


def tokenizer():
    return mamba.WordTokenizer.build(datasets.corpus_texts(), max_vocab=64)


def bindings():
    """Every module-level binding of the loaded package, every class
    attribute of its public classes, and every module-level dict value."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mambavla" or name.startswith("mambavla.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    out[(name, attr, key)] = item
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, "class", cattr)] = cvalue
    return out


def test_intercepts_names_imported_by_value():
    originals = {"multimodal_forward": vispipe.multimodal_forward,
                 "position_loss": policy.position_loss,
                 "direction_loss": policy.direction_loss}
    lift = policy.lift_to_3d
    with Tracer(MODULES) as tracer:
        for name, fn in originals.items():
            assert getattr(trainer, name) is not fn
            assert getattr(trainer, name).__wrapped__ is fn
        assert simworld.lift_to_3d is not lift and simworld.lift_to_3d.__wrapped__ is lift

        tok = tokenizer()
        rows = datasets.episode_rows(datasets.make_manip_samples(3, seed=5))
        model = trainer.VlaModel(tiny_cfg(), seed=0)
        with tracer.in_phase("manip"):
            metrics, _ = trainer.run_stage(
                model, "manip", rows, epochs=2,
                hyper=StageHyperparams(lr=1e-3, weight_decay=0.0, epochs=2),
                train_cfg=TrainConfig(batch_size=3), tokenizer=tok)
        with tracer.in_phase("control"):
            simworld.evaluate(simworld.center_pixel_policy, episodes=3, seed=7)

    steps = len(metrics)
    assert tracer.calls("policy.position_loss", "manip") == steps
    assert tracer.calls("policy.direction_loss", "manip") == steps
    # run_stage caches one backbone forward per row for the frozen backbone
    assert tracer.calls("vispipe.multimodal_forward", "manip") == len(rows)
    # center_pixel_policy lifts its own pose through simworld's lift_to_3d
    assert tracer.calls("policy.lift_to_3d", "control") == 3


def test_span_counts_equal_call_counts_on_tiny_config():
    cfg = tiny_cfg()
    model = trainer.VlaModel(cfg, seed=0)
    image = np.random.default_rng(0).uniform(0, 1, (32, 32, 3))
    with Tracer(MODULES) as tracer:
        with tracer.in_phase("prefill"):
            out = vispipe.multimodal_forward(model.encoder, model.projector, model.lm,
                                             image, [1, 5, 6, 7])
        state = out.state
        for i, prefix_len in enumerate((1, 3)):
            with tracer.in_phase(f"decode.{i}"):
                for _ in range(prefix_len):
                    _, state = model.lm.lm_forward([4], state)

    n_lm = 1 + 1 + 3
    assert tracer.calls("mamba.MambaBlock.forward", ("prefill", "decode")) \
        == cfg.n_blocks * n_lm
    assert tracer.calls("mamba.selective_scan_tape", ("prefill", "decode")) \
        == cfg.n_blocks * n_lm
    assert tracer.calls("mamba.LanguageModel.forward_embedded", ("prefill", "decode")) == n_lm
    assert tracer.calls("vispipe.PatchEncoder.encode", "prefill") == 1
    assert tracer.calls("vispipe.MlpProjector.project", "prefill") == 1
    # the scan puts 3 slices per token per block on the tape
    L = cfg.n_patches + 4
    assert tracer.calls("diffcore.tslice", "prefill") >= 3 * L * cfg.n_blocks
    # a decode step costs the same number of primitive calls at any position
    prims = [f"diffcore.{fn.__name__}" for fn in diffcore.PRIMITIVES.values()]
    assert tracer.calls(prims, "decode.0") * 3 == tracer.calls(prims, "decode.1")
    # a dotted sub-phase is counted under its parent label
    assert tracer.calls(prims, "decode") == 4 * tracer.calls(prims, "decode.0")


def test_every_original_is_restored():
    before = bindings()
    tracer = Tracer(MODULES)
    with pytest.raises(RuntimeError, match="boom"):
        with tracer:
            during = bindings()
            assert any(during[key] is not value for key, value in before.items())
            model = trainer.VlaModel(tiny_cfg(), seed=0)
            model.lm.lm_forward([1, 2, 3])
            raise RuntimeError("boom")
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not tracer.installed
    assert tracer.calls("mamba.MambaBlock.forward", "idle") == tiny_cfg().n_blocks


def test_wraps_public_functions_and_methods_only():
    spans = {span for mod in MODULES for span, *_ in traced_targets(mod)}
    assert {"diffcore.matmul", "diffcore.backward", "mamba.MambaBlock.forward",
            "trainer.adamw_step", "fileio.write_rmck",
            "simworld.render_buffers", "policy.PoseHead.forward"} <= spans
    assert not any(span.split(".")[-1].startswith("_") for span in spans)
    # parameter iterators are generators: a span would time nothing
    assert "trainer.VlaModel.named_params" not in spans


def test_self_time_excludes_traced_children():
    mod = types.ModuleType("fakepkg.layers")
    exec("def inner(n):\n    return sum(range(n))\n"
         "def outer(n):\n    return inner(n) + inner(n)\n", vars(mod))
    mod.__all__ = ["inner", "outer"]
    sys.modules["fakepkg.layers"] = mod
    try:
        with Tracer([mod], package="fakepkg") as tracer:
            mod.outer(200000)
    finally:
        del sys.modules["fakepkg.layers"]
    outer_total = tracer.inclusive_s("layers.outer", "idle")
    outer_self = tracer.self_s("layers.outer", "idle")
    inner_total = tracer.inclusive_s("layers.inner", "idle")
    assert tracer.calls("layers.inner", "idle") == 2
    assert outer_self == pytest.approx(outer_total - inner_total, abs=1e-9)
    assert 0 <= outer_self < outer_total


def test_span_cost_is_small_and_positive():
    cost = Tracer([]).span_cost(calls=2000, repeats=3)
    assert 0 < cost < 1e-4

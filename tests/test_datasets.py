"""Dataset generators: caption grounding, QA grounding, vocabulary closure,
manifest schemas, and byte-identical regeneration."""

import os

import numpy as np
import pytest

from mambavla import datasets as ds
from mambavla import fileio, simworld
from mambavla.mamba import WordTokenizer


def test_color_name_palette_fixed_points():
    for name, rgb in ds._COLOR_NAMES.items():
        assert ds.color_name(np.array(rgb)) == name


def test_describe_scene_mentions_kind_color_place():
    scene = simworld.spawn_object(4, "door")
    caption = ds.describe_scene(scene)
    assert "door" in caption
    assert ds.color_name(scene.obj.movable_color) in caption
    assert any(p in caption for p in ds._PLACES)


def test_caption_samples_shapes_and_cycle():
    rows = ds.make_caption_samples(6, seed=0)
    assert len(rows) == 6
    for i, row in enumerate(rows):
        assert row["image"].shape == (32, 32, 3)
        assert row["image"].dtype == np.float32
        assert row["prompt"] == ds._PROMPT_CAPTION
        assert simworld.ARCHETYPES[i % 3] in row["answer"]


def test_caption_samples_deterministic():
    a = ds.make_caption_samples(4, seed=9)
    b = ds.make_caption_samples(4, seed=9)
    for ra, rb in zip(a, b):
        assert ra["image"].tobytes() == rb["image"].tobytes()
        assert ra["answer"] == rb["answer"]


def test_instruct_samples_grounded():
    rows = ds.make_instruct_samples(16, seed=3)
    assert len(rows) == 16
    modes = {"caption": 0, "plan": 0, "afford_yes": 0, "afford_no": 0}
    for i, row in enumerate(rows):
        kind = simworld.ARCHETYPES[i % 3]
        if row["prompt"] == ds._PROMPT_CAPTION:
            modes["caption"] += 1
        elif "how should the robot" in row["prompt"]:
            assert row["answer"] == ds._PLANS[kind]
            modes["plan"] += 1
        else:
            asked = row["prompt"].split()[3]
            expect = "yes" if asked == kind else "no"
            assert row["answer"] == expect
            modes["afford_yes" if expect == "yes" else "afford_no"] += 1
    assert all(v > 0 for v in modes.values())


def test_corpus_covers_generated_text():
    """No generated prompt or answer should tokenize to <unk>."""
    tok = WordTokenizer.build(ds.corpus_texts())
    rows = ds.make_caption_samples(9, seed=1) + \
        ds.make_instruct_samples(12, seed=2)
    for row in rows:
        for text in (row["prompt"], row["answer"]):
            assert WordTokenizer.UNK not in tok.encode(text), text
    for ep in ds.make_manip_samples(3, seed=0):
        assert WordTokenizer.UNK not in tok.encode(ep.prompt)


def test_manip_samples_successful_only():
    eps = ds.make_manip_samples(8, seed=0, successful_only=True)
    assert len(eps) == 8
    assert all(ep.success for ep in eps)
    seeds = [ep.seed for ep in eps]
    assert seeds == sorted(seeds) and seeds[0] >= 0


def test_stage1_roundtrip(tmp_path):
    rows = ds.make_caption_samples(3, seed=5)
    manifest = ds.write_stage1_dataset(str(tmp_path), rows)
    assert os.path.basename(manifest) == "manifest.jsonl"
    loaded = ds.load_stage1_dataset(str(tmp_path))
    assert len(loaded) == 3
    for orig, back in zip(rows, loaded):
        assert np.array_equal(orig["image"], back["image"])
        assert (orig["prompt"], orig["answer"]) == \
            (back["prompt"], back["answer"])


def test_manip_roundtrip(tmp_path):
    eps = ds.make_manip_samples(4, seed=2)
    ds.write_manip_dataset(str(tmp_path), eps)
    loaded = ds.load_manip_dataset(str(tmp_path))
    assert len(loaded) == 4
    for ep, row in zip(eps, loaded):
        assert np.array_equal(row["image"], ep.rgb.astype(np.float32))
        assert np.array_equal(row["depth"], ep.depth.astype(np.float32))
        assert np.array_equal(row["rot"], ep.gt_pose.a_dir)
        assert row["pos_uv"] == ep.gt_pose.contact_pixel
        assert row["success"] == ep.success
        assert row["dq"] == ep.dq and row["seed"] == ep.seed


def test_regeneration_byte_identical(tmp_path):
    """Fixed seed -> identical manifest and frame bytes across two runs."""
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        ds.write_manip_dataset(d, ds.make_manip_samples(5, seed=7))
        ds.write_stage1_dataset(os.path.join(d, "cap"),
                                ds.make_caption_samples(3, seed=7))
    for rel in ["manifest.jsonl", os.path.join("images", "episode_00000.rmim"),
                os.path.join("cap", "manifest.jsonl"),
                os.path.join("cap", "images", "frame_00002.rmim")]:
        a = open(os.path.join(dirs[0], rel), "rb").read()
        b = open(os.path.join(dirs[1], rel), "rb").read()
        assert a == b, rel


def test_load_rejects_missing_keys(tmp_path):
    fileio.write_jsonl(str(tmp_path / "manifest.jsonl"),
                       [{"image": "x.rmim", "prompt": "p"}])
    with pytest.raises(fileio.FormatError, match="answer"):
        ds.load_stage1_dataset(str(tmp_path))


def test_load_manip_rejects_missing_depth(tmp_path):
    os.makedirs(tmp_path / "images")
    rgb = np.zeros((4, 4, 3), dtype=np.float32)
    fileio.write_rmim(str(tmp_path / "images" / "e.rmim"), rgb)
    fileio.write_jsonl(str(tmp_path / "manifest.jsonl"), [{
        "image": "images/e.rmim", "prompt": "p", "pos_uv": [0.5, 0.5],
        "rot": [1, 0, 0, 0, 1, 0, 0, 0, 1],
        "success": True, "dq": 0.2, "seed": 0}])
    with pytest.raises(fileio.FormatError, match="depth"):
        ds.load_manip_dataset(str(tmp_path))


def test_generators_reject_empty():
    with pytest.raises(ValueError):
        ds.make_caption_samples(0, seed=0)
    with pytest.raises(ValueError):
        ds.make_instruct_samples(0, seed=0)
    with pytest.raises(ValueError):
        ds.make_manip_samples(0, seed=0)

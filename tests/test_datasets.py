"""Dataset generators: caption grounding, QA grounding, vocabulary closure,
and byte-identical regeneration from a seed."""

import numpy as np
import pytest

from mambavla import datasets as ds
from mambavla import simworld
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


@pytest.mark.parametrize("make", [
    ds.make_caption_samples,
    ds.make_instruct_samples,
    lambda n, seed: ds.episode_rows(ds.make_manip_samples(n, seed=seed)),
], ids=["caption", "instruct", "manip"])
def test_samples_deterministic(make):
    """Same seed -> identical image bytes and text and pose fields."""
    a = make(4, seed=9)
    b = make(4, seed=9)
    assert len(a) == len(b) == 4
    for ra, rb in zip(a, b):
        assert ra.keys() == rb.keys()
        for key in ra:
            assert np.asarray(ra[key]).tobytes() == \
                np.asarray(rb[key]).tobytes(), key


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


def test_generators_reject_empty():
    with pytest.raises(ValueError):
        ds.make_caption_samples(0, seed=0)
    with pytest.raises(ValueError):
        ds.make_instruct_samples(0, seed=0)
    with pytest.raises(ValueError):
        ds.make_manip_samples(0, seed=0)


@pytest.mark.parametrize("make", [ds.make_caption_samples, ds.make_instruct_samples,
                                  ds.make_manip_samples],
                         ids=["caption", "instruct", "manip"])
@pytest.mark.parametrize("n", [1.5, 2.0, "2"])
def test_generators_reject_non_integer_counts(make, n):
    # 1.5 used to fail inside range() as a TypeError
    with pytest.raises(ValueError, match="integer n >= 1"):
        make(n, 0)


SEEDED_CALLS = {
    "spawn_object": lambda seed: simworld.spawn_object(seed, "drawer"),
    "collect_episode": lambda seed: simworld.collect_episode(seed, "drawer"),
    "evaluate": lambda seed: simworld.evaluate(simworld.center_pixel_policy, 1, seed),
    "caption": lambda seed: ds.make_caption_samples(1, seed),
    "instruct": lambda seed: ds.make_instruct_samples(1, seed),
    "manip": lambda seed: ds.make_manip_samples(1, seed),
}


@pytest.mark.parametrize("call", SEEDED_CALLS)
@pytest.mark.parametrize("seed", [2.5, 1.5, -3, -2, True, "1", None], ids=repr)
def test_seeded_entry_points_reject_bad_seeds(call, seed):
    # 2.5 used to fail in numpy's SeedSequence, -3 as "expected non-negative
    # integer", and True ran seed 1
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        SEEDED_CALLS[call](seed)


@pytest.mark.parametrize("call", SEEDED_CALLS)
@pytest.mark.parametrize("seed", [np.int64(4), np.uint8(4)], ids=repr)
def test_seeded_entry_points_accept_numpy_integers(call, seed):
    SEEDED_CALLS[call](seed)


def test_numpy_integer_seed_runs_as_the_int_seed():
    got = simworld.evaluate(simworld.center_pixel_policy, 3, np.int64(4))
    assert got == simworld.evaluate(simworld.center_pixel_policy, 3, 4)
    assert all(type(entry["seed"]) is int for entry in got[1])
    ep = simworld.collect_episode(np.uint16(4))
    assert type(ep.seed) is int and ep.rgb.tobytes() == simworld.collect_episode(4).rgb.tobytes()

"""Procedural toy corpora for the three training stages.

Stage 1.1 pairs rendered scenes with captions describing their shape, color,
and placement.  Stage 1.2 mixes those captions with instruction QA derived
from the simulator (planning strings and affordance yes/no).  Stage 2 is the
Appendix-B-style episode set: RGB+depth frames with ground-truth contact
poses.  Every generator is a pure function of its seed.
"""

from __future__ import annotations

import numpy as np

from mambavla import simworld
from mambavla.config import check_seed, is_integer

__all__ = [
    "color_name",
    "describe_scene",
    "corpus_texts",
    "make_caption_samples",
    "make_instruct_samples",
    "make_manip_samples",
    "episode_rows",
]

_COLOR_NAMES = {
    "red": (0.80, 0.30, 0.30),
    "green": (0.30, 0.75, 0.35),
    "blue": (0.30, 0.40, 0.80),
    "yellow": (0.80, 0.75, 0.30),
    "purple": (0.60, 0.35, 0.75),
    "teal": (0.30, 0.70, 0.70),
    "gray": (0.55, 0.55, 0.55),
    "brown": (0.60, 0.45, 0.30),
}

_PLACES = ("left side", "middle", "right side")

_CAPTION_TEMPLATES = (
    "a {color} {kind} in the {place}",
    "the {color} {kind} sits in the {place}",
)

_PLANS = {
    "drawer": "grip the front face and pull it straight back",
    "door": "grip the free edge and swing it outward",
    "lid": "press the top face and lift it upward",
}

_PROMPT_CAPTION = "describe the scene"
_PROMPT_PLAN = "how should the robot open the {kind} ?"
_PROMPT_AFFORD = "is there a {kind} to open here ?"


def color_name(rgb: np.ndarray) -> str:
    """Nearest named color by Euclidean distance."""
    names = list(_COLOR_NAMES)
    dist = [np.linalg.norm(np.asarray(rgb) - np.asarray(_COLOR_NAMES[n]))
            for n in names]
    return names[int(np.argmin(dist))]


def _place(cx: float) -> str:
    if cx < -0.15:
        return _PLACES[0]
    if cx > 0.15:
        return _PLACES[2]
    return _PLACES[1]


def describe_scene(scene: simworld.Scene, template: int = 0) -> str:
    obj = scene.obj
    return _CAPTION_TEMPLATES[template % len(_CAPTION_TEMPLATES)].format(
        color=color_name(obj.movable_color), kind=obj.archetype,
        place=_place(float(obj.movable_box.center[0])))


def corpus_texts() -> list[str]:
    """Deterministic enumeration of every string the generators can emit.

    Fitting the tokenizer on this keeps the vocabulary stable no matter which
    seeds the datasets were drawn with.
    """
    texts = []
    for kind in simworld.ARCHETYPES:
        for color in _COLOR_NAMES:
            for place in _PLACES:
                for i, tpl in enumerate(_CAPTION_TEMPLATES):
                    texts.append(tpl.format(color=color, kind=kind,
                                            place=place))
        texts.append(_PROMPT_PLAN.format(kind=kind))
        texts.append(_PROMPT_AFFORD.format(kind=kind))
        texts.append(_PLANS[kind])
        texts.append(simworld.PROMPTS[kind])
    texts.extend([_PROMPT_CAPTION, "yes", "no"])
    return texts


# ---------------------------------------------------------------------------
# generators


def _check_count(dataset: str, n) -> int:
    """n as a Python int, under the rule of `config.is_integer`."""
    if not (is_integer(n) and n >= 1):
        raise ValueError(f"{dataset} dataset needs an integer n >= 1, got {n!r}")
    return int(n)


def make_caption_samples(n: int, seed: int) -> list[dict]:
    """Stage-1.1 rows: {image: [H,W,3] array, prompt, answer}."""
    n = _check_count("caption", n)
    seed = check_seed("caption dataset", seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 10]))
    rows = []
    for i in range(n):
        kind = simworld.ARCHETYPES[i % len(simworld.ARCHETYPES)]
        scene = simworld.spawn_object(seed + i, kind)
        rgb, _ = simworld.render(scene)
        rows.append({
            "image": rgb.astype(np.float32),
            "prompt": _PROMPT_CAPTION,
            "answer": describe_scene(scene, template=int(rng.integers(2))),
        })
    return rows


def make_instruct_samples(n: int, seed: int) -> list[dict]:
    """Stage-1.2 rows: captions mixed with planning and affordance QA."""
    n = _check_count("instruct", n)
    seed = check_seed("instruct dataset", seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    rows = []
    for i in range(n):
        kind = simworld.ARCHETYPES[i % len(simworld.ARCHETYPES)]
        scene = simworld.spawn_object(seed + 1000 + i, kind)
        rgb, _ = simworld.render(scene)
        mode = i % 4
        if mode == 0:
            prompt = _PROMPT_CAPTION
            answer = describe_scene(scene, template=int(rng.integers(2)))
        elif mode == 1:
            prompt = _PROMPT_PLAN.format(kind=kind)
            answer = _PLANS[kind]
        else:
            # affordance: half the questions name the rendered archetype,
            # half name a different one, so "yes"/"no" are both grounded
            asked = kind if mode == 2 else \
                simworld.ARCHETYPES[(i + 1) % len(simworld.ARCHETYPES)]
            prompt = _PROMPT_AFFORD.format(kind=asked)
            answer = "yes" if asked == kind else "no"
        rows.append({"image": rgb.astype(np.float32),
                     "prompt": prompt, "answer": answer})
    return rows


def make_manip_samples(n: int, seed: int, kind: str | None = None,
                       successful_only: bool = False) -> list[simworld.ManipEpisode]:
    """Stage-2 episodes; per-episode seeds are seed+index.

    With successful_only, failed episodes are dropped (the Appendix-B recipe
    trains on successful samples), drawing extra seeds until n remain.
    """
    n = _check_count("manip", n)
    seed = check_seed("manip dataset", seed)
    episodes = []
    offset = 0
    while len(episodes) < n:
        ep = simworld.collect_episode(seed + offset, kind)
        offset += 1
        if successful_only and not ep.success:
            continue
        episodes.append(ep)
        if offset > 20 * n + 100:
            raise RuntimeError("manip dataset: too many failed episodes")
    return episodes


def episode_rows(episodes: list[simworld.ManipEpisode]) -> list[dict]:
    """Stage-2 training rows: the image, prompt and ground-truth pose."""
    rows = []
    for ep in episodes:
        pose = ep.gt_pose
        rows.append({
            "image": ep.rgb.astype(np.float32),
            "prompt": ep.prompt,
            "pos_uv": (float(pose.contact_pixel[0]),
                       float(pose.contact_pixel[1])),
            "rot": np.asarray(pose.a_dir, dtype=np.float64),
        })
    return rows

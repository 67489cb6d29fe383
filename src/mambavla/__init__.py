"""Desk-scale selective state-space vision-language-action stack.

Everything here runs on CPU with numpy as the only array dependency:
a reverse-mode autodiff core whose fused `mamba-inner` node runs the
selective scan (`diffcore`), a Mamba-style language model (`mamba`), a
patch-embed vision pipeline (`vispipe`), a 6-DoF pose policy head
(`policy`), a staged trainer (`trainer`), and a procedural
articulated-object simulator (`simworld`).
"""

from mambavla.config import ModelConfig, SimConfig, TrainConfig

__version__ = "0.1.0"

__all__ = ["ModelConfig", "TrainConfig", "SimConfig", "__version__"]

"""Desk-scale selective state-space vision-language-action stack.

Everything here runs on CPU with numpy as the only array dependency:
a reverse-mode autodiff core whose fused `mamba-inner` node runs the
selective scan (`diffcore`), a Mamba-style language model (`mamba`), a
patch-embed vision pipeline (`vispipe`), a 6-DoF pose policy head
(`policy`), a staged trainer (`trainer`), and a procedural
articulated-object simulator (`simworld`).

On a shared host, set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy loads, as `perfbench/run.py` and
`tests/conftest.py` do: a BLAS thread waiting for a core made short LM
forwards ~5x slower.
"""

from mambavla.config import ModelConfig, SimConfig, TrainConfig

__version__ = "0.1.0"

__all__ = ["ModelConfig", "TrainConfig", "SimConfig", "__version__"]

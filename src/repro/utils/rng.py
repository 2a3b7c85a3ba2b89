"""Deterministic random-number management.

Every stochastic component of the library takes a ``numpy.random.Generator``
argument so that trials are reproducible.  Experiment drivers derive
independent per-trial streams with ``SeedSequence.spawn``
(:func:`repro.sweep.spec.spawn_trial_seeds`), which guarantees statistically
independent streams for the 30-trial experiments of the paper.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_generator"]


def make_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator from a seed, pass through an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

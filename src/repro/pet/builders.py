"""PET matrix builders (paper Sections VI-A and VII-G).

Two PET constructions are needed by the evaluation:

* :func:`build_pet_from_means` / :func:`build_spec_pet` — the SPECint-style
  synthetic PET of Section VI-A: for every (task type, machine) pair a gamma
  distribution with the tabulated mean and a shape drawn uniformly from
  [1, 20] is sampled 500 times and histogrammed into a PMF.
* :func:`build_transcoding_pet` — the video-transcoding PET of Section VII-G
  (four transcoding operations on four heterogeneous cloud VM types), rebuilt
  synthetically with the affinity structure the paper describes (GPU VMs
  strongly favour compute-bound operations, memory-optimised VMs favour
  memory-bound ones).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.pmf import DiscretePMF
from ..utils.rng import make_generator
from .matrix import PETMatrix
from .spec_data import SPEC_MACHINE_NAMES, SPEC_TASK_TYPE_NAMES, spec_mean_matrix

__all__ = [
    "gamma_execution_pmf",
    "build_pet_from_means",
    "build_spec_pet",
    "build_transcoding_pet",
    "TRANSCODING_TASK_TYPES",
    "TRANSCODING_MACHINE_NAMES",
    "TRANSCODING_MEAN_EXECUTION_TIMES",
]

#: Default number of samples used to histogram each PET entry (paper: 500).
DEFAULT_SAMPLES_PER_ENTRY = 500

#: Shape-parameter range for the per-entry gamma distributions (paper: [1, 20]).
DEFAULT_SHAPE_RANGE = (1.0, 20.0)


def gamma_execution_pmf(
    mean: float,
    shape: float,
    *,
    rng: np.random.Generator,
    n_samples: int = DEFAULT_SAMPLES_PER_ENTRY,
    bin_width: int = 1,
) -> DiscretePMF:
    """One PET entry: a histogram of gamma-distributed execution times.

    The gamma distribution is parameterised by its mean and shape ``k``;
    the scale is ``mean / k`` so the sampled mean matches the tabulated
    mean execution time.  ``standard_gamma(k) * scale`` is the draw
    ``scipy.stats.gamma(a=k, scale=scale).rvs`` makes, value for value
    (pinned in ``tests/core/test_pmf.py``), without importing scipy.
    """
    if mean <= 0:
        raise ValueError("mean execution time must be positive")
    if shape <= 0:
        raise ValueError("gamma shape must be positive")
    samples = rng.standard_gamma(shape, size=n_samples) * (mean / shape)
    return DiscretePMF.from_samples(samples, bin_width=bin_width, min_time=1)


def build_pet_from_means(
    means: np.ndarray | Sequence[Sequence[float]],
    *,
    task_types: Sequence[str],
    machine_names: Sequence[str],
    rng: np.random.Generator | int | None = None,
    shape_range: tuple[float, float] = DEFAULT_SHAPE_RANGE,
    n_samples: int = DEFAULT_SAMPLES_PER_ENTRY,
    bin_width: int = 1,
) -> PETMatrix:
    """Build a PET matrix from a table of mean execution times.

    For each (task type, machine) entry a gamma shape is drawn uniformly
    from ``shape_range``, ``n_samples`` execution times are sampled, and the
    samples are histogrammed into a :class:`DiscretePMF` — exactly the
    offline procedure of Section VI-A.
    """
    rng = make_generator(rng)
    means_arr = np.asarray(means, dtype=np.float64)
    if means_arr.shape != (len(task_types), len(machine_names)):
        raise ValueError(
            f"means shape {means_arr.shape} does not match "
            f"({len(task_types)}, {len(machine_names)})"
        )
    if np.any(means_arr <= 0):
        raise ValueError("all mean execution times must be positive")
    lo, hi = shape_range
    if not (0 < lo <= hi):
        raise ValueError("invalid gamma shape range")

    def entry(mean: float) -> DiscretePMF:
        shape = float(rng.uniform(lo, hi))  # drawn before the entry's samples
        return gamma_execution_pmf(mean, shape, rng=rng, n_samples=n_samples, bin_width=bin_width)

    rows = tuple(tuple(entry(mean) for mean in row) for row in means_arr.tolist())
    return PETMatrix(tuple(task_types), tuple(machine_names), rows)


def build_spec_pet(
    rng: np.random.Generator | int | None = None,
    *,
    n_samples: int = DEFAULT_SAMPLES_PER_ENTRY,
    bin_width: int = 1,
) -> PETMatrix:
    """The 12 task-type x 8 machine SPECint-style PET of Section VI-A."""
    return build_pet_from_means(
        spec_mean_matrix(),
        task_types=SPEC_TASK_TYPE_NAMES,
        machine_names=SPEC_MACHINE_NAMES,
        rng=rng,
        n_samples=n_samples,
        bin_width=bin_width,
    )


# ----------------------------------------------------------------------
# Video transcoding PET (Section VII-G)
# ----------------------------------------------------------------------

#: Four transcoding operations performed on live video segments.
TRANSCODING_TASK_TYPES: tuple[str, ...] = (
    "change-resolution",
    "change-codec",
    "change-bitrate",
    "change-framerate",
)

#: Four heterogeneous cloud VM types (paper: Amazon EC2 families).
TRANSCODING_MACHINE_NAMES: tuple[str, ...] = (
    "cpu-optimized",
    "memory-optimized",
    "general-purpose",
    "gpu",
)

#: Mean execution times (time units) of each transcoding operation on each VM
#: type.  The affinity structure follows the paper's observation: codec
#: changes (compute-bound) benefit enormously from GPU VMs, resolution
#: changes moderately, while bit-rate and frame-rate changes (I/O and memory
#: bound) favour CPU/memory-optimised VMs and gain little from GPUs.
TRANSCODING_MEAN_EXECUTION_TIMES: tuple[tuple[float, ...], ...] = (
    #  cpu-opt  mem-opt  general  gpu
    (95.0,   120.0,   135.0,  60.0),   # change-resolution
    (160.0,  185.0,   200.0,  70.0),   # change-codec
    (70.0,    62.0,    88.0,  90.0),   # change-bitrate
    (85.0,    72.0,   100.0, 105.0),   # change-framerate
)


def build_transcoding_pet(
    rng: np.random.Generator | int | None = None,
    *,
    n_samples: int = DEFAULT_SAMPLES_PER_ENTRY,
    shape_range: tuple[float, float] = (2.0, 12.0),
    bin_width: int = 1,
) -> PETMatrix:
    """The 4 x 4 video-transcoding PET used for Figure 9.

    The real trace (660 videos on four EC2 VM types) is unavailable offline;
    this synthetic equivalent keeps the inconsistent-affinity structure that
    drives the PAMF-vs-MinMin comparison.
    """
    return build_pet_from_means(
        TRANSCODING_MEAN_EXECUTION_TIMES,
        task_types=TRANSCODING_TASK_TYPES,
        machine_names=TRANSCODING_MACHINE_NAMES,
        rng=rng,
        shape_range=shape_range,
        n_samples=n_samples,
        bin_width=bin_width,
    )

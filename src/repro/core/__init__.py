"""Core probabilistic machinery of the reproduction.

This subpackage implements the paper's mathematical substrate: discrete
execution/completion-time PMFs, the completion-time model under task dropping
(Section IV, Eqs. 2-5, one chain step:
:func:`~repro.core.completion.completion_step`), and the batched PMF engine
(:mod:`repro.core.batch`) that scores whole (task, machine) grids against
Eq. 1 in single NumPy calls.  The test suite pins both, at atol=0, against a
reference model written from the paper's equations (``tests/reference/``).
"""

from .batch import (
    KERNEL_VERSION,
    CDFTable,
    PMFBatch,
    batched_convolve_ragged,
    batched_success_probability,
    sequential_sum,
)
from .completion import DroppingPolicy, queue_completion_pmfs
from .pmf import MASS_TOLERANCE, DiscretePMF

__all__ = [
    "DiscretePMF",
    "MASS_TOLERANCE",
    "KERNEL_VERSION",
    "PMFBatch",
    "CDFTable",
    "sequential_sum",
    "batched_convolve_ragged",
    "batched_success_probability",
    "DroppingPolicy",
    "queue_completion_pmfs",
]

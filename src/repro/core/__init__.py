"""Core probabilistic machinery of the reproduction.

This subpackage implements the paper's mathematical substrate: discrete
execution/completion-time PMFs, the completion-time model under task dropping
(Section IV, Eqs. 2-5), robustness evaluation (Eq. 1), and the batched PMF
engine (:mod:`repro.core.batch`) that scores whole (task, machine) grids in
single NumPy calls — bit-identical to the scalar API.
"""

from .batch import (
    KERNEL_VERSION,
    CDFTable,
    PMFBatch,
    batched_convolve_ragged,
    batched_success_probability,
    sequential_sum,
)
from .completion import (
    DroppingPolicy,
    completion_pmf,
    pct_evict_drop,
    pct_no_drop,
    pct_pending_drop,
    queue_completion_pmfs,
    start_pmf_for_idle_machine,
)
from .pmf import MASS_TOLERANCE, DiscretePMF
from .robustness import (
    queue_success_probabilities,
    robustness_of_pct,
    success_probability,
)

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
    "completion_pmf",
    "pct_no_drop",
    "pct_pending_drop",
    "pct_evict_drop",
    "queue_completion_pmfs",
    "start_pmf_for_idle_machine",
    "robustness_of_pct",
    "success_probability",
    "queue_success_probabilities",
]

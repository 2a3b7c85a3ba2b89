"""repro — reproduction of "Robust Dynamic Resource Allocation via
Probabilistic Task Pruning in Heterogeneous Computing Systems"
(Gentry, Denninnart, Amini Salehi, 2019).

The package is organised bottom-up:

* :mod:`repro.core` — discrete PMF algebra, completion-time model under task
  dropping (Eqs. 2-5) and robustness (Eq. 1);
* :mod:`repro.pet` — the Probabilistic Execution Time matrix and its builders;
* :mod:`repro.workload` — arrival/deadline generation (Section VI-B);
* :mod:`repro.simulator` — the event-driven oversubscribed HC system;
* :mod:`repro.pruning` — dropping/deferring thresholds, oversubscription
  detection, fairness (Section V);
* :mod:`repro.heuristics` — PAM, PAMF and the four baseline mappers;
* :mod:`repro.experiments` — drivers regenerating every evaluation figure;
* :mod:`repro.sweep` — parallel experiment orchestration with a
  content-addressed result cache (declarative grids, process-pool fan-out).

Quickstart::

    import repro

    pet = repro.build_spec_pet(rng=1)
    trace = repro.generate_workload(
        repro.WorkloadConfig(num_tasks=400, time_span=4000), pet, rng=2
    )
    result = repro.simulate(pet, repro.make_heuristic("PAM"), trace, rng=3)
    print(result.robustness_percent())
"""

from importlib import import_module

from .core import DiscretePMF, DroppingPolicy, queue_completion_pmfs
from .heuristics import (
    HEURISTIC_NAMES,
    FairPruningMapper,
    MappingHeuristic,
    MaxOntimeCompletions,
    MinCompletionMaxUrgency,
    MinCompletionMinCompletion,
    MinCompletionSoonestDeadline,
    PruningAwareMapper,
    make_heuristic,
)
from .pet import (
    PETMatrix,
    build_pet_from_means,
    build_spec_pet,
    build_transcoding_pet,
)
from .pruning import (
    OversubscriptionDetector,
    Pruner,
    PruningThresholds,
    SufferageTracker,
)
from .simulator import (
    HCSimulator,
    SimulationResult,
    SimulatorConfig,
    SystemState,
    simulate,
)
from .workload import (
    TaskSpec,
    WorkloadConfig,
    WorkloadTrace,
    generate_transcoding_trace,
    generate_workload,
    load_trace,
    save_trace,
)

__version__ = "0.3.0"

#: Resolved on first access (PEP 562), like the two subpackages themselves: a process that
#: only simulates or serves never imports the process pool, the result cache or the figures.
_LAZY_EXPORTS = {
    "sweep": (
        "HeuristicSpec",
        "ParallelExecutor",
        "PETSpec",
        "ResultCache",
        "SweepOutcome",
        "SweepPoint",
        "SweepSpec",
        "TraceSpec",
        "run_sweep",
    ),
    "experiments": ("ExperimentConfig", *(f"run_fig{n}" for n in range(4, 10))),
}


def __getattr__(name: str):
    for subpackage, exports in _LAZY_EXPORTS.items():
        if name == subpackage or name in exports:
            module = import_module(f"{__name__}.{subpackage}")
            return module if name == subpackage else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # core
    "DiscretePMF",
    "DroppingPolicy",
    "queue_completion_pmfs",
    # pet
    "PETMatrix",
    "build_pet_from_means",
    "build_spec_pet",
    "build_transcoding_pet",
    # workload
    "TaskSpec",
    "WorkloadConfig",
    "WorkloadTrace",
    "generate_workload",
    # simulator
    "HCSimulator",
    "SimulatorConfig",
    "SystemState",
    "SimulationResult",
    "simulate",
    # pruning
    "Pruner",
    "PruningThresholds",
    "OversubscriptionDetector",
    "SufferageTracker",
    # heuristics
    "MappingHeuristic",
    "PruningAwareMapper",
    "FairPruningMapper",
    "MaxOntimeCompletions",
    "MinCompletionMinCompletion",
    "MinCompletionSoonestDeadline",
    "MinCompletionMaxUrgency",
    "HEURISTIC_NAMES",
    "make_heuristic",
    # sweep orchestration and figure drivers (lazy, see _LAZY_EXPORTS)
    *_LAZY_EXPORTS["sweep"],
    *_LAZY_EXPORTS["experiments"],
    # trace persistence / replay
    "save_trace",
    "load_trace",
    "generate_transcoding_trace",
]

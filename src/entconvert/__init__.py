"""Optimal single-copy conversion of bipartite pure entangled states
under local operations and classical communication.

The package answers, exactly where the inputs allow it: with what
probability can one pure state be turned into another, which explicit
local protocol achieves that optimum, and which monotone certifies that
nothing better exists.

The protocol simulator loads on first use: ``locc`` and the 23 names
taken from it, listed in ``_LOCC`` below (the protocol types, the
exhaustive, merged and Monte-Carlo engines, ``build_full_protocol``,
``deterministic_protocol``, ``success_probability`` and the monotone
audits), are served by the module ``__getattr__`` (PEP 562).  Every
other name is bound at import, so a question the closed form answers
never pays for the simulator.
"""

from .conversion import (Breakpoints, ConversionPlan, ExactMonomial,
                         InfeasibleConversionError, IntermediateOrderError,
                         MultiCopyBound, MULTI_COPY_POSSIBLE,
                         PlanInvariantError, ProtocolError,
                         SINGLE_COPY_OPTIMAL, breakpoints, build_plan,
                         intermediate_state, measurement_operators,
                         multi_copy_bound, optimal_probability,
                         optimal_probability_detail,
                         tensor_conversion_probability)
from .monotones import (Ensemble, MonotoneVector, ensemble_average,
                        entanglement_monotone, entropy_of_entanglement,
                        monotone_profile, smallest_eigenvalue_sum)
from .ordering import (BOTH_UNIT, EQUAL, FIRST_GREATER, SECOND_GREATER,
                       ComparisonResult, INTRANSITIVE_TRIPLE,
                       NonadditivityInstance, SUPERMULTIPLICATIVE_PAIR,
                       compare, find_cycle, nonadditivity_search)
from .schmidt import (BipartiteState, DensityOperator, InvalidStateError,
                      SchmidtVector, majorizes, reduced_density,
                      schmidt_decompose, state_from_schmidt, tensor_power)

__version__ = "0.1.0"

_LOCC = ("Announce", "Branch", "BranchLimitError", "LoccProtocol",
         "LocalMeasurement", "LocalUnitary", "MajorizationError",
         "MeasurementOutcome", "MergedRun", "MonotoneViolationError",
         "OutcomeIs", "SimulationReport", "apply_measurement",
         "audit_trajectories", "build_full_protocol",
         "deterministic_protocol", "exhaustive_run", "exhaustive_run_exact",
         "merged_run_exact", "merged_sample_exact", "monotone_audit",
         "monte_carlo_run", "success_probability")

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["locc", *_LOCC])


def __getattr__(name):
    if name != "locc" and name not in _LOCC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    # bind the module and every name taken from it, so this runs once
    locc = import_module(".locc", __name__)
    globals().update({lazy: getattr(locc, lazy) for lazy in _LOCC},
                     locc=locc)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})

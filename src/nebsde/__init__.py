"""Reflected BSDE solvers with nonlinear-expectation and risk constraints.

The package solves backward SDEs whose value process is pushed by a
deterministic nondecreasing flow so that, at every grid time, either a mean
constraint ``E[l(t, Y_t)] >= 0`` or a risk constraint ``rho(t, Y_t) <= q_t``
holds, using the smallest flow that does the job.  Scenario engines: an
exact recombining binomial tree and seeded Monte Carlo with regression
conditioning.
"""
from .bsde import BsdePair, Driver, TerminalClaim, solve_bsde
from .errors import (
    BracketFailureError,
    ConfigError,
    FixedPointError,
    InfeasibleProblemError,
    NonContractiveStepError,
    SupportMismatchError,
)
from .expectations import DominationReport, NonlinearExpectation, domination_gap, evaluate
from .picard import SolveDiagnostics, solve_reflected
from .reflection import (
    LossFunction,
    ReflectedSolution,
    ReflectorFlow,
    minimal_shift,
    skorokhod_residual,
)
from .risk import (
    Benchmark,
    Market,
    PriceReport,
    RiskMeasure,
    evaluate_risk,
    risk_shift,
    solve_risk_reflected,
    superhedge_price,
)
from .scenarios import (
    RandomVariable,
    ScenarioSet,
    TimeGrid,
    build_scenarios,
    cond_expect,
    expect,
    tilted_expect,
)
from .verify import (
    ComparisonInstance,
    ComparisonReport,
    ParameterBundle,
    RampFlowInstance,
    RepresentationData,
    comparison_report,
    mean_floor,
    representation_gap,
    run_structural_checks,
    structural_checks,
    tilted_competitor_demo,
)

# the tree kernel is numpy; run logs and benchmark records carry this label
KERNEL_BACKEND = "python"

__version__ = "0.1.0"

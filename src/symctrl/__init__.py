"""Symbolic controller synthesis for sampled nonlinear ODE plants against
ODE-defined specifications, via finite lattice abstractions."""

from .abstraction import (AbstractionSpec, ResourceLimitError,
                          build_abstraction)
from .dynamics import (ControlSystem, DivergenceError, StabilityCertificate,
                       flow, flow_many)
from .expr import (EvalDomainError, ExprSyntaxError, evaluate,
                   format_expression, parse_expression)
from .loop import (ClosedLoopTrace, ConformanceReport, UncontrolledStateError,
                   conformance_report, simulate_closed_loop)
from .quantize import (EmptyLatticeError, Lattice, SynthesisParams,
                       ValidationReport, validate_parameters)
from .synthesis import (Controller, Metrics, ParameterValidationError,
                        baseline_artifacts, baseline_memory_units,
                        controller_to_system, integrated_memory_units,
                        synthesize_baseline, synthesize_integrated)
from .tsys import (FiniteSystem, accessible_part, check_bisimulation,
                   check_simulation, compose, is_deterministic,
                   nonblocking_part, subsystem)

__all__ = [
    "AbstractionSpec", "ClosedLoopTrace", "ConformanceReport",
    "ControlSystem", "Controller", "DivergenceError", "EmptyLatticeError",
    "EvalDomainError", "ExprSyntaxError", "FiniteSystem", "Lattice",
    "Metrics", "ParameterValidationError", "ResourceLimitError",
    "StabilityCertificate", "SynthesisParams", "UncontrolledStateError",
    "ValidationReport", "accessible_part", "baseline_artifacts",
    "baseline_memory_units", "build_abstraction", "check_bisimulation",
    "check_simulation", "compose",
    "conformance_report", "controller_to_system", "evaluate", "flow",
    "flow_many", "format_expression", "integrated_memory_units",
    "is_deterministic", "nonblocking_part", "parse_expression",
    "simulate_closed_loop", "subsystem", "synthesize_baseline",
    "synthesize_integrated", "validate_parameters",
]

__version__ = "0.1.0"

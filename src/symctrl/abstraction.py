"""Quantized symbolic models of sampled control systems.

The abstraction of a system places one symbolic state on every point of the
state lattice (spacing 2*eta) and one symbolic input on every point of the
input lattice (spacing 2*mu).  A transition (x, u, y) exists exactly when the
sampled flow from x under constant u lands in the half-open cell of a lattice
point y; endpoints outside the cells' cover of the state box produce no
transition.  Because the cells are disjoint, the result is deterministic:
each (state, input) has at most one successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import DEFAULT_SUBSTEPS, ControlSystem, _flow_tile, map_tiles
from .quantize import Lattice
from .tsys import FiniteSystem

DEFAULT_TRANSITION_CAP = 100_000_000


class ResourceLimitError(RuntimeError):
    """The projected or actual transition count exceeds the configured cap."""


@dataclass(frozen=True)
class AbstractionSpec:
    """Sampling time tau, state quantization eta, input quantization mu
    (None for autonomous systems, whose single input is the constant zero),
    and integrator substeps per sampling period."""

    tau: float
    eta: float
    mu: Optional[float] = None
    substeps: int = DEFAULT_SUBSTEPS

    def __post_init__(self):
        if self.tau <= 0 or self.eta <= 0:
            raise ValueError("tau and eta must be positive")
        if self.mu is not None and self.mu <= 0:
            raise ValueError("mu must be positive when present")
        if self.substeps < 1:
            raise ValueError("substeps must be a positive integer")


def state_lattice(sys: ControlSystem, eta: float) -> Lattice:
    return Lattice(sys.state_box, 2.0 * eta)


def input_points(sys: ControlSystem, mu: Optional[float]) -> np.ndarray:
    """Input lattice points, or the single zero input for autonomous systems."""
    if sys.m == 0:
        return np.zeros((1, 0))
    if mu is None:
        raise ValueError("mu is required for systems with inputs")
    return Lattice(sys.input_box, 2.0 * mu).points()


def initial_indices(lattice: Lattice, init_box) -> np.ndarray:
    """Flat indices of the lattice points covering the initial box.

    The per-axis index range rounds outward, so an initial box whose edge
    falls strictly between two lattice points also claims the straddling
    points; edges aligned with the grid add nothing.
    """
    return lattice.outer_range_indices(init_box)


def _transition_chunk(sys, spec, st_lat, pts, inputs, a, b):
    n_u = inputs.shape[0]
    pair = np.arange(a, b, dtype=np.int64)
    src = pair // n_u
    uix = pair % n_u
    Z = _flow_tile(sys, pts[src], inputs[uix], spec.tau, spec.substeps)
    # membership rule: the endpoint must fall in the half-open cell of some
    # lattice point, i.e. within eta of the grid per axis; endpoints farther
    # out, non-finite ones included, produce no transition
    dst = st_lat.quantize_many(Z)
    keep = dst >= 0
    return np.column_stack([src[keep], uix[keep], dst[keep]]).astype(np.int32)


def build_abstraction(sys: ControlSystem, spec: AbstractionSpec,
                      transition_cap: Optional[int] = DEFAULT_TRANSITION_CAP
                      ) -> FiniteSystem:
    """Build the symbolic model of `sys` for the given quantization.

    States are embedded at their own lattice coordinates; initial states come
    from the outward-rounded lattice range of the initial box.  Flows leaving
    the cells covering the state box produce no transition.  The
    (state x input) sweep runs in lexicographic order over tiles, so the
    transition array is reproducible regardless of worker count.
    """
    st_lat = state_lattice(sys, spec.eta)
    inputs = input_points(sys, spec.mu)
    pts = st_lat.points()
    n_pairs = st_lat.n_points * inputs.shape[0]
    if transition_cap is not None and n_pairs > transition_cap:
        raise ResourceLimitError(
            f"{n_pairs} candidate transitions exceed the cap {transition_cap}")
    transitions = np.vstack(map_tiles(
        lambda a, b: _transition_chunk(sys, spec, st_lat, pts, inputs, a, b),
        n_pairs))
    return FiniteSystem(pts, initial_indices(st_lat, sys.init_box), inputs,
                        transitions)

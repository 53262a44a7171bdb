"""Uniform quantization lattices and the synthesis-parameter inequalities.

A lattice over a box collects the points ``k * spacing`` (k integer,
componentwise) that fall inside the closed box.  Each lattice point owns the
half-open cell ``[p - spacing/2, p + spacing/2[`` per axis; the cells of
distinct points are disjoint and cover the box interior, which is what makes
quantization a partition map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .dynamics import StabilityCertificate

# absorbs representation noise in lo/spacing ratios of grid-aligned boxes
_REL_TOL = 1e-9


class EmptyLatticeError(ValueError):
    """No multiple of the spacing falls inside some axis interval."""


class Lattice:
    """Axis-aligned uniform grid with mixed-radix indexing.

    Flat indices enumerate points in ascending lexicographic order of the
    per-axis integer indices (axis 0 most significant).
    """

    def __init__(self, box, spacing: float):
        box = np.asarray(box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] == 0:
            raise ValueError("box must be a nonempty sequence of [lo, hi] pairs")
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        self.box = box
        self.spacing = float(spacing)
        self.dim = box.shape[0]
        kmin, kmax = [], []
        for ax in range(self.dim):
            lo, hi = box[ax]
            tol = _REL_TOL * max(1.0, abs(lo / spacing), abs(hi / spacing))
            k0 = math.ceil(lo / spacing - tol)
            k1 = math.floor(hi / spacing + tol)
            if k0 > k1:
                raise EmptyLatticeError(
                    f"no multiple of {spacing} inside [{lo}, {hi}] (axis {ax})")
            kmin.append(k0)
            kmax.append(k1)
        self.kmin = np.asarray(kmin, dtype=np.int64)
        self.kmax = np.asarray(kmax, dtype=np.int64)
        self.counts = self.kmax - self.kmin + 1
        strides = np.ones(self.dim, dtype=np.int64)
        for ax in range(self.dim - 2, -1, -1):
            strides[ax] = strides[ax + 1] * self.counts[ax + 1]
        self.strides = strides
        self.n_points = int(np.prod(self.counts))
        self._points: Optional[np.ndarray] = None

    def __eq__(self, other):
        return (isinstance(other, Lattice)
                and self.spacing == other.spacing
                and np.array_equal(self.box, other.box))

    def __len__(self) -> int:
        return self.n_points

    def points(self) -> np.ndarray:
        """All lattice points as an (n_points, dim) array, flat-index order."""
        if self._points is None:
            idx = np.arange(self.n_points, dtype=np.int64)
            pts = np.empty((self.n_points, self.dim), dtype=float)
            for ax in range(self.dim):
                k = (idx // self.strides[ax]) % self.counts[ax] + self.kmin[ax]
                pts[:, ax] = k * self.spacing
            self._points = pts
        return self._points

    def point(self, index: int) -> np.ndarray:
        return self.points()[index]

    def outer_range_indices(self, box) -> np.ndarray:
        """Flat indices of the smallest per-axis index range covering the box,
        clipped to the lattice.

        Axis bounds round outward (floor(lo/spacing) .. ceil(hi/spacing)), so
        a box whose edge falls between two lattice points picks up the
        straddling points on both sides; grid-aligned edges add nothing.
        """
        box = np.asarray(box, dtype=float)
        los, his = [], []
        for ax in range(self.dim):
            lo, hi = box[ax]
            tol = _REL_TOL * max(1.0, abs(lo / self.spacing),
                                 abs(hi / self.spacing))
            k0 = max(math.floor(lo / self.spacing + tol), int(self.kmin[ax]))
            k1 = min(math.ceil(hi / self.spacing - tol), int(self.kmax[ax]))
            if k0 > k1:
                return np.zeros(0, dtype=np.int64)
            los.append(k0)
            his.append(k1)
        axes = [np.arange(los[ax], his[ax] + 1, dtype=np.int64) - self.kmin[ax]
                for ax in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        flat = np.zeros(grids[0].size, dtype=np.int64)
        for ax in range(self.dim):
            flat += grids[ax].reshape(-1) * self.strides[ax]
        return np.sort(flat)

    def quantize_many(self, X) -> np.ndarray:
        """Flat indices of the cells containing each row of X; -1 if the cell
        center falls outside the lattice box or a coordinate is not finite.

        Cells are half-open on the right: a coordinate exactly halfway between
        two points belongs to the upper cell.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"points must be (N, {self.dim})")
        half = self.spacing / 2.0
        # range-check in float so that NaN, inf and values past int64 never
        # reach the integer cast
        K = np.floor((X + half) / self.spacing)
        in_range = np.all((K >= self.kmin) & (K <= self.kmax), axis=1)
        K[~in_range] = self.kmin
        out = (K.astype(np.int64) - self.kmin) @ self.strides
        out[~in_range] = -1
        return out

    def quantize_index(self, x) -> Optional[int]:
        """Flat index of the cell containing x, or None when out of range."""
        idx = self.quantize_many(np.asarray(x, dtype=float).reshape(1, -1))[0]
        return None if idx < 0 else int(idx)

    def quantize_point(self, x) -> Optional[np.ndarray]:
        """The lattice point whose cell contains x, or None when out of range."""
        idx = self.quantize_index(x)
        return None if idx is None else self.point(idx)


@dataclass(frozen=True)
class SynthesisParams:
    """Quantization parameters: target precision epsilon, abstraction
    precisions theta_p/theta_q, sampling time tau, state quantization eta and
    input quantization mu.  All strictly positive and finite."""

    epsilon: float
    theta_p: float
    theta_q: float
    tau: float
    eta: float
    mu: float

    def __post_init__(self):
        for name in ("epsilon", "theta_p", "theta_q", "tau", "eta", "mu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.bound

    @property
    def slack(self) -> float:
        """bound - lhs; negative values measure the deficit."""
        return self.bound - self.lhs

    def describe(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: lhs={self.lhs:.6f} "
                f"bound={self.bound:.6f} slack={self.slack:.6f}")


@dataclass(frozen=True)
class ValidationReport:
    checks: List[InequalityCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def describe(self) -> str:
        return "\n".join(c.describe() for c in self.checks)


def validate_parameters(cert_p: StabilityCertificate,
                        cert_q: StabilityCertificate,
                        params: SynthesisParams) -> ValidationReport:
    """Check the three quantization inequalities and report per-check slack.

    (a) beta_p(theta_p, tau) + gamma_p(mu) + eta <= theta_p
    (b) beta_q(theta_q, tau) + eta <= theta_q
    (c) theta_p + theta_q <= epsilon

    Never raises; violations are reported with their numeric deficit.
    """
    a = cert_p.beta(params.theta_p, params.tau) + cert_p.gamma(params.mu) + params.eta
    b = cert_q.beta(params.theta_q, params.tau) + params.eta
    c = params.theta_p + params.theta_q
    return ValidationReport([
        InequalityCheck("plant abstraction", a, params.theta_p),
        InequalityCheck("specification abstraction", b, params.theta_q),
        InequalityCheck("precision split", c, params.epsilon),
    ])

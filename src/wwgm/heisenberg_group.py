"""Exact Heisenberg-Weyl group algebra for n = 1..3.

Group elements are parameterized as (p, x, θ) with the composition law

    (p′, x′, θ′) · (p, x, θ) = (p′+p, x′+x, θ′+θ − (x′·p − p′·x)),

whose twist term is the symplectic area picked up by the central phase.
The coset flows below are the infinitesimal actions of the extended
symmetry on the phase-space coset (carrying the contraction parameter k
in its θ-row) and on the configuration coset.

All operations are pure functions on immutable values; the composition
law is polynomial of degree ≤ 2, so double precision is exact on dyadic
rational inputs and no tolerances appear in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAX_DIM = 3


def _as_vec(v, n: int | None = None) -> np.ndarray:
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.ndim != 1:
        raise ValidationError("group parameter must be a scalar or 1-d vector")
    if n is not None and len(a) != n:
        raise ValidationError(f"expected dimension {n}, got {len(a)}")
    return a


@dataclass(frozen=True)
class GroupElement:
    """Element (p, x, θ) of the Heisenberg-Weyl group H(n)."""

    p: np.ndarray
    x: np.ndarray
    theta: float

    def __post_init__(self):
        p = _as_vec(self.p)
        x = _as_vec(self.x, len(p))
        if not 1 <= len(p) <= MAX_DIM:
            raise ValidationError(f"dimension {len(p)} outside 1..{MAX_DIM}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def n(self) -> int:
        return len(self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.p, other.p)
                and np.array_equal(self.x, other.x) and self.theta == other.theta)


def identity(n: int) -> GroupElement:
    return GroupElement(np.zeros(n), np.zeros(n), 0.0)


def twist(g1: GroupElement, g2: GroupElement) -> float:
    """Central-phase increment −(x₁·p₂ − p₁·x₂); antisymmetric under swap."""
    return -(float(np.dot(g1.x, g2.p)) - float(np.dot(g1.p, g2.x)))


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    if g1.n != g2.n:
        raise ValidationError(f"dimension mismatch: {g1.n} vs {g2.n}")
    return GroupElement(g1.p + g2.p, g1.x + g2.x, g1.theta + g2.theta + twist(g1, g2))


def inverse(g: GroupElement) -> GroupElement:
    # twist(g, -g) vanishes identically, so plain negation inverts exactly
    return GroupElement(-g.p, -g.x, -g.theta)


@dataclass(frozen=True)
class ContractionParam:
    """Scaling parameter k of the classical-limit contraction, ħ fixed at 2."""

    k: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValidationError(f"contraction parameter k={self.k} must be finite and > 0")


def _coerce_k(k) -> float:
    """k as a float, from a number or a ContractionParam, under ContractionParam's rule."""
    return ContractionParam(float(getattr(k, "k", k))).k


def contract_coordinates(g: GroupElement, kp: ContractionParam) -> GroupElement:
    """Rescale group coordinates to their contracted form (k·p, k·x, θ).

    Invertible for finite k: contracting with k then 1/k restores the
    element. θ is a group parameter, not a coordinate, and is untouched.
    """
    return GroupElement(kp.k * g.p, kp.k * g.x, g.theta)


@dataclass(frozen=True)
class CosetAlgebraParams:
    """Algebra parameters (ω, p̄, x̄, θ̄) of a coset infinitesimal action.

    ω is the antisymmetric rotation block, stored as a full n×n matrix so
    n = 1 (trivial), 2 and 3 are handled uniformly.
    """

    omega: np.ndarray
    pbar: np.ndarray
    xbar: np.ndarray
    thetabar: float

    def __post_init__(self):
        pbar = _as_vec(self.pbar)
        n = len(pbar)
        xbar = _as_vec(self.xbar, n)
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape != (n, n):
            raise ValidationError(f"omega must be {n}x{n}, got {omega.shape}")
        if np.any(omega + omega.T != 0.0):
            raise ValidationError("omega must be antisymmetric (omega + omega^T = 0)")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "pbar", pbar)
        object.__setattr__(self, "xbar", xbar)
        object.__setattr__(self, "thetabar", float(self.thetabar))

    @property
    def n(self) -> int:
        return len(self.pbar)


def phase_space_coset_flow(params: CosetAlgebraParams, point, kp: ContractionParam):
    """Tangent (dp_c, dx_c, dθ) of the phase-space coset action at `point`.

        dp_c = ω·p_c + p̄
        dx_c = ω·x_c + x̄
        dθ   = (−x̄·p_c + p̄·x_c)/k² + θ̄

    The 1/k² factor in the θ-row is what decouples the central coordinate
    in the k → ∞ contraction.
    """
    p_c, x_c, _theta = point
    p_c = _as_vec(p_c, params.n)
    x_c = _as_vec(x_c, params.n)
    dp = params.omega @ p_c + params.pbar
    dx = params.omega @ x_c + params.xbar
    dtheta = (-float(np.dot(params.xbar, p_c)) + float(np.dot(params.pbar, x_c))) \
        / kp.k ** 2 + params.thetabar
    return dp, dx, dtheta


def config_coset_flow(params: CosetAlgebraParams, point):
    """Tangent (dx, dθ) of the configuration coset action at `point`.

        dx = ω·x + x̄,   dθ = p̄·x + θ̄

    dθ has no θ-dependence: the matrix carries no θ column back into itself.
    """
    x, _theta = point
    x = _as_vec(x, params.n)
    dx = params.omega @ x + params.xbar
    dtheta = float(np.dot(params.pbar, x)) + params.thetabar
    return dx, dtheta

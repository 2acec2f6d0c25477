"""Closed catalog of named observables for configs and the CLI.

Monomials in (p, x) up to total degree 4 plus centered Gaussians; no
expression grammar. Names are canonical ("x", "p^2", "x^2*p", ...).
"""

from __future__ import annotations

import numpy as np

from ._poly import PhasePolynomial
from .errors import ValidationError, _number
from .phase_space import PhaseFunction, PhaseGrid

MAX_CATALOG_DEGREE = 4


def _monomial_name(p_exp: int, x_exp: int) -> str:
    if p_exp == 0 and x_exp == 0:
        return "1"
    parts = []
    if x_exp:
        parts.append("x" if x_exp == 1 else f"x^{x_exp}")
    if p_exp:
        parts.append("p" if p_exp == 1 else f"p^{p_exp}")
    return "*".join(parts)


MONOMIALS: dict[str, tuple[int, int]] = {
    _monomial_name(a, b): (a, b)
    for total in range(MAX_CATALOG_DEGREE + 1)
    for a in range(total + 1)
    for b in [total - a]
}


def observable_names() -> list[str]:
    return sorted(MONOMIALS) + ["gaussian"]


def make_observable(name: str, grid: PhaseGrid, params: dict | None = None) -> PhaseFunction:
    """Build a catalog observable on `grid`.

    `gaussian` takes params p0, x0, sigma (defaults 0, 0, 1); everything
    else is a monomial name valid on 1-d grids.
    """
    params = params or {}
    if name == "gaussian":
        p0 = _number(params.get("p0", 0.0), "observable_params.p0")
        x0 = _number(params.get("x0", 0.0), "observable_params.x0")
        sigma = _number(params.get("sigma", 1.0), "observable_params.sigma")
        if sigma <= 0:
            raise ValidationError("gaussian sigma must be positive")
        arg = np.zeros((), dtype=float)
        for i in range(grid.n):
            arg = arg - ((grid.p_field(i) - p0) ** 2
                         + (grid.x_field(i) - x0) ** 2) / (2 * sigma ** 2)
        return PhaseFunction(grid, np.exp(arg).astype(np.complex128))
    if name not in MONOMIALS:
        raise ValidationError(f"unknown observable {name!r}; catalog: {observable_names()}")
    if grid.n != 1:
        raise ValidationError("monomial observables are defined for 1-d grids")
    a, b = MONOMIALS[name]
    poly = PhasePolynomial.monomial(1, (a,), (b,))
    return PhaseFunction.from_poly(grid, poly)

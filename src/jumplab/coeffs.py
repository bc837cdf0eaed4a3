"""Scalar coefficient functions of the state, with declared bounds.

A :class:`CoefficientFn` wraps a parsed expression (or a plain constant)
together with the bounds the user claims for it, or, in a config without
``*_bounds``, the bounds observed where it was parsed.  No validator
checks a coefficient against its bounds yet; for the builtin families
below they hold analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exprlang
from .exprlang import Expr


@dataclass(frozen=True)
class CoefficientFn:
    expr: Expr
    lo: float
    hi: float
    source: str = ""

    def __call__(self, x):
        return exprlang.evaluate(self.expr, x)

    def is_constant(self):
        return self.expr.is_constant()


def constant(value):
    """The constant coefficient ``value``."""
    return CoefficientFn(exprlang.parse(repr(float(value))), float(value),
                         float(value), repr(float(value)))


def from_source(source, lo, hi):
    """Parse ``source`` and attach declared bounds ``[lo, hi]``."""
    return CoefficientFn(exprlang.parse(source), float(lo), float(hi), source)


def inverse_quadratic_bump(base, amplitude):
    """``base + amplitude/(1 + |x|^2)``: Lipschitz, range (base, base+amplitude].

    The shipped smooth example family; its declared bounds are exact.
    """
    src = f"{float(base)!r} + {float(amplitude)!r}/(1 + |x|^2)"
    return from_source(src, base, base + amplitude)

"""Scalar coefficient functions of the state, with declared bounds.

A :class:`CoefficientFn` wraps a parsed expression (or a plain constant)
together with the bounds the user claims for it, ``(-inf, inf)`` in a
config without ``*_bounds``.  No validator checks a coefficient against
its bounds yet; for the builtin families below they hold analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .exprlang import Expr


@dataclass(frozen=True)
class CoefficientFn:
    expr: Expr
    lo: float
    hi: float
    source: str = ""

    # the simulator asks for a coefficient several times at each state: the
    # last float64 array state, by its exact bytes, and the value there
    _memo = (None, None)

    def __call__(self, x):
        if type(x) is not np.ndarray or x.dtype != np.float64:
            return exprlang.evaluate(self.expr, x)
        memo = self._memo  # read once, so that each call gets its own value
        if memo[0] != x.tobytes():
            memo = (x.tobytes(), exprlang.evaluate(self.expr, x))
            self.__dict__["_memo"] = memo
        return memo[1]

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

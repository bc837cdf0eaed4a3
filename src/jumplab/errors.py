"""Exception types shared across the library."""


class JumplabError(Exception):
    """Base class for all library errors."""


class ExprSyntaxError(JumplabError):
    """Malformed expression source.

    Carries the byte offset of the offending token and the set of token
    kinds that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


class UnknownIdentifier(JumplabError):
    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} at byte {offset}")
        self.name = name
        self.offset = offset


class DomainError(JumplabError):
    """A guarded operation was evaluated outside its domain."""


class AtomicKernelError(JumplabError):
    """A construction that needs a density was given an atomic component."""


class DivergentIntegral(JumplabError):
    """A kernel moment integral diverges (e.g. tail exponent too small)."""


class DivergenceDetected(DivergentIntegral):
    """Successive quadrature refinements grew without bound."""


class ToleranceNotMet(JumplabError):
    """Quadrature error bound exceeded the requested tolerance at the cap."""


class EnvelopeViolation(JumplabError):
    """A thinning acceptance probability exceeded one."""


class JumpCapExceeded(JumplabError):
    """A simulated path hit its jump-count cap before t_end."""


class RangeError(JumplabError):
    """A time or checkpoint argument lies outside its valid interval."""


class ConfigError(JumplabError):
    """Experiment configuration is missing, unparseable, or inconsistent."""

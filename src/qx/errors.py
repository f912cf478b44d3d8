"""Exception hierarchy shared by every qx module.

The CLI maps these onto exit codes: parse errors -> 3, semantic errors -> 4,
precision/domain failures -> 5.
"""


class QxError(Exception):
    """Base class for all qx errors."""


# --- numeric kernel ---------------------------------------------------------

class DivisionByZero(QxError):
    """Exact rational division by zero."""


class DomainStraddle(QxError):
    """An enclosure straddles a singular point (0 for log/div, a branch cut).

    Signals the caller to refine inputs before retrying; never a final verdict.
    """


class MaxPrecision(QxError):
    """Refinement hit the precision ceiling without reaching the target width.

    Possible exact zero or ill-conditioning; the ambiguity is reported, never
    resolved numerically.
    """


# --- expression IR ----------------------------------------------------------

class InvalidBase(QxError):
    """Exp/Log base is the constant 0 or 1."""


class NonRealArgument(QxError):
    """Operation requires a real-valued expression (im enclosure not point 0)."""


class OutOfDomain(QxError):
    """Argument provably outside the operation's domain (e.g. |x| > 1 for arcsin)."""


# --- polynomials / verdicts -------------------------------------------------

class ZeroPolynomial(QxError):
    """Operation undefined for the zero polynomial."""


# --- ladders ----------------------------------------------------------------

class UnsupportedNode(QxError):
    """Expression contains a node kind outside the exponential-logarithmic closure."""


class NotReduced(QxError):
    """Ascent requires a reduced ladder but a rational relation is present."""


# --- geometry ---------------------------------------------------------------

class NonPositiveLength(QxError):
    """A construction length is provably zero or negative."""


class NotOnUnitCircle(QxError):
    """Point enclosure provably misses the unit circle."""


class OutOfRange(QxError):
    """Curve parameter outside the constructible range (e.g. quadratrix y = 0)."""


class NonPositiveSlope(QxError):
    """Radial-line slope must be positive."""


class DegenerateSecant(QxError):
    """Secant offset encloses 0; no secant line exists."""


class Coincident(QxError):
    """Intersection of an object with itself (or a coincident copy)."""


class NoIntersection(QxError):
    """Enclosures prove the objects do not meet."""


# --- DSL --------------------------------------------------------------------

class DslError(QxError):
    """Base for construction-language errors; carries a Diagnostic."""

    def __init__(self, diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class DslSyntaxError(DslError):
    """Tokenizer/parser failure with source span."""


class DslSemanticError(DslError):
    """Name binding, arity, or argument-kind violation with source span."""


class MismatchError(QxError):
    """Round-trip re-execution diverged from the compiled expressions."""

    def __init__(self, names):
        super().__init__("round-trip mismatch for: " + ", ".join(names))
        self.names = tuple(names)

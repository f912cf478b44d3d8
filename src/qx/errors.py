"""Exception hierarchy shared by every qx module.

Each class owns its CLI exit code as the class attribute `exit_code`:
syntax errors 3, semantic errors 4 (the `SemanticError` family),
precision and domain failures 5 (the `DomainError` family), and 1 for
everything else, which is reserved for a failed verification
(`MismatchError`). `qx.cli` reads the attribute and keeps no table of its
own.

Every error also carries its location, `span` (a `dsl.Span`, or None when
it concerns no place in a source), and a hint, `suggestion` (or None);
`qx.cli` writes every error from these fields with one writer.
"""


class QxError(Exception):
    """Base class for all qx errors: a message, where it is, and how to fix it."""

    exit_code = 1

    def __init__(self, message: str, span=None, suggestion: str | None = None):
        super().__init__(message)
        self.span = span
        self.suggestion = suggestion


class SemanticError(QxError):
    """Base for inputs that are well formed but mean nothing qx can compute."""

    exit_code = 4


class DomainError(QxError):
    """Base for values outside an operation's domain or beyond the precision ceiling."""

    exit_code = 5


# --- numeric kernel ---------------------------------------------------------

class DivisionByZero(DomainError):
    """Exact rational division by zero."""


class DomainStraddle(DomainError):
    """An enclosure straddles a singular point (0 for log/div, a branch cut).

    Signals the caller to refine inputs before retrying; never a final verdict.
    """


class MaxPrecision(DomainError):
    """Refinement hit the precision ceiling without reaching the target width.

    Possible exact zero or ill-conditioning; the ambiguity is reported, never
    resolved numerically.
    """


# --- expression IR ----------------------------------------------------------

class InvalidBase(SemanticError):
    """Exp/Log base is the constant 0 or 1."""


class NonRealArgument(DomainError):
    """Operation requires a real-valued expression (im enclosure not point 0)."""


class OutOfDomain(DomainError):
    """Argument provably outside the operation's domain (e.g. |x| > 1 for arcsin)."""


# --- polynomials / verdicts -------------------------------------------------

class ZeroPolynomial(SemanticError):
    """Operation undefined for the zero polynomial."""


# --- ladders ----------------------------------------------------------------

class UnsupportedNode(SemanticError):
    """Expression contains a node kind outside the exponential-logarithmic closure."""


class NotReduced(SemanticError):
    """Ascent requires a reduced ladder but a rational relation is present."""


# --- geometry ---------------------------------------------------------------

class NonPositiveLength(DomainError):
    """A construction length is provably zero or negative."""


class NotOnUnitCircle(DomainError):
    """Point enclosure provably misses the unit circle."""


class OutOfRange(DomainError):
    """Curve parameter outside the constructible range (e.g. quadratrix y = 0)."""


class DegenerateSecant(DomainError):
    """Secant offset h is not inside (0, theta0); no secant line exists."""


class Coincident(DomainError):
    """Intersection of an object with itself (or a coincident copy)."""


class NoIntersection(DomainError):
    """Enclosures prove the objects do not meet."""


# --- DSL --------------------------------------------------------------------

class DslError(QxError):
    """Base for errors in the text of a construction or an expression."""


class DslSyntaxError(DslError):
    """Tokenizer/parser failure at a source span."""

    exit_code = 3


class DslSemanticError(DslError):
    """Name binding, arity, or argument-kind violation at a source span."""

    exit_code = SemanticError.exit_code


class MismatchError(QxError):
    """Round-trip re-execution diverged from the compiled expressions."""

    def __init__(self, names):
        super().__init__("round-trip mismatch for: " + ", ".join(names))
        self.names = tuple(names)

"""Exception hierarchy for rpv.

Every error raised on purpose by the engine derives from RpvError, so callers
(and the CLI) can separate "a check failed / input rejected" from genuine
bugs.  Failures of *checks* (formal mismatches, numeric disagreement) are
return values, not exceptions; exceptions mean the requested computation is
not meaningful as posed.
"""


class RpvError(Exception):
    """Base class for all engine errors."""


class ParseError(RpvError):
    """Malformed textual input (rationals, radicals, data files)."""


class IncompatibleRadicals(RpvError):
    """Exact sum of constants living in different quadratic extensions.

    Raised by RadConst addition when the two operands have different
    square-free parts (or real/imaginary type) and neither is zero.  This is
    deliberately an error rather than a silent widening: a derivation that
    leaves the single-radical constant field has gone wrong.
    """


class NonzeroConstantTerm(RpvError):
    """Series composition with inner constant term != 0."""


class NonUnitConstantTerm(RpvError):
    """Rational power of a series whose constant term is not 1."""


class DenominatorVanishesAtZero(RpvError):
    """Rational-function series expansion with den(0) = 0."""


class DivergentInput(RpvError):
    """Numeric summation requested outside the convergence region."""


class NonExactConstant(RpvError):
    """Digit computation needs an exact radical constant c."""


class SingularPoint(RpvError):
    """Evaluation point hits a zero/pole of a rule component."""


class ArgumentMismatch(RpvError):
    """translate() source does not fit the rule at the given point."""


class GateRefused(RpvError):
    """translate() refused a derivation that failed its numeric gate.

    A rule that is formally valid near 0 may still be false as a numeric
    identity at a distant evaluation point (branch crossings).  Convergent
    derivations are therefore gated on a point check; refusal is loud.
    """


class InvariantViolation(RpvError):
    """A structural invariant fails: in a data file (duplicate id, bad
    status...), in a limit's hypotheses, or in a pi oracle that cannot
    certify its bound."""

"""Exception types shared across the package.

Every error that user code is expected to catch derives from
:class:`NeymanlabError`.  Plain ``ValueError``/``TypeError`` are reserved
for malformed constructor arguments (wrong shapes, wrong types, values out
of the type's range such as a negative variance or probabilities that do
not sum to one) that indicate a programming mistake rather than a modeling
condition; config parsing turns such a ``ValueError`` into a
:class:`ValidationError` at the block's path.
"""

from __future__ import annotations


class NeymanlabError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZeroPropensity(NeymanlabError):
    """An allocation places zero probability on an arm that carries outcome
    variance, so a score or bound term would divide by zero."""


class PropensityOutOfRange(NeymanlabError):
    """A propensity value lies outside the range required by the operation
    (for instance e(x) = 0 on a stratum whose treated arm has variance)."""


class SolverDiverged(NeymanlabError):
    """The constrained-allocation solver ran out of outer iterations, or
    returned a point whose optimality certificate fails the residual gate."""


class UnboundedDual(NeymanlabError):
    """The dual price of a budget constraint grew past the cap, meaning the
    constraint cannot be met with finite shadow price (for example a zero
    budget on an arm that must be sampled)."""


class RuleScenarioMismatch(NeymanlabError):
    """A design rule is incompatible with the scenario it was asked to
    randomize (wrong number of arms, arm index out of range, ...)."""


class EmptyArm(NeymanlabError):
    """An estimator needs at least one observation in an arm (or in a
    stratum-arm cell) that the realized assignment left empty."""


class DegenerateReps(NeymanlabError):
    """A Monte Carlo risk summary was requested with fewer than two
    replications, so variance across replications is undefined."""


class InfoExceedsTarget(NeymanlabError):
    """The realized information of a log already exceeds the target level,
    so no nonnegative Gaussian augmentation can match the target."""


class ParseError(NeymanlabError):
    """A study configuration could not be parsed (bad JSON, unknown keys)."""


class ValidationError(NeymanlabError):
    """A study configuration parsed but fails schema validation; the message
    carries the dotted path of the offending field."""

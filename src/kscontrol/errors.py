"""Exception taxonomy shared by all modules.

Mathematical obstructions (critical parameter, minimal time) are kept
distinct from numerical failures (conditioning, contraction) so the CLI
can map them to different exit codes.
"""


class KSControlError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(KSControlError):
    """Invalid configuration file or field value.

    ``field`` carries a dotted path such as ``domain.cross_section.box[0]``.
    """

    exit_code = 2

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class CriticalParameter(KSControlError):
    """The damping parameter lies in (or too close to) the critical set."""

    exit_code = 3


class BelowMinimalTime(KSControlError):
    """Requested horizon is at or below the estimated minimal control time."""

    exit_code = 4


class IllConditioned(KSControlError):
    """Gram system too ill-conditioned to certify biorthogonality."""

    exit_code = 5


class NoContraction(KSControlError):
    """Fixed-point iteration did not converge.

    ``reason`` says which test stopped it: ``"ratio"`` when the contraction
    ratios exceed 0.9 three times in a row (initial data too large),
    ``"radius"`` when ``||u0||`` exceeds a given ``r_guess``, and ``"cap"``
    when ``max_iter`` runs out; the last alone does not show a loss of
    contraction.
    """

    exit_code = 6

    def __init__(self, message, reason):
        self.reason = reason
        super().__init__(message)


class IndexOutOfRange(KSControlError):
    """Mode index beyond the available eigenvalue list."""


class ThresholdBeyondTruncation(KSControlError):
    """No eigenvalue in the truncated list satisfies the threshold condition."""


class DuplicateRate(KSControlError):
    """Two rates coincide within tolerance (parameter effectively critical)."""


class RationalPoint(KSControlError):
    """x0/a is rational: sin(k pi x0/a) vanishes and pointwise control fails."""


class NotCritical(KSControlError):
    """A critical-set counterexample was requested for a clear spectrum."""


class NoWitnessFound(KSControlError):
    """Minimal-time scan found no blow-up witness at the requested horizon."""


class QuadratureUnderResolved(KSControlError):
    """Sampling density below the resolution rule for the retained modes."""


class GramianSingular(KSControlError):
    """Steering Gramian numerically singular: modes indistinguishable on omega."""


class DissipationViolated(KSControlError):
    """Free decay beat the guaranteed rate bound: projection leak (internal bug)."""


class StepUnconverged(KSControlError):
    """Step-halving changed the nonlinear end state beyond tolerance, or the
    replay left the finite range."""


class BadRho(KSControlError):
    """Frequency-splitting exponent outside (0, 1/(N-1))."""


class BetaTooSmall(KSControlError):
    """Initial frequency cutoff does not clear the dissipation threshold K0."""

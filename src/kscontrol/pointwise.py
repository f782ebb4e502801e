"""Interior (pointwise) 1-D control: minimal time and moment synthesis.

The minimal-time quantity for an actuator at x0 is driven by how fast
|sin(k pi x0/a)| can approach zero:

    s_k = -log|sin(k pi x0/a)| * a^4 / (pi^4 k^4),

a limsup of which separates controllable from uncontrollable horizons.  A
limsup is not computable; the estimator scans k <= k_max and reports the
running maximum ``T0_hat`` over the whole scanned range (this is the
synthesis gate) together with the tail maximum over k >= k_max/2
(``T0_tail``, the limsup-oriented diagnostic: for algebraic points it
collapses to ~log(k)/k^4 scale).

The scan reads x0/a as an exact fraction P/Q: a `real` point is the decimal
its string spells, any other kind is its working-precision mpf, which is
exactly man * 2^exp.  The residue k P mod Q then advances by one integer
addition per k, so the distance from k x0/a to the nearest integer is exact
at every k and a rational x0/a is caught at the first k its denominator
divides.

Quartic spectral decay makes finite scans blind to deep resonances at large
k, so Liouville-type *test points* must carry their near-resonance at small
k to be visible at all; see the `liouville` rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

import numpy as np

from .boundary_1d import DEFAULT_K_TRUNC, _synthesize_1d
from .errors import BelowMinimalTime, NoWitnessFound, RationalPoint
from .spectrum import MAX_K_MAX, SpectrumSpec, require_clear

if TYPE_CHECKING:  # imported where used: most runs never read a point
    import mpmath as mp

DEFAULT_K_MAX = 10_000
DEFAULT_MARGIN = 0.10
#: A `real` point's string has at most this many digits on either side of the
#: decimal point, and a written denominator of at most 10**REAL_MAX_DIGITS: the
#: scan's integers are as long as the denominator, so a longer decimal would
#: cost time and memory linear in its length.
REAL_MAX_DIGITS = 1000

#: Liouville-type series rules: name -> (description, builder(depth) -> mpf, dps)
#: ``classic10``: sum 10^(-n!).  Its rational convergents p/q satisfy
#: |z - p/q| ~ q^{-(n+1)} only, which the quartic normalization crushes:
#: the s_k spikes at the convergent denominators decay like log(q)/q^4, so
#: the scanned T0_hat of the truncation is O(1) only through the k=1 term.
#: ``quartic_anchor3``: 1/3 + sum 10^(-36 n!), a quartically-graded variant
#: whose depth-6 truncation exhibits a genuine deep resonance at k=3
#: (|sin(3 pi z)| ~ 3 pi 10^(-36)), i.e. minimal-time behavior visible to a
#: desk-scale scan.
LIOUVILLE_RULES = {
    "classic10": ("sum_{n<=depth} 10^(-n!)", 800),
    "quartic_anchor3": ("1/3 + sum_{n<=depth} 10^(-36 n!)", 320),
}
#: Largest Liouville depth (terms past n = 7 lie below either rule's precision) and algebraic
#: degree; parse time grows with both (past 30 s at depth 10**6 or degree 100 on a 2-core VM)
MAX_LIOUVILLE_DEPTH, MAX_ALGEBRAIC_DEGREE = 12, 32


@dataclass(frozen=True)
class PointSpec:
    """Actuator position as a ratio x0/a in (0, 1), with its arithmetic type."""

    kind: str  # rational | real | algebraic | liouville
    data: tuple
    k_max: int = DEFAULT_K_MAX

    @staticmethod
    def rational(p: int, q: int, k_max: int = DEFAULT_K_MAX) -> "PointSpec":
        return PointSpec("rational", (Fraction(p, q),), k_max)

    @staticmethod
    def real(value, k_max: int = DEFAULT_K_MAX) -> "PointSpec":
        """The number ``str(value)`` spells.  A decimal is rational, so the scan reads
        it as its exact reduced fraction P/Q and raises RationalPoint at k = Q when
        Q <= k_max ("0.1" at k = 10, "0.123" at k = 1000).  `value` refuses a string
        with more than REAL_MAX_DIGITS (1000) digits on either side of the decimal
        point or a written denominator above 10**REAL_MAX_DIGITS."""
        return PointSpec("real", (str(value),), k_max)

    @staticmethod
    def algebraic(poly_coeffs, root_index: int = 0, k_max: int = DEFAULT_K_MAX) -> "PointSpec":
        """Root of an integer polynomial (coefficients highest degree first)."""
        if len(poly_coeffs) - 1 > MAX_ALGEBRAIC_DEGREE:
            raise ValueError(f"polynomial degree {len(poly_coeffs) - 1} exceeds {MAX_ALGEBRAIC_DEGREE}")
        return PointSpec("algebraic", (tuple(int(c) for c in poly_coeffs), root_index), k_max)

    @staticmethod
    def liouville(rule: str = "quartic_anchor3", depth: int = 6,
                  k_max: int = DEFAULT_K_MAX) -> "PointSpec":
        if rule not in LIOUVILLE_RULES:
            raise ValueError(f"unknown Liouville rule {rule!r}")
        if depth > MAX_LIOUVILLE_DEPTH:
            raise ValueError(f"Liouville depth {depth} exceeds {MAX_LIOUVILLE_DEPTH}")
        return PointSpec("liouville", (rule, depth), k_max)

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    @property
    def dps(self) -> int:
        if self.kind == "liouville":
            return LIOUVILLE_RULES[self.data[0]][1]
        return 60

    def value(self) -> mp.mpf:
        """x0/a at the rule's working precision (mp.dps must already be set); ValueError
        unless it lies in (0, 1)."""
        import mpmath as mp

        z = self._ratio()
        if not 0 < z < 1:
            raise ValueError(f"x0/a = {mp.nstr(z, 8)} must lie in (0, 1)")
        return z

    def _ratio(self) -> mp.mpf:
        import mpmath as mp

        if self.kind == "rational":
            fr = self.data[0]
            return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)
        if self.kind == "real":
            fr = _real_fraction(self.data[0])
            return mp.fdiv(fr.numerator, fr.denominator)
        if self.kind == "algebraic":
            coeffs, idx = self.data
            roots = mp.polyroots([mp.mpf(c) for c in coeffs], maxsteps=200, extraprec=200)
            real_roots = sorted(
                mp.mpf(r.real) for r in roots if abs(r.imag) < mp.mpf("1e-30") and 0 < r.real < 1
            )
            if idx >= len(real_roots):
                raise ValueError("root index outside the unit-interval real roots")
            return real_roots[idx]
        rule, depth = self.data
        if rule == "classic10":
            return mp.fsum(mp.mpf(10) ** (-mp.factorial(n)) for n in range(1, depth + 1))
        z = mp.mpf(1) / 3
        return z + mp.fsum(mp.mpf(10) ** (-36 * mp.factorial(n)) for n in range(1, depth + 1))

    def label(self) -> str:
        if self.kind == "liouville":
            return f"liouville:{self.data[0]}:depth{self.data[1]}"
        if self.kind == "algebraic":
            return f"algebraic:{list(self.data[0])}:root{self.data[1]}"
        if self.kind == "rational":
            return f"rational:{self.data[0]}"
        return f"real:{self.data[0]}"


def _real_fraction(text: str) -> Fraction:
    """The exact fraction a `real` point's string spells.  ValueError past the
    REAL_MAX_DIGITS bound; a decimal is measured by its digits and exponent
    before any big integer is built."""
    try:
        _, digits, exp = Decimal(text).as_tuple()
        too_long = isinstance(exp, int) and max(-exp, len(digits) + exp) > REAL_MAX_DIGITS
    except InvalidOperation:
        too_long = False  # not a decimal: Fraction reads "p/q" or refuses the string
    fr = None if too_long else Fraction(text)
    if fr is None or fr.denominator > 10**REAL_MAX_DIGITS:
        raise ValueError(f"a real point may have at most {REAL_MAX_DIGITS} digits on either "
                         f"side of the decimal point (denominator <= 10^{REAL_MAX_DIGITS}); "
                         f"got {text[:40]!r}")
    return fr


@dataclass
class MinimalTimeReport:
    """Scan of s_k with running maxima and spike locations."""

    k: np.ndarray
    neg_log_sin: np.ndarray
    s: np.ndarray
    running_max: np.ndarray
    T0_hat: float
    T0_argmax: int
    T0_tail: float
    still_growing: bool
    spikes: list = field(default_factory=list)  # k with -log|sin| >= 1
    x0_over_a: float = 0.0


def _exact_ratio(point: PointSpec, z: mp.mpf) -> Fraction:
    """x0/a as the scan reads it, given z = ``point.value()``: a real point's string
    exactly, any other kind z itself (man * 2^exp)."""
    if point.kind == "real":
        return _real_fraction(point.data[0])
    man, exp = z.man_exp
    return Fraction(man, 2**-exp)


def _neg_log_sin_scan(ratio: Fraction, k_max: int):
    """-log|sin(pi k P/Q)| for k = 1..k_max, from the exact residues r = k P mod Q.

    r advances by one integer addition and one conditional subtraction per
    k, and D = min(r, Q - r) makes D/Q the exact distance from k P/Q to the
    nearest integer; D = 0 means the sine vanishes.  Away from resonances
    (D/Q > 1e-8) a double-precision sine of the correctly rounded D/Q
    suffices; near them the logarithm is taken in mp at 128 bits
    (|log sin(pi d)| = |log(pi d)| + O(d^2)).
    """
    import mpmath as mp

    P, Q = ratio.numerator, ratio.denominator
    near = Q // 10**8  # D > near  <=>  D/Q > 1e-8
    with mp.workprec(Q.bit_length()):
        q = mp.mpf(Q)  # exact, converted once: mp.fdiv(D, q) rounds D/Q once
    out = np.empty(k_max)
    r = 0
    with mp.workprec(128):
        for k in range(1, k_max + 1):
            r += P
            if r >= Q:
                r -= Q
            D = r if 2 * r <= Q else Q - r
            if D == 0:
                raise RationalPoint(f"sin(k pi x0/a) vanishes exactly at k={k}")
            if D > near:
                out[k - 1] = -math.log(math.sin(math.pi * (D / Q)))
            else:
                out[k - 1] = -float(mp.log(mp.pi * mp.fdiv(D, q)))
    return out


def minimal_time_estimate(point: PointSpec, a: float = math.pi,
                          k_max: Optional[int] = None) -> MinimalTimeReport:
    """Scan s_k and report the running-max minimal-time estimate.

    Raises RationalPoint for rational x0/a (some sine vanishes exactly and
    pointwise control is impossible).
    """
    import mpmath as mp

    if point.is_rational:
        raise RationalPoint("x0/a is rational: pointwise control impossible")
    km = k_max if k_max is not None else point.k_max
    if km > MAX_K_MAX:
        raise ValueError(f"k_max={km} exceeds {MAX_K_MAX}")
    with mp.workdps(point.dps + 20):
        z = point.value()
        neg_log = _neg_log_sin_scan(_exact_ratio(point, z), km)
        z_float = float(z)
    ks = np.arange(1, km + 1, dtype=float)
    quartic = ks**4 * math.pi**4 / a**4
    s = neg_log / quartic
    running = np.maximum.accumulate(s)
    argmax = int(np.argmax(s)) + 1
    tail = float(np.max(s[km // 2 - 1 :]))
    spikes = [int(k) for k in ks[neg_log >= 1.0]]
    return MinimalTimeReport(
        k=ks.astype(int),
        neg_log_sin=neg_log,
        s=s,
        running_max=running,
        T0_hat=float(s[argmax - 1]),
        T0_argmax=argmax,
        T0_tail=tail,
        still_growing=argmax >= km // 2,
        spikes=spikes,
        x0_over_a=z_float,
    )


def synthesize_point_control(
    u0: np.ndarray,
    T: float,
    point: PointSpec,
    spec: SpectrumSpec,
    j: int,
    K_trunc: int = DEFAULT_K_TRUNC,
    margin: float = DEFAULT_MARGIN,
    estimate: Optional[MinimalTimeReport] = None,
):
    """Pointwise control nulling modes k <= K_trunc for T above the gate.

    The gate is T > (1 + margin) T0_hat; at or below it the synthesis is
    refused with BelowMinimalTime (see `negative_certificate` for the
    witness).  Nothing is claimed about T exactly at the minimal time.
    Returns ``(ControlSignal, SynthesisReport)``; the report's ``targets``
    are -e^{lambda_k T} u0_k / (sqrt(2/a) sin(k pi x0/a)), and it carries
    the gate's ``T0_hat`` and ``threshold``.
    """
    require_clear(spec)
    if point.is_rational:
        raise RationalPoint("x0/a is rational: pointwise control impossible")
    if estimate is None:
        estimate = minimal_time_estimate(point, spec.a_float)
    threshold = (1.0 + margin) * estimate.T0_hat
    if T <= threshold:
        raise BelowMinimalTime(
            f"T={T} <= (1+margin) T0_hat = {threshold:.6g}; minimal-time gate refuses synthesis"
        )
    control, report = _synthesize_1d(u0, T, spec, j, K_trunc, x0=estimate.x0_over_a * spec.a_float)
    return control, replace(report, T0_hat=estimate.T0_hat, threshold=threshold)


@dataclass
class BlowupWitness:
    k: np.ndarray
    log10_ratio: np.ndarray
    ratio_cap: np.ndarray  # ratios clipped at float range for reporting
    T: float
    T0_hat: float


def negative_certificate(
    point: PointSpec,
    spec: SpectrumSpec,
    j: int,
    T: float,
    estimate: Optional[MinimalTimeReport] = None,
) -> BlowupWitness:
    """Observability blow-up witnesses for T below the scanned minimal time.

    For each scanned k with s_k > T, reports the ratio
    e^{2 lambda_k T} / sin^2(k pi x0/a) (in log10 to survive overflow): a
    lower bound for the observability constant of the truncated family,
    exploding along the witness set.  NoWitnessFound means the scan depth is
    inconclusive at this horizon.
    """
    if estimate is None:
        estimate = minimal_time_estimate(point, spec.a_float)
    witnesses = np.nonzero(estimate.s > T)[0]
    if len(witnesses) == 0:
        raise NoWitnessFound(
            f"no scanned k has s_k > T = {T}; inconclusive at depth k_max={len(estimate.s)}"
        )
    ks = witnesses + 1
    lam = np.array([spec.x_eigenvalue(int(k), j) for k in ks])
    # log ratio = 2 lambda_k T + 2 (-log|sin|)
    log_ratio = 2.0 * lam * T + 2.0 * estimate.neg_log_sin[witnesses]
    log10_ratio = log_ratio / math.log(10.0)
    ratio = np.where(log10_ratio < 300, np.power(10.0, np.minimum(log10_ratio, 300)), np.inf)
    return BlowupWitness(
        k=ks.astype(int),
        log10_ratio=log10_ratio,
        ratio_cap=ratio,
        T=T,
        T0_hat=estimate.T0_hat,
    )

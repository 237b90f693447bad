"""Analytic threshold conditions and exact bad-error probability sums.

For a weight-limited code family whose distance grows at least like
D * ln(n), minimum-energy decoding succeeds once the per-cluster failure
probability decays faster than the cluster count grows.  The failure
probability of a weight-m cluster is bounded by an effective erasure
rate raised to the power m, which yields closed-form sufficient
conditions; this module evaluates those conditions, solves them for
threshold values, and also computes the underlying bad-error
probabilities exactly for cross-checking the closed forms.

An error is "bad" for a given undetectable cluster when flipping the
error on that cluster's support does not lower its probability, so a
minimum-energy decoder may pick the wrong coset.  The exact sums below
integrate the error distribution over that region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, fsum, inf, sqrt

from .errors import ValidationError

MODELS = ("stabilizer", "css", "ft-stabilizer", "ft-css")


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name}={value} outside [0, 1]")
    return float(value)


@dataclass(frozen=True)
class ChannelParams:
    """Single-qubit error rates: erasure y, depolarizing p, independent
    X/Z rates p_X and p_Z, and syndrome-bit flip rate q."""

    y: float = 0.0
    p: float = 0.0
    p_X: float = 0.0
    p_Z: float = 0.0
    q: float = 0.0

    def __post_init__(self) -> None:
        for name in ("y", "p", "p_X", "p_Z", "q"):
            _check_unit(name, getattr(self, name))


@dataclass(frozen=True)
class CodeParams:
    """Weight caps and the distance growth constant D.

    D is the coefficient in d >= D * ln(n); D = inf encodes
    super-logarithmic distance scaling and makes the right-hand side of
    every condition exactly 1.  For CSS models w_X and w_Z default to w.
    """

    w: int | None = None
    w_X: int | None = None
    w_Z: int | None = None
    D: float = inf

    def __post_init__(self) -> None:
        if not self.D > 0:  # NaN fails this too
            raise ValidationError(f"D must be positive (or inf), got {self.D}")

    def weight(self) -> int:
        if self.w is None:
            raise ValidationError("stabilizer model needs w")
        return self.w

    def weights_xz(self) -> tuple[int, int]:
        wx = self.w_X if self.w_X is not None else self.w
        wz = self.w_Z if self.w_Z is not None else self.w
        if wx is None or wz is None:
            raise ValidationError("CSS model needs w_X and w_Z (or w)")
        return wx, wz

    def rhs(self) -> float:
        return math.exp(-1.0 / self.D)


def effective_erasure(y: float, p: float) -> float:
    """Effective erasure rate for combined erasures and depolarizing
    noise: y + (1-y) * (2p/3 + 2*sqrt(p(1-p)/3))."""
    _check_unit("y", y)
    _check_unit("p", p)
    return y + (1.0 - y) * (2.0 * p / 3.0 + 2.0 * sqrt(p * (1.0 - p) / 3.0))


def effective_erasure_css(y: float, p: float) -> float:
    """Effective erasure rate for one CSS sector with erasures and
    independent bit flips: y + 2(1-y) * sqrt(p(1-p))."""
    _check_unit("y", y)
    _check_unit("p", p)
    return y + 2.0 * (1.0 - y) * sqrt(p * (1.0 - p))


def condition_lhs(code: CodeParams, ch: ChannelParams, model: str) -> float:
    """Left-hand side of the decodability condition for one model.

    For the two CSS models the larger of the two sector expressions is
    returned, so "lhs <= exp(-1/D)" is the full condition in all cases.
    """
    if model == "stabilizer":
        w = code.weight()
        return 2.0 * (w - 1) * effective_erasure(ch.y, ch.p)
    if model == "css":
        wx, wz = code.weights_xz()
        return max(
            (wx - 1) * effective_erasure_css(ch.y, ch.p_Z),
            (wz - 1) * effective_erasure_css(ch.y, ch.p_X),
        )
    if model == "ft-stabilizer":
        w = code.weight()
        return 4.0 * sqrt(ch.q * (1.0 - ch.q)) + 2.0 * w * effective_erasure(ch.y, ch.p)
    if model == "ft-css":
        wx, wz = code.weights_xz()
        syn = 4.0 * sqrt(ch.q * (1.0 - ch.q))
        return max(
            syn + wx * effective_erasure_css(ch.y, ch.p_Z),
            syn + wz * effective_erasure_css(ch.y, ch.p_X),
        )
    raise ValidationError(f"unknown model {model!r}, expected one of {MODELS}")


def condition_holds(code: CodeParams, ch: ChannelParams, model: str) -> bool:
    """Whether the sufficient condition for vanishing failure holds."""
    return condition_lhs(code, ch, model) <= code.rhs()


# free-rate name (CLI flag, --solve and --curve spelling) -> ChannelParams field
RATES = {"y": "y", "p": "p", "pX": "p_X", "pZ": "p_Z", "q": "q"}


def with_rate(fixed: ChannelParams, free: str, value: float, model: str) -> ChannelParams:
    """fixed with the rate named free (a key of RATES) set to value; p
    under a CSS model sets p_X = p_Z = value."""
    if free not in RATES:
        raise ValidationError(f"unknown rate {free!r}, expected one of {', '.join(RATES)}")
    field = RATES[free]
    if field == "p" and model in ("css", "ft-css"):
        return replace(fixed, p_X=value, p_Z=value)
    return replace(fixed, **{field: value})


def solve_threshold(
    code: CodeParams,
    free: str,
    fixed: ChannelParams = ChannelParams(),
    model: str = "css",
) -> float:
    """Largest value of one error rate that still satisfies the model's
    condition, with the other rates held fixed.

    The left-hand sides are increasing in each rate on the search
    bracket ([0, 1] for y, [0, 1/2] otherwise), so bisection applies;
    it stops once the bracket is at most 1e-9 wide.
    free='p' under a CSS model ties p_X = p_Z = p.
    """
    rhs = code.rhs()

    def lhs_at(t: float) -> float:
        return condition_lhs(code, with_rate(fixed, free, t, model), model)

    lo, hi = 0.0, 1.0 if free == "y" else 0.5
    if lhs_at(lo) > rhs:
        raise ValidationError("condition already violated at rate 0")
    if lhs_at(hi) <= rhs:
        raise ValidationError("no sign change on the bracket; condition holds everywhere")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if lhs_at(mid) <= rhs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_curve(
    code: CodeParams, a: str, b: str, fixed: ChannelParams, model: str, points: int
) -> list[tuple[float, float]]:
    """Trade-off curve between rates a and b: at `points` values of a,
    evenly spaced from 0 to its threshold (just 0 for one point), the
    threshold of b with the other rates held fixed, or 0.0 where that
    solve raises ValidationError."""
    for name in (a, b):
        with_rate(fixed, name, 0.0, model)  # rejects an unknown name
    if points < 1:
        raise ValidationError(f"need at least one curve point, got {points}")
    a_max = solve_threshold(code, a, fixed, model=model)
    rows = []
    for i in range(points):
        a_val = a_max * i / (points - 1) if points > 1 else 0.0
        try:
            b_val = solve_threshold(code, b, with_rate(fixed, a, a_val, model), model=model)
        except ValidationError:
            b_val = 0.0
        rows.append((a_val, b_val))
    return rows


def erasure_tail_bound(n: int, w: int, d: int, y: float) -> float:
    """Closed form of the erasure failure series: the cluster-count
    ceiling times y^m summed over m >= d.  Requires 2y(w-1) < 1."""
    _check_unit("y", y)
    ratio = 2.0 * y * (w - 1)
    if ratio >= 1.0:
        raise ValidationError(f"series diverges: 2y(w-1) = {ratio} >= 1")
    return 3.0 * n * y * ratio ** (d - 1) / (1.0 - ratio)


# -- exact bad-error sums -------------------------------------------------
#
# Region membership uses exact rational arithmetic on the given float
# rates.  Near-tie cases (for instance rate pairs whose odds ratios are
# exact powers of each other) would otherwise flip with the rounding of
# a log-ratio and disagree with a literal probability comparison.


def _region_bad(*terms: tuple[int, float, int]) -> bool:
    """Whether the product over (k, rate, scale) terms of
    (scale*(1-rate)/rate)**k is at least 1, reading each ratio as its
    limit at rate 0 or 1; ties count as bad.  The exponents of those
    limits decide before the finite ratios do, so callers must drop
    zero-probability configurations first."""
    score = 0
    acc = Fraction(1)
    for k, rate, scale in terms:
        if k == 0:
            continue
        if rate == 0.0:
            score += k
        elif rate == 1.0:
            score -= k
        else:
            fr = Fraction(rate)
            acc *= (scale * (1 - fr) / fr) ** k
    if score:
        return score > 0
    return acc >= 1


def exact_bad_probability_css(m: int, y: float, p: float) -> float:
    """Exact bad-error probability for one CSS sector on an m-qubit
    cluster with erasure rate y and flip rate p.

    A configuration with a erasures and b flips on the remaining
    positions is bad when (2b + a - m) * ln((1-p)/p) >= 0 (ties count
    as bad).  Always at most effective_erasure_css(y, p)**m.
    """
    if m < 1:
        raise ValidationError("m must be at least 1")
    _check_unit("y", y)
    _check_unit("p", p)
    bad = {k: _region_bad((k, p, 1)) for k in range(-m, m + 1)}
    terms = []
    for a in range(m + 1):
        pa = comb(m, a) * y**a * (1.0 - y) ** (m - a)
        for b in range(m - a + 1):
            if bad[2 * b + a - m]:
                terms.append(pa * comb(m - a, b) * p**b * (1.0 - p) ** (m - a - b))
    return fsum(terms)


def exact_bad_probability_depol(m: int, y: float, p: float) -> float:
    """Exact bad-error probability for depolarizing noise plus erasures.

    Splitting b = b' + b'' errors into b' that match the cluster's own
    entries and b'' that differ, a configuration is bad when
    (2b' + b'' + a - m) * ln(3(1-p)/p) >= 0.  Always at most
    effective_erasure(y, p)**m.
    """
    if m < 1:
        raise ValidationError("m must be at least 1")
    _check_unit("y", y)
    _check_unit("p", p)
    bad = {k: _region_bad((k, p, 3)) for k in range(-m, m + 1)}
    terms = []
    for a in range(m + 1):
        pa = comb(m, a) * y**a * (1.0 - y) ** (m - a)
        for b1 in range(m - a + 1):
            for b2 in range(m - a - b1 + 1):
                if bad[2 * b1 + b2 + a - m]:
                    b = b1 + b2
                    terms.append(
                        pa
                        * comb(m - a, b)
                        * comb(b, b1)
                        * (p / 3.0) ** b1
                        * (2.0 * p / 3.0) ** b2
                        * (1.0 - p) ** (m - a - b)
                    )
    return fsum(terms)


def exact_bad_probability_ft(m: int, m_q: int, p: float, q: float) -> float:
    """Exact bad-error probability for a space-time cluster with m_q
    qubit positions (flip rate p) and m - m_q syndrome positions (flip
    rate q).

    A configuration with b qubit flips and f syndrome flips is bad when
    (2b - m_q) ln((1-p)/p) + (2f + m_q - m) ln((1-q)/q) >= 0, reading
    the log-ratios as their limits at rates 0 and 1.  Always at most
    2^m * (p(1-p))^(m_q/2) * (q(1-q))^((m-m_q)/2).
    """
    if m < 1:
        raise ValidationError("m must be at least 1")
    if not 0 <= m_q <= m:
        raise ValidationError("need 0 <= m_q <= m")
    _check_unit("p", p)
    _check_unit("q", q)
    terms = []
    for b in range(m_q + 1):
        pb = comb(m_q, b) * p**b * (1.0 - p) ** (m_q - b)
        for f in range(m - m_q + 1):
            t = pb * comb(m - m_q, f) * q**f * (1.0 - q) ** (m - m_q - f)
            if t == 0.0:
                continue
            if _region_bad((2 * b - m_q, p, 1), (2 * f + m_q - m, q, 1)):
                terms.append(t)
    return fsum(terms)


def bad_probability_bound_css(m: int, y: float, p: float) -> float:
    return effective_erasure_css(y, p) ** m


def bad_probability_bound_depol(m: int, y: float, p: float) -> float:
    return effective_erasure(y, p) ** m


def bad_probability_bound_ft(m: int, m_q: int, p: float, q: float) -> float:
    return 2.0**m * (p * (1.0 - p)) ** (m_q / 2.0) * (q * (1.0 - q)) ** ((m - m_q) / 2.0)


def ft_total_bad_bound(n: int, w: int, d: int, p: float, q: float) -> float:
    """Total bad-error bound for the space-time CSS analysis: the
    geometric series n * sum_{m >= d} base^m with
    base = 4 sqrt(q(1-q)) + 2w sqrt(p(1-p))."""
    _check_unit("p", p)
    _check_unit("q", q)
    base = 4.0 * sqrt(q * (1.0 - q)) + 2.0 * w * sqrt(p * (1.0 - p))
    if base >= 1.0:
        raise ValidationError(f"series diverges: base = {base} >= 1")
    return n * base**d / (1.0 - base)

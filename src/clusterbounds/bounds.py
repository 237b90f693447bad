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
from math import comb, fsum, inf, sqrt

from .errors import ValidationError, check_at_least_one

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
    """Weight caps, each at least 1, and the distance growth constant D.

    D is the coefficient in d >= D * ln(n); D = inf encodes
    super-logarithmic distance scaling and makes the right-hand side of
    every condition exactly 1.  For CSS models w_X and w_Z default to w.
    """

    w: int | None = None
    w_X: int | None = None
    w_Z: int | None = None
    D: float = inf

    def __post_init__(self) -> None:
        check_at_least_one(w=self.w, w_X=self.w_X, w_Z=self.w_Z)
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

    One formula covers all four: syn + 2(w - shift) * effective_erasure,
    with syn = 4 sqrt(q(1-q)) and shift = 0 for the faulty-measurement
    models, syn = 0 and shift = 1 otherwise.  The CSS models take the
    larger of the sector terms (w_X - shift) * effective_erasure_css(y,
    p_Z) and (w_Z - shift) * effective_erasure_css(y, p_X) in place of
    the last term, so "lhs <= exp(-1/D)" is the full condition.
    """
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}, expected one of {MODELS}")
    ft = model.startswith("ft-")
    # -0.0 is the exact additive identity, so syn + x is x to the last bit
    syn = 4.0 * sqrt(ch.q * (1.0 - ch.q)) if ft else -0.0
    shift = 0 if ft else 1
    if model.endswith("css"):
        wx, wz = code.weights_xz()
        return syn + max(
            (wx - shift) * effective_erasure_css(ch.y, ch.p_Z),
            (wz - shift) * effective_erasure_css(ch.y, ch.p_X),
        )
    return syn + 2.0 * (code.weight() - shift) * effective_erasure(ch.y, ch.p)


def condition_holds(code: CodeParams, ch: ChannelParams, model: str) -> bool:
    """Whether the sufficient condition for vanishing failure holds."""
    return condition_lhs(code, ch, model) <= code.rhs()


# free-rate name (CLI flag, --solve and --curve spelling) -> ChannelParams field
RATES = {"y": "y", "p": "p", "pX": "p_X", "pZ": "p_Z", "q": "q"}


def rate_fields(free: str, model: str) -> tuple[str, ...]:
    """The ChannelParams fields that the rate named free (a key of RATES)
    sets under model: p under a CSS model sets p_X and p_Z."""
    if free not in RATES:
        raise ValidationError(f"unknown rate {free!r}, expected one of {', '.join(RATES)}")
    field = RATES[free]
    if field == "p" and model in ("css", "ft-css"):
        return ("p_X", "p_Z")
    return (field,)


def model_fields(model: str) -> tuple[str, ...]:
    """The ChannelParams fields that model's condition reads."""
    rates = ("y", "p_X", "p_Z") if model.endswith("css") else ("y", "p")
    return rates + ("q",) if model.startswith("ft-") else rates


def with_rate(fixed: ChannelParams, free: str, value: float, model: str) -> ChannelParams:
    """fixed with the rate named free set to value (see rate_fields)."""
    return replace(fixed, **dict.fromkeys(rate_fields(free, model), value))


def _bracket_top(free: str) -> float:
    """Top of a rate's search bracket: 1 for erasures, 1/2 for flips."""
    return 1.0 if free == "y" else 0.5


class _HoldsEverywhere(ValidationError):
    """The condition holds on the free rate's whole search bracket."""


def solve_threshold(
    code: CodeParams,
    free: str,
    fixed: ChannelParams = ChannelParams(),
    model: str = "css",
) -> float:
    """One error rate's threshold with the other rates held fixed: a
    value within 5e-10 of the largest value satisfying the model's
    condition, on either side.

    The left-hand sides are increasing in each rate on the search
    bracket ([0, 1] for y, [0, 1/2] otherwise), so bisection applies;
    it stops once the bracket is at most 1e-9 wide and returns its
    midpoint, which may itself just fail the condition.
    free='p' under a CSS model ties p_X = p_Z = p.
    """
    rhs = code.rhs()

    def lhs_at(t: float) -> float:
        return condition_lhs(code, with_rate(fixed, free, t, model), model)

    lo, hi = 0.0, _bracket_top(free)
    if lhs_at(lo) > rhs:
        raise ValidationError("condition already violated at rate 0")
    if lhs_at(hi) <= rhs:
        raise _HoldsEverywhere("no sign change on the bracket; condition holds everywhere")
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
    threshold of b with the other rates held fixed.  Where the
    condition holds for every b on its bracket, b is the bracket's top
    (1.0 for y, 0.5 otherwise); where it fails already at b = 0, b is
    0.0.  Rates a and b must set different fields (see rate_fields)."""
    shared = set(rate_fields(a, model)) & set(rate_fields(b, model))
    if shared:
        raise ValidationError(f"curve axes {a} and {b} both set {', '.join(sorted(shared))}")
    if points < 1:
        raise ValidationError(f"need at least one curve point, got {points}")
    a_max = solve_threshold(code, a, fixed, model=model)
    rows = []
    for i in range(points):
        a_val = a_max * i / (points - 1) if points > 1 else 0.0
        try:
            b_val = solve_threshold(code, b, with_rate(fixed, a, a_val, model), model=model)
        except _HoldsEverywhere:
            b_val = _bracket_top(b)
        except ValidationError:
            b_val = 0.0
        rows.append((a_val, b_val))
    return rows


def erasure_tail_bound(n: int, w: int, d: int, y: float) -> float:
    """Closed form of the erasure failure series: the cluster-count
    ceiling times y^m summed over m >= d.  Requires n, w and d of at
    least 1 and 2y(w-1) < 1."""
    check_at_least_one(n=n, w=w, d=d)
    _check_unit("y", y)
    ratio = 2.0 * y * (w - 1)
    if ratio >= 1.0:
        raise ValidationError(f"series diverges: 2y(w-1) = {ratio} >= 1")
    return 3.0 * n * y * ratio ** (d - 1) / (1.0 - ratio)


# -- exact bad-error sums -------------------------------------------------
#
# All three sums walk one engine, _bad_sum, over groups of positions.
# Region membership is decided exactly in integers: each float rate is
# the ratio N/D of two integers, so a product of odds powers compares
# two integer products.  A log-ratio test would flip near ties (for
# instance rate pairs whose odds are exact powers of each other) with
# rounding, and disagree with a literal probability comparison.


def _region_bad(terms: tuple[tuple[int, int, int], ...]) -> bool:
    """Whether the product over (k, up, down) terms of (up/down)**k is
    at least 1; ties count as bad.  A zero down (rate 0) or zero up
    (rate 1) stands for the odds' limit, infinity or 0, and the
    exponents of those limits decide before the finite odds do, so
    callers must drop zero-probability configurations first."""
    score = 0
    lhs = rhs = 1
    for k, up, down in terms:
        if not down:
            score += k
        elif not up:
            score -= k
        elif k > 0:
            lhs *= up**k
            rhs *= down**k
        else:
            lhs *= down**-k
            rhs *= up**-k
    if score:
        return score > 0
    return lhs >= rhs


def _bad_sum(y: float, *groups: tuple[int, float, float, float, float, int]) -> float:
    """Probability that an error on the cluster's positions is bad.

    Each group is (size, match, other, clean, odds rate, odds scale): a
    position is erased at rate y, else it carries the cluster's own
    entry (match), another non-identity entry (other) or none (clean).
    With a erasures, b1 matching and b - b1 other flips, a group raises
    its odds scale*(1-rate)/rate to b1 - (size - a - b); a configuration
    is bad when the product over its groups is at least 1.  Each term
    multiplies its factors in one fixed left-to-right order, which
    keeps every sum the same to the last bit."""
    partial = [(1.0, ())]
    for size, match, other, clean, rate, scale in groups:
        num, den = rate.as_integer_ratio()
        up, down = scale * (den - num), num
        grown = []
        for t0, terms in partial:
            # zero rates leave only a = 0 (no erasures) or b1 = b (no
            # other flips) with nonzero terms
            for a in range(size + 1 if y else 1):
                n = size - a
                ta = t0 * comb(size, a) * y**a * (1.0 - y) ** n
                if not ta:
                    continue
                for b in range(n + 1):
                    tb = ta * comb(n, b)
                    for b1 in range(0 if other else b, b + 1):
                        t = tb * comb(b, b1) * match**b1 * other ** (b - b1) * clean ** (n - b)
                        if t:
                            grown.append((t, (*terms, (b1 - n + b, up, down))))
        partial = grown
    return fsum(t for t, terms in partial if _region_bad(terms))


def exact_bad_probability_css(m: int, y: float, p: float) -> float:
    """Exact bad-error probability for one CSS sector on an m-qubit
    cluster with erasure rate y and flip rate p.

    A configuration with a erasures and b flips on the remaining
    positions is bad when (2b + a - m) * ln((1-p)/p) >= 0 (ties count
    as bad).  Always at most effective_erasure_css(y, p)**m.
    """
    check_at_least_one(m=m)
    y, p = _check_unit("y", y), _check_unit("p", p)
    return _bad_sum(y, (m, p, 0.0, 1.0 - p, p, 1))


def exact_bad_probability_depol(m: int, y: float, p: float) -> float:
    """Exact bad-error probability for depolarizing noise plus erasures.

    Splitting b = b' + b'' errors into b' that match the cluster's own
    entries and b'' that differ, a configuration is bad when
    (2b' + b'' + a - m) * ln(3(1-p)/p) >= 0.  Always at most
    effective_erasure(y, p)**m.
    """
    check_at_least_one(m=m)
    y, p = _check_unit("y", y), _check_unit("p", p)
    return _bad_sum(y, (m, p / 3.0, 2.0 * p / 3.0, 1.0 - p, p, 3))


def exact_bad_probability_ft(m: int, m_q: int, p: float, q: float) -> float:
    """Exact bad-error probability for a space-time cluster with m_q
    qubit positions (flip rate p) and m - m_q syndrome positions (flip
    rate q).

    A configuration with b qubit flips and f syndrome flips is bad when
    (2b - m_q) ln((1-p)/p) + (2f + m_q - m) ln((1-q)/q) >= 0, reading
    the log-ratios as their limits at rates 0 and 1.  Always at most
    2^m * (p(1-p))^(m_q/2) * (q(1-q))^((m-m_q)/2).
    """
    check_at_least_one(m=m)
    if not 0 <= m_q <= m:
        raise ValidationError("need 0 <= m_q <= m")
    p, q = _check_unit("p", p), _check_unit("q", q)
    return _bad_sum(0.0, (m_q, p, 0.0, 1.0 - p, p, 1), (m - m_q, q, 0.0, 1.0 - q, q, 1))


def bad_probability_bound_css(m: int, y: float, p: float) -> float:
    return effective_erasure_css(y, p) ** m


def bad_probability_bound_depol(m: int, y: float, p: float) -> float:
    return effective_erasure(y, p) ** m


def bad_probability_bound_ft(m: int, m_q: int, p: float, q: float) -> float:
    return 2.0**m * (p * (1.0 - p)) ** (m_q / 2.0) * (q * (1.0 - q)) ** ((m - m_q) / 2.0)


def ft_total_bad_bound(n: int, w: int, d: int, p: float, q: float) -> float:
    """Total bad-error bound for the space-time CSS analysis: the
    geometric series n * sum_{m >= d} base^m with
    base = 4 sqrt(q(1-q)) + 2w sqrt(p(1-p)); n, w and d must be at
    least 1."""
    check_at_least_one(n=n, w=w, d=d)
    _check_unit("p", p)
    _check_unit("q", q)
    base = 4.0 * sqrt(q * (1.0 - q)) + 2.0 * w * sqrt(p * (1.0 - p))
    if base >= 1.0:
        raise ValidationError(f"series diverges: base = {base} >= 1")
    return n * base**d / (1.0 - base)

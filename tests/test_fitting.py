import math

import pytest

from clusterbounds import ValidationError, enumerate_clusters, fit_log_growth


class TestFitLogGrowth:
    def test_exact_exponential(self):
        counts = {m: math.exp(1.0 + 2.0 * m) for m in range(1, 7)}
        fit = fit_log_growth(counts)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.growth_base == pytest.approx(math.exp(2.0), rel=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-20)

    def test_constant_counts(self):
        fit = fit_log_growth({m: 7 for m in range(2, 8)})
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.growth_base == pytest.approx(1.0, abs=1e-12)

    def test_rescaling_moves_only_intercept(self):
        counts = {m: 3.0 * 2.5**m for m in range(1, 8)}
        scaled = {m: 10.0 * c for m, c in counts.items()}
        a = fit_log_growth(counts)
        b = fit_log_growth(scaled)
        assert b.slope == pytest.approx(a.slope, abs=1e-12)
        assert b.intercept == pytest.approx(a.intercept + math.log(10.0), abs=1e-12)

    def test_refit_own_predictions_is_identity(self):
        counts = {m: 5 * 3**m + m for m in range(2, 9)}
        first = fit_log_growth(counts)
        predicted = {
            m: math.exp(first.intercept + first.slope * m) for m in counts
        }
        second = fit_log_growth(predicted)
        assert second.intercept == pytest.approx(first.intercept, abs=1e-12)
        assert second.slope == pytest.approx(first.slope, abs=1e-12)

    def test_zero_counts_excluded(self):
        counts = {2: 4, 3: 0, 4: 16, 5: 0, 6: 64}
        fit = fit_log_growth(counts)
        assert fit.weights == (2, 4, 6)
        assert fit.growth_base == pytest.approx(2.0, rel=1e-12)

    def test_range_restriction(self):
        counts = {m: 2**m for m in range(1, 10)}
        fit = fit_log_growth(counts, m_range=(3, 7))
        assert fit.weights == (3, 4, 5, 6, 7)

    def test_insufficient_points(self):
        with pytest.raises(ValidationError):
            fit_log_growth({1: 3, 2: 9})

    def test_census_input(self, toric3):
        census = enumerate_clusters(toric3, 6, sector="x")
        fit = fit_log_growth(census.counts("irreducible"), (3, 6))
        assert set(fit.weights) <= {3, 4, 5, 6}
        # the census growth base stays below the counting ceiling's base
        assert 1.0 < fit.growth_base <= toric3.w_Z - 1

import numpy as np
import pytest
from scipy import integrate, stats

from greencell.mcsim import make_rng
from greencell.traffic import from_csv, from_table, triangular


class TestTriangular:
    def setup_method(self):
        self.m = 1e-4
        self.dist = triangular(self.m)

    def test_peak_value(self):
        assert self.dist.pdf(self.m / 2) == pytest.approx(2.0 / self.m, rel=1e-12)

    def test_cdf_midpoint(self):
        assert self.dist.cdf(self.m / 2) == pytest.approx(0.5, rel=1e-12)

    def test_cdf_bounds_and_monotonicity(self):
        grid = np.linspace(-self.m, 2 * self.m, 301)
        vals = self.dist.cdf(grid)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= 0.0)

    def test_normalization(self):
        total, _ = integrate.quad(self.dist.pdf, 0.0, self.m,
                                  points=[self.m / 2])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mean_by_symmetry(self):
        mean, _ = integrate.quad(lambda x: x * self.dist.pdf(x), 0.0, self.m,
                                 points=[self.m / 2])
        assert mean == pytest.approx(self.m / 2, rel=1e-9)

    def test_ppf_round_trip(self):
        u = np.linspace(0.0, 1.0, 101)
        assert np.allclose(self.dist.cdf(self.dist.ppf(u)), u, atol=1e-12)

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            triangular(0.0)


# triangular is the three-knot table (0, m/2, m) x (0, 1, 0); these are the
# closed forms of that density, and the tolerances are the largest
# differences measured on the inputs below
TAILS = np.geomspace(1e-15, 1e-3, 25)


@pytest.mark.parametrize("m", np.geomspace(1e-7, 123.0, 11).tolist())
class TestTriangularClosedForms:
    def test_pdf(self, m):
        lam = np.concatenate([np.linspace(0.0, m, 257), m * TAILS,
                              m * (1.0 - TAILS), [-m, 2.0 * m]])
        want = np.where(lam <= 0.5 * m, 4.0 * lam / m ** 2,
                        4.0 / m - 4.0 * lam / m ** 2)
        want[(lam < 0.0) | (lam > m)] = 0.0
        np.testing.assert_allclose(triangular(m).pdf(lam), want, rtol=0.0,
                                   atol=4.3e-16 * 2.0 / m)

    def test_cdf(self, m):
        lam = np.concatenate([np.linspace(0.0, m, 257), m * TAILS,
                              m * (1.0 - TAILS)])
        want = np.where(lam <= 0.5 * m, 2.0 * lam ** 2 / m ** 2,
                        1.0 - 2.0 * (m - lam) ** 2 / m ** 2)
        np.testing.assert_allclose(triangular(m).cdf(lam), want, rtol=0.0,
                                   atol=np.finfo(float).eps)
        assert triangular(m).cdf([-m, 2.0 * m]).tolist() == [0.0, 1.0]

    def test_ppf(self, m):
        u = np.concatenate([np.linspace(0.0, 1.0, 257)[:-1], TAILS,
                            1.0 - TAILS])
        want = np.where(u <= 0.5, m * np.sqrt(u / 2.0),
                        m - m * np.sqrt((1.0 - u) / 2.0))
        np.testing.assert_allclose(triangular(m).ppf(u), want, rtol=0.0,
                                   atol=5.9e-16 * m)

    def test_knots_and_description(self, m):
        dist = triangular(m)
        assert dist.breakpoints == (0.5 * m,)
        assert dist.describe() == {"kind": "triangular", "lambda_max": m}
        assert isinstance(dist.pdf(0.3 * m), float)


# the trapezoid sum of the last knot rounds below 1 for 17 of these supports
SUPPORTS = np.geomspace(1e-7, 123.0, 60).tolist()


def test_ppf_reaches_lambda_max():
    assert [triangular(m).ppf(1.0) for m in SUPPORTS] == SUPPORTS


@pytest.mark.parametrize("tail", [1e-6, 1e-9, 1e-12, 2.0 ** -53])
def test_ppf_near_one_is_the_closed_form(tail):
    # solved from lambda_max, where the pdf falls to 0; the tolerance is the
    # largest difference measured on these inputs, which is none
    u = 1.0 - tail
    got = [triangular(m).ppf(u) for m in SUPPORTS]
    want = [m - m * np.sqrt((1.0 - u) / 2.0) for m in SUPPORTS]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=0.0)


class TestSampling:
    def setup_method(self):
        self.m = 1e-4
        self.dist = triangular(self.m)

    def test_samples_within_support(self):
        xs = self.dist.sample(make_rng(1), size=10_000)
        assert np.all((xs >= 0.0) & (xs <= self.m))

    def test_empirical_mean(self):
        xs = self.dist.sample(make_rng(2), size=100_000)
        # variance of the symmetric triangular law is m^2/24
        se = self.m / np.sqrt(24.0 * xs.size)
        assert abs(xs.mean() - self.m / 2) <= 3.0 * se

    def test_empirical_cdf_at_midpoint(self):
        xs = self.dist.sample(make_rng(3), size=100_000)
        assert abs(np.mean(xs <= self.m / 2) - 0.5) < 0.01

    def test_kolmogorov_smirnov(self):
        xs = self.dist.sample(make_rng(4), size=100_000)
        stat = stats.kstest(xs, self.dist.cdf).statistic
        assert stat < 0.01


class TestCustomTable:
    def test_uniform_table(self):
        dist = from_table([0.0, 1.0], [1.0, 1.0])
        assert dist.pdf(0.5) == pytest.approx(1.0, rel=1e-12)
        assert dist.cdf(0.25) == pytest.approx(0.25, rel=1e-12)

    def test_renormalization(self):
        dist = from_table([0.0, 2.0], [5.0, 5.0])
        total, _ = integrate.quad(dist.pdf, 0.0, 2.0)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            from_table([0.0, 1.0], [1.0, -1.0])

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("lambda,weight\n0,0\n5e-5,2\n1e-4,0\n")
        dist = from_csv(path)
        assert dist.lambda_max == 1e-4
        assert dist.pdf(5e-5) == pytest.approx(2e4, rel=1e-9)


class TestTableCdf:
    """An uneven table, where the cdf's curvature inside each cell shows."""

    def setup_method(self):
        self.knots = [0.0, 1e-5, 3e-5, 6e-5, 1e-4]
        self.dist = from_table(self.knots, [0.2, 1.0, 0.1, 0.8, 0.3])

    def test_cdf_is_the_integral_of_the_pdf(self):
        grid = np.linspace(0.0, 1e-4, 97)
        want = [integrate.quad(self.dist.pdf, 0.0, lam,
                               points=[k for k in self.knots if 0 < k < lam]
                               or None, epsabs=0.0, epsrel=1e-13)[0]
                for lam in grid]
        np.testing.assert_allclose(self.dist.cdf(grid), want, rtol=0.0,
                                   atol=1e-12)
        assert self.dist.cdf(-1e-5) == 0.0 and self.dist.cdf(2e-4) == 1.0

    def test_ppf_inverts_cdf(self):
        u = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_allclose(self.dist.cdf(self.dist.ppf(u)), u,
                                   rtol=0.0, atol=1e-12)
        assert isinstance(self.dist.ppf(0.3), float)

    def test_kolmogorov_smirnov(self):
        # against a cdf built from the pdf alone: the trapezoid sums of a
        # piecewise-linear pdf on a grid through its knots
        fine = np.linspace(0.0, 1e-4, 200_001)
        cum = integrate.cumulative_trapezoid(self.dist.pdf(fine), fine,
                                             initial=0.0)
        xs = self.dist.sample(make_rng(5), size=100_000)
        result = stats.kstest(xs, lambda lam: np.interp(lam, fine, cum))
        assert result.pvalue > 0.01

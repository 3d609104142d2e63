import numpy as np
import pytest
from scipy import integrate

from greencell.traffic import from_csv, from_table, triangular
from oracles import density_cdf


class TestTriangular:
    def setup_method(self):
        self.m = 1e-4
        self.dist = triangular(self.m)

    def test_peak_value(self):
        assert self.dist.pdf(self.m / 2) == pytest.approx(2.0 / self.m, rel=1e-12)

    def test_cdf_midpoint(self):
        assert density_cdf(self.dist, self.m / 2) == pytest.approx(0.5,
                                                                   rel=1e-12)

    def test_cdf_bounds_and_monotonicity(self):
        grid = np.linspace(-self.m, 2 * self.m, 301)
        vals = density_cdf(self.dist, grid)
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
        np.testing.assert_allclose(density_cdf(triangular(m), lam), want,
                                   rtol=0.0, atol=np.finfo(float).eps)
        assert density_cdf(triangular(m),
                           [-m, 2.0 * m]).tolist() == [0.0, 1.0]

    def test_knots_and_description(self, m):
        dist = triangular(m)
        assert dist.breakpoints == (0.5 * m,)
        assert dist.describe() == {"kind": "triangular", "lambda_max": m}
        assert isinstance(dist.pdf(0.3 * m), float)


class TestCustomTable:
    def test_uniform_table(self):
        dist = from_table([0.0, 1.0], [1.0, 1.0])
        assert dist.pdf(0.5) == pytest.approx(1.0, rel=1e-12)
        assert density_cdf(dist, 0.25) == pytest.approx(0.25, rel=1e-12)

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
        np.testing.assert_allclose(density_cdf(self.dist, grid), want,
                                   rtol=0.0, atol=1e-12)
        assert density_cdf(self.dist, -1e-5) == 0.0 and \
            density_cdf(self.dist, 2e-4) == 1.0

import gc
import math

import numpy as np
import pytest

from geominar import simulate
from geominar.catalog import build_model
from geominar.decompose import (
    GUIDE_MAX,
    FractionalDecomposition,
    InnovationDistribution,
    pmf_from_decomposition,
)
from geominar.pgf import BinomialThinning, NegativeBinomialThinning
from geominar.polyrat import Polynomial
from geominar.simulate import (
    RngStream,
    sample_innovation,
    simulate_series,
)

from grids import CANONICAL


class TestSampleInnovation:
    def test_unit_mass_always_zero(self):
        dist = pmf_from_decomposition(FractionalDecomposition(Polynomial((1.0,)), ()))
        gen = RngStream(1).generator()
        assert all(sample_innovation(dist, gen) == 0 for _ in range(50))

    def test_zero_fraction_matches_probability(self):
        model = build_model("ginar", theta=0.5, alpha=0.5)
        gen = RngStream(7).generator()
        n = 200_000
        draws = np.array([sample_innovation(model.innovation, gen) for _ in range(n)])
        se = math.sqrt(0.75 * 0.25 / n)
        assert abs((draws == 0).mean() - 0.75) < 4.0 * se
        assert abs(draws.mean() - model.moments.innovation_mean) < \
            4.0 * math.sqrt(model.moments.innovation_var / n)

    def test_deterministic_given_stream(self):
        model = build_model("nginar", mu=1.0, alpha=0.3)
        a = [sample_innovation(model.innovation, RngStream(3, 9).generator())
             for _ in range(1)]
        gen1 = RngStream(3, 9).generator()
        gen2 = RngStream(3, 9).generator()
        xs = [sample_innovation(model.innovation, gen1) for _ in range(100)]
        ys = [sample_innovation(model.innovation, gen2) for _ in range(100)]
        assert xs == ys
        assert xs[0] == a[0]

    def test_tail_fallback_reached(self):
        # truncating at 99% forces frequent tail draws; the sample mean must
        # still match the full-law mean
        model = build_model("ginar", theta=0.5, alpha=0.0)
        short = pmf_from_decomposition(model.innovation.decomposition, 0.99)
        gen = RngStream(11).generator()
        n = 200_000
        draws = np.array([sample_innovation(short, gen) for _ in range(n)])
        assert draws.max() > short.truncation
        se = math.sqrt(model.moments.innovation_var / n)
        assert abs(draws.mean() - model.moments.innovation_mean) < 4.0 * se


# the canonical laws, plus a 262k-row table where the bucket count is capped
GUIDE_POINTS = {name: (name, p) for name, p in CANONICAL.items()}
GUIDE_POINTS["ginar-theta-1e-4"] = ("ginar", {"theta": 1e-4, "alpha": 0.5})


class _FixedUniforms:
    """Stands in for a Generator whose random() returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, out):
        out[:], self.u = self.u[:len(out)], self.u[len(out):]
        return out


def _adversarial_uniforms(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """0, every bucket edge, every CDF value and its float neighbours, and
    values from the table mass up to the largest double below one."""
    near = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
    above = np.linspace(cdf[-1], 1.0, 64, endpoint=False)
    u = np.concatenate([[0.0], np.arange(buckets) / buckets, near, above,
                        [np.nextafter(1.0, 0.0)]])
    return u[u < 1.0]


def _lookup(d, u: np.ndarray) -> np.ndarray:
    k = np.empty(len(u), dtype=np.int64)
    simulate._table_index(d, u, k, np.empty(len(u), dtype=np.intp))
    return k


class TestGuideTable:
    @pytest.fixture(scope="class", params=list(GUIDE_POINTS.values()), ids=list(GUIDE_POINTS))
    def dist(self, request):
        name, p = request.param
        return build_model(name, **p).innovation

    def test_shape_and_cdf(self, dist):
        cdf, guide = dist.sampling_table
        assert np.array_equal(cdf, np.cumsum(dist.pmf_table))
        m = len(guide)
        assert m & (m - 1) == 0
        assert m == GUIDE_MAX or m // 2 < 4 * len(cdf) <= m
        assert not cdf.flags.writeable and not guide.flags.writeable

    def test_lookup_equals_binary_search(self, dist):
        cdf, guide = dist.sampling_table
        u = _adversarial_uniforms(cdf, len(guide))
        assert np.array_equal(_lookup(dist, u), np.searchsorted(cdf, u, side="right"))

    def test_mass_beyond_table_reaches_the_tail(self, dist):
        cdf, _ = dist.sampling_table
        u = np.concatenate([[cdf[-1], np.nextafter(cdf[-1], 1.0)],
                            np.linspace(cdf[-1], 1.0, 16, endpoint=False)[1:],
                            [np.nextafter(1.0, 0.0)]])
        u = u[u < 1.0]
        draws = simulate._innovation_draws(dist, _FixedUniforms(u), len(u))
        assert (draws > dist.truncation).all()

    def test_built_once_per_distribution(self, monkeypatch):
        d = pmf_from_decomposition(FractionalDecomposition(Polynomial((0.3,)), ((0.7 * 0.6, 1.6),)))
        prop = InnovationDistribution.sampling_table
        builds = []
        real = prop.func

        def counting(self):
            builds.append(self)
            return real(self)

        monkeypatch.setattr(prop, "func", counting)
        gen = RngStream(4).generator()
        for _ in range(50):
            sample_innovation(d, gen)
        assert builds == [d]

    def test_table_follows_its_distribution_across_collection(self):
        # a cache keyed by id() would hand a collected law's table to a new
        # one at the same address; the cache lives on the instance instead
        for i in range(20):
            model = build_model("ginar", theta=0.3 + 0.02 * i, alpha=0.5)
            d = model.innovation
            sample_innovation(d, RngStream(i).generator())
            cdf, guide = d.sampling_table
            assert np.array_equal(cdf, np.cumsum(d.pmf_table))
            u = _adversarial_uniforms(cdf, len(guide))
            assert np.array_equal(_lookup(d, u), np.searchsorted(cdf, u, side="right"))
            del model, d, cdf, guide
            gc.collect()


class TestApplyThinning:
    def test_zero_count_is_zero(self):
        gen = RngStream(0).generator()
        assert BinomialThinning(0.7).draw(gen, 0) == 0
        assert NegativeBinomialThinning(0.7).draw(gen, 0) == 0

    def test_binomial_mean(self):
        gen = RngStream(5).generator()
        n, x, alpha = 100_000, 10, 0.35
        total = sum(BinomialThinning(alpha).draw(gen, x) for _ in range(n))
        se = math.sqrt(x * alpha * (1 - alpha) / n)
        assert abs(total / n - x * alpha) < 4.0 * se

    def test_negative_binomial_mean_and_variance_scale(self):
        gen = RngStream(6).generator()
        n, x, alpha = 200_000, 10, 0.3
        draws = np.array([NegativeBinomialThinning(alpha).draw(gen, x)
                          for _ in range(n)])
        se = math.sqrt(x * alpha * (1 + alpha) / n)
        assert abs(draws.mean() - x * alpha) < 4.0 * se

    def test_array_counts_thin_elementwise(self):
        gen = RngStream(8).generator()
        x = np.array([0, 3, 0, 10] * 50_000)
        for t in (BinomialThinning(0.4), NegativeBinomialThinning(0.4)):
            y = t.draw(gen, x)
            assert y.shape == x.shape
            assert (y[x == 0] == 0).all()
            tens = y[x == 10]
            assert abs(tens.mean() - 4.0) < 4.0 * math.sqrt(tens.var() / len(tens))


def _thinning_pmf(model, i: int, kmax: int) -> list[float]:
    """P(alpha o i = k), k = 0..kmax: binomial(i, alpha), or for NB thinning
    the sum of i geometrics with mean alpha, NB(i, 1/(1+alpha))."""
    a = model.alpha
    if isinstance(model.spec.thinning, BinomialThinning):
        return [math.comb(i, k) * a**k * (1 - a) ** (i - k) if k <= i else 0.0
                for k in range(kmax + 1)]
    if i == 0:
        return [1.0] + [0.0] * kmax
    p = 1.0 / (1.0 + a)
    return [math.comb(k + i - 1, k) * p**i * (1 - p) ** k for k in range(kmax + 1)]


def _kernel_row(model, i: int, cells: int) -> np.ndarray:
    """Exact P(X_{t+1} = j | X_t = i) for j < cells - 1, then P(X_{t+1} >= cells - 1):
    the thinning pmf of i units convolved with the innovation pmf."""
    thin = _thinning_pmf(model, i, cells - 2)
    row = [sum(thin[k] * model.innovation.pmf(j - k) for k in range(j + 1))
           for j in range(cells - 1)]
    return np.array(row + [1.0 - sum(row)])


def _transition_chi_square(model, prev: np.ndarray, nxt: np.ndarray,
                           rows: int, cells: int) -> float:
    """Pearson chi-square of the pair counts (prev, nxt) for prev < rows
    against the exact one-step kernel; nxt >= cells - 1 is one cell."""
    sel = prev < rows
    codes = prev[sel] * cells + np.minimum(nxt[sel], cells - 1)
    counts = np.bincount(codes, minlength=rows * cells).reshape(rows, cells)
    stat = 0.0
    for i in range(rows):
        expected = counts[i].sum() * _kernel_row(model, i, cells)
        assert expected.min() >= 5.0, (i, expected)  # chi-square approximation holds
        stat += float(((counts[i] - expected) ** 2 / expected).sum())
    return stat


def _gate(rows: int, cells: int) -> float:
    """Under the true law the statistic is chi-square with rows * (cells - 1)
    degrees of freedom; the gate sits 6 sd above its mean."""
    df = rows * (cells - 1)
    return df + 6.0 * math.sqrt(2.0 * df)


class TestTransitionLaw:
    """The sampler's exact oracle: pair counts of one long path against the
    one-step kernel."""

    ROWS, CELLS = 5, 9
    GATE = _gate(ROWS, CELLS)

    @pytest.mark.parametrize("name", ["ginar", "nginar", "zmg"])
    def test_pair_counts_match_kernel(self, name):
        # zmg has alpha = 0: the kernel rows are all the innovation law, so
        # this is the test that the path is iid
        model = build_model(name, **CANONICAL[name])
        s = simulate_series(model, 1_000_000, RngStream(314))
        stat = _transition_chi_square(model, s.values[:-1], s.values[1:],
                                      self.ROWS, self.CELLS)
        assert stat < self.GATE, (name, stat, self.GATE)

    def test_statistic_rejects_wrong_alpha(self):
        model = build_model("ginar", **CANONICAL["ginar"])
        s = simulate_series(model, 1_000_000, RngStream(314))
        wrong = build_model("ginar", theta=CANONICAL["ginar"]["theta"],
                            alpha=0.9 * model.alpha)
        stat = _transition_chi_square(wrong, s.values[:-1], s.values[1:],
                                      self.ROWS, self.CELLS)
        assert stat > self.GATE, stat

    def test_innovation_blocks_do_not_change_the_path(self, monkeypatch):
        # innovations are drawn a block of uniforms at a time; the block size
        # must not change a seeded path
        model = build_model("ginar", **CANONICAL["ginar"])
        whole = simulate_series(model, 1000, RngStream(5)).values
        monkeypatch.setattr(simulate, "BLOCK", 16)
        assert (simulate_series(model, 1000, RngStream(5)).values == whole).all()

    def test_burn_in_returns_exactly_n_values(self):
        for name in ("ginar", "nginar"):
            model = build_model(name, **CANONICAL[name])
            for n, burn in ((1, 0), (1, 5), (2, 0), (1000, 250)):
                s = simulate_series(model, n, RngStream(2), burn_in=burn)
                assert len(s.values) == n
                assert s.burn_in == burn


class TestSimulateSeries:
    def test_deterministic_replay(self):
        model = build_model("rho-geo-bin", **CANONICAL["rho-geo-bin"])
        a = simulate_series(model, 5000, RngStream(42, 3), burn_in=7)
        b = simulate_series(model, 5000, RngStream(42, 3), burn_in=7)
        assert np.array_equal(a.values, b.values)
        c = simulate_series(model, 5000, RngStream(42, 4), burn_in=7)
        assert not np.array_equal(a.values, c.values)

    def test_alpha_zero_is_iid(self):
        model = build_model("zmg", mu=1.0, k=0.3)
        s = simulate_series(model, 100_000, RngStream(1))
        xs = s.values.astype(float)
        xs -= xs.mean()
        lag1 = float(xs[1:] @ xs[:-1] / (xs @ xs))
        assert abs(lag1) < 4.0 / math.sqrt(len(xs))

    def test_alpha_zero_runs_no_thinning_pass(self, monkeypatch):
        def no_thinning(*args):
            raise AssertionError("thinning pass at alpha = 0")

        monkeypatch.setattr(BinomialThinning, "draw", no_thinning)
        for name in ("zmg", "two-param"):
            simulate_series(build_model(name, **CANONICAL[name]), 1000, RngStream(1))

    def test_stationary_mean_with_burn_in_insensitivity(self):
        model = build_model("rho-geo-bin", **CANONICAL["rho-geo-bin"])
        n = 200_000
        mo = model.moments
        for burn in (0, 500):
            s = simulate_series(model, n, RngStream(9), burn_in=burn)
            assert len(s.values) == n
            ess = n * (1 - model.alpha) / (1 + model.alpha)
            se = math.sqrt(mo.marginal_var / ess)
            assert abs(s.values.mean() - mo.marginal_mean) < 4.0 * se

    def test_lag1_autocorrelation_near_alpha(self):
        model = build_model("nginar", mu=1.0, alpha=0.3)
        s = simulate_series(model, 300_000, RngStream(17))
        xs = s.values.astype(float)
        xs -= xs.mean()
        lag1 = float(xs[1:] @ xs[:-1] / (xs @ xs))
        n = len(xs)
        assert abs(lag1 - 0.3) < 4.0 * (1 + 2 * 0.3) / math.sqrt(n)

    def test_rejects_bad_arguments(self):
        model = build_model("ginar", theta=0.5, alpha=0.5)
        with pytest.raises(ValueError):
            simulate_series(model, 0, RngStream(0))
        with pytest.raises(ValueError):
            simulate_series(model, 10, RngStream(0), burn_in=-1)

import dataclasses
import gc
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from geominar import simulate
from geominar.catalog import build_model
from geominar.decompose import (
    FractionalDecomposition,
    InnovationDistribution,
    pmf_from_decomposition,
)
from geominar.pgf import BinomialThinning, NegativeBinomialThinning
from geominar.polyrat import Polynomial
from geominar.simulate import (
    GUIDE_MAX,
    RngStream,
    SeriesSample,
    sample_innovation,
    simulate_series,
)

from grids import CANONICAL, GRIDS, WIDE


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


class _RawWords:
    """Stands in for a Generator (and its bit generator) whose raw words encode
    the uniforms u, each on the 53-bit grid, as the sampler reads them: first
    the top log2(per) bits of every u, packed 64 / log2(per) to a word from
    its lowest bits up, then one word for each u flagged in completes, in
    order, whose top bits are the rest of u and whose other bits are all
    ones, which the sampler must not read."""

    def __init__(self, u, per: int, completes):
        bits = per.bit_length() - 1
        grid = np.asarray(u, dtype=float) * 2.0**53
        assert (grid == np.floor(grid)).all()  # each u is a multiple of 2^-53
        grid = grid.astype(np.uint64)
        top, rest = grid >> (53 - bits), grid & ((1 << (53 - bits)) - 1)
        lanes = 64 // bits
        top = np.concatenate([top, np.zeros(-len(top) % lanes, np.uint64)]).reshape(-1, lanes)
        shifts = bits * np.arange(lanes, dtype=np.uint64)
        words = np.bitwise_or.reduce(top << shifts, axis=1)
        fill = (1 << (11 + bits)) - 1
        self.words = np.concatenate([words, (rest[completes] << (11 + bits)) | fill])
        self.bit_generator = self

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        assert len(out) == size
        return out


def _adversarial_uniforms(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """0, every bucket edge, every CDF value's grid point of the sampler's
    53-bit uniforms (the value itself where it lies on the grid, as every
    value above 1/2 does) and the grid points either side of it, points from
    the table mass up, and 1 - 2^-53, the largest uniform below one."""
    at = np.floor(cdf * 2.0**53)
    near = np.concatenate([at - 1.0, at, at + 1.0]) * 2.0**-53
    above = np.floor(np.linspace(cdf[-1], 1.0, 64, endpoint=False) * 2.0**53) * 2.0**-53
    u = np.concatenate([[0.0], np.arange(buckets) / buckets, near, above,
                        [np.nextafter(1.0, 0.0)]])
    return u[(u >= 0.0) & (u < 1.0)]


def _innovation_words(d, u: np.ndarray) -> _RawWords:
    """The raw words that make _innovation_draws(d, ., len(u)) read the
    uniforms u: a completion word where the bucket holds a CDF value (-1)
    or lies past the table."""
    guide = d.sampling_table[1]
    index = guide[(u * len(guide)).astype(int)]
    return _RawWords(u, len(guide), (index < 0) | (index > d.truncation))


def _lookup(d, u: np.ndarray) -> np.ndarray:
    """The sampler's table index of each u: its innovation draw, with a draw
    from the tail beyond the table read as T + 1, where a search puts it."""
    gen = _innovation_words(d, u)
    k = simulate._innovation_draws(d, gen, len(u))
    assert gen.words.size == 0  # every word read, and no more
    return np.minimum(k, d.truncation + 1)


class TestGuideTable:
    @pytest.fixture(scope="class", params=list(GUIDE_POINTS.values()), ids=list(GUIDE_POINTS))
    def dist(self, request):
        name, p = request.param
        return build_model(name, **p).innovation

    def test_shape_and_cdf(self, dist):
        # one row: the table's CDF
        cdf, guide, keys = dist.sampling_table
        assert cdf.shape == (1, len(dist.pmf_table))
        assert np.array_equal(cdf[0], np.cumsum(dist.pmf_table))
        assert len(guide) == GUIDE_MAX
        assert not (cdf.flags.writeable or guide.flags.writeable or keys.flags.writeable)

    def test_lookup_equals_binary_search(self, dist):
        cdf, guide, _ = dist.sampling_table
        u = _adversarial_uniforms(cdf[0], len(guide))
        assert np.array_equal(_lookup(dist, u), np.searchsorted(cdf[0], u, side="right"))

    def test_mass_beyond_table_reaches_the_tail(self, dist):
        total = dist.sampling_table[0][0, -1]
        u = np.concatenate([[total, np.nextafter(total, 1.0)],
                            np.linspace(total, 1.0, 16, endpoint=False)[1:],
                            [np.nextafter(1.0, 0.0)]])
        u = np.ceil(u[u < 1.0] * 2.0**53) * 2.0**-53  # on the sampler's grid, at or above
        gen = _innovation_words(dist, u)
        draws = simulate._innovation_draws(dist, gen, len(u))
        assert (draws > dist.truncation).all() and gen.words.size == 0

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
            cdf, guide, _ = d.sampling_table
            assert np.array_equal(cdf[0], np.cumsum(d.pmf_table))
            u = _adversarial_uniforms(cdf[0], len(guide))
            assert np.array_equal(_lookup(d, u), np.searchsorted(cdf[0], u, side="right"))
            del model, d, cdf, guide
            gc.collect()

    @pytest.mark.parametrize("per", [simulate.PER, GUIDE_MAX])
    def test_bucket_bits_read_each_word_from_its_low_bits_up(self, per):
        bits = per.bit_length() - 1
        got = simulate._bucket_bits(RngStream(3).generator(), 37, per)
        words = RngStream(3).generator().bit_generator.random_raw(-(-37 * bits // 64))
        expect = [(int(w) >> (bits * j)) & (per - 1) for w in words for j in range(64 // bits)]
        assert got.tolist() == expect[:37]

    @pytest.mark.parametrize("off", [-1, 1])
    def test_a_completion_shift_off_by_one_is_caught(self, off, monkeypatch):
        # the exactness check above fails for a completion that reads one bit
        # too many or too few of its word
        def mutant(gen, top, per):
            bits = per.bit_length() - 1
            w = gen.bit_generator.random_raw(top.size)
            return ((top.astype(np.uint64) << (53 - bits)) | (w >> (11 + bits + off))) * 2.0**-53

        d = build_model("ginar", **CANONICAL["ginar"]).innovation
        cdf, guide, _ = d.sampling_table
        u = _adversarial_uniforms(cdf[0], len(guide))
        expect = np.searchsorted(cdf[0], u, side="right")
        assert np.array_equal(_lookup(d, u), expect)
        monkeypatch.setattr(simulate, "_uniforms", mutant)
        assert not np.array_equal(_lookup(d, u), expect)


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


def _thinning_pmf(thinning, i: int, kmax: int) -> list[float]:
    """P(alpha o i = k), k = 0..kmax: binomial(i, alpha), or for NB thinning
    the sum of i geometrics with mean alpha, NB(i, 1/(1+alpha)). Built by the
    ratio of consecutive terms outwards from the mode, where the cell is 1,
    and divided by the sum of the cells, as simulate.count_table builds its
    rows: so no binomial coefficient overflows a float at i = 1000, and no
    cell is started from P(0), which underflows where alpha is near 1."""
    a = thinning.alpha
    if isinstance(thinning, BinomialThinning):
        ratio = lambda k: max(i - k, 0) / (k + 1) * a / (1.0 - a)
    else:
        ratio = lambda k: (k + i) / (k + 1) * (a / (1.0 + a))
    mode = next(k for k in itertools.count() if ratio(k) < 1.0)
    cells = [1.0]
    for k in range(mode - 1, -1, -1):
        cells.append(cells[-1] / ratio(k))
    cells.reverse()
    # on past kmax until the cells no longer add to the sum
    k = mode
    while k < kmax or cells[-1] > 1e-20:
        cells.append(cells[-1] * ratio(k))
        k += 1
    total = sum(cells)
    return [c / total for c in cells[:kmax + 1]]


def _binned_chi_square(draws: np.ndarray, pmf: list[float]) -> tuple[float, int]:
    """Pearson chi-square of draws against pmf on k = 0..len(pmf) - 1, with one
    more cell for the mass beyond; neighbouring values are merged until each
    cell expects at least 5 draws. Returns the statistic and the cell count."""
    tail = max(1.0 - sum(pmf), 0.0)
    probs = np.array([*pmf, tail])
    counts = np.bincount(np.minimum(draws, len(pmf)), minlength=len(probs))
    expected = len(draws) * probs
    cells, obs, exp = [], 0, 0.0
    for o, e in zip(counts, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            cells.append((obs, exp))
            obs, exp = 0, 0.0
    if exp > 0.0 or obs:
        last = cells.pop()
        cells.append((last[0] + obs, last[1] + exp))
    stat = sum((o - e) ** 2 / e for o, e in cells)
    return stat, len(cells)


def _exact_cdf(thinning, c: int, width: int) -> list[Fraction]:
    """The exact CDF of the thinned count of c units over k = 0..width-1, from
    binomial coefficients in Fraction arithmetic at the float alpha."""
    a = Fraction(thinning.alpha)
    if isinstance(thinning, BinomialThinning):
        cells = [math.comb(c, k) * a**k * (1 - a) ** (c - k) for k in range(min(c, width - 1) + 1)]
    else:  # NB(c, 1/(1+a)); at c = 0 all of the mass is at 0
        cells = [math.comb(c + k - 1, k) * a**k / (1 + a) ** (c + k) if c else Fraction(k == 0)
                 for k in range(width)]
    cells += [Fraction(0)] * (width - len(cells))
    return list(itertools.accumulate(cells))


def _thinned(thinning, counts, size: int, seed: int = 21) -> tuple[np.ndarray, np.ndarray]:
    """size shuffled entries of the given counts, and _thin's draws for them."""
    cnt = np.array(counts, dtype=np.int64)[np.random.default_rng(seed).permutation(size)
                                           % len(counts)]
    before = cnt.copy()
    simulate._thin(thinning, RngStream(seed).generator(), cnt)
    return before, cnt


def _count_stats(thinning, before, drawn, model=None) -> dict[int, tuple[float, float]]:
    """Per count i in before: (chi-square of its draws against the law of the
    thinned count of i units under model, default thinning; the gate)."""
    model = model or thinning
    out = {}
    for i in np.unique(before):
        i = int(i)
        kmax = 2 * i + 60 if isinstance(model, NegativeBinomialThinning) else i
        stat, cells = _binned_chi_square(drawn[before == i], _thinning_pmf(model, i, kmax))
        assert cells >= 2
        out[i] = stat, _gate(1, cells)
    return out


def _moved_cell(cdf: np.ndarray, c: int) -> np.ndarray:
    """cdf with the cell of row c at its mode moved one column to the right."""
    pmf = np.diff(cdf, prepend=0.0, axis=1)
    k = int(pmf[c].argmax())
    pmf[c, k + 1] += pmf[c, k]
    pmf[c, k] = 0.0
    return np.cumsum(pmf, axis=1)


def _row_search_guide(cdf: np.ndarray, per: int) -> np.ndarray:
    """The guide of the rows cdf with per buckets, bucket by bucket: the row
    search of both ends of bucket b, b/per and the largest double below
    (b+1)/per, where the two agree (and so does every u between), else -1."""
    lo = np.arange(per) / per
    hi = np.nextafter(np.arange(1, per + 1) / per, 0.0)
    guide = []
    for row in cdf:
        at_lo = row.searchsorted(lo, side="right")
        guide.append(np.where(at_lo == row.searchsorted(hi, side="right"), at_lo, -1))
    return np.concatenate(guide)


def _guided_source(source):
    """(table, rows, draw) for a thinning or a GUIDE_POINTS key: the guided
    table, the rows the sampler reads (the counts 1..CAP, or the one row of
    the innovations) and draw(counts, u), the sampler's index for uniforms u
    in those rows: _thin of the counts, in one block, or _lookup."""
    if isinstance(source, str):
        name, p = GUIDE_POINTS[source]
        d = build_model(name, **p).innovation
        return d.sampling_table, np.zeros(1, np.int64), lambda counts, u: _lookup(d, u)

    def thin(counts, u):
        assert len(u) < simulate.THIN_BLOCK
        cnt = counts.copy()
        guide = source.count_table[1]
        gen = _RawWords(u, simulate.PER, guide[counts * simulate.PER + (u * simulate.PER).astype(int)] < 0)
        simulate._thin(source, gen, cnt)
        assert gen.words.size == 0
        return cnt

    return source.count_table, np.arange(1, simulate.CAP + 1), thin


class TestGuidedThinning:
    """_thin against the exact law of the thinned count of every count, its
    table's CDF rows against exact ones, and its guide against row search,
    as the innovation tables' guides, which the same builder makes."""

    CAP = simulate.CAP
    ALPHAS = (0.3, 0.85, 1.0 - 1e-4)
    THINNINGS = [cls(a) for a in ALPHAS for cls in (BinomialThinning, NegativeBinomialThinning)]
    IDS = [f"{name}-{a}" for a in ALPHAS for name in ("bin", "nb")]

    @pytest.mark.parametrize("thinning", THINNINGS, ids=IDS)
    def test_each_count_matches_its_thinning_law(self, thinning):
        # 1 and 2 through the guide, CAP through its last row, CAP + 1 through draw
        counts = (1, 2, self.CAP, self.CAP + 1)
        before, drawn = _thinned(thinning, counts, 4 * 100_000)
        assert drawn.min() >= 0
        if isinstance(thinning, BinomialThinning):
            assert (drawn <= before).all()
        stats = _count_stats(thinning, before, drawn)
        assert sorted(stats) == list(counts)
        for i, (stat, gate) in stats.items():
            assert stat < gate, (i, stat, gate)

    def test_chi_square_rejects_a_wrong_alpha(self):
        # 200,000 draws per count: under NB thinning the wrong alpha shifts the
        # count-1 statistic by about 108 against a gate of about 30 (at 50,000
        # draws by 27, where about one seed in three stays under the gate)
        for t in (BinomialThinning(0.3), NegativeBinomialThinning(0.3)):
            before, drawn = _thinned(t, (1, 2, self.CAP, self.CAP + 1), 4 * 200_000)
            wrong = type(t)(0.3 * 1.05)
            stats = _count_stats(t, before, drawn, model=wrong)
            for i, (stat, gate) in stats.items():
                assert stat > gate, (t, i, stat)

    @pytest.mark.parametrize("c", [1, 2, 32])
    @pytest.mark.parametrize("cls", [BinomialThinning, NegativeBinomialThinning])
    def test_a_cell_moved_one_column_is_caught(self, cls, c, monkeypatch):
        thinning = cls(0.3)
        real = simulate.count_table(thinning)[0]
        mutant = simulate._guided(_moved_cell(real, c), simulate.PER)
        monkeypatch.setattr(simulate, "count_table", lambda t: mutant)
        before, drawn = _thinned(thinning, (1, 2, self.CAP), 3 * 50_000)
        stats = _count_stats(thinning, before, drawn)
        assert [i for i, (stat, gate) in stats.items() if stat > gate] == [c]
        exact = [float(v) for v in _exact_cdf(thinning, c, real.shape[1])]
        assert np.abs(mutant[0][c] - exact).max() > 1e-15

    def test_table_built_once_per_thinning(self, monkeypatch):
        # cached on the thinning, as sampling_table is on its distribution: a
        # model's paths share one build, a new model builds its own
        builds = []
        real = simulate.count_table

        def counting(thinning):
            builds.append(thinning)
            return real(thinning)

        monkeypatch.setattr(simulate, "count_table", counting)
        model = build_model("nginar", **CANONICAL["nginar"])
        for seed in range(5):
            simulate_series(model, 2000, RngStream(seed))
        assert builds == [model.spec.thinning]
        other = build_model("nginar", **CANONICAL["nginar"])
        simulate_series(other, 2000, RngStream(0))
        assert len(builds) == 2 and builds[1] is other.spec.thinning

    def test_thin_of_nothing_draws_nothing(self):
        for t in self.THINNINGS:
            gen = RngStream(0).generator()
            state = gen.bit_generator.state
            cnt = np.empty(0, dtype=np.int64)
            simulate._thin(t, gen, cnt)
            assert cnt.size == 0 and gen.bit_generator.state == state

    @pytest.mark.parametrize("alpha", [1e-300, 0.3, 1.0 - 1e-16])
    @pytest.mark.parametrize("cls", [BinomialThinning, NegativeBinomialThinning])
    def test_cdf_rows_match_exact_law(self, cls, alpha):
        # at 1 - 1e-16, (1 - alpha)^c underflows from c = 20 on and (1 + alpha)^-c
        # is near 2^-32: the rows are built from the mode, not from P(0)
        thinning = cls(alpha)
        cdf, guide, keys = thinning.count_table
        width = thinning.count_width(self.CAP)
        # one ulp of 1.0 where numpy's longdouble is wider than a double
        extended = np.finfo(np.longdouble).eps < np.finfo(float).eps
        tol = 2.0**-52 if extended else 1e-15
        assert cdf.shape == (self.CAP + 1, width) and guide.shape == ((self.CAP + 1) * simulate.PER,)
        assert not (cdf.flags.writeable or guide.flags.writeable or keys.flags.writeable)
        assert (cdf[:, -1] == 1.0).all() and (np.diff(cdf, axis=1) >= 0.0).all()
        for c in range(self.CAP + 1):
            exact = _exact_cdf(thinning, c, width)
            assert 1 - exact[-1] < Fraction(2) ** -54  # the folded tail
            assert np.abs(cdf[c] - [float(v) for v in exact]).max() <= tol, c
        # the chi-square oracle is built from the mode too, so it keeps its mass
        assert abs(sum(_thinning_pmf(thinning, self.CAP, width - 1)) - 1.0) <= 1e-12

    # the guided tables: the thinnings' count tables, and the innovation
    # tables of the GUIDE_POINTS laws, named by their key there
    GUIDED = THINNINGS + [NegativeBinomialThinning(1.0 - 1e-16)] + list(GUIDE_POINTS)
    GUIDED_IDS = IDS + ["nb-1-1e-16"] + [f"innovation-{k}" for k in GUIDE_POINTS]

    @pytest.mark.parametrize("source", GUIDED, ids=GUIDED_IDS)
    def test_guide_bucket_is_row_search_at_both_ends(self, source):
        cdf, guide, _ = _guided_source(source)[0]
        assert np.array_equal(guide, _row_search_guide(cdf, len(guide) // len(cdf)))

    @pytest.mark.parametrize("family", [*GRIDS, "wide"])
    def test_guides_are_row_search_at_grid_and_wide_points(self, family):
        # every innovation row, and every count row where the path thins (alpha > 0)
        points = WIDE if family == "wide" else [(family, p) for p in GRIDS[family]]
        for name, p in points:
            model = build_model(name, **p)
            tables = [(model.innovation.sampling_table, GUIDE_MAX)]
            if model.alpha > 0.0:
                tables.append((model.spec.thinning.count_table, simulate.PER))
            for (cdf, guide, _), per in tables:
                assert np.array_equal(guide, _row_search_guide(cdf, per)), (name, p, per)

    @pytest.mark.parametrize("per", [4, simulate.PER])
    def test_guide_at_bucket_edges_and_row_ends(self, per):
        # values on bucket edges (no -1), a value inside a bucket (-1), rows
        # ending at 1.0 (bucket == per) and an ulp above it, whose bucket is
        # past the row: no -1 may land in the next row's first bucket
        edge = 1.0 / per
        cdf = np.array([[edge, 0.5, 0.5, 1.0],
                        [0.0, 0.3, 0.5 + edge / 2, 1.0 + 2.0**-52],
                        [0.25, 0.5, 1.0 - 2.0**-53, 1.0],
                        [edge / 3, 0.5, 0.75, 1.0 - edge]])
        _, guide, _ = simulate._guided(cdf, per)
        assert guide.shape == (len(cdf) * per,)
        assert np.array_equal(guide, _row_search_guide(cdf, per))
        # row 2's first bucket, after row 1 ends past its last, and row 3's, with edge / 3
        assert guide[2 * per] == 0 and guide[3 * per] == -1

    @pytest.mark.parametrize("source", GUIDED, ids=GUIDED_IDS)
    def test_lookup_equals_row_search(self, source):
        # 0, every bucket edge, every value of the row and its float neighbours
        # and the largest double below one, for every row the sampler reads
        table, rows, draw = _guided_source(source)
        cdf, guide, _ = table
        per = len(guide) // len(cdf)
        u = [_adversarial_uniforms(cdf[c], per) for c in rows]
        counts = np.repeat(rows, [len(x) for x in u])
        expect = np.concatenate([cdf[c].searchsorted(x, side="right") for c, x in zip(rows, u)])
        u = np.concatenate(u)
        assert len(u) > 0
        assert np.array_equal(draw(counts, u), expect)
        assert (guide[counts * per + (u * per).astype(int)] < 0).any()

    @pytest.mark.parametrize("size", [simulate.THIN_BLOCK - 1, simulate.THIN_BLOCK + 1,
                                      2 * simulate.THIN_BLOCK + 3])
    @pytest.mark.parametrize("thinning", THINNINGS[:2], ids=IDS[:2])
    def test_thin_in_place_matches_thinning_law(self, thinning, size):
        counts = (1, 2, 10, 1000)
        order = np.random.default_rng(size).permutation(size)
        cnt = np.array(counts, dtype=np.int64)[order % len(counts)]
        before = cnt.copy()
        assert simulate._thin(thinning, RngStream(size).generator(), cnt) is None
        assert cnt.dtype == np.int64 and cnt.shape == (size,)
        # every count was thinned where it stands: each class's draws moved
        for i in counts:
            drawn = cnt[before == i]
            assert drawn.min() >= 0
            if isinstance(thinning, BinomialThinning):
                assert drawn.max() <= i
            kmax = 2 * i + 60 if isinstance(thinning, NegativeBinomialThinning) else i
            stat, cells = _binned_chi_square(drawn, _thinning_pmf(thinning, i, kmax))
            assert cells >= 2
            assert stat < _gate(1, cells), (i, stat, cells)

    def test_only_counts_above_cap_reach_draw(self, monkeypatch):
        # counts up to CAP never call draw; above it, one draw per generation
        # with exactly its larger counts, in position order, after every bucket
        # and completion word, and a count above CAP takes no completion word
        calls = []
        draw = BinomialThinning.draw

        def spy_draw(self, gen, x):
            calls.append(x.tolist())
            return draw(self, gen, x)

        monkeypatch.setattr(BinomialThinning, "draw", spy_draw)
        t = BinomialThinning(0.5)
        cnt = np.full(simulate.THIN_BLOCK + 5, self.CAP, np.int64)
        simulate._thin(t, RngStream(1).generator(), cnt)
        assert calls == []
        cnt = np.array([3, self.CAP + 1, 7, 1, 1000, self.CAP], np.int64)
        gen = RngStream(1).generator()
        simulate._thin(t, gen, cnt)
        assert calls == [[self.CAP + 1, 1000]]
        replay = RngStream(1).generator()
        top = simulate._bucket_bits(replay, 6, simulate.PER)
        rows = np.array([3, 0, 7, 1, 0, self.CAP])  # a count above CAP reads row 0
        misses = (t.count_table[1][rows * simulate.PER + top] < 0).sum()
        replay.bit_generator.random_raw(misses)
        assert np.array_equal(cnt[[1, 4]], draw(t, replay, np.array([self.CAP + 1, 1000])))


def _kernel_row(model, i: int, cells: int) -> np.ndarray:
    """Exact P(X_{t+1} = j | X_t = i) for j < cells - 1, then P(X_{t+1} >= cells - 1):
    the thinning pmf of i units convolved with the innovation pmf."""
    thin = _thinning_pmf(model.spec.thinning, i, cells - 2)
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


def _long_table_path(monkeypatch):
    """A 4,000-step path (seed 5) of ginar at theta 1e-3, alpha 0.4, its table
    cut at mass 0.99 (4,093 rows): about one innovation in 16 misses the guide
    and one in 100 lands past the table. Returns the model, the completed
    uniforms by guide width (GUIDE_MAX: innovations, PER: thinning) and the path."""
    model = build_model("ginar", theta=1e-3, alpha=0.4)
    vars(model)["innovation"] = pmf_from_decomposition(model.decomposition, 0.99)
    completed = {GUIDE_MAX: [], simulate.PER: []}
    uniforms = simulate._uniforms

    def recording(gen, top, per):
        completed[per].append(uniforms(gen, top, per))
        return completed[per][-1]

    monkeypatch.setattr(simulate, "_uniforms", recording)
    return model, completed, simulate_series(model, 4000, RngStream(5)).values


class TestTransitionLaw:
    """The sampler's exact oracle: pair counts of one long path against the
    one-step kernel."""

    ROWS, CELLS = 5, 9
    GATE = _gate(ROWS, CELLS)

    # marginal mean 0.375: state 4 sees too few pairs for a cell past 7
    SHAPE = {"hurdle-geo-bin": (4, 8)}

    @pytest.mark.parametrize("name", ["ginar", "nginar", "zmg", "rho-geo-bin",
                                      "hurdle-geo-bin", "rho-geo-nb", "hurdle-geo-nb"])
    def test_pair_counts_match_kernel(self, name):
        # zmg has alpha = 0: the kernel rows are all the innovation law, so
        # this is the test that the path is iid
        rows, cells = self.SHAPE.get(name, (self.ROWS, self.CELLS))
        model = build_model(name, **CANONICAL[name])
        s = simulate_series(model, 1_000_000, RngStream(314))
        stat = _transition_chi_square(model, s.values[:-1], s.values[1:], rows, cells)
        assert stat < _gate(rows, cells), (name, stat, _gate(rows, cells))

    def test_statistic_rejects_wrong_alpha(self):
        model = build_model("ginar", **CANONICAL["ginar"])
        s = simulate_series(model, 1_000_000, RngStream(314))
        wrong = build_model("ginar", theta=CANONICAL["ginar"]["theta"],
                            alpha=0.9 * model.alpha)
        stat = _transition_chi_square(wrong, s.values[:-1], s.values[1:],
                                      self.ROWS, self.CELLS)
        assert stat > self.GATE, stat

    def test_innovation_blocks_do_not_change_the_path(self, monkeypatch):
        # innovations are drawn a block at a time, and the completion words of
        # every block come after all the buckets: the block size must not change
        # a seeded path, also where draws miss the guide or land past the table
        model, completed, whole = _long_table_path(monkeypatch)
        total = model.innovation.sampling_table[0][0, -1]
        u = np.concatenate(completed[GUIDE_MAX])
        assert (u < total).sum() > 100 and (u >= total).sum() > 10
        monkeypatch.setattr(simulate, "BLOCK", 16)
        assert (simulate_series(model, len(whole), RngStream(5)).values == whole).all()

    def test_thin_blocks_do_not_change_the_path(self, monkeypatch):
        # the same for a generation's thinning blocks, with guide misses and
        # counts above CAP
        model, completed, whole = _long_table_path(monkeypatch)
        assert sum(map(len, completed[simulate.PER])) > 100
        assert whole.max() > 10 * simulate.CAP
        monkeypatch.setattr(simulate, "THIN_BLOCK", 16)
        assert (simulate_series(model, len(whole), RngStream(5)).values == whole).all()

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
        monkeypatch.setattr(simulate, "count_table", no_thinning)  # never built
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


class TestSeriesSample:
    def test_built_sample_with_a_negative_count_raises(self):
        model = build_model("ginar", theta=0.5, alpha=0.5)
        with pytest.raises(ValueError, match="negative"):
            SeriesSample(np.array([3, -1, 2], dtype=np.int64), model, RngStream(0), 0)
        for values in ([3, 0, 2], []):
            SeriesSample(np.array(values, dtype=np.int64), model, RngStream(0), 0)

    def test_drawn_sample_skips_the_check(self, monkeypatch):
        # the sampler's paths are nonnegative by construction, so simulate_series
        # builds its sample without the min() pass, thinned or iid
        def checked(self):
            raise AssertionError("a drawn path was checked")

        monkeypatch.setattr(SeriesSample, "__post_init__", checked)
        for name in ("ginar", "zmg"):
            model = build_model(name, **CANONICAL[name])
            s = simulate_series(model, 1000, RngStream(4, 2), burn_in=5)
            assert type(s) is SeriesSample
            assert (s.model, s.seed, s.burn_in, len(s.values)) == (model, RngStream(4, 2), 5, 1000)
            with pytest.raises(dataclasses.FrozenInstanceError):
                s.burn_in = 0

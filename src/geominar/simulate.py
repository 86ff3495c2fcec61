"""Exact trajectory sampling for the catalog models.

The recursion X_t = thin(X_{t-1}) + e_t starts from an exact stationary draw
(X_0 by inverting the marginal's geometric form), so every finite sample is
stationary; burn_in only exists as a cross-check.

Thinning acts on each unit independently, so a path is drawn by generations,
not time steps: generation 0 is X_0 and the innovations, and generation k+1 at
step t+1 is one vector draw thinning the nonzero entries of generation k at t.
With alpha = 0 there is no thinning pass: the path is X_0 and iid innovations.
A generation is thinned THIN_BLOCK entries at a time. In each block the
counts of two or more go through the thinning's draw, then the counts of
one through its draw_single, which spends one uniform per unit: Bernoulli
(alpha) for binomial thinning, and for NB thinning a geometric with mean
alpha, which numpy draws by search for its success probability
1/(1+alpha) > 1/3. Both are the exact law of a thinned single unit, and
single units are 50-73% of the thinned entries at the canonical points.
Seeded paths changed in 0.4.0, when this split came in.

Innovations are drawn by inverse CDF over the pmf table, with the geometric
tail beyond it. The table index comes from a guide table (Chen & Asau),
cached on the InnovationDistribution; it returns exactly the index a binary
search over the CDF returns. The uniforms are drawn BLOCK at a time, and all
blocks of one call reuse one pair of buffers (uniforms, bucket indices),
which draws the same stream as a fresh array per block: BLOCK is not part
of the seeded stream, while THIN_BLOCK is.

Randomness comes from numpy's PCG64 keyed by SeedSequence(seed,
spawn_key=(stream_id,)): the same (seed, stream_id) reproduces the exact
draw sequence, and distinct stream_ids give statistically independent
replicate streams.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import INARModel
from .decompose import InnovationDistribution


@dataclass(frozen=True)
class RngStream:
    """Reproducible stream address: (seed, stream_id) -> PCG64 generator."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class SeriesSample:
    """A simulated trajectory with everything needed to reproduce it."""

    values: np.ndarray
    model: INARModel
    seed: RngStream
    burn_in: int

    def __post_init__(self):
        if len(self.values) and self.values.min() < 0:
            raise ValueError("series contains negative counts")


# uniforms per block of innovation draws: bounds their temporaries, whatever n
BLOCK = 1 << 16
# entries per block of a generation's thinning draws; unlike BLOCK it orders
# the draws, so it is part of the seeded stream and fixed with the version
THIN_BLOCK = 1 << 16


def _geometric_inverse(u: np.ndarray, ratio: float) -> np.ndarray:
    """Quantile of the geometric law on {0,1,...} with failure ratio q."""
    if ratio <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    return np.floor(np.log1p(-u) / np.log(ratio)).astype(np.int64)


def _table_index(d: InnovationDistribution, u: np.ndarray, k: np.ndarray,
                 bucket: np.ndarray) -> None:
    """Write searchsorted(cdf, u, side="right") into k, exactly: the guide
    answers every u whose bucket holds no CDF value, binary search the rest.
    bucket is intp scratch of len(u)."""
    cdf, guide = d.sampling_table
    # the unsafe cast truncates like astype(intp), into the caller's buffer
    np.multiply(u, len(guide), out=bucket, casting="unsafe")
    # u < 1 keeps every bucket index in range, so "clip" never clips; unlike
    # the default "raise" it writes into k without an intermediate buffer
    np.take(guide, bucket, out=k, mode="clip")
    miss = np.flatnonzero(k < 0)
    if miss.size:
        k[miss] = np.searchsorted(cdf, u[miss], side="right")


def _innovation_draws(d: InnovationDistribution, gen: np.random.Generator, size: int) -> np.ndarray:
    """size inverse-CDF draws (pmf table, geometric tail), a block of uniforms
    at a time; every block reuses one pair of buffers."""
    total = d.sampling_table[0][-1]
    out = np.empty(size, dtype=np.int64)
    ubuf = np.empty(min(BLOCK, size))
    bucket = np.empty(len(ubuf), dtype=np.intp)
    for start in range(0, size, BLOCK):
        m = min(BLOCK, size - start)
        u = gen.random(out=ubuf[:m])  # the same stream as gen.random(m)
        k = out[start:start + m]
        _table_index(d, u, k, bucket[:m])
        if k.max() > d.truncation:
            beyond = k > d.truncation
            terms = d.decomposition.terms  # sorted by root: the tail term (rho, s) first
            if not terms or terms[0][0] <= 0.0 or not np.isfinite(terms[0][1]):
                k[beyond] = d.truncation
            else:
                # residual mass beyond the table is geometric with ratio 1/s
                v = (u[beyond] - total) / max(1.0 - total, 1e-300)
                v = np.clip(v, 0.0, 1.0 - 1e-16)
                k[beyond] = d.truncation + 1 + _geometric_inverse(v, 1.0 / terms[0][1])
    return out


def sample_innovation(d: InnovationDistribution, rng: RngStream | np.random.Generator) -> int:
    """One inverse-CDF draw from the innovation law."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return int(_innovation_draws(d, gen, 1)[0])


def _sample_marginal(model: INARModel, gen: np.random.Generator) -> int:
    m = model.spec.marginal
    if m is None:
        return int(_innovation_draws(model.innovation, gen, 1)[0])
    atom, body, shift, ratio = m.geometric_form()
    u = gen.random()
    if u < atom:
        return 0
    return shift + int(_geometric_inverse(np.array([(u - atom) / body]), ratio)[0])


def _thin(thinning, gen: np.random.Generator, cnt: np.ndarray) -> None:
    """Thin the positive counts cnt in place, THIN_BLOCK entries at a time: in
    each block the counts >= 2 through thinning.draw, then the single units
    through thinning.draw_single, one uniform each."""
    for start in range(0, cnt.size, THIN_BLOCK):
        c = cnt[start:start + THIN_BLOCK]
        # positions, not masks, as for kept in simulate_series: faster here too
        one = c == 1
        single, many = np.flatnonzero(one), np.flatnonzero(~one)
        if many.size:  # an empty draw still pays numpy's fixed cost per call
            c[many] = thinning.draw(gen, c[many])
        c[single] = thinning.draw_single(gen, single.size)


def simulate_series(model: INARModel, n: int, seed: RngStream,
                    burn_in: int = 0) -> SeriesSample:
    """Simulate X_0..X_{n-1} from an exact stationary start, by generations
    (see the module docstring). Identical (model, n, seed, burn_in)
    arguments reproduce the series bit for bit.
    """
    if n < 1:
        raise ValueError(f"series length must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    gen = seed.generator()
    total = n + burn_in
    out = _innovation_draws(model.innovation, gen, total)
    out[0] = _sample_marginal(model, gen)
    if model.alpha == 0.0:
        # thinning by zero leaves no offspring: the path is X_0 and iid innovations
        return SeriesSample(out[burn_in:], model, seed, burn_in)
    # generation 0 is out itself; the last step has no successor
    idx = np.flatnonzero(out[:-1] != 0)  # faster than on the int64 values
    cnt = out[idx]
    while idx.size:
        idx += 1
        _thin(model.spec.thinning, gen, cnt)
        # positions once, then one gather each: faster than a boolean mask at
        # every size; rebinding idx before cnt[kept] frees the old idx first
        kept = (cnt > 0).nonzero()[0]
        idx = idx[kept]
        cnt = cnt[kept]
        # indices are unique within a generation, so this equals out[idx] += cnt
        np.add.at(out, idx, cnt)
        if idx.size and idx[-1] == total - 1:
            # idx is sorted, so only its last entry can sit on the last step
            idx, cnt = idx[:-1], cnt[:-1]
    return SeriesSample(out[burn_in:], model, seed, burn_in)

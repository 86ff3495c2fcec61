"""Exact trajectory sampling for the catalog models.

The recursion X_t = thin(X_{t-1}) + e_t starts from an exact stationary draw
(X_0 by inverting the marginal's geometric form), so every finite sample is
stationary; burn_in only exists as a cross-check.

Thinning acts on each unit independently, so a path is drawn by generations,
not time steps: generation 0 is X_0 and the innovations, and generation k+1 at
step t+1 is one vector draw thinning the nonzero entries of generation k at t.
With alpha = 0 there is no thinning pass: the path is X_0 and iid innovations.
A generation is thinned THIN_BLOCK entries at a time, one uniform u per
entry, by inversion: a count c <= CAP becomes the least k with u < F_c(k),
F_c the exact CDF of the thinned count of c units, built once per thinning
from the ratio of its successive cells. Counts above CAP, which no canonical
path reaches, go through the thinning's draw. Seeded paths changed in 0.5.0,
when this inversion came in, and in 0.4.0.

Innovations are drawn by inverse CDF over the pmf table, with the geometric
tail beyond it, BLOCK uniforms at a time into one pair of buffers (uniforms,
bucket indices), which draws the same stream as a fresh array per block:
BLOCK is not part of the seeded stream, while THIN_BLOCK is.

Both inversions read CDF rows with a guide (Chen & Asau; Devroye 1986,
III.2-3), built by _guided and read by _guided_lookup, which returns exactly
what a binary search of the row returns: the thinning caches its CAP + 1
rows, the InnovationDistribution its table's one row, searched as reals.

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
# most guide buckets of an innovation table (a power of two): bounds the
# guide, like BLOCK bounds the draws, whatever the pmf table length
GUIDE_MAX = 1 << 16
# entries per block of a generation's thinning draws, the largest count thinned
# through the table and its guide buckets per row (a power of two, so u * PER
# is exact); unlike BLOCK they order the draws, so they are part of the seeded
# stream and fixed with the version
THIN_BLOCK = 1 << 16
CAP = 32
PER = 256


def _geometric_inverse(u: np.ndarray, ratio: float) -> np.ndarray:
    """Quantile of the geometric law on {0,1,...} with failure ratio q."""
    if ratio <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    return np.floor(np.log1p(-u) / np.log(ratio)).astype(np.int64)


def _innovation_draws(d: InnovationDistribution, gen: np.random.Generator, size: int) -> np.ndarray:
    """size inverse-CDF draws (pmf table, geometric tail), a block of uniforms
    at a time; every block reuses one pair of buffers."""
    table = d.sampling_table
    cdf, guide, _ = table
    total, per = cdf[0, -1], len(guide)
    out = np.empty(size, dtype=np.int64)
    ubuf = np.empty(min(BLOCK, size))
    bucket = np.empty(len(ubuf), dtype=np.intp)
    for start in range(0, size, BLOCK):
        m = min(BLOCK, size - start)
        u = gen.random(out=ubuf[:m])  # the same stream as gen.random(m)
        k = out[start:start + m]
        # the unsafe cast truncates like astype(intp), into the buffer
        key = np.multiply(u, per, out=bucket[:m], casting="unsafe")
        _guided_lookup(table, u, key, k)
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


def count_table(thinning) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The guided CDF rows of the thinned counts of c = 0..CAP units, which
    the thinning caches as its count_table.

    Row c of the (CAP + 1, W) cdf, W = thinning.count_width(CAP), is the CDF
    of the thinned count of c units over k = 0..W-1, divided by its last
    column, which is then 1.0. Its cells come from thinning.count_ratio r,
    which falls with k, outwards from the row's mode, where the cell is 1:
    cell k is prod_{j<k} min(r_j, 1) / prod_{j>=k} max(r_j, 1). So no cell
    is above 1, and none is started from a cell that underflows, as
    (1 - alpha)^c can.
    """
    c = np.arange(CAP + 1)[:, None]
    # in extended precision where numpy has it (the ratio's arithmetic follows
    # c and k), so that each CDF value is within about one ulp of exact
    k = np.arange(thinning.count_width(CAP), dtype=np.longdouble)
    ratio = thinning.count_ratio(c.astype(np.longdouble), k)
    cells = np.ones_like(ratio)
    np.cumprod(np.minimum(ratio[:, :-1], 1.0), axis=1, out=cells[:, 1:])
    # the mode is at most c, so the cells below it lie in the first CAP + 1 columns
    low = 1.0 / np.maximum(ratio[:, CAP::-1], 1.0)
    cells[:, :CAP + 1] *= np.cumprod(low, axis=1)[:, ::-1]
    cdf = np.cumsum(cells, axis=1)
    return _guided((cdf / cdf[:, -1:]).astype(float), PER)


def sampling_table(d: InnovationDistribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The guided CDF of d's T + 1 pmf rows as one row (d.sampling_table), with
    the smallest power of two >= 4 (T + 1) buckets, at most GUIDE_MAX."""
    cdf = np.cumsum(d.pmf_table)[None, :]
    return _guided(cdf, min(GUIDE_MAX, 1 << (4 * cdf.size - 1).bit_length()))


def _guided(cdf: np.ndarray, per: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cdf, guide, keys) over the nondecreasing CDF rows cdf, each ending
    below 1 + 1/per, with per (a power of two) guide buckets per row.

    guide[c * per + b] is searchsorted(cdf[c], u, side="right") for every u
    in [b/per, (b+1)/per) when no value of row c lies inside that bucket,
    and -1 when one does; scaling by per is exact, so the counts are.
    keys holds c + 1j * cdf[c, k] flat: numpy orders complex numbers by
    real, then imaginary part, so a search of c + 1j * u there stays within
    row c.
    """
    rows, width = cdf.shape
    c = np.arange(rows)[:, None]
    # per row, #{cdf < (b+1)/per} for b = 0..per over the flat buckets
    # floor(cdf * per) (cdf >= 0), less the cells of the rows before
    scaled = cdf * per
    bucket = scaled.astype(np.intp)
    flat = (bucket + c * (per + 1)).ravel()
    guide = np.bincount(flat, minlength=rows * (per + 1)).cumsum() - (c * width).repeat(per + 1)
    guide[flat[(scaled != bucket).ravel()]] = -1  # a value inside bucket b
    guide = guide.reshape(rows, per + 1)[:, :per].ravel()
    keys = (c + 1j * cdf).ravel()  # exact: 1j * x is 0 + x j
    cdf.flags.writeable = guide.flags.writeable = keys.flags.writeable = False
    return cdf, guide, keys


def _guided_lookup(table, u: np.ndarray, key: np.ndarray, out: np.ndarray) -> None:
    """Write searchsorted(cdf[c], u, side="right") into out, exactly, for the
    uniforms u of rows c, given their bucket keys c * per + floor(u * per),
    in the guided table (cdf, guide, keys) of _guided: the guide answers
    every u whose bucket holds no value of its row, a search of keys the rest
    (of the row itself, for a table of one row)."""
    cdf, guide, keys = table
    # "clip" clips only _thin's counts above CAP, which it overwrites; unlike
    # the default "raise" it writes into out without an intermediate buffer
    np.take(guide, key, out=out, mode="clip")
    miss = np.flatnonzero(out < 0)
    if miss.size and len(cdf) == 1:  # a real search takes about half the complex one's time
        out[miss] = cdf[0].searchsorted(u[miss], side="right")
    elif miss.size:
        row = key[miss] // (len(guide) // len(cdf))
        out[miss] = keys.searchsorted(row + 1j * u[miss], side="right") - row * cdf.shape[1]


def _thin(thinning, gen: np.random.Generator, cnt: np.ndarray) -> None:
    """Thin the positive counts cnt in place, THIN_BLOCK entries at a time, one
    uniform u per entry: a count c <= CAP becomes searchsorted(cdf[c], u,
    side="right"), looked up at the key c * PER + floor(u * PER); a count
    above CAP reads a clipped bucket and is then overwritten by
    thinning.draw. The blocks share buffers."""
    table = thinning.count_table
    ubuf = np.empty(min(THIN_BLOCK, cnt.size))
    kbuf, bbuf = np.empty(len(ubuf), dtype=np.intp), np.empty(len(ubuf), dtype=np.intp)
    for start in range(0, cnt.size, THIN_BLOCK):
        c = cnt[start:start + THIN_BLOCK]
        u, key, bucket = gen.random(out=ubuf[:c.size]), kbuf[:c.size], bbuf[:c.size]
        above = np.flatnonzero(c > CAP)
        larger = c[above]
        np.multiply(c, PER, out=key)
        key += np.multiply(u, PER, out=bucket, casting="unsafe")
        _guided_lookup(table, u, key, c)
        if above.size:  # an empty draw still pays numpy's fixed cost per call
            c[above] = thinning.draw(gen, larger)


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

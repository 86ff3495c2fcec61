"""Exact trajectory sampling for the catalog models.

The recursion X_t = thin(X_{t-1}) + e_t starts from an exact stationary draw
(X_0 by inverting the marginal's geometric form), so every finite sample is
stationary; burn_in only exists as a cross-check.

Thinning acts on each unit independently, so a path is drawn by generations,
not time steps: generation 0 is X_0 and the innovations, and generation k+1 at
step t+1 is one vector draw thinning the nonzero entries of generation k at t.
With alpha = 0 there is no thinning pass: the path is X_0 and iid innovations.
Each draw inverts a CDF row at a 53-bit uniform u: the exact CDF of the
thinned count of c <= CAP units (counts above CAP, which no canonical path
reaches, go through the thinning's draw), or the innovation pmf table's, with
the geometric tail past it. The rows are read through guides (Chen & Asau;
Devroye 1986, III.2-3) built by _guided, PER buckets per count row and
GUIDE_MAX for the innovation row, so a draw first takes only its bucket, the
top 8 or 16 bits of u, packed 8 or 4 to a raw word (_bucket_bits). Only where
the bucket holds a CDF value, or lies past the innovation table, does it draw
the rest of u from one more word (_uniforms) and search its row. One call
draws every bucket word, then the completion words, then (thinning) the
counts above CAP, each in position order: BLOCK and THIN_BLOCK bound the
temporaries and split no word, so they are not part of the seeded stream.
Seeded paths changed in 0.4.0, 0.5.0 and 0.6.0; the law did not. The
generation loop keeps each lineage's origin, the step of its generation-0
count: generation g lives g steps later, so it is added to out[g:] at the
origins and no index is shifted per generation. The sampler's paths are
nonnegative by construction, so simulate_series builds its SeriesSample
without the check that a SeriesSample built by a caller gets.

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
    """A simulated trajectory with everything needed to reproduce it.

    A SeriesSample built by a caller is checked: a negative count raises
    ValueError. simulate_series builds its own through _drawn, without that
    pass over the path, whose counts are nonnegative by construction.
    """

    values: np.ndarray
    model: INARModel
    seed: RngStream
    burn_in: int

    def __post_init__(self):
        if len(self.values) and self.values.min() < 0:
            raise ValueError("series contains negative counts")


def _drawn(values: np.ndarray, model: INARModel, seed: RngStream, burn_in: int) -> SeriesSample:
    """The SeriesSample of a path this module drew, without __post_init__'s min() pass."""
    sample = object.__new__(SeriesSample)
    vars(sample).update(values=values, model=model, seed=seed, burn_in=burn_in)
    return sample


# innovation draws per block, bounding their temporaries whatever n, and the
# buckets of every innovation guide (16 bits of a raw word), whatever its length
BLOCK = 1 << 16
GUIDE_MAX = 1 << 16
# entries per block of a generation's thinning, the largest count thinned
# through the table and its guide buckets per row (8 bits of a raw word); the
# blocks split no word, so only CAP, PER and GUIDE_MAX order the seeded stream
THIN_BLOCK = 1 << 16
CAP = 32
PER = 256


def _geometric_inverse(u: np.ndarray, ratio: float) -> np.ndarray:
    """Quantile of the geometric law on {0,1,...} with failure ratio q."""
    if ratio <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    return np.floor(np.log1p(-u) / np.log(ratio)).astype(np.int64)


def _bucket_bits(gen: np.random.Generator, size: int, per: int) -> np.ndarray:
    """size bucket indices below per (2^8 or 2^16), packed 64 / log2(per) to a
    raw word of gen, each word read from its lowest bits up on every platform."""
    bits = per.bit_length() - 1
    words = gen.bit_generator.random_raw(-(-size * bits // 64))
    return words.astype("<u8", copy=False).view(f"<u{bits // 8}")[:size]


def _uniforms(gen: np.random.Generator, top: np.ndarray, per: int) -> np.ndarray:
    """The 53-bit uniforms u with floor(u * per) = top, per = 2^bits, each
    completed from the top 53 - bits bits of one more raw word of gen."""
    bits = per.bit_length() - 1
    w = gen.bit_generator.random_raw(top.size)
    return ((top.astype(np.uint64) << (53 - bits)) | (w >> (11 + bits))) * 2.0**-53


def _innovation_draws(d: InnovationDistribution, gen: np.random.Generator, size: int) -> np.ndarray:
    """size inverse-CDF draws (pmf table, geometric tail), BLOCK at a time: each
    takes its bucket from 16 bits of a raw word and, where that holds a CDF
    value or lies past the table, the rest of its uniform after all buckets."""
    cdf, guide, _ = d.sampling_table
    out = np.empty(size, dtype=np.int64)
    bbuf = np.empty(min(BLOCK, size), dtype=np.intp)
    miss, top = [], []
    for start in range(0, size, BLOCK):
        k = out[start:start + BLOCK]
        # take casts 16-bit indices more slowly than one copy into intp does
        b = bbuf[:k.size]
        b[...] = _bucket_bits(gen, k.size, GUIDE_MAX)
        # "clip" writes into k without the intermediate buffer of "raise"
        np.take(guide, b, out=k, mode="clip")
        # a miss (-1) and an index past the table (T + 1) both exceed T unsigned
        at = np.flatnonzero(k.view(np.uint64) > d.truncation)
        if at.size:
            miss.append(at + start)
            top.append(b[at])
    terms = d.decomposition.terms  # sorted by root: the tail term (rho, s) first
    for at, b in zip(miss, top):  # a block's worth at a time: small temporaries
        u = _uniforms(gen, b, GUIDE_MAX)
        k = cdf[0].searchsorted(u, side="right")
        beyond = k > d.truncation
        if not terms or terms[0][0] <= 0.0 or not np.isfinite(terms[0][1]):
            k[beyond] = d.truncation
        else:
            # residual mass beyond the table is geometric with ratio 1/s
            total = cdf[0, -1]
            v = (u[beyond] - total) / max(1.0 - total, 1e-300)
            v = np.clip(v, 0.0, 1.0 - 1e-16)
            k[beyond] = d.truncation + 1 + _geometric_inverse(v, 1.0 / terms[0][1])
        out[at] = k
    return out


def sample_innovation(d: InnovationDistribution, rng: RngStream | np.random.Generator) -> int:
    """One inverse-CDF draw from the innovation law."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return int(_innovation_draws(d, gen, 1)[0])


def _sample_marginal(model: INARModel, gen: np.random.Generator) -> int:
    m = model.spec.marginal
    if m is None:
        return int(_innovation_draws(model.innovation, gen, 1)[0])
    atom, body, shift, ratio, _ = m.geometric_form()
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
    GUIDE_MAX buckets."""
    return _guided(np.cumsum(d.pmf_table)[None, :], GUIDE_MAX)


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
    # bucket[c, k] = floor(cdf[c, k] * per) (cdf >= 0): row c gives k on the
    # buckets from bucket[c, k - 1] (0 for k = 0) up to bucket[c, k] (per for
    # k = width), one run of each k, so every row has per entries
    scaled = cdf * per
    bucket = scaled.astype(np.intp)
    runs = np.diff(bucket, prepend=0, append=per, axis=1)
    guide = np.repeat(np.tile(np.arange(width + 1), rows), runs.ravel())
    # a value inside bucket b (bucket == per only past a row's end, 1.0 or above)
    inside = (scaled != bucket) & (bucket < per)
    guide[(bucket + c * per)[inside]] = -1
    keys = (c + 1j * cdf).ravel()  # exact: 1j * x is 0 + x j
    cdf.flags.writeable = guide.flags.writeable = keys.flags.writeable = False
    return cdf, guide, keys


def _thin(thinning, gen: np.random.Generator, cnt: np.ndarray) -> None:
    """Thin the positive counts cnt in place, THIN_BLOCK at a time: a count
    c <= CAP becomes searchsorted(cdf[c], u, side="right"), u a 53-bit uniform
    whose bucket c * PER + b (b from 8 bits of a raw word) gives it unless it
    holds a CDF value; then one thinning.draw of the counts above CAP."""
    cdf, guide, keys = thinning.count_table
    above = np.flatnonzero(cnt > CAP)
    larger = cnt[above]
    cnt[above] = 0  # row 0 reads 0 from every bucket, never a miss
    kbuf = np.empty(min(THIN_BLOCK, cnt.size), dtype=np.intp)
    miss, top = [], []
    for start in range(0, cnt.size, THIN_BLOCK):
        c = cnt[start:start + THIN_BLOCK]
        key = np.multiply(c, PER, out=kbuf[:c.size])
        key += _bucket_bits(gen, c.size, PER)
        np.take(guide, key, out=c, mode="clip")
        at = np.flatnonzero(c < 0)
        if at.size:
            miss.append(at + start)
            top.append(key[at])
    for at, key in zip(miss, top):  # after every bucket, in position order
        row = key // PER
        u = _uniforms(gen, key % PER, PER)
        # complex keys c + 1j * cdf[c, k]: the search stays within row c
        cnt[at] = keys.searchsorted(row + 1j * u, side="right") - row * cdf.shape[1]
    if above.size:  # an empty draw still pays numpy's fixed cost per call
        cnt[above] = thinning.draw(gen, larger)


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
        return _drawn(out[burn_in:], model, seed, burn_in)
    # generation 0 is out itself; the last step has no successor. idx holds
    # each lineage's origin, and generation g sits at idx + g, in out[g:]
    idx = np.flatnonzero(out[:-1] != 0)  # faster than on the int64 values
    cnt = out[idx]
    g = 0
    while idx.size:
        g += 1
        _thin(model.spec.thinning, gen, cnt)
        # positions once, then one gather each: faster than a boolean mask at
        # every size; rebinding idx before cnt[kept] frees the old idx first
        kept = (cnt > 0).nonzero()[0]
        idx = idx[kept]
        cnt = cnt[kept]
        # origins are unique within a generation, so this equals out[g:][idx] += cnt
        np.add.at(out[g:], idx, cnt)
        if idx.size and idx[-1] == total - 1 - g:
            # idx is sorted, so only its last entry can sit on the last step
            idx, cnt = idx[:-1], cnt[:-1]
    return _drawn(out[burn_in:], model, seed, burn_in)

"""Golden digests pinning the seeded and printed output of version 0.7.0.

The determinism tests elsewhere compare two runs of the same code; these
compare against sha256 digests, so any change to the drawn values shows here.
A change to the sampler algorithm that moves a single drawn value must update
these digests and bump the version (see the README's numerical conventions).
The series digests (SERIES, ACROSS_BLOCKS, WIDE_TABLE, SHORT_TABLE) were
recorded from the 0.2.0 sampler and held unchanged through 0.3.3. VERIFY, DERIVE
and REFUSAL were re-recorded in 0.3.0, where every family's innovation law
comes from partial fractions: pmf rows moved by at most 2.3e-13, every family
prints its hurdle view and verify checks it. They were re-recorded again in
0.3.1, where the innovation moments come from the stationarity identity
(they moved by at most 2.1e-13 relative, nothing else that derive prints
moved) and verify's variance gate adds the sample mean's error to its
tolerance, and again in 0.3.2, where every innovation law comes from root
offsets computed from the parameters (at the grid and canonical points
printed pmf rows moved by at most 6.6e-14 relative; six of the eight
VERIFY digests moved, and no pass/fail flag). REFUSAL was re-recorded
once more within 0.3.2, where every parameter bound reports its signed
distance: 23 runs refused for a negative alpha or rho now print that value
as the margin, and nothing else moved. Four VERIFY digests were re-recorded
in 0.3.3, where verify evaluates the marginal and counting pgfs from their
parameters instead of from normalised rational functions; only the
pgf_identity_max_abs_deviation line moved (observed, old -> new):
hurdle-geo-bin 4.440892098500626e-16 -> 3.3306690738754696e-16,
hurdle-geo-nb 2.220446049250313e-16 -> 3.3306690738754696e-16,
nginar 2.220446049250313e-16 -> 3.3306690738754696e-16 and
rho-geo-nb 3.3306690738754696e-16 -> 5.551115123125783e-16, all against a
tolerance of 1e-10, with no pass/fail flag changed. The 0.4.0 sampler
thins each single unit with one draw (simulate._thin), a block of
THIN_BLOCK entries at a time, so every thinned path moved: the series
digests of the six thinned families (the zmg and two-param paths, with
alpha = 0, and the paths of one or two steps did not move), WIDE_TABLE,
SHORT_TABLE and the six thinned VERIFY digests were re-recorded, and only
the four empirical lines of each VERIFY run moved, with no pass/fail flag
changed. ACROSS_THIN_BLOCKS was added in 0.4.0. DERIVE, REFUSAL and CATALOG
were re-recorded in 0.4.1, where pmf nonnegativity is decided exactly from
a few pmf values and the residue signs: the constraint `innovation pmf
nonnegative (numeric)` became `innovation pmf nonnegative`, and only its
label and margin moved (in the 51 REFUSAL runs that it refuses, only the
label). No exit code moved. The 0.5.0 sampler thins every count up to
simulate.CAP with one uniform, by inversion over exact CDF rows through a
guide table, so every thinned path moved again: the series digests of the
six thinned families, ACROSS_THIN_BLOCKS, WIDE_TABLE, SHORT_TABLE (still
equal to ACROSS_BLOCKS ginar) and the six thinned VERIFY digests were
re-recorded, and only the four empirical lines of each VERIFY run moved,
with no pass/fail flag changed. For small counts and alpha <= 0.5,
numpy's binomial draw inverts one uniform per entry too, so the
binomial-thinned series and VERIFY digests are again those of 0.3.3. DERIVE, REFUSAL and CATALOG
were re-recorded in 0.5.0 too, where the constraint `dominant tail weight
w1 >= 0`, implied by `innovation pmf nonnegative`, was dropped: it left
the constraint lists of the rho and hurdle families, the 24 REFUSAL runs
that it refused first are now refused by `innovation pmf nonnegative`
with the same margin, and no exit code, pmf row or other printed byte
moved. The 0.6.0 sampler reads each draw's guide bucket from 8 (thinning) or
16 (innovations) bits of a raw word shared with other draws, and draws the
rest of the uniform from one more word only where the bucket holds a CDF
value or lies past the innovation table, after all the buckets; the law is
unchanged, but every seeded path with a draw moved, those with alpha = 0
too: all of SERIES but the two one-step paths without burn-in, whose one
value is the stationary start, still drawn from the stream's second word,
ACROSS_BLOCKS, ACROSS_THIN_BLOCKS, WIDE_TABLE, SHORT_TABLE and all
eight VERIFY digests were re-recorded, and only the four empirical lines of
each VERIFY run moved, with no pass/fail flag changed. SHORT_TABLE no longer
equals ACROSS_BLOCKS ginar: a draw past the short table takes a completion
word where the full table's guide may not. DERIVE, REFUSAL and CATALOG pass
unedited. In 0.6.1 verify forms the sample statistics from exact integer
sums of the path, each correctly rounded, so all eight VERIFY digests were
re-recorded: only the marginal_var_empirical,
marginal_dispersion_empirical and lag1_autocorrelation_empirical lines
moved, in their last digits (hurdle-geo-nb's lag-1 line did not), with no
pass/fail flag changed; marginal_mean_empirical and every other digest did
not move. DERIVE, REFUSAL and CATALOG were re-recorded in 0.6.2, where the
pole-rounding refusal became the declared constraint `poles s = 1 + t > 1
in double precision`: every family lists it before `innovation pmf
nonnegative`, and every accepted run prints it; no golden point
violates it. The nonnegativity margin now reads the decomposition's own
rows, and moved in its last digits at four accepted points (hurdle-geo-nb
at mu 0.8, rho 0.8, alpha 0.2 in DERIVE, and three in REFUSAL). No exit
code, pmf row or stderr line moved. CATALOG pins the `geominar catalog`
listing. In 0.6.3 verify reads every law's moments in closed form from its
parts (decompose.central_moments) instead of summing pmf rows, so seven
VERIFY digests (all but ginar) were re-recorded: only the *_pmf_vs_closed
observed values and the tolerances of the variance and dispersion gates,
which read m2, m3 and m4, moved, in their last digits, with no pass/fail
flag changed; every other digest did not move. The 0.7.0 sampler draws a
path in time blocks of simulate.SPAN steps, each block's innovations and
generations before the next block's, its first step thinning the last
count of the block before: a path of at most SPAN steps (burn-in included)
is drawn as before, so only ACROSS_THIN_BLOCKS moved, and it was re-pinned
at larger-mean points whose first generation still crosses a THIN_BLOCK
boundary within one time block; ACROSS_SPANS was added, and every other
digest passes unedited.
tests/golden_points.py lists the runs behind each of these four digests
one by one. The digests were recorded with numpy 2.4.6; numpy does
not promise that Generator streams stay the same across its releases, so a
failure after a numpy upgrade alone means the dependency moved, not this
code.
"""
import hashlib
import json
import math
import random

import pytest

from geominar import __version__
from geominar.catalog import build_model
from geominar.cli import main
from geominar.decompose import pmf_from_decomposition
from geominar import simulate
from geominar.simulate import BLOCK, SPAN, THIN_BLOCK, RngStream, simulate_series

from grids import CANONICAL, GRIDS
from oracles import oracle_pmf

# (model, n, burn_in) -> sha256 of simulate_series(...).values.tobytes(), seed 5
SERIES = {
    ("ginar", 20000, 0): "63349ce395ce694d5817be6e699391e31241029643946ebd55b0ad37118f4ad4",
    ("nginar", 20000, 0): "7c1fbcd79ca1c45f5e897d734c2081ae11ed304a8569b8ecd6ef69fe385956c7",
    ("zmg", 20000, 0): "99a1d359bd4cf4773d74d5ebd2bcc38162ef30cfad5fcc889a6700bfbb24a6cf",
    ("two-param", 20000, 0): "4e2dd68adb969057a502c7c88c8e0852345a4f388a3d77c970a4d1148d7d269d",
    ("rho-geo-bin", 20000, 0): "c1c311f3a9629fce288e0e770a0eb490d96bdea0eb4ecaca7d83745f3441a6bf",
    ("hurdle-geo-bin", 20000, 0): "39afcddec21f9f7ce89bd37ea936e97f6004e6d256370e511148ecab4aa30c7f",
    ("rho-geo-nb", 20000, 0): "f6c91a8858c2b8f13e7e5c97a3650507ae65383d5af52d8b7a56073c82cd3926",
    ("hurdle-geo-nb", 20000, 0): "dd1d1930689a31121420d95c333101c781bfd336a303e522aa591393a142c57e",
    ("ginar", 1, 0): "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
    ("ginar", 1, 7): "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
    ("ginar", 2, 0): "b1535c7783ea8829b6b0cf67704539798b4d16c39bf0bfe09494c5d9f12eee30",
    ("ginar", 2, 7): "0fb84472ffe2b1591c692c9d25d94d8c28050b69e42dfc3823eb373446684311",
    ("nginar", 1, 0): "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
    ("nginar", 1, 7): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    ("nginar", 2, 0): "b1535c7783ea8829b6b0cf67704539798b4d16c39bf0bfe09494c5d9f12eee30",
    ("nginar", 2, 7): "8576369844afdb7e80fea2849c13f95a3aa34dcd953dd05b467b403690a5a884",
}

# Paths longer than one innovation block (BLOCK = 65,536 uniforms), burn_in 3,
# seed 5: these pin the block boundaries, which the 20,000-step paths above
# never cross. (model, n) -> sha256 of simulate_series(...).values.tobytes()
ACROSS_BLOCKS = {
    ("ginar", 2 * BLOCK + 3): "c89beed7f3b5ec245ebb5ed4891169718d116a44d89d55eb03057eff454fc99d",
    ("nginar", 2 * BLOCK + 3): "373dbdca18de7c429839cef45781eebccbccf628768890d371888eebf8ebe99c",
    ("zmg", 2 * BLOCK + 3): "f893fcf2f7daa555798faaec6519e23c3dd300fa48eef4171cbc4d3068b8d57b",
    ("two-param", 2 * BLOCK + 3): "02191b9853341a66df2dc8688031a7ffaa57fa4f8d39e227a891acc53f12e5a9",
    ("rho-geo-bin", 2 * BLOCK + 3): "dd33abc5d7af278f899b7ba24c3469a01b00fa9971741ad4efe7148a790664d8",
    ("hurdle-geo-bin", 2 * BLOCK + 3): "3dfd6418af631360614cbe240b579496c1ad542ec46bcbed2160d2beed20e4b7",
    ("rho-geo-nb", 2 * BLOCK + 3): "a250ea4b8af2147069c01025740694a45814bfe41a2884216475583662801461",
    ("hurdle-geo-nb", 2 * BLOCK + 3): "274a2b3146bec82e26e403740f06345ad012fab62b5382a14e7faddc387396f1",
}

# ginar theta=1e-4 alpha=0.5: a 262,564-row table, where the guide leaves many
# buckets to binary search; n = BLOCK + 1, burn_in 3, seed 5
WIDE_TABLE = "bfeee507a5d5b882bf9d9b0f8db7361e78bea0ba9244044b6e85a8d4b2ff4ed6"

# canonical ginar with its table cut at mass 0.999, so that about one draw in
# a thousand lands beyond the table and takes the geometric tail, in both
# full blocks; n = 2 * BLOCK + 3, burn_in 3, seed 5. The tail continues the
# law exactly, but a draw past the table completes its uniform from one more
# word, so the path is not the full-table one (ACROSS_BLOCKS ginar).
SHORT_TABLE = "04fe0b7a27f49e5ad5ae70e437f5eade9bd5acbd8e9c7ece25728742289c2435"

# Paths whose first generation of thinning draws holds more than one block
# of THIN_BLOCK = 65,536 entries (about 89k for ginar, 105k for nginar, so
# both thinnings cross a block boundary), in one time block (n + burn_in <=
# SPAN), burn_in 3, seed 5. The canonical points leave too few nonzero steps
# for that in one time block, so these points have larger means.
# (model, n) -> sha256 of simulate_series(...).values.tobytes()
THIN_POINTS = {"ginar": {"theta": 0.1, "alpha": 0.5}, "nginar": {"mu": 4.0, "alpha": 0.5}}
ACROSS_THIN_BLOCKS = {
    ("ginar", 3 * THIN_BLOCK + 3): "8c106cd66c28457364951f84c0a065e680163945ed1abf42c36856445058e966",
    ("nginar", 3 * THIN_BLOCK + 3): "ef113f2b9baa1208d44ddadcc7f45ed2c5e8915395baa8d256b99bec75477f58",
}

# Paths of three time blocks of SPAN steps (the last of 6 steps), burn_in 3,
# seed 5: these pin the carry of the last count from block to block, which
# the shorter paths above, each one time block, never draw.
# (model, n) -> sha256 of simulate_series(...).values.tobytes()
ACROSS_SPANS = {
    ("ginar", 2 * SPAN + 3): "d0b39d8bc061913e5e8274d335363ea24a84b83f08683d1024f3b66f42e086d2",
    ("nginar", 2 * SPAN + 3): "81f77c4b64fbdc4b41f7de6e9b52454b6ed09004b775dd5a1ffdbc7da1377968",
    ("zmg", 2 * SPAN + 3): "8e65485449c364ebf79bc56498ea3df96458b8d49a3f0360831ca9a87a9f04ac",
    ("two-param", 2 * SPAN + 3): "143dffd777e2bf115cafa2bad28b2ff3fd0f3f2c8d38e654acd4aa07c6b66887",
    ("rho-geo-bin", 2 * SPAN + 3): "698bfe1c21663867a502ca621b737349a58541a0ffae8a7cb03670f274348b7d",
    ("hurdle-geo-bin", 2 * SPAN + 3): "f406ac5e549e11fc6f8d0432ee276ac56db499a00ac81516103b03a1c6c70fe5",
    ("rho-geo-nb", 2 * SPAN + 3): "ebe38f4bcb815bfb0a3178df5a87c3b329c0e1e4893ff7b8c2977da7df4ebb51",
    ("hurdle-geo-nb", 2 * SPAN + 3): "7f562ba0c0dc64b96f004385aa77a45e565aa859619a76ddce1c8be24432118b",
}

# model -> sha256 of `geominar verify <model> <CANONICAL flags> --n 20000 --seed 5` stdout
VERIFY = {
    "ginar": "d285223660f4be489e9e0092acf8f7673ddd1546cde89ddc0abe0df63fbb471f",
    "nginar": "2b9bb81e2c9c1fd1a6d4f5f442e5cd1030655ec7296b38838e1df8c850330212",
    "zmg": "288beb7f48670b840beda9eb5f0b3fb9fcae0a024430cae6c01a475d250bcb75",
    "two-param": "21797d1110ef8db7c0ac9f88de35aeffdf4d13c165107ac3b137c1f87fb44448",
    "rho-geo-bin": "2d954704231116a7aa71ab846699de2fea1f4fb42cb8e06d57954caedd776594",
    "hurdle-geo-bin": "4cf293d094af09ca0de8af4fdcd9859efcb09cbc10b800a79527691aafc12a6b",
    "rho-geo-nb": "f6ec2fcb131b06780f996b262a41b9a98bcc4f57732582af81a32c8fac158b5c",
    "hurdle-geo-nb": "1869755caff1bfb6e6477733fa727c8c0845a6c56f08359d576f7c0d3b7bf5a7",
}

# sha256 over `geominar derive` at the 220 grid and 8 canonical points, each in
# json, csv and table format: per run, the exit code and a newline, then stdout
DERIVE = "9bfb817f06005c462bfad7703da11bff80bdd263e803d3b5f6f8af83ac6e1967"

# sha256 over `geominar derive --format json` at _refusal_points() and REFUSAL_EDGES: per
# run, the exit code and a newline, then stdout, a NUL, stderr and a NUL. Most
# of these points are refused (exit 2), so this pins the error paths and their
# messages, which DERIVE (accepted points only) never reaches.
REFUSAL = "42f2c0c5c92096f6fec6110609723318977cac56a8b3474cbe97d78a59c9a674"

# sha256 over `geominar catalog` in table and json format (CATALOG_FORMATS): per
# run, the exit code and a newline, then stdout. Recorded where the listing
# reads each constraint's label from its declaration; a changed label or
# summary moves it.
CATALOG = "fe9d49bf1a171b125b8d3d8fcb57d14081bf3f49aeb6594588cc53ec55a3475b"
CATALOG_FORMATS = ("table", "json")


def _mean(rng: random.Random) -> float:
    """A mean in [0.01, 50], log-uniform."""
    return math.exp(rng.uniform(math.log(0.01), math.log(50.0)))


def _positive(rng: random.Random) -> float:
    """A mean, or now and then a value in [-1, 0)."""
    return _mean(rng) if rng.random() < 0.85 else rng.uniform(-1.0, 0.0)


def _unit(rng: random.Random) -> float:
    """Mostly [0, 1); sometimes an edge 0 or 1, or a value past either end."""
    u = rng.random()
    if u < 0.1:
        return rng.choice((0.0, 1.0))
    if u < 0.25:
        return rng.uniform(-0.3, 1.3)
    return rng.uniform(0.0, 1.0)


def _refusal_points(per_family: int = 100, seed: int = 7) -> list[tuple[str, dict]]:
    """Seeded random points across and beyond each family's validity region."""
    rng = random.Random(seed)

    def zmg():
        mu = _positive(rng)
        return {"mu": mu, "k": rng.uniform(-1.5 / abs(mu), 1.2)}

    def two_param():
        r = _positive(rng)
        return {"r": r, "m": rng.uniform(-0.2, 1.3) * (1.0 + abs(r))}

    draw = {
        "ginar": lambda: {"theta": (1.0 / (1.0 + _mean(rng)) if rng.random() < 0.8
                                    else _unit(rng)), "alpha": _unit(rng)},
        "nginar": lambda: {"mu": _positive(rng), "alpha": _unit(rng)},
        "zmg": zmg,
        "two-param": two_param,
        "rho-geo-bin": lambda: {"mu": _positive(rng), "rho": 0.95 * _unit(rng),
                                "alpha": _unit(rng)},
        "rho-geo-nb": lambda: {"mu": _positive(rng), "rho": 0.95 * _unit(rng),
                               "alpha": _unit(rng)},
        "hurdle-geo-bin": lambda: {"mu": _unit(rng), "rho": _unit(rng), "alpha": _unit(rng)},
        "hurdle-geo-nb": lambda: {"mu": _unit(rng), "rho": _unit(rng), "alpha": _unit(rng)},
    }
    return [(name, f()) for name, f in draw.items() for _ in range(per_family)]


# points on a boundary, and a valid rho-geo-nb point near rho = alpha = 1 where
# quadratic_closed_form's weights miss the HurdleForm sum check, while the
# innovation law derives it (test_point_beyond_the_closed_form_derives)
REFUSAL_EDGES = [
    ("nginar", {"mu": 1.0, "alpha": 0.5}),
    ("zmg", {"mu": 1.0, "k": -1.0}),
    ("two-param", {"r": 1.0, "m": 2.0}),
    ("rho-geo-nb", {"mu": 0.17261642137592215, "rho": 0.95, "alpha": 0.9095329856692537}),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_version_matches_the_digests():
    assert __version__ == "0.7.0"


@pytest.mark.parametrize("name, n, burn_in", sorted(SERIES))
def test_series_digest(name, n, burn_in):
    model = build_model(name, **CANONICAL[name])
    values = simulate_series(model, n, RngStream(5), burn_in).values
    assert _sha(values.tobytes()) == SERIES[name, n, burn_in]


@pytest.mark.parametrize("name, n", sorted(ACROSS_BLOCKS))
def test_series_digest_across_blocks(name, n):
    model = build_model(name, **CANONICAL[name])
    values = simulate_series(model, n, RngStream(5), 3).values
    assert _sha(values.tobytes()) == ACROSS_BLOCKS[name, n]


@pytest.mark.parametrize("name, n", sorted(ACROSS_THIN_BLOCKS))
def test_series_digest_across_thin_blocks(name, n, monkeypatch):
    model = build_model(name, **THIN_POINTS[name])
    sizes = []
    thin = simulate._thin

    def recording(thinning, gen, cnt):
        sizes.append(cnt.size)
        thin(thinning, gen, cnt)

    monkeypatch.setattr(simulate, "_thin", recording)
    values = simulate_series(model, n, RngStream(5), 3).values
    assert sizes[0] > THIN_BLOCK
    assert _sha(values.tobytes()) == ACROSS_THIN_BLOCKS[name, n]


@pytest.mark.parametrize("name, n", sorted(ACROSS_SPANS))
def test_series_digest_across_spans(name, n):
    model = build_model(name, **CANONICAL[name])
    values = simulate_series(model, n, RngStream(5), 3).values
    assert _sha(values.tobytes()) == ACROSS_SPANS[name, n]


def test_series_digest_wide_table():
    model = build_model("ginar", theta=1e-4, alpha=0.5)
    values = simulate_series(model, BLOCK + 1, RngStream(5), 3).values
    assert _sha(values.tobytes()) == WIDE_TABLE


def test_series_digest_through_the_geometric_tail():
    model = build_model("ginar", **CANONICAL["ginar"])
    # the short table stands in for the model's own: a cached_property keeps
    # its value in the instance's __dict__
    vars(model)["innovation"] = pmf_from_decomposition(model.decomposition, 0.999)
    values = simulate_series(model, 2 * BLOCK + 3, RngStream(5), 3).values
    assert _sha(values.tobytes()) == SHORT_TABLE


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_stdout_digest(name, capsys):
    flags = [x for k, v in CANONICAL[name].items() for x in (f"--{k}", repr(v))]
    assert main(["verify", name, *flags, "--n", "20000", "--seed", "5"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == VERIFY[name]


def test_derive_output_digest(capsys):
    points = [(name, p) for name, grid in GRIDS.items() for p in grid]
    points += list(CANONICAL.items())
    digest = hashlib.sha256()
    for name, params in points:
        flags = [x for k, v in params.items() for x in (f"--{k}", repr(v))]
        for fmt in ("json", "csv", "table"):
            code = main(["derive", name, *flags, "--format", fmt])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert len(points) == 228
    assert digest.hexdigest() == DERIVE


def test_derive_refusal_digest(capsys):
    points = _refusal_points() + REFUSAL_EDGES
    digest = hashlib.sha256()
    codes = []
    for name, params in points:
        # --flag=value, so that argparse reads a value like -1e-05 as a number
        code = main(["derive", name, *(f"--{k}={v!r}" for k, v in params.items()),
                     "--format", "json"])
        out, err = capsys.readouterr()
        codes.append(code)
        digest.update(f"{code}\n{out}\0{err}\0".encode())
    assert len(points) == 804
    assert set(codes) == {0, 2} and codes.count(2) > len(points) // 2
    assert digest.hexdigest() == REFUSAL


def test_catalog_listing_digest(capsys):
    digest = hashlib.sha256()
    for fmt in CATALOG_FORMATS:
        code = main(["catalog", "--format", fmt])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == CATALOG


def test_point_beyond_the_closed_form_derives(capsys):
    name, params = REFUSAL_EDGES[3]
    assert main(["derive", name, *(f"--{k}={v!r}" for k, v in params.items())]) == 0
    doc = json.loads(capsys.readouterr().out)
    expect = oracle_pmf(name, len(doc["pmf"]) - 1, **params)
    assert [p for _, p in doc["pmf"]] == pytest.approx(expect, abs=1e-10)
    assert doc["hurdle"]["w1"] + doc["hurdle"]["w2"] == pytest.approx(1.0, abs=1e-15)

"""Golden digests pinning the seeded and printed output of version 0.4.0.

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
changed. ACROSS_THIN_BLOCKS was added in 0.4.0. CATALOG pins the `geominar catalog`
listing. tests/golden_points.py lists the runs behind each of these four
digests one by one. The digests were recorded with numpy 2.4.6; numpy does
not promise that Generator streams stay the same across its releases, so a
failure after a numpy upgrade alone means the dependency moved, not this
code.
"""
import dataclasses
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
from geominar.simulate import BLOCK, THIN_BLOCK, RngStream, simulate_series

from grids import CANONICAL, GRIDS
from oracles import oracle_pmf

# (model, n, burn_in) -> sha256 of simulate_series(...).values.tobytes(), seed 5
SERIES = {
    ("ginar", 20000, 0): "e46f05ba073dfc066b6613295137a636a11e4a2f095df383a4fc02f3a2dd9c5f",
    ("nginar", 20000, 0): "4b0663c56704ca9a4ebac7e65a08299d22409fb88959131732d8f1365c96ecff",
    ("zmg", 20000, 0): "68a4ec6aa31ac78c0f8aef3a352f3cf27e84155c05a8682cfb09f272276b6f7b",
    ("two-param", 20000, 0): "67e8133990fa54911991167648042c7a863e8f1292f7d96277bb181834458747",
    ("rho-geo-bin", 20000, 0): "0a6b1b60676ebd9f41c9b3b19c267b9e065983fc00ac907ca5ec56e1b658a7c5",
    ("hurdle-geo-bin", 20000, 0): "f39a461f9c8e36d63a2854e431f4f4c52c6c97392408e50d6153dd2920f19877",
    ("rho-geo-nb", 20000, 0): "62322cd712def3057c385411d810ef8a25540effd4be16593cee4cd8379eafe5",
    ("hurdle-geo-nb", 20000, 0): "c879118f03ec6a3d4cd00fd827c900f6280b9c1a42db0dd7173d9d107f60be6b",
    ("ginar", 1, 0): "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
    ("ginar", 1, 7): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("ginar", 2, 0): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    ("ginar", 2, 7): "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    ("nginar", 1, 0): "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
    ("nginar", 1, 7): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("nginar", 2, 0): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    ("nginar", 2, 7): "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
}

# Paths longer than one innovation block (BLOCK = 65,536 uniforms), burn_in 3,
# seed 5: these pin the block boundaries, which the 20,000-step paths above
# never cross. (model, n) -> sha256 of simulate_series(...).values.tobytes()
ACROSS_BLOCKS = {
    ("ginar", 2 * BLOCK + 3): "406670f89e6024c181b52bacb1daf48737651b3deee145dda41eed00cc7079fe",
    ("nginar", 2 * BLOCK + 3): "fa3ded202ba1d62bb04cf41fdc3bc9a836dcc6b12899056e0f7ef9b8043e974b",
    ("zmg", 2 * BLOCK + 3): "30cc48e7ac26531c5f7b98b9fc125287d81402072c2e776856d84f0af9d27eea",
    ("two-param", 2 * BLOCK + 3): "caf7838c35d10ec41fe92ec9dc7959d24be210de3cb7c9706f3d7c39c9e6aedc",
    ("rho-geo-bin", 2 * BLOCK + 3): "902b530c2d76e15cde50a3b7ca70dbbca6ca4d1bb8df29dac1ccedb560ed4ac8",
    ("hurdle-geo-bin", 2 * BLOCK + 3): "ac8a4367278ad23c03866f06f3862664e1bfbac4241e249e08b3e0ee162be337",
    ("rho-geo-nb", 2 * BLOCK + 3): "16e9b22711b8c328ec17ba8b0c0bafeebf0464a27f48cd71c52a1b46b7831a4f",
    ("hurdle-geo-nb", 2 * BLOCK + 3): "9bc0ac80261def3b9283093d38438ae49c9d90c16d3054845f3259b86f45e789",
}

# ginar theta=1e-4 alpha=0.5: a 262,564-row table, where the guide leaves many
# buckets to binary search; n = BLOCK + 1, burn_in 3, seed 5
WIDE_TABLE = "600b7383d6a7d21e40da0c0432fe4789d7cc22aab67282165e3b3d335209633b"

# canonical ginar with its table cut at mass 0.999, so that about one draw in
# a thousand lands beyond the table and takes the geometric tail, in both
# full blocks; n = 2 * BLOCK + 3, burn_in 3, seed 5. The tail continues the
# law exactly, so the path equals the full-table one (ACROSS_BLOCKS ginar).
SHORT_TABLE = "406670f89e6024c181b52bacb1daf48737651b3deee145dda41eed00cc7079fe"

# Paths whose first generation of thinning draws holds more than one block
# of THIN_BLOCK = 65,536 entries (about 130k for ginar, 101k for nginar, so
# both thinnings cross a block boundary), burn_in 3, seed 5.
# (model, n) -> sha256 of simulate_series(...).values.tobytes()
ACROSS_THIN_BLOCKS = {
    ("ginar", 8 * THIN_BLOCK + 3): "847f99f27517c3f20c76d3642fcfb6cbdeca2323e3360fa8d297f48657610a19",
    ("nginar", 4 * THIN_BLOCK + 3): "adb6a64c9aee171a2bf9580d111d237e701742520cc32f6f32471ebf56500bd4",
}

# model -> sha256 of `geominar verify <model> <CANONICAL flags> --n 20000 --seed 5` stdout
VERIFY = {
    "ginar": "9d52df0902de037f0213425ee875c03e274df71b89359bd9ef48d34133663f8b",
    "nginar": "82a52276e63fc289265aabe2f0c92ff9d272769bb6fc78ae2d1eb60619f189d6",
    "zmg": "c351e4cbfb87f05e0aa2a93c5cc0569ea71aba5f250c64a7ed76f3e560b294d1",
    "two-param": "5c78f929e36c2e6f1c7387542dd9c2079eeb676fddf428befb8b51fa422306ac",
    "rho-geo-bin": "42dc08e7aac2b8663dd4f1fee486e9c8f397502f11a0e39cf14864f0ff3584cb",
    "hurdle-geo-bin": "95bbfb80302f5df93338f8099907a18643b793847eab260212d3d489e5320946",
    "rho-geo-nb": "a059e1b86cb2641a71a489d2ed97ac2a92317369b708f80d72ff2ccf6ac2686c",
    "hurdle-geo-nb": "9916b96f5c1385c73b1be56ef6435bd52ba249caf1944b7551794b7652f2ca16",
}

# sha256 over `geominar derive` at the 220 grid and 8 canonical points, each in
# json, csv and table format: per run, the exit code and a newline, then stdout
DERIVE = "74f8a1e0316c52591cb691fee325b5d7b85f161c1ebce054cbcaa2b70627c100"

# sha256 over `geominar derive --format json` at _refusal_points() and REFUSAL_EDGES: per
# run, the exit code and a newline, then stdout, a NUL, stderr and a NUL. Most
# of these points are refused (exit 2), so this pins the error paths and their
# messages, which DERIVE (accepted points only) never reaches.
REFUSAL = "7d107902a887e33a9714081c7cdf302e4cec950b1e9cb4cacd4dfc5f410be1c5"

# sha256 over `geominar catalog` in table and json format (CATALOG_FORMATS): per
# run, the exit code and a newline, then stdout. Recorded where the listing
# reads each constraint's label from its declaration; a changed label or
# summary moves it.
CATALOG = "3860d7d341d08ff0c71235b44eb562ef61db6c2d5d3c7cbc8ff804677dcf314e"
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
    assert __version__ == "0.4.0"


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
    model = build_model(name, **CANONICAL[name])
    sizes = []
    thin = simulate._thin

    def recording(thinning, gen, cnt):
        sizes.append(cnt.size)
        thin(thinning, gen, cnt)

    monkeypatch.setattr(simulate, "_thin", recording)
    values = simulate_series(model, n, RngStream(5), 3).values
    assert sizes[0] > THIN_BLOCK
    assert _sha(values.tobytes()) == ACROSS_THIN_BLOCKS[name, n]


def test_series_digest_wide_table():
    model = build_model("ginar", theta=1e-4, alpha=0.5)
    values = simulate_series(model, BLOCK + 1, RngStream(5), 3).values
    assert _sha(values.tobytes()) == WIDE_TABLE


def test_series_digest_through_the_geometric_tail():
    model = build_model("ginar", **CANONICAL["ginar"])
    short = pmf_from_decomposition(model.innovation.decomposition, 0.999)
    values = simulate_series(dataclasses.replace(model, innovation=short),
                             2 * BLOCK + 3, RngStream(5), 3).values
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

"""Golden digests pinning the seeded and printed output of version 0.5.0.

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
moved. CATALOG pins the `geominar catalog` listing.
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
from geominar.simulate import BLOCK, THIN_BLOCK, RngStream, simulate_series

from grids import CANONICAL, GRIDS
from oracles import oracle_pmf

# (model, n, burn_in) -> sha256 of simulate_series(...).values.tobytes(), seed 5
SERIES = {
    ("ginar", 20000, 0): "2c06c380b55f73fb340875c018802bbbfba94e8701a92399f74b6aeac34322c8",
    ("nginar", 20000, 0): "506ce3000a7ab0e0dc2dd2641e09223e22da94a2ee9e8bfd68bc787ccdc50535",
    ("zmg", 20000, 0): "68a4ec6aa31ac78c0f8aef3a352f3cf27e84155c05a8682cfb09f272276b6f7b",
    ("two-param", 20000, 0): "67e8133990fa54911991167648042c7a863e8f1292f7d96277bb181834458747",
    ("rho-geo-bin", 20000, 0): "c3346444131db46cf9efc15bb5a2ab4b69a7225dc94745840e47881f74f8692a",
    ("hurdle-geo-bin", 20000, 0): "0513252e4b411979ca722be04631ac1352e8ba334e5925692d8a54b314f4f367",
    ("rho-geo-nb", 20000, 0): "2f3fa184d9a846014d6eed61079f03f1e153e71768d6fac5ff88144c70c89b9a",
    ("hurdle-geo-nb", 20000, 0): "2383287b1c7572b89867326b018ff84d9f20ca561651080ec059eb3cc01289ae",
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
    ("ginar", 2 * BLOCK + 3): "fed6b453b9ab4961bf901bb8f70b0f697a4539b64798aeb8f66d55287e6ae854",
    ("nginar", 2 * BLOCK + 3): "eba71e28d4d26cdbe65b3f3ede6a65831568e72543f51f5d0e047762eef5397c",
    ("zmg", 2 * BLOCK + 3): "30cc48e7ac26531c5f7b98b9fc125287d81402072c2e776856d84f0af9d27eea",
    ("two-param", 2 * BLOCK + 3): "caf7838c35d10ec41fe92ec9dc7959d24be210de3cb7c9706f3d7c39c9e6aedc",
    ("rho-geo-bin", 2 * BLOCK + 3): "058a51f8590f07bc5b7dbfb239fd50ba6d8c51d20b1a733ad05b395307a9f2ac",
    ("hurdle-geo-bin", 2 * BLOCK + 3): "46ae6764e7998fab076be4bbb62f0d16a27a5004995f2a32b814b0336d2b72c8",
    ("rho-geo-nb", 2 * BLOCK + 3): "bd6048a5267017a3ff913aed4cd8e467bc3914b40953eedd59769bb755460665",
    ("hurdle-geo-nb", 2 * BLOCK + 3): "81d016e82f84935d289020b226988b0e35dce160e6635399396871cc838c9c2d",
}

# ginar theta=1e-4 alpha=0.5: a 262,564-row table, where the guide leaves many
# buckets to binary search; n = BLOCK + 1, burn_in 3, seed 5
WIDE_TABLE = "779d331ce2478a9e5dfa14829f67fe2a95f2fd3c5fac1eb0b0677ceff3d4dd4c"

# canonical ginar with its table cut at mass 0.999, so that about one draw in
# a thousand lands beyond the table and takes the geometric tail, in both
# full blocks; n = 2 * BLOCK + 3, burn_in 3, seed 5. The tail continues the
# law exactly, so the path equals the full-table one (ACROSS_BLOCKS ginar).
SHORT_TABLE = "fed6b453b9ab4961bf901bb8f70b0f697a4539b64798aeb8f66d55287e6ae854"

# Paths whose first generation of thinning draws holds more than one block
# of THIN_BLOCK = 65,536 entries (about 130k for ginar, 101k for nginar, so
# both thinnings cross a block boundary), burn_in 3, seed 5.
# (model, n) -> sha256 of simulate_series(...).values.tobytes()
ACROSS_THIN_BLOCKS = {
    ("ginar", 8 * THIN_BLOCK + 3): "8bf6786bd72a04d22cc7813d3cca8c9cdda4cdc636280ce1fa4352895d3a89b8",
    ("nginar", 4 * THIN_BLOCK + 3): "a71bb6a9b81673965e1edb45d620c734edcdb61c8a68a094f1552adf12cbbfd5",
}

# model -> sha256 of `geominar verify <model> <CANONICAL flags> --n 20000 --seed 5` stdout
VERIFY = {
    "ginar": "9a228d5403fb37efec3f8a8cda2cadc77b4fdab76d6c3318f4d8c7a866383bea",
    "nginar": "4fbb1c23053c8e7fb8fa5b5b92c83952839d7b0b95dc19bc5167f19d9c36cdc3",
    "zmg": "c351e4cbfb87f05e0aa2a93c5cc0569ea71aba5f250c64a7ed76f3e560b294d1",
    "two-param": "5c78f929e36c2e6f1c7387542dd9c2079eeb676fddf428befb8b51fa422306ac",
    "rho-geo-bin": "ef32b2a199c9032ee4ae4bd4edd6640a8be9f543c45a41082226ca76eeed34d1",
    "hurdle-geo-bin": "50b5ac0fd803a7cffef1674d50ff51e9e9f528190a481cfc4b14b7b9c6b17fd6",
    "rho-geo-nb": "bfb09b1e6bd450425d168aebcfdf581c34ec945014f9bcd50addef4d285ed3d7",
    "hurdle-geo-nb": "4ab68ee4d5f8127da95a697877e6e2492e9f2b2ab30461886d35793f9b6bb04b",
}

# sha256 over `geominar derive` at the 220 grid and 8 canonical points, each in
# json, csv and table format: per run, the exit code and a newline, then stdout
DERIVE = "b595cd02784eff22cd5bf5ed8ac5ba10f53499cb4de71ff2add22e089ae0710a"

# sha256 over `geominar derive --format json` at _refusal_points() and REFUSAL_EDGES: per
# run, the exit code and a newline, then stdout, a NUL, stderr and a NUL. Most
# of these points are refused (exit 2), so this pins the error paths and their
# messages, which DERIVE (accepted points only) never reaches.
REFUSAL = "6ea98fd93c84a267cb374af6406ccc39588c877001c6ee52fa5fcd38dbc79244"

# sha256 over `geominar catalog` in table and json format (CATALOG_FORMATS): per
# run, the exit code and a newline, then stdout. Recorded where the listing
# reads each constraint's label from its declaration; a changed label or
# summary moves it.
CATALOG = "c2030a63a4ae2ab4d6eb067cb45079603358c6b4e06eed6d8211428b1798f2e1"
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
    assert __version__ == "0.5.0"


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

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines as they complete.
"""
import dataclasses
import subprocess
import sys
import time

import numpy as np
import pytest

from geominar.catalog import build_model, validate_params
from geominar.decompose import (
    central_moments,
    hurdle_pmf,
    partial_fractions,
    pmf_recursive,
    quadratic_closed_form,
    tail_geometric_approx,
)
from geominar.simulate import RngStream, simulate_series
from geominar.verify import (
    check_cross_method,
    check_moments,
    check_pgf_identity,
    check_pmf_validity,
    check_tail_quality,
)

from grids import CANONICAL, GRIDS
from oracles import exact_moments


def _report(num: int, name: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[{status}] criterion {num}: {name}")
            return False

    return _Ctx()


def _all_models(names=None):
    for name in names or GRIDS:
        for params in GRIDS[name]:
            yield name, params, build_model(name, **params)


# --------------------------------------------------------------------------
# criterion 1: stationarity pgf identity on every grid point
# --------------------------------------------------------------------------

def test_criterion_1_stationarity_identity():
    with _report(1, "pgf identity max deviation <= 1e-10 on all grids, < 5 s"):
        t0 = time.perf_counter()
        worst = 0.0
        count = 0
        for name, params, model in _all_models():
            rep = check_pgf_identity(model, grid_points=50, tol=1e-10)
            worst = max(worst, rep.checks[0].observed)
            assert rep.overall, (name, params, rep.checks[0].observed)
            count += 1
        elapsed = time.perf_counter() - t0
        assert count >= 8 * 27
        assert worst <= 1e-10
        assert elapsed < 5.0, f"identity sweep took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# criterion 2: cross-method equivalence for m <= 200
# --------------------------------------------------------------------------

def test_criterion_2_cross_method_equivalence():
    with _report(2, "recursion / residues / hurdle view / quadratic closed form agree "
                    "to 1e-10, m <= 200"):
        t0 = time.perf_counter()
        worst = 0.0
        for name, params, model in _all_models():
            rf = model.law.rf
            recursive = pmf_recursive(rf, 200)
            fresh = partial_fractions(rf)
            # the closed form as an independent oracle; a linear rf takes its abar = 0 branch
            closed = quadratic_closed_form(rf.num.coeff(2), rf.num.coeff(1), rf.num.coeff(0),
                                           rf.den.coeff(2), rf.den.coeff(1), rf.den.coeff(0))
            for m in range(201):
                a = recursive[m]
                dev = max(abs(a - fresh.pmf(m)), abs(a - model.innovation.pmf(m)),
                          abs(a - hurdle_pmf(model.hurdle, m)), abs(a - hurdle_pmf(closed, m)))
                worst = max(worst, dev)
                assert dev <= 1e-10, (name, params, m, dev)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"cross-method sweep took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# criterion 3: closed-form reproduction of the decomposition parameters
# --------------------------------------------------------------------------

def _stated_hurdle_params(name, mu, rho, alpha):
    """Reference closed forms for the hurdle laws, restated independently."""
    if name == "rho-geo-bin":
        d0 = 1.0 - rho * (1.0 - alpha)
        pi = (1.0 - rho + alpha * (mu + rho)) / ((1.0 + mu) * d0)
        p1 = (rho + mu) / (1.0 + mu)
        p2 = alpha * rho / d0
        den = (rho + mu) * d0 - alpha * rho * (1.0 + mu)
        return pi, p1, p2, (rho + mu) * d0 / den, -alpha * rho * (1.0 + mu) / den
    if name == "hurdle-geo-bin":
        k = rho - mu * (1.0 + rho)
        pi = 1.0 - (1.0 - alpha) * mu / (1.0 + alpha * k)
        p1 = rho / (1.0 + rho)
        p2 = alpha * k / (1.0 + alpha * k)
        den = rho - alpha * k
        return pi, p1, p2, rho * (1.0 + alpha * k) / den, -alpha * (1.0 + rho) * k / den
    if name == "rho-geo-nb":
        pi = 1.0 - mu * (1.0 - rho) / ((1.0 + mu) * (1.0 - rho + alpha))
        p1 = (rho + mu) / (1.0 + mu)
        p2 = alpha / (1.0 - rho + alpha)
        w1 = ((alpha - rho + 1.0) * (alpha * mu + alpha - mu - rho)
              / ((rho - 1.0) * (mu + rho - alpha)))
        w2 = alpha * (1.0 + mu) * (alpha - rho) / ((rho - 1.0) * (alpha - mu - rho))
        return pi, p1, p2, w1, w2
    k = rho - mu * (1.0 + rho)
    g = alpha * (1.0 + rho) * (1.0 - mu)
    pi = (g - mu + 1.0) / (g + 1.0)
    p1 = rho / (1.0 + rho)
    p2 = g / (1.0 + g)
    den = alpha * (mu - 1.0) * (rho + 1.0) + rho
    w1 = (alpha * rho + alpha - rho) * (alpha * (mu - 1.0) * (rho + 1.0) - 1.0) / den
    w2 = -(alpha * (rho + 1.0)
           * (alpha * (mu - 1.0) * (rho + 1.0) - mu * (rho + 1.0) + rho)) / den
    return pi, p1, p2, w1, w2


def _close(a, b, tol=1e-10):
    return abs(a - b) <= tol * max(1.0, abs(b))


def test_criterion_3_closed_form_reproduction():
    with _report(3, "derived decompositions match the reference closed forms to 1e-10"):
        # zero-inflated geometric family: atom alpha, geometric ratio 1-theta
        for params in GRIDS["ginar"]:
            model = build_model("ginar", **params)
            dec = model.innovation.decomposition
            assert _close(dec.atom_poly.coeffs[0], params["alpha"])
            (rho, s), = dec.terms
            assert _close(s, 1.0 / (1.0 - params["theta"]))
            assert _close(rho / (s - 1.0), 1.0 - params["alpha"])

        # two-geometric mixture: weights 1 - a*mu/(mu-a) and a*mu/(mu-a)
        for params in GRIDS["nginar"]:
            mu, alpha = params["mu"], params["alpha"]
            model = build_model("nginar", **params)
            comps = dict()
            for c, mean in model.innovation.decomposition.mixture_components():
                comps[round(mean, 6)] = c
            w2 = alpha * mu / (mu - alpha)
            assert _close(comps[round(mu, 6)], 1.0 - w2)
            assert _close(comps[round(alpha, 6)], w2)

        # boundary of the thinning rate detected with margin < 1e-12
        for mu in (0.5, 1.0, 2.0, 4.0):
            cs = validate_params("nginar", mu=mu, alpha=mu / (1.0 + mu))
            bound = next(c for c in cs if c.name == "alpha <= mu/(1+mu)")
            assert bound.satisfied and abs(bound.margin) < 1e-12

        # hurdle families: pi, p1, p2, w1, w2 against the reference formulas
        for name in ("rho-geo-bin", "hurdle-geo-bin", "rho-geo-nb", "hurdle-geo-nb"):
            for params in GRIDS[name]:
                model = build_model(name, **params)
                h = model.hurdle
                pi, p1, p2, w1, w2 = _stated_hurdle_params(name, **params)
                for got, want in ((h.pi, pi), (h.p1, p1), (h.p2, p2),
                                  (h.w1, w1), (h.w2, w2)):
                    assert _close(got, want), (name, params, got, want)


# --------------------------------------------------------------------------
# criterion 4: moment consistency, with the decomposition's moments as arbiter
# --------------------------------------------------------------------------

def _rejected_variance(name, mu=None, rho=None, alpha=None, pi=None, p1=None,
                       p2=None, w1=None, w2=None):
    """Simplified variance candidates that the decomposition's moments reject."""
    if name == "hfg-master":
        return ((1.0 - pi) * (p1**2 * p2 - 3.0 * p1 * p2 + p1 + p2 + pi)
                / ((1.0 - p1) ** 2 * (1.0 - p2) ** 2))
    if name == "mhfg-simplified":
        mu_z = w1 / (1.0 - p1) + w2 / (1.0 - p2)
        return (1.0 - pi) * ((w1 * (1.0 - w1) * (p1 - p2) ** 2 + w1 * (p1 - p2)
                              + p2 * (1.0 - p1) ** 2)
                             / ((1.0 - p1) ** 2 * (1.0 - p2) ** 2) + pi * mu_z**2)
    if name == "rho-geo-bin":
        num = (mu**2 * (alpha - rho + 1.0)
               + mu * (alpha * rho + alpha - rho**2 - rho + 2.0)
               + alpha * rho * (rho**2 - 2.0 * rho + 2.0) - rho**2 + 1.0)
        return mu * (1.0 - alpha) * num / ((1.0 + mu) * (1.0 - rho) ** 3)
    if name == "hurdle-geo-bin":
        bracket = (alpha * rho**3
                   - mu * (1.0 + rho) * (alpha * (rho**2 + rho + 1.0) + rho + 1.0)
                   + 2.0 * (1.0 + alpha) * rho**2 + (2.0 * alpha + 3.0) * rho + 1.0)
        return mu * (1.0 - alpha) * bracket
    if name == "rho-geo-nb":
        num = (alpha**2 * (1.0 + mu) ** 2 * (rho - 2.0)
               + alpha * (mu**2 - mu * (rho**2 - 4.0 * rho + 1.0) + 2.0 * rho - 1.0)
               + (1.0 + mu) * (1.0 - rho) * (1.0 + mu + rho))
        return mu * num / ((1.0 + mu) * (1.0 - rho) ** 3)
    if name == "hurdle-geo-nb":
        bracket = (alpha**2 * (1.0 + rho) * (mu * rho + mu - rho - 2.0)
                   + alpha * ((1.0 - mu) * rho**2 - 1.0) - mu * (1.0 + rho)
                   + 2.0 * rho + 1.0)
        return mu * (1.0 + rho) * bracket
    raise ValueError(name)


def test_criterion_4_moment_consistency():
    with _report(4, "the decomposition's moments match closed forms (1e-7) and arbitrate "
                    "the rejected variance candidates"):
        hurdle_names = ("rho-geo-bin", "hurdle-geo-bin", "rho-geo-nb", "hurdle-geo-nb")
        for name in ("ginar", "nginar", "zmg", "two-param") + hurdle_names:
            for params in GRIDS[name]:
                model = build_model(name, **params)
                pm_mean, pm_var, _, _ = central_moments(model.decomposition.parts())
                mo = model.moments
                assert _close(pm_mean, mo.innovation_mean, 1e-7), (name, params)
                assert _close(pm_var, mo.innovation_var, 1e-7), (name, params)
                # exact Fraction pgf derivatives at s = 1 are the arbiter and
                # must agree with the decomposition
                pg_mean, pg_var = exact_moments(name, **params)
                assert _close(pm_mean, pg_mean, 1e-7), (name, params)
                assert _close(pm_var, pg_var, 1e-7), (name, params)

        # the simplified variance candidates disagree with the decomposition at the
        # canonical points; the stationarity-identity closed form checked
        # above is the one that holds
        for name in hurdle_names:
            params = CANONICAL[name]
            model = build_model(name, **params)
            pm_var = central_moments(model.decomposition.parts())[1]
            bad = _rejected_variance(name, **params)
            assert abs(bad - pm_var) > 1e-4 * pm_var, (name, bad, pm_var)
            h = model.hurdle
            master = _rejected_variance("hfg-master", pi=h.pi, p1=h.p1, p2=h.p2)
            simplified = _rejected_variance("mhfg-simplified", pi=h.pi, p1=h.p1,
                                            p2=h.p2, w1=h.w1, w2=h.w2)
            assert abs(master - pm_var) > 1e-4 * pm_var or \
                abs(simplified - pm_var) > 1e-4 * pm_var
        # corrected master form for the equal-leading-coefficient family
        for name in ("rho-geo-bin", "hurdle-geo-bin"):
            model = build_model(name, **CANONICAL[name])
            h = model.hurdle
            fixed = ((1.0 - h.pi) * (h.p1 + h.p2 - 3.0 * h.p1 * h.p2 + h.pi)
                     / ((1.0 - h.p1) ** 2 * (1.0 - h.p2) ** 2))
            assert _close(fixed, central_moments(model.decomposition.parts())[1], 1e-10)


# --------------------------------------------------------------------------
# criterion 5: Monte Carlo stationarity at the canonical points
# --------------------------------------------------------------------------

def _tv_distance(model, values):
    kmax = int(values.max())
    counts = np.bincount(values, minlength=kmax + 1) / len(values)
    exact = np.array([model.marginal_pmf(k) for k in range(kmax + 1)])
    return 0.5 * (np.abs(counts - exact).sum() + max(1.0 - exact.sum(), 0.0))


def test_criterion_5_monte_carlo_stationarity():
    with _report(5, "n=1e6 trajectories: moments in 4 SE, TV < 0.005, lag-1 near "
                    "alpha, < 60 s total"):
        t0 = time.perf_counter()
        n = 1_000_000
        for name, params in CANONICAL.items():
            model = build_model(name, **params)
            sample = simulate_series(model, n, RngStream(20240817))
            rep = check_moments(model, sample)
            assert rep.overall, (name, [c for c in rep.checks if not c.passed])
            tv = _tv_distance(model, sample.values)
            assert tv < 0.005, (name, tv)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"Monte Carlo sweep took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# criterion 6: quality of the smallest-root geometric tail approximation
# --------------------------------------------------------------------------

def test_criterion_6_tail_quality():
    with _report(6, "tail approximation error strictly decreasing on m in "
                    "{5,10,20} and < 1e-4 at m = 20"):
        cases = (build_model("nginar", mu=1.0, alpha=0.3),
                 build_model("rho-geo-bin", mu=1.0, rho=0.2, alpha=0.3))
        for model in cases:
            dec = model.innovation.decomposition
            errs = []
            for m in (5, 10, 20):
                exact = model.innovation.pmf(m)
                errs.append(abs(tail_geometric_approx(dec, m) - exact) / exact)
            assert errs[0] > errs[1] > errs[2], (model.name, errs)
            assert errs[2] < 1e-4, (model.name, errs)


# --------------------------------------------------------------------------
# criterion 7: every check is falsifiable by an injected fault
# --------------------------------------------------------------------------

def _with_terms(model, terms):
    """model with its decomposition's terms replaced and its pmf table kept as
    built, over the new terms: a cached_property keeps its value in the
    instance's __dict__."""
    dec = dataclasses.replace(model.decomposition, terms=terms)
    bad = dataclasses.replace(model, decomposition=dec)
    vars(bad)["innovation"] = dataclasses.replace(model.innovation, decomposition=dec)
    return bad


def test_criterion_7_falsifiability():
    with _report(7, "each verification check fails on an injected fault"):
        model = build_model("nginar", mu=1.0, alpha=0.3)
        terms = model.innovation.decomposition.terms

        # perturbed residue -> pgf identity broken
        bad = _with_terms(model, ((terms[0][0] * 1.01, terms[0][1]), terms[1]))
        assert not check_pgf_identity(bad).overall

        # truncated table -> mass check broken
        short = dataclasses.replace(model.innovation,
                                    pmf_table=model.innovation.pmf_table[:5])
        assert not check_pmf_validity(short).overall

        # wrong root -> cross-method mismatch
        bad = _with_terms(model, ((terms[0][0], terms[0][1] * 1.05), terms[1]))
        assert not check_cross_method(bad).overall

        # biased closed-form moment -> pmf-vs-closed mismatch
        mom = dataclasses.replace(model.moments,
                                  innovation_var=model.moments.innovation_var * 1.01)
        biased = dataclasses.replace(model, moments=mom)
        sample = simulate_series(biased, 20_000, RngStream(4))
        assert not check_moments(biased, sample).overall

        # root drifted while the table stays frozen -> tail errors not shrinking
        bad = _with_terms(model, ((terms[0][0], terms[0][1] * 1.3), terms[1]))
        assert not check_tail_quality(bad.innovation).overall


# --------------------------------------------------------------------------
# criterion 8: byte-identical simulate output
# --------------------------------------------------------------------------

def test_criterion_8_determinism():
    with _report(8, "identical simulate invocations produce byte-identical CSV"):
        cmd = [sys.executable, "-m", "geominar", "simulate", "rho-geo-nb",
               "--mu", "1", "--rho", "0.2", "--alpha", "0.3",
               "--n", "2000", "--seed", "42", "--burn-in", "10"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout
        assert a.stdout.startswith(b"t,x\n")
        assert len(a.stdout.splitlines()) == 2001

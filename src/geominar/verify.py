"""Verification oracles: every claim the library makes is checked here.

Checks never raise on failure; they return VerificationReport values whose
entries carry (observed, expected, tolerance) so the CLI can serialize them
and CI can gate on the overall flag. Each check is falsifiable: perturbing a
correct model makes it fail (the test suite injects such faults). The
moment checks read every law's moments from its parts in closed form
(decompose.central_moments); none sums pmf rows.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .catalog import INARModel
from .decompose import (CLAMP_TOL, InnovationDistribution, central_moments, hurdle_pmf_column,
                        pmf_recursive, tail_dominance_margin, tail_geometric_approx)
from .simulate import SeriesSample


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.checks + other.checks)

    def to_dict(self) -> dict:
        # every field is a scalar, so a shallow copy of the fields is a full one
        return {"overall": self.overall, "checks": [dict(vars(c)) for c in self.checks]}


def _check(name: str, observed: float, expected: float, tol: float) -> CheckResult:
    return CheckResult(name, bool(abs(observed - expected) <= tol),
                       float(observed), float(expected), float(tol))


def check_pgf_identity(model: INARModel, grid_points: int = 50,
                       tol: float = 1e-10) -> VerificationReport:
    """Stationarity identity phi_X(s) = phi_X(phi_N(s)) * phi_e(s) on a grid.

    phi_X and phi_N are the spec's (an iid model's phi_X is its law's rf), and
    phi_e is evaluated from the derived decomposition (atoms plus residue
    terms), so a perturbed residue or root shows up as a deviation. The worst
    deviation skips a nan one, as max over the points one at a time did."""
    worst = np.fmax.reduce(_pgf_deviations(model, grid_points), initial=0.0)
    return VerificationReport((_check("pgf_identity_max_abs_deviation", worst, 0.0, tol),))


def _pgf_deviations(model: INARModel, grid_points: int) -> np.ndarray:
    """|phi_X(s) - phi_X(phi_N(s)) phi_e(s)| at s = 0.99 i / (grid_points - 1)
    (s = 0 alone for one point), each the float that the same operations give
    at one point: the pgfs are evaluated on the whole grid at once."""
    spec = model.spec
    i = np.arange(grid_points)
    s = 0.99 * i / (grid_points - 1) if grid_points > 1 else np.zeros(i.size)
    thinned = spec.thinning.pgf(s)
    if spec.marginal is None:
        rf = model.law.rf
        reach = max(np.abs(s).max(initial=0.0), np.abs(thinned).max(initial=0.0))
        rf(float(reach))  # the radius check of rf(s) at every point: it raises past it

        def phi_x(x):
            return rf.num(x) / rf.den(x)
    else:
        phi_x = spec.marginal.pgf
    return np.abs(phi_x(s) - phi_x(thinned) * model.decomposition.pgf_value(s))


def check_pmf_validity(d: InnovationDistribution, tol: float = 1e-10) -> VerificationReport:
    """Nonnegativity, total mass, and the signed-tail dominance certificate."""
    checks = []
    worst = min(d.pmf_table) if d.pmf_table else 0.0
    checks.append(_check("pmf_min_entry", min(worst, 0.0), 0.0, CLAMP_TOL))
    # the table alone: with its exact tail the sum is 1 however short the table
    checks.append(_check("pmf_total_mass", d.table_mass(), 1.0, tol))
    terms = d.decomposition.terms
    if len(terms) >= 2 and any(r < 0.0 for r, _ in terms):
        margin = tail_dominance_margin(terms, d.truncation)
        checks.append(_check("tail_dominance_margin", min(margin, 0.0), 0.0, CLAMP_TOL))
    return VerificationReport(tuple(checks))


def check_cross_method(model: INARModel, tol: float = 1e-10) -> VerificationReport:
    """Entrywise agreement of the recursion with the residue decomposition
    and with its hurdle view, for m <= CROSS_METHOD_TERMS."""
    n = CROSS_METHOD_TERMS
    recursive = pmf_recursive(model.law.rf, n)
    # the floats of dec.pmf(m) and hurdle_pmf(model.hurdle, m), formed in columns
    dec = model.decomposition.pmf_column(0, n + 1)
    hurdle = hurdle_pmf_column(model.hurdle, n + 1)
    worst_rd = max(map(abs, map(operator.sub, dec, recursive)))
    worst_h = max(map(abs, map(operator.sub, hurdle, recursive)))
    return VerificationReport((_check("recursion_vs_decomposition", worst_rd, 0.0, tol),
                               _check("recursion_vs_hurdle_form", worst_h, 0.0, tol)))


# steps per block of check_moments' exact path sums (_path_sums): 512 KB of
# int64, which stays in cache for the block's four reductions
MOMENT_BLOCK = 1 << 16
INT64_MAX = (1 << 63) - 1
MOMENT_REL_TOL = 1e-7  # check_moments: closed forms vs the parts' moments, relative
MOMENT_N_SE = 4.0  # check_moments: empirical vs closed forms, in standard errors
TAIL_MS = (5, 10, 20)  # the m at which check_tail_quality compares the tail
CROSS_METHOD_TERMS = 200  # check_cross_method compares pmf values m = 0..this


def _ess_factor(alpha: float) -> float:
    return (1.0 + alpha) / (1.0 - alpha)


def _marginal_central_moments(model: INARModel) -> tuple[float, float, float, float]:
    """mean, m2, m3, m4 of the marginal law, in closed form from its parts: the
    marginal's geometric form, or an iid law's decomposition."""
    return central_moments((model.spec.marginal or model.decomposition).parts())


def _path_sums(xs: np.ndarray) -> tuple[int, int, int]:
    """Exact sums of the nonnegative int64 path xs, as Python ints:
    sum x_t, sum x_t^2 and the lag-1 sum sum x_t x_{t+1}.

    They are summed MOMENT_BLOCK steps at a time, each block with the step
    after it for the product that spans the boundary: by int64 einsums where
    the block's maximum m keeps every sum below 2^63 (len * m^2 < 2^63, so
    none can wrap), else in Python ints. Taking m block by block reads each
    block from cache for its sums, which a pass over the whole path for its
    maximum would not.
    """
    s1 = s2 = lag = 0
    for start in range(0, len(xs), MOMENT_BLOCK):
        c = xs[start:start + MOMENT_BLOCK + 1]
        b = c[:MOMENT_BLOCK]
        top = int(c.max())
        if top * top * b.size <= INT64_MAX:
            s1 += int(np.add.reduce(b))
            s2 += int(np.einsum("i,i->", b, b))
            lag += int(np.einsum("i,i->", c[1:], c[:-1]))
        else:
            v = c.tolist()
            w = v[:b.size]
            s1 += sum(w)
            s2 += sum(map(operator.mul, w, w))
            lag += sum(map(operator.mul, v, v[1:]))
    return s1, s2, lag


def check_moments(model: INARModel, sample: SeriesSample) -> VerificationReport:
    """Three-way moment comparison.

    Closed forms vs the moments of the law's parts at MOMENT_REL_TOL: the
    innovation's decomposition and the marginal's geometric form (an iid
    law's decomposition), each through decompose.central_moments, so the
    derived residues and roots, and the marginal's pmf, are checked against
    the stationarity identity's moments. Empirical values from the sample
    vs closed forms within MOMENT_N_SE standard errors, inflated by the effective
    sample size factor (1+alpha)/(1-alpha) for the autocorrelated series. The
    empirical mean, variance, dispersion and lag-1 autocorrelation are each one
    division of exact integer sums of the path (_path_sums), so each is the
    correctly rounded value of its exact sample statistic.
    """
    checks = []
    mom = model.moments

    pm_mean, pm_var, _, _ = central_moments(model.decomposition.parts())
    checks.append(_check("innovation_mean_pmf_vs_closed", pm_mean, mom.innovation_mean,
                         MOMENT_REL_TOL * max(1.0, abs(mom.innovation_mean))))
    checks.append(_check("innovation_var_pmf_vs_closed", pm_var, mom.innovation_var,
                         MOMENT_REL_TOL * max(1.0, abs(mom.innovation_var))))
    mg_mean, mg_m2, mg_m3, mg_m4 = _marginal_central_moments(model)
    checks.append(_check("marginal_mean_pmf_vs_closed", mg_mean, mom.marginal_mean,
                         MOMENT_REL_TOL * max(1.0, abs(mom.marginal_mean))))
    checks.append(_check("marginal_var_pmf_vs_closed", mg_m2, mom.marginal_var,
                         MOMENT_REL_TOL * max(1.0, abs(mom.marginal_var))))

    xs = sample.values
    n = len(xs)
    alpha = model.alpha
    ess = _ess_factor(alpha)
    s1, s2, lag = _path_sums(xs)
    # each statistic is one int / int division of exact sums, so correctly rounded
    emp_mean = s1 / n
    spread = n * s2 - s1 * s1  # n^2 times the sample variance
    emp_var = spread / (n * n)
    # separate roots: a subnormal variance times ess / n would underflow to 0
    root_ess_n = math.sqrt(ess / n)
    se_mean = math.sqrt(mom.marginal_var) * root_ess_n
    se_var = math.sqrt(max(mg_m4 - mg_m2**2, 0.0)) * root_ess_n
    checks.append(_check("marginal_mean_empirical", emp_mean, mom.marginal_mean,
                         MOMENT_N_SE * se_mean))
    # emp_var is centred on the sample mean, so it also errs by (xbar - mu)^2,
    # which the mean gate above bounds by (MOMENT_N_SE se_mean)^2
    checks.append(_check("marginal_var_empirical", emp_var, mom.marginal_var,
                         MOMENT_N_SE * se_var + (MOMENT_N_SE * se_mean) ** 2))
    # an all-zero sample (expected at a tiny mean) has no empirical dispersion or
    # autocorrelation: omit both, as lag-1 is for n <= 2; the mean check still runs
    if s1 == 0:
        return VerificationReport(tuple(checks))
    disp = mom.marginal_dispersion
    mean, var = mom.marginal_mean, mom.marginal_var
    # delta method for var/mean including the mean-variance covariance m3/n
    g_var = (se_var / mean) ** 2 + (var * se_mean / mean**2) ** 2 \
        - 2.0 * var / mean**3 * mg_m3 * ess / n
    se_disp = math.sqrt(max(g_var, 1e-30))
    checks.append(_check("marginal_dispersion_empirical", spread / (n * s1), disp,
                         MOMENT_N_SE * se_disp))
    # a constant sample has no spread and no autocorrelation: omit it there too
    if n > 2 and spread > 0:
        # n^2 times the centred lag-1 sum over n times the centred sum of squares
        ends = int(xs[0]) + int(xs[-1])
        centred_lag = n * n * lag - n * s1 * (2 * s1 - ends) + (n - 1) * s1 * s1
        checks.append(_check("lag1_autocorrelation_empirical", centred_lag / (n * spread),
                             alpha, MOMENT_N_SE * (1.0 + 2.0 * alpha) / math.sqrt(n)))
    return VerificationReport(tuple(checks))


def check_tail_quality(d: InnovationDistribution) -> VerificationReport:
    """Relative error of the smallest-root geometric tail at each m of TAIL_MS.

    Passes iff each error is below the one before it or 0 (exact once the other
    terms fall below rounding); vacuously for one term, where it is exact.
    """
    if len(d.decomposition.terms) < 2:
        return VerificationReport(
            (CheckResult("tail_error_strictly_decreasing", True, 0.0, 0.0, 0.0),))
    errs = []
    for m in TAIL_MS:
        exact = d.pmf(m)
        approx = tail_geometric_approx(d.decomposition, m)
        errs.append(abs(approx - exact) / abs(exact) if exact else 0.0 if not approx else math.inf)
    decreasing = all(b < a or b == 0.0 for a, b in zip(errs, errs[1:]))
    checks = [CheckResult("tail_error_strictly_decreasing", bool(decreasing),
                          errs[2], 0.0, errs[0])]
    for m, e in zip(TAIL_MS, errs):
        checks.append(CheckResult(f"tail_rel_error_m{m}", bool(decreasing), e, 0.0,
                                  math.inf))
    return VerificationReport(tuple(checks))


def run_all_checks(model: INARModel, sample: SeriesSample,
                   grid_points: int = 50, tol: float = 1e-10) -> VerificationReport:
    """The full suite behind the CLI verify subcommand."""
    report = check_pgf_identity(model, grid_points, tol)
    report = report.merged(check_pmf_validity(model.innovation, tol))
    report = report.merged(check_cross_method(model, tol=tol))
    report = report.merged(check_moments(model, sample))
    report = report.merged(check_tail_quality(model.innovation))
    return report

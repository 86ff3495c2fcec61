"""Verification oracles: every claim the library makes is checked here.

Checks never raise on failure; they return VerificationReport values whose
entries carry (observed, expected, tolerance) so the CLI can serialize them
and CI can gate on the overall flag. Each check is falsifiable: perturbing a
correct model makes it fail (the test suite injects such faults).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import INARModel
from .decompose import (CLAMP_TOL, InnovationDistribution, hurdle_pmf, pmf_recursive,
                        tail_dominance_margin, tail_geometric_approx)
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
    terms), so a perturbed residue or root shows up as a deviation."""
    spec = model.spec
    phi_x = model.law.rf if spec.marginal is None else spec.marginal.pgf
    worst = 0.0
    for i in range(grid_points):
        s = 0.99 * i / (grid_points - 1) if grid_points > 1 else 0.0
        lhs = phi_x(s)
        rhs = phi_x(spec.thinning.pgf(s)) * model.innovation.pgf_value(s)
        worst = max(worst, abs(lhs - rhs))
    return VerificationReport((_check("pgf_identity_max_abs_deviation", worst, 0.0, tol),))


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
    dec = model.innovation.decomposition
    worst_rd = max(abs(dec.pmf(m) - recursive[m]) for m in range(n + 1))
    worst_h = max(abs(hurdle_pmf(model.hurdle, m) - recursive[m]) for m in range(n + 1))
    return VerificationReport((_check("recursion_vs_decomposition", worst_rd, 0.0, tol),
                               _check("recursion_vs_hurdle_form", worst_h, 0.0, tol)))


MOMENT_BLOCK = 1 << 16  # samples per block of check_moments' centered sums
MOMENT_REL_TOL = 1e-7  # check_moments: closed forms vs pmf sums, relative
MOMENT_N_SE = 4.0  # check_moments: empirical vs closed forms, in standard errors
TAIL_MS = (5, 10, 20)  # the m at which check_tail_quality compares the tail
CROSS_METHOD_TERMS = 200  # check_cross_method compares pmf values m = 0..this


def _ess_factor(alpha: float) -> float:
    return (1.0 + alpha) / (1.0 - alpha)


def _marginal_central_moments(model: INARModel) -> tuple[float, float, float, float]:
    """mean, m2, m3, m4 of the marginal law, summed to mean + 40 sd + 60 and on
    until the geometric tail, whose ratio is 1 / R for the pole R = 1 + t (the
    marginal's, or an iid law's smallest), is below 1e-20: from k = log(1e20) / log1p(t)."""
    mean, var = model.moments.marginal_mean, model.moments.marginal_var
    marginal = model.spec.marginal
    t = marginal.offsets()[1] if marginal else min(model.law.poles, default=math.inf)
    span = max(int(mean + 40.0 * math.sqrt(var) + 60), math.ceil(math.log(1e20) / math.log1p(t)))
    ks = np.arange(span + 1)
    ps = np.array([model.marginal_pmf(int(k)) for k in ks])
    mu = float(ps @ ks)
    centered = ks - mu
    m2 = float(ps @ centered**2)
    m3 = float(ps @ centered**3)
    m4 = float(ps @ centered**4)
    return mu, m2, m3, m4


def check_moments(model: INARModel, sample: SeriesSample) -> VerificationReport:
    """Three-way moment comparison.

    Closed forms vs pmf sums at MOMENT_REL_TOL; empirical values from the sample
    vs closed forms within MOMENT_N_SE standard errors, inflated by the effective
    sample size factor (1+alpha)/(1-alpha) for the autocorrelated series.
    """
    checks = []
    mom = model.moments

    pm_mean = model.innovation.mean()
    pm_var = model.innovation.variance()
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
    emp_mean = float(xs.mean())
    # centered sums of squares and lag-1 products by blocks, each one step into the next
    ss = lag = 0.0
    for start in range(0, n, MOMENT_BLOCK):
        c = xs[start:start + MOMENT_BLOCK + 1] - emp_mean
        ss += float(c[:MOMENT_BLOCK] @ c[:MOMENT_BLOCK])
        lag += float(c[1:] @ c[:-1])
    emp_var = ss / n
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
    if emp_mean == 0.0:
        return VerificationReport(tuple(checks))
    disp = mom.marginal_dispersion
    mean, var = mom.marginal_mean, mom.marginal_var
    # delta method for var/mean including the mean-variance covariance m3/n
    g_var = (se_var / mean) ** 2 + (var * se_mean / mean**2) ** 2 \
        - 2.0 * var / mean**3 * mg_m3 * ess / n
    se_disp = math.sqrt(max(g_var, 1e-30))
    checks.append(_check("marginal_dispersion_empirical", emp_var / emp_mean, disp,
                         MOMENT_N_SE * se_disp))
    # a constant sample has ss = 0 and no autocorrelation: omit it there too
    if n > 2 and ss > 0.0:
        checks.append(_check("lag1_autocorrelation_empirical", lag / ss, alpha,
                             MOMENT_N_SE * (1.0 + 2.0 * alpha) / math.sqrt(n)))
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

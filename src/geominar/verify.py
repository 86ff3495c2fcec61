"""Verification oracles: every claim the library makes is checked here.

Checks never raise on failure; they return VerificationReport values whose
entries carry (observed, expected, tolerance) so the CLI can serialize them
and CI can gate on the overall flag. Each check is falsifiable: perturbing a
correct model makes it fail (the test suite injects such faults).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .catalog import INARModel
from .decompose import InnovationDistribution, hurdle_pmf, pmf_recursive, tail_geometric_approx
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
        return {"overall": self.overall, "checks": [asdict(c) for c in self.checks]}


def _check(name: str, observed: float, expected: float, tol: float) -> CheckResult:
    return CheckResult(name, bool(abs(observed - expected) <= tol),
                       float(observed), float(expected), float(tol))


def check_pgf_identity(model: INARModel, grid_points: int = 50,
                       tol: float = 1e-10) -> VerificationReport:
    """Stationarity identity phi_X(s) = phi_X(phi_N(s)) * phi_e(s) on a grid.

    phi_e is evaluated from the derived decomposition (atoms plus residue
    terms), so a perturbed residue or root shows up as a deviation.
    """
    worst = 0.0
    for i in range(grid_points):
        s = 0.99 * i / (grid_points - 1) if grid_points > 1 else 0.0
        lhs = model.marginal_rf(s)
        rhs = model.marginal_rf(model.counting_rf(s)) * model.innovation.pgf_value(s)
        worst = max(worst, abs(lhs - rhs))
    return VerificationReport((_check("pgf_identity_max_abs_deviation", worst, 0.0, tol),))


def check_pmf_validity(d: InnovationDistribution, tol: float = 1e-10) -> VerificationReport:
    """Nonnegativity, total mass, and the signed-tail dominance certificate."""
    checks = []
    worst = min(d.pmf_table) if d.pmf_table else 0.0
    checks.append(_check("pmf_min_entry", min(worst, 0.0), 0.0, 1e-12))
    # the table alone: with its exact tail the sum is 1 however short the table
    checks.append(_check("pmf_total_mass", d.table_mass(), 1.0, tol))
    terms = d.decomposition.terms
    if len(terms) >= 2 and any(r < 0.0 for r, _ in terms):
        rho_min, s_min = terms[0]
        bound = sum(abs(r) * (s_min / s) ** (d.truncation + 2) for r, s in terms[1:])
        checks.append(_check("tail_dominance_margin", min(rho_min - bound, 0.0), 0.0, 1e-12))
    return VerificationReport(tuple(checks))


def check_cross_method(model: INARModel, n: int = 200,
                       tol: float = 1e-10) -> VerificationReport:
    """Entrywise agreement of the recursion with the residue decomposition
    and with its hurdle view, for m <= n."""
    recursive = pmf_recursive(model.innovation_rf, n)
    dec = model.innovation.decomposition
    worst_rd = max(abs(dec.pmf(m) - recursive[m]) for m in range(n + 1))
    worst_h = max(abs(hurdle_pmf(model.hurdle, m) - recursive[m]) for m in range(n + 1))
    return VerificationReport((_check("recursion_vs_decomposition", worst_rd, 0.0, tol),
                               _check("recursion_vs_hurdle_form", worst_h, 0.0, tol)))


MOMENT_BLOCK = 1 << 16  # samples per block of check_moments' centered sums


def _ess_factor(alpha: float) -> float:
    return (1.0 + alpha) / (1.0 - alpha)


def _marginal_central_moments(model: INARModel) -> tuple[float, float, float, float]:
    """mean, m2, m3, m4 of the marginal law, summed to mean + 40 sd + 60 and on
    until the geometric tail, whose ratio is 1 / the pgf's radius R, is below
    1e-20: R^-k < 1e-20 from k = log(1e20) / log(R)."""
    mean = model.moments.marginal_mean
    var = model.moments.marginal_var
    span = max(int(mean + 40.0 * math.sqrt(var) + 60),
               math.ceil(math.log(1e20) / math.log(model.marginal_rf.radius)))
    ks = np.arange(span + 1)
    ps = np.array([model.marginal_pmf(int(k)) for k in ks])
    mu = float(ps @ ks)
    centered = ks - mu
    m2 = float(ps @ centered**2)
    m3 = float(ps @ centered**3)
    m4 = float(ps @ centered**4)
    return mu, m2, m3, m4


def check_moments(model: INARModel, sample: SeriesSample,
                  rel_tol: float = 1e-7, n_se: float = 4.0) -> VerificationReport:
    """Three-way moment comparison.

    Closed forms vs pmf sums at rel_tol; empirical values from the sample vs
    closed forms within n_se standard errors, inflated by the effective
    sample size factor (1+alpha)/(1-alpha) for the autocorrelated series.
    """
    checks = []
    mom = model.moments

    pm_mean = model.innovation.mean()
    pm_var = model.innovation.variance()
    checks.append(_check("innovation_mean_pmf_vs_closed", pm_mean, mom.innovation_mean,
                         rel_tol * max(1.0, abs(mom.innovation_mean))))
    checks.append(_check("innovation_var_pmf_vs_closed", pm_var, mom.innovation_var,
                         rel_tol * max(1.0, abs(mom.innovation_var))))
    mg_mean, mg_m2, mg_m3, mg_m4 = _marginal_central_moments(model)
    checks.append(_check("marginal_mean_pmf_vs_closed", mg_mean, mom.marginal_mean,
                         rel_tol * max(1.0, abs(mom.marginal_mean))))
    checks.append(_check("marginal_var_pmf_vs_closed", mg_m2, mom.marginal_var,
                         rel_tol * max(1.0, abs(mom.marginal_var))))

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
                         n_se * se_mean))
    # emp_var is centred on the sample mean, so it also errs by (xbar - mu)^2,
    # which the mean gate above bounds by (n_se se_mean)^2
    checks.append(_check("marginal_var_empirical", emp_var, mom.marginal_var,
                         n_se * se_var + (n_se * se_mean) ** 2))
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
                         n_se * se_disp))
    # a constant sample has ss = 0 and no autocorrelation: omit it there too
    if n > 2 and ss > 0.0:
        checks.append(_check("lag1_autocorrelation_empirical", lag / ss, alpha,
                             n_se * (1.0 + 2.0 * alpha) / math.sqrt(n)))
    return VerificationReport(tuple(checks))


def check_tail_quality(d: InnovationDistribution, m_start: int = 5) -> VerificationReport:
    """Relative error of the smallest-root geometric tail at m, 2m, 4m.

    Passes iff each error is below the one before it or 0 (exact once the other
    terms fall below rounding); vacuously for one term, where it is exact.
    """
    if len(d.decomposition.terms) < 2:
        return VerificationReport(
            (CheckResult("tail_error_strictly_decreasing", True, 0.0, 0.0, 0.0),))
    errs = []
    for m in (m_start, 2 * m_start, 4 * m_start):
        exact = d.pmf(m)
        approx = tail_geometric_approx(d.decomposition, m)
        errs.append(abs(approx - exact) / abs(exact) if exact else 0.0 if not approx else math.inf)
    decreasing = all(b < a or b == 0.0 for a, b in zip(errs, errs[1:]))
    checks = [CheckResult("tail_error_strictly_decreasing", bool(decreasing),
                          errs[2], 0.0, errs[0])]
    for m, e in zip((m_start, 2 * m_start, 4 * m_start), errs):
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

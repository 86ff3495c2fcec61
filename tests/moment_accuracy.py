"""Worst relative error of each family's derived innovation mean and variance.

At the seeded extreme points of test_catalog._extreme_points(), the moments
of the built law's decomposition (decompose.central_moments of its parts,
with no table) are compared with exact Fraction derivatives of its pgf at
s = 1 (oracles.exact_moments). One line per family: the worst relative
error of either moment. Informational: it always exits 0, so that a drift
in accuracy shows in the logs without gating.

    PYTHONPATH=src python tests/moment_accuracy.py
"""
from collections import defaultdict

from geominar.catalog import build_model
from geominar.decompose import central_moments

from oracles import exact_moments
from test_catalog import _extreme_points

if __name__ == "__main__":
    worst, points = defaultdict(float), defaultdict(int)
    for name, params in _extreme_points():
        points[name] += 1
        mean, var, _, _ = central_moments(build_model(name, **params).decomposition.parts())
        for got, want in zip((mean, var), exact_moments(name, **params)):
            worst[name] = max(worst[name], abs(got - want) / abs(want))
    for name in points:
        print(f"{name:15s} worst relative error {worst[name]:.2e} ({points[name]} points)")

"""Worst relative error of each family's derived innovation mean and variance.

At the seeded extreme points of test_catalog._extreme_points(), the series
moments of the built law (InnovationDistribution.mean() and variance()) are
compared with exact Fraction derivatives of its pgf at s = 1
(oracles.exact_moments). One line per family: the worst relative error of
either moment, and how many points were refused. Informational: it always
exits 0, so that a drift in accuracy shows in the logs without gating.

    PYTHONPATH=src python tests/moment_accuracy.py
"""
from collections import defaultdict

from geominar.catalog import build_model
from geominar.errors import GeominarError

from oracles import exact_moments
from test_catalog import _extreme_points

if __name__ == "__main__":
    worst, points, refused = defaultdict(float), defaultdict(int), defaultdict(int)
    for name, params in _extreme_points():
        points[name] += 1
        try:
            law = build_model(name, **params).innovation
        except GeominarError:
            refused[name] += 1
            continue
        for got, want in zip((law.mean(), law.variance()), exact_moments(name, **params)):
            worst[name] = max(worst[name], abs(got - want) / abs(want))
    for name in points:
        print(f"{name:15s} worst relative error {worst[name]:.2e} "
              f"({points[name]} points, {refused[name]} refused)")

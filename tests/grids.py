"""Parameter grids shared by the property and acceptance tests.

Each grid has at least 27 points and stays strictly inside the model's
validity region (checked once in test_catalog).
"""

GRIDS = {
    "ginar": [
        {"theta": th, "alpha": al}
        for th in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
        for al in (0.05, 0.2, 0.4, 0.6, 0.8)
    ],
    "nginar": [
        {"mu": mu, "alpha": f * mu / (1.0 + mu)}
        for mu in (0.5, 1.0, 2.0, 4.0)
        for f in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95)
    ],
    "zmg": [
        {"mu": mu, "k": -1.0 / mu + f * (1.0 + 1.0 / mu)}
        for mu in (0.5, 1.0, 2.0)
        for f in (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.7, 0.85, 0.95)
    ],
    "two-param": [
        {"r": r, "m": f * (1.0 + r)}
        for r in (0.5, 1.0, 2.0)
        for f in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    ],
    "rho-geo-bin": [
        {"mu": mu, "rho": rho, "alpha": al}
        for mu in (0.5, 1.0, 2.0)
        for rho in (0.1, 0.2, 0.3)
        for al in (0.1, 0.3, 0.5)
    ],
    "hurdle-geo-bin": [
        {"mu": f * rho / (1.0 + rho), "rho": rho, "alpha": al}
        for rho in (0.3, 0.5, 0.8)
        for f in (0.3, 0.6, 0.9)
        for al in (0.1, 0.4, 0.7)
    ],
    # f = 0.75 would hit alpha = 1 - rho at (mu=2, rho=0.5), where the
    # second mixture component has exactly zero weight and the quotient
    # degenerates to a single geometric; keep the grid off that line
    "rho-geo-nb": [
        {"mu": mu, "rho": rho, "alpha": f * mu / (1.0 + mu)}
        for mu in (0.5, 1.0, 2.0)
        for rho in (0.1, 0.3, 0.5)
        for f in (0.25, 0.5, 0.8)
    ],
    "hurdle-geo-nb": [
        {"mu": mu, "rho": rho, "alpha": al}
        for mu in (0.2, 0.5, 0.8)
        for rho in (0.3, 0.5, 0.8)
        for al in (0.05, 0.1, 0.2)
    ],
}

# one canonical point per model for the Monte Carlo and variance-arbiter tests
CANONICAL = {
    "ginar": {"theta": 0.5, "alpha": 0.5},
    "nginar": {"mu": 1.0, "alpha": 0.3},
    "zmg": {"mu": 1.0, "k": 0.3},
    "two-param": {"r": 2.0, "m": 1.0},
    "rho-geo-bin": {"mu": 1.0, "rho": 0.2, "alpha": 0.3},
    "hurdle-geo-bin": {"mu": 0.25, "rho": 0.5, "alpha": 0.3},
    "rho-geo-nb": {"mu": 1.0, "rho": 0.2, "alpha": 0.3},
    "hurdle-geo-nb": {"mu": 0.3, "rho": 0.5, "alpha": 0.2},
}

# the large-mean points of the wide-tables benchmark workload: pmf tables of
# 27k-322k rows at the default truncation mass
WIDE = [
    ("ginar", {"theta": 1e-4, "alpha": 0.5}),
    ("nginar", {"mu": 1e4, "alpha": 0.9}),
    ("rho-geo-nb", {"mu": 1e3, "rho": 0.2, "alpha": 0.5}),
    ("zmg", {"mu": 1e3, "k": 0.3}),
    ("two-param", {"r": 1e3, "m": 500.0}),
]

"""Contract-menu incentives and coverage-aware aggregation for federated learning.

The package measures how well a client's local data covers the feature
space, prices a menu of fee/reward contracts that makes quality types
self-select truthfully, simulates a contracting round, and compares
reward-weighted against uniform aggregation in a small end-to-end
federated training experiment.  Each name is imported from its module,
e.g. ``from fedpact.contracts import solve_optimal_menu``.
"""

__version__ = "0.1.0"

import math
import os
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from mimobc import region

# pyproject's `pythonpath = ["src"]` reaches only the pytest process; the
# tests that start `python -m mimobc.cli` or a demo script as a child
# process hand it the package through the inherited PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


# How far ``trace_boundary`` may leave a point of the boundary, derived from
# its stop rules. A one-link chain (two active users) stops at a
# projected-gradient residual r <= region._GRAD_TOL in the whitened chain
# coordinates (its other stops are where round-off hides any further gain).
# Where the objective is concave between the stopping point and the
# maximum, w.R falls short by at most r (D + |grad|): D = sqrt(c n) bounds
# the diameter of the chain set of c links, and each link's gradient, half a
# difference of two weighted inverses (Q + N)^-1 with
# |N^-1| <= kappa = lambda_max(S) / lambda_min(Sigma_1), has Frobenius norm
# at most sqrt(n) w_max kappa / 2. A longer chain's barrier solve stops
# within 2 region._GAP_TOL nats of the maximum where the objective is
# concave (see ``region._barrier``), a duality gap that no scale of the
# channel moves.
#
# A rate moves to first order in the distance to the maximum, w.R only to
# second, so rates get their own bound. Where the channel decouples, moving
# the layer boundary between users lo < hi in one direction by d costs
# G^2 (1/w_lo - 1/w_hi) d^2 / 4 of w.R, G their common marginal utility
# there, and moves their rates by G d / (2 w_lo) and G d / (2 w_hi). A user
# has at most 2n such boundaries, so by Cauchy-Schwarz its rate moves at most
# sqrt(2 n B rho), B the bound on w.R and rho the largest
# w_hi / (w_lo (w_hi - w_lo)) over pairs of active users; G cancels. rho is
# finite where the active weights differ, which is where the optimum is
# unique.
#
# Both bounds add the round-off of the rate tuple's 2K log-dets, computed
# at the split under test: a Cholesky log-det of M is off by about
# n eps kappa(M), so R_k = 1/2 [ln|C_k + Sigma_k| - ln|C_{k-1} + Sigma_k|]
# is off by n eps (kappa(C_k + Sigma_k) + kappa(C_{k-1} + Sigma_k)) / 2, and
# w.R by the w-weighted sum of those.
def _rate_round_off(ch, split):
    """Round-off bound of each rate of ``rate_tuple(ch, split)``."""
    C = np.cumsum(split.stack, axis=0)
    below = np.concatenate([np.zeros_like(C[:1]), C[:-1]])
    noise = np.stack(ch.noise_covs)
    kappa = np.linalg.cond(np.concatenate([C + noise, below + noise]))
    K = len(ch.noise_covs)
    return ch.dim * np.finfo(float).eps * (kappa[:K] + kappa[K:]) / 2.0


def _trace_bounds(ch, w, split):
    """(bound on |w.R - WSR*|, bound on each |R_k - R*_k|) at weights w,
    for the split traced on ch."""
    w = np.asarray(w, dtype=float)
    active = region._active_users(w)
    c, n = len(active) - 1, ch.dim
    if c >= 2:
        b_wsr = 2.0 * region._GAP_TOL
    else:
        kappa = np.linalg.eigvalsh(ch.input_cap)[-1] / np.linalg.eigvalsh(ch.noise_covs[0])[0]
        b_wsr = region._GRAD_TOL * math.sqrt(c * n) * (1.0 + 0.5 * w.max() * kappa)
    rho = max((w[j] / (w[i] * (w[j] - w[i])) for i, j in combinations(active, 2)), default=0.0)
    round_off = _rate_round_off(ch, split)
    return b_wsr + float(w @ round_off), math.sqrt(2 * n * b_wsr * rho) + float(round_off.max())


@pytest.fixture
def trace_bounds():
    return _trace_bounds

"""Seeded generators for test channels, mixture sources and hierarchies.

Scales are kept moderate (eigenvalues around 1, means within a couple of
standard deviations) so that quadrature-backed checks stay far inside their
tolerances and the f(eps) tail cap is met at eps = 1e3.
"""

from __future__ import annotations

import numpy as np

from . import matrices as mat
from .model import BroadcastChannel, MarkovHierarchy, MixtureSource, aggregate_covariance

__all__ = [
    "rng_for",
    "random_spd",
    "random_mixture",
    "random_channel",
    "random_hierarchy",
    "admissible_channel_for",
    "scalar_channel",
    "two_component_scalar_source",
    "gaussian_source",
    "admissible_mixture_for",
]


def rng_for(*key: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def random_spd(rng: np.random.Generator, n: int, eig_lo: float = 0.5, eig_hi: float = 2.0) -> np.ndarray:
    """SPD matrix with eigenvalues in [eig_lo, eig_hi]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(eig_lo, eig_hi, size=n)
    return mat.symmetrize((Q * w) @ Q.T)


def random_mixture(
    rng: np.random.Generator,
    n: int,
    m: int,
    mean_scale: float = 1.0,
    eig_lo: float = 0.5,
    eig_hi: float = 2.0,
) -> MixtureSource:
    w = rng.uniform(0.2, 1.0, size=m)
    w /= w.sum()
    means = rng.uniform(-mean_scale, mean_scale, size=(m, n))
    covs = np.stack([random_spd(rng, n, eig_lo, eig_hi) for _ in range(m)])
    return MixtureSource(weights=w, means=means, comp_covs=covs)


def random_channel(rng: np.random.Generator, n: int, num_users: int) -> BroadcastChannel:
    """Valid degraded channel: PSD increments on top of an SPD base."""
    covs = [random_spd(rng, n, 0.5, 1.5)]
    for _ in range(num_users - 1):
        covs.append(covs[-1] + random_spd(rng, n, 0.2, 1.0))
    S = random_spd(rng, n, 0.8, 2.0)
    return BroadcastChannel(noise_covs=tuple(covs), input_cap=S)


def admissible_channel_for(
    source_cov: np.ndarray, rng: np.random.Generator, num_users: int
) -> BroadcastChannel:
    """Channel whose input cap strictly dominates the given covariance."""
    n = source_cov.shape[0]
    covs = [random_spd(rng, n, 0.5, 1.5)]
    for _ in range(num_users - 1):
        covs.append(covs[-1] + random_spd(rng, n, 0.2, 1.0))
    S = source_cov + random_spd(rng, n, 0.05, 0.5)
    return BroadcastChannel(noise_covs=tuple(covs), input_cap=S)


def random_hierarchy(
    rng: np.random.Generator,
    n: int,
    alphabet_sizes: tuple[int, ...],
    mean_scale: float = 1.0,
) -> MarkovHierarchy:
    """Random chain U_K -> ... -> U_2 -> X; ``alphabet_sizes`` runs from the
    finest auxiliary (U_2) to the coarsest (U_K)."""
    base_m = alphabet_sizes[0]
    top = rng.uniform(0.2, 1.0, size=alphabet_sizes[-1])
    top /= top.sum()
    tables = []
    for fine_m, coarse_m in zip(alphabet_sizes[:-1], alphabet_sizes[1:]):
        T = rng.uniform(0.1, 1.0, size=(fine_m, coarse_m))
        T /= T.sum(axis=0, keepdims=True)
        tables.append(T)
    induced = top.copy()
    for T in reversed(tables):
        induced = T @ induced
    means = rng.uniform(-mean_scale, mean_scale, size=(base_m, n))
    covs = np.stack([random_spd(rng, n, 0.5, 2.0) for _ in range(base_m)])
    base = MixtureSource(weights=induced, means=means, comp_covs=covs)
    return MarkovHierarchy(base=base, tables=tuple(tables), top_weights=top)


def scalar_channel(S: float = 1.0, sigmas=(1.0, 2.0)) -> BroadcastChannel:
    return BroadcastChannel(
        noise_covs=tuple(np.array([[s]]) for s in sigmas),
        input_cap=np.array([[S]]),
    )


def two_component_scalar_source() -> MixtureSource:
    """The hand-checked fixture: p = (1/2, 1/2), variances (1, 3)."""
    return MixtureSource(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [0.5]]),
        comp_covs=np.array([[[1.0]], [[3.0]]]),
    )


def gaussian_source(cov: np.ndarray, mean: np.ndarray | None = None) -> MixtureSource:
    """Single-component source: X Gaussian, auxiliary degenerate."""
    n = cov.shape[0]
    mu = np.zeros((1, n)) if mean is None else np.asarray(mean, dtype=float).reshape(1, n)
    return MixtureSource(weights=np.array([1.0]), means=mu, comp_covs=cov[None])


def admissible_mixture_for(
    ch: BroadcastChannel, rng: np.random.Generator, m: int, mean_scale: float = 1.0
) -> MixtureSource:
    """Mixture scaled so its aggregate covariance sits strictly below the cap."""
    src = random_mixture(rng, ch.dim, m, mean_scale)
    cov = aggregate_covariance(src)
    root_inv = mat.inv_pd(mat.sqrt_psd(cov))
    # largest alpha with alpha * cov <= 0.9 * S
    w = np.linalg.eigvalsh(root_inv @ ch.input_cap @ root_inv)
    alpha = 0.9 * float(w[0])
    if alpha < 1.0:
        scale = np.sqrt(alpha)
        src = MixtureSource(
            weights=src.weights,
            means=src.means * scale,
            comp_covs=src.comp_covs * alpha,
        )
    return src

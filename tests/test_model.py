import math
import re

import numpy as np
import pytest

from mimobc import matrices as mat
from mimobc.errors import DimensionMismatchError, InputFormatError, NotPsdError
from mimobc.fixtures import random_channel, random_hierarchy, random_mixture, rng_for
from mimobc.model import (
    LOG_2PI_E,
    BroadcastChannel,
    MarkovHierarchy,
    MixtureSource,
    aggregate_covariance,
    channel_from_dict,
    coarsen,
    gaussian_entropy,
    hierarchy_from_dict,
    source_from_dict,
)


def _chan(sig1, sig2, S):
    return BroadcastChannel(
        noise_covs=(np.atleast_2d(sig1), np.atleast_2d(sig2)),
        input_cap=np.atleast_2d(S),
    )


class TestValidateChannel:
    """The constructor accepts exactly the degraded channels with a positive
    definite first noise and cap, and keeps them that way."""

    def test_scalar_pass(self):
        assert _chan(1.0, 2.0, 1.0).num_users == 2

    def test_indefinite_increment_fails(self):
        with pytest.raises(NotPsdError) as info:
            _chan(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]), np.eye(2))
        assert str(info.value) == (
            "channel validation failed: min_eig(noise_cov_2 - noise_cov_1)"
        )

    def test_identity_chain_passes(self):
        assert _chan(np.eye(2), 2 * np.eye(2), 3 * np.eye(2)).dim == 2

    @pytest.mark.parametrize("which", [0, 2])
    def test_a_stack_in_place_of_a_matrix_rejected(self, which):
        # symmetrize takes stacks; a channel's matrices stay one each
        mats = [np.eye(1), 2 * np.eye(1), np.eye(1)]
        mats[which] = mats[which][None]
        with pytest.raises(DimensionMismatchError, match=r"expected a square matrix, got shape \(1, 1, 1\)"):
            BroadcastChannel(noise_covs=tuple(mats[:2]), input_cap=mats[2])

    def test_psd_increments_always_pass(self):
        for seed in range(10):
            assert random_channel(rng_for(31, seed), 3, 3).num_users == 3

    @pytest.mark.parametrize("sig1, S, label", [
        (np.diag([1.0, 0.0]), np.eye(2), "min_eig(noise_cov_1)"),
        (np.eye(2), np.zeros((2, 2)), "min_eig(input_cap)"),
    ], ids=["singular-first-noise", "zero-cap"])
    def test_non_positive_definite_rejected(self, sig1, S, label):
        with pytest.raises(NotPsdError, match=rf"^channel validation failed: {re.escape(label)}$"):
            _chan(sig1, 2 * np.eye(2), S)

    @pytest.mark.parametrize("scale", [1e-12, 1e-10, 1.0, 1e6])
    def test_slack_is_relative_to_the_noise(self, scale):
        # the slack is 1e-9 times the largest noise eigenvalue, so the rule
        # reads the same at every scale
        assert _chan(scale * np.eye(2), 2 * scale * np.eye(2), scale * np.eye(2)).dim == 2
        with pytest.raises(NotPsdError, match=r"^channel validation failed: min_eig\(noise_cov_1\)$"):
            _chan(scale * np.diag([1.0, 1e-10]), 2 * scale * np.eye(2), scale * np.eye(2))

    def test_fields_are_read_only(self):
        ch = _chan(np.eye(2), 2 * np.eye(2), 3 * np.eye(2))
        for a in (ch.input_cap, *ch.noise_covs):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0
        assert ch.input_cap[0, 0] == 3.0


class TestGaussianEntropy:
    def test_unit_scalar(self):
        assert gaussian_entropy(np.eye(1)) == pytest.approx(0.5 * LOG_2PI_E, abs=1e-13)

    def test_identity(self):
        assert gaussian_entropy(np.eye(3)) == pytest.approx(1.5 * LOG_2PI_E, abs=1e-13)

    def test_logdet_additivity(self):
        assert gaussian_entropy(np.diag([2.0, 3.0])) == pytest.approx(
            LOG_2PI_E + 0.5 * math.log(6.0), abs=1e-12
        )

    def test_strictly_increasing_in_scale(self):
        vals = [gaussian_entropy(a * np.eye(2)) for a in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAggregateCovariance:
    def test_single_component(self):
        src = MixtureSource(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        assert np.allclose(aggregate_covariance(src), np.eye(2))

    def test_mean_spread(self):
        src = MixtureSource(
            np.array([0.5, 0.5]),
            np.array([[1.0], [-1.0]]),
            np.ones((2, 1, 1)),
        )
        assert aggregate_covariance(src)[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_equal_means_no_spread(self):
        rng = rng_for(8)
        src = random_mixture(rng, 2, 3)
        src0 = MixtureSource(src.weights, np.zeros_like(src.means), src.comp_covs)
        expect = np.einsum("u,uij->ij", src0.weights, src0.comp_covs)
        assert np.allclose(aggregate_covariance(src0), expect)

    def test_dominates_within_part(self):
        for seed in range(10):
            src = random_mixture(rng_for(9, seed), 2, 3)
            within = np.einsum("u,uij->ij", src.weights, src.comp_covs)
            assert np.linalg.eigvalsh(aggregate_covariance(src) - within)[0] >= -1e-12


class TestMixtureSourceValidation:
    def test_bad_weights(self):
        with pytest.raises(InputFormatError):
            MixtureSource(np.array([0.5, 0.6]), np.zeros((2, 1)), np.ones((2, 1, 1)))

    def test_non_pd_component(self):
        with pytest.raises(NotPsdError):
            MixtureSource(np.array([1.0]), np.zeros((1, 1)), np.zeros((1, 1, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MixtureSource(np.array([1.0]), np.zeros((2, 1)), np.ones((1, 1, 1)))

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.nan, math.nan]])
    def test_non_finite_weights(self, weights):
        with pytest.raises(InputFormatError):
            MixtureSource(np.array(weights), np.zeros((2, 1)), np.ones((2, 1, 1)))

    def test_overflowing_means(self):
        # finite means whose spread overflows the covariance of X
        with pytest.raises(InputFormatError):
            MixtureSource(np.array([0.5, 0.5]), np.array([[0.0], [1e200]]), np.ones((2, 1, 1)))

    @pytest.mark.parametrize("cov", [[[1e-15]], [[1.0, 0.0], [0.0, 1e-15]], [[1e-264]]])
    def test_tiny_positive_component_accepted(self, cov):
        # positivity is the only requirement, whatever the scale
        c = np.array(cov)
        src = MixtureSource(np.array([1.0]), np.zeros((1, c.shape[0])), c[None])
        assert src.comp_covs[0].tolist() == cov


class TestHierarchy:
    def test_marginal_consistency_enforced(self):
        base = MixtureSource(
            np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 1, 1))
        )
        T = np.array([[1.0, 0.2], [0.0, 0.8]])
        with pytest.raises(InputFormatError):
            MarkovHierarchy(base=base, tables=(T,), top_weights=np.array([0.5, 0.5]))

    def test_coarsen_identity_at_base(self):
        h = random_hierarchy(rng_for(12), 2, (3, 2))
        joint = coarsen(h, 2)
        # one component per symbol, with the base weights themselves, not
        # the chain marginal of U_2
        assert np.array_equal(joint, np.diag(h.base.weights))

    def test_deterministic_merge_adds_weights(self):
        base = MixtureSource(
            np.array([0.2, 0.3, 0.5]),
            np.zeros((3, 1)),
            np.ones((3, 1, 1)),
        )
        # U_3 merges symbols {0,1} and keeps {2}
        T = np.array([[0.4, 0.0], [0.6, 0.0], [0.0, 1.0]])
        h = MarkovHierarchy(base=base, tables=(T,), top_weights=np.array([0.5, 0.5]))
        joint = coarsen(h, 3)
        assert joint.shape == (3, 2)
        assert np.allclose(joint.sum(axis=0), [0.5, 0.5])
        assert np.allclose(joint[:, 0] / joint[:, 0].sum(), [0.4, 0.6, 0.0])
        assert np.array_equal(joint[:, 1] / joint[:, 1].sum(), [0.0, 0.0, 1.0])

    def test_zero_probability_symbols_are_dropped(self):
        base = MixtureSource(np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 1, 1)))
        T = np.array([[0.5, 1.0], [0.5, 0.0]])
        h = MarkovHierarchy(base=base, tables=(T,), top_weights=np.array([1.0, 0.0]))
        assert np.array_equal(coarsen(h, 3), [[0.5], [0.5]])

    @pytest.mark.parametrize("table, top", [
        ([[0.5], [0.5]], [math.nan]),
        ([[math.nan], [math.nan]], [1.0]),
        ([[math.nan, 0.4], [0.4, math.nan]], [0.5, 0.5]),
    ])
    def test_non_finite_probabilities(self, table, top):
        base = MixtureSource(np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 1, 1)))
        with pytest.raises(InputFormatError):
            MarkovHierarchy(base=base, tables=(np.array(table),), top_weights=np.array(top))

    def test_uniform_transition_marginal(self):
        base_w = np.array([0.5, 0.5])
        T = np.full((2, 2), 0.5)
        base = MixtureSource(base_w, np.zeros((2, 1)), np.ones((2, 1, 1)))
        h = MarkovHierarchy(base=base, tables=(T,), top_weights=np.array([0.3, 0.7]))
        assert np.allclose(h.marginal(3), [0.3, 0.7])
        assert np.allclose(h.marginal(2), [0.5, 0.5])

    def test_coarse_source_preserves_law_of_x(self):
        h = random_hierarchy(rng_for(13), 1, (3, 2))
        joint = coarsen(h, 3)
        # the law of X as the mixture over U_3 of its conditional laws
        law = MixtureSource(
            weights=joint.T.ravel(),
            means=np.tile(h.base.means, (joint.shape[1], 1)),
            comp_covs=np.tile(h.base.comp_covs, (joint.shape[1], 1, 1)),
        )
        assert np.allclose(aggregate_covariance(law), aggregate_covariance(h.base), atol=1e-12)

    @pytest.mark.parametrize("seed, n, sizes", [
        (21, 1, (3, 2)), (22, 2, (3, 3, 2)), (23, 3, (4, 3, 2, 2)), (24, 1, (2, 1)),
    ])
    def test_conditional_laws_reproduce_base_weights(self, seed, n, sizes):
        h = random_hierarchy(rng_for(seed), n, sizes)
        for level in range(2, h.num_users + 1):
            joint = coarsen(h, level)
            assert joint.shape == (h.base.num_components, sizes[level - 2])
            assert np.all(joint >= 0.0)
            assert np.allclose(joint.sum(axis=0), h.marginal(level), atol=1e-14), level
            assert np.allclose(joint.sum(axis=1), h.base.weights, atol=1e-14), level

    def test_level_out_of_range(self):
        h = random_hierarchy(rng_for(14), 1, (2, 2))
        with pytest.raises(ValueError):
            coarsen(h, 4)


class TestJsonAdapters:
    def test_channel_roundtrip(self):
        d = {"dim": 1, "noise_covs": [[[1.0]], [[2.0]]], "input_cap": [[1.0]]}
        ch = channel_from_dict(d)
        assert ch.num_users == 2 and ch.dim == 1

    def test_channel_missing_field(self):
        with pytest.raises(InputFormatError):
            channel_from_dict({"noise_covs": [[[1.0]], [[2.0]]]})

    def test_source_parse(self):
        d = {
            "dim": 1,
            "weights": [0.5, 0.5],
            "means": [[0.0], [0.5]],
            "comp_covs": [[[1.0]], [[3.0]]],
        }
        src = source_from_dict(d)
        assert src.num_components == 2

    def test_source_nonfinite_rejected(self):
        d = {
            "weights": [1.0],
            "means": [[float("nan")]],
            "comp_covs": [[[1.0]]],
        }
        with pytest.raises(InputFormatError):
            source_from_dict(d)

    def test_hierarchy_parse(self):
        d = {
            "weights": [0.5, 0.5],
            "means": [[0.0], [1.0]],
            "comp_covs": [[[1.0]], [[2.0]]],
            "transitions": [[[0.5, 0.5], [0.5, 0.5]]],
            "top_weights": [0.5, 0.5],
        }
        h = hierarchy_from_dict(d)
        assert h.num_users == 3

    @pytest.mark.parametrize("transitions", [[[["x"]]], 5])
    def test_hierarchy_malformed_transitions(self, transitions):
        d = {
            "weights": [0.5, 0.5],
            "means": [[0.0], [1.0]],
            "comp_covs": [[[1.0]], [[2.0]]],
            "transitions": transitions,
            "top_weights": [1.0],
        }
        with pytest.raises(InputFormatError):
            hierarchy_from_dict(d)

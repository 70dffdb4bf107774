"""PLDA scoring of probabilistic embeddings.  Oracles: hand-evaluated closed
forms and the brute-force per-partition scorer in conftest."""

import math

import numpy as np
import pytest

from probdiar.errors import DecompositionError, DomainError, ShapeError
from probdiar.plda import (ClusterStats, DiagPlda, FullPlda, ProbEmbedding,
                           accumulate, cluster_loglik, clustering_log_posterior,
                           joint_diagonalize, pairwise_llr, segment_weight)

from .conftest import brute_force_log_posterior


def random_spd(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return (q * rng.uniform(0.5, 2.0, dim)) @ q.T


class TestValidation:
    def test_embedding_shapes(self):
        with pytest.raises(ShapeError):
            ProbEmbedding(np.zeros(3), np.zeros(2))
        with pytest.raises(ShapeError):
            ProbEmbedding(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_embedding_domain(self):
        with pytest.raises(DomainError):
            ProbEmbedding([np.nan], [1.0])
        with pytest.raises(DomainError):
            ProbEmbedding([0.0], [-1.0])

    def test_plda_domain(self):
        with pytest.raises(DomainError):
            DiagPlda([1.0, 0.0])
        with pytest.raises(DomainError):
            DiagPlda([-1.0])

    def test_full_plda_symmetry_and_pd(self):
        with pytest.raises(DomainError):
            FullPlda(np.array([[1.0, 0.5], [0.4, 1.0]]), np.eye(2))
        with pytest.raises(DomainError):
            FullPlda(np.eye(2), np.diag([1.0, -1.0]))


class TestJointDiagonalize:
    def test_identity_between_diagonal_within(self):
        v = np.array([4.0, 1.0, 0.25])
        t, diag = joint_diagonalize(FullPlda(np.eye(3), np.diag(v)))
        # rows ordered by decreasing within precision 1/v
        np.testing.assert_allclose(diag.w, np.sort(1.0 / v)[::-1], atol=1e-12)
        # T is a signed permutation of the identity
        np.testing.assert_allclose(np.abs(t), np.eye(3)[np.argsort(v)], atol=1e-12)

    def test_scalar_case(self):
        t, diag = joint_diagonalize(FullPlda(2.0 * np.eye(2), np.eye(2)))
        np.testing.assert_allclose(np.abs(t), np.eye(2) / math.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(diag.w, [2.0, 2.0], atol=1e-12)

    def test_random_pair_property(self, rng):
        for _ in range(10):
            full = FullPlda(random_spd(rng, 4), random_spd(rng, 4))
            t, diag = joint_diagonalize(full)
            np.testing.assert_allclose(t @ full.between_cov @ t.T, np.eye(4),
                                       atol=1e-8)
            tw = t @ full.within_cov @ t.T
            assert np.abs(tw - np.diag(np.diag(tw))).max() < 1e-8
            np.testing.assert_allclose(np.diag(tw), 1.0 / diag.w, atol=1e-8)
            assert np.all(np.diff(diag.w) <= 1e-12)  # decreasing order

    def test_sign_convention(self, rng):
        full = FullPlda(random_spd(rng, 4), random_spd(rng, 4))
        t, _ = joint_diagonalize(full)
        for row in t:
            assert row[np.argmax(np.abs(row))] > 0

    def test_singular_between_rejected(self):
        with pytest.raises(DecompositionError):
            joint_diagonalize(FullPlda(np.diag([1.0, 0.0]) + 0.0, np.eye(2)))


class TestSegmentWeight:
    def test_unit_case(self):
        assert segment_weight(DiagPlda([1.0]), np.array([1.0]))[0] == pytest.approx(0.5)

    def test_zero_precision(self):
        assert segment_weight(DiagPlda([3.0]), np.array([0.0]))[0] == 0.0

    def test_nan_precision(self):
        assert np.isnan(segment_weight(DiagPlda([3.0]), np.array([np.nan]))[0])

    def test_saturation(self):
        w = np.array([2.0, 5.0])
        e = segment_weight(DiagPlda(w), 1e12 * w)
        np.testing.assert_allclose(e, w, rtol=1e-10)

    def test_monotone_bounded(self, rng):
        w = rng.uniform(0.5, 3.0, 4)
        plda = DiagPlda(w)
        prev = np.zeros(4)
        for b in (0.01, 0.1, 1.0, 10.0, 1e4):
            e = segment_weight(plda, np.full(4, b))
            assert np.all(e > prev) and np.all(e < w)
            prev = e


class TestAccumulate:
    def test_empty(self):
        stats = accumulate([], DiagPlda([1.0, 1.0]))
        np.testing.assert_array_equal(stats.a_bar, [0.0, 0.0])
        np.testing.assert_array_equal(stats.b_bar, [0.0, 0.0])
        assert stats.count == 0

    def test_single_segment(self):
        stats = accumulate([ProbEmbedding([2.0], [1.0])], DiagPlda([1.0]))
        assert stats.a_bar[0] == pytest.approx(1.0)
        assert stats.b_bar[0] == pytest.approx(0.5)
        assert stats.count == 1

    def test_two_identical_double(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        emb = ProbEmbedding(rng.normal(size=3), rng.uniform(0.1, 2.0, 3))
        one = accumulate([emb], plda)
        two = accumulate([emb, emb], plda)
        np.testing.assert_allclose(two.a_bar, 2 * one.a_bar, atol=1e-15)
        np.testing.assert_allclose(two.b_bar, 2 * one.b_bar, atol=1e-15)

    def test_merge_is_addition(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        embs = [ProbEmbedding(rng.normal(size=3), rng.uniform(0.0, 2.0, 3))
                for _ in range(5)]
        whole = accumulate(embs, plda)
        parts = accumulate(embs[:2], plda) + accumulate(embs[2:], plda)
        np.testing.assert_allclose(whole.a_bar, parts.a_bar, atol=1e-12)
        np.testing.assert_allclose(whole.b_bar, parts.b_bar, atol=1e-12)
        assert whole.count == parts.count == 5


class TestClusterLoglik:
    def test_zero_stats(self):
        assert cluster_loglik(ClusterStats.zero(4)) == 0.0

    def test_pure_normalizer(self):
        assert cluster_loglik(ClusterStats([0.0], [1.0])) == pytest.approx(
            -0.5 * math.log(2.0), abs=1e-12)

    def test_with_evidence(self):
        assert cluster_loglik(ClusterStats([1.0], [1.0])) == pytest.approx(
            0.5 * (0.5 - math.log(2.0)), abs=1e-12)


class TestClusteringLogPosterior:
    def test_zero_precision_gives_prior(self, tables_by_n):
        tables = tables_by_n[4]
        plda = DiagPlda(np.ones(3))
        embs = [ProbEmbedding(np.full(3, float(t)), np.zeros(3)) for t in range(4)]
        post = clustering_log_posterior(embs, plda, tables)
        np.testing.assert_array_equal(post, tables.log_prior)

    def test_identical_high_precision_pair_prefers_merge(self, tables_by_n):
        tables = tables_by_n[2]
        plda = DiagPlda(np.array([1.5, 0.8]))
        emb = ProbEmbedding(np.array([1.0, -0.5]), 1e6 * plda.w)
        post = clustering_log_posterior([emb, emb], plda, tables)
        assert post[tables.rgs_index((1, 1))] > post[tables.rgs_index((1, 2))]

    def test_matches_brute_force(self, tables_by_n, rng):
        for n in range(2, 6):
            tables = tables_by_n[n]
            for _ in range(20):
                d = 4
                plda = DiagPlda(rng.uniform(0.5, 2.0, d))
                embs = [ProbEmbedding(rng.normal(size=d), rng.uniform(0, 3, d))
                        for _ in range(n)]
                post = clustering_log_posterior(embs, plda, tables)
                oracle = brute_force_log_posterior(embs, plda, tables)
                assert np.abs(post - oracle).max() < 1e-10

    def test_tuple_size_mismatch(self, tables_by_n):
        plda = DiagPlda(np.ones(2))
        embs = [ProbEmbedding(np.zeros(2), np.zeros(2))] * 3
        with pytest.raises(ShapeError):
            clustering_log_posterior(embs, plda, tables_by_n[4])


class TestPairwiseLlr:
    def test_closed_form(self):
        # two coincident segments with saturated precision under w = 1
        plda = DiagPlda([1.0])
        emb = ProbEmbedding([0.0], [1e12])
        assert pairwise_llr(emb, emb, plda) == pytest.approx(
            0.5 * math.log(4.0 / 3.0), abs=1e-9)

    def test_uninformative_second_segment(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        e1 = ProbEmbedding(rng.normal(size=3), rng.uniform(0.1, 2.0, 3))
        e2 = ProbEmbedding(rng.normal(size=3), np.zeros(3))
        assert pairwise_llr(e1, e2, plda) == 0.0

    def test_symmetric(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        e1 = ProbEmbedding(rng.normal(size=3), rng.uniform(0.1, 2.0, 3))
        e2 = ProbEmbedding(rng.normal(size=3), rng.uniform(0.1, 2.0, 3))
        assert pairwise_llr(e1, e2, plda) == pairwise_llr(e2, e1, plda)

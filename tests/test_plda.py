"""PLDA scoring of probabilistic embeddings.  Oracles: hand-evaluated closed
forms and the brute-force per-partition scorer in conftest."""

import math

import numpy as np
import pytest

from probdiar.errors import DecompositionError, DomainError, ShapeError
from probdiar.plda import (DiagPlda, EmbeddingBatch, FullPlda, ProbEmbedding,
                           _pooled_loglik, clustering_log_posterior, joint_diagonalize,
                           pairwise_llr, segment_stats, segment_weight)

from . import pooled_oracle
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

    def test_batch_stacks_embeddings(self, rng):
        embs = [ProbEmbedding(rng.normal(size=3), rng.uniform(0.0, 2.0, 3))
                for _ in range(5)]
        batch = EmbeddingBatch.stack(embs)
        assert len(batch) == 5 and batch.dim == 3
        for k, emb in enumerate(embs):
            assert np.array_equal(batch.xhat[k], emb.xhat)
            assert np.array_equal(batch.prec[k], emb.prec)

    def test_batch_shapes(self):
        with pytest.raises(ShapeError):       # 1-D
            EmbeddingBatch(np.zeros(3), np.zeros(3))
        with pytest.raises(ShapeError):       # ragged rows
            EmbeddingBatch([[0.0, 1.0], [0.0]], [[1.0, 1.0], [1.0]])
        with pytest.raises(ShapeError):       # means and precisions differ
            EmbeddingBatch(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            EmbeddingBatch.stack([])
        with pytest.raises(ShapeError):
            EmbeddingBatch.stack([ProbEmbedding([0.0], [1.0]),
                                  ProbEmbedding([0.0, 0.0], [1.0, 1.0])])

    @pytest.mark.parametrize("xhat, prec", [
        ([[0.0, np.nan]], [[1.0, 1.0]]), ([[np.inf, 0.0]], [[1.0, 1.0]]),
        ([[0.0, 0.0]], [[np.nan, 1.0]]), ([[0.0, 0.0]], [[1.0, -1e-300]]),
        ([[0.0, 0.0]], [[np.inf, 1.0]])])
    def test_batch_domain(self, xhat, prec):
        with pytest.raises(DomainError):
            EmbeddingBatch(xhat, prec)

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
    """Per-segment statistics rows; a cluster's are the sum of its rows."""

    def test_empty(self):
        with pytest.raises(DomainError):
            segment_stats(EmbeddingBatch(np.zeros((0, 2)), np.zeros((0, 2))),
                          DiagPlda([1.0, 1.0]), 1.0)

    def test_single_segment(self):
        a_bar, b_bar, g = segment_stats(EmbeddingBatch.stack([ProbEmbedding([2.0], [1.0])]),
                                        DiagPlda([1.0]), 1.0)
        assert a_bar[0, 0] == pytest.approx(1.0)
        assert b_bar[0, 0] == pytest.approx(0.5)
        assert g[0] == pytest.approx(0.5 * (1.0 / 1.5 - math.log(1.5)), abs=1e-12)

    def test_two_identical_double(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        emb = ProbEmbedding(rng.normal(size=3), rng.uniform(0.1, 2.0, 3))
        a_bar, b_bar, _ = segment_stats(EmbeddingBatch.stack([emb, emb]), plda, 1.0)
        a_one, b_one = pooled_oracle.member_stats([emb], plda.w)
        np.testing.assert_allclose(a_bar.sum(axis=0), 2 * a_one, atol=1e-15)
        np.testing.assert_allclose(b_bar.sum(axis=0), 2 * b_one, atol=1e-15)

    def test_merge_is_addition(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        embs = [ProbEmbedding(rng.normal(size=3), rng.uniform(0.0, 2.0, 3))
                for _ in range(5)]
        a_bar, b_bar, _ = segment_stats(EmbeddingBatch.stack(embs), plda, 1.0)
        a_raw, b_raw = pooled_oracle.member_stats(embs, plda.w)
        np.testing.assert_allclose(a_bar[:2].sum(axis=0) + a_bar[2:].sum(axis=0),
                                   a_raw, atol=1e-12)
        np.testing.assert_allclose(b_bar[:2].sum(axis=0) + b_bar[2:].sum(axis=0),
                                   b_raw, atol=1e-12)


class TestClusterLoglik:
    """The pooled log-likelihood on hand values, and the oracle's on the same."""

    @staticmethod
    def both(a_bar, b_bar):
        a_bar, b_bar = np.asarray(a_bar, dtype=float), np.asarray(b_bar, dtype=float)
        got = float(_pooled_loglik(a_bar, b_bar))
        assert got == pooled_oracle.stats_loglik(a_bar, b_bar)
        return got

    def test_zero_stats(self):
        assert self.both(np.zeros(4), np.zeros(4)) == 0.0

    def test_pure_normalizer(self):
        assert self.both([0.0], [1.0]) == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)

    def test_with_evidence(self):
        assert self.both([1.0], [1.0]) == pytest.approx(0.5 * (0.5 - math.log(2.0)),
                                                        abs=1e-12)


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

    def test_empty_tuple(self, tables_by_n):
        with pytest.raises(ShapeError):
            clustering_log_posterior([], DiagPlda(np.ones(2)), tables_by_n[2])

    def test_unequal_dims(self, tables_by_n):
        embs = [ProbEmbedding(np.zeros(2), np.zeros(2)),
                ProbEmbedding(np.zeros(3), np.zeros(3))]
        with pytest.raises(ShapeError):
            clustering_log_posterior(embs, DiagPlda(np.ones(2)), tables_by_n[2])


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

    def test_unequal_dims(self):
        with pytest.raises(ShapeError):
            pairwise_llr(ProbEmbedding(np.zeros(2), np.ones(2)),
                         ProbEmbedding(np.zeros(3), np.ones(3)), DiagPlda(np.ones(2)))

    def test_model_dim_mismatch(self):
        emb = ProbEmbedding(np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError):
            pairwise_llr(emb, emb, DiagPlda(np.ones(2)))

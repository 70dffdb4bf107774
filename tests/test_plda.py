"""PLDA scoring of probabilistic embeddings.  Oracles: hand-evaluated closed
forms, the brute-force per-partition scorer in conftest, np.sum, and the
frozen subset likelihoods and posterior of `tests/posterior_loop.py`."""

import math
from dataclasses import replace

import numpy as np
import pytest

from probdiar.errors import DecompositionError, DomainError, ShapeError
from probdiar.plda import (DiagPlda, EmbeddingBatch, FullPlda, ProbEmbedding,
                           _partition_logits, _pooled_loglik, _sum_last,
                           clustering_log_posterior, joint_diagonalize, pairwise_llr,
                           partition_log_posterior, segment_stats, segment_weight,
                           subset_logliks)

from . import pooled_oracle, posterior_loop
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


def assert_same_bits(got, want, msg=""):
    """Equal shapes and bits; NaN only where `want` has NaN (of any payload)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, msg
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan, err_msg=msg)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64),
                                  err_msg=msg)


# every term count of the pairwise rule: sequential under 8, the 8-way tree
# with each remainder up to 128, and halves split at a multiple of 8 above
SUM_LENGTHS = [*range(1, 140), 200, 255, 256, 300]


def summands(rng, shape):
    """Terms over 20 decades of both signs, with signed zeros, and a NaN and
    infinities in a few rows, so that any change of order changes bits."""
    t = rng.normal(size=shape) * 10.0 ** rng.integers(-10, 10, size=shape)
    t[rng.random(shape) < 0.05] = 0.0
    t[rng.random(shape) < 0.05] = -0.0
    flat = t.reshape(-1, shape[-1])
    if len(flat) > 3:
        flat[-1] = -0.0                  # an all -0.0 row sums to +0.0
        flat[0, -1], flat[1, 0], flat[2, 0], flat[2, -1] = np.nan, np.inf, np.inf, -np.inf
    return t


class TestSameBits:
    """The whole-array sum over D gives np.sum's bits, and the pooled
    likelihoods, subset likelihoods and partition posterior give the bits of
    the frozen np.sum and broadcast-maximum versions in
    `tests/posterior_loop.py`, on every term count and on ties, NaN, -inf,
    1-D input and blocks of leading rows."""

    @pytest.mark.parametrize("d", SUM_LENGTHS)
    def test_sum_last_is_np_sum(self, d):
        rng = np.random.default_rng(d)
        for shape in [(3, 17, d), (17, d), (d,)]:
            t = summands(rng, shape)
            with np.errstate(invalid="ignore"):
                want = np.sum(t, axis=-1)
                got = _sum_last(t)
                out = np.empty(shape[:-1])
                assert _sum_last(t, out) is out
            msg = (f"np.sum of {d} terms no longer adds them in the pairwise order that "
                   f"plda._sum_last copies: numpy {np.__version__} changed its "
                   f"reduction order")
            assert_same_bits(got, want, msg)
            assert_same_bits(out, want, msg)

    @pytest.mark.parametrize("d", SUM_LENGTHS)
    def test_pooled_loglik_matches_frozen(self, d):
        """Batches of (rows, subsets, D) stats take the whole-array sum,
        alone and as blocks of leading rows of reused buffers (one row
        too); (subsets, D) and F-ordered ones take np.sum."""
        rng = np.random.default_rng(1000 + d)
        a_bar = rng.normal(size=(5, 7, d)) * 10.0 ** rng.integers(-3, 3, size=(5, 7, d))
        b_bar = rng.uniform(0.0, 50.0, size=(5, 7, d))
        assert_same_bits(_pooled_loglik(a_bar, b_bar),
                         posterior_loop._pooled_loglik(a_bar, b_bar))
        assert_same_bits(_pooled_loglik(a_bar[0], b_bar[0]),
                         posterior_loop._pooled_loglik(a_bar[0], b_bar[0]))
        # np.sum adds the terms of an F-ordered array one after another
        fa, fb = np.asfortranarray(a_bar), np.asfortranarray(b_bar)
        assert_same_bits(_pooled_loglik(fa, fb), posterior_loop._pooled_loglik(fa, fb))
        work, out = (np.empty((5, 7, d)), np.empty((5, 7, d))), np.empty((5, 7))
        for m in (5, 3, 1):
            got = _pooled_loglik(a_bar[:m], b_bar[:m], tuple(w[:m] for w in work), out[:m])
            assert got.base is out
            assert_same_bits(got, posterior_loop._pooled_loglik(a_bar[:m], b_bar[:m]))

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 23, 24, 129, 300])
    def test_subset_logliks_match_frozen(self, tables_by_n, d):
        tables = tables_by_n[5]
        rng = np.random.default_rng(d)
        e, xh = rng.uniform(0.0, 5.0, size=(4, 5, d)), rng.normal(size=(4, 5, d))
        for got, want in zip(subset_logliks(e, xh, tables),
                             posterior_loop.subset_logliks(e, xh, tables)):
            assert_same_bits(got, want)

    @staticmethod
    def posteriors(g, tables):
        """partition_log_posterior of g, fresh and from the logits of
        `_partition_logits` in the leading rows of F-ordered buffers of a
        larger block, with the frozen one's."""
        rows = max(g.shape[0] + 2, 4) if g.ndim == 2 else None
        with np.errstate(invalid="ignore"):
            want = posterior_loop.partition_log_posterior(g, tables)
            got = [partition_log_posterior(g, tables)]
            if rows:
                m, b = g.shape[0], tables.n_partitions
                bufs = (np.empty((b, rows)).T, np.empty((b, rows)).T,
                        np.empty((b, rows), dtype=bool).T)
                logits, lse = _partition_logits(g, tables, out=tuple(x[:m] for x in bufs))
                got.append(logits - lse)
        return got, want

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_posterior_matches_frozen(self, tables_by_n, n):
        tables = tables_by_n[n]
        rng = np.random.default_rng(n)
        g = rng.normal(size=(9, tables.n_subsets)) * 10.0 ** rng.integers(-2, 3, size=9)[:, None]
        for rows in (g, g[:1], g[0]):     # a block, a one-row block, 1-D g
            got, want = self.posteriors(rows, tables)
            for x in got:
                assert_same_bits(x, want)

    def test_ties_match_frozen(self, tables_by_n):
        """Under a flat prior, a g that depends on the subset size only ties
        every partition with the same block sizes, and g = 0 ties them all."""
        tables = tables_by_n[6]
        flat = replace(tables, log_prior=np.zeros(tables.n_partitions))
        size = tables.seg_subset.sum(axis=0)
        g = np.stack([np.zeros_like(size), np.log(size), -(size - 2.0) ** 2])
        logits = (tables.part_subset @ g.T).T
        n_top = (logits == logits.max(axis=1, keepdims=True)).sum(axis=1)
        assert n_top[0] == tables.n_partitions and np.all(n_top[1:] > 1)
        # NaN rows have no maximum: as many of them as a tied row has maxima
        # less one give one maximum per row on average, but not in each row
        mixed = np.vstack([np.full((n_top[1] - 1, tables.n_subsets), np.nan), g[1]])
        for rows in (g, g[1:2], g[2], mixed):
            got, want = self.posteriors(rows, flat)
            for x in got:
                assert_same_bits(x, want)

    def test_non_finite_rows_match_frozen(self, tables_by_n):
        """A NaN subset likelihood makes its row all NaN, and a -inf one
        leaves the other partitions finite, as in the frozen posterior."""
        tables = tables_by_n[5]
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, tables.n_subsets))
        g[0, 3] = np.nan
        g[1, 5] = g[1, 9] = -np.inf
        g[2] = -np.inf
        got, want = self.posteriors(g, tables)
        assert np.isnan(want[0]).all() and np.isnan(want[2]).all()
        assert np.isneginf(want[1]).any() and np.isfinite(want[1]).any()
        for x in got:
            assert_same_bits(x, want)

    def test_infinite_logit_gives_nan_row(self, tables_by_n):
        """A +inf logit makes the whole row NaN (the frozen posterior has NaN
        at the +inf entries and -inf elsewhere): non-finite either way."""
        tables = tables_by_n[4]
        g = np.zeros((2, tables.n_subsets))
        g[0, 2] = np.inf
        got, want = self.posteriors(g, tables)
        assert not np.isfinite(want[0]).any()
        for x in got:
            assert np.isnan(x[0]).all()
            assert_same_bits(x[1], want[1])

    def test_logits_and_lse(self, tables_by_n):
        """The unnormalized logits and their log-sum-exp differ by the log
        posterior, and lse - logit is its negation bit for bit."""
        tables = tables_by_n[5]
        g = np.random.default_rng(4).normal(size=(3, tables.n_subsets))
        logits, lse = _partition_logits(g, tables)
        assert lse.shape == (3, 1)
        post = posterior_loop.partition_log_posterior(g, tables)
        assert_same_bits(logits - lse, post)
        assert_same_bits(lse - logits, -post)


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

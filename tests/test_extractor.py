"""Extractor initialization, the corpus types and the synthetic corpus
generator."""

import math

import numpy as np
import pytest

import probdiar as pd
from probdiar.errors import DomainError, ShapeError
from probdiar.extractor import (Corpus, ExtractorModel, PrecisionNet, Recording,
                                SegmentRecord, SyntheticConfig, estimate_full_plda,
                                extract, extract_batch, generate_corpus,
                                init_extractor, inv_softplus, softplus)
from probdiar.plda import DiagPlda, clustering_log_posterior, joint_diagonalize

from .conftest import brute_force_log_posterior


class TestSoftplus:
    def test_zero(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0))

    def test_large_input_linear(self):
        assert softplus(800.0) == 800.0

    def test_roundtrip(self):
        y = np.array([1e-6, 0.5, 3.0, 40.0, 2000.0])
        np.testing.assert_allclose(softplus(inv_softplus(y)), y, rtol=1e-12)


class TestSegmentRecord:
    def test_validation(self):
        with pytest.raises(DomainError):
            SegmentRecord(raw=[np.inf], quality=[0.0], duration=1.0)
        with pytest.raises(DomainError):
            SegmentRecord(raw=[0.0], quality=[0.0], duration=0.0)


class TestExtract:
    def test_identity_transform(self, rng):
        net = PrecisionNet(W1=np.zeros((2, 1)), b1=np.zeros(2),
                           W2=np.zeros((3, 2)), b2=np.zeros(3))
        model = ExtractorModel(A=np.eye(3), net=net)
        r = rng.normal(size=3)
        emb = extract(SegmentRecord(raw=r, quality=[0.0], duration=1.0), model)
        np.testing.assert_array_equal(emb.xhat, r)

    def test_zero_net_gives_log2_precisions(self):
        net = PrecisionNet(W1=np.zeros((2, 1)), b1=np.zeros(2),
                           W2=np.zeros((3, 2)), b2=np.zeros(3))
        model = ExtractorModel(A=np.eye(3), net=net)
        emb = extract(SegmentRecord(raw=np.zeros(3), quality=[0.7], duration=1.0),
                      model)
        np.testing.assert_allclose(emb.prec, np.full(3, math.log(2.0)), rtol=1e-12)

    def test_dim_mismatch(self):
        net = PrecisionNet(W1=np.zeros((2, 1)), b1=np.zeros(2),
                           W2=np.zeros((3, 2)), b2=np.zeros(3))
        model = ExtractorModel(A=np.eye(3), net=net)
        with pytest.raises(ShapeError):
            extract(SegmentRecord(raw=np.zeros(4), quality=[0.0], duration=1.0),
                    model)


class TestExtractBatch:
    """Each row of a batch has the bits of its record extracted alone, and of
    the per-segment products `A @ raw` and `quality @ W1.T` that `extract`
    computed before batches existed (one product over all rows rounds
    differently)."""

    @staticmethod
    def per_segment(rec, model):
        net = model.net
        hidden = softplus(rec.quality @ net.W1.T + net.b1)
        return model.A @ rec.raw, softplus(hidden @ net.W2.T + net.b2)

    @staticmethod
    def random_model(rng, d, r, q):
        h = 2 * d
        net = PrecisionNet(W1=rng.normal(size=(h, q)), b1=rng.normal(size=h),
                           W2=rng.normal(size=(d, h)), b2=rng.normal(size=d))
        return ExtractorModel(A=rng.normal(size=(d, r)), net=net)

    def assert_rows_exact(self, records, model):
        batch = extract_batch(records, model)
        assert len(batch) == len(records)
        for k, rec in enumerate(records):
            emb = extract(rec, model)
            xhat, prec = self.per_segment(rec, model)
            assert np.array_equal(batch.xhat[k], emb.xhat)
            assert np.array_equal(batch.prec[k], emb.prec)
            assert np.array_equal(batch.xhat[k], xhat)
            assert np.array_equal(batch.prec[k], prec)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_extract_for_random_nets(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 16, 33):
            d, r, q = (int(k) for k in rng.integers((2, 2, 1), (20, 20, 4)))
            model = self.random_model(rng, d, r, q)
            self.assert_rows_exact(
                [SegmentRecord(raw=rng.normal(size=r), quality=rng.normal(size=q),
                               duration=1.0) for _ in range(n)], model)

    def test_rows_equal_extract_for_initialized_models(self, small_corpus):
        for seed in range(3):
            model, _ = init_extractor(small_corpus.full_plda, seed=seed, margin=10.0)
            for rec in small_corpus.recordings:
                self.assert_rows_exact(rec.records, model)
                self.assert_rows_exact(rec.records[:1], model)

    def test_shapes(self, rng):
        model = self.random_model(rng, 3, 3, 1)

        def record(r, q):
            return SegmentRecord(raw=np.zeros(r), quality=np.zeros(q), duration=1.0)

        for records in ([], [record(3, 1), record(4, 1)], [record(4, 1)],
                        [record(3, 1), record(3, 2)], [record(3, 2)]):
            with pytest.raises(ShapeError):
                extract_batch(records, model)


class TestInitExtractor:
    def test_margin_zero_rejected(self, small_corpus):
        with pytest.raises(DomainError):
            init_extractor(small_corpus.full_plda, seed=0, margin=0.0)

    def test_initial_precisions_exceed_margin(self, small_corpus):
        model, plda = init_extractor(small_corpus.full_plda, seed=0, margin=100.0,
                                     quality_dim=2)
        for rec in small_corpus.recordings[:2]:
            for sr in rec.records:
                emb = extract(sr, model)
                assert np.all(emb.prec > 100.0 * plda.w)

    def test_init_scores_like_plugin(self, small_corpus, tables_by_n, rng):
        """Right after initialization the posterior should match the plug-in
        baseline (infinite precision) within 1% total variation."""
        tables = tables_by_n[4]
        # margin 1000 pins the evidence weight within 0.1% of saturation;
        # margin 100 still tracks the plug-in posterior, just less tightly
        for margin, tol in ((1000.0, 0.01), (100.0, 0.05)):
            model, plda = init_extractor(small_corpus.full_plda, seed=0,
                                         margin=margin, quality_dim=2)
            for rec in small_corpus.recordings[:4]:
                idx = rng.choice(len(rec.records), size=4, replace=False)
                embs = [extract(rec.records[i], model) for i in idx]
                plugged = [pd.ProbEmbedding(e.xhat, 1e12 * plda.w) for e in embs]
                post = np.exp(clustering_log_posterior(embs, plda, tables))
                ref = np.exp(brute_force_log_posterior(plugged, plda, tables))
                assert 0.5 * np.abs(post - ref).sum() < tol


class TestGenerateCorpus:
    def test_deterministic(self):
        cfg = SyntheticConfig(n_recordings=3, segments_per_recording=6, seed=5)
        a, b = generate_corpus(cfg), generate_corpus(cfg)
        for ra, rb in zip(a.recordings, b.recordings):
            assert ra.labels == rb.labels
            for sa, sb in zip(ra.records, rb.records):
                np.testing.assert_array_equal(sa.raw, sb.raw)
                np.testing.assert_array_equal(sa.quality, sb.quality)

    def test_labels_canonical_and_speaker_counts(self, small_corpus):
        cfg = SyntheticConfig()   # the fixture's speaker bounds are the defaults
        for rec in small_corpus.recordings:
            assert rec.labels == pd.canonicalize(rec.labels)
            assert cfg.min_speakers <= max(rec.labels) <= cfg.max_speakers

    def test_split_fractions(self):
        corpus = generate_corpus(SyntheticConfig(n_recordings=8, seed=0,
                                                 holdout_fraction=0.25))
        assert len(corpus.heldout_recordings) == 2
        assert len(corpus.train_recordings) == 6

    def test_noiseless_limit_plugin_optimal(self, tables_by_n):
        """With no segment noise the oracle precisions blow up and plug-in
        clustering recovers the truth."""
        cfg = SyntheticConfig(n_recordings=4, segments_per_recording=8,
                              log_noise_var_range=(-60.0, -60.0),
                              within_scale=0.05, seed=3)
        corpus = generate_corpus(cfg)
        model, plda = init_extractor(corpus.full_plda, seed=0, margin=100.0,
                                     quality_dim=cfg.quality_dim)
        for rec in corpus.recordings:
            assert np.all(rec.oracle_prec > 1e20)
            labels = pd.ahc(pd.extract_batch(rec.records, model), plda,
                            pd.AhcConfig(mode="by_the_book", sigma=0.0))
            assert labels == rec.labels

    def test_speaker_covariance_law_of_large_numbers(self):
        """After diagonalization the speaker variable is standard normal: the
        sample covariance over 1e5 (near-noiseless) speakers is I within 2%."""
        cfg = SyntheticConfig(dim=4, n_recordings=50_000, segments_per_recording=2,
                              min_speakers=2, max_speakers=2, within_scale=1e-6,
                              log_noise_var_range=(-60.0, -60.0),
                              holdout_fraction=0.0, seed=7)
        corpus = generate_corpus(cfg)
        t, _ = joint_diagonalize(corpus.full_plda)
        y = np.stack([sr.raw for rec in corpus.recordings
                      for sr in rec.records]) @ t.T
        cov = np.cov(y.T)
        assert np.abs(cov - np.eye(4)).max() < 0.02

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SyntheticConfig(min_speakers=3, max_speakers=2)
        with pytest.raises(DomainError):
            SyntheticConfig(holdout_fraction=1.0)


def _segments(n):
    return [SegmentRecord(raw=np.zeros(2), quality=np.zeros(1), duration=1.0)
            for _ in range(n)]


class TestRecording:
    def test_stores_tuples(self):
        rec = Recording("r", _segments(2), [1, 2], [0.0, 1.0], "train")
        assert isinstance(rec.records, tuple)
        assert rec.labels == (1, 2) and rec.starts == (0.0, 1.0)
        assert rec.oracle_prec is None

    @pytest.mark.parametrize("labels, starts, oracle_prec", [
        ([1], [0.0, 1.0], None), ([1, 2], [0.0], None),
        ([1, 2], [0.0, 1.0], np.ones(3))])
    def test_ragged_lengths_rejected(self, labels, starts, oracle_prec):
        with pytest.raises(ShapeError):
            Recording("r", _segments(2), labels, starts, "train", oracle_prec)

    def test_empty_recording_rejected(self):
        with pytest.raises(ShapeError):
            Recording("r", [], [], [], "train")

    @pytest.mark.parametrize("start", [np.nan, -1.0, np.inf])
    def test_bad_start_rejected(self, start):
        with pytest.raises(DomainError):
            Recording("r", _segments(2), [1, 2], [0.0, start], "train")

    @pytest.mark.parametrize("split", ["test", "Train", None])
    def test_unknown_split_rejected(self, split):
        with pytest.raises(DomainError):
            Recording("r", _segments(1), [1], [0.0], split)

    def test_equality_is_identity(self):
        a = Recording("r", _segments(1), [1], [0.0], "train", np.ones(1))
        b = Recording("r", a.records, [1], [0.0], "train", np.ones(1))
        assert a == a and a != b


class TestCorpus:
    def test_iterates_its_recordings(self, small_corpus):
        corpus = Corpus(list(small_corpus.recordings), small_corpus.full_plda)
        assert corpus.recordings == small_corpus.recordings
        assert tuple(corpus) == corpus.recordings


class TestEstimateFullPlda:
    def test_recovers_generating_model(self):
        cfg = SyntheticConfig(n_recordings=400, segments_per_recording=12,
                              log_noise_var_range=(-60.0, -60.0), seed=9,
                              holdout_fraction=0.0)
        corpus = generate_corpus(cfg)
        est = estimate_full_plda(corpus.recordings)
        scale = np.trace(corpus.full_plda.between_cov)
        assert np.abs(est.between_cov - corpus.full_plda.between_cov).max() \
            < 0.15 * scale
        assert np.abs(est.within_cov - corpus.full_plda.within_cov).max() \
            < 0.15 * scale

    def test_empty_rejected(self):
        from probdiar.errors import DomainError
        with pytest.raises(DomainError):
            estimate_full_plda([])

"""Extractor initialization, the corpus types and the synthetic corpus
generator."""

import math
from dataclasses import replace

import numpy as np
import pytest

import probdiar as pd
from probdiar import extractor
from probdiar.errors import DomainError, ShapeError
from probdiar.extractor import (QUALITY_DIM, Corpus, ExtractorModel, Recording,
                                SegmentRecord, SyntheticConfig,
                                estimate_full_plda, extract, extract_batch,
                                generate_corpus, init_extractor, inv_softplus, softplus,
                                split_names)
from probdiar.plda import clustering_log_posterior, joint_diagonalize

from . import corpus_loop
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
        # a corpus file cannot hold an infinite duration, nor a timeline its turn
        with pytest.raises(DomainError, match="positive and finite"):
            SegmentRecord(raw=[0.0], quality=[0.0], duration=math.inf)


class TestExtract:
    def test_identity_transform(self, rng):
        model = ExtractorModel(A=np.eye(3), W1=np.zeros((2, 1)), b1=np.zeros(2),
                               W2=np.zeros((3, 2)), b2=np.zeros(3))
        r = rng.normal(size=3)
        emb = extract(SegmentRecord(raw=r, quality=[0.0], duration=1.0), model)
        np.testing.assert_array_equal(emb.xhat, r)

    def test_zero_net_gives_log2_precisions(self):
        model = ExtractorModel(A=np.eye(3), W1=np.zeros((2, 1)), b1=np.zeros(2),
                               W2=np.zeros((3, 2)), b2=np.zeros(3))
        emb = extract(SegmentRecord(raw=np.zeros(3), quality=[0.7], duration=1.0),
                      model)
        np.testing.assert_allclose(emb.prec, np.full(3, math.log(2.0)), rtol=1e-12)

    def test_dim_mismatch(self):
        model = ExtractorModel(A=np.eye(3), W1=np.zeros((2, 1)), b1=np.zeros(2),
                               W2=np.zeros((3, 2)), b2=np.zeros(3))
        with pytest.raises(ShapeError):
            extract(SegmentRecord(raw=np.zeros(4), quality=[0.0], duration=1.0),
                    model)
        # the model's own checks: A a matrix with one row per output, and
        # layers that chain
        for bad in ({"A": np.ones(3)}, {"A": np.eye(2)}, {"b1": np.zeros(3)},
                    {"W2": np.zeros((3, 3))}, {"b2": np.zeros(2)}):
            with pytest.raises(ShapeError):
                replace(model, **bad)

    @pytest.mark.parametrize("bad", [{"W1": np.zeros(2)}, {"W1": np.zeros((2, 1, 1))},
                                     {"W1": 0.0}, {"W2": np.zeros(3)}])
    def test_net_weights_must_be_matrices(self, bad):
        """A weight of another rank is a ShapeError, not a failed unpacking."""
        fields = dict(A=np.eye(3), W1=np.zeros((2, 1)), b1=np.zeros(2),
                      W2=np.zeros((3, 2)), b2=np.zeros(3))
        with pytest.raises(ShapeError, match="W1 and W2 must be matrices"):
            ExtractorModel(**{**fields, **bad})


class TestExtractBatch:
    """Each row of a batch has the bits of its record extracted alone, and of
    the per-segment products `A @ raw` and `quality @ W1.T` that `extract`
    computed before batches existed (one product over all rows rounds
    differently)."""

    @staticmethod
    def per_segment(rec, model):
        hidden = softplus(rec.quality @ model.W1.T + model.b1)
        return model.A @ rec.raw, softplus(hidden @ model.W2.T + model.b2)

    @staticmethod
    def random_model(rng, d, r, q):
        h = 2 * d
        return ExtractorModel(W1=rng.normal(size=(h, q)), b1=rng.normal(size=h),
                              W2=rng.normal(size=(d, h)), b2=rng.normal(size=d),
                              A=rng.normal(size=(d, r)))

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
    def test_heldout_split(self):
        """The first round(0.25 n) recordings are held out, half to even."""
        for n, n_heldout in zip(range(1, 9), [0, 0, 1, 1, 1, 2, 2, 2]):
            cfg = SyntheticConfig(dim=2, n_recordings=n, segments_per_recording=1)
            assert [r.split for r in generate_corpus(cfg)] == \
                split_names(n, 0.25) == \
                ["heldout"] * n_heldout + ["train"] * (n - n_heldout)

    def test_seed_range(self):
        """Any nonnegative seed works, also one of 2^64 or more."""
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            SyntheticConfig(seed=-1)
        big = SyntheticConfig(dim=2, n_recordings=1, segments_per_recording=1,
                              seed=2 ** 64)
        assert len(generate_corpus(big).recordings) == 1

    def test_deterministic(self):
        cfg = SyntheticConfig(n_recordings=3, segments_per_recording=6, seed=5)
        a, b = generate_corpus(cfg), generate_corpus(cfg)
        for ra, rb in zip(a.recordings, b.recordings):
            assert ra.labels == rb.labels
            for sa, sb in zip(ra.records, rb.records):
                np.testing.assert_array_equal(sa.raw, sb.raw)
                np.testing.assert_array_equal(sa.quality, sb.quality)

    @pytest.mark.parametrize("cfg", [
        SyntheticConfig(seed=0), SyntheticConfig(seed=3),
        SyntheticConfig(n_recordings=12, segments_per_recording=16, seed=1),
        SyntheticConfig(dim=5, n_recordings=6, segments_per_recording=10, seed=2),
        SyntheticConfig(n_recordings=5, segments_per_recording=3, min_speakers=4,
                        max_speakers=6, seed=4),
        SyntheticConfig(dim=3, n_recordings=4, segments_per_recording=1, seed=5)])
    def test_bit_identical_to_segment_loop(self, cfg):
        got, want = generate_corpus(cfg), corpus_loop.generate_corpus(cfg)
        for name in ("between_cov", "within_cov"):
            assert getattr(got.full_plda, name).tobytes() == \
                getattr(want.full_plda, name).tobytes()
        for a, b in zip(got, want, strict=True):
            assert (a.rec_id, a.labels, a.starts, a.split) == \
                (b.rec_id, b.labels, b.starts, b.split)
            assert a.oracle_prec.tobytes() == b.oracle_prec.tobytes()
            for field in ("raw", "quality", "duration"):
                assert np.stack([getattr(r, field) for r in a.records]).tobytes() == \
                    np.stack([getattr(r, field) for r in b.records]).tobytes()

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

    def test_noiseless_limit_plugin_optimal(self, monkeypatch):
        """With no segment noise the oracle precisions blow up and plug-in
        clustering recovers the truth."""
        monkeypatch.setattr(extractor, "LOG_NOISE_VAR_BOUNDS", (-60.0, -60.0))
        monkeypatch.setattr(extractor, "WITHIN_SCALE", 0.05)
        cfg = SyntheticConfig(n_recordings=4, segments_per_recording=8, seed=3)
        corpus = generate_corpus(cfg)
        model, plda = init_extractor(corpus.full_plda, seed=0, margin=100.0,
                                     quality_dim=QUALITY_DIM)
        for rec in corpus.recordings:
            assert np.all(rec.oracle_prec > 1e20)
            labels = pd.ahc(pd.extract_batch(rec.records, model), plda,
                            pd.AhcConfig(mode="by_the_book", sigma=0.0))
            assert labels == rec.labels

    def test_speaker_covariance_law_of_large_numbers(self, monkeypatch):
        """After diagonalization the speaker variable is standard normal: the
        sample covariance over 1e5 (near-noiseless) speakers is I within 2%."""
        monkeypatch.setattr(extractor, "LOG_NOISE_VAR_BOUNDS", (-60.0, -60.0))
        monkeypatch.setattr(extractor, "WITHIN_SCALE", 1e-6)
        cfg = SyntheticConfig(dim=4, n_recordings=50_000, segments_per_recording=2,
                              min_speakers=2, max_speakers=2,
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

    @pytest.mark.parametrize("records, labels, starts, oracle_prec", [
        pytest.param(_segments(2), [1], [0.0, 1.0], None, id="one-label"),
        pytest.param(_segments(2), [1, 2], [0.0], None, id="one-start"),
        pytest.param(_segments(2), [1, 2], [0.0, 1.0], np.ones(3), id="three-oracle-precs"),
        pytest.param(_segments(3) + [SegmentRecord(np.zeros(4), np.zeros(1), 1.0)],
                     [1, 2, 1, 2], [0.0, 1.0, 2.0, 3.0], None, id="raw-dims-2-2-2-4"),
        pytest.param(_segments(1) + [SegmentRecord(np.zeros(2), np.zeros(2), 1.0)],
                     [1, 2], [0.0, 1.0], None, id="quality-dims-1-2")])
    def test_ragged_lengths_rejected(self, records, labels, starts, oracle_prec):
        with pytest.raises(ShapeError):
            Recording("r", records, labels, starts, "train", oracle_prec)

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
    def test_recovers_generating_model(self, monkeypatch):
        monkeypatch.setattr(extractor, "LOG_NOISE_VAR_BOUNDS", (-60.0, -60.0))
        cfg = SyntheticConfig(n_recordings=400, segments_per_recording=12, seed=9,
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

"""Agglomerative clustering: exact merge gains, the greedy by-the-book search,
the WPGMA baseline and its unsupervised calibration, and merge traces cut at
any sigma.  Oracles: raw recomputation of merge gains, an exhaustive search
over all partitions, an independently reimplemented WPGMA, a fresh AHC run
per sigma, and the per-pair loop engines that the array scoring replaced."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import probdiar as pd
from probdiar import clustering
from probdiar.clustering import (PLUGIN_PREC_FACTOR, AhcConfig, ahc, ahc_baseline,
                                 ahc_by_the_book, cut, cuts, merge_delta, merge_trace,
                                 unsupervised_calibration)
from probdiar.errors import CalibrationError, DomainError, ShapeError
from probdiar.partitions import canonicalize, enumerate_rgs
from probdiar.plda import DiagPlda, EmbeddingBatch, ProbEmbedding, pairwise_llr, segment_stats

from . import ahc_loop, calibration_loop, pooled_oracle
from .ahc_loop import loop_baseline_trace, loop_book_trace

stack = EmbeddingBatch.stack
# the stopping-threshold grid of the acceptance suite's end-to-end fixture
SIGMA_GRID = (-20, -15, -10, -7, -5, -3, -2, -1, 0, 1, 2, 3, 5, 10, 20)


def random_embeddings(rng, n, d=4):
    return [ProbEmbedding(rng.normal(size=d), rng.uniform(0, 3, d))
            for _ in range(n)]


class TestMergeDelta:
    def test_both_zero(self):
        z = np.zeros((2, 3))
        assert merge_delta(z, z, np.zeros(2), 0, 1) == 0.0

    def test_hand_example(self):
        # two clusters with a = 1, b = 0.5 in one dimension
        single = 0.5 * (1.0 / 1.5 - math.log(1.5))
        expected = 0.5 * (4.0 / 2.0 - math.log(2.0)) - 2 * single
        got = merge_delta(np.ones((2, 1)), np.full((2, 1), 0.5), np.full(2, single), 0, 1)
        assert got == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3920, abs=5e-4)

    def test_matches_raw_recomputation(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 4))
        for _ in range(20):
            embs = random_embeddings(rng, 6)
            left, right = embs[:3], embs[3:]
            a_bar, b_bar, _ = segment_stats(stack(embs), plda, 1.0)
            a_bar = np.stack([a_bar[:3].sum(axis=0), a_bar[3:].sum(axis=0)])
            b_bar = np.stack([b_bar[:3].sum(axis=0), b_bar[3:].sum(axis=0)])
            g = np.array([pooled_oracle.members_loglik(left, plda.w),
                          pooled_oracle.members_loglik(right, plda.w)])
            delta = merge_delta(a_bar, b_bar, g, 0, 1)
            direct = pooled_oracle.members_loglik(embs, plda.w) - g[0] - g[1]
            assert delta == pytest.approx(direct, abs=1e-10)
            assert merge_delta(a_bar, b_bar, g, np.array([0]), np.array([1]))[0] == delta


class TestAhcByTheBook:
    def test_single_segment(self):
        """One segment is one cluster; its dim is checked as for any batch."""
        plda, cfg = DiagPlda(np.ones(2)), AhcConfig()
        one = stack([ProbEmbedding(np.zeros(2), np.ones(2))])
        assert ahc(one, plda, cfg) == ahc_by_the_book(one, plda, cfg) == (1,)
        with pytest.raises(ShapeError):
            ahc(stack([ProbEmbedding(np.zeros(3), np.ones(3))]), plda, cfg)

    def test_no_evidence_no_merge(self):
        plda = DiagPlda(np.ones(2))
        embs = [ProbEmbedding(np.zeros(2), np.zeros(2)) for _ in range(2)]
        assert ahc_by_the_book(stack(embs), plda, AhcConfig(sigma=0.0)) == (1, 2)

    def test_recovers_well_separated_speakers(self, rng):
        plda = DiagPlda(np.full(3, 4.0))
        centers = {1: np.array([3.0, 0, 0]), 2: np.array([-3.0, 0, 0])}
        truth = [1, 1, 2, 1, 2, 2, 1, 2]
        embs = [ProbEmbedding(centers[k] + 0.1 * rng.normal(size=3),
                              np.full(3, 50.0)) for k in truth]
        assert ahc_by_the_book(stack(embs), plda, AhcConfig()) == canonicalize(truth)

    def test_each_merge_strictly_improves(self, rng):
        """Mirror the greedy search step by step and verify every accepted
        merge has a strictly positive likelihood gain."""
        plda = DiagPlda(rng.uniform(0.5, 2.0, 4))
        for _ in range(10):
            embs = random_embeddings(rng, 7)
            labels = ahc_by_the_book(stack(embs), plda, AhcConfig(sigma=0.0))
            # replay: labels must be reachable by positive-gain merges, and
            # the final likelihood must beat all-singletons
            singletons = pooled_oracle.partition_loglik(tuple(range(1, 8)), embs, plda.w)
            final = pooled_oracle.partition_loglik(labels, embs, plda.w)
            assert final >= singletons - 1e-12
            if max(labels) < 7:
                assert final > singletons

    def test_never_beats_exhaustive_optimum(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 4))
        for _ in range(10):
            embs = random_embeddings(rng, 6)
            labels = ahc_by_the_book(stack(embs), plda, AhcConfig(sigma=0.0))
            best = max(pooled_oracle.partition_loglik(p, embs, plda.w) for p in enumerate_rgs(6))
            assert pooled_oracle.partition_loglik(labels, embs, plda.w) <= best + 1e-10

    def test_positive_sigma_merges_less(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 4))
        embs = random_embeddings(rng, 8)
        loose = ahc_by_the_book(stack(embs), plda, AhcConfig(sigma=-5.0))
        tight = ahc_by_the_book(stack(embs), plda, AhcConfig(sigma=5.0))
        assert max(tight) >= max(loose)

    def test_likelihood_scale_matches_scaled_stats(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 4))
        embs = random_embeddings(rng, 6)
        labels = ahc_by_the_book(stack(embs), plda,
                                 AhcConfig(sigma=0.0, likelihood_scale=0.3))
        # the scaled search still never beats the scaled exhaustive optimum
        best = max(pooled_oracle.partition_loglik(p, embs, plda.w, scale=0.3)
                   for p in enumerate_rgs(6))
        assert pooled_oracle.partition_loglik(labels, embs, plda.w, scale=0.3) <= best + 1e-10

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ahc_by_the_book(EmbeddingBatch(np.zeros((0, 2)), np.zeros((0, 2))),
                            DiagPlda(np.ones(2)), AhcConfig())


class TestUnsupervisedCalibration:
    def test_symmetric_mixture_threshold_near_zero(self, rng):
        scores = np.concatenate([rng.normal(-5, 1, 5000), rng.normal(5, 1, 5000)])
        assert abs(unsupervised_calibration(scores)) < 0.1

    def test_shift_equivariance(self, rng):
        scores = np.concatenate([rng.normal(-3, 1, 300), rng.normal(4, 1, 300)])
        base = unsupervised_calibration(scores)
        shifted = unsupervised_calibration(scores + 7.5)
        assert shifted == pytest.approx(base + 7.5, abs=1e-6)

    def test_two_points(self):
        assert unsupervised_calibration([0.0, 10.0]) == pytest.approx(5.0, abs=0.1)

    def test_degenerate_inputs(self):
        with pytest.raises(CalibrationError):
            unsupervised_calibration([1.0])
        with pytest.raises(CalibrationError):
            unsupervised_calibration([2.0, 2.0, 2.0])

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_to_array_em(self, seed):
        """The column EM returns the (n, 2)-array EM's threshold, or its
        error, exactly: two-mode, one-mode, rounded and heavy-tailed scores."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 2000))
        scores = [np.concatenate([rng.normal(-3, 1, n // 2), rng.normal(2, 1.5, n - n // 2)]),
                  rng.normal(size=n), np.round(rng.normal(size=n)),
                  rng.exponential(size=n) ** 3][seed % 4] * rng.uniform(0.1, 10)

        def outcome(fn):
            try:
                return fn(scores)
            except CalibrationError as exc:
                return str(exc)

        assert outcome(unsupervised_calibration) == \
            outcome(calibration_loop.unsupervised_calibration)


class TestAhcBaseline:
    def test_identical_pair_merges(self):
        plda = DiagPlda(np.ones(2))
        emb = ProbEmbedding(np.array([1.0, -1.0]), np.full(2, 1e9))
        assert ahc_baseline(stack([emb, emb]), plda, AhcConfig(mode="baseline")) == (1, 1)

    def test_infinite_threshold_all_singletons(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        embs = random_embeddings(rng, 6, d=3)
        labels = ahc_baseline(stack(embs), plda,
                              AhcConfig(mode="baseline", sigma=np.inf))
        assert labels == tuple(range(1, 7))

    def test_matches_reimplemented_upgma(self, rng):
        """Oracle: an independent WPGMA (weighted average linkage: the merged
        row is the plain mean of the parents' rows) with the same stopping
        rule."""
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        for _ in range(10):
            embs = random_embeddings(rng, 6, d=3)
            got = ahc_baseline(stack(embs), plda, AhcConfig(mode="baseline", sigma=0.0))

            plugged = [ProbEmbedding(e.xhat, PLUGIN_PREC_FACTOR * plda.w)
                       for e in embs]
            n = len(embs)
            sim = {}
            for a in range(n):
                for b in range(a + 1, n):
                    sim[(a, b)] = pairwise_llr(plugged[a], plugged[b], plda)
            thr = unsupervised_calibration(list(sim.values()))
            clusters = [[t] for t in range(n)]
            names = list(range(n))
            while len(names) > 1:
                pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
                best = max(pairs, key=lambda p: (sim[p], (-p[0], -p[1])))
                if sim[best] < thr:
                    break
                a, b = best
                for c in names:
                    if c not in (a, b):
                        key = (min(a, c), max(a, c))
                        other = (min(b, c), max(b, c))
                        sim[key] = 0.5 * (sim[key] + sim[other])
                clusters[names.index(a)].extend(clusters[names.index(b)])
                clusters.pop(names.index(b))
                names.remove(b)
            raw = [0] * n
            for k, segs in enumerate(clusters):
                for t in segs:
                    raw[t] = k + 1
            assert got == canonicalize(raw)

    def test_single_segment(self):
        """One segment is one cluster, as in book mode."""
        plda, cfg = DiagPlda(np.ones(2)), AhcConfig(mode="baseline")
        one = stack([ProbEmbedding(np.zeros(2), np.zeros(2))])
        assert ahc(one, plda, cfg) == ahc_baseline(one, plda, cfg) == (1,)
        with pytest.raises(ShapeError):
            ahc(stack([ProbEmbedding(np.zeros(3), np.zeros(3))]), plda, cfg)


class TestAhcDispatch:
    def test_mode_validation(self):
        with pytest.raises(DomainError):
            AhcConfig(mode="other")
        for scale in (0.0, np.inf, np.nan):
            with pytest.raises(DomainError, match="likelihood_scale"):
                AhcConfig(likelihood_scale=scale)

    def test_baseline_takes_no_scale(self):
        for scale in (0.5, 2.0):
            with pytest.raises(DomainError, match="by_the_book mode only"):
                AhcConfig(mode="baseline", likelihood_scale=scale)
        assert AhcConfig(mode="baseline", likelihood_scale=1.0).likelihood_scale == 1.0

    def test_overflowing_scale_rejected(self, rng):
        """A finite scale that overflows the pooled statistics is a numeric
        error raised before any gain is scored; a RuntimeWarning on the way
        would fail this test."""
        emb, plda = stack(random_embeddings(rng, 6)), DiagPlda(np.ones(4))
        for scale in (1e160, 1e300, np.finfo(float).max):
            cfg = AhcConfig(likelihood_scale=scale)
            with pytest.raises(DomainError, match="likelihood_scale .* overflows"):
                merge_trace(emb, plda, cfg)
            with pytest.raises(DomainError, match="overflows"):
                ahc(emb, plda, cfg)
        assert len(list(merge_trace(emb, plda, AhcConfig(likelihood_scale=1e100)))) == 5

    def test_nan_sigma_rejected(self, rng):
        """NaN compares with no score: book AHC would merge nothing and the
        baseline everything.  The infinities stay valid."""
        with pytest.raises(DomainError, match="NaN"):
            AhcConfig(sigma=float("nan"))
        for mode in ("by_the_book", "baseline"):
            trace = merge_trace(stack(random_embeddings(rng, 5)), DiagPlda(np.ones(4)),
                                AhcConfig(mode=mode))
            with pytest.raises(DomainError, match="NaN"):
                cuts(trace, [0.0, np.nan])
            with pytest.raises(DomainError, match="NaN"):
                cut(trace, np.nan)
            assert cut(trace, np.inf) == tuple(range(1, 6))
            assert cut(trace, -np.inf) == (1,) * 5
            assert AhcConfig(mode=mode, sigma=-np.inf).sigma == -np.inf

    def test_dispatches_by_mode(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        embs = random_embeddings(rng, 5, d=3)
        assert ahc(stack(embs), plda, AhcConfig(mode="by_the_book")) == \
            ahc_by_the_book(stack(embs), plda, AhcConfig(mode="by_the_book"))
        assert ahc(stack(embs), plda, AhcConfig(mode="baseline")) == \
            ahc_baseline(stack(embs), plda, AhcConfig(mode="baseline"))


class TestMergeTrace:
    @pytest.mark.parametrize("mode", ["by_the_book", "baseline"])
    def test_cut_equals_fresh_ahc_at_every_sigma(self, rng, mode):
        """Cuts deepen the lazily pulled trace one sigma at a time, then
        revisit sigmas that land on recorded scores; each equals a fresh run."""
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        cfg = AhcConfig(mode=mode)
        for _ in range(5):
            embs = random_embeddings(rng, 9, d=3)
            trace = merge_trace(stack(embs), plda, cfg)
            grid = [np.inf, 20, 5, 1, 0, -1, -5, -20, -np.inf]
            for sigma in grid:
                assert cut(trace, sigma) == ahc(stack(embs), plda, replace(cfg, sigma=sigma))
            assert len(trace.records) == 8
            offset = trace.calibration or 0.0
            for _, _, score in trace.records:
                for sigma in (score - offset, np.nextafter(score - offset, np.inf)):
                    assert cut(trace, sigma) == ahc(stack(embs), plda, replace(cfg, sigma=sigma))

    def test_book_stops_at_a_gain_equal_to_sigma(self, rng):
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        embs = random_embeddings(rng, 6, d=3)
        trace = merge_trace(stack(embs), plda, AhcConfig())
        _, _, first = next(iter(trace))
        assert cut(trace, first) == tuple(range(1, 7))
        assert cut(trace, np.nextafter(first, -np.inf)) != tuple(range(1, 7))

    def test_ties_break_on_the_lowest_pair(self):
        plda = DiagPlda(np.ones(2))
        x = ProbEmbedding(np.array([2.0, 0.0]), np.full(2, 5.0))
        y = ProbEmbedding(np.array([-2.0, 0.0]), np.full(2, 5.0))
        for mode in ("by_the_book", "baseline"):
            trace = merge_trace(stack([y, x, y, x]), plda, AhcConfig(mode=mode))
            cut(trace, -np.inf)
            assert [r[:2] for r in trace.records[:2]] == [(0, 2), (1, 3)]

    def test_interleaved_iterations_see_every_record(self, rng):
        trace = merge_trace(stack(random_embeddings(rng, 6)), DiagPlda(np.ones(4)), AhcConfig())
        outer, inner = iter(trace), iter(trace)
        seen = [next(outer)]
        ahead = [next(inner), next(inner)]
        seen += list(outer)
        assert seen == ahead + list(inner) == trace.records
        assert len(seen) == 5

    def test_single_segment(self):
        plda = DiagPlda(np.ones(2))
        emb = [ProbEmbedding(np.zeros(2), np.ones(2))]
        for mode in ("by_the_book", "baseline"):
            assert cut(merge_trace(stack(emb), plda, AhcConfig(mode=mode)), 0.0) == (1,)


def replay(trace, sigma):
    """Labels after the merges sigma accepts, replayed record by record up to
    the first one it stops: the one-sigma cut of earlier versions."""
    raw = np.arange(trace.n)
    for a, b, score in trace:
        if (not score > sigma) if trace.calibration is None \
                else score < trace.calibration + sigma:
            break
        raw[raw == b] = a
    return canonicalize(raw.tolist())


class TestCuts:
    """One replay for many sigmas equals a replay per sigma."""

    @pytest.mark.parametrize("mode", ["by_the_book", "baseline"])
    def test_grid_equals_per_sigma_cut(self, rng, mode):
        grid = SIGMA_GRID + (np.inf, -np.inf)
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        for n in (1, 2, 9, 17):
            embs = stack(random_embeddings(rng, n, d=3))
            trace = merge_trace(embs, plda, AhcConfig(mode=mode))
            got = cuts(trace, grid)
            assert got == [cut(trace, s) for s in grid]
            assert got == [replay(trace, s) for s in grid]

    @pytest.mark.parametrize("mode", ["by_the_book", "baseline"])
    def test_sigmas_on_recorded_scores_in_any_order(self, rng, mode):
        """Sigmas equal to a recorded score, or one ulp off it, shuffled and
        repeated, each cut from a fresh (lazily pulled) trace."""
        plda = DiagPlda(rng.uniform(0.5, 2.0, 3))
        for _ in range(5):
            embs = stack(random_embeddings(rng, 9, d=3))
            full = merge_trace(embs, plda, AhcConfig(mode=mode))
            list(full)
            offset = full.calibration or 0.0
            sigmas = [x for _, _, score in full.records
                      for x in (score - offset, np.nextafter(score - offset, np.inf),
                                np.nextafter(score - offset, -np.inf))]
            sigmas = [float(s) for s in rng.permutation(sigmas + sigmas[:4] + [3.0])]
            want = [replay(full, s) for s in sigmas]
            assert cuts(merge_trace(embs, plda, AhcConfig(mode=mode)), sigmas) == want
            assert len(set(want)) > 2

    def test_replay_stops_at_the_smallest_sigma(self, rng):
        trace = merge_trace(stack(random_embeddings(rng, 8)), DiagPlda(np.ones(4)),
                            AhcConfig())
        first = next(iter(trace))[2]
        assert cuts(trace, [first, np.nextafter(first, np.inf)]) == [tuple(range(1, 9))] * 2
        assert len(trace.records) == 1
        assert cuts(trace, []) == []


class TestVectorizedEngine:
    """The array-scored engines against the per-pair loops they replaced:
    merge records (pairs and scores) and calibration are equal, not close."""

    @staticmethod
    def recording(rng, n, d, duplicated):
        embs = []
        for _ in range(n):
            prec = rng.uniform(0, 3, d)
            prec[rng.random(d) < 0.2] = 0.0
            embs.append(ProbEmbedding(rng.normal(size=d), prec))
        if duplicated:
            # a few distinct segments, repeated: equal pair scores tie
            embs = [embs[k] for k in rng.integers(0, max(1, n // 4), n)]
        return embs

    @pytest.mark.parametrize("n", [2, 3, 17, 120])
    @pytest.mark.parametrize("duplicated", [False, True])
    def test_matches_loop(self, rng, n, duplicated):
        for d in (24,) if n > 100 else (24, 2, 9):
            plda = DiagPlda(rng.uniform(0.3, 3.0, d))
            embs = self.recording(rng, n, d, duplicated)
            for scale in (1.0, 0.37):
                got = merge_trace(stack(embs), plda, AhcConfig(likelihood_scale=scale))
                assert list(got) == list(loop_book_trace(embs, plda, scale))
            got = merge_trace(stack(embs), plda, AhcConfig(mode="baseline"))
            want = loop_baseline_trace(embs, plda)
            assert list(got) == list(want)
            assert got.calibration == want.calibration
            if duplicated and n > 10:
                scores = [score for _, _, score in got.records]
                assert len(set(scores)) < len(scores)

    @pytest.mark.parametrize("mode", ["by_the_book", "baseline"])
    def test_ahc_on_batches_matches_loop(self, small_corpus, mode):
        """Labels of AHC on extracted batches equal the loop engine's on
        per-segment embeddings, at every sigma of the grid."""
        for seed in range(2):
            model, plda = pd.init_extractor(small_corpus.full_plda, seed=seed,
                                            margin=100.0)
            for rec in small_corpus.recordings:
                embs = [pd.extract(sr, model) for sr in rec.records]
                want = loop_book_trace(embs, plda, 1.0) if mode == "by_the_book" \
                    else loop_baseline_trace(embs, plda)
                batch = pd.extract_batch(rec.records, model)
                for sigma in SIGMA_GRID:
                    assert ahc(batch, plda, AhcConfig(mode=mode, sigma=sigma)) == \
                        replay(want, sigma)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_blocked_fill_matches_loop(self, rng, monkeypatch, block):
        """Pair blocks that end mid-row leave every record unchanged, and the
        book engine fills its first pair gains bit for bit as the loop's
        scalar `merge_delta` calls do."""
        monkeypatch.setattr(clustering, "_PAIR_BLOCK", block)
        filled = []
        greedy = clustering._greedy_merges

        def record(score, rescore):
            filled.append(score.copy())
            return greedy(score, rescore)

        monkeypatch.setattr(clustering, "_greedy_merges", record)
        monkeypatch.setattr(ahc_loop, "_greedy_merges", record)
        for n in (2, 17, 40):
            plda = DiagPlda(rng.uniform(0.3, 3.0, 9))
            embs = self.recording(rng, n, 9, duplicated=n > 10)
            filled.clear()
            got = merge_trace(stack(embs), plda, AhcConfig(likelihood_scale=0.37))
            assert list(got) == list(loop_book_trace(embs, plda, 0.37))
            np.testing.assert_array_equal(filled[0], filled[1])
            got = merge_trace(stack(embs), plda, AhcConfig(mode="baseline"))
            want = loop_baseline_trace(embs, plda)
            assert list(got) == list(want)
            assert got.calibration == want.calibration

    def test_first_fill_memory_is_bounded(self, rng):
        """The first pair scores of 1500 segments need the (n x n) score
        matrix and its pair indices, about 36 MB, while one broadcast over
        all pairs would make (pairs x D) temporaries of 144 MB each."""
        d = 16
        plda = DiagPlda(rng.uniform(0.3, 3.0, d))
        embs = [ProbEmbedding(x, p) for x, p in zip(rng.normal(size=(1500, d)),
                                                    rng.uniform(0, 3, (1500, d)))]
        tracemalloc.start()
        try:
            merge_trace(stack(embs), plda, AhcConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80e6

"""The nine acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <k>: PASS" line on success (visible
with -s or -rP); under `pytest -v` the per-test PASSED/FAILED line serves the
same purpose.  Criteria 7 and 8 share one module-scoped end-to-end run."""

import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from probdiar.clustering import AhcConfig, ahc_by_the_book
from probdiar.evalkit import Timeline, Turn, der
from probdiar.extractor import (ExtractorModel, SegmentRecord, SyntheticConfig,
                                generate_corpus, init_extractor)
from probdiar.partitions import (CrpParams, bell_number, build_tables,
                                 canonicalize, crp_log_prob, enumerate_rgs,
                                 expected_cluster_count, fit_crp)
from probdiar.pipeline import evaluate, sweep
from probdiar.plda import DiagPlda, EmbeddingBatch, ProbEmbedding, clustering_log_posterior
from probdiar.training import OctetTrial, TrainConfig, finite_difference_check, train

from .conftest import brute_force_log_posterior
from .pooled_oracle import member_stats, partition_loglik, stats_loglik


def _ok(k, detail=""):
    print(f"ACCEPTANCE {k}: PASS {detail}".rstrip())


def test_criterion_1_partition_machinery():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    t0 = time.time()
    for n in range(1, 11):
        assert len(enumerate_rgs(n)) == bell_number(n) == bell[n]
    assert bell_number(8) == 4140
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _ok(1, f"(B_1..B_10 exact, B_8 = 4140, {elapsed:.2f} s)")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for n in range(2, 7):
        tables = build_tables(n, CrpParams(1.0, 0.1))
        for _ in range(200):
            d = rng.integers(2, 9)
            plda = DiagPlda(rng.uniform(0.3, 3.0, d))
            embs = [ProbEmbedding(rng.normal(size=d), rng.uniform(0, 5, d))
                    for _ in range(n)]
            post = clustering_log_posterior(embs, plda, tables)
            oracle = brute_force_log_posterior(embs, plda, tables)
            worst = max(worst, float(np.abs(post - oracle).max()))
    assert worst < 1e-10, f"max log-domain deviation {worst:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _ok(2, f"(1000 inputs, max deviation {worst:.1e}, {elapsed:.1f} s)")


def test_criterion_3_uncertainty_limits():
    rng = np.random.default_rng(7)
    tables = build_tables(4, CrpParams(0.8, 0.2))
    plda = DiagPlda(rng.uniform(0.5, 2.0, 5))

    # (a) zero precision: the posterior is the prior, exactly
    embs = [ProbEmbedding(rng.normal(size=5), np.zeros(5)) for _ in range(4)]
    post = clustering_log_posterior(embs, plda, tables)
    np.testing.assert_array_equal(post, tables.log_prior)

    # (b) saturated precision: total variation to the plug-in posterior
    worst_tv = 0.0
    for _ in range(50):
        xh = [rng.normal(size=5) for _ in range(4)]
        embs = [ProbEmbedding(x, 1e12 * plda.w) for x in xh]
        post = np.exp(clustering_log_posterior(embs, plda, tables))
        # plug-in oracle: the evidence weight is exactly w
        logliks = []
        for labels in tables.rgs:
            total = 0.0
            for k in set(labels):
                members = [xh[t] for t in range(4) if labels[t] == k]
                a = sum(plda.w * x for x in members)
                b = plda.w * len(members)
                total += float(0.5 * np.sum(a ** 2 / (1 + b) - np.log1p(b)))
            logliks.append(total)
        logits = np.array(logliks) + tables.log_prior
        ref = np.exp(logits - logsumexp(logits))
        worst_tv = max(worst_tv, 0.5 * float(np.abs(post - ref).sum()))
    assert worst_tv < 1e-6, f"TV distance {worst_tv:.2e}"
    _ok(3, f"(prior limit exact, plug-in TV {worst_tv:.1e})")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(3)
    t0 = time.time()
    worst = 0.0
    for n in (4, 8):
        tables = build_tables(n, CrpParams(1.0, 0.1))
        for _ in range(10):
            d = 8
            model = ExtractorModel(W1=rng.normal(size=(2 * d, 2)),
                                   b1=rng.normal(size=2 * d),
                                   W2=rng.normal(scale=0.5, size=(d, 2 * d)),
                                   b2=rng.normal(size=d),
                                   A=rng.normal(size=(d, d)))
            plda = DiagPlda(rng.uniform(0.5, 2.0, d))
            batch = [OctetTrial(
                records=tuple(SegmentRecord(raw=rng.normal(size=d),
                                            quality=rng.normal(size=2),
                                            duration=1.0) for _ in range(n)),
                truth=canonicalize(rng.integers(1, n + 1, n)))
                for _ in range(2)]
            err = finite_difference_check(batch, model, plda, tables)
            worst = max(worst, err)
    assert worst < 1e-5, f"max relative error {worst:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    _ok(4, f"(20 batches, max rel error {worst:.1e}, {elapsed:.1f} s)")


def test_criterion_5_crp():
    # exhaustive normalization across a parameter grid
    for n in range(2, 7):
        for alpha in (0.2, 1.0, 4.0):
            for d in (0.0, 0.25, 0.5, 0.75):
                params = CrpParams(alpha, d)
                total = sum(math.exp(crp_log_prob(labels, params))
                            for labels in enumerate_rgs(n))
                assert abs(total - 1.0) < 1e-12

    # fit_crp hits the target; verified with an independent seat-by-seat
    # Monte Carlo sampler
    for n_total, target in ((8, 3.0), (24, 4.0)):
        params = fit_crp(n_total, target)
        assert abs(expected_cluster_count(
            n_total, params.concentration, params.discount) - target) \
            <= 0.005 * target
        rng = np.random.default_rng(99)
        n_samples = 1_000_000
        k = np.ones(n_samples)
        for t in range(1, n_total):
            p_new = (params.concentration + k * params.discount) \
                / (params.concentration + t)
            k += rng.random(n_samples) < p_new
        mc_err = 3.0 * k.std() / math.sqrt(n_samples)
        assert abs(k.mean() - target) <= 0.005 * target + mc_err
    _ok(5, "(normalization 1e-12, fit within 0.5% incl. 1e6-sample MC)")


def test_criterion_6_by_the_book_ahc():
    rng = np.random.default_rng(11)

    def greedy_replay(embs, plda):
        """Independent greedy run that records every accepted merge gain."""
        stats = [member_stats([e], plda.w) for e in embs]
        members = [[t] for t in range(len(embs))]
        active = list(range(len(embs)))
        gains = []
        while len(active) > 1:
            best, pair = -np.inf, None
            for i, a in enumerate(active):
                for b in active[i + 1:]:
                    (a1, b1), (a2, b2) = stats[a], stats[b]
                    dlt = stats_loglik(a1 + a2, b1 + b2) \
                        - stats_loglik(a1, b1) - stats_loglik(a2, b2)
                    if dlt > best or (dlt == best and (a, b) < pair):
                        best, pair = dlt, (a, b)
            if not best > 0.0:
                break
            gains.append(best)
            a, b = pair
            stats[a] = (stats[a][0] + stats[b][0], stats[a][1] + stats[b][1])
            members[a].extend(members[b])
            active.remove(b)
        raw = [0] * len(embs)
        for k, segs in enumerate(members[a] for a in active):
            for t in segs:
                raw[t] = k + 1
        return canonicalize(raw), gains, [stats[a] for a in active]

    for trial in range(20):
        n = int(rng.integers(4, 7))
        d = 4
        plda = DiagPlda(rng.uniform(0.5, 2.0, d))
        embs = [ProbEmbedding(rng.normal(size=d), rng.uniform(0, 4, d))
                for _ in range(n)]
        labels = ahc_by_the_book(EmbeddingBatch.stack(embs), plda, AhcConfig(sigma=0.0))
        replay_labels, gains, final_stats = greedy_replay(embs, plda)
        # same greedy decisions, every merge strictly positive
        assert labels == replay_labels
        assert all(g > 0 for g in gains)
        # merged stats equal from-scratch recomputation
        for stats, k in zip(final_stats, sorted(set(labels),
                                                key=list(labels).index)):
            fresh = member_stats([embs[t] for t in range(n) if labels[t] == k],
                                 plda.w)
            assert abs(stats_loglik(*stats) - stats_loglik(*fresh)) < 1e-9
        # never beats the exhaustive optimum
        def total_ll(p):
            return partition_loglik(p, embs, plda.w)
        best = max(total_ll(p) for p in enumerate_rgs(n))
        assert total_ll(labels) <= best + 1e-10
    _ok(6, "(20 replays: positive gains, exact stats, below optimum)")


SIGMA_GRID = [-20, -15, -10, -7, -5, -3, -2, -1, 0, 1, 2, 3, 5, 10, 20]
SCALE_GRID = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 1.0, 1.5, 2.0]


@pytest.fixture(scope="module")
def end_to_end():
    """Three-seed end-to-end run shared by criteria 7 and 8."""
    t0 = time.time()
    corpus = generate_corpus(SyntheticConfig(seed=0))
    dev = generate_corpus(SyntheticConfig(seed=1000, n_recordings=12))
    evl = generate_corpus(SyntheticConfig(seed=2000, n_recordings=12))

    def tuned_sigma(model, plda):
        rows, best = sweep("sigma", SIGMA_GRID, dev.recordings, evl.recordings,
                           model, plda, AhcConfig())
        eval_at = {r[0]: r[2] for r in rows}
        return best, eval_at[best]

    def best_scale(model, plda):
        _, best = sweep("scale", SCALE_GRID, dev.recordings, [], model, plda,
                        AhcConfig())
        return best

    out = {"full": [], "ponly": [], "untr": [], "base": [],
           "sigma_full": [], "sigma_untr": [],
           "scale_full": [], "scale_untr": []}
    for seed in (0, 1, 2):
        full = train(TrainConfig(seed=seed), corpus)
        ponly = train(TrainConfig(seed=seed, train_net=False), corpus)
        um, up = init_extractor(corpus.full_plda, seed=seed, margin=100.0,
                                quality_dim=2)

        s_f, d_f = tuned_sigma(full.model, full.plda)
        s_p, d_p = tuned_sigma(ponly.model, ponly.plda)
        s_u, d_u = tuned_sigma(um, up)
        d_b = evaluate(evl.recordings, um, up, AhcConfig(mode="baseline")).der

        out["full"].append(d_f)
        out["ponly"].append(d_p)
        out["untr"].append(d_u)
        out["base"].append(d_b)
        out["sigma_full"].append(s_f)
        out["sigma_untr"].append(s_u)
        out["scale_full"].append(best_scale(full.model, full.plda))
        out["scale_untr"].append(best_scale(um, up))
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_7_end_to_end_ordering(end_to_end):
    full = np.mean(end_to_end["full"])
    ponly = np.mean(end_to_end["ponly"])
    untr = np.mean(end_to_end["untr"])
    base = np.mean(end_to_end["base"])
    assert full < ponly < untr, \
        f"ordering violated: full {full:.3f}, PLDA-only {ponly:.3f}, " \
        f"untrained {untr:.3f}"
    assert abs(untr - base) / base < 0.25, \
        f"untrained tuned {untr:.3f} not comparable to baseline {base:.3f}"
    rel_gain = (base - full) / base
    assert rel_gain >= 0.10, f"relative gain over baseline only {rel_gain:.1%}"
    assert end_to_end["elapsed"] < 900.0, \
        f"took {end_to_end['elapsed']:.0f} s"
    _ok(7, f"(DER full {full:.3f} < PLDA-only {ponly:.3f} < untrained "
           f"{untr:.3f} ~ baseline {base:.3f}; gain {rel_gain:.0%}; "
           f"{end_to_end['elapsed']:.0f} s)")


def test_criterion_8_calibration_drift(end_to_end):
    sig_full = np.mean(np.abs(end_to_end["sigma_full"]))
    sig_untr = np.mean(np.abs(end_to_end["sigma_untr"]))
    assert sig_full < sig_untr, \
        f"|sigma*| trained {sig_full:.1f} vs untrained {sig_untr:.1f}"
    scl_full = np.mean(np.abs(np.array(end_to_end["scale_full"]) - 1.0))
    scl_untr = np.mean(np.abs(np.array(end_to_end["scale_untr"]) - 1.0))
    assert scl_full < scl_untr, \
        f"|scale*-1| trained {scl_full:.2f} vs untrained {scl_untr:.2f}"
    _ok(8, f"(|sigma*| {sig_full:.1f} < {sig_untr:.1f}; "
           f"|scale*-1| {scl_full:.2f} < {scl_untr:.2f})")


def test_criterion_9_der_scorer():
    def tl(rec, *turns):
        return Timeline(rec, tuple(Turn(s, d, spk) for s, d, spk in turns))

    ref = tl("r", (0, 2, "a"), (2, 3, "b"))
    assert der(ref, ref).der == 0.0

    ref = tl("r", (0, 5, "a"), (5, 5, "b"))
    hyp = tl("r", (0, 10, "x"))
    assert der(ref, hyp, exact=True).der == pytest.approx(0.5)

    ref = tl("r", (0, 2, "a"), (2, 3, "b"), (5, 1, "c"))
    hyp = tl("r", (0, 2, "z"), (2, 3, "x"), (5, 1, "y"))
    assert der(ref, hyp).der == 0.0

    rng = np.random.default_rng(17)
    for _ in range(100):
        turns, t = [], 0.0
        for _ in range(8):
            dur = float(rng.uniform(0.5, 2.0))
            turns.append(Turn(t, dur, f"s{rng.integers(3)}"))
            t += dur + float(rng.uniform(0, 0.5))
        ref = Timeline("r", tuple(turns))
        turns, t = [], 0.0
        for _ in range(8):
            dur = float(rng.uniform(0.5, 2.0))
            turns.append(Turn(t, dur, f"h{rng.integers(3)}"))
            t += dur + float(rng.uniform(0, 0.5))
        hyp = Timeline("r", tuple(turns))
        base = der(ref, hyp).der
        perm = {s: f"renamed_{i}" for i, s in enumerate(
            rng.permutation(hyp.speakers()))}
        renamed = Timeline("r", tuple(
            Turn(t.start, t.duration, perm[t.speaker]) for t in hyp.turns))
        assert der(ref, renamed).der == pytest.approx(base, abs=1e-12)
    _ok(9, "(three exact examples, 100 relabeling-invariant fuzz cases)")

"""Reference synthetic corpus generator for the tests: the per-segment loop
that `probdiar.extractor.generate_corpus` replaced with one normal draw per
recording, kept verbatim.  It draws three short normal vectors per segment,
so it is slow but easy to check by eye."""

import numpy as np

from probdiar.extractor import (DURATION_BOUNDS, LOG_NOISE_VAR_BOUNDS, QUALITY_DIM,
                                QUALITY_NOISE_STD, WITHIN_SCALE, Corpus, Recording,
                                SegmentRecord, SyntheticConfig, _random_spd)
from probdiar.partitions import canonicalize
from probdiar.plda import FullPlda


def generate_corpus(cfg: SyntheticConfig) -> Corpus:
    """Generate a deterministic synthetic corpus.

    Speakers are drawn per recording from N(0, between_cov); clean vectors
    from N(speaker, within_cov); observations add isotropic noise with
    per-segment variance sigma^2(q), log-uniform over LOG_NOISE_VAR_BOUNDS.
    Quality features are a noisy encoding of the per-segment noise level plus
    the segment duration.
    """
    root = np.random.SeedSequence(cfg.seed)
    ss_model, ss_rec = root.spawn(2)
    rng = np.random.default_rng(ss_model)

    between = _random_spd(rng, cfg.dim, (0.5, 2.0))
    within = _random_spd(rng, cfg.dim, (0.5, 2.0)) * WITHIN_SCALE ** 2
    full = FullPlda(between_cov=between, within_cov=within)
    chol_b = np.linalg.cholesky(between)
    chol_w = np.linalg.cholesky(within)

    n_heldout = int(round(cfg.holdout_fraction * cfg.n_recordings))
    rec_rngs = [np.random.default_rng(s) for s in ss_rec.spawn(cfg.n_recordings)]

    recordings = []
    for ri, rrng in enumerate(rec_rngs):
        n_spk = int(rrng.integers(cfg.min_speakers, cfg.max_speakers + 1))
        speakers = chol_b @ rrng.normal(size=(cfg.dim, n_spk))
        n_seg = cfg.segments_per_recording
        # every speaker appears at least once, remaining slots uniform
        spk_idx = np.concatenate([np.arange(n_spk),
                                  rrng.integers(0, n_spk, size=n_seg - n_spk)]) \
            if n_seg >= n_spk else rrng.integers(0, n_spk, size=n_seg)
        rrng.shuffle(spk_idx)

        log_var = rrng.uniform(*LOG_NOISE_VAR_BOUNDS, size=n_seg)
        sigma = np.exp(0.5 * log_var)
        durations = rrng.uniform(*DURATION_BOUNDS, size=n_seg)

        records = []
        starts = []
        t0 = 0.0
        for t in range(n_seg):
            clean = speakers[:, spk_idx[t]] + chol_w @ rrng.normal(size=cfg.dim)
            raw = clean + sigma[t] * rrng.normal(size=cfg.dim)
            enc = log_var[t] + QUALITY_NOISE_STD * rrng.normal(size=QUALITY_DIM - 1)
            quality = np.concatenate([enc, [durations[t]]])
            records.append(SegmentRecord(raw=raw, quality=quality, duration=durations[t]))
            starts.append(t0)
            t0 += durations[t]
        recordings.append(Recording(
            rec_id=f"rec{ri:04d}",
            records=records,
            labels=canonicalize(spk_idx.tolist()),
            starts=starts,
            split="heldout" if ri < n_heldout else "train",
            oracle_prec=1.0 / np.exp(log_var),
        ))
    return Corpus(recordings=recordings, full_plda=full)

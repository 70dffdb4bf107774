"""Probabilistic embedding extraction, the corpus types and a synthetic
corpus generator.

The extractor maps a per-segment feature record to a probabilistic embedding:
a trainable linear transform produces the mean, and a small
linear-softplus-linear-softplus network maps quality features to diagonal
precisions.  `extract_batch` maps a recording's records to one
`EmbeddingBatch`, and `extract` is its one-record case.  `Recording` and
`Corpus` hold segments, generated or read from a corpus file.  The synthetic
generator stands in for a speech front-end: it draws speakers and clean
vectors from a two-covariance model, corrupts each segment with noise of
per-segment variance, and emits quality features that encode the (noisy)
corruption level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ShapeError
from .partitions import canonicalize
from .plda import DiagPlda, EmbeddingBatch, FullPlda, ProbEmbedding, joint_diagonalize

# initialization scales for the precision net (means of the weights are 0)
INIT_W1_STD = 0.1
INIT_W2_STD = 1e-3
INIT_MARGIN_SAFETY = 1.05
# noise on the synthetic quality encoding of log sigma^2
QUALITY_NOISE_STD = 0.05
# bounds of the uniform synthetic segment durations, in seconds
DURATION_BOUNDS = (0.5, 2.0)
LOG_NOISE_VAR_BOUNDS = (-4.0, 2.5)   # of the uniform synthetic log sigma^2(q)
WITHIN_SCALE = 0.3   # synthetic within-speaker vs unit between-speaker spread
# synthetic quality features: a noisy noise-level encoding and the duration
QUALITY_DIM = 2


def softplus(z):
    """log(1 + exp(z)) without overflow."""
    return np.logaddexp(0.0, z)


def inv_softplus(y):
    """Inverse of softplus for y > 0."""
    y = np.asarray(y, dtype=np.float64)
    # log(expm1(y)), stable for large y where expm1 overflows
    return np.where(y > 30, y, np.log(np.expm1(np.minimum(y, 30.0))))


@dataclass(frozen=True)
class SegmentRecord:
    """One segment's features: raw embedding stand-in, quality vector, duration."""

    raw: np.ndarray
    quality: np.ndarray
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "raw", np.asarray(self.raw, dtype=np.float64))
        object.__setattr__(self, "quality", np.asarray(self.quality, dtype=np.float64))
        if not (np.all(np.isfinite(self.raw)) and np.all(np.isfinite(self.quality))):
            raise DomainError("segment features must be finite")
        if not 0 < self.duration < np.inf:
            raise DomainError(f"duration must be positive and finite, got {self.duration}")


@dataclass(frozen=True)
class ExtractorModel:
    """The extractor's parameters: the mean transform A, and the weights
    W1, b1, W2, b2 of a linear-softplus-linear-softplus network mapping
    quality features to strictly positive diagonal precisions.  The fields,
    in this order, are the parameter list of training and of model files."""

    A: np.ndarray
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=np.float64))
        if self.W1.ndim != 2 or self.W2.ndim != 2:
            raise ShapeError("W1 and W2 must be matrices")
        h, q = self.W1.shape
        d, h2 = self.W2.shape
        if h2 != h or self.b1.shape != (h,) or self.b2.shape != (d,):
            raise ShapeError("inconsistent precision-net parameter shapes")
        if self.A.ndim != 2:
            raise ShapeError("A must be a matrix")
        if self.A.shape[0] != d:
            raise ShapeError("A rows must match precision-net output size")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def raw_dim(self) -> int:
        return self.A.shape[1]

    # The layers take (n x q) quality rows and multiply each row on its own
    # (a stack of vector-matrix products), so a row's bits do not depend on
    # the rows beside it; one (n x q) @ (q x h) product would round
    # differently.
    def precisions(self, quality: np.ndarray) -> np.ndarray:
        hidden = softplus(np.matmul(quality[:, None, :], self.W1.T)[:, 0] + self.b1)
        return softplus(np.matmul(hidden[:, None, :], self.W2.T)[:, 0] + self.b2)


def extract_batch(records, model: ExtractorModel) -> EmbeddingBatch:
    """Map segment records to the batch of their probabilistic embeddings.
    Every product is stacked per record, so row k has the bits of `extract`
    of record k alone."""
    try:
        raw = np.stack([r.raw for r in records])
        quality = np.stack([r.quality for r in records])
    except ValueError as exc:   # no records, or records of unequal dims
        raise ShapeError(f"need one or more records of equal dims: {exc}") from None
    if raw.shape[1:] != (model.raw_dim,):
        raise ShapeError(f"raw dim {raw.shape[1:]} != transform input {model.raw_dim}")
    if quality.shape[1:] != (model.W1.shape[1],):
        raise ShapeError("quality dim does not match precision-net input")
    # an overflow names its stage: its inf would warn, or pass softplus as a 0
    stage = "mean transform"
    try:
        with np.errstate(over="raise", invalid="raise"):
            xhat = np.matmul(model.A, raw[:, :, None])[:, :, 0]
            stage = "precision net"
            return EmbeddingBatch(xhat, model.precisions(quality))
    except FloatingPointError as exc:
        raise DomainError(f"extraction overflows in the {stage}: {exc}") from None


def extract(rec: SegmentRecord, model: ExtractorModel) -> ProbEmbedding:
    """Map one segment record to a probabilistic embedding."""
    batch = extract_batch([rec], model)
    return ProbEmbedding(batch.xhat[0], batch.prec[0])


def init_extractor(full: FullPlda, seed: int, margin: float,
                   quality_dim: int = QUALITY_DIM) -> tuple[ExtractorModel, DiagPlda]:
    """Initialize extractor and diagonal PLDA from an untransformed model.

    The mean transform is the diagonalizing transform, and the precision net
    (2 * dim hidden units) is initialized with small random weights and an
    output bias high enough that every precision exceeds margin times the
    within-speaker precision, so the initial system scores like plug-in PLDA.
    `margin` has no default: `TrainConfig.margin` owns its value.
    """
    if not margin > 0:
        raise DomainError(f"margin must be positive, got {margin}")
    t, diag = joint_diagonalize(full)
    d = t.shape[0]
    h = 2 * d
    rng = np.random.default_rng(seed)
    model = ExtractorModel(
        A=t,
        W1=rng.normal(0.0, INIT_W1_STD, size=(h, quality_dim)),
        b1=np.zeros(h),
        W2=rng.normal(0.0, INIT_W2_STD, size=(d, h)),
        b2=inv_softplus(INIT_MARGIN_SAFETY * margin * diag.w),
    )
    return model, diag


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic corpus generator.  Defaults give a small corpus
    with strongly heterogeneous segment quality."""

    dim: int = 8                    # embedding dim D (= raw dim here)
    n_recordings: int = 40
    segments_per_recording: int = 24
    min_speakers: int = 2
    max_speakers: int = 4
    holdout_fraction: float = 0.25  # recordings reserved as a held-out split
    seed: int = 0

    def __post_init__(self):
        if min(self.dim, self.n_recordings,
               self.segments_per_recording, self.min_speakers) < 1:
            raise DomainError("all size parameters must be positive")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.max_speakers < self.min_speakers:
            raise DomainError("max_speakers must be >= min_speakers")
        if not 0 <= self.holdout_fraction < 1:
            raise DomainError("holdout_fraction must be in [0, 1)")


def split_names(n_recordings: int, holdout_fraction: float) -> list[str]:
    """The splits of n recordings in order, as `generate_corpus` and the
    `train` command assign them: the first round(holdout_fraction * n) (half
    to even) are "heldout", the rest "train"."""
    n_heldout = round(holdout_fraction * n_recordings)
    return ["heldout"] * n_heldout + ["train"] * (n_recordings - n_heldout)


@dataclass(frozen=True, eq=False)
class Recording:
    """One recording: segment records, speaker labels and onsets in seconds,
    one of each per segment.  `split` is "train" or "heldout".  `oracle_prec`
    (per-segment oracle noise precision 1/sigma^2(q)) is a diagnostic that
    only the synthetic generator knows.  Equality is identity."""

    rec_id: str
    records: tuple
    labels: tuple
    starts: tuple
    split: str
    oracle_prec: np.ndarray | None = None

    def __post_init__(self):
        for name in ("records", "labels", "starts"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.records)
        if not n or {len(self.labels), len(self.starts)} != {n} or (
                self.oracle_prec is not None and len(self.oracle_prec) != n):
            raise ShapeError(f"recording {self.rec_id} needs one or more segments, with "
                             f"one label, start and oracle_prec entry each")
        if len({(sr.raw.shape, sr.quality.shape) for sr in self.records}) != 1:
            raise ShapeError(f"recording {self.rec_id}: segments differ in raw or "
                             f"quality dim")
        if self.split not in ("train", "heldout"):
            raise DomainError(f"split must be 'train' or 'heldout', got {self.split!r}")
        if not all(math.isfinite(t) and t >= 0 for t in self.starts):
            raise DomainError(f"recording {self.rec_id}: segment starts must be "
                              f"finite and nonnegative")


@dataclass(frozen=True)
class Corpus:
    """Recordings of both splits and the two-covariance model of their
    speakers; iterating yields the recordings."""

    recordings: tuple
    full_plda: FullPlda

    def __post_init__(self):
        object.__setattr__(self, "recordings", tuple(self.recordings))

    def __iter__(self):
        return iter(self.recordings)

    @property
    def train_recordings(self):
        return tuple(r for r in self.recordings if r.split == "train")

    @property
    def heldout_recordings(self):
        return tuple(r for r in self.recordings if r.split == "heldout")


@np.errstate(over="ignore", invalid="ignore")
def estimate_full_plda(recordings) -> FullPlda:
    """Two-covariance model estimated from labeled raw vectors: within-speaker
    covariance from pooled per-speaker scatter, between-speaker covariance
    from the spread of speaker means.  Speakers are (recording, label) pairs.

    A small diagonal jitter keeps both estimates positive definite.  Raw
    vectors that overflow the covariances are a DomainError.
    """
    groups: dict = {}
    for rec in recordings:
        for sr, lab in zip(rec.records, rec.labels):
            groups.setdefault((rec.rec_id, lab), []).append(sr.raw)
    if not groups:
        raise DomainError("no labeled segments to estimate a model from")
    dim = next(iter(groups.values()))[0].shape[0]
    means = []
    within = np.zeros((dim, dim))
    n_total = 0
    for vecs in groups.values():
        x = np.stack(vecs)
        mu = x.mean(axis=0)
        means.append(mu)
        centered = x - mu
        within += centered.T @ centered
        n_total += x.shape[0]
    k = len(groups)
    within /= max(n_total - k, 1)
    means = np.stack(means)
    centered = means - means.mean(axis=0)
    between = centered.T @ centered / max(k - 1, 1)
    jitter = 1e-6 * np.eye(dim)
    within = 0.5 * (within + within.T) + jitter * max(np.trace(within) / dim, 1.0)
    between = 0.5 * (between + between.T) + jitter * max(np.trace(between) / dim, 1.0)
    if not (np.all(np.isfinite(within)) and np.all(np.isfinite(between))):
        raise DomainError("the PLDA estimate overflows: raw features too large")
    return FullPlda(between_cov=between, within_cov=within)


def _random_spd(rng, dim, eig_range):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(*eig_range, size=dim)
    return (q * eigs) @ q.T


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

    rec_rngs = [np.random.default_rng(s) for s in ss_rec.spawn(cfg.n_recordings)]
    splits = split_names(cfg.n_recordings, cfg.holdout_fraction)

    recordings = []
    for ri, (rrng, split) in enumerate(zip(rec_rngs, splits)):
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

        # segment t's within-speaker, noise and encoding normals are row t, the
        # stream's order; a stack of products gives row t the bits of chol_w @ z[t]
        z = rrng.normal(size=(n_seg, 2 * cfg.dim + QUALITY_DIM - 1))
        clean = speakers[:, spk_idx].T + np.matmul(chol_w, z[:, :cfg.dim, None])[:, :, 0]
        raw = clean + sigma[:, None] * z[:, cfg.dim:2 * cfg.dim]
        quality = np.column_stack((log_var[:, None] + QUALITY_NOISE_STD * z[:, 2 * cfg.dim:],
                                   durations))
        recordings.append(Recording(
            rec_id=f"rec{ri:04d}",
            records=[SegmentRecord(raw=x, quality=q, duration=dur)
                     for x, q, dur in zip(raw, quality, durations)],
            labels=canonicalize(spk_idx.tolist()),
            starts=np.concatenate(([0.0], np.cumsum(durations[:-1]))),
            split=split,
            oracle_prec=1.0 / np.exp(log_var),
        ))
    return Corpus(recordings=recordings, full_plda=full)

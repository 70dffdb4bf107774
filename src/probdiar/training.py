"""Joint discriminative training of the diagonal PLDA, the mean transform and
the precision net, by multiclass cross-entropy over the full partition
posterior of randomly sampled same-recording n-tuples.

All gradients are analytic (hand-derived backpropagation through the posterior
softmax, the pooled-statistics likelihood, the evidence weights and the
extractor); a finite-difference checker is provided as an independent
verification gate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import expit

from .errors import DataError, DomainError, ShapeError, TrainingError
from .extractor import Corpus, ExtractorModel, init_extractor, softplus
from .partitions import CrpParams, PartitionTables, build_tables, canonicalize, fit_crp
from .plda import EXP_FLOOR, DiagPlda, _partition_logits, segment_weight, subset_logliks


@dataclass(frozen=True)
class OctetTrial:
    """A supervised n-tuple of same-recording segments with its true clustering."""

    records: tuple
    truth: tuple


@dataclass(frozen=True)
class TrainConfig:
    """Settings of `train`.  The `train` command's flags take their defaults
    from here, and `--freeze-net` is `train_net=False`."""

    n: int = 8
    batch_size: int = 100
    lr_net: float = 10.0
    lr_ratio: float = 1e-4      # transform + PLDA learn this much slower
    epochs: int = 300
    seed: int = 0
    crp: CrpParams | None = None  # fitted to the corpus when None
    train_net: bool = True      # False freezes the precision net (PLDA-only mode)

    def __post_init__(self):
        if not 0 <= self.lr_net < np.inf or not 0 < self.lr_ratio <= 1:
            raise DomainError("lr_net must be finite and nonnegative, lr_ratio in (0, 1]")
        if self.batch_size < 1 or self.n < 2 or self.epochs < 0:
            raise DomainError("batch_size, n and epochs out of range")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")

    @property
    def margin(self) -> float:
        """Saturation margin of the initial precisions (`init_extractor`'s):
        10 when the net trains, 100 when it is frozen.  A frozen net must
        keep extracting saturated precisions, so that the system scores
        like plug-in PLDA and only the PLDA and the transform differ."""
        return 10.0 if self.train_net else 100.0


def sample_octets(recordings, n: int, rng):
    """Infinite stream of random n-tuples, each drawn without replacement from
    the segments of one of the recordings (any iterable of `Recording`, such
    as a `Corpus`), in randomized order, with canonical truth.  Recordings
    with fewer than n segments are skipped with a warning."""
    eligible = []
    for rec in recordings:
        if len(rec.records) < n:
            warnings.warn(f"recording {rec.rec_id} has fewer than {n} segments; skipped")
        else:
            eligible.append(rec)
    if not eligible:
        raise DataError(f"no recording has at least {n} segments")
    while True:
        rec = eligible[rng.integers(len(eligible))]
        idx = rng.choice(len(rec.records), size=n, replace=False).tolist()
        yield OctetTrial(
            records=tuple(rec.records[i] for i in idx),
            truth=canonicalize([rec.labels[i] for i in idx]),
        )


def _batch_arrays(batch, tables: PartitionTables):
    """The (B, n, R) raw features, (B, n, Q) quality features and (B,) true
    partition rows of a batch of trials.  Each field is one array of all the
    records' rows, reshaped."""
    if not batch:
        raise DataError("batch has no tuples")
    shape = (len(batch), len(batch[0].records))
    if {len(trial.records) for trial in batch} != {shape[1]}:
        raise ShapeError("a batch needs tuples of one size")
    records = [r for trial in batch for r in trial.records]
    try:
        # np.array, unlike a concatenation, refuses rows of unequal lengths
        raw, quality = (np.array([getattr(r, name) for r in records])
                        for name in ("raw", "quality"))
    except ValueError as exc:
        raise ShapeError(f"a batch needs records of equal dims: {exc}") from None
    return (raw.reshape(shape + raw.shape[1:]), quality.reshape(shape + quality.shape[1:]),
            tables.rgs_index([trial.truth for trial in batch]))


# tuples scored at once by `_forward_backward`.  A workspace of this many
# rows takes ~7.4 MB for n=8, D=8.  On a B=100 step plus a B=200 held-out
# forward (one thread), 32-64 rows time within noise of each other and 48
# had the lowest median
_TUPLE_BLOCK = 48


class _Workspace:
    """Buffers of `_forward_backward` for blocks of `rows` tuples, clamped to
    [2, _TUPLE_BLOCK]: (rows, 2^n - 1) subset log-likelihoods, five
    (rows, 2^n - 1, D) arrays (the pooled stats and three scratch arrays)
    and the (rows, B_n) posterior buffers of `_partition_logits`,
    F-ordered as it needs.  A block shorter than `rows` uses the leading
    rows, and everything it reads there it has written first.
    `_forward_backward` needs two rows for a batch of two or more."""

    def __init__(self, tables: PartitionTables, dim: int, rows: int):
        rows = min(max(rows, 2), _TUPLE_BLOCK)
        n_sub, n_part = tables.n_subsets, tables.n_partitions
        self.rows = rows
        # the float buffers share one allocation: once it is freed, glibc
        # serves the next call's workspace of that size from pages it keeps
        # mapped, where eight separate arrays are unmapped and fault in again
        shapes = [(rows, n_sub)] + [(rows, n_sub, dim)] * 5 + [(n_part, rows)] * 2
        flat = np.empty(sum(math.prod(sh) for sh in shapes))
        views, at = [], 0
        for sh in shapes:
            views.append(flat[at:at + math.prod(sh)].reshape(sh))
            at += math.prod(sh)
        self.g, *self.stats, logits, q = views
        self.logits, self.q = logits.T, q.T
        self.top = np.empty((n_part, rows), dtype=bool).T


def _forward_backward(raw, quality, truth, model: ExtractorModel, plda: DiagPlda,
                      tables: PartitionTables, want_grad: bool):
    """Mean cross-entropy over the batch and, optionally, its gradients.

    Shapes: raw (B, n, R), quality (B, n, Q), truth (B,).

    The per-tuple stages (subset pooling and likelihoods, the partition
    posterior, the softmax backward and the pooled-stats backward down to
    each segment's d_ex and d_e) run on blocks of up to `_TUPLE_BLOCK`
    tuples in the buffers of a `_Workspace` built for the call, so a batch
    of any size allocates no (B, B_n) or (B, 2^n - 1, D) array.  The in-place
    operations keep the order of the unblocked expressions, each tuple is
    reduced on its own, and the posterior buffers are F-ordered like the
    unblocked logits (see `_partition_logits`), so the loss and
    gradients have the bits of an unblocked pass.  Without gradients a
    block is not normalized: the loss reads only the true partition's logit
    and the block's log-sum-exp.  The extractor's forward and the parameter
    contractions run over the whole batch.
    """
    w = plda.w
    n_batch = raw.shape[0]
    ws = _Workspace(tables, plda.dim, n_batch)

    z1 = quality @ model.W1.T + model.b1
    h = softplus(z1)
    z2 = h @ model.W2.T + model.b2
    b = softplus(z2)
    xh = raw @ model.A.T
    e = segment_weight(plda, b)

    nll = np.empty(n_batch)
    if want_grad:
        s = tables.seg_subset                                      # (n, C)
        d_ex = np.empty_like(e)
        d_e = np.empty_like(e)
    for start in range(0, n_batch, ws.rows):
        hi = min(start + ws.rows, n_batch)
        # numpy sums the posterior of a one-row block pairwise, and the rows
        # of a longer one one after another: a last block of one tuple is
        # scored again with the tuple before it, as in an unblocked batch
        lo = max(min(start, hi - 2), 0)
        m = hi - lo
        i = np.arange(m)
        t = truth[lo:hi]
        a_bar, b_bar, t1, t2, t3 = (x[:m] for x in ws.stats)
        g, a_bar, b_bar = subset_logliks(e[lo:hi], xh[lo:hi], tables,
                                         out=(ws.g[:m], a_bar, b_bar, (t1, t2)))
        logits, lse = _partition_logits(g, tables,
                                        out=(ws.logits[:m], ws.q[:m], ws.top[:m]))
        if not want_grad:
            # -(logit - lse) == lse - logit in IEEE arithmetic
            nll[lo:hi] = lse[:, 0] - logits[i, t]
            continue
        log_post = np.subtract(logits, lse, out=logits)
        nll[lo:hi] = -log_post[i, t]

        # the softmax as exp(log posterior) under the posterior's clip keeps
        # the bits of the unclipped one; q / (1 + sum q) rounds differently.
        # It overwrites log_post, which is not needed after the loss.
        p = np.exp(np.maximum(log_post, EXP_FLOOR, out=log_post), out=log_post)
        p[i, t] -= 1.0
        p /= n_batch                                               # dloss/dlogits
        dg = (tables.part_subset.T @ p.T).T[:, :, None]            # (block, C, 1)
        den = np.add(1.0, b_bar, out=t2)
        # d_a_bar = dg * a_bar / den
        np.matmul(s, np.divide(np.multiply(dg, a_bar, out=t1), den, out=t1),
                  out=d_ex[lo:hi])
        # d_b_bar = dg * (-0.5) * (a_bar ** 2 / den ** 2 + 1.0 / den)
        np.square(a_bar, out=t1)
        t1 /= np.square(den, out=t3)
        t1 += np.divide(1.0, den, out=t3)
        t1 *= dg * (-0.5)
        np.multiply(d_ex[lo:hi], xh[lo:hi], out=d_e[lo:hi])
        d_e[lo:hi] += s @ t1
    loss = float(np.mean(nll))
    if not want_grad:
        return loss, None

    d_xh = d_ex * e

    ratio_w = w / (w + b)        # de/db = (w/(w+b))^2
    ratio_b = b / (w + b)        # de/dw = (b/(w+b))^2
    d_b = d_e * ratio_w ** 2
    d_log_w = np.sum(d_e * ratio_b ** 2, axis=(0, 1)) * w

    d_A = np.einsum("btd,btr->dr", d_xh, raw)
    d_z2 = d_b * expit(z2)
    d_W2 = np.einsum("btd,bth->dh", d_z2, h)
    d_b2 = np.sum(d_z2, axis=(0, 1))
    d_h = d_z2 @ model.W2
    d_z1 = d_h * expit(z1)
    d_W1 = np.einsum("bth,btq->hq", d_z1, quality)
    d_b1 = np.sum(d_z1, axis=(0, 1))

    return loss, {"log_w": d_log_w, "A": d_A, "W1": d_W1, "b1": d_b1,
                  "W2": d_W2, "b2": d_b2}


def cross_entropy(batch, model: ExtractorModel, plda: DiagPlda,
                  tables: PartitionTables) -> float:
    """Mean negative log posterior probability of the true clustering."""
    raw, quality, truth = _batch_arrays(batch, tables)
    loss, _ = _forward_backward(raw, quality, truth, model, plda, tables, False)
    return loss


def gradients(batch, model: ExtractorModel, plda: DiagPlda,
              tables: PartitionTables) -> dict:
    """Analytic gradient of the batch cross-entropy by parameter group, keyed
    as `_get_params` keys them (the PLDA's w as log_w, so it stays positive)."""
    raw, quality, truth = _batch_arrays(batch, tables)
    _, grads = _forward_backward(raw, quality, truth, model, plda, tables, True)
    return grads


def _get_params(model: ExtractorModel, plda: DiagPlda):
    return {"log_w": np.log(plda.w), **{f.name: getattr(model, f.name) for f in fields(model)}}


def _set_params(params) -> tuple[ExtractorModel, DiagPlda]:
    model = ExtractorModel(**{f.name: params[f.name] for f in fields(ExtractorModel)})
    return model, DiagPlda(np.exp(params["log_w"]))


def finite_difference_check(batch, model: ExtractorModel, plda: DiagPlda,
                            tables: PartitionTables, gate: bool = False) -> float:
    """Max relative error between analytic and central finite-difference
    gradients over every parameter of every group.

    Uses the five-point fourth-order central stencil so that the step can stay
    large enough to keep the derivative estimate above floating-point
    round-off (loss values of order 10-100 make a plain two-point stencil at
    a tiny step noisier than 1e-5 relative on small gradient components).

    The step is 1e-3 and the relative-error denominator max(|analytic|,
    |numeric|, floor), floor 1e-6.  As a `gate`, which `probdiar selftest`
    runs at a saturated initialization, the floor is raised to a fraction of
    the largest gradient magnitude, so that components whose true gradient
    sits at the finite-difference noise level do not dominate the reported
    error, and an error above 1e-4 is a TrainingError.
    """
    raw, quality, truth = _batch_arrays(batch, tables)
    _, grads = _forward_backward(raw, quality, truth, model, plda, tables, True)
    params = _get_params(model, plda)
    step, floor = 1e-3, 1e-6
    if gate:
        gmax = max(float(np.max(np.abs(g))) for g in grads.values())
        floor = max(floor, 1e-4 * gmax)
    worst = 0.0
    for name, arr in params.items():
        garr = grads[name]
        flat = arr.reshape(-1).copy()
        for i in range(flat.size):
            orig = flat[i]
            vals = {}
            for k in (1, -1, 2, -2):
                flat[i] = orig + k * step
                p2 = dict(params)
                p2[name] = flat.reshape(arr.shape)
                m2, d2 = _set_params(p2)
                loss, _ = _forward_backward(raw, quality, truth, m2, d2, tables, False)
                vals[k] = loss
            flat[i] = orig
            fd = (8.0 * (vals[1] - vals[-1]) - (vals[2] - vals[-2])) / (12.0 * step)
            an = garr.reshape(-1)[i]
            rel = abs(an - fd) / max(abs(fd), abs(an), floor)
            worst = max(worst, rel)
    if gate and worst > 1e-4:
        raise TrainingError(f"gradient check failed: rel error {worst:.2e}")
    return worst


def fit_corpus_crp(recordings) -> CrpParams:
    """Fit the partition prior so the expected cluster count over the whole
    training split (all recordings if none is in it) of any iterable of
    `Recording`, such as a `Corpus`, matches its true speaker count."""
    recordings = tuple(recordings)
    recs = [r for r in recordings if r.split == "train"] or recordings
    n_total = sum(len(r.records) for r in recs)
    n_speakers = sum(len(set(r.labels)) for r in recs)
    return fit_crp(n_total, min(n_speakers, n_total))


@dataclass
class TrainResult:
    model: ExtractorModel
    plda: DiagPlda
    history: list = field(default_factory=list)  # (epoch, train_ce, heldout_ce)


def train(cfg: TrainConfig, corpus: Corpus, init=None,
          tables: PartitionTables | None = None) -> TrainResult:
    """Plain SGD on the octet cross-entropy with two learning-rate groups:
    the precision net at lr_net, the transform and PLDA at lr_net * lr_ratio.
    Without `init`, the model starts from `init_extractor(corpus.full_plda)`
    at `cfg.margin`; without `tables`, they are built for cfg.n under
    cfg.crp (fitted to the corpus when None).

    Deterministic given cfg.seed.  Raises TrainingError (carrying the last
    finite checkpoint) if the loss becomes non-finite, and also (without
    one) if the held-out cross-entropy does.
    """
    train_recs = corpus.train_recordings
    heldout_recs = corpus.heldout_recordings
    if not train_recs:
        raise DataError("corpus has no training recordings")
    if tables is None:
        crp = cfg.crp if cfg.crp is not None else fit_corpus_crp(corpus)
        tables = build_tables(cfg.n, crp)
    elif tables.n != cfg.n:
        raise ShapeError(f"tables are for {tables.n}-tuples, but cfg.n is {cfg.n}")

    if init is not None:
        model, plda = init
    else:
        model, plda = init_extractor(
            corpus.full_plda, seed=cfg.seed, margin=cfg.margin,
            quality_dim=train_recs[0].records[0].quality.shape[0])

    root = np.random.SeedSequence(cfg.seed)
    ss_sampler, ss_heldout = root.spawn(2)
    stream = sample_octets(train_recs, cfg.n, np.random.default_rng(ss_sampler))

    heldout = None
    if heldout_recs:
        hrng = np.random.default_rng(ss_heldout)
        hstream = sample_octets(heldout_recs, cfg.n, hrng)
        n_held = min(200, 4 * cfg.batch_size)
        try:
            heldout = _batch_arrays([next(hstream) for _ in range(n_held)], tables)
        except DataError:
            pass  # no held-out recording has n segments: as if there were none

    params = _get_params(model, plda)
    slow = {"log_w", "A"}
    frozen = set() if cfg.train_net else {"W1", "b1", "W2", "b2"}

    octets_per_epoch = sum(len(r.records) // cfg.n for r in train_recs)
    batches_per_epoch = max(1, octets_per_epoch // cfg.batch_size)

    def heldout_ce(m, d):
        if heldout is None:
            return float("nan")
        with np.errstate(over="ignore", invalid="ignore"):
            loss = _forward_backward(*heldout, m, d, tables, False)[0]
        if not np.isfinite(loss):
            raise TrainingError(f"the held-out cross-entropy overflows at epoch {epoch}")
        return loss

    result = TrainResult(model=model, plda=plda)
    # the last pair with a finite loss: SGD rebinds, never writes, its arrays
    model_c, plda_c = good = model, plda
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for _ in range(batches_per_epoch):
            batch = [next(stream) for _ in range(cfg.batch_size)]
            raw, quality, truth = _batch_arrays(batch, tables)
            loss, grads = _forward_backward(raw, quality, truth, model_c, plda_c,
                                            tables, True)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}", checkpoint=good)
            epoch_losses.append(loss)
            good = model_c, plda_c
            for name, grad in grads.items():
                if name in frozen:
                    continue
                lr = cfg.lr_net * (cfg.lr_ratio if name in slow else 1.0)
                params[name] = params[name] - lr * grad
            try:
                model_c, plda_c = _set_params(params)
            except (DomainError, FloatingPointError) as exc:
                raise TrainingError(f"parameters diverged at epoch {epoch}: {exc}",
                                    checkpoint=good) from exc
        result.history.append((epoch, float(np.mean(epoch_losses)),
                               heldout_ce(model_c, plda_c)))
    result.model, result.plda = model_c, plda_c
    return result

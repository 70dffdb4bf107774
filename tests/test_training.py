"""Octet sampling, the cross-entropy objective, analytic gradients and the
SGD loop.  Oracles: the brute-force partition scorer, central finite
differences, a reference kernel built on einsum and logsumexp, and the
unblocked kernel of `tests/kernel_loop.py`."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, logsumexp

import probdiar as pd
from probdiar.errors import DataError, DomainError, ShapeError, TrainingError
from probdiar.extractor import (Corpus, ExtractorModel, PrecisionNet, Recording,
                                SegmentRecord, softplus)
from probdiar.io import load_corpus, save_corpus
from probdiar.partitions import CrpParams, build_tables, canonicalize, fit_crp
from probdiar.plda import (DiagPlda, partition_log_posterior, segment_weight,
                           subset_logliks)
from probdiar.training import (_TUPLE_BLOCK, OctetTrial, TrainConfig, _batch_arrays,
                               _forward_backward, _get_params, _set_params,
                               _Workspace, cross_entropy, finite_difference_check,
                               fit_corpus_crp, gradients, sample_octets, train)

from . import kernel_loop
from .conftest import brute_force_log_posterior


def random_model(rng, d=4, r=4, q=2, h=6):
    """A moderate random model, away from the saturated initialization."""
    net = PrecisionNet(W1=rng.normal(size=(h, q)), b1=rng.normal(size=h),
                       W2=rng.normal(size=(d, h)), b2=rng.normal(size=d))
    return (ExtractorModel(A=rng.normal(size=(d, r)), net=net),
            DiagPlda(rng.uniform(0.5, 2.0, d)))


def random_batch(rng, n, size, r=4, q=2):
    return [OctetTrial(
        records=tuple(SegmentRecord(raw=rng.normal(size=r),
                                    quality=rng.normal(size=q), duration=1.0)
                      for _ in range(n)),
        truth=canonicalize(rng.integers(1, n + 1, n)))
        for _ in range(size)]


class TestOctetTrial:
    def test_truth_must_be_canonical(self):
        recs = tuple(SegmentRecord(raw=np.zeros(2), quality=np.zeros(1),
                                   duration=1.0) for _ in range(3))
        with pytest.raises(DomainError):
            OctetTrial(records=recs, truth=(2, 1, 1))
        OctetTrial(records=recs, truth=(1, 2, 1))  # canonical: fine


class TestSampleOctets:
    def test_single_recording_permutation(self, small_corpus):
        rec = small_corpus.recordings[0]
        sub = rec.records[:8]
        one = Recording(rec_id="r", records=sub, labels=rec.labels[:8],
                        starts=rec.starts[:8], split="train")
        trial = next(sample_octets([one], 8, np.random.default_rng(0)))
        assert sorted(id(r) for r in trial.records) == sorted(id(r) for r in sub)
        assert trial.truth == canonicalize(trial.truth)

    def test_deterministic_stream(self, small_corpus):
        a = sample_octets(small_corpus.recordings, 8, np.random.default_rng(3))
        b = sample_octets(small_corpus.recordings, 8, np.random.default_rng(3))
        for _ in range(5):
            ta, tb = next(a), next(b)
            assert ta.truth == tb.truth
            assert all(x is y for x, y in zip(ta.records, tb.records))

    def test_short_recordings_skipped_with_warning(self, small_corpus):
        rec = small_corpus.recordings[0]
        short = Recording(rec_id="short", records=rec.records[:3],
                          labels=rec.labels[:3], starts=rec.starts[:3], split="train")
        with pytest.warns(UserWarning, match="short"):
            stream = sample_octets([short, rec], 8, np.random.default_rng(0))
            next(stream)
        with pytest.warns(UserWarning), pytest.raises(DataError):
            next(sample_octets([short], 8, np.random.default_rng(0)))


class TestCrossEntropy:
    def test_zero_precision_gives_prior_loss(self, tables_by_n, rng):
        tables = tables_by_n[4]
        # a net that underflows softplus to exactly zero in every dimension
        net = PrecisionNet(W1=np.zeros((2, 2)), b1=np.zeros(2),
                           W2=np.zeros((3, 2)), b2=np.full(3, -800.0))
        model = ExtractorModel(A=np.eye(3, 4), net=net)
        plda = DiagPlda(np.ones(3))
        batch = random_batch(rng, 4, 6)
        expected = -np.mean([tables.log_prior[tables.rgs_index(t.truth)]
                             for t in batch])
        assert cross_entropy(batch, model, plda, tables) == pytest.approx(
            expected, abs=1e-12)

    def test_uniform_pair_prior_gives_log2(self, rng):
        tables = build_tables(2, CrpParams(1.0, 0.0))  # p([1,1]) = p([1,2]) = 1/2
        net = PrecisionNet(W1=np.zeros((2, 2)), b1=np.zeros(2),
                           W2=np.zeros((3, 2)), b2=np.full(3, -800.0))
        model = ExtractorModel(A=np.eye(3, 4), net=net)
        batch = random_batch(rng, 2, 8)
        assert cross_entropy(batch, model, DiagPlda(np.ones(3)), tables) == \
            pytest.approx(np.log(2.0), abs=1e-12)

    def test_matches_brute_force_posterior(self, tables_by_n, rng):
        tables = tables_by_n[4]
        model, plda = random_model(rng)
        batch = random_batch(rng, 4, 5)
        losses = []
        for trial in batch:
            embs = [pd.extract(sr, model) for sr in trial.records]
            post = brute_force_log_posterior(embs, plda, tables)
            losses.append(-post[tables.rgs_index(trial.truth)])
        assert cross_entropy(batch, model, plda, tables) == pytest.approx(
            np.mean(losses), abs=1e-10)

    @pytest.mark.parametrize("margin", [10.0, 100.0])
    def test_matches_inference_posterior(self, small_corpus, margin):
        """Training and inference score an n=8 tuple the same way."""
        tables = build_tables(8, CrpParams(1.0, 0.1))
        model, plda = pd.init_extractor(small_corpus.full_plda, seed=0,
                                        margin=margin, quality_dim=2)
        stream = sample_octets(small_corpus.recordings, 8, np.random.default_rng(3))
        batch = [next(stream) for _ in range(40)]
        losses = [-pd.clustering_log_posterior(
            [pd.extract(sr, model) for sr in trial.records], plda,
            tables)[tables.rgs_index(trial.truth)] for trial in batch]
        assert cross_entropy(batch, model, plda, tables) == pytest.approx(
            np.mean(losses), rel=1e-12)

    def test_empty_batch_is_data_error(self, tables_by_n, rng):
        model, plda = random_model(rng)
        with pytest.raises(DataError):
            cross_entropy([], model, plda, tables_by_n[4])
        with pytest.raises(DataError):
            gradients([], model, plda, tables_by_n[4])


class TestGradients:
    def test_matches_finite_differences(self, tables_by_n, rng):
        tables = tables_by_n[4]
        for _ in range(2):
            model, plda = random_model(rng)
            batch = random_batch(rng, 4, 3)
            err = finite_difference_check(batch, model, plda, tables)
            assert err < 1e-5

    def test_zero_loss_limit_stationary(self, rng):
        """Posterior saturated at the truth: the gradient vanishes."""
        tables = build_tables(3, CrpParams(1e-12, 0.0))  # prior mass on one cluster
        net = PrecisionNet(W1=np.zeros((2, 2)), b1=np.zeros(2),
                           W2=np.zeros((1, 2)), b2=np.array([20.0]))
        model = ExtractorModel(A=np.ones((1, 1)), net=net)
        plda = DiagPlda(np.ones(1))
        recs = tuple(SegmentRecord(raw=np.zeros(1), quality=np.zeros(2),
                                   duration=1.0) for _ in range(3))
        batch = [OctetTrial(records=recs, truth=(1, 1, 1))]
        g = gradients(batch, model, plda, tables)
        norm = max(np.abs(v).max() for v in g.values())
        assert norm < 1e-8

    def test_dead_dimension_has_zero_transform_gradient(self, tables_by_n, rng):
        """If a dimension's precision underflows to exactly zero everywhere,
        that row of the mean transform gets an exactly zero gradient."""
        tables = tables_by_n[4]
        model, plda = random_model(rng)
        b2 = model.net.b2.copy()
        b2[1] = -800.0
        w2 = model.net.W2.copy()
        w2[1] = 0.0
        dead = ExtractorModel(A=model.A, net=PrecisionNet(
            W1=model.net.W1, b1=model.net.b1, W2=w2, b2=b2))
        g = gradients(random_batch(rng, 4, 3), dead, plda, tables)
        np.testing.assert_array_equal(g["A"][1], np.zeros(4))


def reference_forward_backward(raw, quality, truth, model, plda, tables):
    """The training kernel written with per-axis einsums, scipy's logsumexp
    and an unclipped softmax: (loss, gradients by group, logits)."""
    net, w = model.net, plda.w
    z1 = quality @ net.W1.T + net.b1
    h = softplus(z1)
    z2 = h @ net.W2.T + net.b2
    b = softplus(z2)
    xh = raw @ model.A.T
    e = w * b / (w + b)
    ex = e * xh
    s = tables.seg_subset
    a_bar = np.einsum("tc,btd->bcd", s, ex)
    b_bar = np.einsum("tc,btd->bcd", s, e)
    den = 1.0 + b_bar
    g = 0.5 * np.sum(a_bar ** 2 / den - np.log1p(b_bar), axis=2)
    logits = (tables.part_subset @ g.T).T + tables.log_prior
    lse = logsumexp(logits, axis=1)
    rows = np.arange(raw.shape[0])
    loss = float(np.mean(lse - logits[rows, truth]))

    p = np.exp(logits - lse[:, None])
    p[rows, truth] -= 1.0
    p /= raw.shape[0]
    dg = (tables.part_subset.T @ p.T).T
    d_a_bar = dg[:, :, None] * a_bar / den
    d_b_bar = dg[:, :, None] * (-0.5) * (a_bar ** 2 / den ** 2 + 1.0 / den)
    d_ex = np.einsum("tc,bcd->btd", s, d_a_bar)
    d_e = d_ex * xh + np.einsum("tc,bcd->btd", s, d_b_bar)
    d_b = d_e * (w / (w + b)) ** 2
    d_z2 = d_b * expit(z2)
    d_z1 = (d_z2 @ net.W2) * expit(z1)
    grads = {"log_w": np.sum(d_e * (b / (w + b)) ** 2, axis=(0, 1)) * w,
             "A": np.einsum("btd,btr->dr", d_ex * e, raw),
             "W1": np.einsum("bth,btq->hq", d_z1, quality),
             "b1": np.sum(d_z1, axis=(0, 1)),
             "W2": np.einsum("btd,bth->dh", d_z2, h),
             "b2": np.sum(d_z2, axis=(0, 1))}
    return loss, grads, logits


def assert_same_bits(got, want):
    """(loss, gradients by group or None) pairs are equal, not just close."""
    assert got[0] == want[0]
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert got[1].keys() == want[1].keys()
        for name, arr in want[1].items():
            np.testing.assert_array_equal(got[1][name], arr, err_msg=name)


def blocked_octets(corpus, margin):
    """An n=8 batch of 2 * _TUPLE_BLOCK + 3 tuples with its model."""
    tables = build_tables(8, CrpParams(1.0, 0.1))
    model, plda = pd.init_extractor(corpus.full_plda, seed=0, margin=margin,
                                    quality_dim=2)
    stream = sample_octets(corpus.recordings, 8, np.random.default_rng(7))
    batch = list(itertools.islice(stream, 2 * _TUPLE_BLOCK + 3))
    return _batch_arrays(batch, tables), model, plda, tables


class TestKernel:
    """`_forward_backward` against the reference kernel on an n=8 batch of a
    plug-in (margin 100) model, whose worst partitions sit so far below the
    best one that their shifted logits underflow exp, and against the
    unblocked kernel of `tests/kernel_loop.py`, bit for bit."""

    @pytest.fixture(scope="class")
    def octets(self, small_corpus):
        tables = build_tables(8, CrpParams(1.0, 0.1))
        model, plda = pd.init_extractor(small_corpus.full_plda, seed=0,
                                        margin=100.0, quality_dim=2)
        stream = sample_octets(small_corpus.recordings, 8, np.random.default_rng(5))
        batch = [next(stream) for _ in range(40)]
        return _batch_arrays(batch, tables), model, plda, tables

    def test_matches_reference(self, octets):
        (raw, quality, truth), model, plda, tables = octets
        loss, grads = _forward_backward(raw, quality, truth, model, plda, tables, True)
        ref_loss, ref_grads, logits = reference_forward_backward(
            raw, quality, truth, model, plda, tables)
        shifted = logits - logits.max(axis=1, keepdims=True)
        assert shifted.min() < -745.0   # exp underflows to 0: the clip is exercised
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert _forward_backward(raw, quality, truth, model, plda, tables,
                                 False)[0] == loss
        assert list(grads) == list(_get_params(model, plda))
        for name, got in grads.items():
            want = ref_grads[name]
            scale = np.max(np.abs(want))
            assert scale > 0
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=name)

    @pytest.mark.parametrize("group, value", [("A", np.nan), ("b2", np.inf),
                                              ("W1", np.nan)])
    def test_non_finite_parameters_give_non_finite_loss(self, octets, group, value):
        (raw, quality, truth), model, plda, tables = octets
        params = {k: v.copy() for k, v in _get_params(model, plda).items()}
        params[group].reshape(-1)[0] = value
        with np.errstate(all="ignore"):
            bad_model, bad_plda = _set_params(params)
            loss, _ = _forward_backward(raw, quality, truth, bad_model, bad_plda,
                                        tables, False)
        assert not np.isfinite(loss)

    # `_forward_backward` scores blocks of tuples in a reused workspace and
    # must give the bits of the unblocked kernel in `tests/kernel_loop.py`

    @pytest.fixture(scope="class", params=[10.0, 100.0], ids=["margin10", "margin100"])
    def setup(self, request, small_corpus):
        return blocked_octets(small_corpus, request.param)

    @pytest.mark.parametrize("want_grad", [False, True])
    @pytest.mark.parametrize("size", [1, _TUPLE_BLOCK - 1, _TUPLE_BLOCK, _TUPLE_BLOCK + 1,
                                      2 * _TUPLE_BLOCK + 3, 200])
    def test_matches_unblocked(self, setup, size, want_grad):
        arrays, model, plda, tables = setup
        arrays = tuple(np.resize(x, (size,) + x.shape[1:]) for x in arrays)
        assert_same_bits(
            _forward_backward(*arrays, model, plda, tables, want_grad),
            kernel_loop._forward_backward(*arrays, model, plda, tables, want_grad))

    @pytest.mark.parametrize("rows", [2, 3, 10])
    def test_small_blocks(self, setup, rows):
        arrays, model, plda, tables = setup
        ws = _Workspace(tables, plda.dim, rows)
        for size in (2, 3, 7, 31):
            part = tuple(x[:size] for x in arrays)
            assert_same_bits(
                _forward_backward(*part, model, plda, tables, True, ws),
                kernel_loop._forward_backward(*part, model, plda, tables, True))

    def test_one_tuple_last_block(self, small_corpus):
        """A tuple whose posterior rounds differently alone than in a batch
        (numpy sums one row pairwise and several down the rows) still gets
        the batch's bits when it is alone in the last block.  A weak PLDA
        gives a broad posterior, whose sum has many terms that round."""
        arrays, model, plda, tables = blocked_octets(small_corpus, 10.0)
        plda = DiagPlda(0.01 * plda.w)
        (raw, quality, _), net = arrays, model.net
        prec = softplus(softplus(quality @ net.W1.T + net.b1) @ net.W2.T + net.b2)
        g, _, _ = subset_logliks(segment_weight(plda, prec), raw @ model.A.T, tables)
        for i in range(g.shape[0]):
            if not np.array_equal(partition_log_posterior(g[[i]], tables),
                                  partition_log_posterior(g[[i, i]], tables)[:1]):
                break
        else:
            pytest.fail("no tuple rounds differently alone")
        batch = tuple(np.concatenate([x[:_TUPLE_BLOCK], x[i:i + 1]]) for x in arrays)
        for want_grad in (False, True):
            assert_same_bits(
                _forward_backward(*batch, model, plda, tables, want_grad),
                kernel_loop._forward_backward(*batch, model, plda, tables, want_grad))

    def test_reused_workspace(self, setup):
        """Buffers left over from a larger batch do not leak into a smaller
        one: one workspace over 200, 37 and 100 tuples gives the bits of a
        fresh workspace for each."""
        arrays, model, plda, tables = setup
        arrays = tuple(np.resize(x, (200,) + x.shape[1:]) for x in arrays)
        ws = _Workspace(tables, plda.dim)
        for size in (200, 37, 100):
            part = tuple(x[:size] for x in arrays)
            for want_grad in (True, False):
                assert_same_bits(
                    _forward_backward(*part, model, plda, tables, want_grad, ws),
                    _forward_backward(*part, model, plda, tables, want_grad,
                                      _Workspace(tables, plda.dim)))

    def test_forward_memory_is_bounded(self, setup):
        """A forward pass of 1000 tuples allocates one workspace (~10 MB) and
        its (1000, n, D) extractor outputs (~4 MB), below one (1000, B_n)
        float64 array (33 MB) or one (1000, 2^n - 1, D) array (16 MB) on
        top of them."""
        arrays, model, plda, tables = setup
        arrays = tuple(np.resize(x, (1000,) + x.shape[1:]) for x in arrays)
        tracemalloc.start()
        try:
            _forward_backward(*arrays, model, plda, tables, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestTrain:
    def test_zero_lr_keeps_parameters(self, small_corpus):
        cfg = TrainConfig(lr_net=0.0, epochs=3, seed=0, n=4)
        result = train(cfg, small_corpus)
        init_model, init_plda = pd.init_extractor(
            small_corpus.full_plda, seed=0, margin=cfg.margin, quality_dim=2)
        np.testing.assert_array_equal(result.model.A, init_model.A)
        np.testing.assert_array_equal(result.model.net.b2, init_model.net.b2)
        # w round-trips through its log parameterization: equal to 1 ulp
        np.testing.assert_allclose(result.plda.w, init_plda.w, rtol=1e-15)
        # the held-out CE is computed on a fixed batch, so with frozen
        # parameters it cannot move (train CE still varies with the sampled
        # batches)
        heldout_ces = [h[2] for h in result.history]
        assert max(heldout_ces) - min(heldout_ces) < 1e-12

    def test_deterministic(self, small_corpus):
        cfg = TrainConfig(epochs=3, seed=4, n=4)
        a = train(cfg, small_corpus)
        b = train(cfg, small_corpus)
        np.testing.assert_array_equal(a.model.A, b.model.A)
        np.testing.assert_array_equal(a.model.net.W1, b.model.net.W1)
        np.testing.assert_array_equal(a.plda.w, b.plda.w)
        assert a.history == b.history

    def test_heldout_improves_over_initialization(self):
        corpus = pd.generate_corpus(pd.SyntheticConfig(
            n_recordings=12, segments_per_recording=16, seed=21))
        cfg = TrainConfig(epochs=60, seed=0)
        result = train(cfg, corpus)
        first_heldout = result.history[0][2]
        last_heldout = result.history[-1][2]
        assert last_heldout < first_heldout

    def test_frozen_net_mode(self, small_corpus):
        cfg = TrainConfig(epochs=3, seed=0, n=4, train_net=False, margin=100.0)
        result = train(cfg, small_corpus)
        init_model, _ = pd.init_extractor(
            small_corpus.full_plda, seed=0, margin=100.0, quality_dim=2)
        np.testing.assert_array_equal(result.model.net.W1, init_model.net.W1)
        np.testing.assert_array_equal(result.model.net.b2, init_model.net.b2)

    def test_divergence_carries_checkpoint(self, small_corpus):
        cfg = TrainConfig(epochs=5, seed=0, n=4, lr_net=1e18, lr_ratio=1.0)
        with pytest.raises(TrainingError) as exc_info:
            train(cfg, small_corpus)
        assert exc_info.value.checkpoint is not None

    def test_tables_of_another_n_rejected(self, small_corpus, tables_by_n):
        with pytest.raises(ShapeError, match="6-tuples, but cfg.n is 8"):
            train(TrainConfig(epochs=1), small_corpus, tables=tables_by_n[6])

    def test_given_tables_fit_no_prior(self, small_corpus, tables_by_n, monkeypatch):
        """Tables passed in carry their prior: the corpus is not fitted."""
        def no_fit(_):
            raise AssertionError("fit_corpus_crp called")
        monkeypatch.setattr(pd.training, "fit_corpus_crp", no_fit)
        result = train(TrainConfig(epochs=1, n=4), small_corpus, tables=tables_by_n[4])
        assert len(result.history) == 1
        with pytest.raises(AssertionError, match="fit_corpus_crp"):
            train(TrainConfig(epochs=1, n=4), small_corpus)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(lr_net=-1.0)
        with pytest.raises(DomainError):
            TrainConfig(lr_ratio=0.0)
        with pytest.raises(DomainError):
            TrainConfig(n=1)

    @pytest.mark.parametrize("field, value", [
        ("lr_net", np.nan), ("lr_net", np.inf), ("lr_ratio", np.nan),
        ("momentum", np.nan), ("momentum", -0.1), ("momentum", 1.0),
        ("momentum", np.inf)])
    def test_non_finite_or_out_of_range_rates(self, field, value):
        with pytest.raises(DomainError):
            TrainConfig(**{field: value})

    def test_momentum_in_range_accepted(self):
        assert TrainConfig(momentum=0.9).momentum == 0.9

    def test_loaded_corpus_without_init(self, small_corpus, tmp_path):
        """A corpus read from a file trains from the model estimated on it."""
        path = tmp_path / "corpus.tsv"
        save_corpus(path, small_corpus)
        recs = [replace(r, split="heldout" if i == 0 else "train")
                for i, r in enumerate(load_corpus(path))]
        corpus = Corpus(recs, pd.estimate_full_plda(recs[1:]))
        result = train(TrainConfig(epochs=2, seed=0, n=4), corpus)
        assert len(result.history) == 2
        assert all(np.isfinite(tr) and np.isfinite(ho) for _, tr, ho in result.history)
        assert result.model.raw_dim == small_corpus.recordings[0].records[0].raw.size

    def test_short_heldout_split_counts_as_absent(self, small_corpus):
        """Held-out recordings all shorter than n leave the held-out CE NaN
        with a warning per recording, as if there were none."""
        recs = [r if r.split == "train" else
                Recording(r.rec_id, r.records[:5], r.labels[:5], r.starts[:5],
                          "heldout")
                for r in small_corpus.recordings]
        init = pd.init_extractor(small_corpus.full_plda, seed=0, quality_dim=2)
        with pytest.warns(UserWarning, match="fewer than 8 segments"):
            result = train(TrainConfig(epochs=2, seed=0),
                           Corpus(recs, small_corpus.full_plda), init=init)
        assert len(result.history) == 2
        assert all(np.isfinite(tr) and np.isnan(ho) for _, tr, ho in result.history)


class TestFitCorpusCrp:
    def test_returns_matching_expectation(self, small_corpus):
        params = fit_corpus_crp(small_corpus)
        recs = small_corpus.train_recordings
        n_total = sum(len(r.records) for r in recs)
        n_spk = sum(max(r.labels) for r in recs)
        from probdiar.partitions import expected_cluster_count
        e = expected_cluster_count(n_total, params.concentration, params.discount)
        assert e == pytest.approx(n_spk, rel=0.01)

    def test_speaker_ids_need_not_be_canonical(self, small_corpus):
        """Speakers are counted as distinct ids per recording, so 0-based or
        sparse ids fit the prior of ids 1..K, and a recording whose one
        speaker is labelled 0 counts one speaker."""
        def relabel(f):
            return [Recording(r.rec_id, r.records, [f(k) for k in r.labels],
                              r.starts, r.split)
                    for r in small_corpus.recordings]

        want = fit_corpus_crp(small_corpus)
        assert fit_corpus_crp(relabel(lambda k: k - 1)) == want
        assert fit_corpus_crp(relabel(lambda k: 10 * k)) == want
        recs = small_corpus.train_recordings
        n_total = sum(len(r.records) for r in recs)
        assert fit_corpus_crp(relabel(lambda k: 0)) == fit_crp(n_total, len(recs))

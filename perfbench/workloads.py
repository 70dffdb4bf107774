"""The benchmark's fixed-seed workloads (BENCHMARK.json runs `train` and `sweep`).

Each workload builds its inputs from the seed in `setup` (timed as
`setup_s`), then exposes one *round* of operations in `ops`.  The benchmark
times each operation.  `check` tests one output against an oracle or an
invariant that holds for any seed, `fingerprint` reduces an output to the
numbers compared across rounds and against stored references, and `report`
derives the workload's own metrics.

Every call into probdiar goes through its module attribute
(`pipeline.sweep`, not a bound name) so the tracer and the self-tests can
substitute the function.
"""

from __future__ import annotations

import hashlib
import itertools
import time

import numpy as np
from scipy.special import logsumexp

from probdiar import clustering, evalkit, extractor, partitions, pipeline, plda, training

import oracle

# the stopping-threshold grid of the acceptance suite's end-to-end fixture
SIGMA_GRID = (-20, -15, -10, -7, -5, -3, -2, -1, 0, 1, 2, 3, 5, 10, 20)
# partition prior of the posterior workload (fitting one is the train setup's job)
POSTERIOR_PRIOR = (1.0, 0.1)
BATCH = 100


def labels_sha(labels):
    return hashlib.sha256(",".join(map(str, labels)).encode()).hexdigest()[:16]


def mismatches(got, want, rtol, atol, where="output"):
    """Describe every entry of `got` that differs from `want`: strings
    exactly, numbers by |got - want| <= atol + rtol * |want|."""
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{where}: shape differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, rtol, atol, f"{where}[{i}]")]
    if isinstance(want, str) or isinstance(got, str):
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if abs(got - want) <= atol + rtol * abs(want):
        return []
    return [f"{where}: {got!r} != {want!r}"]


class Workload:
    name = ""
    rtol = atol = 0.0  # tolerance of the fingerprint and reference comparisons

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        self.sub = [int(s) for s in
                    np.random.SeedSequence([seed, WORKLOADS.index(type(self))])
                    .generate_state(4)]

    def setup(self):
        raise NotImplementedError

    @property
    def ops(self):
        raise NotImplementedError

    def check(self, i, out):
        """Problems with output `out` of operation `i`; empty when correct."""
        return []

    def fingerprint(self, out):
        raise NotImplementedError

    def mismatches_first(self, i, out, first):
        """Differences between a repeated operation and its first-round output."""
        return mismatches(self.fingerprint(out), self.fingerprint(first[i]),
                          self.rtol, self.atol, f"{self.name} op {i} repeat")

    def digest(self, outs):
        """Reference fingerprint of one round."""
        return [self.fingerprint(o) for o in outs]

    def report(self, outs, best):
        """The workload's own metrics from the first round's outputs and each
        operation's fastest time: [(name, value, unit)]."""
        return []

    def probe(self):
        """Untraced extra per-layer measurements taken after the traced round."""
        return {}


class Train(Workload):
    """Octet cross-entropy training on the default synthetic corpus."""

    name = "train"
    rtol = 1e-12

    def setup(self):
        cfg = extractor.SyntheticConfig(seed=self.sub[0],
                                        n_recordings=8 if self.small else 40)
        self.corpus = extractor.generate_corpus(cfg)
        self.crp = training.fit_corpus_crp(self.corpus)
        self.tables = partitions.build_tables(8, self.crp)
        self.init = extractor.init_extractor(self.corpus.full_plda, seed=self.sub[1],
                                             margin=training.TrainConfig().margin)
        self.cfg = training.TrainConfig(seed=self.sub[2], crp=self.crp,
                                        epochs=2 if self.small else 5,
                                        batch_size=BATCH)
        # train() takes one step per BATCH octets of an epoch, at least one
        octets = sum(len(r.records) // 8 for r in self.corpus.train_recordings)
        self.steps = self.cfg.epochs * max(1, octets // BATCH)

    @property
    def ops(self):
        return [lambda: training.train(self.cfg, self.corpus, init=self.init,
                                       tables=self.tables)]

    def check(self, i, out):
        if len(out.history) != self.cfg.epochs or \
                not np.all(np.isfinite(self.fingerprint(out))):
            return ["loss trace is incomplete or not finite"]
        return []

    def fingerprint(self, out):
        return [x for _, tr, ho in out.history for x in (tr, ho)]

    def report(self, outs, best):
        return [("train_octets_per_s", self.steps * BATCH / best[0], "octets/s"),
                ("heldout_ce", outs[0].history[-1][2], "nats")]

    def probe(self):
        rng = np.random.default_rng(self.sub[3])
        batch = list(itertools.islice(
            training.sample_octets(self.corpus.train_recordings, 8, rng), BATCH))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            training.cross_entropy(batch, *self.init, self.tables)
            times.append(time.perf_counter() - t0)
        return {"training.forward_ms": 1e3 * float(np.median(times))}


class Sweep(Workload):
    """Book-mode sigma sweeps with frame DER, one per dev/eval recording pair."""

    name = "sweep"
    atol = 1e-12
    PAIRS = 6
    SEGMENTS = 16

    def setup(self):
        pairs = 1 if self.small else self.PAIRS
        corpus = extractor.generate_corpus(extractor.SyntheticConfig(
            seed=self.sub[0], n_recordings=2 * pairs,
            segments_per_recording=self.SEGMENTS, holdout_fraction=0.0))
        recs = corpus.recordings
        self.pairs = list(zip(recs[:pairs], recs[pairs:]))
        self.model = extractor.init_extractor(corpus.full_plda, seed=self.sub[1],
                                              margin=100.0)

    @property
    def ops(self):
        return [lambda dev=dev, evl=evl: pipeline.sweep(
                    "sigma", SIGMA_GRID, [dev], [evl], *self.model, clustering.AhcConfig())
                for dev, evl in self.pairs]

    def check(self, i, out):
        rows, best = out
        ders = [d for _, dev, evl in rows for d in (dev, evl)]
        if [r[0] for r in rows] != list(SIGMA_GRID) or \
                not all(np.isfinite(d) and d >= 0 for d in ders):
            return [f"pair {i}: sweep table malformed"]
        if best != min(rows, key=lambda r: r[1])[0]:
            return [f"pair {i}: best sigma does not minimize dev DER"]
        return []

    def fingerprint(self, out):
        rows, best = out
        return [float(best)] + [float(d) for _, dev, evl in rows for d in (dev, evl)]

    def report(self, outs, best):
        evals = [dict((r[0], r[2]) for r in rows)[sigma] for rows, sigma in outs]
        return [("sweep_s", float(np.mean(best)), "s"),
                ("der", float(np.mean(evals)), "fraction")]


class Long(Workload):
    """Book and baseline AHC at sigma 0 on long recordings, exact DER."""

    name = "long"
    atol = 1e-12
    MODES = ("by_the_book", "baseline")
    RECORDINGS = 6

    def setup(self):
        cfg = extractor.SyntheticConfig(
            seed=self.sub[0], n_recordings=1 if self.small else self.RECORDINGS,
            segments_per_recording=40 if self.small else 100,
            min_speakers=6, max_speakers=8, holdout_fraction=0.0)
        corpus = extractor.generate_corpus(cfg)
        self.recordings = corpus.recordings
        self.jobs = [(rec, mode) for rec in self.recordings for mode in self.MODES]
        self.model = extractor.init_extractor(corpus.full_plda, seed=self.sub[1],
                                              margin=100.0)

    def _diarize(self, rec, mode):
        """(hypothesis labels, exact DER report) of one recording in one mode"""
        hyp = pipeline.diarize_recording(rec, *self.model, clustering.AhcConfig(mode=mode))
        return (tuple(t.speaker for t in hyp.turns),
                evalkit.der(pipeline.reference_timeline(rec), hyp, exact=True))

    @property
    def ops(self):
        return [lambda rec=rec, mode=mode: self._diarize(rec, mode)
                for rec, mode in self.jobs]

    def check(self, i, out):
        rec, mode = self.jobs[i]
        labels, rep = out
        want = oracle.contiguous_der([r.duration for r in rec.records], rec.labels, labels)
        if not abs(rep.der - want) <= 1e-10:
            return [f"{rec.rec_id} {mode}: DER {rep.der!r} != oracle {want!r}"]
        return []

    def fingerprint(self, out):
        labels, rep = out
        return [labels_sha(labels), rep.der]

    def report(self, outs, best):
        rows = []
        for mode, label in zip(self.MODES, ("book", "baseline")):
            picked = [i for i, (_, m) in enumerate(self.jobs) if m == mode]
            segs = sum(len(self.jobs[i][0].records) for i in picked)
            rows.append((f"{label}_segments_per_s", segs / sum(best[i] for i in picked),
                         "segments/s"))
        book = [outs[i][1] for i, (_, m) in enumerate(self.jobs) if m == "by_the_book"]
        rows.append(("der", sum(r.missed + r.false_alarm + r.confusion for r in book)
                     / sum(r.total_ref for r in book), "fraction"))
        return rows


class Posterior(Workload):
    """Exact posterior over all clusterings of single fixed-seed octets."""

    name = "posterior"
    rtol = 1e-10
    N_ORACLE = 16

    def setup(self):
        corpus = extractor.generate_corpus(extractor.SyntheticConfig(seed=self.sub[0]))
        model, self.diag = extractor.init_extractor(corpus.full_plda, seed=self.sub[1],
                                                    margin=100.0)
        rng = np.random.default_rng(self.sub[2])
        n_tuples = 50 if self.small else 1000
        trials = list(itertools.islice(training.sample_octets(corpus, 8, rng), n_tuples))
        self.embeddings = [[extractor.extract(r, model) for r in t.records] for t in trials]
        prior = partitions.CrpParams(*POSTERIOR_PRIOR)
        self.tables = partitions.build_tables(8, prior)
        if not self.small:
            partitions.build_tables(10, prior)
        self.truth = [self.tables.rgs_index(t.truth) for t in trials]
        step = max(1, n_tuples // self.N_ORACLE)
        self.oracle_at = set(range(0, n_tuples, step))
        self.oracle_prior = oracle.crp_log_prior(self.tables.rgs, *POSTERIOR_PRIOR)

    @property
    def ops(self):
        return [lambda e=e: plda.clustering_log_posterior(e, self.diag, self.tables)
                for e in self.embeddings]

    def check(self, i, out):
        if out.shape != (self.tables.n_partitions,) or not np.all(np.isfinite(out)):
            return [f"tuple {i}: posterior malformed"]
        if not abs(logsumexp(out)) <= 1e-10:
            return [f"tuple {i}: posterior not normalized ({logsumexp(out)!r})"]
        if i in self.oracle_at:
            emb = self.embeddings[i]
            want = oracle.log_posterior(np.stack([e.xhat for e in emb]),
                                        np.stack([e.prec for e in emb]), self.diag.w,
                                        self.tables.rgs, self.oracle_prior)
            dev = float(np.max(np.abs(out - want)))
            if not dev < 1e-10:
                return [f"tuple {i}: deviates from the oracle by {dev:.3e}"]
        return []

    def fingerprint(self, out):
        return [float(np.max(out)), float(np.argmax(out))]

    def digest(self, outs):
        return [float(sum(o[t] for o, t in zip(outs, self.truth))),
                labels_sha([int(np.argmax(o)) for o in outs])]

    def report(self, outs, best):
        ms = 1e3 * np.asarray(best)
        return [("posterior_ms_p50", float(np.percentile(ms, 50)), "ms"),
                ("posterior_ms_p90", float(np.percentile(ms, 90)), "ms")]


WORKLOADS = [Train, Sweep, Long, Posterior]
BY_NAME = {w.name: w for w in WORKLOADS}

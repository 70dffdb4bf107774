"""DER scoring and RTTM I/O.  Oracles: hand-computable layouts, a
brute-force speaker-mapping search over all permutations, the per-piece
loop scorer that the vectorized engine replaced, and `der` itself for the
relabelling scorer of sigma sweeps."""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from probdiar.errors import DomainError, ParseError, ScoringError, ShapeError
from probdiar.evalkit import (DerReport, Timeline, Turn, _activity, _scored_pieces,
                              _turn_ranges, aggregate_der, der, read_rttm,
                              relabel_scorer, report_table, write_rttm)
from probdiar.pipeline import _speakers, _timeline

from .der_loop import loop_der


def tl(rec_id, *turns):
    return Timeline(rec_id, tuple(Turn(s, d, spk) for s, d, spk in turns))


def fuzz_timeline(rng, rec_id, n_spk=3, n_turns=8):
    turns = []
    t = 0.0
    for _ in range(n_turns):
        dur = float(rng.uniform(0.5, 2.0))
        turns.append(Turn(t, dur, f"s{rng.integers(n_spk)}"))
        t += dur + float(rng.uniform(0.0, 0.5))
    return Timeline(rec_id, tuple(turns))


def overlapping_timeline(rng, rec_id, n_spk=3, n_turns=8, step=None):
    """Independently placed turns, so speakers overlap.  With `step` every
    time is a multiple of it, which puts turn boundaries on frame-grid
    points and piece midpoints."""
    turns = []
    for _ in range(n_turns):
        start, dur = rng.uniform(0.0, 10.0), rng.uniform(0.2, 3.0)
        if step:
            start, dur = step * round(start / step), step * max(1, round(dur / step))
        turns.append(Turn(float(start), float(dur), f"s{rng.integers(n_spk)}"))
    return Timeline(rec_id, tuple(turns))


class TestTurn:
    def test_validation(self):
        with pytest.raises(DomainError):
            Turn(0.0, 0.0, "a")
        with pytest.raises(DomainError):
            Turn(0.0, 1.0, "")


class TestDerExamples:
    def test_perfect_hypothesis(self):
        ref = tl("r", (0, 2, "a"), (2, 3, "b"))
        for exact in (False, True):
            assert der(ref, ref, exact=exact).der == 0.0

    def test_single_cluster_half_confusion(self):
        ref = tl("r", (0, 5, "a"), (5, 5, "b"))
        hyp = tl("r", (0, 10, "x"))
        for exact in (False, True):
            report = der(ref, hyp, exact=exact)
            assert report.der == pytest.approx(0.5)
            assert report.confusion == pytest.approx(5.0)
            assert report.missed == report.false_alarm == 0.0

    def test_permuted_names(self):
        ref = tl("r", (0, 2, "a"), (2, 3, "b"), (5, 1, "c"))
        hyp = tl("r", (0, 2, "z"), (2, 3, "x"), (5, 1, "y"))
        for exact in (False, True):
            assert der(ref, hyp, exact=exact).der == 0.0


class TestDerComponents:
    def test_miss_and_false_alarm(self):
        ref = tl("r", (0, 4, "a"))
        hyp = tl("r", (0, 2, "a"), (4, 2, "a"))
        report = der(ref, hyp, exact=True)
        assert report.missed == pytest.approx(2.0)
        assert report.false_alarm == pytest.approx(2.0)
        assert report.total_ref == pytest.approx(4.0)

    def test_overlap_scoring(self):
        # two simultaneous reference speakers, hypothesis finds only one
        ref = tl("r", (0, 2, "a"), (0, 2, "b"))
        hyp = tl("r", (0, 2, "a"))
        report = der(ref, hyp, exact=True)
        assert report.total_ref == pytest.approx(4.0)
        assert report.missed == pytest.approx(2.0)

    def test_matches_brute_force_mapping_oracle(self, rng):
        """Independent frame-level oracle: enumerate every one-to-one speaker
        mapping and keep the best error (<= 4 speakers each side)."""
        from probdiar.evalkit import FRAME_STEP

        def oracle_der(ref, hyp):
            ref_spk, hyp_spk = ref.speakers(), hyp.speakers()
            start = min(t.start for t in ref.turns + hyp.turns)
            end = max(t.end for t in ref.turns + hyp.turns)
            mids = np.arange(start, end, FRAME_STEP) + 0.5 * FRAME_STEP
            ra = np.zeros((len(ref_spk), mids.size), dtype=bool)
            ha = np.zeros((len(hyp_spk), mids.size), dtype=bool)
            for t in ref.turns:
                ra[ref_spk.index(t.speaker)] |= (t.start < mids) & (mids < t.end)
            for t in hyp.turns:
                ha[hyp_spk.index(t.speaker)] |= (t.start < mids) & (mids < t.end)
            nr, nh = ra.sum(axis=0), ha.sum(axis=0)
            total = nr.sum() * FRAME_STEP
            base = (np.maximum(nr - nh, 0) + np.maximum(nh - nr, 0)
                    + np.minimum(nr, nh)).sum() * FRAME_STEP
            k = min(len(ref_spk), len(hyp_spk))
            best = np.inf
            for rsub in itertools.permutations(range(len(ref_spk)), k):
                for hsub in itertools.permutations(range(len(hyp_spk)), k):
                    correct = sum((ra[r] & ha[h]).sum()
                                  for r, h in zip(rsub, hsub)) * FRAME_STEP
                    best = min(best, base - correct)
            return best / total

        for _ in range(10):
            ref = fuzz_timeline(rng, "r", n_spk=3, n_turns=6)
            hyp = fuzz_timeline(rng, "r", n_spk=3, n_turns=6)
            assert der(ref, hyp).der == pytest.approx(oracle_der(ref, hyp),
                                                      abs=1e-9)

    def test_collar_excises_boundaries(self):
        ref = tl("r", (0, 4, "a"))
        hyp = tl("r", (0.2, 3.8, "a"))  # late onset only
        with_collar = der(ref, hyp, collar=0.25, exact=True)
        without = der(ref, hyp, exact=True)
        assert without.missed > 0
        assert with_collar.missed == 0.0
        assert with_collar.total_ref < without.total_ref

    def test_collar_covers_everything(self):
        ref = tl("r", (0, 1, "a"))
        with pytest.raises(ScoringError):
            der(ref, ref, collar=10.0, exact=True)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("collar", [-1.0, -1e-9, np.nan, np.inf])
    def test_bad_collar_is_domain_error(self, exact, collar):
        ref = tl("r", (0, 4, "a"))
        with pytest.raises(DomainError, match="collar"):
            der(ref, ref, collar=collar, exact=exact)

    def test_rec_id_mismatch_and_empty_ref(self):
        ref = tl("r", (0, 1, "a"))
        with pytest.raises(ScoringError):
            der(ref, tl("other", (0, 1, "a")))
        with pytest.raises(ScoringError):
            der(Timeline("r", ()), ref)


class TestVectorizedEngine:
    """The vectorized engine against the per-piece loop it replaced: the
    activity sets are identical, only the summation order differs."""

    @staticmethod
    def assert_same(ref, hyp, **kw):
        got, want = der(ref, hyp, **kw), loop_der(ref, hyp, **kw)
        for name in ("missed", "false_alarm", "confusion", "total_ref"):
            assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                       rel=1e-12, abs=1e-12)
        assert got.der == pytest.approx(want.der, abs=1e-12)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("collar", [0.0, 0.25])
    @pytest.mark.parametrize("step", [None, 0.005])
    def test_matches_loop(self, rng, exact, collar, step):
        for _ in range(20):
            ref = overlapping_timeline(rng, "r", step=step)
            for hyp in (overlapping_timeline(rng, "r", n_spk=4, step=step),
                        fuzz_timeline(rng, "r"), Timeline("r", ())):
                self.assert_same(ref, hyp, collar=collar, exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_collar_excising_everything(self, exact):
        ref = tl("r", (0, 1, "a"), (0.5, 1, "b"))
        for score in (der, loop_der):
            with pytest.raises(ScoringError):
                score(ref, ref, collar=10.0, exact=exact)


class TestRelabelScorer:
    """The sweep's per-recording scorer equals `der` on the relabelled
    timeline exactly, since both build the same boolean activities, and
    the per-piece loop to rounding."""

    @staticmethod
    def recording(rng, n, step):
        starts = rng.uniform(0.0, 12.0, n)
        durations = rng.uniform(0.2, 3.0, n)
        if step:
            starts = step * np.round(starts / step)
            durations = step * np.maximum(1, np.round(durations / step))
        return SimpleNamespace(
            rec_id="r", starts=tuple(float(s) for s in starts),
            records=tuple(SimpleNamespace(duration=float(d)) for d in durations),
            labels=tuple(int(k) for k in rng.integers(1, 13, n)))

    @pytest.mark.parametrize("step", [None, 0.005])
    def test_matches_der_and_loop(self, rng, step):
        for n in (1, 5, 13, 13):
            rec = self.recording(rng, n, step)
            ref = _timeline(rec, rec.labels)
            score = relabel_scorer(ref)
            # one speaker, all singletons (labels up to 13: "spk10" sorts
            # before "spk2"), and two labellings with ids up to 12
            labellings = [(1,) * n, tuple(range(1, n + 1)), rec.labels[::-1],
                          tuple(int(k) for k in rng.integers(1, 13, n))]
            for labels in labellings:
                hyp = _timeline(rec, labels)
                try:
                    want = der(ref, hyp)
                except ScoringError:
                    with pytest.raises(ScoringError):
                        score(_speakers(labels))
                    continue
                got = score(_speakers(labels))
                assert got == want
                TestVectorizedEngine.assert_same(ref, hyp)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("collar", [0.0, 0.25])
    def test_ranges_equal_turn_masks(self, rng, exact, collar):
        """Each turn's piece range holds exactly the midpoints it contains,
        also when turn boundaries fall on frame midpoints."""
        for step in (None, 0.005):
            rec = self.recording(rng, 13, step)
            ref = _timeline(rec, rec.labels)
            _, mid = _scored_pieces(ref, ref, collar, exact)
            speakers = [t.speaker for t in ref.turns]
            want = np.zeros((mid.size, len(ref.speakers())), dtype=bool)
            for t in ref.turns:
                want[:, ref.speakers().index(t.speaker)] |= (t.start < mid) & (mid < t.end)
            assert np.array_equal(_activity(_turn_ranges(ref.turns, mid), speakers, mid.size),
                                  want)

    def test_long_recording_memory_is_bounded(self, rng):
        """An hour of 1000 turns in 10 ms frames is 360k pieces: one
        (turns x pieces) boolean matrix would take 360 MB."""
        starts = np.sort(rng.uniform(0.0, 3590.0, 1000))
        rec = SimpleNamespace(
            rec_id="r", starts=tuple(float(s) for s in starts),
            records=tuple(SimpleNamespace(duration=float(d))
                          for d in rng.uniform(1.0, 10.0, 1000)),
            labels=tuple(int(k) for k in rng.integers(1, 5, 1000)))
        ref = _timeline(rec, rec.labels)
        labels = tuple(int(k) for k in rng.integers(1, 5, 1000))
        tracemalloc.start()
        try:
            want = der(ref, _timeline(rec, labels))
            got = relabel_scorer(ref)(_speakers(labels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 100e6

    def test_labelling_cost_does_not_grow_with_frames(self):
        """An hour of 4 turns in 10 ms frames is 360k pieces but 5 atoms:
        scoring a labelling allocates next to nothing."""
        ref = tl("r", (0.0, 1000.0, "a"), (900.0, 1200.0, "b"),
                 (2100.0, 700.0, "a"), (2800.0, 800.0, "c"))
        labels = ["x", "y", "y", "x"]
        hyp = Timeline("r", tuple(Turn(t.start, t.duration, s)
                                  for t, s in zip(ref.turns, labels)))
        score = relabel_scorer(ref)
        tracemalloc.start()
        try:
            got = score(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert got == der(ref, hyp)
        TestVectorizedEngine.assert_same(ref, hyp)

    def test_labelling_of_wrong_length_rejected(self):
        score = relabel_scorer(tl("r", (0, 1, "a"), (1, 1, "b"), (2, 1, "a")))
        for speakers in (["x", "y"], ["x", "y", "x", "z"]):
            with pytest.raises(ShapeError, match="turns"):
                score(speakers)
        assert score(["x", "y", "x"]).der == 0.0

    def test_errors_match_der(self):
        with pytest.raises(ScoringError):
            relabel_scorer(Timeline("r", ()))


class TestAggregate:
    def test_time_weighted(self):
        a = der(tl("a", (0, 10, "x")), tl("a", (0, 10, "x")), exact=True)
        b = der(tl("b", (0, 5, "x")), tl("b", (0, 5, "y")), exact=True)
        agg = aggregate_der([a, b])
        assert agg.der == pytest.approx(0.0)
        assert set(agg.per_recording) == {"a", "b"}
        with pytest.raises(ScoringError):
            aggregate_der([])

    def test_report_table(self):
        report = der(tl("r", (0, 2, "a")), tl("r", (0, 2, "a")), exact=True)
        text = report_table(aggregate_der([report]))
        assert "OVERALL" in text and "r" in text.split()[5]


class TestRttm:
    def test_roundtrip(self, tmp_path, rng):
        path = tmp_path / "x.rttm"
        tls = [fuzz_timeline(rng, f"rec{i}") for i in range(3)]
        write_rttm(path, tls)
        back = read_rttm(path)
        assert set(back) == {t.rec_id for t in tls}
        for orig in tls:
            got = sorted(back[orig.rec_id].turns, key=lambda t: t.start)
            want = sorted(orig.turns, key=lambda t: t.start)
            for g, w in zip(got, want):
                assert g.start == pytest.approx(w.start, abs=1e-3)
                assert g.duration == pytest.approx(w.duration, abs=1e-3)
                assert g.speaker == w.speaker

    def test_single_line(self, tmp_path):
        path = tmp_path / "one.rttm"
        path.write_text("SPEAKER rec 1 0.000 1.500 <NA> <NA> alice <NA> <NA>\n")
        out = read_rttm(path)
        assert list(out) == ["rec"]
        assert out["rec"].turns[0].speaker == "alice"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rttm"
        path.write_text("")
        assert read_rttm(path) == {}

    def test_unknown_type_skipped_with_warning(self, tmp_path):
        path = tmp_path / "mixed.rttm"
        path.write_text("SPKR-INFO rec 1 <NA> <NA> <NA> unknown alice <NA>\n"
                        "SPEAKER rec 1 0.0 1.0 <NA> <NA> alice <NA> <NA>\n")
        with pytest.warns(UserWarning, match="SPKR-INFO"):
            out = read_rttm(path)
        assert len(out["rec"].turns) == 1

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.rttm"
        path.write_text("SPEAKER rec 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n"
                        "SPEAKER rec 1 zero 1.0 <NA> <NA> a <NA> <NA>\n")
        with pytest.raises(ParseError) as exc_info:
            read_rttm(path)
        assert exc_info.value.line == 2


class TestRelabelingInvariance:
    def test_fuzzed_timelines(self, rng):
        for i in range(25):
            ref = fuzz_timeline(rng, "r")
            hyp = fuzz_timeline(rng, "r")
            base = der(ref, hyp).der
            perm = {s: f"spk_{j}" for j, s in enumerate(
                rng.permutation(hyp.speakers()))}
            renamed = Timeline("r", tuple(
                Turn(t.start, t.duration, perm[t.speaker]) for t in hyp.turns))
            assert der(ref, renamed).der == pytest.approx(base, abs=1e-12)

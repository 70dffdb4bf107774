"""Diarization error-rate scoring and RTTM timeline I/O.

DER is computed with an exact optimal one-to-one speaker mapping (assignment
problem on overlap durations).  One vectorized engine scores both modes over
boolean (atoms x speakers) activity matrices; the modes differ only in the
pieces the atoms are cut from: a 10 ms frame grid by default, or exact turn
and collar boundaries.

Piece midpoints ascend, so the pieces a turn is active on form one index
range.  An atom is a maximal run of pieces on which no turn range starts or
ends: every turn is active on all of an atom's pieces or on none, so the
scoring terms only need each atom's summed duration, and their cost follows
the number of turns, not the length of the recording.  Relabellings of one
reference's turns, as a sigma sweep produces, share their atoms, ranges and
reference terms: `relabel_scorer` builds them once, and a labelling's
speaker activities set its speakers' ranges, the same booleans `der` builds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DomainError, ParseError, ScoringError, ShapeError

FRAME_STEP = 0.01  # seconds


@dataclass(frozen=True)
class Turn:
    start: float
    duration: float
    speaker: str

    def __post_init__(self):
        if not (np.isfinite(self.start) and np.isfinite(self.duration)):
            raise DomainError("turn times must be finite")
        if not self.duration > 0:
            raise DomainError("turn duration must be positive")
        if not self.speaker:
            raise DomainError("speaker label must be nonempty")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Timeline:
    rec_id: str
    turns: tuple

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))

    def speakers(self):
        return sorted({t.speaker for t in self.turns})


@dataclass(frozen=True)
class DerReport:
    missed: float
    false_alarm: float
    confusion: float
    total_ref: float
    per_recording: dict = field(default_factory=dict)

    @property
    def der(self) -> float:
        return (self.missed + self.false_alarm + self.confusion) / self.total_ref


def read_rttm(path) -> dict[str, Timeline]:
    """Parse an RTTM file into timelines keyed by recording id.  Non-SPEAKER
    lines are skipped with a warning."""
    turns: dict[str, list] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "SPEAKER":
                warnings.warn(f"{path}:{lineno}: skipping unknown line type {parts[0]!r}")
                continue
            if len(parts) < 8:
                raise ParseError(f"SPEAKER line has {len(parts)} fields, expected >= 8",
                                 line=lineno)
            try:
                turn = Turn(float(parts[3]), float(parts[4]), parts[7])
            except ValueError as exc:   # DomainError included
                raise ParseError(f"malformed numeric field: {exc}", line=lineno) from exc
            turns.setdefault(parts[1], []).append(turn)
    return {rec: Timeline(rec, tuple(ts)) for rec, ts in turns.items()}


def write_rttm(path, timelines):
    """Write an iterable of Timeline as RTTM, 3-decimal times, sorted by
    recording id then onset."""
    with open(path, "w") as fh:
        for tl in sorted(timelines, key=lambda t: t.rec_id):
            for turn in sorted(tl.turns, key=lambda t: (t.start, t.speaker)):
                fh.write(f"SPEAKER {tl.rec_id} 1 {turn.start:.3f} {turn.duration:.3f} "
                         f"<NA> <NA> {turn.speaker} <NA> <NA>\n")


def _scored_pieces(ref: Timeline, hyp: Timeline, collar: float, exact: bool):
    """(durations, midpoints) of the pieces whose midpoint no collar zone
    contains: 10 ms frames from the earliest turn, or exact boundaries."""
    if not ref.turns:
        raise ScoringError("empty reference timeline")
    if not (np.isfinite(collar) and collar >= 0):
        raise DomainError(f"collar must be finite and nonnegative, got {collar!r}")
    zones = []
    if collar > 0:
        for t in ref.turns:
            zones.append((t.start - collar, t.start + collar))
            zones.append((t.end - collar, t.end + collar))
    turns = ref.turns + hyp.turns
    start = min(t.start for t in turns)
    end = max(t.end for t in turns)
    if exact:
        bounds = {start, end}
        for t in turns:
            bounds.update((t.start, t.end))
        for lo, hi in zones:
            bounds.update((lo, hi))
        bounds = np.array(sorted(b for b in bounds if start <= b <= end))
        a, b = bounds[:-1], bounds[1:]
    else:
        a = np.arange(start, end, FRAME_STEP)
        b = a + FRAME_STEP
    mid = 0.5 * (a + b)
    scored = np.ones(mid.size, dtype=bool)
    for lo, hi in zones:
        scored &= ~((lo < mid) & (mid < hi))
    return (b - a)[scored], mid[scored]


def _turn_ranges(turns, mid: np.ndarray) -> np.ndarray:
    """(turns x 2) index ranges [lo, hi) of the pieces whose midpoint each
    turn contains (start < mid < end); contiguous because the midpoints
    ascend."""
    lo = np.searchsorted(mid, [t.start for t in turns], side="right")
    hi = np.searchsorted(mid, [t.end for t in turns], side="left")
    return np.stack([lo, hi], axis=1)


def _atoms(dur: np.ndarray, *range_lists):
    """Cut the pieces [0, len(dur)) into atoms at both ends of every range
    in the given `_turn_ranges` arrays.  Returns the atoms' summed durations
    and each range list in atom indices."""
    bounds = np.unique(np.concatenate([[0, dur.size], *(r.ravel() for r in range_lists)]))
    return (np.add.reduceat(dur, bounds[:-1]),
            [np.searchsorted(bounds, r).tolist() for r in range_lists])


def _activity(ranges, speakers, n_atoms: int) -> np.ndarray:
    """Boolean (atoms x sorted speakers) matrix: speakers[k] is active on
    the atoms of ranges[k].  It is a transposed speaker-major array, which
    keeps the per-atom speaker counts in `_report` on contiguous memory."""
    column = {s: i for i, s in enumerate(sorted(set(speakers)))}
    active = np.zeros((len(column), n_atoms), dtype=bool)
    for (lo, hi), s in zip(ranges, speakers):
        active[column[s], lo:hi] = True
    return active.T


def _reference_terms(dur, ref_on):
    """The terms of `_report` that depend on the reference alone: its
    activity, the activity weighted by atom duration, the active speakers
    per atom and the scored speech time."""
    n_ref = ref_on.sum(axis=1)
    return ref_on, ref_on * dur[:, None], n_ref, float(np.sum(dur * n_ref))


def _report(rec_id, dur, ref, hyp_on) -> DerReport:
    """Score a boolean (atoms x speakers) hypothesis activity against the
    `_reference_terms` `ref` of a reference activity, with atom durations."""
    ref_on, ref_dur, n_ref, total_ref = ref
    if total_ref == 0:
        raise ScoringError("reference has no scored speech (all excised by collar)")
    overlap = ref_dur.T @ hyp_on
    rows, cols = linear_sum_assignment(-overlap)
    n_hyp = hyp_on.sum(axis=1)
    n_correct = (ref_on[:, rows] & hyp_on[:, cols]).sum(axis=1)

    miss = float(np.sum(dur * np.maximum(n_ref - n_hyp, 0)))
    fa = float(np.sum(dur * np.maximum(n_hyp - n_ref, 0)))
    conf = float(np.sum(dur * (np.minimum(n_ref, n_hyp) - n_correct)))
    return DerReport(missed=miss, false_alarm=fa, confusion=conf, total_ref=total_ref,
                     per_recording={rec_id: (miss, fa, conf, total_ref)})


def der(ref: Timeline, hyp: Timeline, collar: float = 0.0, exact: bool = False) -> DerReport:
    """Score one hypothesis timeline against its reference.

    The hypothesis speakers are mapped one-to-one to reference speakers by
    maximizing total overlap (exact assignment); overlap regions are scored
    against all active reference speakers; a collar around reference turn
    boundaries is excluded from scoring.
    """
    if ref.rec_id != hyp.rec_id:
        raise ScoringError(f"recording ids differ: {ref.rec_id!r} vs {hyp.rec_id!r}")
    dur, mid = _scored_pieces(ref, hyp, collar, exact)
    dur, (ref_ranges, hyp_ranges) = _atoms(dur, _turn_ranges(ref.turns, mid),
                                           _turn_ranges(hyp.turns, mid))
    ref_on = _activity(ref_ranges, [t.speaker for t in ref.turns], dur.size)
    hyp_on = _activity(hyp_ranges, [t.speaker for t in hyp.turns], dur.size)
    return _report(ref.rec_id, dur, _reference_terms(dur, ref_on), hyp_on)


def relabel_scorer(ref: Timeline):
    """`score(speakers)`, the report of `der(ref, hyp)` for the hypothesis
    with ref's turns, where turn k is spoken by speakers[k].  A labelling
    of another length than ref's turns is a `ShapeError`."""
    dur, mid = _scored_pieces(ref, ref, collar=0.0, exact=False)
    dur, (ranges,) = _atoms(dur, _turn_ranges(ref.turns, mid))
    terms = _reference_terms(dur, _activity(ranges, [t.speaker for t in ref.turns],
                                            dur.size))

    def score(speakers):
        if len(speakers) != len(ranges):
            raise ShapeError(f"{len(speakers)} speakers for {len(ranges)} turns")
        return _report(ref.rec_id, dur, terms, _activity(ranges, speakers, dur.size))
    return score


def aggregate_der(reports) -> DerReport:
    """Time-weighted aggregate over per-recording reports."""
    reports = list(reports)
    if not reports:
        raise ScoringError("no reports to aggregate")
    per = {}
    for r in reports:
        per.update(r.per_recording)
    return DerReport(
        missed=sum(r.missed for r in reports),
        false_alarm=sum(r.false_alarm for r in reports),
        confusion=sum(r.confusion for r in reports),
        total_ref=sum(r.total_ref for r in reports),
        per_recording=per,
    )


def report_table(report: DerReport) -> str:
    """Aligned text table with per-recording and overall rows."""
    lines = [f"{'recording':<16} {'miss':>8} {'falarm':>8} {'confusion':>10} {'DER':>8}"]
    for rec in sorted(report.per_recording):
        m, f, c, tot = report.per_recording[rec]
        lines.append(f"{rec:<16} {m / tot:>8.4f} {f / tot:>8.4f} {c / tot:>10.4f} "
                     f"{(m + f + c) / tot:>8.4f}")
    lines.append(f"{'OVERALL':<16} {report.missed / report.total_ref:>8.4f} "
                 f"{report.false_alarm / report.total_ref:>8.4f} "
                 f"{report.confusion / report.total_ref:>10.4f} {report.der:>8.4f}")
    return "\n".join(lines)

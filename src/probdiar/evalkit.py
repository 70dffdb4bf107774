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
hypothesis's turns, as a sigma sweep produces, share their atoms, ranges and
reference terms: `relabel_scorer` builds them once and returns a scorer of
labellings, and `der` is that scorer applied to its own hypothesis's
speakers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DomainError, ParseError, ScoringError, ShapeError
from .io import is_field, text_lines

FRAME_STEP = 0.01  # seconds


@dataclass(frozen=True)
class Turn:
    start: float
    duration: float
    speaker: str

    def __post_init__(self):
        if not np.isfinite(self.end):   # finite only if start and duration are
            raise DomainError("turn start, duration and end must be finite")
        if not self.duration > 0:
            raise DomainError("turn duration must be positive")
        if not is_field(self.speaker):
            raise DomainError(f"speaker label must be nonempty without whitespace, "
                              f"got {self.speaker!r}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Timeline:
    rec_id: str
    turns: tuple

    def __post_init__(self):
        if not is_field(self.rec_id):
            raise DomainError(f"recording id must be nonempty without whitespace, "
                              f"got {self.rec_id!r}")
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
    for lineno, line in enumerate(text_lines(path), start=1):
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
    """Write an iterable of Timeline as RTTM, sorted by recording id then
    onset.  Each time is the shortest text that reads back as the same
    float: rounded, a short turn could read back with duration zero."""
    with open(path, "w", encoding="utf-8") as fh:
        for tl in sorted(timelines, key=lambda t: t.rec_id):
            for turn in sorted(tl.turns, key=lambda t: (t.start, t.speaker)):
                fh.write(f"SPEAKER {tl.rec_id} 1 {float(turn.start)!r} "
                         f"{float(turn.duration)!r} <NA> <NA> {turn.speaker} <NA> <NA>\n")


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
        try:
            a = np.arange(start, end, FRAME_STEP)
            b = a + FRAME_STEP
        except (ValueError, MemoryError) as exc:
            raise ScoringError(f"cannot build the {FRAME_STEP:g}-s frame grid over "
                               f"{start!r}..{end!r} s: {exc}") from None
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


def _report(rec_id, dur, ref, hyp_on) -> DerReport:
    """Score a boolean (atoms x speakers) hypothesis activity against the
    terms `ref` of a reference activity that `relabel_scorer` builds, with
    atom durations."""
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
    return relabel_scorer(ref, hyp, collar, exact)([t.speaker for t in hyp.turns])


def relabel_scorer(ref: Timeline, hyp: Timeline | None = None, collar: float = 0.0,
                   exact: bool = False):
    """`score(speakers)`, the report of `der(ref, h, collar, exact)` for the
    hypothesis h with hyp's turns (ref's when hyp is None), where turn k is
    spoken by speakers[k].  A labelling of another length than those turns
    is a `ShapeError`."""
    if hyp is None:
        hyp = ref
    dur, mid = _scored_pieces(ref, hyp, collar, exact)
    dur, (ref_ranges, hyp_ranges) = _atoms(dur, _turn_ranges(ref.turns, mid),
                                           _turn_ranges(hyp.turns, mid))
    ref_on = _activity(ref_ranges, [t.speaker for t in ref.turns], dur.size)
    n_ref = ref_on.sum(axis=1)   # active speakers per atom
    terms = ref_on, ref_on * dur[:, None], n_ref, float(np.sum(dur * n_ref))

    def score(speakers):
        if len(speakers) != len(hyp_ranges):
            raise ShapeError(f"{len(speakers)} speakers for {len(hyp_ranges)} turns")
        return _report(ref.rec_id, dur, terms, _activity(hyp_ranges, speakers, dur.size))
    return score


def aggregate_der(reports) -> DerReport:
    """Time-weighted aggregate over per-recording reports, each recording
    reported once."""
    reports = list(reports)
    if not reports:
        raise ScoringError("no reports to aggregate")
    per = {}
    for r in reports:
        if repeated := per.keys() & r.per_recording.keys():
            raise ScoringError(f"recording {min(repeated)!r} is reported twice")
        per.update(r.per_recording)
    return DerReport(
        missed=sum(r.missed for r in reports),
        false_alarm=sum(r.false_alarm for r in reports),
        confusion=sum(r.confusion for r in reports),
        total_ref=sum(r.total_ref for r in reports),
        per_recording=per,
    )


def report_rows(report: DerReport):
    """(recording, miss, false alarm, confusion, DER) rates of each recording
    in sorted order, then of OVERALL."""
    overall = (report.missed, report.false_alarm, report.confusion, report.total_ref)
    for rec, (m, f, c, tot) in [*sorted(report.per_recording.items()), ("OVERALL", overall)]:
        yield rec, m / tot, f / tot, c / tot, (m + f + c) / tot


def report_table(report: DerReport) -> str:
    """Aligned text table with per-recording and overall rows."""
    lines = [f"{'recording':<16} {'miss':>8} {'falarm':>8} {'confusion':>10} {'DER':>8}"]
    lines += [f"{rec:<16} {m:>8.4f} {f:>8.4f} {c:>10.4f} {d:>8.4f}"
              for rec, m, f, c, d in report_rows(report)]
    return "\n".join(lines)

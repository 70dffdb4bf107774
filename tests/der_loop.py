"""Reference DER scorer for the tests: the per-piece Python loop that the
vectorized engine in `probdiar.evalkit` replaced, kept verbatim.  It walks
every piece and every turn, so it is slow but easy to check by eye."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from probdiar.errors import ScoringError
from probdiar.evalkit import FRAME_STEP, DerReport, Timeline


def _interval_tables(ref: Timeline, hyp: Timeline, collar: float, exact: bool):
    """Yield (duration, ref_speaker_set, hyp_speaker_set) over scored regions."""
    ref_speakers = ref.speakers()
    hyp_speakers = hyp.speakers()
    collar_zones = []
    if collar > 0:
        for t in ref.turns:
            collar_zones.append((t.start - collar, t.start + collar))
            collar_zones.append((t.end - collar, t.end + collar))

    def active(turns, a, b):
        mid = 0.5 * (a + b)
        return {t.speaker for t in turns if t.start < mid < t.end}

    def in_collar(a, b):
        mid = 0.5 * (a + b)
        return any(lo < mid < hi for lo, hi in collar_zones)

    end = max([t.end for t in ref.turns + hyp.turns])
    start = min([t.start for t in ref.turns + hyp.turns])
    if exact:
        bounds = {start, end}
        for t in ref.turns + hyp.turns:
            bounds.update((t.start, t.end))
        for lo, hi in collar_zones:
            bounds.update((lo, hi))
        bounds = sorted(b for b in bounds if start <= b <= end)
        pieces = list(zip(bounds[:-1], bounds[1:]))
    else:
        grid = np.arange(start, end, FRAME_STEP)
        pieces = [(a, a + FRAME_STEP) for a in grid]

    out = []
    for a, b in pieces:
        if b <= a or in_collar(a, b):
            continue
        out.append((b - a, active(ref.turns, a, b), active(hyp.turns, a, b)))
    return out, ref_speakers, hyp_speakers


def loop_der(ref: Timeline, hyp: Timeline, collar: float = 0.0, exact: bool = False) -> DerReport:
    """Score one hypothesis timeline against its reference.

    The hypothesis speakers are mapped one-to-one to reference speakers by
    maximizing total overlap (exact assignment); overlap regions are scored
    against all active reference speakers; a collar around reference turn
    boundaries is excluded from scoring.
    """
    if ref.rec_id != hyp.rec_id:
        raise ScoringError(f"recording ids differ: {ref.rec_id!r} vs {hyp.rec_id!r}")
    if not ref.turns:
        raise ScoringError("empty reference timeline")

    pieces, ref_speakers, hyp_speakers = _interval_tables(ref, hyp, collar, exact)
    r_idx = {s: i for i, s in enumerate(ref_speakers)}
    h_idx = {s: i for i, s in enumerate(hyp_speakers)}

    overlap = np.zeros((len(ref_speakers), max(len(hyp_speakers), 1)))
    for dur, rs, hs in pieces:
        for r in rs:
            for h in hs:
                overlap[r_idx[r], h_idx[h]] += dur
    rows, cols = linear_sum_assignment(-overlap)
    mapping = {(r, c) for r, c in zip(rows, cols)}

    total_ref = miss = fa = conf = 0.0
    for dur, rs, hs in pieces:
        nr, nh = len(rs), len(hs)
        total_ref += dur * nr
        ncorrect = sum(1 for r in rs for h in hs if (r_idx[r], h_idx[h]) in mapping)
        miss += dur * max(0, nr - nh)
        fa += dur * max(0, nh - nr)
        conf += dur * (min(nr, nh) - ncorrect)
    if total_ref == 0:
        raise ScoringError("reference has no scored speech (all excised by collar)")
    return DerReport(missed=miss, false_alarm=fa, confusion=conf, total_ref=total_ref,
                     per_recording={ref.rec_id: (miss, fa, conf, total_ref)})

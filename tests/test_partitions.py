"""Partition enumeration, the Pitman-Yor prior, sparse tables and prior
fitting.  Oracles: independent exhaustive enumeration/summation, a
from-scratch seat-by-seat Monte Carlo cluster-count sampler, and the
one-row-at-a-time loops of `partition_loop` for bit identity."""

import functools
import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp

from probdiar import partitions
from probdiar.errors import DomainError, ShapeError, SizeError
from probdiar.partitions import (ALPHA_MAX, CrpParams, bell_number, build_tables,
                                 canonicalize, cluster_count_variance, crp_log_prob,
                                 enumerate_rgs, expected_cluster_count, fit_crp)

from . import crp_loop, partition_loop

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570]  # B_0..B_11
# (1e-12, 0.95) is the extreme of fit_crp's grid; the third is the prior that
# the train benchmark fits
LOOP_PRIORS = [CrpParams(1.0, 0.0), CrpParams(1e-12, 0.95),
               CrpParams(0.12146013229445346, 0.65), CrpParams(3.7, 0.3)]


def oracle_rgs(n):
    """Exhaustive filter of all n**n label strings by the growth constraint."""
    out = []
    for labels in itertools.product(range(1, n + 1), repeat=n):
        if labels[0] != 1:
            continue
        if all(labels[t] <= 1 + max(labels[:t]) for t in range(1, n)):
            out.append(labels)
    return out


class TestBellNumber:
    def test_known_values(self):
        for n in range(1, 11):
            assert bell_number(n) == BELL[n]

    def test_single_item(self):
        assert bell_number(1) == 1

    def test_octet_count(self):
        assert bell_number(8) == 4140

    def test_out_of_range(self):
        for n in (0, -1, 17):
            with pytest.raises(SizeError):
                bell_number(n)


class TestEnumerateRgs:
    def test_n3_exhaustive(self):
        assert enumerate_rgs(3) == [(1, 1, 1), (1, 1, 2), (1, 2, 1),
                                    (1, 2, 2), (1, 2, 3)]

    def test_n1(self):
        assert enumerate_rgs(1) == [(1,)]

    def test_counts_match_bell(self):
        for n in range(1, 9):
            assert len(enumerate_rgs(n)) == bell_number(n)

    def test_matches_exhaustive_oracle(self):
        for n in range(1, 7):
            assert enumerate_rgs(n) == oracle_rgs(n)

    def test_matches_recursive_enumerator(self):
        for n in range(1, 10):
            assert enumerate_rgs(n) == partition_loop.enumerate_rgs(n)

    def test_lexicographic_order(self):
        for n in (4, 6):
            rgs = enumerate_rgs(n)
            assert rgs == sorted(rgs)

    def test_out_of_range(self):
        with pytest.raises(SizeError):
            enumerate_rgs(0)
        with pytest.raises(SizeError):
            enumerate_rgs(13)


class TestCanonicalize:
    def test_relabel_by_first_appearance(self):
        assert canonicalize([7, 7, 2]) == (1, 1, 2)

    def test_already_canonical(self):
        assert canonicalize([1, 2, 3]) == (1, 2, 3)

    def test_swap(self):
        assert canonicalize([2, 1, 2, 1]) == (1, 2, 1, 2)

    def test_idempotent(self, rng):
        for _ in range(50):
            labels = rng.integers(1, 5, size=6).tolist()
            once = canonicalize(labels)
            assert canonicalize(once) == once
            assert once in enumerate_rgs(6)


class TestCrpLogProb:
    def test_pair_join(self):
        assert crp_log_prob([1, 1], CrpParams(1.0, 0.0)) == pytest.approx(
            math.log(0.5), abs=1e-15)

    def test_pair_split(self):
        assert crp_log_prob([1, 2], CrpParams(1.0, 0.0)) == pytest.approx(
            math.log(0.5), abs=1e-15)

    def test_normalization_n4(self):
        params = CrpParams(0.7, 0.3)
        total = sum(math.exp(crp_log_prob(labels, params))
                    for labels in enumerate_rgs(4))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_normalization_grid(self):
        for n in range(2, 7):
            for alpha in (0.1, 1.0, 5.0):
                for d in (0.0, 0.3, 0.7):
                    params = CrpParams(alpha, d)
                    total = logsumexp([crp_log_prob(labels, params)
                                       for labels in enumerate_rgs(n)])
                    assert abs(total) < 1e-12

    @pytest.mark.parametrize("labels", [(7, 7, 3, 7, 3, 9), (2, 1, 2, 1), ("b", "a", "b"),
                                        (5,), ()])
    def test_matches_seating_loop_on_any_labels(self, labels):
        # non-canonical labels score as their partition; the empty one as 0.0
        for params in LOOP_PRIORS:
            got = crp_log_prob(labels, params)
            assert type(got) is float
            assert got == partition_loop.crp_log_prob(labels, params)

    def test_long_labelling_takes_two_logs_per_seat(self, monkeypatch):
        # a recording-length labelling: bit-identical, and linear in logs
        labels = np.random.default_rng(3).integers(0, 5, size=720).tolist()
        for params in LOOP_PRIORS:
            assert crp_log_prob(labels, params) == partition_loop.crp_log_prob(labels, params)
        calls = []
        monkeypatch.setattr(partitions, "math", SimpleNamespace(
            log=lambda x: calls.append(x) or math.log(x)))
        crp_log_prob(labels, LOOP_PRIORS[2])
        assert len(calls) == 2 * (len(labels) - 1)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            CrpParams(-1.0, 0.0)
        with pytest.raises(DomainError):
            CrpParams(1.0, 1.0)
        with pytest.raises(DomainError):
            CrpParams(0.0, 0.0)


class TestTables:
    def test_n2_seg_subset(self):
        tables = build_tables(2, CrpParams(1.0, 0.0))
        cols = {tuple(col) for col in tables.seg_subset.T}
        assert cols == {(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
        assert tables.seg_subset.shape == (2, 3)

    def test_prior_normalized(self):
        tables = build_tables(3, CrpParams(1.0, 0.0))
        assert abs(logsumexp(tables.log_prior)) < 1e-12

    def test_part_subset_against_membership(self, tables_by_n):
        tables = tables_by_n[4]
        dense = tables.part_subset.toarray()
        for p, labels in enumerate(tables.rgs):
            expected_cols = set()
            for k in set(labels):
                mask = sum(1 << t for t in range(4) if labels[t] == k)
                expected_cols.add(mask - 1)
            assert set(np.flatnonzero(dense[p])) == expected_cols
            assert dense[p].sum() == len(set(labels))

    def test_rgs_index_roundtrip(self, tables_by_n):
        tables = tables_by_n[5]
        for i, labels in enumerate(tables.rgs):
            assert tables.rgs_index(labels) == i

    def test_rgs_index_ranks_every_row_in_one_call(self):
        for n in range(1, 11):
            tables = build_tables(n, CrpParams(1.0, 0.1))
            assert tables.rgs.dtype == np.int64 and tables.rgs.shape == (BELL[n], n)
            assert np.array_equal(tables.rgs_index(tables.rgs), np.arange(BELL[n]))

    def test_rgs_index_of_a_tuple(self, tables_by_n):
        tables = tables_by_n[4]
        for i, labels in enumerate(partition_loop.enumerate_rgs(4)):
            assert tables.rgs_index(labels) == i
        assert tables.rgs_index([(1, 2, 3, 4), (1, 1, 1, 1)]).tolist() == [14, 0]

    @pytest.mark.parametrize("labels", [(1, 2, 1), (1, 2, 1, 2, 3), (), [[1, 1]], 1])
    def test_rgs_index_wrong_length_is_shape_error(self, tables_by_n, labels):
        with pytest.raises(ShapeError):
            tables_by_n[4].rgs_index(labels)

    @pytest.mark.parametrize("labels", [(2, 1, 1, 1), (1, 3, 1, 1), (1, 0, 1, 1),
                                        (1, 2, 4, 1), (0, 1, 1, 1), (1, -1, 1, 1),
                                        (1.0, 1.0, 1.0, 1.0), ("1", "1", "1", "1"),
                                        [(1, 1, 1, 1), (1, 1, 3, 1)]])
    def test_rgs_index_non_rgs_is_domain_error(self, tables_by_n, labels):
        with pytest.raises(DomainError):
            tables_by_n[4].rgs_index(labels)

    @pytest.mark.parametrize("prior", LOOP_PRIORS)
    def test_bit_identical_to_row_loops(self, prior):
        for n in range(1, 10):
            tables = build_tables(n, prior)
            rgs = partition_loop.enumerate_rgs(n)
            assert tables.rgs.tolist() == [list(labels) for labels in rgs]
            assert np.array_equal(tables.log_prior.view(np.int64),
                                  partition_loop.log_prior(rgs, prior).view(np.int64))
            want = partition_loop.part_subset(rgs, n)
            assert tables.part_subset.shape == want.shape
            for name in ("indptr", "indices", "data"):
                got, ref = getattr(tables.part_subset, name), getattr(want, name)
                assert got.dtype == ref.dtype, name
                assert np.array_equal(got, ref), name

    def test_n10(self):
        tables = build_tables(10, CrpParams(1.0, 0.1))
        assert tables.n_partitions == BELL[10]
        # each partition of 10 items with its clusters is a partition of 11
        # items whose last item is a singleton or joins one cluster
        assert tables.part_subset.nnz == BELL[11] - BELL[10]
        assert abs(logsumexp(tables.log_prior)) < 1e-12
        for r in np.random.default_rng(0).integers(0, BELL[10], size=200):
            assert tables.rgs_index(tables.rgs[r]) == r

    def test_unnormalized_prior_is_domain_error(self, monkeypatch):
        # an explicit check, not an assert, so it also holds under python -O
        monkeypatch.setattr(partitions, "logsumexp", lambda x: 1.0)
        with pytest.raises(DomainError, match="does not normalize"):
            build_tables(3, CrpParams(1.0, 0.0))


class TestExpectedClusterCount:
    def test_against_exhaustive_sum(self):
        for alpha, d in ((0.5, 0.0), (1.0, 0.3), (2.0, 0.6)):
            params = CrpParams(alpha, d)
            exact = sum(max(labels) * math.exp(crp_log_prob(labels, params))
                        for labels in enumerate_rgs(6))
            assert expected_cluster_count(6, alpha, d) == pytest.approx(
                exact, abs=1e-12)

    def test_single_item(self):
        assert expected_cluster_count(1, 1.0, 0.0) == pytest.approx(1.0)

    def test_float_steps_bit_identical_to_range_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 1000))
            alpha = float(10.0 ** rng.uniform(-12, 6))
            d = float(rng.choice(partitions.FIT_DISCOUNT_GRID))
            want = partition_loop.expected_cluster_count(n, alpha, d)
            assert expected_cluster_count(n, alpha, d) == want

    def test_mc_sampler_agrees(self):
        n, alpha, d, n_samples = 8, 1.0, 0.3, 200_000
        rng = np.random.default_rng(0)
        k = np.ones(n_samples)
        for t in range(1, n):
            k += rng.random(n_samples) < (alpha + k * d) / (alpha + t)
        # tolerances are about 6 and 5 standard errors of the sample moments
        assert k.mean() == pytest.approx(expected_cluster_count(n, alpha, d), abs=0.02)
        assert k.var() == pytest.approx(cluster_count_variance(n, alpha, d), abs=0.03)


class TestClusterCountVariance:
    def test_against_exhaustive_sum(self):
        for n in range(1, 8):
            for alpha, d in ((0.5, 0.0), (1.0, 0.3), (2.0, 0.6)):
                params = CrpParams(alpha, d)
                rgs = enumerate_rgs(n)
                probs = np.array([math.exp(crp_log_prob(labels, params))
                                  for labels in rgs])
                counts = np.array([max(labels) for labels in rgs], dtype=float)
                mean = probs @ counts
                exact = probs @ (counts - mean) ** 2
                assert cluster_count_variance(n, alpha, d) == pytest.approx(
                    exact, rel=1e-12)


class TestFitCrp:
    def test_degenerate_single_cluster(self):
        params = fit_crp(100, 1.0)
        assert params.discount == 0.0
        assert params.concentration < 1e-5

    def test_octet_three_speakers(self):
        params = fit_crp(8, 3.0)
        assert expected_cluster_count(
            8, params.concentration, params.discount) == pytest.approx(3.0, abs=0.015)

    def test_all_singletons_clipped(self):
        with pytest.warns(UserWarning):
            params = fit_crp(8, 8.0)
        assert params.concentration == ALPHA_MAX

    def test_invalid_target(self):
        with pytest.raises(DomainError):
            fit_crp(8, 0.5)
        with pytest.raises(DomainError):
            fit_crp(8, 9.0)

    @pytest.mark.parametrize("n_total, target, alpha, d", [
        (720, 93, 0.23839630555907199, 0.65),
        (720, 87, 0.12146013229445346, 0.65),
        (720, 98, 0.3460720981400291, 0.65),
        (720, 92, 0.21800272957616146, 0.65),
        (8, 3.0, 0.0659309807442072, 0.45),
        (24, 4.0, 0.0003392415919067969, 0.4)])
    def test_pinned_outputs(self, n_total, target, alpha, d):
        # pinned bit for bit: the fitted prior feeds every training run
        assert fit_crp(n_total, target) == CrpParams(alpha, d)


def _fit_outcome(fit, n_total, target):
    """fit(n_total, target), or the error it raises, with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fit(n_total, target)
        except DomainError as exc:
            out = f"DomainError: {exc}"
    return out, [str(w.message) for w in caught]


# 40 seeded (n_total, target) pairs, then the edges: one and two draws, a
# single speaker, all singletons (the ALPHA_MAX clip), tiny alpha at d = 0,
# and targets no grid point reaches; last, train's own fit (720, 87) and two
# larger corpora, up to the n the closed form's margin was measured on
_FIT_RNG = np.random.default_rng(17)
FIT_CASES = [(int(n), float(_FIT_RNG.uniform(1, n)))
             for n in _FIT_RNG.integers(2, 300, size=40)] + [
    (1, 1), (2, 1), (2, 2), (2, 1.5), (720, 1), (720, 720), (250, 249.5),
    (100, 1.0001), (3, 2.999), (720, 87.0), (2000, 150.0), (5000, 40.0)]


@functools.cache
def _loop_outcome(n_total, target):
    return _fit_outcome(crp_loop.fit_crp, n_total, target)


class TestFitCrpCertified:
    """fit_crp decides its comparisons from the closed form where that is
    certain; the recurrence-only loop of `crp_loop` is the oracle."""

    @pytest.mark.parametrize("n_total, target", FIT_CASES)
    def test_bit_identical_to_recurrence_loop(self, n_total, target):
        assert _fit_outcome(fit_crp, n_total, target) == _loop_outcome(n_total, target)

    def test_cases_cover_the_edges(self):
        outcomes = [_loop_outcome(n, t) for n, t in FIT_CASES]
        assert any(caught for _, caught in outcomes)               # the clip
        assert any(isinstance(out, CrpParams) and out.discount == 0.0
                   and out.concentration < 1e-6 for out, _ in outcomes)

    def test_no_candidate_is_domain_error(self, monkeypatch):
        # 1.2 clusters over 1000 draws: every discount of this grid
        # overshoots at alpha = 0
        monkeypatch.setattr(partitions, "FIT_DISCOUNT_GRID", (0.5, 0.9))
        monkeypatch.setattr(crp_loop, "FIT_DISCOUNT_GRID", (0.5, 0.9))
        got = _fit_outcome(fit_crp, 1000, 1.2)
        assert got[0].startswith("DomainError: no (alpha, discount)")
        assert got == _fit_outcome(crp_loop.fit_crp, 1000, 1.2)

    def test_recurrence_runs_only_near_the_root(self, monkeypatch):
        calls = []
        exact = partitions._expected_count

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(partitions, "_expected_count", counted)
        assert fit_crp(720, 87) == CrpParams(0.12146013229445346, 0.65)
        # the recurrence-only bisection runs it ~945 times
        assert len(calls) < 300

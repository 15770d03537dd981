import io
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contseq.errors import EmptyInputError, InsufficientDataError
from contseq.mapping import parse_sequence, render_sequence
from contseq.stats import (HeapPoint, RankEntry, RankTable,
                           build_rank_table, default_sample_sizes, fit_heap,
                           fit_zipf, format_fit_report, heap_curve,
                           read_heap_file, read_rank_file, write_heap_file,
                           write_rank_file, zipf_sensitivity)
from contseq.syngen import SyntheticSpec, sample_type_indices, sequence_vocabulary
from helpers import reference_fit_zipf, reference_zipf_sensitivity
from strategies import continent_sequences, sequence_counts


def seq(text):
    return parse_sequence(text)


def sampled_table(spec):
    """The rank table of the generator's type sample for ``spec``."""
    counts = np.bincount(sample_type_indices(spec), minlength=spec.vocabulary_size)
    vocabulary = sequence_vocabulary(spec.vocabulary_size)
    return RankTable.from_counts(
        {vocabulary[k]: int(c) for k, c in enumerate(counts) if c > 0})


def mle_reference(spec):
    """The MLE fit of ``sampled_table(spec)``, the number of observations it
    used, and, in ``math.fsum`` arithmetic over its ranks, the negative
    log-likelihood's slope and Var[log R] under the law with exponent a."""
    table = sampled_table(spec)
    selected = [e for e in table.entries if e.count >= 10]
    logs = [math.log(e.rank) for e in selected]
    n = sum(e.count for e in selected)
    data_mean = math.fsum(e.count * log for e, log in zip(selected, logs)) / n

    def law_moments(a):
        weights = [e.rank ** -a for e in selected]
        total = math.fsum(weights)
        p = [w / total for w in weights]
        mean = math.fsum(q * log for q, log in zip(p, logs))
        return mean, math.fsum(q * (log - mean) ** 2 for q, log in zip(p, logs))

    return (fit_zipf(table, method="mle"), n,
            lambda a: data_mean - law_moments(a)[0], lambda a: law_moments(a)[1])


def table_from_ranked_counts(counts_by_rank, vocabulary=None):
    """Rank R gets counts_by_rank[R-1]; sequences come from the deterministic
    vocabulary so entries are valid and distinct."""
    if vocabulary is None:
        vocabulary = sequence_vocabulary(len(counts_by_rank))
    return RankTable.from_counts(dict(zip(vocabulary, counts_by_rank)))


class TestRankTable:
    def test_degenerate_corpus(self):
        table = build_rank_table([seq("Asia (1)")] * 7)
        assert len(table) == 1
        entry = table.entries[0]
        assert (entry.rank, entry.count, entry.frequency) == (1, 7, 1.0)

    def test_tie_broken_by_text(self):
        table = build_rank_table([seq("Europe (1)")] * 5 + [seq("Asia (1)")] * 5)
        assert render_sequence(table.entries[0].sequence) == "Asia (1)"
        assert render_sequence(table.entries[1].sequence) == "Europe (1)"
        assert [e.rank for e in table.entries] == [1, 2]

    def test_empty_stream(self):
        with pytest.raises(EmptyInputError):
            build_rank_table([])

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            RankTable.from_counts({seq("Asia (1)"): 0})

    def test_invariants_enforced(self):
        good = build_rank_table([seq("Asia (1)")] * 3 + [seq("Europe (1)")])
        entries = good.entries
        with pytest.raises(ValueError, match="dense"):
            RankTable((entries[0], RankEntry(3, entries[1].sequence, 1, 0.25)), 4)
        with pytest.raises(ValueError, match="total"):
            RankTable(entries, 5)
        swapped = (RankEntry(1, entries[1].sequence, 1, 0.25),
                   RankEntry(2, entries[0].sequence, 3, 0.75))
        with pytest.raises(ValueError, match="non-increasing"):
            RankTable(swapped, 4)

    @given(sequence_counts(), st.randoms())
    def test_permutation_invariant(self, counts, rnd):
        stream = [s for s, n in counts.items() for _ in range(min(n, 5))]
        rnd.shuffle(stream)
        table = build_rank_table(stream)
        assert table == build_rank_table(reversed(stream))

    @given(sequence_counts())
    def test_frequencies_normalized(self, counts):
        table = RankTable.from_counts(counts)
        assert abs(math.fsum(e.frequency for e in table.entries) - 1.0) <= 1e-12


class TestZipfFit:
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.9108, 2.5, 3.0])
    def test_noiseless_recovery(self, a):
        counts = [round(1e15 * r ** (-a)) for r in range(1, 101)]
        fit = fit_zipf(table_from_ranked_counts(counts))
        assert abs(fit.exponent - a) < 1e-6
        assert fit.uncertainty < 1e-6
        assert fit.r_squared > 1 - 1e-9
        assert fit.n_points == 100 and fit.fit_range == (1, 100)

    def test_insufficient_points(self):
        table = build_rank_table([seq("Asia (1)")] * 20 + [seq("Europe (1)")] * 10)
        with pytest.raises(InsufficientDataError):
            fit_zipf(table)

    def test_min_count_filter(self):
        counts = [400, 200, 100, 50, 4, 3]
        fit = fit_zipf(table_from_ranked_counts(counts), min_count=10)
        assert fit.n_points == 4 and fit.fit_range == (1, 4)

    def test_rank_window(self):
        counts = [round(1e12 * r ** -2.0) for r in range(1, 51)]
        fit = fit_zipf(table_from_ranked_counts(counts), min_rank=5, max_rank=20)
        assert fit.fit_range == (5, 20) and fit.n_points == 16
        assert abs(fit.exponent - 2.0) < 1e-6

    def test_unknown_method(self):
        counts = [round(1e12 * r ** -2.0) for r in range(1, 21)]
        with pytest.raises(ValueError):
            fit_zipf(table_from_ranked_counts(counts), method="magic")

    def test_mle_on_sampled_corpus(self):
        table = sampled_table(SyntheticSpec(vocabulary_size=1000, exponent=1.9,
                                            corpus_size=200_000, seed=5))
        fit = fit_zipf(table, method="mle")
        assert fit.method == "mle"
        assert abs(fit.exponent - 1.9) < 0.1
        assert 0 < fit.uncertainty < 0.05

    def test_mle_is_the_root_of_the_likelihood_slope(self):
        """The negative log-likelihood's slope, the data's mean of log R
        minus the fitted law's, changes sign at the MLE exponent."""
        fit, _, slope, _ = mle_reference(SyntheticSpec(200, 1.9, 100_000, seed=7))
        assert slope(fit.exponent - 1e-9) < 0 < slope(fit.exponent + 1e-9)

    def test_mle_uncertainty_is_the_fisher_information(self):
        """The uncertainty is 1/sqrt(n * Var[log R]) under the fitted law."""
        fit, n, _, variance = mle_reference(SyntheticSpec(200, 1.9, 100_000, seed=7))
        assert fit.uncertainty == pytest.approx(1 / math.sqrt(n * variance(fit.exponent)),
                                                rel=1e-10, abs=0)

    @pytest.mark.parametrize("counts", [[50] * 20, [10 ** 9, 10, 10]], ids=["flat", "steep"])
    def test_mle_refuses_a_root_outside_its_interval(self, counts):
        """A flat table's likelihood peaks below 0.05 and a steep one's above
        20: the fit is insufficient data, not a bound reported as an
        estimate, and the sensitivity battery skips such windows."""
        table = table_from_ranked_counts(counts)
        with pytest.raises(InsufficientDataError, match=r"exponent in \[0\.05, 20\]"):
            fit_zipf(table, method="mle")
        assert zipf_sensitivity(table, method="mle") == []
        assert fit_zipf(table).method == "ols"

    def test_sensitivity_sweeps_ranges(self):
        counts = [round(1e12 * r ** -1.9) for r in range(1, 201)]
        fits = zipf_sensitivity(table_from_ranked_counts(counts))
        assert len(fits) >= 10
        assert len({f.fit_range for f in fits}) == len(fits)
        for fit in fits:
            assert abs(fit.exponent - 1.9) < 1e-6


def outcome(fit, *args, **kwargs):
    """A fit's result, or the type and message of its error."""
    try:
        return fit(*args, **kwargs)
    except (InsufficientDataError, ValueError) as exc:
        return type(exc), str(exc)


def same_fit(a, b) -> bool:
    """Every field equal, nan counting equal to nan."""
    return type(a) is type(b) and all(x == y or x != x and y != y
                                      for x, y in zip(astuple(a), astuple(b)))


ranked_counts = st.one_of(
    st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=60),
    st.builds(lambda n, a, top: [max(1, round(top * r ** -a)) for r in range(1, n + 1)],
              st.integers(1, 80), st.floats(0, 25), st.integers(1, 10 ** 9)))
rank_bounds = st.one_of(st.none(), st.integers(-3, 8), st.integers(9, 90), st.just(10 ** 6))


@settings(max_examples=200, deadline=None)
@given(counts=ranked_counts, min_rank=rank_bounds, max_rank=rank_bounds,
       min_count=st.sampled_from([0, 1, 10, "above"]), method=st.sampled_from(["ols", "mle"]))
def test_fits_match_the_entry_walking_reference(counts, min_rank, max_rank, min_count,
                                                method):
    """fit_zipf and zipf_sensitivity, which select on the table's count
    vector, give the reference's results and errors, field for field."""
    table = table_from_ranked_counts(sorted(counts, reverse=True))
    if min_count == "above":
        min_count = max(counts) + 1
    window = dict(min_count=min_count, min_rank=min_rank, max_rank=max_rank, method=method)
    got, want = outcome(fit_zipf, table, **window), outcome(reference_fit_zipf, table, **window)
    assert got == want if isinstance(want, tuple) else same_fit(got, want), (got, want)
    got = zipf_sensitivity(table, min_count=min_count, method=method)
    want = reference_zipf_sensitivity(table, min_count=min_count, method=method)
    assert len(got) == len(want) and all(map(same_fit, got, want)), (got, want)


class TestHeapCurve:
    def test_single_type_corpus(self):
        curve = heap_curve(["Asia (1)"] * 500, repeats=3, seed=1)
        assert all(p.v == 1 and p.v_mean == 1.0 and p.v_sd == 0.0
                   for p in curve.points)

    def test_all_distinct_corpus(self):
        curve = heap_curve(list(range(2000)), repeats=2, seed=1)
        assert all(p.v == p.n and p.v_mean == p.n for p in curve.points)
        fit = fit_heap(curve)
        assert abs(fit.exponent - 1.0) < 1e-6

    def test_bit_reproducible(self):
        corpus = [i % 17 for i in range(400)]
        assert heap_curve(corpus, repeats=4, seed=9) == heap_curve(corpus, repeats=4, seed=9)
        assert heap_curve(corpus, repeats=4, seed=9) != heap_curve(corpus, repeats=4, seed=10)

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            heap_curve([1, 2, 3], sample_sizes=[5], repeats=1)
        with pytest.raises(ValueError):
            heap_curve([1, 2, 3], sample_sizes=[0], repeats=1)
        with pytest.raises(ValueError):
            heap_curve([1, 2, 3], repeats=0)

    def test_explicit_sizes_and_stats(self):
        curve = heap_curve([i % 5 for i in range(100)], sample_sizes=[10, 50, 100],
                           repeats=5, seed=0)
        assert [p.n for p in curve.points] == [10, 50, 100]
        last = curve.points[-1]
        assert last.v == 5 and last.v_mean == 5.0 and last.v_sd == 0.0

    def test_accepts_integer_array(self):
        codes = np.array([i % 9 for i in range(300)])
        curve = heap_curve(codes, sample_sizes=[300], repeats=1, seed=0)
        assert curve.points[0].v == 9

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_any_integer_codes_count_as_strings(self, dtype):
        # negative, huge and unsigned codes are renumbered before they index anything
        labels = [(i * 7919) % 13 for i in range(600)]
        big = [10**12 + 3 * label if label % 2 else -label for label in labels]
        if dtype is np.uint64:
            big = [abs(code) for code in big]
        expected = heap_curve([str(label) for label in labels], repeats=3, seed=4)
        assert heap_curve(np.array(big, dtype=dtype), repeats=3, seed=4) == expected

    def test_default_sample_sizes(self):
        sizes = default_sample_sizes(1_000_000)
        assert sizes[0] == 100 and sizes[-1] == 1_000_000 and len(sizes) == 20
        assert sizes == sorted(set(sizes))
        assert default_sample_sizes(50)[0] == 50

    def test_fit_insufficient(self):
        curve = heap_curve(list(range(10)), sample_sizes=[5, 10], repeats=1)
        with pytest.raises(InsufficientDataError):
            fit_heap(curve)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            HeapPoint(10, 11, 1, 11.0, 0.0)
        with pytest.raises(ValueError):
            HeapPoint(10, 0, 1, 0.0, 0.0)


class TestFiles:
    def test_rank_file_round_trip(self):
        table = build_rank_table(
            [seq("Asia (1), Europe (1)")] * 30 + [seq("Asia (1)")] * 12
            + [seq("Australia & Oceania (2)")] * 12)
        sink = io.StringIO()
        write_rank_file(table, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "rank,sequence,count,percent"
        assert lines[1] == '1,"Asia (1), Europe (1)",30,55.56'
        assert read_rank_file(io.StringIO(sink.getvalue())) == table

    def test_rank_file_rejects_wrong_tie_order(self):
        text = ('rank,sequence,count,percent\n'
                '1,"Europe (1)",5,50.00\n'
                '2,"Asia (1)",5,50.00\n')
        with pytest.raises(ValueError, match="tie"):
            read_rank_file(io.StringIO(text))

    def test_rank_file_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            read_rank_file(io.StringIO("rank,seq\n"))
        with pytest.raises(EmptyInputError):
            read_rank_file(io.StringIO(""))
        with pytest.raises(EmptyInputError):
            read_rank_file(io.StringIO("rank,sequence,count,percent\n"))

    def test_heap_file_round_trip(self):
        curve = heap_curve([i % 23 for i in range(500)], repeats=3, seed=2)
        sink = io.StringIO()
        write_heap_file(curve, sink)
        got = read_heap_file(io.StringIO(sink.getvalue()))
        assert [p.n for p in got.points] == [p.n for p in curve.points]
        assert all(abs(a.v_mean - b.v_mean) < 1e-6
                   for a, b in zip(got.points, curve.points))

    def test_fit_report_format(self):
        counts = [round(1e12 * r ** -2.0) for r in range(1, 21)]
        table = table_from_ranked_counts(counts)
        report = format_fit_report(fit_zipf(table), zipf_sensitivity(table))
        lines = report.splitlines()
        assert lines[0] == "method ols"
        assert lines[1] == "exponent 2.000000"
        assert any(line.startswith("sensitivity_range") for line in lines)


class TestZipfHeapConsistency:
    @pytest.mark.parametrize("a", [1.5, 2.5])
    def test_alpha_beta_product_near_one(self, a):
        spec = SyntheticSpec(vocabulary_size=5000, exponent=a,
                             corpus_size=1_000_000, seed=8)
        indices = sample_type_indices(spec)
        vocabulary = sequence_vocabulary(5000)
        counts = np.bincount(indices, minlength=5000)
        table = RankTable.from_counts(
            {vocabulary[k]: int(c) for k, c in enumerate(counts) if c > 0})
        alpha = fit_zipf(table).exponent
        beta = fit_heap(heap_curve(indices, repeats=5, seed=8)).exponent
        assert abs(alpha * beta - 1.0) <= 0.15, (alpha, beta)

    def test_means_non_decreasing_on_default_grid(self):
        spec = SyntheticSpec(vocabulary_size=800, exponent=1.7,
                             corpus_size=50_000, seed=6)
        curve = heap_curve(sample_type_indices(spec), repeats=20, seed=33)
        means = [p.v_mean for p in curve.points]
        assert all(a <= b for a, b in zip(means, means[1:]))


@given(continent_sequences())
def test_rank_entry_text_round_trips_through_file(tmp_seq):
    table = RankTable.from_counts({tmp_seq: 3})
    sink = io.StringIO()
    write_rank_file(table, sink)
    assert read_rank_file(io.StringIO(sink.getvalue())) == table

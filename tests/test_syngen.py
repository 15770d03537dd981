import hashlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import stats as scipy_stats

from contseq.ingest import ExclusionPolicy, filter_record, write_corpus
from contseq.mapping import map_to_sequence, render_sequence
from contseq.model import Continent, ContinentTable
from contseq.stats import RankTable, fit_zipf
from contseq.syngen import (_ID_PREFIX, _IDS_PER_BLOCK, SyntheticSpec, _id_suffixes,
                            corpus_chunks, generate_corpus, iter_corpus,
                            sample_type_indices, sequence_vocabulary,
                            type_probabilities)


class TestVocabulary:
    def test_head_is_single_continent_types(self):
        head = [render_sequence(s) for s in sequence_vocabulary(6)]
        assert head == ["Africa (1)", "Asia (1)", "Australia & Oceania (1)",
                        "Europe (1)", "North America (1)", "South America (1)"]

    def test_unique_and_deterministic(self):
        vocabulary = sequence_vocabulary(2000)
        assert len(set(vocabulary)) == 2000
        assert vocabulary == sequence_vocabulary(2000)
        assert vocabulary[:500] == sequence_vocabulary(500)

    def test_respects_table_pools(self):
        tiny = ContinentTable({"Poland": Continent.EUROPE,
                               "Germany": Continent.EUROPE})
        got = [render_sequence(s) for s in sequence_vocabulary(2, tiny)]
        assert got == ["Europe (1)", "Europe (2)"]
        with pytest.raises(ValueError, match="exceeds"):
            sequence_vocabulary(3, tiny)


class TestSampling:
    def test_probabilities(self):
        spec = SyntheticSpec(vocabulary_size=10, exponent=2.0, corpus_size=0)
        probs = type_probabilities(spec)
        assert probs.shape == (10,)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert abs(probs[0] / probs[3] - 16.0) < 1e-9

    def test_deterministic(self):
        spec = SyntheticSpec(vocabulary_size=50, exponent=1.5,
                             corpus_size=10_000, seed=3)
        assert np.array_equal(sample_type_indices(spec), sample_type_indices(spec))

    def test_empty(self):
        spec = SyntheticSpec(vocabulary_size=5, exponent=1.0, corpus_size=0)
        assert sample_type_indices(spec).size == 0
        assert generate_corpus(spec) == []

    def test_chi_square_against_exact_law(self):
        spec = SyntheticSpec(vocabulary_size=100, exponent=2.0,
                             corpus_size=1_000_000, seed=12)
        observed = np.bincount(sample_type_indices(spec), minlength=100)
        expected = type_probabilities(spec) * spec.corpus_size
        result = scipy_stats.chisquare(observed, f_exp=expected)
        assert result.pvalue >= 0.001


class TestCorpus:
    def test_byte_identical_for_same_spec(self):
        spec = SyntheticSpec(vocabulary_size=80, exponent=1.9,
                             corpus_size=400, seed=21)
        first, second = io.StringIO(), io.StringIO()
        write_corpus(iter_corpus(spec), first)
        write_corpus(iter_corpus(spec), second)
        assert first.getvalue() == second.getvalue()

    def test_records_pass_ingest_filter(self, table):
        spec = SyntheticSpec(vocabulary_size=300, exponent=1.6,
                             corpus_size=600, seed=4)
        policy = ExclusionPolicy()
        for record in iter_corpus(spec):
            assert filter_record(record, policy, table) is None

    @pytest.mark.parametrize("spec, every_type", [
        (SyntheticSpec(vocabulary_size=300, exponent=1.6, corpus_size=600, seed=4), False),
        (SyntheticSpec(vocabulary_size=1000, exponent=0.5, corpus_size=20_000, seed=7), True),
    ], ids=["head", "every-type"])
    def test_mapping_recovers_intended_type(self, table, spec, every_type):
        vocabulary = sequence_vocabulary(spec.vocabulary_size, table)
        indices = sample_type_indices(spec)
        for record, type_index in zip(iter_corpus(spec), indices, strict=True):
            assert map_to_sequence(record, table) == vocabulary[type_index]
        if every_type:  # so test_full_pipeline_composition may count draws, not records
            assert len(np.unique(indices)) == spec.vocabulary_size

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, 5000), st.floats(0.5, 3.0), st.integers(0, 3000),
           st.integers(0, 2**128))
    def test_gen_lines_are_write_corpus_lines(self, vocab, exponent, size, seed):
        spec = SyntheticSpec(vocab, exponent, size, seed)
        records = io.StringIO()
        write_corpus(iter_corpus(spec), records)
        assert b"".join(corpus_chunks(spec)) == records.getvalue().encode()

    def test_gen_chunks_across_draw_chunks_and_id_blocks(self):
        # 140,001 records: three chunks of 65,536 draws, fifteen blocks of
        # 10,000 ids, the last of them one line long
        spec = SyntheticSpec(5000, 1.9, 140_001, seed=42)
        records = io.StringIO()
        write_corpus(iter_corpus(spec), records)
        chunks = list(corpus_chunks(spec))
        assert [chunk.count(b"\n") for chunk in chunks] == [_IDS_PER_BLOCK] * 14 + [1]
        assert b"".join(chunks) == records.getvalue().encode()
        # sha256 of this corpus when gen still serialized every record
        pinned = "070d5c09a61f7c3df6b02a9aa3a7441a1fe78621ef2563fd92240609a3cb3a13"
        assert hashlib.sha256(b"".join(chunks)).hexdigest() == pinned

    @pytest.mark.parametrize("start", [0, 10**8 - 20_000, 10**9 - 3])
    def test_id_pieces_make_every_id(self, start):
        # a chunk writes id i as its block's prefix and i's last four digits,
        # which stays f"syn-{i:08d}" past 10**8, where ids grow a ninth digit
        suffixes = _id_suffixes()
        for i in range(start, start + 40_000):
            pieces = _ID_PREFIX % (i // _IDS_PER_BLOCK) + suffixes[i % _IDS_PER_BLOCK]
            assert pieces == f"syn-{i:08d}".encode()

    def test_unique_pub_ids_and_years(self):
        records = generate_corpus(SyntheticSpec(10, 1.9, 30, seed=0))
        assert len({r.pub_id for r in records}) == 30
        assert all(2015 <= r.year <= 2023 for r in records)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0, 1.9, 10)
        with pytest.raises(ValueError):
            SyntheticSpec(10, -1.0, 10)
        with pytest.raises(ValueError):
            SyntheticSpec(10, 1.9, -1)


class TestExponentRecovery:
    """Sampling + ranking + fitting recovers the generating exponent."""

    @pytest.mark.parametrize("a", [1.5, 1.9, 2.5])
    def test_type_draw_coverage_20_seeds(self, a):
        vocabulary = sequence_vocabulary(5000)
        hits = 0
        for seed in range(20):
            spec = SyntheticSpec(vocabulary_size=5000, exponent=a,
                                 corpus_size=1_000_000, seed=seed)
            counts = np.bincount(sample_type_indices(spec), minlength=5000)
            table = RankTable.from_counts(
                {vocabulary[k]: int(c) for k, c in enumerate(counts) if c > 0})
            if abs(fit_zipf(table).exponent - a) <= 0.05:
                hits += 1
        assert hits >= 18

    @pytest.mark.parametrize("a", [1.5, 1.9, 2.5])
    def test_full_pipeline_composition(self, a):
        # a record maps to the sequence of its drawn type, for every type
        # (TestCorpus.test_mapping_recovers_intended_type), so the rank table
        # of the mapped records is the one of the draws
        spec = SyntheticSpec(vocabulary_size=1000, exponent=a,
                             corpus_size=1_000_000, seed=7)
        vocabulary = sequence_vocabulary(1000)
        counts = np.bincount(sample_type_indices(spec), minlength=1000)
        rank_table = RankTable.from_counts(
            {vocabulary[k]: int(c) for k, c in enumerate(counts) if c > 0})
        assert abs(fit_zipf(rank_table).exponent - a) <= 0.05

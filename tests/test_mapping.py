import io
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from contseq.errors import (ContractViolationError, SequenceFormatError,
                            TableFormatError, TableValidationError)
from contseq.mapping import load_aliases, map_to_sequence, parse_sequence, render_sequence
from contseq.model import AuthorRecord, Affiliation, Continent, ContinentSequence
from golden import WORKED_EXAMPLES
from helpers import author_countries, publication_countries, record
from strategies import continent_sequences, publication_records


def author(countries):
    return AuthorRecord("a", tuple(
        Affiliation(f"inst{j}", c) for j, c in enumerate(countries)))


class TestAuthorCountries:
    def test_duplicates_removed(self, table):
        got = author_countries(
            author(["United Kingdom", "United States", "United States"]), table)
        assert got == {"United Kingdom", "United States"}

    def test_two_distinct(self, table):
        assert len(author_countries(author(["United Kingdom", "Ecuador"]), table)) == 2

    def test_singleton(self, table):
        assert author_countries(author(["China"]), table) == {"China"}

    def test_normalized_variants_collapse(self, table):
        got = author_countries(author(["Poland", "  POLAND "]), table)
        assert got == {"Poland"}

    def test_missing_country_is_contract_violation(self, table):
        with pytest.raises(ContractViolationError):
            author_countries(author([None]), table)

    def test_unresolvable_label_names_it(self, table):
        with pytest.raises(ContractViolationError, match="Atlantis"):
            author_countries(author(["Atlantis"]), table)


class TestPublicationCountries:
    def test_worked_example_six_countries(self, table):
        rec = record("cc", WORKED_EXAMPLES[0][1])
        got = publication_countries(rec, table)
        assert got == {"United Kingdom", "Ecuador", "United States",
                       "Hong Kong SAR", "China", "Italy"}

    def test_shared_single_country(self, table):
        rec = record("p", [["Poland"], ["Poland"], ["Poland"]])
        assert publication_countries(rec, table) == {"Poland"}

    def test_disjoint_union(self, table):
        rec = record("p", [["Poland"], ["Japan"]])
        assert len(publication_countries(rec, table)) == 2


class TestMapToSequence:
    @pytest.mark.parametrize("case_id,layout,expected,n_c", WORKED_EXAMPLES,
                             ids=[w[0] for w in WORKED_EXAMPLES])
    def test_worked_examples(self, case_id, layout, expected, n_c, table):
        seq = map_to_sequence(record(case_id, layout), table)
        assert render_sequence(seq) == expected
        assert seq.total_countries == n_c

    def test_forced_singleton(self, table):
        seq = map_to_sequence(record("p", [["Poland"]]), table)
        assert render_sequence(seq) == "Europe (1)"

    def test_error_names_label(self, table):
        with pytest.raises(ContractViolationError, match="Narnia"):
            map_to_sequence(record("p", [["Narnia"]]), table)

    @given(rec=publication_records(), rnd=st.randoms())
    def test_order_invariance(self, rec, rnd, table):
        authors = list(rec.authors)
        rnd.shuffle(authors)
        shuffled = rec.__class__(rec.pub_id, rec.year, tuple(
            AuthorRecord(a.author_id, tuple(rnd.sample(a.affiliations, len(a.affiliations))))
            for a in authors))
        assert map_to_sequence(shuffled, table) == map_to_sequence(rec, table)

    @given(rec=publication_records())
    def test_duplicating_an_author_is_idempotent(self, rec, table):
        doubled = rec.__class__(rec.pub_id, rec.year, rec.authors + (rec.authors[0],))
        assert map_to_sequence(doubled, table) == map_to_sequence(rec, table)

    @given(rec=publication_records())
    def test_part_count_bounds_and_total(self, rec, table):
        seq = map_to_sequence(rec, table)
        assert 1 <= len(seq.parts) <= 6
        assert seq.total_countries == len(publication_countries(rec, table))
        for author in rec.authors:
            assert 1 <= len(author_countries(author, table)) <= len(author.affiliations)


class TestRendering:
    def test_examples(self):
        assert render_sequence(ContinentSequence(
            ((Continent.EUROPE, 2), (Continent.NORTH_AMERICA, 1)))) == \
            "Europe (2), North America (1)"
        assert render_sequence(ContinentSequence(((Continent.ASIA, 1),))) == "Asia (1)"
        assert render_sequence(ContinentSequence(
            ((Continent.AUSTRALIA_OCEANIA, 1), (Continent.EUROPE, 1)))) == \
            "Australia & Oceania (1), Europe (1)"

    @given(continent_sequences())
    def test_round_trip(self, seq):
        assert parse_sequence(render_sequence(seq)) == seq

    def test_parse_tolerates_case(self):
        assert parse_sequence("asia (1)") == ContinentSequence(((Continent.ASIA, 1),))

    @pytest.mark.parametrize("bad", [
        "", "Europe", "Europe (0)", "Europe (x)", "Atlantis (1)",
        "Europe (1), Asia (1)",       # out of canonical order
        "Asia (1), Asia (2)",         # duplicate continent
        "Europe (1),, Asia (1)",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(SequenceFormatError):
            parse_sequence(bad)


class TestAliases:
    def test_alias_and_target_are_one_country(self, table):
        aliased = table.with_aliases({"UK": "United Kingdom"})
        rec = record("p", [["UK"], ["United Kingdom"]])
        assert render_sequence(map_to_sequence(rec, aliased)) == "Europe (1)"
        assert publication_countries(rec, aliased) == {"United Kingdom"}

    def test_load_aliases(self):
        got = load_aliases(io.StringIO(
            "alias,canonical_label\nUK,United Kingdom\nUSA,United States\n"))
        assert got == {"UK": "United Kingdom", "USA": "United States"}

    def test_header_required(self):
        with pytest.raises(TableFormatError, match="header"):
            load_aliases(io.StringIO("UK,United Kingdom\n"))

    def test_duplicate_alias(self):
        with pytest.raises(TableValidationError, match="duplicate"):
            load_aliases(io.StringIO(
                "alias,canonical_label\nUK,United Kingdom\nuk,United Kingdom\n"))

    def test_malformed_row(self):
        with pytest.raises(TableFormatError, match="row 2"):
            load_aliases(io.StringIO("alias,canonical_label\njust-one\n"))

    def test_shipped_example_alias_file(self, table):
        source = resources.files("contseq") / "data" / "aliases-example.csv"
        with source.open("r", encoding="utf-8") as handle:
            aliases = load_aliases(handle)
        extended = table.with_aliases(aliases)
        assert extended.resolve("Hong Kong") == extended.resolve("Hong Kong SAR")
        assert extended.resolve("Viet Nam") == extended.resolve("Vietnam")

import io
import re

import pytest
from hypothesis import given

from contseq.errors import TableFormatError, TableValidationError
from contseq.model import (Affiliation, AuthorRecord, CONTINENTS, Continent,
                           ContinentSequence, ContinentTable,
                           PublicationRecord, load_continent_table,
                           normalize_label)
from strategies import continent_sequences


class TestContinentOrder:
    def test_declared_order_is_alphabetical(self):
        names = [c.value for c in CONTINENTS]
        assert names == sorted(names)
        assert names == ["Africa", "Asia", "Australia & Oceania", "Europe",
                         "North America", "South America"]

    def test_pairwise(self):
        assert Continent.AFRICA < Continent.ASIA
        assert Continent.AUSTRALIA_OCEANIA < Continent.SOUTH_AMERICA
        assert not Continent.EUROPE < Continent.EUROPE
        assert Continent.EUROPE <= Continent.EUROPE
        assert Continent.SOUTH_AMERICA > Continent.NORTH_AMERICA

    def test_sorted_is_canonical(self):
        shuffled = [Continent.SOUTH_AMERICA, Continent.AFRICA,
                    Continent.EUROPE, Continent.AUSTRALIA_OCEANIA]
        assert sorted(shuffled) == [Continent.AFRICA, Continent.AUSTRALIA_OCEANIA,
                                    Continent.EUROPE, Continent.SOUTH_AMERICA]

    def test_from_name_tolerant(self):
        assert Continent.from_name("  australia   & OCEANIA ") is Continent.AUSTRALIA_OCEANIA
        with pytest.raises(ValueError):
            Continent.from_name("MiddleEarth")
        with pytest.raises(ValueError):
            Continent.from_name("Antarctica")


def test_normalize_label():
    assert normalize_label("  Hong   KONG sar ") == "hong kong sar"
    assert normalize_label("Poland") == "poland"


def test_normalize_label_agrees_with_regex_form():
    """Splitting at whitespace and joining with one space is the regex form:
    trim, collapse each whitespace run to a space, casefold."""
    space = re.compile(r"\s+")
    chars = [*map(chr, range(0xD800)), *map(chr, range(0xE000, 0x110000))]
    texts = [c + "x" + c + c + "y" + c for c in chars]
    assert [s for s in texts
            if normalize_label(s) != space.sub(" ", s.strip()).casefold()] == []


class TestLoadTable:
    def test_basic_rows(self):
        table = load_continent_table(io.StringIO(
            "territory,continent\nPoland,Europe\nHong Kong SAR,Asia\nChina,Asia\n"))
        assert table.resolve("Poland") == ("Poland", Continent.EUROPE)
        # separate territory labels count separately even on one continent
        assert table.resolve("Hong Kong SAR")[0] != table.resolve("China")[0]

    def test_unknown_continent_names_value(self):
        with pytest.raises(TableValidationError, match="MiddleEarth"):
            load_continent_table(io.StringIO(
                "territory,continent\nAtlantis,MiddleEarth\n"))

    def test_antarctica_rejected(self):
        with pytest.raises(TableValidationError, match="Antarctica"):
            load_continent_table(io.StringIO(
                "territory,continent\nBouvet Island,Antarctica\n"))

    def test_malformed_row_carries_number(self):
        with pytest.raises(TableFormatError, match="row 3"):
            load_continent_table(io.StringIO(
                "territory,continent\nPoland,Europe\nonly-one-column\n"))

    def test_missing_header(self):
        with pytest.raises(TableFormatError, match="header"):
            load_continent_table(io.StringIO("Poland,Europe\n"))
        with pytest.raises(TableFormatError, match="row 1"):
            load_continent_table(io.StringIO(""))

    def test_duplicate_territory(self):
        with pytest.raises(TableValidationError, match="duplicate"):
            load_continent_table(io.StringIO(
                "territory,continent\nPoland,Europe\npoland,Europe\n"))

    def test_lookup_is_normalized(self):
        table = load_continent_table(io.StringIO("territory,continent\nPoland,Europe\n"))
        assert table.resolve(" POLAND ") == ("Poland", Continent.EUROPE)
        assert table.resolve("Narnia") is None
        assert "poland" in table and "Narnia" not in table


class TestDefaultTable:
    def test_total_over_own_labels(self, table):
        for label in table.labels():
            resolved = table.resolve(label)
            assert resolved is not None and resolved[0] == label

    def test_coverage(self, table):
        assert len(table) >= 200
        pools = table.countries_by_continent()
        assert set(pools) == set(CONTINENTS)
        for continent, labels in pools.items():
            assert len(labels) >= 12, continent

    def test_worked_example_labels_present(self, table):
        for label in ("United Kingdom", "United States", "Ecuador",
                      "Hong Kong SAR", "China", "Italy"):
            assert label in table

    def test_sar_distinct_from_sovereign(self, table):
        assert table.resolve("Hong Kong SAR") == ("Hong Kong SAR", Continent.ASIA)
        assert table.resolve("Macau SAR")[1] is Continent.ASIA
        assert table.resolve("Hong Kong SAR")[0] != table.resolve("China")[0]


class TestAliases:
    def test_alias_redirects_to_canonical(self, table):
        extended = table.with_aliases({"UK": "United Kingdom"})
        assert extended.resolve("uk") == ("United Kingdom", Continent.EUROPE)
        # base table is untouched
        assert table.resolve("UK") is None

    def test_alias_target_must_exist(self, table):
        with pytest.raises(TableValidationError, match="Narnia"):
            table.with_aliases({"Middle Kingdom": "Narnia"})

    def test_alias_must_not_shadow(self, table):
        with pytest.raises(TableValidationError, match="shadows"):
            table.with_aliases({"Poland": "Germany"})

    @pytest.mark.parametrize("alias", ["", " "])
    def test_alias_must_not_be_empty(self, table, alias):
        with pytest.raises(TableValidationError, match="empty alias"):
            table.with_aliases({alias: "Poland"})

    def test_two_spellings_of_one_alias_are_a_duplicate(self, table):
        with pytest.raises(TableValidationError, match="duplicate alias 'uk '"):
            table.with_aliases({"UK": "United Kingdom", "uk ": "United Kingdom"})

    @pytest.mark.parametrize("aliases", [{"UK": "United Kingdom", "GB": "UK"},
                                         {"GB": "UK", "UK": "United Kingdom"}])
    def test_alias_must_not_point_at_an_alias(self, table, aliases):
        with pytest.raises(TableValidationError, match="'GB' points at 'UK'"):
            table.with_aliases(aliases)


class TestSequenceType:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContinentSequence(())
        with pytest.raises(ValueError):
            ContinentSequence(((Continent.EUROPE, 0),))
        with pytest.raises(ValueError):
            ContinentSequence(((Continent.EUROPE, 1), (Continent.ASIA, 1)))
        with pytest.raises(ValueError):
            ContinentSequence(((Continent.ASIA, 1), (Continent.ASIA, 2)))

    def test_total_countries(self):
        seq = ContinentSequence(((Continent.ASIA, 2), (Continent.EUROPE, 3)))
        assert seq.total_countries == 5

    @given(continent_sequences())
    def test_generated_sequences_strictly_increasing(self, seq):
        pairs = list(zip(seq.parts, seq.parts[1:]))
        assert all(a[0] < b[0] for a, b in pairs)
        assert 1 <= len(seq.parts) <= 6


class TestRecordTypes:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Affiliation("")
        with pytest.raises(ValueError):
            AuthorRecord("a", ())
        with pytest.raises(ValueError):
            PublicationRecord("p", 2020, ())

    def test_frozen(self):
        affiliation = Affiliation("inst", "Poland")
        with pytest.raises(AttributeError):
            affiliation.country = "Germany"


def test_table_constructor_validation():
    with pytest.raises(TableValidationError):
        ContinentTable({"Poland": "Europe"})  # not a Continent value
    with pytest.raises(TableValidationError):
        ContinentTable({"Poland": Continent.EUROPE, " poland": Continent.EUROPE})

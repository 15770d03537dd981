"""Core domain types: continents, territory tables, publications, and
continent sequences.

Every value here answers the same once built (a table only caches what it
resolves), so it can be shared between worker processes or threads.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from importlib import resources
from typing import Mapping

from .errors import TableFormatError, TableValidationError
from .files import Source, read_csv


def normalize_label(text: str) -> str:
    """Normalize a territory label for comparison: trim, collapse internal
    whitespace, casefold."""
    return " ".join(text.split()).casefold()


@total_ordering
class Continent(enum.Enum):
    """The six continents of the analysis, declared in canonical
    (alphabetical) order. Antarctica is deliberately not a member."""

    AFRICA = "Africa"
    ASIA = "Asia"
    AUSTRALIA_OCEANIA = "Australia & Oceania"
    EUROPE = "Europe"
    NORTH_AMERICA = "North America"
    SOUTH_AMERICA = "South America"

    @classmethod
    def from_name(cls, name: str) -> "Continent":
        """Look up a continent by display name (case/whitespace tolerant)."""
        try:
            return _CONTINENT_BY_KEY[normalize_label(name)]
        except KeyError:
            raise ValueError(f"unknown continent name {name!r}") from None

    def __lt__(self, other):
        if not isinstance(other, Continent):
            return NotImplemented
        return _CONTINENT_ORDER[self] < _CONTINENT_ORDER[other]


#: All continents in canonical order.
CONTINENTS = tuple(Continent)
_CONTINENT_ORDER = {member: i for i, member in enumerate(Continent)}
_CONTINENT_BY_KEY = {normalize_label(member.value): member for member in Continent}


@dataclass(frozen=True, slots=True)
class Affiliation:
    """One institutional affiliation; ``country`` is None when the source
    data does not identify one."""

    institution: str
    country: str | None = None

    def __post_init__(self):
        if not self.institution:
            raise ValueError("affiliation institution must be non-empty")


@dataclass(frozen=True, slots=True)
class AuthorRecord:
    author_id: str
    affiliations: tuple[Affiliation, ...]

    def __post_init__(self):
        if not self.affiliations:
            raise ValueError(f"author {self.author_id!r} has no affiliations")


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    pub_id: str
    year: int
    authors: tuple[AuthorRecord, ...]

    def __post_init__(self):
        if not self.authors:
            raise ValueError(f"publication {self.pub_id!r} has no authors")


@dataclass(frozen=True, slots=True)
class ContinentSequence:
    """Canonical "continent (number of countries)" sequence of a publication.

    ``parts`` is non-empty, continents strictly increase in canonical order,
    and every country count is at least one. Instances are hashable and used
    directly as counting keys.
    """

    parts: tuple[tuple[Continent, int], ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("continent sequence must have at least one part")
        for continent, count in self.parts:
            if not isinstance(continent, Continent):
                raise ValueError(f"not a continent: {continent!r}")
            if count < 1:
                raise ValueError(f"country count for {continent.value} must be >= 1")
        for (a, _), (b, _) in zip(self.parts, self.parts[1:]):
            if not a < b:
                raise ValueError("continents must be strictly increasing in canonical order")

    @property
    def total_countries(self) -> int:
        """Number of distinct countries across the whole publication."""
        return sum(count for _, count in self.parts)


_MISS = object()


class ContinentTable:
    """Lookup from territory labels to continents; its answers never change once built.

    ``entries`` maps each canonical territory label (as spelled in the source
    table) to its continent. ``aliases`` optionally redirects alternative
    spellings to a canonical label, so aliased labels count as the same
    country. Lookup is tolerant of case and whitespace via
    :func:`normalize_label`. Each row is checked once, as the table is built,
    by :meth:`_add_territory` or :meth:`_add_alias`.
    """

    def __init__(self, entries: Mapping[str, Continent],
                 aliases: Mapping[str, str] | None = None):
        self.entries: dict[str, Continent] = {}
        self.aliases: dict[str, str] = {}
        # normalized label -> (canonical label, continent); _lookup adds the aliases
        self._territories: dict[str, tuple[str, Continent]] = {}
        self._lookup: dict[str, tuple[str, Continent]] = {}
        # raw-label resolution cache; real corpora repeat a few hundred labels
        self._cache: dict[str, object] = {}
        for label, continent in entries.items():
            self._add_territory(label, continent)
        for alias, target in (aliases or {}).items():
            self._add_alias(alias, target)

    def _add_territory(self, label: str, continent: Continent) -> None:
        """Add a territory row, or raise TableValidationError."""
        if not isinstance(continent, Continent):
            raise TableValidationError(f"value for {label!r} is not a continent")
        key = normalize_label(label)
        if not key:
            raise TableValidationError("empty territory label")
        if key in self._lookup:
            raise TableValidationError(f"duplicate territory {label!r}")
        self._territories[key] = self._lookup[key] = (label, continent)
        self.entries[label] = continent

    def _add_alias(self, alias: str, target: str) -> None:
        """Add an alias of a territory label, or raise TableValidationError."""
        key = normalize_label(alias)
        if not key:
            raise TableValidationError(f"empty alias {alias!r}")
        if key in self._lookup:
            raise TableValidationError(f"alias {alias!r} shadows a territory label"
                                       if key in self._territories else
                                       f"duplicate alias {alias!r}")
        hit = self._territories.get(normalize_label(target))
        if hit is None:
            raise TableValidationError(
                f"alias {alias!r} points at {target!r}, which is not a territory in the table")
        self._lookup[key] = hit
        self.aliases[alias] = target

    def resolve(self, label: str) -> tuple[str, Continent] | None:
        """Resolve a raw label to ``(canonical_label, continent)``.

        Returns None when the label is unknown. Two raw labels resolving to
        the same canonical label count as one country.
        """
        hit = self._cache.get(label, _MISS)
        if hit is _MISS:
            hit = self._lookup.get(normalize_label(label))
            # cap the cache so corpora full of unique junk labels can't
            # grow it without bound
            if len(self._cache) < 200_000:
                self._cache[label] = hit
        return hit

    def __contains__(self, label: str) -> bool:
        return self.resolve(label) is not None

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> tuple[str, ...]:
        """All canonical territory labels, sorted."""
        return tuple(sorted(self.entries))

    def countries_by_continent(self) -> dict[Continent, tuple[str, ...]]:
        """Canonical labels grouped per continent, each group sorted."""
        grouped: dict[Continent, list[str]] = defaultdict(list)
        for label, continent in self.entries.items():
            grouped[continent].append(label)
        return {c: tuple(sorted(v)) for c, v in grouped.items()}

    def with_aliases(self, aliases: Mapping[str, str]) -> "ContinentTable":
        """A new table with additional alias redirections."""
        table = ContinentTable(self.entries, self.aliases)
        for alias, target in aliases.items():
            table._add_alias(alias, target)
        return table


def load_continent_table(source: Source) -> ContinentTable:
    """Load a territory-to-continent table.

    The source must be comma-separated text with a ``territory,continent``
    header row; every continent cell must name one of the six continents.
    Raises :class:`TableFormatError` for structural problems (with the row
    number) and :class:`TableValidationError` for unknown continent names or
    duplicate territories.
    """
    table = ContinentTable({})
    def add(label: str, continent_name: str) -> None:
        label, continent_name = label.strip(), continent_name.strip()
        if not label:
            raise TableFormatError("empty territory label")
        try:
            table._add_territory(label, Continent.from_name(continent_name))
        except ValueError:
            raise TableValidationError(f"unknown continent {continent_name!r}") from None
    read_csv(source, "territory,continent", add, TableFormatError)
    return table


def load_aliases(source: Source, table: ContinentTable) -> ContinentTable:
    """``table`` with the aliases of an ``alias,canonical_label`` table, so an
    alias and its target count as one country. Each target must be a
    territory label of ``table``, never another alias. A bad row raises
    :class:`TableFormatError` or :class:`TableValidationError` naming it."""
    aliased = ContinentTable(table.entries, table.aliases)
    def add(alias: str, target: str) -> None:
        alias, target = alias.strip(), target.strip()
        if not alias or not target:
            raise TableFormatError("empty alias or target")
        aliased._add_alias(alias, target)
    read_csv(source, "alias,canonical_label", add, TableFormatError)
    return aliased


@lru_cache(maxsize=1)
def default_table() -> ContinentTable:
    """The built-in territory table shipped with the package.

    See ``data/continents.csv`` and the README for the taxonomy choices it
    encodes (SARs and similar territories are separate labels; continent
    assignments for transcontinental states are documented there).
    """
    resource = resources.files(__package__) / "data" / "continents.csv"
    with resource.open("r", encoding="utf-8") as handle:
        return load_continent_table(handle)

"""Turn an accepted publication into its canonical continent sequence.

The procedure: identify the country of every affiliation, deduplicate
countries per author, merge all authors' countries into one
set, map countries to continents, and annotate each continent with its
distinct-country count. The result renders as e.g.
``"Asia (2), Europe (2), North America (1), South America (1)"``.
"""

from __future__ import annotations

import re
from collections import Counter

from .errors import ContractViolationError, SequenceFormatError, TableFormatError, TableValidationError
from .files import Source, read_csv
from .model import (Continent, ContinentSequence, ContinentTable, PublicationRecord,
                    normalize_label)


def map_to_sequence(record: PublicationRecord, table: ContinentTable) -> ContinentSequence:
    """Canonical continent sequence of an accepted publication.

    Each continent present among the publication's distinct countries gets a
    part carrying that continent's distinct-country count; parts are ordered
    canonically (alphabetically). Permuting authors or affiliations, or
    duplicating an author, never changes the result. Each affiliation's label
    is resolved once; a missing or unresolvable one raises
    :class:`ContractViolationError` naming it.
    """
    resolved: dict[str, Continent] = {}
    for author in record.authors:
        for affiliation in author.affiliations:
            label = affiliation.country
            hit = None if label is None else table.resolve(label)
            if hit is None:
                raise ContractViolationError(
                    f"publication {record.pub_id!r}: unresolvable country label {label!r}")
            resolved[hit[0]] = hit[1]
    counts = Counter(resolved.values())
    return ContinentSequence(tuple(sorted(counts.items())))


def render_sequence(seq: ContinentSequence) -> str:
    """Render a sequence in its exact canonical text form."""
    return ", ".join(f"{continent.value} ({count})" for continent, count in seq.parts)


_PART = re.compile(r"^(?P<name>.+?)\s*\((?P<count>\d+)\)$")


def parse_sequence(text: str) -> ContinentSequence:
    """Parse a rendered sequence back; the inverse of :func:`render_sequence`.

    Tolerates case and spacing differences in continent names but enforces
    the canonical structure (strictly increasing continents, counts >= 1).
    """
    parts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        match = _PART.match(chunk)
        if match is None:
            raise SequenceFormatError(f"cannot parse sequence part {chunk!r}")
        try:
            continent = Continent.from_name(match.group("name"))
        except ValueError as exc:
            raise SequenceFormatError(str(exc)) from None
        count = int(match.group("count"))
        if count < 1:
            raise SequenceFormatError(f"country count must be >= 1 in {chunk!r}")
        parts.append((continent, count))
    try:
        return ContinentSequence(tuple(parts))
    except ValueError as exc:
        raise SequenceFormatError(f"invalid sequence {text!r}: {exc}") from None


def load_aliases(source: Source) -> dict[str, str]:
    """Load an ``alias,canonical_label`` table.

    Aliased labels are rewritten to their canonical label before continent
    lookup, so an alias and its target count as the same country. Returns a
    plain mapping; combine it with a table via
    :meth:`contseq.model.ContinentTable.with_aliases`, which also validates
    that every target exists.
    """
    aliases: dict[str, str] = {}
    seen: set[str] = set()
    for row_no, row in read_csv(source, "alias,canonical_label", TableFormatError):
        alias, target = row[0].strip(), row[1].strip()
        if not alias or not target:
            raise TableFormatError(f"row {row_no}: empty alias or target")
        key = normalize_label(alias)
        if key in seen:
            raise TableValidationError(f"row {row_no}: duplicate alias {alias!r}")
        seen.add(key)
        aliases[alias] = target
    return aliases

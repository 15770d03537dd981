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
from typing import Iterable

from .errors import ContractViolationError, SequenceFormatError
from .model import Continent, ContinentSequence, ContinentTable, PublicationRecord


def map_to_sequence(record: PublicationRecord, table: ContinentTable) -> ContinentSequence:
    """Canonical continent sequence of an accepted publication.

    Each continent present among the publication's distinct countries gets a
    part carrying that continent's distinct-country count; parts are ordered
    canonically (alphabetically). Permuting authors or affiliations, or
    duplicating an author, never changes the result. Each affiliation's label
    is resolved once; a missing or unresolvable one raises
    :class:`ContractViolationError` naming it.
    """
    try:
        return labels_to_sequence((affiliation.country for author in record.authors
                                   for affiliation in author.affiliations), table)
    except ContractViolationError as exc:
        raise ContractViolationError(f"publication {record.pub_id!r}: {exc}") from None


def labels_to_sequence(labels: Iterable[str | None], table: ContinentTable) -> ContinentSequence:
    """The sequence of a publication's country labels, each resolved once;
    a missing (None) or unresolvable label raises
    :class:`ContractViolationError` naming it."""
    resolved: dict[str, Continent] = {}
    for label in labels:
        hit = None if label is None else table.resolve(label)
        if hit is None:
            raise ContractViolationError(f"unresolvable country label {label!r}")
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


"""Rank-frequency statistics: rank tables, Zipf's-law fits, and Heap's-law
sampling, with uncertainties.

The default estimator is ordinary least squares on log-log coordinates over
all ranks whose count is at least ``min_count`` (default 10); a discrete
maximum-likelihood mode is available via ``method="mle"``. Heap curves are
built by repeatedly sampling publications without replacement and counting
distinct sequences; sampling is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyInputError, InsufficientDataError
from .files import Sink, Source, named, read_csv, writing
from .mapping import parse_sequence, render_sequence
from .model import ContinentSequence

_FREQ_SUM_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class RankEntry:
    rank: int
    sequence: ContinentSequence
    count: int
    frequency: float


@dataclass(frozen=True)
class RankTable:
    """All distinct sequences sorted by descending count.

    Ties are broken by ascending rendered text; ranks are dense (1, 2, 3...)
    and never shared. Frequencies are count/total and sum to one within
    1e-12.
    """

    entries: tuple[RankEntry, ...]
    total_count: int
    #: Each entry's rendered sequence, in order, from a caller that rendered
    #: them already (:meth:`from_counts`); by default they are rendered here.
    _texts: InitVar[Sequence[str] | None] = None

    def __post_init__(self, _texts):
        if not self.entries:
            raise EmptyInputError("rank table has no entries")
        if self.total_count < 1:
            raise ValueError("total_count must be >= 1")
        if sum(e.count for e in self.entries) != self.total_count:
            raise ValueError("entry counts do not sum to total_count")
        seen: set[str] = set()
        previous: RankEntry | None = None
        previous_text = ""
        if _texts is None:
            _texts = [render_sequence(entry.sequence) for entry in self.entries]
        for i, (entry, text) in enumerate(zip(self.entries, _texts), start=1):
            if entry.rank != i:
                raise ValueError(f"ranks must be dense; expected {i}, got {entry.rank}")
            if entry.count < 1:
                raise ValueError(f"rank {i}: count must be >= 1")
            if abs(entry.frequency - entry.count / self.total_count) > _FREQ_SUM_TOL:
                raise ValueError(f"rank {i}: frequency does not match count/total")
            if text in seen:
                raise ValueError(f"duplicate sequence {text!r}")
            seen.add(text)
            if previous is not None:
                if entry.count > previous.count:
                    raise ValueError(f"rank {i}: counts must be non-increasing")
                if entry.count == previous.count and text < previous_text:
                    raise ValueError(f"rank {i}: tie order must follow rendered text")
            previous, previous_text = entry, text
        if abs(math.fsum(e.frequency for e in self.entries) - 1.0) > _FREQ_SUM_TOL:
            raise ValueError("frequencies do not sum to 1")

    @classmethod
    def from_counts(cls, counts: Mapping[ContinentSequence, int]) -> "RankTable":
        """Rank a sequence-to-count mapping."""
        if not counts:
            raise EmptyInputError("no sequences to rank")
        for sequence, count in counts.items():
            if count < 1:
                raise ValueError(f"count for {render_sequence(sequence)!r} must be >= 1")
        total = sum(counts.values())
        ordered = sorted(((render_sequence(sequence), sequence, count)
                          for sequence, count in counts.items()),
                         key=lambda item: (-item[2], item[0]))
        entries = tuple(
            RankEntry(rank, sequence, count, count / total)
            for rank, (_, sequence, count) in enumerate(ordered, start=1)
        )
        return cls(entries, total, [text for text, _, _ in ordered])

    def __len__(self) -> int:
        return len(self.entries)


def build_rank_table(sequences: Iterable[ContinentSequence]) -> RankTable:
    """Count a stream of sequences into a rank table.

    Permutation-invariant in the input; raises
    :class:`~contseq.errors.EmptyInputError` on an empty stream.
    """
    return RankTable.from_counts(Counter(sequences))


@dataclass(frozen=True, slots=True)
class FitResult:
    """A fitted power-law exponent with its standard error.

    ``intercept`` is log10 of the proportionality constant, so the fitted
    curve is ``y = 10**intercept * x**slope`` with ``slope = -exponent`` for
    rank-frequency fits and ``slope = +exponent`` for vocabulary-growth fits.
    ``fit_range`` is the (min, max) of the independent variable actually
    used.
    """

    exponent: float
    uncertainty: float
    intercept: float
    fit_range: tuple[float, float]
    r_squared: float
    n_points: int
    method: str = "ols"


def _ols_loglog(x: np.ndarray, y: np.ndarray):
    """Slope, its standard error, intercept and r² of a least-squares line
    through ``(log10 x, log10 y)`` of three or more points, not all at one x."""
    x, y = np.log10(x), np.log10(y)
    sxx, sxy, _, syy = np.cov(x, y, bias=1).flat
    if sxx == 0.0 or syy == 0.0:
        r = np.float64(np.nan if sxy == 0 else 0.0)
    else:
        r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    slope = sxy / sxx
    stderr = np.sqrt((1 - r ** 2) * syy / sxx / (len(x) - 2))
    return slope, stderr, y.mean() - slope * x.mean(), r ** 2


def fit_zipf(table: RankTable, *, min_count: int = 10,
             min_rank: int | None = None, max_rank: int | None = None,
             method: str = "ols") -> FitResult:
    """Fit the rank-frequency power law and return exponent and uncertainty.

    ``min_count`` drops sparse tail ranks before fitting; ``min_rank`` and
    ``max_rank`` restrict the rank window. With the default ``method="ols"``
    the exponent is the negated slope of a straight-line fit of log frequency
    against log rank, and the uncertainty is the standard error of that
    slope. ``method="mle"`` instead maximizes the discrete power-law
    likelihood over the selected ranks. Raises
    :class:`~contseq.errors.InsufficientDataError` with fewer than three
    usable points.
    """
    counts = np.array([e.count for e in table.entries], dtype=np.float64)
    return _fit_counts(counts, min_count, min_rank, max_rank, method)


def _fit_counts(counts: np.ndarray, min_count: int, min_rank: int | None,
                max_rank: int | None, method: str) -> FitResult:
    """:func:`fit_zipf` on a table's counts in rank order, rank 1 first."""
    ranks = np.arange(1, len(counts) + 1, dtype=np.float64)
    lo = 1 if min_rank is None else min_rank
    hi = len(counts) if max_rank is None else max_rank
    keep = (counts >= min_count) & (lo <= ranks) & (ranks <= hi)
    if (n_points := int(np.count_nonzero(keep))) < 3:
        raise InsufficientDataError(f"need >= 3 usable ranks, have {n_points} "
                                    f"(min_count={min_count}, range={min_rank}:{max_rank})")
    selected, ranks = counts[keep], ranks[keep]
    used_range = (int(ranks[0]), int(ranks[-1]))
    if method == "ols":
        slope, stderr, intercept, r_squared = _ols_loglog(ranks, selected / counts.sum())
        return FitResult(-slope, stderr, intercept, used_range, r_squared, n_points, "ols")
    if method == "mle":
        return _fit_zipf_mle(ranks, selected, used_range)
    raise ValueError(f"unknown fit method {method!r}")


def _fit_zipf_mle(ranks: np.ndarray, counts: np.ndarray, used_range) -> FitResult:
    """Discrete power-law MLE over the selected ranks: P(R) proportional to
    R**-a on the selected ranks, fitted to their counts.

    The negative log-likelihood's slope in ``a``, the data's mean of log R
    minus the law's, only grows with ``a``, so its root is bisected over
    [0.05, 20]; a root outside is InsufficientDataError. The uncertainty is
    the observed Fisher information, 1/sqrt(n * Var_P[log R]) at the root."""
    n = counts.sum()
    log_ranks = np.log(ranks)
    mean_log = float((counts * log_ranks).sum() / n)

    lo, hi = bounds = 0.05, 20.0
    while lo < (a_hat := (lo + hi) / 2) < hi:
        weights = ranks ** (-a_hat)
        if mean_log * weights.sum() < weights @ log_ranks:  # the slope is negative
            lo = a_hat
        else:
            hi = a_hat
    if lo == bounds[0] or hi == bounds[1]:  # the slope kept one sign over the interval
        raise InsufficientDataError("no likelihood maximum for an exponent in [0.05, 20]")
    weights = ranks ** (-a_hat)
    p = weights / weights.sum()
    variance = float(p @ (log_ranks - p @ log_ranks) ** 2)
    uncertainty = 1.0 / math.sqrt(n * variance) if variance > 0 else float("inf")
    # diagnostics relative to the fitted discrete law, on log-log axes
    constant = 1.0 / float(weights.sum())
    predicted = np.log10(constant) - a_hat * np.log10(ranks)
    observed = np.log10(counts / n)
    ss_res = float(((observed - predicted) ** 2).sum())
    ss_tot = float(((observed - observed.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(a_hat, uncertainty, math.log10(constant), used_range,
                     r_squared, len(ranks), "mle")


#: Rank-window battery swept by :func:`zipf_sensitivity`.
SENSITIVITY_STARTS = (1, 2, 3, 4, 5, 6)
SENSITIVITY_ENDS = (10, 12, 15, 18, 20, 50, 100, 200, 500, 1000, None)


def zipf_sensitivity(table: RankTable, *, min_count: int = 10,
                     method: str = "ols") -> list[FitResult]:
    """Fit across the battery of rank windows to expose range sensitivity.

    Windows with fewer than three usable points are skipped, as are windows
    that collapse onto an already-reported realized range.
    """
    results: list[FitResult] = []
    seen: set[tuple[float, float]] = set()
    counts = np.array([e.count for e in table.entries], dtype=np.float64)
    for start in SENSITIVITY_STARTS:
        for end in SENSITIVITY_ENDS:
            try:
                fit = _fit_counts(counts, min_count, start, end, method)
            except InsufficientDataError:
                continue
            if fit.fit_range in seen:
                continue
            seen.add(fit.fit_range)
            results.append(fit)
    return results


@dataclass(frozen=True, slots=True)
class HeapPoint:
    """One sampled point of the vocabulary-growth curve.

    ``v`` is the distinct-sequence count of the first repeat; ``v_mean`` and
    ``v_sd`` aggregate all repeats (sample standard deviation, 0.0 for a
    single repeat).
    """

    n: int
    v: int
    repeats: int
    v_mean: float
    v_sd: float

    def __post_init__(self):
        if self.n < 1 or self.repeats < 1:
            raise ValueError("n and repeats must be >= 1")
        if not 1 <= self.v <= self.n:
            raise ValueError("v must be in [1, n]")
        if not 1 <= self.v_mean <= self.n:
            raise ValueError("v_mean must be in [1, n]")
        if not 0 <= self.v_sd < math.inf:
            raise ValueError("v_sd must be finite and >= 0")


@dataclass(frozen=True)
class HeapCurve:
    points: tuple[HeapPoint, ...]


def default_sample_sizes(corpus_size: int, points: int = 20) -> list[int]:
    """Log-spaced sample sizes between ``min(100, corpus_size)`` and the
    corpus size (deduplicated, so small corpora yield fewer points)."""
    if corpus_size < 1:
        raise ValueError("corpus must be non-empty")
    raw = np.geomspace(min(100, corpus_size), corpus_size, points)
    return sorted(set(int(round(v)) for v in raw))


def _encode_corpus(corpus: Sequence) -> np.ndarray:
    if isinstance(corpus, np.ndarray) and corpus.dtype.kind in "iu" and (
            not corpus.size or 0 <= corpus.min() and corpus.max() < corpus.size):
        return corpus
    codes: dict = {}
    return np.fromiter((codes.setdefault(item, len(codes)) for item in corpus),
                       dtype=np.int64, count=len(corpus))


def _distinct(codes: np.ndarray, span: int) -> int:
    """The number of distinct codes, each in ``[0, span)``."""
    seen = np.zeros(span, dtype=bool)  # a flag per code: no sort, no cast of the sample
    seen[codes] = True
    return int(np.count_nonzero(seen))


def heap_curve(corpus: Sequence, sample_sizes: Sequence[int] | None = None,
               repeats: int = 5, seed: int = 0) -> HeapCurve:
    """Sample the vocabulary-growth curve of an indexed sequence corpus.

    ``corpus`` holds one hashable canonical sequence identifier per
    publication (rendered strings, :class:`ContinentSequence` values, or an
    integer array). For each sample size N, ``repeats`` uniform subsets of N
    publications are drawn without replacement and their distinct sequences
    counted. Each (size, repeat) pair runs on its own PCG64 generator seeded
    by ``SeedSequence((seed, size_index, repeat_index))``, so the curve is
    bit-reproducible and independent of execution order. At N equal to the
    corpus size every subset is the whole corpus, so that point draws nothing.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    codes = _encode_corpus(corpus)
    size, span = len(codes), int(codes.max(initial=0)) + 1
    if sample_sizes is None:
        sample_sizes = default_sample_sizes(size)
    points = []
    for size_index, n in enumerate(sample_sizes):
        if not 1 <= n <= size:
            raise ValueError(f"sample size {n} outside [1, {size}]")
        if n == size:  # every draw is the whole corpus, so none is made
            values = [_distinct(codes, span)] * repeats
        else:
            values = []
            for repeat_index in range(repeats):
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence((seed, size_index, repeat_index))))
                values.append(_distinct(codes[rng.choice(size, size=n, replace=False)], span))
        arr = np.array(values, dtype=np.float64)
        sd = float(arr.std(ddof=1)) if repeats > 1 else 0.0
        points.append(HeapPoint(int(n), values[0], repeats, float(arr.mean()), sd))
    return HeapCurve(tuple(points))


def fit_heap(curve: HeapCurve) -> FitResult:
    """Fit V(N) as a power law of N; the exponent is the log-log slope. Needs
    three or more points, not all at one log N (else InsufficientDataError)."""
    if len(curve.points) < 3:
        raise InsufficientDataError(f"need >= 3 curve points, have {len(curve.points)}")
    sizes = np.array([p.n for p in curve.points], dtype=np.float64)
    if (distinct := len(np.unique(np.log10(sizes)))) < 2:
        raise InsufficientDataError(f"need >= 2 distinct sample sizes, have {distinct}")
    means = np.array([p.v_mean for p in curve.points], dtype=np.float64)
    slope, stderr, intercept, r_squared = _ols_loglog(sizes, means)
    return FitResult(slope, stderr, intercept,
                     (int(sizes.min()), int(sizes.max())), r_squared,
                     len(curve.points), "ols")


# ---------------------------------------------------------------------------
# file formats

RANK_FILE_HEADER = "rank,sequence,count,percent"
HEAP_FILE_HEADER = "n,v,repeats,v_mean,v_sd"


def write_rank_file(table: RankTable, sink: Sink) -> None:
    """Write the ``rank,sequence,count,percent`` file (sequence quoted,
    percent with two decimals)."""
    with writing(sink) as handle:
        handle.write(RANK_FILE_HEADER + "\n")
        for entry in table.entries:
            text = render_sequence(entry.sequence)
            handle.write(f'{entry.rank},"{text}",{entry.count},{100.0 * entry.frequency:.2f}\n')


def _rank_row(rank: str, text: str, count: str, _: str) -> tuple[int, ContinentSequence, int]:
    rank, sequence, count = int(rank), parse_sequence(text), int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return rank, sequence, count


def read_rank_file(source: Source) -> RankTable:
    """Read a rank file back into a validated :class:`RankTable`.

    The file must carry the documented header and satisfy the rank-table
    invariants (dense ranks, non-increasing counts, canonical tie order);
    the percent column is redundant and ignored in favor of the counts.
    """
    parsed = read_csv(source, RANK_FILE_HEADER, _rank_row, empty=EmptyInputError)
    if not parsed:
        raise EmptyInputError("rank file has no entries")
    total = sum(count for _, _, count in parsed)
    entries = tuple(RankEntry(rank, sequence, count, count / total)
                    for rank, sequence, count in parsed)
    try:
        return RankTable(entries, total)
    except ValueError as exc:
        raise ValueError(named(source, exc)) from None


def write_heap_file(curve: HeapCurve, sink: Sink) -> None:
    with writing(sink) as handle:
        handle.write(HEAP_FILE_HEADER + "\n")
        for p in curve.points:
            handle.write(f"{p.n},{p.v},{p.repeats},{p.v_mean:.6f},{p.v_sd:.6f}\n")


def _heap_point(n: str, v: str, repeats: str, mean: str, sd: str) -> HeapPoint:
    return HeapPoint(int(n), int(v), int(repeats), float(mean), float(sd))


def read_heap_file(source: Source) -> HeapCurve:
    points = read_csv(source, HEAP_FILE_HEADER, _heap_point, empty=EmptyInputError)
    if not points:
        raise EmptyInputError("heap file has no points")
    return HeapCurve(tuple(points))


def format_fit_report(fit: FitResult, sensitivity: Sequence[FitResult] = ()) -> str:
    """Structured-text fit report: one ``key value`` line per field, plus one
    ``sensitivity_range`` line per swept window."""
    lines = [
        f"method {fit.method}",
        f"exponent {fit.exponent:.6f}",
        f"uncertainty {fit.uncertainty:.6f}",
        f"intercept {fit.intercept:.6f}",
        f"fit_range {fit.fit_range[0]:g} {fit.fit_range[1]:g}",
        f"points {fit.n_points}",
        f"r_squared {fit.r_squared:.6f}",
    ]
    for s in sensitivity:
        lines.append(
            f"sensitivity_range {s.fit_range[0]:g} {s.fit_range[1]:g} "
            f"exponent {s.exponent:.6f} uncertainty {s.uncertainty:.6f} "
            f"r_squared {s.r_squared:.6f}")
    return "\n".join(lines) + "\n"

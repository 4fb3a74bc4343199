"""Feature computation and matrix assembly.

Covers the lookup-style features (concreteness, corpus frequency and
part-of-speech ratios, etymology fractions, mean word length) and the
join that turns all per-color maps into one matrix: colors missing more
than half of their cells are dropped and reported, the remaining holes
are filled with the column median, and rows keep seed-list order.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import DataError
from .lexicon import TSV, normalize_term, read_tsv
from .stats import FEATURE_COLUMNS

ETYMOLOGY_PROCESSES = ("inheritance", "derivation", "suffix-derivation", "cognate", "borrowing")

_VALID_PROCESSES = set(ETYMOLOGY_PROCESSES) | {"none"}


def _rating(cell: str) -> float:
    try:
        rating = float(cell)
    except ValueError:
        raise ValueError(f"bad rating {cell!r}") from None
    if not 1.0 <= rating <= 5.0:
        raise ValueError(f"concreteness rating out of range: {rating}")
    return rating


#: ``word<TAB>rating``, a rating on the 1..5 scale
CONCRETENESS = TSV({"word": normalize_term, "rating": _rating}, 1, None, "refuse", "concreteness_repeats")


class ConcretenessLexicon:
    """Word (by ``normalize_term``) -> human concreteness rating, 1..5."""

    def __init__(self, ratings: dict[str, float]):
        self._ratings = ratings

    @classmethod
    def load(cls, path, counts: dict | None = None) -> "ConcretenessLexicon":
        return cls(dict(read_tsv(path, CONCRETENESS, counts)[0]))

    def rating(self, word: str) -> float | None:
        return self._ratings.get(normalize_term(word))


def word_concreteness(color: str, lex: ConcretenessLexicon) -> float | None:
    """Direct rating lookup; None when the term is unrated."""
    return lex.rating(color)


def weighted_concreteness(weights: dict[str, int], lex: ConcretenessLexicon) -> float | None:
    """Weighted mean rating over rated senses; None if none is rated.

    The products are summed in sorted sense order, so the last bit of the
    sum does not depend on the order in which ``weights`` was filled (set
    iteration order varies with the hash seed)."""
    num = 0.0
    den = 0
    for sense in sorted(weights):
        r = lex.rating(sense)
        if r is None:
            continue
        weight = weights[sense]
        num += weight * r
        den += weight
    return num / den if den else None


def translation_concreteness(rows, lex: ConcretenessLexicon) -> float | None:
    """Mean concreteness of a color's back-translations, given as
    ``(language, back-translations)`` for each of its round-trip rows,
    each sense weighted by the number of languages whose round-trip set
    contains it."""
    attested = {(lang, sense) for lang, senses in rows for sense in senses}
    weights = Counter(map(itemgetter(1), attested))
    return weighted_concreteness(weights, lex)


def _count(cell) -> int:
    """A non-negative integer small enough to become a float, as the
    features turn counts into frequencies and fractions."""
    try:
        count = int(cell)
        float(count)
    except OverflowError:
        raise ValueError("count too large for a float") from None
    except ValueError:
        raise ValueError("non-integer count") from None
    if count < 0:
        raise ValueError("negative count")
    return count


#: ``word<TAB>total<TAB>adj<TAB>noun``, for the n-gram corpus and the treebank
NGRAM = TSV({"word": normalize_term, "total": _count, "adj": _count, "noun": _count}, 1, None, "refuse", "ngram_repeats")
TREEBANK = NGRAM._replace(repeated="treebank_repeats")


class CorpusSummary:
    """Word (by ``normalize_term``) -> total/adjective/noun tallies in one tagged corpus."""

    def __init__(self, rows: dict[str, tuple[int, int, int]]):
        self._rows = rows

    @classmethod
    def load(cls, path, counts: dict | None = None, spec: TSV = NGRAM) -> "CorpusSummary":
        rows = {}
        cells, numbers = read_tsv(path, spec, counts)
        for lineno, (word, *tallies) in zip(numbers, cells):
            total, adj, noun = rows[word] = tuple(tallies)
            if adj + noun > total:
                raise DataError(f"{path}:{lineno}: inconsistent counts for {word!r}")
        return cls(rows)

    def lookup(self, word: str) -> tuple[int, int, int] | None:
        return self._rows.get(normalize_term(word))


def pos_features(color: str, corpus: CorpusSummary) -> tuple[float | None, float | None]:
    """(total frequency, adjectival share of adj+noun tags).

    The share is None when the word carries no adjective or noun tags;
    both values are None when the word is absent.
    """
    row = corpus.lookup(color)
    if row is None:
        return None, None
    total, adj, noun = row
    pct = adj / (adj + noun) if adj + noun > 0 else None
    return float(total), pct


def _process(cell: str) -> str:
    process = cell.strip()
    if process not in _VALID_PROCESSES:
        raise ValueError(f"unknown process {process!r}")
    return process


#: ``color<TAB>process<TAB>count<TAB>total``, a color's counts of a process summed
ETYMOLOGY = TSV({"color": normalize_term, "process": _process, "count": _count, "total": _count}, 2, None, "all")


class EtymologyTable:
    """Per-color counts of word-formation processes, with totals."""

    def __init__(self):
        self._counts: dict[tuple[str, str], int] = {}
        self._totals: dict[str, int] = {}

    @classmethod
    def load(cls, path, counts: dict | None = None) -> "EtymologyTable":
        """Read as ``ETYMOLOGY`` declares.  Raises DataError naming the line
        for a color's second total and a summed count too large for a
        float, and the color for suffix-derivation exceeding derivation
        (suffix cases are a subset of derivation cases)."""
        table = cls()
        rows, numbers = read_tsv(path, ETYMOLOGY, counts)
        for lineno, row in zip(numbers, rows):
            try:
                _count(table.add(*row))
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
        for color in table._totals:
            if table.count(color, "suffix-derivation") > table.count(color, "derivation"):
                raise DataError(f"{path}: suffix-derivation exceeds derivation for color {color!r}")
        return table

    def add(self, color: str, process: str, count: int, total: int) -> int:
        """Add to the color's count of ``process`` and return the sum;
        raises ValueError for a total other than the color's earlier one."""
        color = normalize_term(color)
        if self._totals.setdefault(color, total) != total:
            raise ValueError(f"conflicting totals for color {color!r}")
        key = (color, process)
        self._counts[key] = self._counts.get(key, 0) + count
        return self._counts[key]

    def count(self, color: str, process: str) -> int:
        return self._counts.get((normalize_term(color), process), 0)

    def total(self, color: str) -> int:
        return self._totals.get(normalize_term(color), 0)


def etymology_features(
    color: str, table: EtymologyTable, total_foreign_words: int
) -> dict[str, float | None]:
    """Per-process fraction of the color's recorded foreign words.

    All five fractions are None when the total is zero.
    """
    if total_foreign_words <= 0:
        return {p: None for p in ETYMOLOGY_PROCESSES}
    return {
        p: table.count(color, p) / total_foreign_words for p in ETYMOLOGY_PROCESSES
    }


def word_length_feature(color: str, translations) -> float | None:
    """Mean Unicode-scalar length over all of the color's foreign
    translations (every (language, word) pair counted once); None when
    there is none."""
    pairs = set(translations)
    if not pairs:
        return None
    return sum(len(word) for _, word in pairs) / len(pairs)


@dataclass
class FeatureMatrix:
    """Colors x features with an explicit missing mask.

    ``values`` are fully imputed; ``missing`` marks the cells that were
    filled with the column median.
    """

    colors: list[str]
    columns: tuple[str, ...]
    values: dict[str, list[float]]  # column -> per-color values
    missing: dict[str, list[bool]] = field(default_factory=dict)
    dropped: list[tuple[str, int]] = field(default_factory=list)  # (color, n_missing)

    def column(self, name: str) -> list[float]:
        return list(self.values[name])

    def with_column(self, name: str, values) -> "FeatureMatrix":
        """A copy with column ``name`` set to ``values``, its missing (None)
        cells filled and marked as ``assemble_feature_matrix`` does."""
        if name not in self.columns:
            raise ValueError(f"unknown column {name!r}")
        if len(values) != len(self.colors):
            raise ValueError("column length mismatch")
        new_values = {c: list(v) for c, v in self.values.items()}
        missing = {c: list(m) for c, m in self.missing.items()}
        new_values[name], missing[name] = _median_filled(name, values)
        return FeatureMatrix(
            colors=list(self.colors),
            columns=self.columns,
            values=new_values,
            missing=missing,
            dropped=list(self.dropped),
        )


def _median_filled(name: str, raw) -> tuple[list[float], list[bool]]:
    """Column ``name``'s values with each missing (None) cell filled with
    the median of the present ones, and the mask of the filled cells."""
    present = [v for v in raw if v is not None]
    if not present:
        raise DataError(f"feature column {name!r} is entirely missing")
    med = float(statistics.median(present))
    return [med if v is None else float(v) for v in raw], [v is None for v in raw]


def assemble_feature_matrix(
    feature_maps: dict[str, dict[str, float | None]],
    colors,
    columns=FEATURE_COLUMNS,
    drop_threshold: float = 0.5,
) -> FeatureMatrix:
    """Join per-color feature maps into a matrix.

    A color missing strictly more than ``drop_threshold`` of the columns
    is dropped (and reported on the result); remaining missing cells are
    imputed with the column median over present values.  Row order
    follows the input color order.  Fewer than two surviving colors is an
    error, since no pairwise statistic is defined then.
    """
    columns = tuple(columns)
    unknown = set(feature_maps) - set(columns)
    if unknown:
        raise ValueError(f"unknown feature columns: {sorted(unknown)}")
    absent = set(columns) - set(feature_maps)
    if absent:
        raise ValueError(f"feature maps not provided for: {sorted(absent)}")

    colors = list(colors)
    survivors = []
    dropped = []
    for color in colors:
        n_missing = sum(1 for col in columns if feature_maps[col].get(color) is None)
        if n_missing > drop_threshold * len(columns):
            dropped.append((color, n_missing))
        else:
            survivors.append(color)
    if len(survivors) < 2:
        raise DataError("fewer than two colors survive the missing-value filter")

    values: dict[str, list[float]] = {}
    missing: dict[str, list[bool]] = {}
    for col in columns:
        values[col], missing[col] = _median_filled(col, [feature_maps[col].get(c) for c in survivors])

    return FeatureMatrix(
        colors=survivors,
        columns=columns,
        values=values,
        missing=missing,
        dropped=dropped,
    )

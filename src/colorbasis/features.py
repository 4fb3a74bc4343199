"""Feature computation and matrix assembly.

Covers the lookup-style features (concreteness, corpus frequency and
part-of-speech ratios, etymology fractions, mean word length) and the
join that turns all per-color maps into one matrix: colors missing more
than half of their cells are dropped and reported, the remaining holes
are filled with the column median, and rows keep seed-list order.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from .errors import DataError
from .lexicon import normalize_term, numbered_lines
from .stats import FEATURE_COLUMNS

ETYMOLOGY_PROCESSES = (
    "inheritance",
    "derivation",
    "suffix-derivation",
    "cognate",
    "borrowing",
)

_VALID_PROCESSES = set(ETYMOLOGY_PROCESSES) | {"none"}


class ConcretenessLexicon:
    """Word -> human concreteness rating on the 1..5 scale."""

    def __init__(self, ratings: dict[str, float]):
        for w, r in ratings.items():
            if not 1.0 <= r <= 5.0:
                raise DataError(f"concreteness rating out of range for {w!r}: {r}")
        self._ratings = {normalize_term(w): float(r) for w, r in ratings.items()}

    @classmethod
    def load(cls, path) -> "ConcretenessLexicon":
        ratings = {}
        for lineno, line in numbered_lines(path):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: expected word<TAB>rating")
            try:
                ratings[parts[0]] = float(parts[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad rating {parts[1]!r}")
        return cls(ratings)

    def rating(self, word: str) -> float | None:
        return self._ratings.get(normalize_term(word))


def word_concreteness(color: str, lex: ConcretenessLexicon) -> float | None:
    """Direct rating lookup; None when the term is unrated."""
    return lex.rating(color)


def weighted_concreteness(weights: dict[str, int], lex: ConcretenessLexicon) -> float | None:
    """Weighted mean rating over rated senses; None if none is rated."""
    num = 0.0
    den = 0
    for sense, weight in weights.items():
        r = lex.rating(sense)
        if r is None:
            continue
        num += weight * r
        den += weight
    return num / den if den else None


def translation_concreteness(color: str, records, lex: ConcretenessLexicon) -> float | None:
    """Mean concreteness of a color's back-translations, each weighted by
    the number of languages whose round-trip set contains it."""
    by_lang: dict[str, set[str]] = {}
    for rec in records:
        by_lang.setdefault(rec.language, set()).update(rec.back_translations)
    weights: dict[str, int] = {}
    for senses in by_lang.values():
        for sense in senses:
            weights[sense] = weights.get(sense, 0) + 1
    return weighted_concreteness(weights, lex)


def _counts(path, lineno, cells) -> tuple[int, ...]:
    """``cells`` as integers, each small enough to become a float, as the
    features turn counts into frequencies and fractions."""
    try:
        counts = tuple(int(cell) for cell in cells)
        for count in counts:
            float(count)
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-integer count") from None
    except OverflowError:
        raise DataError(f"{path}:{lineno}: count too large for a float") from None
    return counts


class CorpusSummary:
    """Per-word total/adjective/noun tallies from one tagged corpus."""

    def __init__(self, rows: dict[str, tuple[int, int, int]]):
        self._rows = {}
        for word, (total, adj, noun) in rows.items():
            if min(total, adj, noun) < 0 or adj + noun > total:
                raise DataError(f"inconsistent counts for {word!r}")
            self._rows[normalize_term(word)] = (total, adj, noun)

    @classmethod
    def load(cls, path) -> "CorpusSummary":
        rows = {}
        for lineno, line in numbered_lines(path):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) < 4:
                raise DataError(f"{path}:{lineno}: expected word<TAB>total<TAB>adj<TAB>noun")
            rows[parts[0]] = _counts(path, lineno, parts[1:4])
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


class EtymologyTable:
    """Per-color counts of word-formation processes, with totals."""

    def __init__(self):
        self._counts: dict[tuple[str, str], int] = {}
        self._totals: dict[str, int] = {}

    @classmethod
    def load(cls, path) -> "EtymologyTable":
        table = cls()
        for lineno, line in numbered_lines(path):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) < 4:
                raise DataError(
                    f"{path}:{lineno}: expected color<TAB>process<TAB>count<TAB>total"
                )
            color = normalize_term(parts[0])
            process = parts[1].strip()
            if process not in _VALID_PROCESSES:
                raise DataError(f"{path}:{lineno}: unknown process {process!r}")
            count, total = _counts(path, lineno, parts[2:4])
            if count < 0 or total < 0:
                raise DataError(f"{path}:{lineno}: negative count")
            table.add(color, process, count, total)
            # the color's count of this process, summed over its lines
            _counts(path, lineno, [table.count(color, process)])
        table.validate()
        return table

    def add(self, color: str, process: str, count: int, total: int):
        color = normalize_term(color)
        key = (color, process)
        prior_total = self._totals.get(color)
        if prior_total is not None and prior_total != total:
            raise DataError(f"conflicting totals for color {color!r}")
        self._counts[key] = self._counts.get(key, 0) + count
        self._totals[color] = total

    def validate(self):
        # suffix cases are a subset of derivation cases
        for color in self._totals:
            suffix = self._counts.get((color, "suffix-derivation"), 0)
            deriv = self._counts.get((color, "derivation"), 0)
            if suffix > deriv:
                raise DataError(
                    f"suffix-derivation exceeds derivation for color {color!r}"
                )

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
    pairs = sorted(set(translations))
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
        if name not in self.columns:
            raise ValueError(f"unknown column {name!r}")
        if len(values) != len(self.colors):
            raise ValueError("column length mismatch")
        new_values = {c: list(v) for c, v in self.values.items()}
        new_values[name] = [float(v) for v in values]
        return FeatureMatrix(
            colors=list(self.colors),
            columns=self.columns,
            values=new_values,
            missing={c: list(m) for c, m in self.missing.items()},
            dropped=list(self.dropped),
        )


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
        raw = [feature_maps[col].get(c) for c in survivors]
        present = [v for v in raw if v is not None]
        if not present:
            raise DataError(f"feature column {col!r} is entirely missing")
        med = statistics.median(present)
        values[col] = [float(v) if v is not None else float(med) for v in raw]
        missing[col] = [v is None for v in raw]

    return FeatureMatrix(
        colors=survivors,
        columns=columns,
        values=values,
        missing=missing,
        dropped=dropped,
    )

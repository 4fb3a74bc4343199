"""Bilingual dictionary ingestion and round-trip translation lookup.

The lexicon is a set of directed edges (language, foreign word, English
gloss) loaded from a headerless TSV.  Forward lookup maps an English term
to the foreign words glossed by it within one language; backward lookup
returns every gloss attached to a (language, word) pair.  Chaining the
two yields the round-trip sense sets that drive most downstream features.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import chain
from operator import itemgetter, methodcaller
from typing import NamedTuple

from .errors import DataError, EmptyLexiconError
from .segmentation import RESERVED_SENTINELS

log = logging.getLogger(__name__)


def nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


def normalize_term(s: str) -> str:
    """An English term (gloss, seed color, table key) as it is compared
    everywhere: stripped, lowercased, then NFC-normalized.  Lowercasing
    first makes the rule idempotent; NFC first is not (``J\u030c``
    would lowercase to ``j\u030c``, which NFC then composes to
    ``\u01f0``)."""
    return unicodedata.normalize("NFC", s.strip().lower())


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, a byte-order mark at its start
    dropped.  Line ends are read in universal-newline mode and lines end
    at ``\n`` only, so a field may hold any other line separator (U+2028,
    ``\x0c``, ...).  Every line-oriented input is read through here.
    Raises DataError naming ``path:line`` for the first line that is not
    valid UTF-8."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        # the bad line is the first that holds a byte the decoder escapes
        # (U+DC80 to U+DCFF)
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            number = next(n for n, line in enumerate(fh, 1) if re.search("[\udc80-\udcff]", line))
        raise DataError(f"{path}:{number}: not valid UTF-8") from None
    # the empty text after a final line end is no line
    return text.removesuffix("\n").split("\n") if text else []


class TSV(NamedTuple):
    """How ``read_tsv`` reads one tab-separated input.  ``columns`` names
    the leading cells of a row, each with the parser that returns its
    value or raises ValueError saying what is wrong (``None`` keeps the
    text); later cells are ignored.  The first ``key`` values are the
    row's key.  A row with fewer cells or a blank one is skipped and
    counted under ``skipped``, or refused if that is None.  A row whose
    key an earlier row has is, by ``repeat``, refused if its value differs
    and else dropped and counted under ``repeated`` (``"refuse"``), dropped
    and counted (``"first"``), or kept for the table to merge (``"all"``)."""

    columns: dict[str, Callable[[str], object] | None]
    key: int
    skipped: str | None
    repeat: str
    repeated: str | None = None


def read_tsv(path, spec: TSV, counts: dict | None = None) -> tuple[list[list], list[int]]:
    """The rows of the TSV at ``path`` that ``spec`` keeps, each the list
    of its cells parsed, and their line numbers; blank lines are passed
    over.  Sets ``spec``'s counts of rows skipped and repeats dropped in
    ``counts``.  Raises DataError naming ``path:line`` for a row it
    refuses, and the earlier line as well for a repeated key."""
    counts = {} if counts is None else counts
    counts.update((name, 0) for name in (spec.skipped, spec.repeated) if name)
    width = len(spec.columns)
    parsers = [(i, parse) for i, parse in enumerate(spec.columns.values()) if parse]
    split = list(map(methodcaller("split", "\t", width), read_lines(path)))
    # few files hold a blank cell (or line), so a row's cells are checked
    # one by one only when the file's cells, checked at once, hold one
    blank = not all(map(str.strip, chain.from_iterable(split)))
    rows, numbers = [], []
    seen: dict[tuple, tuple[int, list]] = {}
    for lineno, cells in enumerate(split, 1):
        if len(cells) < width or blank and not all(map(str.strip, cells[:width])):
            if not any(map(str.strip, cells)):  # a blank line
                continue
            if spec.skipped is None:
                raise DataError(f"{path}:{lineno}: expected {'<TAB>'.join(spec.columns)}")
            counts[spec.skipped] += 1
            log.warning("%s:%d: malformed row skipped", path, lineno)
            continue
        del cells[width:]
        try:
            for i, parse in parsers:
                cells[i] = parse(cells[i])
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
        if spec.repeat != "all":
            first, earlier = seen.setdefault(tuple(cells[: spec.key]), (lineno, cells))
            if first != lineno:
                if spec.repeat == "refuse" and earlier != cells:
                    key = " ".join(map(repr, cells[: spec.key]))
                    raise DataError(f"{path}:{lineno}: {key} repeats line {first} with another value")
                counts[spec.repeated] += 1
                continue
        rows.append(cells)
        numbers.append(lineno)
    return rows, numbers


class TranslationTable:
    """Immutable-after-load store of (language, foreign word, gloss) edges.

    Glosses are normalized by ``normalize_term``; foreign words are only
    stripped and NFC-normalized, keeping their case since capitalization
    can be contrastive in some scripts.

    The store is one map, language -> foreign word -> sorted glosses, with
    the languages and each language's words in sorted order, so that
    walking it gives the edges sorted.  All query methods are read-only
    and safe to call concurrently.
    """

    def __init__(self, glosses: dict[str, dict[str, tuple[str, ...]]]):
        self._glosses = glosses

    @classmethod
    def from_sorted(cls, entries) -> "TranslationTable":
        """The table of ``entries``, distinct normalized (language, word,
        gloss) edges given in sorted order, built as they stream: the
        glosses of a word come together and in order."""
        glosses: dict[str, dict[str, tuple[str, ...]]] = {}
        words: dict[str, tuple[str, ...]] = {}
        # most words have one gloss, and the table holds far fewer glosses
        # than words: the words of one gloss share one 1-tuple
        single: dict[str, tuple[str]] = {}
        last_lang = last_word = None
        for lang, word, gloss in entries:
            if lang != last_lang:
                words = glosses[lang] = {}
                last_lang, last_word = lang, None
            if word == last_word:
                words[word] += (gloss,)
            else:
                words[word] = single.get(gloss) or single.setdefault(gloss, (gloss,))
                last_word = word
        return cls(glosses)

    @classmethod
    def from_rows(cls, rows) -> "TranslationTable":
        # a lexicon holds few distinct languages and glosses, so each of
        # them is normalized once
        langs = cache(lambda lang: nfc(lang.strip()))
        glosses = cache(normalize_term)
        normalized = set()
        for lang, word, gloss in rows:
            lang = langs(lang)
            word = nfc(word.strip())
            gloss = glosses(gloss)
            if lang and word and gloss:
                normalized.add((lang, word, gloss))
        return cls.from_sorted(sorted(normalized))

    def __iter__(self):
        """The (language, word, gloss) edges, in sorted order."""
        for lang, words in self._glosses.items():
            for word, glosses in words.items():
                for gloss in glosses:
                    yield lang, word, gloss

    @cached_property
    def _forward(self) -> dict[tuple[str, str], list[str]]:
        """(language, gloss) -> its foreign words, in sorted order (as the
        words are walked), built on first use: only ``translate`` and
        ``round_trip`` read it, and only the ingest stage translates."""
        forward: dict[tuple[str, str], list[str]] = {}
        for lang, words in self._glosses.items():
            for word, glosses in words.items():
                for gloss in glosses:
                    forward.setdefault((lang, gloss), []).append(word)
        return forward

    def languages(self) -> list[str]:
        return list(self._glosses)

    def words_of(self, lang: str) -> set[str]:
        return set(self._glosses.get(lang, ()))

    def glossary(self, lang: str) -> dict[str, tuple[str, ...]]:
        """The words of ``lang``, in sorted order, each with its sorted
        glosses; empty for a language the table does not hold.  The
        table's own map: read it, never change it."""
        return self._glosses.get(lang, {})

    def glosses(self, lang: str, word: str) -> tuple[str, ...]:
        """The sorted glosses of (lang, word), which must be normalized
        already; empty for a pair the table does not hold."""
        words = self._glosses.get(lang)
        return words.get(word, ()) if words else ()


_SENTINELS = frozenset(RESERVED_SENTINELS)


#: ``language<TAB>foreign_word<TAB>english_gloss``, kept as it stands for
#: ``TranslationTable.from_rows`` to normalize and merge
LEXICON = TSV(dict.fromkeys(("language", "foreign_word", "english_gloss")), 3, "lexicon_rows_skipped", "all")


def load_lexicon(path, counts: dict | None = None) -> TranslationTable:
    """Load a lexicon TSV as ``LEXICON`` declares it: rows with fewer than
    three non-blank fields are skipped and counted.  Raises DataError for
    a foreign word holding a reserved word-boundary sentinel, and
    EmptyLexiconError when no valid row remains."""
    rows, numbers = read_tsv(path, LEXICON, counts)
    # the foreign words are searched at once, and one at a time only to
    # name the first that holds a sentinel
    words = "".join(map(itemgetter(1), rows))
    if any(map(words.__contains__, RESERVED_SENTINELS)):
        lineno, word = next((n, row[1]) for n, row in zip(numbers, rows) if not _SENTINELS.isdisjoint(row[1]))
        raise DataError(f"{path}:{lineno}: foreign word {word!r} contains a reserved word-boundary character")
    table = TranslationTable.from_rows(rows)
    if not table.languages():
        raise EmptyLexiconError(f"{path}: no valid lexicon rows")
    return table


def translate(table: TranslationTable, color: str, lang: str) -> set[str]:
    """All foreign words of ``lang`` glossed as ``color`` (possibly empty)."""
    return set(table._forward.get((lang, normalize_term(color)), ()))


def back_translate(table: TranslationTable, word: str, lang: str) -> set[str]:
    """All English glosses attached to (lang, word) (possibly empty)."""
    return set(table.glosses(lang, nfc(word.strip())))


@dataclass(frozen=True)
class ColorConcept:
    """An English seed color term with its basicness status.

    ``bk_stage`` is the acquisition stage, present exactly for basic
    terms.
    """

    term: str
    is_basic: bool
    bk_stage: int | None = None

    def __post_init__(self):
        if self.is_basic and self.bk_stage is None:
            raise ValueError(f"basic color {self.term!r} needs a stage")
        if not self.is_basic and self.bk_stage is not None:
            raise ValueError(f"secondary color {self.term!r} must not carry a stage")
        if self.bk_stage is not None and not 1 <= self.bk_stage <= 7:
            raise ValueError(f"stage out of range for {self.term!r}")


def load_seeds(path) -> list[ColorConcept]:
    """Parse the seed color list: one term per line, ``*`` marks basic
    terms and ``@N`` appends the acquisition stage (e.g. ``white*@1``)."""
    concepts: list[ColorConcept] = []
    seen = set()
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        stage = None
        if "@" in line:
            line, _, stage_str = line.rpartition("@")
            try:
                stage = int(stage_str)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad stage {stage_str!r}")
        is_basic = line.endswith("*")
        if is_basic:
            line = line[:-1]
        term = normalize_term(line)
        if not term:
            raise DataError(f"{path}:{lineno}: empty color term")
        if term in seen:
            raise DataError(f"{path}:{lineno}: duplicate color term {term!r}")
        seen.add(term)
        try:
            concepts.append(ColorConcept(term=term, is_basic=is_basic, bk_stage=stage))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    basic = sum(1 for c in concepts if c.is_basic)
    if basic != 11:
        raise DataError(f"{path}: expected 11 basic colors, found {basic}")
    return concepts


class RoundTripRecord(NamedTuple):
    """One forward edge plus everything it leads back to.

    ``back_translations`` is every gloss of ``foreign_word`` within the
    same language, sorted: the table's own tuple, which
    ``cache/roundtrips.csv`` holds as a JSON list.
    """

    color: str
    language: str
    foreign_word: str
    back_translations: tuple[str, ...]


# a RoundTripRecord from its four fields, without a Python-level call
_new_record = partial(tuple.__new__, RoundTripRecord)


def round_trip(table: TranslationTable, color: str, lang: str) -> list[RoundTripRecord]:
    """Round-trip records for one color through one language.

    One record per foreign word, ordered by foreign word; the union of
    all back-translation sets is the color's sense set through ``lang``.
    """
    words = table._forward.get((lang, normalize_term(color)))
    if not words:
        return []
    glossary = table.glossary(lang)
    return [_new_record((color, lang, word, glossary[word])) for word in words]

"""Compound detection by exhaustive three-way splitting and cross-lingual
recipe mining.

A word is split into (left, glue, right) at every boundary pair; the glue
may be empty or arbitrarily long.  Splits whose outer components both
exist in the same-language lexicon (the right side may instead be a
discovered derivational affix) become candidates.  Candidates are grouped
into recipes, concept pairs such as (dark, red), supported by however
many distinct languages exhibit them; recipe support scores the
candidates, low scorers are filtered, and recipes are rebuilt once from
the survivors.

A split is a plain ``(language, word, left, glue, right)`` tuple with
``left + glue + right == word``, and ``score_and_filter`` turns each one
into the ``compounds.csv`` row it becomes, so no per-candidate object is
built in between.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError
from .lexicon import TranslationTable

#: Placeholder concept for a right component matched against the
#: per-language derivational-affix list rather than the lexicon.
DER_AFFIX_CONCEPT = "<der.affix>"

DEFAULT_SUPPORT_THRESHOLD = 2

#: (language, word, left, glue, right)
Split = tuple[str, str, str, str, str]


class CompoundRow(NamedTuple):
    """A scored split: one row of ``compounds.csv``.

    ``left_concept`` and ``right_concept`` name the split's best recipe
    and ``support`` its number of languages.
    """

    language: str
    word: str
    left: str
    glue: str
    right: str
    left_concept: str
    right_concept: str
    support: int
    accepted: bool


# (language, word, left, glue): split position order, since a shorter left
# (or glue) of the same word is a prefix of the longer one
_POSITION = itemgetter(0, 1, 2, 3)


def enumerate_splits(word: str, language: str = "") -> list[Split]:
    """All (left, glue, right) splits with non-empty outer components.

    For a word of length K there are exactly K*(K-1)/2 of them; words
    shorter than two characters yield none.
    """
    n = len(word)
    return [
        (language, word, word[:i], word[i:j], word[j:])
        for i in range(1, n)
        for j in range(i, n)
    ]


def extract_candidates(
    table: TranslationTable,
    lang: str,
    derivational_affixes=(),
) -> list[Split]:
    """Splits of every word of ``lang`` whose components check out.

    The left component must be a word of the language; the right may be a
    word or one of the language's discovered derivational affixes (which
    is how color-stem + affix formations are caught).  Glue is
    unconstrained.  Output order is deterministic: by word, then split
    position.
    """
    words = table.words_of(lang)
    affixes = set(derivational_affixes)
    out = []
    # In sorted order, every word that is a proper prefix of a word comes
    # before it, and every word in between has that prefix too; so after
    # popping the entries that are not prefixes of the current word, the
    # stack holds exactly its proper prefixes that are words, shortest
    # first.  These are the left parts enumerate_splits would keep.
    prefixes: list[str] = []
    for word in sorted(words):
        while prefixes and not word.startswith(prefixes[-1]):
            prefixes.pop()
        n = len(word)
        for left in prefixes:
            i = len(left)
            for j in range(i, n):
                right = word[j:]
                if right in words or right in affixes:
                    out.append((lang, word, left, word[i:j], right))
        prefixes.append(word)
    return out


def _concept_pairs(
    table: TranslationTable, candidates
) -> dict[tuple[str, str, str], tuple[tuple[str, ...], tuple[str, ...]]]:
    """Per (language, left, right) key of ``candidates``, the sorted
    concepts of its left and of its right side; the key's concept pairs
    are their product, in ascending order."""
    pairs = {}
    for language, _, left, _, right in candidates:
        key = language, left, right
        if key not in pairs:
            # a right side that is not a word was matched as an affix
            rights = table.glosses(language, right) or (DER_AFFIX_CONCEPT,)
            pairs[key] = (table.glosses(language, left), rights)
    return pairs


def _score(pairs) -> dict[tuple[str, str, str], tuple[str, str, int]]:
    """Per (language, left, right) key of ``pairs``, its best concept pair
    and that pair's support, counted as the languages of the keys in
    ``pairs``.  Max support wins and ties prefer the lexicographically
    smallest pair, which comes first in the product of the sorted concepts."""
    by_language: dict[str, set[tuple[str, str]]] = {}
    for (language, _, _), (lefts, rights) in pairs.items():
        by_language.setdefault(language, set()).update(product(lefts, rights))
    support: Counter = Counter()
    for attested in by_language.values():
        support.update(attested)
    scored = {}
    for key, (lefts, rights) in pairs.items():
        if len(lefts) == len(rights) == 1:
            # most keys have a single pair, which max() would only slow down
            scored[key] = (lefts[0], rights[0], support[lefts[0], rights[0]])
        else:
            best = max(product(lefts, rights), key=support.__getitem__)
            scored[key] = (*best, support[best])
    return scored


def score_and_filter(
    candidates,
    table: TranslationTable,
    threshold: int = DEFAULT_SUPPORT_THRESHOLD,
) -> list[CompoundRow]:
    """Score splits by recipe support and run the two-pass filter.

    Pass one scores every split by the best support among its concept
    pairs, keeps only the best split per (language, word), and accepts
    the keepers that reach the threshold.  Recipes are then rebuilt from
    accepted splits only and the survivors re-checked once, so a recipe
    whose support collapses drags its splits down with it.

    ``candidates`` are splits as ``extract_candidates`` gives them for
    ``table``, so every left part is a word with at least one gloss and
    every split has a concept pair.  A split's concept pairs, and so its
    row in either pass, depend only on its (language, left, right) key,
    so each distinct key is looked up and scored once per pass.  Returns
    one row per split, in split position order.
    """
    if threshold < 1:
        raise ConfigError("compound support threshold must be at least 1")
    candidates = list(candidates)
    pairs = _concept_pairs(table, candidates)
    first = _score(pairs)

    # keep only the best-scoring split of each (language, word); the
    # earliest candidate wins a tie
    best: dict[tuple[str, str], tuple[int, int]] = {}
    for idx, (language, word, left, _, right) in enumerate(candidates):
        support = first[language, left, right][2]
        kept = best.get((language, word))
        if kept is None or support > kept[1]:
            best[language, word] = (idx, support)
    survivors = {idx for idx, support in best.values() if support >= threshold}
    del best
    keys = {(c[0], c[2], c[4]) for c in map(candidates.__getitem__, survivors)}
    second = _score({key: pairs[key] for key in keys})
    # only the two score tables and the survivors are used from here on
    del pairs, keys

    rows = []
    for idx, c in enumerate(candidates):
        if idx in survivors:
            scored = second[c[0], c[2], c[4]]
            rows.append(CompoundRow._make((*c, *scored, scored[2] >= threshold)))
        else:
            rows.append(CompoundRow._make((*c, *first[c[0], c[2], c[4]], False)))
    rows.sort(key=_POSITION)
    return rows


def compound_counts(
    accepted_pairs: set[tuple[str, str]],
    translations,
) -> tuple[dict[str, tuple[int, float]], set[str]]:
    """Count accepted (language, word) compounds among each color's
    translation pairs; colors without any pair are flagged missing."""
    out: dict[str, tuple[int, float]] = {}
    missing: set[str] = set()
    for color, pairs in translations.items():
        distinct = sorted(set(pairs))
        if not distinct:
            missing.add(color)
            out[color] = (0, 0.0)
            continue
        count = sum(1 for p in distinct if p in accepted_pairs)
        out[color] = (count, count / len(distinct))
    return out, missing

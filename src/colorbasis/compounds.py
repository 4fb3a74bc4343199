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

import math
from collections import Counter
from itertools import product
from functools import partial
from operator import add, itemgetter
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


# a split's (language, left, right) key and its (language, word)
_KEY = itemgetter(0, 2, 4)
_WORD = itemgetter(0, 1)
_SUPPORT = itemgetter(2)
_AFFIX_SIDE = (DER_AFFIX_CONCEPT,)
# a CompoundRow from its nine fields, without a Python-level call
_new_row = partial(tuple.__new__, CompoundRow)


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
    words = table.glossary(lang)
    rights = words.keys() | set(derivational_affixes)
    out = []
    append = out.append
    # The table keeps the words sorted.  In sorted order, every word that
    # is a proper prefix of a word comes before it, and every word in
    # between has that prefix too; so after popping the entries that are
    # not prefixes of the current word, the stack holds exactly its proper
    # prefixes that are words, shortest first.  These are the left parts
    # enumerate_splits would keep.
    prefixes: list[str] = []
    for word in words:
        while prefixes and not word.startswith(prefixes[-1]):
            prefixes.pop()
        n = len(word)
        for left in prefixes:
            i = len(left)
            for j in range(i, n):
                if word[j:] in rights:
                    append((lang, word, left, word[i:j], word[j:]))
        prefixes.append(word)
    return out


def _score(sides, threshold) -> dict[tuple[str, str, str], tuple[str, str, int, bool]]:
    """Per (language, left, right) key of ``sides``, the last four fields
    of its splits' rows: its best concept pair, that pair's support,
    counted as the languages of the keys in ``sides``, and whether the
    support reaches ``threshold``.  ``sides`` maps each key to the sorted
    concepts of its left and of its right part; the key's concept pairs
    are their product, in ascending order.  Max support wins and ties
    prefer the lexicographically smallest pair, which comes first in that
    product."""
    attested = set()
    attest = attested.add
    for (language, _, _), (lefts, rights) in sides.items():
        for left in lefts:
            for right in rights:
                attest((language, left, right))
    support = Counter(map(itemgetter(1, 2), attested))
    scored = {}
    for key, (lefts, rights) in sides.items():
        if len(lefts) == len(rights) == 1:
            # most keys have a single pair, which max() would only slow down
            left, right = lefts[0], rights[0]
        else:
            left, right = max(product(lefts, rights), key=support.__getitem__)
        count = support[left, right]
        scored[key] = (left, right, count, count >= threshold)
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
    so each distinct key is looked up and scored once per pass, and each
    split's row is built once, from its key's score.  Returns one row per
    split, in split position order.
    """
    if threshold < 1:
        raise ConfigError("compound support threshold must be at least 1")
    candidates = list(candidates)
    sides = {}
    last_language = None
    for key in dict.fromkeys(map(_KEY, candidates)):
        language, left, right = key
        if language != last_language:
            # the splits of a language mostly come together
            last_language, words = language, table.glossary(language)
        # a right part that is not a word was matched as an affix
        sides[key] = (words[left], words.get(right, _AFFIX_SIDE))
    # pass one accepts nothing: its keepers are accepted in pass two
    scored = list(map(_score(sides, math.inf).__getitem__, map(_KEY, candidates)))

    # the best-scoring split of each (language, word), the earliest
    # winning a tie: the last index a word gets when the indices are taken
    # by ascending support, and among equal supports from the last to the
    # first, is its best split
    support = list(map(_SUPPORT, scored))
    order = sorted(range(len(candidates) - 1, -1, -1), key=support.__getitem__)
    best = dict(zip(map(_WORD, map(candidates.__getitem__, order)), order))
    survivors = [idx for idx in best.values() if support[idx] >= threshold]
    del support, order, best
    keys = list(map(_KEY, map(candidates.__getitem__, survivors)))
    second = _score(dict(zip(keys, map(sides.__getitem__, keys))), threshold)
    for idx, key in zip(survivors, keys):
        scored[idx] = second[key]
    del sides, keys, second, survivors
    # A split's (language, word, left, glue) is distinct, and in ascending
    # order it is split position order, since a shorter left (or glue) of
    # a word is a prefix of the longer one; so the plain rows sort by
    # position as they stand.  Each CompoundRow then replaces the plain row
    # it is built from: the rows are the stage's one set of long-lived
    # objects the cyclic collector tracks, and built this way they leave
    # its count of new objects about where it was, so they set off no
    # collection that would move them on to the oldest generation, whose
    # collections walk the whole heap.
    rows = sorted(map(add, candidates, scored))
    del candidates, scored
    for i, row in enumerate(rows):
        rows[i] = _new_row(row)
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
        distinct = set(pairs)
        if not distinct:
            missing.add(color)
            out[color] = (0, 0.0)
            continue
        count = len(distinct.intersection(accepted_pairs))
        out[color] = (count, count / len(distinct))
    return out, missing

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .lexicon import TranslationTable, back_translate

#: Placeholder concept for a right component matched against the
#: per-language derivational-affix list rather than the lexicon.
DER_AFFIX_CONCEPT = "<der.affix>"

DEFAULT_SUPPORT_THRESHOLD = 2


@dataclass(frozen=True, slots=True)
class SplitCandidate:
    """One three-way split: left + glue + right reassembles the word."""

    word: str
    left: str
    glue: str
    right: str
    language: str = ""

    def __post_init__(self):
        if self.left + self.glue + self.right != self.word:
            raise ValueError("split does not reassemble the word")
        if not self.left or not self.right:
            raise ValueError("left and right components must be non-empty")


@dataclass(frozen=True, slots=True)
class Recipe:
    """A cross-lingual compounding pattern over component concepts."""

    left_concept: str
    right_concept: str
    support: int
    example_languages: frozenset[str]

    def __post_init__(self):
        if self.support != len(self.example_languages):
            raise ValueError("support must equal the number of languages")
        if self.support < 1:
            raise ValueError("support must be at least 1")


@dataclass(frozen=True, slots=True)
class CompoundAnalysis:
    """A scored candidate with its attributed recipe."""

    candidate: SplitCandidate
    recipe: Recipe | None
    score: int
    accepted: bool


def enumerate_splits(word: str, language: str = "") -> list[SplitCandidate]:
    """All (left, glue, right) splits with non-empty outer components.

    For a word of length K there are exactly K*(K-1)/2 of them; words
    shorter than two characters yield none.
    """
    n = len(word)
    out = []
    for i in range(1, n):
        for j in range(i, n):
            out.append(
                SplitCandidate(
                    word=word,
                    left=word[:i],
                    glue=word[i:j],
                    right=word[j:],
                    language=language,
                )
            )
    return out


def extract_candidates(
    table: TranslationTable,
    lang: str,
    derivational_affixes=(),
) -> list[SplitCandidate]:
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
    for word in sorted(words):
        n = len(word)
        # the same splits as enumerate_splits, skipping left parts that are
        # not words before any candidate is built
        for i in range(1, n):
            left = word[:i]
            if left not in words:
                continue
            for j in range(i, n):
                right = word[j:]
                if right in words or right in affixes:
                    out.append(SplitCandidate(word, left, word[i:j], right, lang))
    return out


def _concept_pairs(table: TranslationTable, keys) -> dict[tuple[str, str, str], list[tuple[str, str]]]:
    """Concept pairs per (language, left, right) key; each word's glosses
    are looked up once."""
    glosses: dict[tuple[str, str], list[str]] = {}

    def concepts(language, word):
        if (language, word) not in glosses:
            glosses[language, word] = sorted(back_translate(table, word, language))
        return glosses[language, word]

    pairs = {}
    for language, left, right in keys:
        lefts = concepts(language, left)
        rights = concepts(language, right) if table.has_word(language, right) else [DER_AFFIX_CONCEPT]
        pairs[language, left, right] = [(l, r) for l in lefts for r in rights]
    return pairs


def _score(pairs) -> dict[tuple[str, str, str], tuple[int, Recipe | None]]:
    """Per (language, left, right) key of ``pairs``, the support of its
    best concept pair and that pair's recipe, with support counted as the
    languages of the keys in ``pairs``.  Max support wins and ties prefer
    the lexicographically smallest pair; one Recipe is built per pair."""
    supports: dict[tuple[str, str], set[str]] = {}
    for (language, _, _), key_pairs in pairs.items():
        for pair in key_pairs:
            supports.setdefault(pair, set()).add(language)
    recipes: dict[tuple[str, str], Recipe] = {}
    scored = {}
    for key, key_pairs in pairs.items():
        best, best_pair = 0, None
        for p in key_pairs:
            s = len(supports[p])
            if best_pair is None or s > best or (s == best and p < best_pair):
                best, best_pair = s, p
        recipe = None
        if best_pair is not None:
            if best_pair not in recipes:
                langs = supports[best_pair]
                recipes[best_pair] = Recipe(
                    left_concept=best_pair[0],
                    right_concept=best_pair[1],
                    support=len(langs),
                    example_languages=frozenset(langs),
                )
            recipe = recipes[best_pair]
        scored[key] = (best, recipe)
    return scored


def score_and_filter(
    candidates,
    table: TranslationTable,
    threshold: int = DEFAULT_SUPPORT_THRESHOLD,
) -> list[CompoundAnalysis]:
    """Score candidates by recipe support and run the two-pass filter.

    Pass one scores every candidate by the best support among its concept
    pairs, keeps only the best split per (language, word), and accepts
    the keepers that reach the threshold.  Recipes are then rebuilt from
    accepted candidates only and the survivors re-checked once, so a
    recipe whose support collapses drags its candidates down with it.

    A candidate's concept pairs, and so its score and recipe in either
    pass, depend only on its (language, left, right) key, so each
    distinct key is looked up and scored once per pass.
    """
    if threshold < 1:
        raise ConfigError("compound support threshold must be at least 1")
    candidates = list(candidates)
    keys = [(c.language, c.left, c.right) for c in candidates]
    pairs = _concept_pairs(table, dict.fromkeys(keys))
    scored1 = _score(pairs)

    # keep only the best-scoring split of each (language, word); the
    # earliest candidate wins a tie
    by_word: dict[tuple[str, str], int] = {}
    for idx, cand in enumerate(candidates):
        word = (cand.language, cand.word)
        if word not in by_word or scored1[keys[idx]][0] > scored1[keys[by_word[word]]][0]:
            by_word[word] = idx
    accepted1 = [False] * len(candidates)
    for idx in by_word.values():
        accepted1[idx] = scored1[keys[idx]][0] >= threshold
    scored2 = _score({keys[i]: pairs[keys[i]] for i, a in enumerate(accepted1) if a})

    analyses = []
    for cand, key, second in zip(candidates, keys, accepted1):
        score, recipe = (scored2 if second else scored1)[key]
        analyses.append(CompoundAnalysis(cand, recipe, score, second and score >= threshold))
    position = [(c.language, c.word, len(c.left), len(c.left) + len(c.glue)) for c in candidates]
    return [analyses[i] for i in sorted(range(len(analyses)), key=position.__getitem__)]


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

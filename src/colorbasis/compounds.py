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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
                    out.append(
                        SplitCandidate(word=word, left=left, glue=word[i:j], right=right, language=lang)
                    )
    return out


def _concept_pairs(cand: SplitCandidate, table: TranslationTable) -> list[tuple[str, str]]:
    lefts = sorted(back_translate(table, cand.left, cand.language))
    if table.has_word(cand.language, cand.right):
        rights = sorted(back_translate(table, cand.right, cand.language))
    else:
        rights = [DER_AFFIX_CONCEPT]
    return [(l, r) for l in lefts for r in rights]


def _support_map(candidates, pairs) -> dict[tuple[str, str], set[str]]:
    langs: dict[tuple[str, str], set[str]] = {}
    for cand, cand_pairs in zip(candidates, pairs):
        for pair in cand_pairs:
            langs.setdefault(pair, set()).add(cand.language)
    return langs


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
    """
    if threshold < 1:
        raise ConfigError("compound support threshold must be at least 1")
    candidates = list(candidates)
    pairs = [_concept_pairs(c, table) for c in candidates]
    support1 = _support_map(candidates, pairs)

    # max support wins; ties prefer the lexicographically smallest pair
    def best_pair(cand_pairs, supports):
        best = None
        for p in cand_pairs:
            s = len(supports.get(p, ()))
            if best is None or s > best[0] or (s == best[0] and p < best[1]):
                best = (s, p)
        return best if best else (0, None)

    scored1 = [best_pair(p, support1) for p in pairs]

    # keep only the best-scoring split of each (language, word)
    kept = [False] * len(candidates)
    by_word: dict[tuple[str, str], int] = {}
    for idx, cand in enumerate(candidates):
        key = (cand.language, cand.word)
        if key not in by_word or scored1[idx][0] > scored1[by_word[key]][0]:
            by_word[key] = idx
    for idx in by_word.values():
        kept[idx] = True

    accepted1 = [kept[i] and scored1[i][0] >= threshold for i in range(len(candidates))]
    support2 = _support_map(
        [c for c, a in zip(candidates, accepted1) if a], [p for p, a in zip(pairs, accepted1) if a]
    )

    analyses = []
    for idx, cand in enumerate(candidates):
        if accepted1[idx]:
            score, pair = best_pair(pairs[idx], support2)
            accepted = score >= threshold
            supports = support2
        else:
            score, pair = scored1[idx]
            accepted = False
            supports = support1
        recipe = None
        if pair is not None and supports.get(pair):
            recipe = Recipe(
                left_concept=pair[0],
                right_concept=pair[1],
                support=len(supports[pair]),
                example_languages=frozenset(supports[pair]),
            )
        analyses.append(
            CompoundAnalysis(candidate=cand, recipe=recipe, score=score, accepted=accepted)
        )
    analyses.sort(key=lambda a: (a.candidate.language, a.candidate.word, len(a.candidate.left), len(a.candidate.left) + len(a.candidate.glue)))
    return analyses


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

"""Unsupervised unigram segmentation, affix discovery, and the
affix-presence score.

The generative story is a unigram model over segments: the probability of
a segmentation is the product of smoothed per-segment probabilities, and
decoding picks the argmax by dynamic programming.  Word boundaries are
virtual; only real segments are scored.

Training is type-based and fully deterministic.  A naive hard-EM run
started from raw substring statistics collapses every word to a single
segment (one factor always beats a product of factors when no segment is
frequent enough), so training first carves out shared edge material with
a description-length criterion and only then applies the hard-EM loop
(Viterbi re-segmentation followed by count re-estimation) until the
segmentations are stable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

#: Characters reserved for virtual word boundaries; never valid in input.
RESERVED_SENTINELS = ("\x02", "\x03")

DEFAULT_ALPHA = 0.01
DEFAULT_MAX_ITERS = 20
DEFAULT_MAX_SEGMENT_LEN = 8


@dataclass
class SegmentModel:
    """Per-language segment statistics with Dirichlet-smoothed lookups.

    ``counts`` holds segment token counts from the converged training
    segmentations; ``vocab_size`` is the size of the fixed event space
    (every distinct substring of the training words up to
    ``max_segment_len``), which keeps the smoothed estimates a proper
    distribution.
    """

    language: str = ""
    alpha: float = DEFAULT_ALPHA
    counts: Counter = field(default_factory=Counter)
    total: int = 0
    vocab: frozenset[str] = frozenset()
    max_segment_len: int = DEFAULT_MAX_SEGMENT_LEN
    segmentations: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def segment_probability(model: SegmentModel, segment: str) -> float:
    """MAP estimate (count + alpha) / (total + alpha * V); unseen
    segments receive the uniform smoothed mass."""
    if not segment:
        raise ValueError("segment must be non-empty")
    denom = model.total + model.alpha * model.vocab_size
    return (model.counts.get(segment, 0) + model.alpha) / denom


@dataclass(frozen=True)
class Segmentation:
    """A decoded word: ordered segments whose concatenation is the word."""

    word: str
    segments: tuple[str, ...]
    log_prob: float

    def __post_init__(self):
        if "".join(self.segments) != self.word:
            raise ValueError("segments do not concatenate to the word")
        if not self.segments or any(not s for s in self.segments):
            raise ValueError("segments must be non-empty")


def _log_prob_fn(model):
    """Turn a SegmentModel or a plain probability mapping into a log-prob
    lookup.  Mapping entries absent or non-positive mean 'not a segment'."""
    if isinstance(model, SegmentModel):
        return lambda s: math.log(segment_probability(model, s))

    def from_mapping(s):
        p = model.get(s, 0.0)
        return math.log(p) if p > 0.0 else None

    return from_mapping


def _better(a, b):
    # maximize log-prob, then fewer segments, then smallest segment list
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def viterbi_segment(model, word: str, max_segment_len: int | None = None) -> Segmentation:
    """Highest-probability segmentation of ``word`` under the model.

    Accepts a SegmentModel (smoothed, every segment possible) or a plain
    ``{segment: probability}`` mapping (unlisted segments impossible).
    Ties are broken by fewer segments, then by the lexicographically
    smallest segment list; the result matches exhaustive enumeration of
    all 2^(n-1) segmentations under the same ordering.
    """
    if not word:
        raise ValueError("word must be non-empty")
    logp = _log_prob_fn(model)
    n = len(word)
    best: list[tuple[float, int, tuple[str, ...]] | None] = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for j in range(1, n + 1):
        lo = 0 if max_segment_len is None else max(0, j - max_segment_len)
        for i in range(lo, j):
            prev = best[i]
            if prev is None:
                continue
            lp = logp(word[i:j])
            if lp is None:
                continue
            cand = (prev[0] + lp, prev[1] + 1, prev[2] + (word[i:j],))
            if best[j] is None or _better(cand, best[j]):
                best[j] = cand
    if best[n] is None:
        raise ValueError(f"no admissible segmentation for {word!r}")
    lp, _, segments = best[n]
    return Segmentation(word=word, segments=segments, log_prob=lp)


def _substring_vocab(types, max_len: int) -> frozenset[str]:
    vocab = set()
    for w in types:
        n = len(w)
        for i in range(n):
            for j in range(i + 1, min(n, i + max_len) + 1):
                vocab.add(w[i:j])
    return frozenset(vocab)


class _CostModel:
    """Description length of the current analyses: corpus coding cost of
    the segment tokens plus a per-character lexicon cost for every
    distinct segment in use."""

    def __init__(self, char_cost: float):
        self.char_cost = char_cost
        self.counts: Counter = Counter()
        self.total = 0

    def add(self, segment: str, freq: int):
        self.counts[segment] += freq
        if self.counts[segment] == 0:
            del self.counts[segment]
        self.total += freq

    def cost(self) -> float:
        if self.total == 0:
            return 0.0
        corpus = self.total * math.log(self.total) - sum(
            c * math.log(c) for c in self.counts.values()
        )
        lexicon = sum((len(s) + 1) * self.char_cost for s in self.counts)
        return corpus + lexicon

    def delta(self, changes: Counter) -> float:
        """Cost change if ``changes`` (segment -> count delta) were applied."""

        def xlogx(v: float) -> float:
            return v * math.log(v) if v > 0 else 0.0

        new_total = self.total + sum(changes.values())
        d = xlogx(new_total) - xlogx(self.total)
        for s, dc in changes.items():
            if dc == 0:
                continue
            old = self.counts.get(s, 0)
            new = old + dc
            d -= xlogx(new) - xlogx(old)
            if old == 0 and new > 0:
                d += (len(s) + 1) * self.char_cost
            elif old > 0 and new == 0:
                d -= (len(s) + 1) * self.char_cost
        return d


def _edge_split_phase(analyses, freqs, char_cost, max_moves=10000):
    """Greedy batch splitting of shared word-edge material.

    Each move picks one candidate affix (a proper prefix of some first
    segment or suffix of some last segment, shared by at least two word
    types) and splits it off of every word it applies to, provided the
    move lowers the total description length.  Batch application is what
    lets shared affixes pay for themselves on small corpora.
    """
    cost = _CostModel(char_cost)
    for w, segs in analyses.items():
        for s in segs:
            cost.add(s, freqs[w])

    for _ in range(max_moves):
        hosts: dict[tuple[str, str], list[str]] = {}
        for w, segs in analyses.items():
            first, last = segs[0], segs[-1]
            for k in range(1, len(last)):
                hosts.setdefault(("suffix", last[-k:]), []).append(w)
            for k in range(1, len(first)):
                hosts.setdefault(("prefix", first[:k]), []).append(w)

        best_key = None
        for (pos, affix), words in sorted(hosts.items()):
            if len(words) < 2:
                continue
            changes: Counter = Counter()
            for w in words:
                f = freqs[w]
                segs = analyses[w]
                edge = segs[-1] if pos == "suffix" else segs[0]
                stem = edge[: -len(affix)] if pos == "suffix" else edge[len(affix):]
                changes[edge] -= f
                changes[stem] += f
                changes[affix] += f
            d = cost.delta(changes)
            if d >= -1e-9:
                continue
            key = (d, 0 if pos == "suffix" else 1, affix)
            if best_key is None or key < best_key:
                best_key = key
        if best_key is None:
            break

        _, pos_rank, affix = best_key
        pos = "suffix" if pos_rank == 0 else "prefix"
        for w in hosts[(pos, affix)]:
            f = freqs[w]
            segs = analyses[w]
            if pos == "suffix":
                edge = segs[-1]
                stem = edge[: -len(affix)]
                analyses[w] = segs[:-1] + (stem, affix)
            else:
                edge = segs[0]
                stem = edge[len(affix):]
                analyses[w] = (affix, stem) + segs[1:]
            cost.add(edge, -f)
            cost.add(stem, f)
            cost.add(affix, f)
    return analyses


def train_segmenter(
    words,
    alpha: float = DEFAULT_ALPHA,
    max_iters: int = DEFAULT_MAX_ITERS,
    *,
    language: str = "",
    max_segment_len: int = DEFAULT_MAX_SEGMENT_LEN,
) -> SegmentModel:
    """Fit a segment model to a word list.

    Analyses start as whole words, shared edge material is split off
    under a description-length criterion, and hard EM (Viterbi
    re-segmentation, then count re-estimation) runs until segmentations
    stop changing or ``max_iters`` passes.  The result depends only on
    the multiset of input words, not their order.
    """
    words = list(words)
    if not words:
        raise ValueError("word list must not be empty")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if max_segment_len < 1:
        raise ValueError("max_segment_len must be at least 1")
    for w in words:
        if not w:
            raise ValueError("words must be non-empty")
        if any(ch in w for ch in RESERVED_SENTINELS):
            raise ValueError(f"word {w!r} contains a reserved boundary sentinel")

    freqs = Counter(words)
    types = sorted(freqs)
    alphabet = set().union(*types)
    char_cost = math.log(len(alphabet) + 1)

    analyses = {w: (w,) for w in types}
    analyses = _edge_split_phase(analyses, freqs, char_cost)

    # Anything still longer than the segment cap is chunked so that every
    # counted segment lives inside the smoothing event space.
    analyses = {
        w: tuple(
            piece
            for s in segs
            for piece in (s[i : i + max_segment_len] for i in range(0, len(s), max_segment_len))
        )
        for w, segs in analyses.items()
    }

    vocab = _substring_vocab(types, max_segment_len)
    model = SegmentModel(
        language=language,
        alpha=alpha,
        vocab=vocab,
        max_segment_len=max_segment_len,
    )

    def recount(analyses):
        counts: Counter = Counter()
        for w, segs in analyses.items():
            for s in segs:
                counts[s] += freqs[w]
        return counts

    model.counts = recount(analyses)
    model.total = sum(model.counts.values())

    for _ in range(max_iters):
        new_analyses = {
            w: viterbi_segment(model, w, max_segment_len).segments for w in types
        }
        if new_analyses == analyses:
            break
        analyses = new_analyses
        model.counts = recount(analyses)
        model.total = sum(model.counts.values())

    model.segmentations = analyses
    return model


@dataclass(frozen=True)
class AffixThresholds:
    """Classification knobs for discovered affixes."""

    min_support: int = 2
    color_coverage_min: float = 0.2
    specificity_ratio: float = 5.0
    general_global_min: float = 0.1
    epsilon: float = 1e-9


@dataclass(frozen=True)
class Affix:
    """An affix hypothesis with its coverage statistics.

    ``color_coverage`` is the fraction of the language's color-word
    translations that carry the form in position (plain string match);
    ``global_coverage`` is the same fraction over every word of the
    language.
    """

    form: str
    position: str  # "prefix" | "suffix"
    language: str
    color_coverage: float
    global_coverage: float
    affix_class: str  # "color-specific" | "general-derivational" | "neither"


def _contains_in_position(word: str, form: str, position: str) -> bool:
    return word.endswith(form) if position == "suffix" else word.startswith(form)


def classify_affix(color_coverage: float, global_coverage: float,
                   thresholds: AffixThresholds) -> str:
    if color_coverage >= thresholds.color_coverage_min:
        ratio = color_coverage / max(global_coverage, thresholds.epsilon)
        if ratio >= thresholds.specificity_ratio:
            return "color-specific"
        if global_coverage >= thresholds.general_global_min:
            return "general-derivational"
    return "neither"


def discover_affixes(
    model: SegmentModel,
    color_words,
    all_words,
    thresholds: AffixThresholds = AffixThresholds(),
) -> list[Affix]:
    """Affixes attested at the edges of color-word segmentations.

    A candidate is the first (prefix) or last (suffix) segment of a
    multi-segment decoding of at least ``min_support`` distinct color
    words.  Coverage is then counted by brute-force positional string
    match over word types, so it can be re-checked without the model.
    """
    if not model.counts:
        raise ValueError("model is untrained")
    color_types = sorted(set(color_words))
    all_types = sorted(set(all_words))
    if not color_types:
        return []

    support: Counter = Counter()
    for w in color_types:
        segs = viterbi_segment(model, w, model.max_segment_len).segments
        if len(segs) < 2:
            continue
        support[("prefix", segs[0])] += 1
        support[("suffix", segs[-1])] += 1

    affixes = []
    for (position, form), count in support.items():
        if count < thresholds.min_support:
            continue
        cc = sum(
            1 for w in color_types if _contains_in_position(w, form, position)
        ) / len(color_types)
        gc = (
            sum(1 for w in all_types if _contains_in_position(w, form, position))
            / len(all_types)
            if all_types
            else 0.0
        )
        affixes.append(
            Affix(
                form=form,
                position=position,
                language=model.language,
                color_coverage=cc,
                global_coverage=gc,
                affix_class=classify_affix(cc, gc, thresholds),
            )
        )
    affixes.sort(key=lambda a: (-a.color_coverage, a.position, a.form))
    return affixes


def strong_suffixes(
    translations: Mapping[str, list[tuple[str, str]]],
    segmentations: Mapping[tuple[str, str], tuple[str, ...]],
    top_colors,
    min_support: int = 2,
) -> dict[str, set[str]]:
    """Per language, the final segments shared by at least ``min_support``
    of the top-ranked colors' translations."""
    per_lang: dict[str, dict[str, set[str]]] = {}
    for color in top_colors:
        for lang, word in translations.get(color, ()):
            segs = segmentations.get((lang, word))
            if not segs or len(segs) < 2:
                continue
            per_lang.setdefault(lang, {}).setdefault(segs[-1], set()).add(color)
    return {
        lang: {s for s, colors in forms.items() if len(colors) >= min_support}
        for lang, forms in per_lang.items()
    }


def affix_presence_feature(
    colors,
    translations: Mapping[str, list[tuple[str, str]]],
    segmentations: Mapping[tuple[str, str], tuple[str, ...]],
    bootstrap_ranking,
    min_support: int = 2,
) -> tuple[dict[str, float], set[str]]:
    """Fraction of each color's translations that end in a suffix
    strongly associated with the ten top-ranked colors.

    Returns (scores, missing): colors without any translation pair score
    0.0 and are flagged missing.  Raises when the bootstrap ranking has
    fewer than ten entries.
    """
    ranking = list(bootstrap_ranking)
    if len(ranking) < 10:
        raise ValueError("bootstrap ranking must contain at least 10 colors")
    strong = strong_suffixes(translations, segmentations, ranking[:10], min_support)

    scores: dict[str, float] = {}
    missing: set[str] = set()
    for color in colors:
        pairs = translations.get(color, [])
        if not pairs:
            scores[color] = 0.0
            missing.add(color)
            continue
        matches = 0
        for lang, word in pairs:
            segs = segmentations.get((lang, word))
            if segs and len(segs) >= 2 and segs[-1] in strong.get(lang, ()):
                matches += 1
        scores[color] = matches / len(pairs)
    return scores, missing

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

Both training loops reuse what they already know instead of rebuilding
it.  The edge-split phase keeps its index of candidate affixes and host
words up to date across moves and caches each candidate's segment-count
changes, as in Morfessor Baseline's incremental bookkeeping (Creutz &
Lagus 2002).  Every candidate is still scored with the same float
operations in the same order as a rebuild from scratch would use, and
ties are broken on a key unique per candidate, so the segmentations are
bit-for-bit those of the plain algorithm.

Decoding is batched (``_Lattice``).  The substrings of a word list are
numbered once, and the ids of every word's candidate segments are laid
out as ``int32`` arrays, one per end position; that id table is also
the smoothing event space.  One numpy dynamic program then decodes every
word at once, with the subtraction ``score[i] - log p(word[i:j])`` of the
per-word recursion, and picks the minimum of (score, segment count,
segment tuple).  Of two segmentations of one string, the smaller tuple
is the one with the earliest first differing cut, so a segmentation is
kept as a cut bitmask in which the cut at position ``p`` sets bit
``64 - p`` (one 64-bit column per 64 positions) and the larger mask
wins.  An EM pass stops when no word's mask changes; otherwise only the
words whose mask changed are re-counted.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping

import numpy as np

log = logging.getLogger(__name__)

#: Characters reserved for virtual word boundaries; never valid in input.
RESERVED_SENTINELS = ("\x02", "\x03")

DEFAULT_ALPHA = 0.01
DEFAULT_MAX_ITERS = 20
DEFAULT_MAX_SEGMENT_LEN = 8
#: Cap on edge-split moves per language; reaching it is logged.
MAX_EDGE_SPLIT_MOVES = 10000


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
    # training facts, set by train_segmenter
    edge_split_moves: int = field(default=0, init=False)
    edge_split_capped: bool = field(default=False, init=False)
    em_passes: int = field(default=0, init=False)
    converged: bool = field(default=True, init=False)

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


def _log_prob_table(model) -> tuple[dict[str, float], float | None]:
    """Log-probabilities of the listed segments, and the value shared by
    every other segment.  A SegmentModel gives unseen segments the uniform
    smoothed mass; for a plain mapping, entries absent or non-positive
    mean 'not a segment' (None)."""
    if isinstance(model, SegmentModel):
        table = {s: math.log(segment_probability(model, s)) for s in model.counts if s}
        denom = model.total + model.alpha * model.vocab_size
        return table, math.log(model.alpha / denom)
    return {s: math.log(p) for s, p in model.items() if p > 0.0}, None


#: Cut positions per mask column: the cut at position ``p`` of a word
#: sets bit ``64 - p`` of column 0, the cut at ``64 + p`` the same bit of
#: column 1, and so on.
_MASK_BITS = 64


def _cut_bit(p: int) -> tuple[int, int]:
    """Column and bit value of the cut before character ``p`` (``p >= 1``)."""
    col, r = divmod(p - 1, _MASK_BITS)
    return col, 1 << (_MASK_BITS - 1 - r)


class _Lattice:
    """Every segment of a word list, as substring ids, and a batched
    Viterbi decoder over them.

    The id table ``segments`` numbers each distinct substring of at most
    ``max_segment_len`` characters (``None``: no cap); it is the smoothing
    event space of a model trained on the words.  Words are kept longest
    first, so the words at least ``j`` characters long are a prefix of
    that order.  ``ids[j - 1]`` is an ``int32`` array with one column for
    each of them and one row per segment length: row ``k`` holds the id of
    the segment that ends at ``j`` and starts at ``j - len(ids[j - 1]) + k``.

    A segmentation is stored as a cut mask (see ``_cut_bit``).  Of two
    segmentations of the same string, the smaller segment tuple is the one
    with a cut at the first position where their cuts differ, because a
    segment sorts before every longer segment it starts; so it is the one
    with the larger mask, compared column by column.
    """

    def __init__(self, words, max_segment_len: int | None):
        self.words = list(words)
        lengths = np.array([len(w) for w in self.words])
        n = int(lengths.max())
        if max_segment_len is not None and max_segment_len < 1:
            raise ValueError("max_segment_len must be at least 1")
        cap = n if max_segment_len is None else min(max_segment_len, n)
        self.order = np.argsort(-lengths, kind="stable")
        self.lengths = lengths[self.order]
        # the number of words at least j characters long, for j = 0..n
        active = np.cumsum(np.bincount(self.lengths, minlength=n + 1)[::-1])[::-1].tolist()
        self.columns = max(1, -(-(n - 1) // _MASK_BITS))

        # the ids of all segments, end by end, start by start, word by word
        by_length = [self.words[w] for w in self.order.tolist()]
        starts = [range(max(0, j - cap), j) for j in range(n + 1)]
        sizes = [len(starts[j]) * active[j] for j in range(1, n + 1)]
        segments: dict[str, int] = {}
        intern = segments.setdefault
        flat = np.fromiter(
            (
                intern(word[i:j], len(segments))
                for j in range(1, n + 1)
                for i in starts[j]
                for word in by_length[: active[j]]
            ),
            dtype=np.int32,
            count=sum(sizes),
        )
        self.segments = segments
        self.ids = [
            block.reshape(len(starts[j]), active[j])
            for j, block in zip(range(1, n + 1), np.split(flat, np.cumsum(sizes)[:-1]))
        ]
        # row i: the cut at position i (none at 0)
        self.bits = np.zeros((n + 1, self.columns), dtype=np.uint64)
        for p in range(1, n):
            col, bit = _cut_bit(p)
            self.bits[p, col] = bit

    def decode(self, model) -> tuple[np.ndarray, np.ndarray]:
        """Best score (``-log-prob``; ``inf`` when no segmentation is
        admissible) and cut mask of every word under ``model``, in
        ``words`` order.

        Each id's log-probability is ``_log_prob_table``'s ``math.log``
        value (``-inf`` for a segment a plain mapping does not list).  One
        dynamic program then runs over all words at once.  For each end
        position it picks, per word, the minimum of (score, segment count,
        segment tuple) over the candidate last segments, as the scalar
        recursion ``score[i] - lp(word[i:j])`` would, with the same IEEE
        subtraction: the least score, then among equal scores the fewest
        segments, then the largest mask, column by column.  Candidates of
        one word differ in their last cut, so the winner is unique.  Equal
        scores are rare, so the last two keys are only compared at end
        positions where some word has them."""
        table, default = _log_prob_table(model)
        lp = np.full(len(self.segments), -math.inf if default is None else default)
        hits = [(i, v) for s, v in table.items() if (i := self.segments.get(s)) is not None]
        if hits:
            index, values = zip(*hits)
            lp[list(index)] = values

        n, num = len(self.ids), len(self.words)
        # row i: the best segmentation of each word's prefix of length i
        score = np.full((n + 1, num), math.inf)
        score[0] = 0.0
        count = np.zeros((n + 1, num), dtype=np.int32)
        mask = np.zeros((n + 1, num, self.columns), dtype=np.uint64)
        cols = np.arange(num)
        for j, ids in enumerate(self.ids, start=1):
            width, a = ids.shape
            rows = slice(j - width, j)
            cand = score[rows, :a] - lp[ids]
            best = cand.min(axis=0)
            tied = cand == best
            if np.count_nonzero(tied) > a:
                segs = np.where(tied, count[rows, :a], n)
                tied &= segs == segs.min(axis=0)
                cand_mask = mask[rows, :a] | self.bits[rows, None, :]
                for col in range(self.columns):
                    m = np.where(tied, cand_mask[:, :, col], 0)
                    tied &= m == m.max(axis=0)
            pick = j - width + tied.argmax(axis=0)
            score[j, :a] = best
            count[j, :a] = count[pick, cols[:a]] + 1
            mask[j, :a] = mask[pick, cols[:a]] | self.bits[pick]
        scores = np.empty(num)
        masks = np.empty((num, self.columns), dtype=np.uint64)
        scores[self.order] = score[self.lengths, cols]
        masks[self.order] = mask[self.lengths, cols]
        return scores, masks

    def masks_of(self, analyses) -> np.ndarray:
        """Cut masks of one segmentation per word, in ``words`` order."""
        out = np.zeros((len(self.words), self.columns), dtype=np.uint64)
        for w, segs in enumerate(analyses):
            row = [0] * self.columns
            p = 0
            for s in segs[:-1]:
                p += len(s)
                col, bit = _cut_bit(p)
                row[col] |= bit
            out[w] = row
        return out

    def split(self, w: int, mask: list[int]) -> tuple[str, ...]:
        """The segments of word ``w`` that a cut mask row (as Python ints)
        encodes."""
        word = self.words[w]
        cuts = [0]
        for col, v in enumerate(mask):
            while v:
                b = v.bit_length() - 1
                cuts.append(_MASK_BITS * col + _MASK_BITS - b)
                v ^= 1 << b
        cuts.append(len(word))
        return tuple(word[i:j] for i, j in zip(cuts, cuts[1:]))


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
    lattice = _Lattice([word], max_segment_len)
    scores, masks = lattice.decode(model)
    score = float(scores[0])
    if score == math.inf:
        raise ValueError(f"no admissible segmentation for {word!r}")
    segments = lattice.split(0, masks[0].tolist())
    # 0.0 - score rather than -score: a zero sum stays +0.0
    return Segmentation(word=word, segments=segments, log_prob=0.0 - score)


def _edge_keys(position: str, edge: str):
    """The candidate affixes an edge segment hosts, shortest first: its
    proper suffixes (last segment) or proper prefixes (first segment)."""
    if position == "suffix":
        return [(position, edge[-k:]) for k in range(1, len(edge))]
    return [(position, edge[:k]) for k in range(1, len(edge))]


def _split_changes(position, affix, words, analyses, freqs):
    """Segment-count changes of splitting ``affix`` off every host word,
    in ``words`` order: the total added, then the segments and their count
    deltas as two parallel lists, in first-touch order with the zero deltas
    dropped.  Parallel lists keep the cache compact, and unlike small
    tuples their storage is not held back by CPython's per-size free lists
    once the cache is dropped, which measurably raised peak RSS."""
    changes: dict[str, int] = {}
    get = changes.get
    for w in words:
        f = freqs[w]
        edge = analyses[w][-1] if position == "suffix" else analyses[w][0]
        stem = edge[: -len(affix)] if position == "suffix" else edge[len(affix):]
        changes[edge] = get(edge, 0) - f
        changes[stem] = get(stem, 0) + f
        changes[affix] = get(affix, 0) + f
    nonzero = [item for item in changes.items() if item[1]]
    return sum(changes.values()), [s for s, _ in nonzero], [dc for _, dc in nonzero]


class _XLogX(dict):
    """Memo of v * log(v) for the integer counts met so far."""

    def __missing__(self, v: int) -> float:
        value = self[v] = v * math.log(v) if v > 0 else 0.0
        return value


def _split_delta(added, segments, deltas, counts, total, char_cost, xlogx) -> float:
    """Description-length change of applying ``_split_changes`` output to
    the current segment ``counts`` and ``total``: corpus coding cost
    ``xlogx(total) - sum(xlogx(count))`` plus ``(len + 1) * char_cost``
    per distinct segment in use.  The float operations run in a fixed
    order, the total's term first and then the segments' in list order,
    so equal inputs always give the same bits."""
    d = xlogx[total + added] - xlogx[total]
    count = counts.get
    for s, dc in zip(segments, deltas):
        old = count(s, 0)
        new = old + dc
        d -= xlogx[new] - xlogx[old]
        # dc != 0 and new >= 0: a segment enters or leaves the lexicon
        if not old:
            d += (len(s) + 1) * char_cost
        elif not new:
            d -= (len(s) + 1) * char_cost
    return d


def _rewrite_edge(hosts, cached, w, position, old_edge, new_edge):
    """Re-index host word ``w`` whose ``position`` edge became ``new_edge``,
    a prefix or suffix of ``old_edge`` on the same side: ``w`` keeps the
    keys shorter than ``new_edge`` and leaves the longer ones, and every
    key of ``old_edge`` loses its cached change list."""
    for k, key in enumerate(_edge_keys(position, old_edge), start=1):
        words = hosts.get(key)
        if words is None:
            continue
        cached.pop(key, None)
        if k >= len(new_edge):
            words.remove(w)
            if len(words) < 2:
                del hosts[key]


def _edge_split_phase(analyses, freqs, char_cost):
    """Greedy batch splitting of shared word-edge material.

    Each move picks one candidate affix (a proper prefix of some first
    segment or suffix of some last segment, shared by at least two word
    types) and splits it off of every word it applies to, provided the
    move lowers the total description length (``_split_delta``).  Batch
    application is what lets shared affixes pay for themselves on small
    corpora.

    The bookkeeping is incremental.  The host index ``{(position, affix):
    [host words]}`` is built once, in ``analyses`` order, and only ever
    shrinks: a move replaces a word's edge by that edge's own prefix or
    suffix on the same side, so the word keeps the keys shorter than its
    new edge and leaves the longer ones.  Each candidate's change list is
    cached and dropped only when one of its hosts' edges is rewritten,
    because the list depends on those edges and never on the counts.
    Every move re-scores every candidate from its list against the
    current counts, with the same float operations in the same order as
    a rebuild from scratch.  The move taken is the smallest ``(delta,
    position rank, affix)``, a key unique per candidate, so the order in
    which candidates are visited cannot change a tie-break.

    Rewrites ``analyses`` in place and returns the number of moves made
    and whether ``MAX_EDGE_SPLIT_MOVES`` stopped it with a move left.
    """
    counts: dict[str, int] = {}
    hosts: dict[tuple[str, str], list[str]] = {}
    for w, segs in analyses.items():
        for s in segs:
            counts[s] = counts.get(s, 0) + freqs[w]
        for key in _edge_keys("suffix", segs[-1]) + _edge_keys("prefix", segs[0]):
            hosts.setdefault(key, []).append(w)
    # a key never gains hosts, so one with a single host is never a candidate
    hosts = {key: words for key, words in hosts.items() if len(words) > 1}
    total = sum(counts.values())
    cached: dict[tuple[str, str], tuple[int, list[str], list[int]]] = {}
    xlogx = _XLogX()

    moves = 0
    while True:
        best_key = None
        for key, words in hosts.items():
            entry = cached.get(key)
            if entry is None:
                entry = cached[key] = _split_changes(*key, words, analyses, freqs)
            d = _split_delta(*entry, counts, total, char_cost, xlogx)
            if d >= -1e-9:
                continue
            candidate = (d, 0 if key[0] == "suffix" else 1, key[1])
            if best_key is None or candidate < best_key:
                best_key = candidate
        if best_key is None:
            return moves, False
        if moves == MAX_EDGE_SPLIT_MOVES:
            return moves, True
        moves += 1

        _, pos_rank, affix = best_key
        for w in list(hosts[("suffix" if pos_rank == 0 else "prefix", affix)]):
            f = freqs[w]
            segs = analyses[w]
            if pos_rank == 0:
                edge = segs[-1]
                stem = edge[: -len(affix)]
                analyses[w] = segs[:-1] + (stem, affix)
                _rewrite_edge(hosts, cached, w, "suffix", edge, affix)
                if len(segs) == 1:
                    _rewrite_edge(hosts, cached, w, "prefix", edge, stem)
            else:
                edge = segs[0]
                stem = edge[len(affix):]
                analyses[w] = (affix, stem) + segs[1:]
                _rewrite_edge(hosts, cached, w, "prefix", edge, affix)
                if len(segs) == 1:
                    _rewrite_edge(hosts, cached, w, "suffix", edge, stem)
            for s, dc in ((edge, -f), (stem, f), (affix, f)):
                counts[s] = counts.get(s, 0) + dc
                if not counts[s]:
                    del counts[s]
            total += f


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
    the multiset of input words, not their order.  The model records the
    edge-split moves and whether their cap stopped them, the EM passes and
    whether EM converged; hitting either cap is logged as a warning.
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
    moves, capped = _edge_split_phase(analyses, freqs, char_cost)
    if capped:
        log.warning(
            "%s: edge-split phase stopped at its cap of %d moves with a move left",
            language or "<unnamed>", MAX_EDGE_SPLIT_MOVES,
        )

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

    lattice = _Lattice(types, max_segment_len)
    model = SegmentModel(
        language=language,
        alpha=alpha,
        vocab=frozenset(lattice.segments),
        max_segment_len=max_segment_len,
    )
    model.edge_split_moves = moves
    model.edge_split_capped = capped
    counts = model.counts
    for w, segs in analyses.items():
        for s in segs:
            counts[s] += freqs[w]
    model.total = sum(counts.values())

    # Each pass decodes every word in one batch; only the words whose cuts
    # changed are re-counted.
    masks = lattice.masks_of(analyses.values())
    for passes in range(1, max_iters + 1):
        _, new_masks = lattice.decode(model)
        changed = np.flatnonzero((new_masks != masks).any(axis=1))
        if not changed.size:
            break
        masks = new_masks
        for k, row in zip(changed.tolist(), masks[changed].tolist()):
            w = types[k]
            f = freqs[w]
            old, new = analyses[w], lattice.split(k, row)
            analyses[w] = new
            for s in old:
                counts[s] -= f
                if not counts[s]:
                    del counts[s]
            for s in new:
                counts[s] += f
            model.total += f * (len(new) - len(old))
    else:
        model.converged = False
        log.warning(
            "%s: hard EM stopped at max_iters=%d before the segmentations converged",
            language or "<unnamed>", max_iters,
        )
    model.em_passes = passes
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


def _count_in_position(words, form: str, position: str) -> int:
    """How many of ``words`` carry ``form`` in ``position``, by plain
    string match."""
    match = str.endswith if position == "suffix" else str.startswith
    return sum(map(match, words, repeat(form)))


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
    lattice = _Lattice(color_types, model.max_segment_len)
    _, masks = lattice.decode(model)
    multi = np.flatnonzero(masks.any(axis=1))  # the words cut at least once
    for k, row in zip(multi.tolist(), masks[multi].tolist()):
        segs = lattice.split(k, row)
        support[("prefix", segs[0])] += 1
        support[("suffix", segs[-1])] += 1

    affixes = []
    for (position, form), count in support.items():
        if count < thresholds.min_support:
            continue
        cc = _count_in_position(color_types, form, position) / len(color_types)
        gc = (
            _count_in_position(all_types, form, position) / len(all_types)
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

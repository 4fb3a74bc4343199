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
it.  The edge-split phase starts from whole words, so its first index of
candidate affixes and host words, and every candidate's first
segment-count changes, come from one bulk numpy pass over the words'
proper prefixes and suffixes: a count per affix finds the keys with two
or more hosts, a stable sort lists their hosts in word order, and one
sort-and-sum over (candidate, segment) gives the changes.  After that it
keeps the index up to date across moves, and each candidate's changes as
an order-free map that a move updates in place, as in Morfessor
Baseline's incremental bookkeeping (Creutz & Lagus 2002).  A move is
found by filter-then-verify (Shewchuk 1997): one numpy pass
scores every candidate from those maps with a proven error bound, and
only the candidates the bound cannot rule out are scored exactly, with
the same float operations in the same order as a rebuild from scratch.
Ties are broken on a key unique per candidate, so the segmentations are
bit-for-bit those of the plain algorithm.

Each language is trained against one substring table (``_SegmentIds``)
and one ``int64`` vector of segment counts by id, from the first edge
split to the final model.  The edge-split phase numbers the affixes,
edges and stems it meets and keeps the counts of the current
segmentations in the vector.  Once the phase's candidate maps are freed,
the decoder numbers into the same table the substrings of at most
``max_segment_len`` characters that it lacks; all of those substrings
are the smoothing event space.  Hard EM starts from the phase's vector,
moved only for the words that the segment cap chunks, and the model's
counts are the vector's nonzero entries.

Decoding is batched (``_Lattice``).  The ids of every word's candidate
segments are laid out as ``int32`` arrays, one per end position.  One
numpy dynamic program then decodes every word at once, with the
subtraction ``score[i] - log p(word[i:j])`` of the per-word recursion,
and picks the minimum of (score, segment count, segment tuple).  Of two
segmentations of one string, the smaller tuple is the one with the
earliest first differing cut, so a segmentation is kept as a cut bitmask
in which the cut at position ``p`` sets bit ``64 - p`` (one 64-bit
column per 64 positions) and the larger mask wins.  Each EM pass turns
the count vector into the log-probability vector the decoder reads with
one ``math.log`` per distinct count, the float operations of
``segment_probability``.  A pass stops when no word's mask changes;
otherwise only the words whose mask changed are re-counted.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter
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
#: How many top-ranked colors define the affix-presence feature's suffixes.
PRESENCE_TOP_COLORS = 10


@dataclass
class SegmentModel:
    """Per-language segment statistics with Dirichlet-smoothed lookups.

    ``segmentations`` holds each training word's final segmentation and
    ``counts`` the segment token counts over them; ``vocab_size`` is the
    size of the fixed event space (every distinct substring of the
    training words up to ``max_segment_len``), which keeps the smoothed
    estimates a proper distribution.
    """

    language: str = ""
    alpha: float = DEFAULT_ALPHA
    counts: Counter = field(default_factory=Counter)
    total: int = 0
    vocab_size: int = 0
    segmentations: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # training facts, set by train_segmenter
    edge_split_moves: int = field(default=0, init=False)
    edge_split_capped: bool = field(default=False, init=False)
    em_passes: int = field(default=0, init=False)
    converged: bool = field(default=True, init=False)


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


def _count_log_probs(counts: np.ndarray, alpha: float, denom: float) -> np.ndarray:
    """The log-probability of every segment id of a model with segment
    ``counts`` by id, smoothing ``alpha`` and ``denom`` = total + alpha *
    vocabulary size: ``math.log((count + alpha) / denom)``, computed once
    per distinct nonzero count, and ``math.log(alpha / denom)`` for every
    other id.  These are the float operations of ``segment_probability``
    and ``_log_prob_table``, so the values are bit-for-bit theirs."""
    lp = np.full(len(counts), math.log(alpha / denom))
    nonzero = counts != 0
    seen = counts[nonzero]
    distinct = np.flatnonzero(np.bincount(seen))
    by_count = np.zeros(distinct[-1] + 1 if len(distinct) else 0)
    by_count[distinct] = [math.log((c + alpha) / denom) for c in distinct.tolist()]
    lp[nonzero] = by_count[seen]
    return lp


#: Cut positions per mask column: the cut at position ``p`` of a word
#: sets bit ``64 - p`` of column 0, the cut at ``64 + p`` the same bit of
#: column 1, and so on.
_MASK_BITS = 64


def _cut_bit(p: int) -> tuple[int, int]:
    """Column and bit value of the cut before character ``p`` (``p >= 1``)."""
    col, r = divmod(p - 1, _MASK_BITS)
    return col, 1 << (_MASK_BITS - 1 - r)


class _SegmentIds(dict):
    """Segment ids, handed out in order of first lookup; ``names[i]`` is
    the segment with id ``i``."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []

    def __missing__(self, segment: str) -> int:
        i = self[segment] = len(self.names)
        self.names.append(segment)
        return i


class _Lattice:
    """Every segment of a word list, as substring ids, and a batched
    Viterbi decoder over them.

    The id table ``segments`` (a new one, or one the caller has begun)
    gains every distinct substring of at most ``max_segment_len``
    characters (``None``: no cap) that it lacks; those substrings are the
    smoothing event space of a model trained on the words.  Words are
    kept longest first, so the words at least ``j`` characters long are a
    prefix of that order.  ``ids[j - 1]`` is an ``int32`` array with one column for
    each of them and one row per segment length: row ``k`` holds the id of
    the segment that ends at ``j`` and starts at ``j - len(ids[j - 1]) + k``.

    A segmentation is stored as a cut mask (see ``_cut_bit``).  Of two
    segmentations of the same string, the smaller segment tuple is the one
    with a cut at the first position where their cuts differ, because a
    segment sorts before every longer segment it starts; so it is the one
    with the larger mask, compared column by column.
    """

    def __init__(self, words, max_segment_len: int | None, segments: _SegmentIds | None = None):
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

        # the ids of all segments, end by end, start by start, word by word,
        # the new ones numbered as __missing__ would but without a Python
        # call each; their names follow
        by_length = [self.words[w] for w in self.order.tolist()]
        segments = _SegmentIds() if segments is None else segments
        known = len(segments)
        intern = segments.setdefault
        self.ids = []
        for j in range(1, n + 1):
            long_enough = by_length[: active[j]]
            self.ids.append(
                np.array(
                    [[intern(word[i:j], len(segments)) for word in long_enough] for i in range(max(0, j - cap), j)],
                    dtype=np.int32,
                )
            )
        segments.names.extend(islice(segments, known, None))
        self.segments = segments
        # row i: the cut at position i (none at 0)
        self.bits = np.zeros((n + 1, self.columns), dtype=np.uint64)
        for p in range(1, n):
            col, bit = _cut_bit(p)
            self.bits[p, col] = bit

    def log_probs(self, model) -> np.ndarray:
        """Each id's log-probability under ``model``: ``_log_prob_table``'s
        ``math.log`` value (``-inf`` for a segment a plain mapping does not
        list)."""
        table, default = _log_prob_table(model)
        lp = np.full(len(self.segments), -math.inf if default is None else default)
        hits = [(i, v) for s, v in table.items() if (i := self.segments.get(s)) is not None]
        if hits:
            index, values = zip(*hits)
            lp[list(index)] = values
        return lp

    def decode(self, lp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best score (``-log-prob``; ``inf`` when no segmentation is
        admissible) and cut mask of every word, in ``words`` order, given
        the log-probability ``lp[i]`` of each segment id ``i``.

        One dynamic program runs over all words at once.  For each end
        position it picks, per word, the minimum of (score, segment count,
        segment tuple) over the candidate last segments, as the scalar
        recursion ``score[i] - lp(word[i:j])`` would, with the same IEEE
        subtraction: the least score, then among equal scores the fewest
        segments, then the largest mask, column by column.  Candidates of
        one word differ in their last cut, so the winner is unique.  Equal
        scores are rare, so the last two keys are only compared at end
        positions where some word has them."""
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
    scores, masks = lattice.decode(lattice.log_probs(model))
    score = float(scores[0])
    if score == math.inf:
        raise ValueError(f"no admissible segmentation for {word!r}")
    segments = lattice.split(0, masks[0].tolist())
    # 0.0 - score rather than -score: a zero sum stays +0.0
    return Segmentation(word=word, segments=segments, log_prob=0.0 - score)


def _split_changes(position, affix, words, analyses, freqs):
    """Segment-count changes of splitting ``affix`` off every host word,
    in ``words`` order: the total added, then the segments and their count
    deltas as two parallel lists, in first-touch order with the zero deltas
    dropped."""
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


def _xlogx_table(size: int) -> list[float]:
    """``v * log(v)`` for every count ``v`` in ``range(size)``, 0 at 0."""
    return [v * math.log(v) if v else 0.0 for v in range(size)]


def _split_delta(added, segments, deltas, ids, counts, total, char_cost, xlogx) -> float:
    """Description-length change of applying ``_split_changes`` output to
    the current segment ``counts`` (a vector by the ids of the table
    ``ids``, which lists every segment changed) and ``total``: corpus
    coding cost ``xlogx[total] - sum(xlogx[count])`` plus ``(len + 1) *
    char_cost`` per distinct segment in use, with ``xlogx`` an
    ``_xlogx_table`` that reaches every count involved.  The float
    operations run in a fixed order, the total's term first and then the
    segments' in list order, so equal inputs always give the same bits."""
    d = xlogx[total + added] - xlogx[total]
    olds = counts[[ids[s] for s in segments]].tolist()
    for s, dc, old in zip(segments, deltas, olds):
        new = old + dc
        d -= xlogx[new] - xlogx[old]
        # dc != 0 and new >= 0: a segment enters or leaves the lexicon
        if not old:
            d += (len(s) + 1) * char_cost
        elif not new:
            d -= (len(s) + 1) * char_cost
    return d


#: Unit roundoff of IEEE double precision, the scale of the filter's bound.
_UNIT_ROUNDOFF = 2.0**-53
#: Rows per block when the first change maps are read off the rows.
_ROW_BLOCK = 4096


class _EdgeCandidates:
    """The candidate affixes of the edge-split phase, each with an
    order-free change map that is updated rather than rebuilt, and a
    filter that scores them all at once.

    Candidate ``c`` is the key ``keys[c]`` (``(position, affix)``) with
    host words ``hosts[c]`` in ``analyses`` order; ``index[position]``
    maps the affix of every live candidate (at least two hosts) to ``c``.
    Its change map ``maps[c]``, ``{segment id: count delta}`` of splitting
    the affix off every host without zero entries, and ``added[c]``, the
    map's total, hold the same changes as ``_split_changes`` would give, in
    another order.  A dead candidate's map is empty and its total 0.

    The candidates start from whole words (``_first_rows``): every key, host
    list and first change row comes from one numpy pass over the words'
    proper prefixes and suffixes, and the maps are read off those rows.
    After that, ``flush`` copies the maps into the three parallel ``int64``
    row arrays ``cand``, ``seg`` and ``delta``, one row ``(candidate,
    segment id, delta)`` per map entry: it keeps the rows of the candidates
    unchanged since the last flush and appends those of the changed ones.
    The counts of the current segments, every word whole at the start,
    are kept by id in the ``int64`` vector ``counts``, so ``shortlist``
    scores every candidate with a few numpy passes over the rows and no
    Python loop over candidates.  The table ``ids`` and that vector
    outlive the phase: training goes on with them.
    """

    def __init__(self, words, freqs, char_cost):
        self.freqs = freqs
        self.char_cost = char_cost
        self.ids = _SegmentIds()
        # by segment id, grown lazily up to len(ids)
        self.counts = np.zeros(0, dtype=np.int64)
        self.cost = np.zeros(0)  # (len + 1) * char_cost
        self.synced = 0
        # x log x of every count and total a split can reach (each word
        # has at most as many segments as characters): a list for
        # _split_delta, and the same values as an array for scores
        self.xlogx = _xlogx_table(sum(freqs[w] * len(w) for w in words) + 1)
        self.xlogx_array = np.array(self.xlogx)

        self.keys: list[tuple[str, str]] = []
        self.hosts: list[list[str]] = []
        self.index: dict[str, dict[str, int]] = {}
        self.cand, self.seg, self.delta = self._first_rows(words)
        num = len(self.keys)
        self.added = np.bincount(self.cand, self.delta, num).astype(np.int64)
        rows = np.bincount(self.cand, minlength=num)
        self.factor = 8.0 * _UNIT_ROUNDOFF * (rows + 4)  # of the error bound
        self.penalty = np.zeros(num)  # inf once dead
        # The maps hold the id table's own int objects rather than copies,
        # and the rows are read a block at a time, so that no list holds a
        # new int object for every row.
        own = np.array(list(self.ids.values()), dtype=object)
        items = chain.from_iterable(
            zip(own[self.seg[i : i + _ROW_BLOCK]].tolist(), self.delta[i : i + _ROW_BLOCK].tolist())
            for i in range(0, len(self.seg), _ROW_BLOCK)
        )
        self.maps: list[dict[int, int]] = [dict(islice(items, n)) for n in rows.tolist()]
        self.dirty: set[int] = set()
        self.add_counts(words, [freqs[w] for w in words])

    def _first_rows(self, words):
        """Fill ``keys``, ``hosts`` and ``index`` for ``words``, each still
        one whole-word segment, and return their change rows ``(cand, seg,
        delta)`` by candidate, then segment id, without zero rows.

        Every word is its own edge on both sides, so it hosts the keys of
        its proper prefixes and suffixes.  Entry ``r`` of ``prefixes`` and
        ``suffixes`` is one such affix of word ``host[r]``, word by word
        and shortest first; the stem that splitting it off leaves is the
        word's affix of the other side at ``mirror[r]``.
        """
        ids = self.ids
        # ids in order of first lookup, as __missing__ hands them out from
        # the empty table, but without a Python call per new affix; their
        # names follow
        intern = ids.setdefault
        prefixes = np.array([intern(w[:k], len(ids)) for w in words for k in range(1, len(w))], dtype=np.int32)
        suffixes = np.array([intern(w[-k:], len(ids)) for w in words for k in range(1, len(w))], dtype=np.int32)
        ids.names.extend(ids)
        per_word = np.array([len(w) - 1 for w in words])
        host = np.repeat(np.arange(len(words)), per_word)
        mirror = np.repeat(2 * np.cumsum(per_word) - per_word - 1, per_word) - np.arange(len(host))
        edge = np.repeat(np.array([ids[w] for w in words], dtype=np.int32), per_word)
        freq = np.repeat(np.array([self.freqs[w] for w in words], dtype=np.int64), per_word)
        word_array = np.array(words, dtype=object)
        size = len(ids)

        # one side at a time, so that a side's temporaries are freed
        # before the next side's are made
        def side(position, affixes, stems):
            # a key never gains hosts, so one with a single host is never a
            # candidate; rows are the live keys' rows, key by key in word order
            hosts = np.bincount(affixes, minlength=size)
            order = np.argsort(affixes, kind="stable")
            rows = order[hosts[affixes[order]] > 1]
            live = np.flatnonzero(hosts > 1)
            hosts = hosts[live]
            first = len(self.keys)
            names = [ids.names[i] for i in live.tolist()]
            self.index[position] = dict(zip(names, range(first, first + len(names))))
            self.keys += [(position, affix) for affix in names]
            hosted = word_array[host[rows]].tolist()
            bounds = np.cumsum(hosts).tolist()
            self.hosts += [hosted[a:b] for a, b in zip([0, *bounds], bounds)]
            # each host's changes, edge -f, stem +f and affix +f, summed
            # per (candidate, segment id), numbered candidate * size + id
            pair = np.concatenate([edge[rows], stems[mirror[rows]], affixes[rows]], dtype=np.int64)
            pair += np.tile(np.repeat(np.arange(first, len(self.keys)) * size, hosts), 3)
            f = freq[rows]
            order = np.argsort(pair, kind="stable")
            pair = pair[order]
            delta = np.concatenate([-f, f, f])[order]
            starts = np.flatnonzero(np.diff(pair, prepend=-1))
            pair, delta = pair[starts], np.add.reduceat(delta, starts)
            return pair[delta != 0], delta[delta != 0]

        suffix_pairs, suffix_deltas = side("suffix", suffixes, prefixes)
        prefix_pairs, prefix_deltas = side("prefix", prefixes, suffixes)
        cand, seg = np.divmod(np.concatenate([suffix_pairs, prefix_pairs]), size)
        return cand, seg, np.concatenate([suffix_deltas, prefix_deltas])

    def rewrite(self, w, position, old_edge, new_edge):
        """Update the maps of every live key of ``old_edge`` after host
        word ``w``'s ``position`` edge became ``new_edge``, a prefix or
        suffix of ``old_edge`` on the same side.  The word keeps the keys
        shorter than ``new_edge`` and leaves the longer ones; a key left
        with fewer than two hosts dies.

        A key's hosts are the words whose edge is longer than it and ends
        (suffix) or starts (prefix) with it, so a longer key of the same
        edge has a subset of them: the keys past the first dead one are
        dead too.  The one exception is the key a move splits off: the
        move kills it before rewriting its hosts, whose new edge it then
        is, so the dead key as long as the new edge is passed over."""
        f = self.freqs[w]
        ids, index, maps = self.ids, self.index[position], self.maps
        suffix = position == "suffix"
        old_id, new_id, kept = ids[old_edge], ids[new_edge], len(new_edge)
        for k in range(1, len(old_edge)):
            affix = old_edge[-k:] if suffix else old_edge[:k]
            c = index.get(affix)
            if c is None:
                if k == kept:
                    continue
                break
            self.dirty.add(c)
            # the host's old changes were: edge -f, stem +f, affix +f
            if k < kept:
                # out with the old ones, in with the new; the affix's +f stays
                changes = (
                    (old_id, f),
                    (ids[old_edge[:-k] if suffix else old_edge[k:]], -f),
                    (new_id, -f),
                    (ids[new_edge[:-k] if suffix else new_edge[k:]], f),
                )
            else:
                words = self.hosts[c]
                words.remove(w)
                self.added[c] -= f
                if len(words) < 2:
                    self.kill(c)
                    continue
                changes = ((old_id, f), (ids[old_edge[:-k] if suffix else old_edge[k:]], -f), (ids[affix], -f))
            m = maps[c]
            for i, dc in changes:
                v = m.get(i, 0) + dc
                if v:
                    m[i] = v
                else:
                    del m[i]

    def kill(self, c):
        """Take candidate ``c`` out of play."""
        position, affix = self.keys[c]
        del self.index[position][affix]
        self.maps[c] = {}
        self.added[c] = 0
        self.penalty[c] = math.inf
        self.dirty.add(c)

    def add_counts(self, segments, deltas):
        """Add ``deltas`` to the counts of the distinct ``segments``, once
        the vectors by segment id reach every id handed out so far.  The
        constructor and each move end here, so ``scores`` finds them grown."""
        ids = [self.ids[s] for s in segments]
        n = len(self.ids)
        if n > len(self.counts):
            size = max(n, 2 * len(self.counts))
            self.counts = np.concatenate([self.counts, np.zeros(size - len(self.counts), dtype=np.int64)])
            self.cost = np.concatenate([self.cost, np.zeros(size - len(self.cost))])
        self.cost[self.synced : n] = [(len(s) + 1) * self.char_cost for s in self.ids.names[self.synced : n]]
        self.synced = n
        self.counts[ids] += deltas

    def flush(self):
        """Rebuild the rows: those of the candidates unchanged since the
        last flush, then the current maps of the changed ones."""
        if not self.dirty:
            return
        cands = np.fromiter(self.dirty, dtype=np.int64, count=len(self.dirty))
        self.dirty.clear()
        unchanged = np.ones(len(self.keys), dtype=bool)
        unchanged[cands] = False
        keep = unchanged[self.cand]
        maps = [self.maps[c] for c in cands.tolist()]
        sizes = np.array([len(m) for m in maps], dtype=np.int64)
        n = int(sizes.sum())
        self.cand = np.concatenate([self.cand[keep], np.repeat(cands, sizes)])
        self.seg = np.concatenate(
            [self.seg[keep], np.fromiter(chain.from_iterable(maps), dtype=np.int64, count=n)]
        )
        self.delta = np.concatenate(
            [self.delta[keep], np.fromiter(chain.from_iterable([m.values() for m in maps]), dtype=np.int64, count=n)]
        )
        self.factor[cands] = 8.0 * _UNIT_ROUNDOFF * (sizes + 4)

    def scores(self, total: int) -> tuple[np.ndarray, np.ndarray]:
        """Every candidate's approximate delta given the segment ``total``,
        and a bound ``E_c`` on its distance from the exact
        ``_split_delta``; both are meaningful for live candidates only.

        The approximation works from the candidate's rows, with the same
        ``x log x`` table as ``_split_delta`` but another summation order.
        Let ``u = 2**-53`` and ``M_c`` be the sum of every ``x log x``
        value (old and new count of each of the ``n_c`` segments, old and
        new total) and lexicon cost involved.  Higham, *Accuracy and
        Stability of Numerical Algorithms* (2002), ch. 4, bounds the
        rounding error of a sum of ``m`` terms by ``(m - 1) u`` times the
        sum of their magnitudes.  ``_split_delta`` adds at most ``2 n_c +
        2`` terms, each within ``3 u`` of its share of ``M_c``, so it is
        within ``(2 n_c + 4) u M_c`` of the real delta; the approximation,
        with the same terms and ``n_c`` rows summed, within ``(n_c + 8) u
        M_c``.  ``E_c = 8 (n_c + 4) u M_c`` covers both with room to spare.
        """
        cand, seg = self.cand, self.seg
        xlogx = self.xlogx_array
        old = self.counts[seg]
        new = old + self.delta
        x_old, x_new = xlogx[old], xlogx[new]
        # +1 where a segment enters the lexicon, -1 where one leaves it
        sign = (old == 0).view(np.int8) - (new == 0).view(np.int8)
        # the table can be long: keep the temporaries few, and work in place
        del old, new
        cost = self.cost[seg]
        lexicon = cost * sign
        del sign
        num = len(self.keys)
        cost += x_old
        cost += x_new
        scale = np.bincount(cand, cost, num)
        x_new -= x_old
        x_new -= lexicon
        terms = np.bincount(cand, x_new, num)
        x_total = xlogx[total]
        x_after = xlogx[total + self.added]
        return x_after - x_total - terms, self.factor * (scale + x_after + x_total)

    def shortlist(self, total: int) -> list[int]:
        """The live candidates whose exact ``_split_delta`` may be the
        smallest one below ``-1e-9``: those with ``approx_c - E_c <
        -1e-9`` and ``approx_c - E_c <= min(approx + E)``.

        The exact winner ``w`` is always among them.  Its exact delta is
        below ``-1e-9`` and at least ``approx_w - E_w``.  It is also at
        most the exact delta of the candidate with the least ``approx +
        E`` when that one is below ``-1e-9``, and below that candidate's
        when not, so ``approx_w - E_w <= min(approx + E)`` either way.
        """
        if not (self.index["suffix"] or self.index["prefix"]):
            return []
        approx, bound = self.scores(total)
        low = approx - bound + self.penalty
        least = (approx + bound + self.penalty).min()
        # low <= least < -1e-9, or low < -1e-9 <= least
        return np.flatnonzero(low <= least if least < -1e-9 else low < -1e-9).tolist()


def _edge_split_phase(analyses, freqs, char_cost):
    """Greedy batch splitting of shared word-edge material.

    Each move picks one candidate affix (a proper prefix of some first
    segment or suffix of some last segment, shared by at least two word
    types) and splits it off of every word it applies to, provided the
    move lowers the total description length (``_split_delta``).  Batch
    application is what lets shared affixes pay for themselves on small
    corpora.

    The move taken is the smallest ``(_split_delta, position rank,
    affix)`` with a delta below ``-1e-9``, a key unique per candidate.  It
    is found by filter-then-verify, the floating-point filter of Shewchuk
    ("Adaptive Precision Floating-Point Arithmetic and Fast Robust
    Geometric Predicates", 1997): ``_EdgeCandidates.shortlist`` scores
    every candidate approximately, with a proven error bound, and only
    the shortlisted ones, which always include the winner, get their
    ordered ``_split_changes`` list and exact ``_split_delta``.  The
    approximate side is incremental: the host index ``{(position, affix):
    [host words]}`` is built once and only ever shrinks, because a move
    replaces a word's edge by that edge's own prefix or suffix on the same
    side, so the word keeps the keys shorter than its new edge and leaves
    the longer ones; each rewritten edge moves its old contribution out of
    the change maps of its keys and its new one in.

    The phase starts from whole words: ``analyses`` maps every word to
    the one-segment tuple of itself (ValueError otherwise), so the first
    host index and change maps are built in one bulk pass over the words'
    proper prefixes and suffixes (``_EdgeCandidates``).  Rewrites
    ``analyses`` in place and returns the phase's segment table, the
    segment counts of ``analyses`` as a vector by its ids, the number of
    moves made and whether ``MAX_EDGE_SPLIT_MOVES`` stopped it with a
    move left.
    """
    if any(segs != (w,) for w, segs in analyses.items()):
        raise ValueError("the edge-split phase starts from whole words")
    total = sum(freqs[w] for w in analyses)
    candidates = _EdgeCandidates(list(analyses), freqs, char_cost)
    ids = candidates.ids

    moves = 0
    while True:
        best = None
        for c in candidates.shortlist(total):
            key = candidates.keys[c]
            changes = _split_changes(*key, candidates.hosts[c], analyses, freqs)
            d = _split_delta(*changes, ids, candidates.counts, total, char_cost, candidates.xlogx)
            if d >= -1e-9:
                continue
            candidate = (d, 0 if key[0] == "suffix" else 1, key[1])
            if best is None or candidate < best[0]:
                best = candidate, changes
        if best is None or moves == MAX_EDGE_SPLIT_MOVES:
            return ids, candidates.counts[: len(ids)], moves, best is not None
        moves += 1

        (_, pos_rank, affix), (added, segments, deltas) = best
        position, other = ("suffix", "prefix") if pos_rank == 0 else ("prefix", "suffix")
        # every host leaves the key the move splits off, so it dies now
        winner = candidates.index[position][affix]
        candidates.kill(winner)
        for w in candidates.hosts[winner]:
            segs = analyses[w]
            if pos_rank == 0:
                edge, stem = segs[-1], segs[-1][: -len(affix)]
                analyses[w] = segs[:-1] + (stem, affix)
            else:
                edge, stem = segs[0], segs[0][len(affix):]
                analyses[w] = (affix, stem) + segs[1:]
            candidates.rewrite(w, position, edge, affix)
            if len(segs) == 1:
                candidates.rewrite(w, other, edge, stem)
        # the winner's changes are the move's
        total += added
        candidates.add_counts(segments, deltas)
        candidates.flush()


def _reanalyze(analyses, new, freqs, ids, counts):
    """Give each word of ``new`` its segments there in ``analyses``, and
    move the word's frequency in ``counts``, a vector by the ids of the
    table ``ids``, from its old segments to its new ones."""
    touched, deltas = [], []
    for w, segs in new.items():
        old, analyses[w] = analyses[w], segs
        touched += [ids[s] for s in old + segs]
        deltas += [-freqs[w]] * len(old) + [freqs[w]] * len(segs)
    np.add.at(counts, np.array(touched, dtype=np.intp), deltas)


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
    ids, counts, moves, capped = _edge_split_phase(analyses, freqs, char_cost)
    if capped:
        log.warning(
            "%s: edge-split phase stopped at its cap of %d moves with a move left",
            language or "<unnamed>", MAX_EDGE_SPLIT_MOVES,
        )

    # The phase's table gains the rest of the event space; its longer
    # entries, whole words and stems, stay outside it.
    lattice = _Lattice(types, max_segment_len, ids)
    vocab_size = sum(len(s) <= max_segment_len for s in ids.names)
    counts = np.concatenate([counts, np.zeros(len(ids) - len(counts), dtype=np.int64)])
    # Anything still longer than the segment cap is chunked so that every
    # counted segment lives inside the smoothing event space.
    chunked = {
        w: tuple(s[i : i + max_segment_len] for s in segs for i in range(0, len(s), max_segment_len))
        for w, segs in analyses.items()
        if max(map(len, segs)) > max_segment_len
    }
    _reanalyze(analyses, chunked, freqs, ids, counts)

    # Each pass decodes every word in one batch; only the words whose cuts
    # changed are re-counted.
    masks = lattice.masks_of(analyses.values())
    converged = True
    for passes in range(1, max_iters + 1):
        denom = int(counts.sum()) + alpha * vocab_size
        _, new_masks = lattice.decode(_count_log_probs(counts, alpha, denom))
        changed = np.flatnonzero((new_masks != masks).any(axis=1))
        if not changed.size:
            break
        masks = new_masks
        new = {types[k]: lattice.split(k, row) for k, row in zip(changed.tolist(), masks[changed].tolist())}
        _reanalyze(analyses, new, freqs, ids, counts)
    else:
        converged = False
        log.warning(
            "%s: hard EM stopped at max_iters=%d before the segmentations converged",
            language or "<unnamed>", max_iters,
        )

    used = np.flatnonzero(counts)
    model = SegmentModel(
        language=language,
        alpha=alpha,
        counts=Counter(dict(zip([ids.names[i] for i in used.tolist()], counts[used].tolist()))),
        total=int(counts.sum()),
        vocab_size=vocab_size,
        segmentations=analyses,
    )
    model.edge_split_moves = moves
    model.edge_split_capped = capped
    model.em_passes = passes
    model.converged = converged
    return model


@dataclass(frozen=True)
class AffixThresholds:
    """Classification knobs for discovered affixes."""

    min_support: int = 2
    color_coverage_min: float = 0.2
    specificity_ratio: float = 5.0
    general_global_min: float = 0.1


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


def _edge_counts(words, keys) -> dict[tuple[str, int], Counter]:
    """For each ``(position, n)`` of ``keys``, how many of ``words``
    start (``"prefix"``) or end (``"suffix"``) with each string of ``n``
    characters.  A word shorter than ``n`` is counted under itself, which
    no string of ``n`` characters matches."""
    return {
        (position, n): Counter(map(itemgetter(slice(None, n) if position == "prefix" else slice(-n, None)), words))
        for position, n in keys
    }


def classify_affix(color_coverage: float, global_coverage: float,
                   thresholds: AffixThresholds) -> str:
    if color_coverage >= thresholds.color_coverage_min:
        ratio = color_coverage / max(global_coverage, 1e-9)
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

    A candidate is the first (prefix) or last (suffix) segment of the
    multi-segment training segmentation (``model.segmentations``) of at
    least ``min_support`` distinct color words.  Coverage is then the
    number of word types that start or end with the form (plain string
    match, so it can be re-checked without the model), counted from one
    pass over every type's prefixes and suffixes of the forms' lengths.
    Raises ValueError for an untrained model or a color word the model
    was not trained on.
    """
    if not model.counts:
        raise ValueError("model is untrained")
    color_types = sorted(set(color_words))
    all_types = sorted(set(all_words))
    if not color_types:
        return []
    unknown = [w for w in color_types if w not in model.segmentations]
    if unknown:
        raise ValueError(
            f"color words not among the training words of {model.language or '<unnamed>'}: "
            + ", ".join(map(repr, unknown))
        )

    support: Counter = Counter()
    for word in color_types:
        segs = model.segmentations[word]
        if len(segs) > 1:
            support[("prefix", segs[0])] += 1
            support[("suffix", segs[-1])] += 1

    found = [key for key, count in support.items() if count >= thresholds.min_support]
    lengths = {(position, len(form)) for position, form in found}
    color_edges = _edge_counts(color_types, lengths)
    all_edges = _edge_counts(all_types, lengths)
    affixes = []
    for position, form in found:
        cc = color_edges[position, len(form)][form] / len(color_types)
        gc = all_edges[position, len(form)][form] / len(all_types) if all_types else 0.0
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
    strongly associated with the ``PRESENCE_TOP_COLORS`` top-ranked colors.

    Returns (scores, missing): colors without any translation pair score
    0.0 and are flagged missing.  Raises ValueError when the bootstrap
    ranking has fewer entries than that.
    """
    ranking = list(bootstrap_ranking)
    if len(ranking) < PRESENCE_TOP_COLORS:
        raise ValueError(f"bootstrap ranking must contain at least {PRESENCE_TOP_COLORS} colors")
    strong = strong_suffixes(translations, segmentations, ranking[:PRESENCE_TOP_COLORS], min_support)

    scores: dict[str, float] = {}
    missing: set[str] = set()
    for color in colors:
        pairs = translations.get(color, [])
        if not pairs:
            scores[color] = 0.0
            missing.add(color)
            continue
        matches = 0
        for pair in pairs:
            # most languages have no strong suffix, and their pairs need
            # no segmentation
            suffixes = strong.get(pair[0])
            if suffixes:
                segs = segmentations.get(pair)
                if segs and len(segs) >= 2 and segs[-1] in suffixes:
                    matches += 1
        scores[color] = matches / len(pairs)
    return scores, missing

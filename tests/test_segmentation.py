import hashlib
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from colorbasis import segmentation
from colorbasis.segmentation import (
    Affix,
    AffixThresholds,
    SegmentModel,
    affix_presence_feature,
    classify_affix,
    discover_affixes,
    segment_probability,
    train_segmenter,
    viterbi_segment,
)
from conftest import artifacts


# ---------------------------------------------------------------------------
# oracles


def all_segmentations(word):
    n = len(word)
    for mask in range(2 ** (n - 1)):
        segs, start = [], 0
        for pos in range(1, n):
            if mask & (1 << (pos - 1)):
                segs.append(word[start:pos])
                start = pos
        segs.append(word[start:])
        yield tuple(segs)


def exhaustive_best(prob, word):
    """Argmax over every segmentation, applying the documented tie-break:
    highest log-probability, then fewest segments, then smallest list."""
    best = None
    for segs in all_segmentations(word):
        lp = 0.0
        ok = True
        for s in segs:
            p = prob(s)
            if p <= 0.0:
                ok = False
                break
            lp += math.log(p)
        if not ok:
            continue
        cand = (lp, len(segs), segs)
        if best is None:
            best = cand
        elif cand[0] > best[0]:
            best = cand
        elif cand[0] == best[0] and cand[1] < best[1]:
            best = cand
        elif cand[0] == best[0] and cand[1] == best[1] and cand[2] < best[2]:
            best = cand
    return best


# ---------------------------------------------------------------------------
# MAP probabilities


def _model(counts, vocab, alpha=0.01):
    c = Counter(counts)
    return SegmentModel(
        alpha=alpha, counts=c, total=sum(c.values()), vocab_size=len(vocab)
    )


def test_map_worked_example():
    model = _model({"a": 3, "b": 1}, {"a", "b"})
    assert segment_probability(model, "a") == pytest.approx(3.01 / 4.02, rel=1e-12)
    assert segment_probability(model, "a") == pytest.approx(0.748756218905473, rel=1e-12)


def test_map_unseen_mass():
    model = _model({"a": 3, "b": 1}, {"a", "b"})
    assert segment_probability(model, "z") == pytest.approx(0.01 / 4.02, rel=1e-12)
    assert segment_probability(model, "z") == pytest.approx(0.0024875621890547, rel=1e-10)


def test_map_large_alpha_approaches_uniform():
    model = _model({"a": 5, "b": 5}, {"a", "b"}, alpha=1e9)
    assert segment_probability(model, "a") == pytest.approx(0.5, abs=1e-8)
    assert segment_probability(model, "b") == pytest.approx(0.5, abs=1e-8)


def test_map_empty_segment_rejected():
    model = _model({"a": 1}, {"a"})
    with pytest.raises(ValueError):
        segment_probability(model, "")


def test_map_event_space_sums_to_one():
    words = ["redish", "bluish", "greenish"]
    model = train_segmenter(words)
    total = sum(segment_probability(model, s) for s in _substring_vocab(words, 8))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_stored_probabilities_in_unit_interval():
    model = train_segmenter(["redish", "bluish", "greenish"])
    for segment in model.counts:
        assert 0.0 < segment_probability(model, segment) <= 1.0


# ---------------------------------------------------------------------------
# Viterbi decoding


def test_viterbi_prefers_higher_probability_split():
    seg = viterbi_segment({"ab": 0.5, "c": 0.5, "abc": 0.2}, "abc")
    assert seg.segments == ("ab", "c")
    assert seg.log_prob == pytest.approx(math.log(0.25))


def test_viterbi_single_character():
    seg = viterbi_segment({"a": 0.9}, "a")
    assert seg.segments == ("a",)


def test_viterbi_uniform_probabilities_keep_word_whole():
    word = "abcde"
    probs = {word[i:j]: 0.3 for i in range(5) for j in range(i + 1, 6)}
    assert viterbi_segment(probs, word).segments == (word,)


def test_viterbi_empty_word_rejected():
    with pytest.raises(ValueError):
        viterbi_segment({"a": 1.0}, "")


def test_viterbi_inadmissible_word_rejected():
    with pytest.raises(ValueError):
        viterbi_segment({"a": 0.5}, "ab")


def test_viterbi_tie_breaks_lexicographically():
    # both two-way splits have identical probability
    probs = {"a": 0.25, "b": 0.25, "ab": 0.25, "ba": 0.25, "aba": 0.01}
    seg = viterbi_segment(probs, "aba")
    assert seg.segments == ("a", "ba")  # ('a','ba') < ('ab','a')


def test_viterbi_respects_segment_cap():
    probs = {"abcd": 0.9, "ab": 0.1, "cd": 0.1}
    assert viterbi_segment(probs, "abcd").segments == ("abcd",)
    capped = viterbi_segment(probs, "abcd", max_segment_len=2)
    assert capped.segments == ("ab", "cd")


def _random_prob_table(rng, word, style):
    subs = {word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)}
    table = {}
    for s in sorted(subs):
        if style == "uniform":
            table[s] = 0.25
        elif style == "dyadic":
            table[s] = rng.choice([0.5, 0.25, 0.125, 0.0625])
        else:
            table[s] = rng.uniform(0.01, 0.99)
        if style == "sparse" and rng.random() < 0.4 and len(s) > 1:
            del table[s]
    return table


@pytest.mark.parametrize("style", ["uniform", "dyadic", "random", "sparse"])
def test_viterbi_matches_exhaustive_enumeration(style):
    rng = random.Random(f"viterbi-{style}")
    for _ in range(40):
        n = rng.randint(1, 10)
        word = "".join(rng.choice("ab") for _ in range(n))
        table = _random_prob_table(rng, word, style)
        expected = exhaustive_best(lambda s: table.get(s, 0.0), word)
        if expected is None:
            with pytest.raises(ValueError):
                viterbi_segment(table, word)
            continue
        seg = viterbi_segment(table, word)
        assert seg.segments == expected[2]
        assert seg.log_prob == expected[0]


@given(st.text("ab", min_size=1, max_size=9), st.integers(0, 2**30 - 1))
def test_viterbi_matches_exhaustive_on_smoothed_models(word, seed):
    rng = random.Random(seed)
    subs = sorted({word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)})
    counts = Counter({s: rng.randint(0, 5) for s in subs})
    model = _model(counts, subs)
    expected = exhaustive_best(lambda s: segment_probability(model, s), word)
    seg = viterbi_segment(model, word)
    assert seg.segments == expected[2]


@given(st.text("abc", min_size=1, max_size=12))
def test_viterbi_concatenation_invariant(word):
    model = _model({c: 1 for c in set(word)}, set(word))
    seg = viterbi_segment(model, word)
    assert "".join(seg.segments) == word
    assert all(seg.segments)


# ---------------------------------------------------------------------------
# the batched decoder against the scalar Viterbi recursion


def scalar_viterbi(table, default, word, max_segment_len):
    """Best ``(-log-prob, segment count, segments)`` for ``word``, or None
    when no segmentation is admissible: the per-word decoder the batched
    one replaced, over the same ``_log_prob_table`` values."""
    n = len(word)
    best = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for j in range(1, n + 1):
        top = None
        for i in range(0 if max_segment_len is None else max(0, j - max_segment_len), j):
            prev = best[i]
            if prev is None:
                continue
            segment = word[i:j]
            lp = table.get(segment, default)
            if lp is None:
                continue
            score = prev[0] - lp
            if top is not None and score > top[0]:
                continue
            cand = (score, prev[1] + 1, prev[2] + (segment,))
            if top is None or cand < top:
                top = cand
        best[j] = top
    return best[n]


def _random_decoder_model(rng, words, kind):
    """A SegmentModel over the words' short substrings, or a plain mapping
    that leaves some of them out (inadmissible); "dyadic" draws from a few
    powers of two, so that equal scores are common."""
    subs = sorted({
        w[i:j] for w in words for i in range(len(w)) for j in range(i + 1, min(len(w), i + 8) + 1)
    })
    if kind == "model":
        counts = Counter({s: rng.randint(1, 6) for s in subs if rng.random() < 0.3})
        return _model(counts, subs, alpha=rng.choice([0.01, 0.5, 2.0]))
    table = {}
    for s in subs:
        if len(s) > 1 and rng.random() < 0.3:
            continue
        if kind == "dyadic":
            table[s] = rng.choice([0.5, 0.25, 0.125, 1.0])
        else:
            table[s] = rng.uniform(0.01, 0.99)
    return table


decoder_words = st.lists(
    st.one_of(st.text("ab", min_size=1, max_size=12), st.text("abc", min_size=65, max_size=200)),
    min_size=1,
    max_size=8,
)


@given(
    decoder_words,
    st.integers(0, 2**30 - 1),
    st.sampled_from(["model", "mapping", "dyadic"]),
    st.sampled_from([None, 1, 8]),
)
def test_batched_decoder_matches_scalar_viterbi(words, seed, kind, cap):
    model = _random_decoder_model(random.Random(seed), words, kind)
    table, default = segmentation._log_prob_table(model)
    lattice = segmentation._Lattice(words, cap)
    scores, masks = lattice.decode(lattice.log_probs(model))
    for k, word in enumerate(words):
        expected = scalar_viterbi(table, default, word, cap)
        if expected is None:
            assert scores[k] == math.inf
            with pytest.raises(ValueError):
                viterbi_segment(model, word, cap)
            continue
        assert float(scores[k]).hex() == expected[0].hex()
        assert lattice.split(k, masks[k].tolist()) == expected[2]
        seg = viterbi_segment(model, word, cap)
        assert seg.segments == expected[2]
        assert seg.log_prob.hex() == (0.0 - expected[0]).hex()


def test_batched_decoder_breaks_ties_past_64_characters():
    # every segmentation scores 0.0; the fewest segments put one "a" among
    # the "aa"s, and the earliest first cut puts it first, at position 70
    word = "x" * 70 + "a" * 11
    probs = {"x": 1.0, "a": 1.0, "aa": 1.0}
    expected = ("x",) * 70 + ("a",) + ("aa",) * 5
    assert scalar_viterbi(*segmentation._log_prob_table(probs), word, None)[2] == expected
    seg = viterbi_segment(probs, word)
    assert seg.segments == expected
    assert seg.log_prob.hex() == (0.0).hex()


def test_train_matches_reference_with_words_past_64_characters():
    long_words = ["kalo" * 20 + "ish", "re" + "mirantal" * 16, "kalo" * 20 + "ish"]
    words = _golden_words(60, seed=7) + long_words
    model = train_segmenter(words)
    assert model.segmentations == reference_train(words)
    assert model.vocab_size == len(_substring_vocab(sorted(set(words)), 8))
    segs = model.segmentations["re" + "mirantal" * 16]
    assert len("".join(segs[:-1])) > 64  # the last cut lies past position 64


# ---------------------------------------------------------------------------
# training


def test_train_single_type_stays_whole():
    model = train_segmenter(["ab"] * 10)
    assert viterbi_segment(model, "ab").segments == ("ab",)
    assert model.counts == Counter({"ab": 10})


def test_train_shared_suffix_emerges():
    model = train_segmenter(["redish", "bluish", "greenish"])
    ish_like = {
        s: c for s, c in model.counts.items() if c >= 2 and ("ish" in s or s == "sh")
    }
    assert ish_like, f"no shared suffix in {dict(model.counts)}"
    # counts must re-derive exactly from the stored segmentations
    rederived = Counter()
    for word, segs in model.segmentations.items():
        assert "".join(segs) == word
        for s in segs:
            rederived[s] += 1
    assert rederived == model.counts


def test_train_validates_inputs():
    with pytest.raises(ValueError):
        train_segmenter([])
    with pytest.raises(ValueError):
        train_segmenter(["ab"], alpha=0.0)
    with pytest.raises(ValueError):
        train_segmenter(["ab"], max_iters=0)
    with pytest.raises(ValueError):
        train_segmenter(["ab", ""])
    with pytest.raises(ValueError):
        train_segmenter(["\x02\x03"])


def test_train_order_independent():
    words = ["redish", "bluish", "greenish", "red", "blue", "green", "ish"]
    rng = random.Random(3)
    shuffled = list(words)
    rng.shuffle(shuffled)
    m1 = train_segmenter(words)
    m2 = train_segmenter(shuffled)
    assert m1.counts == m2.counts
    assert m1.segmentations == m2.segmentations


def test_train_long_words_stay_in_event_space():
    words = ["abcdefghijkl", "zzzzzzzzzzzz"]
    model = train_segmenter(words, max_segment_len=8)
    assert all(len(s) <= 8 for s in model.counts)
    assert set(model.counts) <= _substring_vocab(words, 8)


def test_train_reports_em_cap(caplog):
    words = _golden_words(60, seed=5)
    assert train_segmenter(words).em_passes > 1  # needs more than one pass
    with caplog.at_level("WARNING", logger="colorbasis.segmentation"):
        model = train_segmenter(words, max_iters=1, language="xx")
    assert (model.em_passes, model.converged) == (1, False)
    assert "xx: hard EM stopped at max_iters=1" in caplog.text


def test_train_reports_edge_split_cap(monkeypatch, caplog):
    words = ["redish", "bluish", "greenish", "reddish", "blueness", "greenness"]
    assert train_segmenter(words).edge_split_moves > 1
    monkeypatch.setattr(segmentation, "MAX_EDGE_SPLIT_MOVES", 1)
    with caplog.at_level("WARNING", logger="colorbasis.segmentation"):
        model = train_segmenter(words, language="xx")
    assert model.edge_split_moves == 1
    assert "xx: edge-split phase stopped at its cap of 1 moves" in caplog.text


# ---------------------------------------------------------------------------
# reference training: an edge-split phase that rebuilds its host index and
# every change list on every move, a Viterbi decoder that computes each
# substring's log-probability on demand, and the same hard-EM loop


class _ReferenceCost:
    def __init__(self, char_cost):
        self.char_cost = char_cost
        self.counts = Counter()
        self.total = 0

    def add(self, segment, freq):
        self.counts[segment] += freq
        if self.counts[segment] == 0:
            del self.counts[segment]
        self.total += freq

    def delta(self, changes):
        def xlogx(v):
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


def reference_edge_split(analyses, freqs, char_cost, max_moves=10000):
    cost = _ReferenceCost(char_cost)
    for w, segs in analyses.items():
        for s in segs:
            cost.add(s, freqs[w])
    moves = 0
    for _ in range(max_moves):
        hosts = {}
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
            changes = Counter()
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
        moves += 1
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
    return analyses, moves


def reference_viterbi(model, word, max_segment_len):
    n = len(word)
    best = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for j in range(1, n + 1):
        for i in range(max(0, j - max_segment_len), j):
            prev = best[i]
            lp = math.log(segment_probability(model, word[i:j]))
            cand = (prev[0] + lp, prev[1] + 1, prev[2] + (word[i:j],))
            b = best[j]
            if (
                b is None
                or cand[0] > b[0]
                or (cand[0] == b[0] and (cand[1] < b[1] or (cand[1] == b[1] and cand[2] < b[2])))
            ):
                best[j] = cand
    return best[n][2]


def _substring_vocab(types, max_len):
    vocab = set()
    for w in types:
        n = len(w)
        for i in range(n):
            for j in range(i + 1, min(n, i + max_len) + 1):
                vocab.add(w[i:j])
    return frozenset(vocab)


def reference_train(words, alpha=0.01, max_iters=20, max_segment_len=8):
    freqs = Counter(words)
    types = sorted(freqs)
    char_cost = math.log(len(set().union(*types)) + 1)
    analyses, _ = reference_edge_split({w: (w,) for w in types}, freqs, char_cost)
    analyses = {
        w: tuple(p for s in segs for p in (s[i:i + max_segment_len] for i in range(0, len(s), max_segment_len)))
        for w, segs in analyses.items()
    }
    model = SegmentModel(alpha=alpha, vocab_size=len(_substring_vocab(types, max_segment_len)))

    def recount(analyses):
        model.counts = Counter()
        for w, segs in analyses.items():
            for s in segs:
                model.counts[s] += freqs[w]
        model.total = sum(model.counts.values())

    recount(analyses)
    for _ in range(max_iters):
        new = {w: reference_viterbi(model, w, max_segment_len) for w in types}
        if new == analyses:
            break
        analyses = new
        recount(analyses)
    return analyses


@given(
    st.dictionaries(st.text("abc", min_size=1, max_size=3), st.integers(1, 40), max_size=12),
    st.lists(st.tuples(st.text("abc", min_size=1, max_size=3), st.integers(-40, 40)), max_size=20),
    st.floats(0.5, 3.0),
)
def test_split_delta_is_bit_identical_to_reference(counts, moves, char_cost):
    reference = _ReferenceCost(char_cost)
    for s, c in counts.items():
        reference.add(s, c)
    changes = Counter()
    for s, dc in moves:
        changes[s] += max(dc, -(counts.get(s, 0) + changes[s]))  # counts stay >= 0
    expected = reference.delta(changes)
    nonzero = [(s, dc) for s, dc in changes.items() if dc]
    # the counts as the phase keeps them: a vector by the ids of a table
    # that lists every segment involved
    ids = segmentation._SegmentIds()
    vector = np.zeros(len(counts.keys() | changes.keys()), dtype=np.int64)
    vector[[ids[s] for s in counts]] = list(counts.values())
    got = segmentation._split_delta(
        sum(changes.values()),
        tuple(s for s, _ in nonzero),
        tuple(dc for _, dc in nonzero),
        ids,
        vector,
        reference.total,
        char_cost,
        # every count and total the changes reach is at most this
        segmentation._xlogx_table(reference.total + sum(abs(dc) for _, dc in nonzero) + 1),
    )
    assert got.hex() == expected.hex()


_STEMS = ["kal", "kalo", "mir", "miran", "sut", "tal", "talo"]
_PREFIXES = ["", "", "re", "ra", "un"]
_SUFFIXES = ["", "", "ish", "is", "ness", "a", "an"]

edge_affixed_words = st.lists(
    st.tuples(st.sampled_from(_PREFIXES), st.sampled_from(_STEMS), st.sampled_from(_SUFFIXES)).map("".join),
    min_size=1,
    max_size=30,
)


@given(edge_affixed_words, st.sampled_from(["suffix", "prefix"]), st.sampled_from(["a", "an", "is", "k", "ra"]))
def test_split_changes_keep_first_touch_order(words, position, affix):
    freqs = Counter(words)
    analyses = {w: (w,) for w in sorted(freqs)}
    hosts = [
        w for w in analyses
        if len(w) > len(affix) and (w.endswith(affix) if position == "suffix" else w.startswith(affix))
    ]
    changes = Counter()
    for w in hosts:
        stem = w[: -len(affix)] if position == "suffix" else w[len(affix):]
        changes[w] -= freqs[w]
        changes[stem] += freqs[w]
        changes[affix] += freqs[w]
    nonzero = [(s, dc) for s, dc in changes.items() if dc]
    added, segments, deltas = segmentation._split_changes(position, affix, hosts, analyses, freqs)
    assert (added, list(zip(segments, deltas))) == (sum(changes.values()), nonzero)


@given(edge_affixed_words)
def test_edge_split_matches_reference(words):
    freqs = Counter(words)
    types = sorted(freqs)
    char_cost = math.log(len(set().union(*types)) + 1)
    analyses = {w: (w,) for w in types}
    expected, expected_moves = reference_edge_split(dict(analyses), freqs, char_cost)
    _, _, moves, capped = segmentation._edge_split_phase(analyses, freqs, char_cost)
    assert analyses == expected
    assert list(analyses) == types
    assert (moves, capped) == (expected_moves, False)


def _char_cost(types):
    return math.log(len(set().union(*types)) + 1)


@pytest.mark.parametrize(
    "text",
    [
        # stems kalo x1, miran x2, kal x2 and sut x1
        "xykalo olakyx xymiran xymiran narimyx narimyx xykal xykal lakyx lakyx xysut tusyx",
        # stems st x2, ioaku x1 and mkrnn x1
        "xyst xyst tsyx tsyx xyioaku ukaoiyx xymkrnn nnrkmyx",
    ],
)
def test_edge_split_breaks_exact_ties_by_position(text):
    # each stem with the prefix xy and mirrored with the suffix yx:
    # splitting off xy or yx has the same delta to the last bit, and the
    # suffix wins on position rank
    freqs = Counter(text.split())
    types = sorted(freqs)
    analyses = {w: (w,) for w in types}
    assert segmentation._edge_split_phase(analyses, freqs, _char_cost(types))[2:] == (1, False)
    assert analyses == {w: (w[:-2], "yx") if w.endswith("yx") else (w,) for w in types}


# each stem once with the prefix xy and once mirrored with the suffix yx,
# both with the same power-of-two frequency
mirrored_words = st.lists(
    st.tuples(st.text("kalmoirnsut", min_size=1, max_size=5), st.integers(0, 3)),
    min_size=1,
    max_size=6,
).map(lambda stems: [w for stem, e in stems for w in ("xy" + stem, stem[::-1] + "yx") for _ in range(2**e)])


@given(mirrored_words)
def test_edge_split_matches_reference_on_mirrored_words(words):
    freqs = Counter(words)
    types = sorted(freqs)
    analyses = {w: (w,) for w in types}
    expected, expected_moves = reference_edge_split(dict(analyses), freqs, _char_cost(types))
    assert segmentation._edge_split_phase(analyses, freqs, _char_cost(types))[2:] == (expected_moves, False)
    assert analyses == expected


@given(edge_affixed_words | mirrored_words)
def test_filter_bound_holds_for_every_candidate_on_every_move(words):
    freqs = Counter(words)
    types = sorted(freqs)
    char_cost = _char_cost(types)
    analyses = {w: (w,) for w in types}
    shortlist = segmentation._EdgeCandidates.shortlist
    calls = []
    # a word never has more segments than characters
    xlogx = segmentation._xlogx_table(sum(freqs[w] * len(w) for w in types) + 1)

    def checked_shortlist(self, total):
        counts = Counter()
        for w, segs in analyses.items():
            for s in segs:
                counts[s] += freqs[w]
        assert sum(counts.values()) == total
        vector = np.zeros(len(self.ids), dtype=np.int64)
        vector[[self.ids[s] for s in counts]] = list(counts.values())
        assert vector.tolist() == self.counts[: len(self.ids)].tolist()
        approx, bound = self.scores(total)
        for c, key in enumerate(self.keys):
            if key[1] not in self.index[key[0]]:
                continue
            changes = segmentation._split_changes(*key, self.hosts[c], analyses, freqs)
            exact = segmentation._split_delta(*changes, self.ids, vector, total, char_cost, xlogx)
            assert abs(approx[c] - exact) <= bound[c]
        calls.append(total)
        return shortlist(self, total)

    with mock.patch.object(segmentation._EdgeCandidates, "shortlist", checked_shortlist):
        _, _, moves, _ = segmentation._edge_split_phase(analyses, freqs, char_cost)
    assert len(calls) == moves + 1


@given(edge_affixed_words | mirrored_words)
# a zero row in two maps: in the key a, the edge kala cancels kalaa's stem
# kala, and in the key re, the edge rekal cancels rerekal's stem rekal
@example(["kal", "kala", "kalaa", "rekal", "rerekal"])
def test_flushed_rows_hold_the_current_maps(words):
    # checked right after the bulk start and after every flush
    freqs = Counter(words)
    types = sorted(freqs)
    analyses = {w: (w,) for w in types}
    init = segmentation._EdgeCandidates.__init__
    flush = segmentation._EdgeCandidates.flush
    calls = []

    def check(self):
        rows = {}
        for c, s, d in zip(self.cand.tolist(), self.seg.tolist(), self.delta.tolist()):
            assert (c, s) not in rows
            rows[c, s] = d
        for c, key in enumerate(self.keys):
            live = key[1] in self.index[key[0]]
            got = {s: d for (cc, s), d in rows.items() if cc == c}
            assert got == self.maps[c]
            if not live:
                assert not got and self.added[c] == 0
                continue
            added, segments, deltas = segmentation._split_changes(*key, self.hosts[c], analyses, freqs)
            assert self.maps[c] == {self.ids.get(s): d for s, d in zip(segments, deltas)}
            assert self.added[c] == added
        # the live keys are exactly those with two or more hosts, and each
        # lists its hosts in word order
        hosts = {}
        for w, segs in analyses.items():
            for position, edge in (("suffix", segs[-1]), ("prefix", segs[0])):
                for k in range(1, len(edge)):
                    hosts.setdefault((position, edge[-k:] if position == "suffix" else edge[:k]), []).append(w)
        live = {key: hosted for key, hosted in hosts.items() if len(hosted) > 1}
        assert {(position, affix) for position, index in self.index.items() for affix in index} == set(live)
        for key, hosted in live.items():
            c = self.index[key[0]][key[1]]
            assert self.keys[c] == key and self.hosts[c] == hosted
        calls.append(len(rows))

    def checked_init(self, *args):
        init(self, *args)
        check(self)

    def checked_flush(self):
        flush(self)
        check(self)

    with (
        mock.patch.object(segmentation._EdgeCandidates, "__init__", checked_init),
        mock.patch.object(segmentation._EdgeCandidates, "flush", checked_flush),
    ):
        _, _, moves, _ = segmentation._edge_split_phase(analyses, freqs, _char_cost(types))
    assert len(calls) == moves + 1


def test_edge_split_starts_from_whole_words():
    freqs = Counter(["kalish", "mirish"])
    for analyses in ({"kalish": ("kal", "ish"), "mirish": ("mirish",)}, {"kalish": ("mirish",), "mirish": ("mirish",)}):
        with pytest.raises(ValueError, match="starts from whole words"):
            segmentation._edge_split_phase(analyses, freqs, 1.0)


@given(
    st.lists(st.text("abc", min_size=1, max_size=10), min_size=1, max_size=8),
    st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 7, 40]), min_size=1, max_size=300),
    st.sampled_from([0.01, 0.5, 2.0, 1e-9]),
    st.sampled_from([None, 1, 8]),
)
def test_count_log_probs_match_the_table_bit_for_bit(words, drawn, alpha, cap):
    lattice = segmentation._Lattice(words, cap)
    counts = np.resize(np.array(drawn, dtype=np.int64), len(lattice.segments))
    model = SegmentModel(
        alpha=alpha,
        counts=Counter({s: int(counts[i]) for s, i in lattice.segments.items() if counts[i]}),
        total=int(counts.sum()),
        vocab_size=len(lattice.segments),
    )
    got = segmentation._count_log_probs(counts, alpha, model.total + alpha * model.vocab_size)
    # every id, including those whose count is zero
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in lattice.log_probs(model).tolist()]


@given(edge_affixed_words)
def test_train_matches_reference(words):
    assert train_segmenter(words).segmentations == reference_train(words)


def test_train_matches_reference_on_golden_words():
    words = _golden_words(300, seed=5)
    assert train_segmenter(words).segmentations == reference_train(words)


# ---------------------------------------------------------------------------
# affix discovery


NAHUATL_COLORS = [
    "chichiltic", "iztic", "yayauhtic", "xoxoctic", "coztli", "nextli",
    "tlapalli", "matlalin", "camopalli", "texotli",
]

NAHUATL_OTHERS = [
    "calli", "atl", "tepetl", "cuauhtli", "tochtli", "michin", "xochitl",
    "citlalin", "ilhuicatl", "tlalli", "tonatiuh", "metztli", "cihuatl",
    "oquichtli", "piltontli", "huehue", "tlacatl", "teotl", "mazatl",
    "coyotl", "ocelotl", "cuetzpalin", "coatl", "totolin", "papalotl",
    "azcatl", "zayolin", "icpalli", "petlatl", "comitl", "tecomatl",
    "caxitl", "tepoztli", "amoxtli", "amatl", "tzopelic", "yolotl",
    "mixtli", "citli", "oztotl", "tletl", "atoyatl", "ayotl", "chantli",
]


def test_discover_color_specific_affix():
    all_words = NAHUATL_COLORS + NAHUATL_OTHERS
    model = train_segmenter(all_words, language="nci")
    affixes = discover_affixes(model, NAHUATL_COLORS, all_words)
    tic = [a for a in affixes if a.form == "tic" and a.position == "suffix"]
    assert len(tic) == 1
    assert tic[0].color_coverage == pytest.approx(0.40)
    assert tic[0].affix_class == "color-specific"
    assert tic[0].language == "nci"


def test_discover_general_derivational_affix():
    # 9 of 25 color words carry the adjectivalizer, and it is common
    # language-wide as well
    stems = ["he", "mara", "qin", "dola", "buru", "sati", "keno", "lipa", "zura"]
    colors = [s + "tut" for s in stems] + [
        "ran", "bilq", "coshi", "dakar", "eman", "faruk", "gilas", "honar",
        "ivek", "jolan", "kepir", "lomas", "munar", "noral", "oresh", "pakun",
    ]
    assert len(colors) == 25
    others = [w + "tut" for w in ["os", "ger", "vin", "asl", "urd", "qav", "bek",
                                  "dol", "ym", "zar", "eli", "nur", "sim", "tav",
                                  "ulm", "xur"]] + [
        "bura", "ceq", "dian", "efir", "gol", "hil", "jyr", "kum", "lef",
        "mok", "nir", "opal", "pil", "qer", "rud", "sol", "tum", "ulf", "vor",
        "wib",
    ]
    all_words = colors + others
    model = train_segmenter(all_words, language="aqc")
    affixes = discover_affixes(model, colors, all_words)
    tut = [a for a in affixes if a.form == "tut" and a.position == "suffix"]
    assert len(tut) == 1
    assert tut[0].color_coverage == pytest.approx(9 / 25)
    assert tut[0].global_coverage >= 0.1
    assert tut[0].affix_class == "general-derivational"


def test_classification_thresholds_from_reported_anchors():
    t = AffixThresholds()
    assert classify_affix(0.40, 0.074, t) == "color-specific"
    assert classify_affix(0.36, 0.30, t) == "general-derivational"
    assert classify_affix(0.05, 0.04, t) == "neither"


def test_affix_with_single_color_word_not_emitted():
    words = ["katic", "ma", "po", "lu", "ketl", "setl", "atl"]
    model = train_segmenter(words)
    affixes = discover_affixes(model, words, words)
    assert all(a.form != "tic" for a in affixes)


def test_coverage_matches_brute_force_scan():
    all_words = NAHUATL_COLORS + NAHUATL_OTHERS
    model = train_segmenter(all_words)
    affixes = discover_affixes(model, NAHUATL_COLORS, all_words)
    color_types = sorted(set(NAHUATL_COLORS))
    all_types = sorted(set(all_words))
    for a in affixes:
        if a.position == "suffix":
            cc = sum(1 for w in color_types if w.endswith(a.form)) / len(color_types)
            gc = sum(1 for w in all_types if w.endswith(a.form)) / len(all_types)
        else:
            cc = sum(1 for w in color_types if w.startswith(a.form)) / len(color_types)
            gc = sum(1 for w in all_types if w.startswith(a.form)) / len(all_types)
        assert a.color_coverage == pytest.approx(cc)
        assert a.global_coverage == pytest.approx(gc)


def test_untrained_model_rejected():
    with pytest.raises(ValueError):
        discover_affixes(SegmentModel(), ["a"], ["a"])


def test_affixes_come_from_training_segmentations():
    # the counts alone decode both color words whole; only the recorded
    # training segmentations split -tic off them
    colors = ["iztic", "xoxoctic"]
    model = SegmentModel(
        language="nci",
        counts=Counter({"iztic": 1, "xoxoctic": 1}),
        total=2,
        vocab_size=5,
        segmentations={"iztic": ("iz", "tic"), "xoxoctic": ("xoxoc", "tic")},
    )
    assert viterbi_segment(model, "iztic").segments == ("iztic",)
    affixes = discover_affixes(model, colors, colors + ["calli", "atl"])
    assert [(a.form, a.position) for a in affixes] == [("tic", "suffix")]
    assert affixes[0].color_coverage == 1.0
    assert affixes[0].global_coverage == 0.5


def test_color_word_outside_training_words_rejected():
    model = train_segmenter(["katic", "ketl", "setl"])
    with pytest.raises(ValueError, match="'zotic'"):
        discover_affixes(model, ["katic", "zotic"], ["katic", "ketl", "setl"])


# ---------------------------------------------------------------------------
# affix presence


def _presence_fixture():
    colors = [f"c{i}" for i in range(12)]
    ranking = list(colors)
    translations = {c: [("xx", f"{c}stemish")] for c in colors[:10]}
    segmentations = {
        ("xx", f"{c}stemish"): (f"{c}stem", "ish") for c in colors[:10]
    }
    return colors, ranking, translations, segmentations


def test_presence_full_match_scores_one():
    colors, ranking, translations, segmentations = _presence_fixture()
    scores, missing = affix_presence_feature(
        colors[:10], translations, segmentations, ranking
    )
    assert all(scores[c] == 1.0 for c in colors[:10])
    assert not missing


def test_presence_missing_translations_flagged():
    colors, ranking, translations, segmentations = _presence_fixture()
    scores, missing = affix_presence_feature(
        colors, translations, segmentations, ranking
    )
    assert scores["c11"] == 0.0
    assert "c11" in missing


def test_presence_partial_match():
    colors, ranking, translations, segmentations = _presence_fixture()
    translations["puce"] = [
        ("xx", "puceish"), ("yy", "opaque"), ("zz", "matte"), ("zz", "shiny")
    ]
    segmentations[("xx", "puceish")] = ("puce", "ish")
    segmentations[("yy", "opaque")] = ("opaque",)
    segmentations[("zz", "matte")] = ("mat", "te")
    segmentations[("zz", "shiny")] = ("shiny",)
    scores, _ = affix_presence_feature(
        colors + ["puce"], translations, segmentations, ranking
    )
    assert scores["puce"] == 0.25


def test_presence_requires_ten_ranked_colors():
    colors, ranking, translations, segmentations = _presence_fixture()
    with pytest.raises(ValueError):
        affix_presence_feature(colors, translations, segmentations, ranking[:9])


def test_presence_suffix_needs_two_supporting_colors():
    colors = [f"c{i}" for i in range(10)]
    translations = {c: [("xx", c + "zz")] for c in colors}
    segmentations = {("xx", c + "zz"): (c, "zz") for c in colors[:1]}
    # only one top color's translation analyzes with the zz suffix
    segmentations.update(
        {("xx", c + "zz"): (c + "zz",) for c in colors[1:]}
    )
    scores, _ = affix_presence_feature(colors, translations, segmentations, colors)
    assert all(v == 0.0 for v in scores.values())


# ---------------------------------------------------------------------------
# golden digests: recorded from the rebuild-everything edge-split phase; any
# rewrite of training must reproduce them byte for byte

GOLDEN_TRAIN_SHA256 = "d9f79a8984c72c6336b30aea9418b31b6a3e93b3b0d09e2bcae0ba4b690caa07"
# the same model's sorted segment counts, one "segment<TAB>count" line
# each, and its other facts
GOLDEN_TRAIN_COUNTS_SHA256 = "1c3018458869b4e8b075708f55aa844fc522e02cc701c417023998c4444014f8"
GOLDEN_TRAIN_FACTS = {"total": 2288, "vocab_size": 8596, "edge_split_moves": 11, "em_passes": 4, "converged": True}
# every artifact of a demo run; manifest.json without the stages'
# duration_s, as .github/same_outputs.py compares it
GOLDEN_DEMO_SHA256 = {
    "affixes.csv": "347371d2e55e5e0373fd4c7bbfca91f6e83743ffa9114624fa6660ad6f570070",
    "cache/features_base.csv": "93fff607d5355cf6d1fa0ca61f706186b3d38a902257e264fc81beb33b028055",
    "cache/lexicon_normalized.tsv": "57ffa342d32149091a1538d9ac03a03cfaea3ba4b062da72f5e6c9dc7a2c37ed",
    "cache/roundtrips.csv": "fb754b47c128c173384a15a71d1a5cc4123b8451d89f0b127e2fd51dc8984eb5",
    "cache/segmentations.csv": "bf87048c8ddfe68c18593b628473d8624d4a15a2cfb35bb67a5838a138d77f2e",
    "compounds.csv": "d8064263f5110362c44b6f8918e05c6487e05a4bb5909873867b872224b8d430",
    "consensus.csv": "59b453786bc1d6243eb9760f9fca8b1c2ea7272aaf1f75f91cabc7d7706a5ce2",
    "features.csv": "a6df9c7e40a32e7dfc793c5a924b2d4c47143affd59d1d45ea4638da31e7768e",
    "gamma.csv": "0a6c4dbe1a2b543a99827a875314b662c99211e6b75bf85d8d47334be95b8c6e",
    "heterogeneity.svg": "28c8f09a4c646b14dc747889df1b0b34333cd7be8d0e14c78b76a54f6af4b15a",
    "inventory.csv": "6f76eb4ebc612b7d2e47620a31f523b5006d0ecd180c00d0f891dd7702cd3544",
    "manifest.json": "b6ed5dc67d7e43fc7da8064e990173446034dd8609f76be12da27c5a088c9b1f",
    "ranking.csv": "20824cb27f3289caeae8f0af12b1ffaf6c0d0e0a3f0032bbffd039850952a18f",
    "ranking_bootstrap.csv": "96ba3ccaa7d3715b366a488078465e4386535a19de13480533591d9fb9c27012",
    "rfe.json": "ab7b4937e08a5c73d425602d771a3c2253171f7d5a967d5bc0a3c86fa45d090f",
    "summary.md": "4061c5f1ee6ce0313ff80d451f24a1bf0205ae81d6b6c7302e75cdd02e78aab0",
}
# every artifact of a run over conftest.write_generated's dataset (the demo
# plus three seeded synthetic languages), compared the same way
GOLDEN_GENERATED_SHA256 = {
    "affixes.csv": "b0386432d894aaeb8c927795962f28eda25ddc47f229f8c16cc37a9e3381a678",
    "cache/features_base.csv": "4b02fe354d9308b40e39e634a18c01af1f41beab79ce554e041751680754cac2",
    "cache/lexicon_normalized.tsv": "c2b2042710ecc8d47a45dd4147e660c596947a8361f248c9178855434dc53ef4",
    "cache/roundtrips.csv": "d65c338f8504d86491b27cb38383b7b176b47d0279175c20a9dcd27e39577efd",
    "cache/segmentations.csv": "cd27a9091ad1da916dc633038769ee3b69b05c33dbda1959e9f4810f70a2c697",
    "compounds.csv": "6885e9b5ed3341b3c5d8029dd848fe69730116e2885b9a2eadd15307caf9380a",
    "consensus.csv": "59b453786bc1d6243eb9760f9fca8b1c2ea7272aaf1f75f91cabc7d7706a5ce2",
    "features.csv": "8fb976b8710a4d43d8e36ca1b6f49b57f4070321373afe6aeddd090c5d24db97",
    "gamma.csv": "433fcd7b5c9fd339fa47c5d66b8e4106f77bd8a1d6fa508ec28c8c36d9baadbc",
    "heterogeneity.svg": "28c8f09a4c646b14dc747889df1b0b34333cd7be8d0e14c78b76a54f6af4b15a",
    "inventory.csv": "6f76eb4ebc612b7d2e47620a31f523b5006d0ecd180c00d0f891dd7702cd3544",
    "manifest.json": "8115c7b35e8fd51cbad00f50a092eea53d62a600375ad8c34bb1c322ea681caa",
    "ranking.csv": "e73d6bcd113860f29fa29d1bc4b5be0f57688e19b41d93fec21f02987d9c3897",
    "ranking_bootstrap.csv": "8970092ce2a22fa45c4a5755c86d26abf6164d0ed527f21f6f8ff7717aa212cd",
    "rfe.json": "ab7b4937e08a5c73d425602d771a3c2253171f7d5a967d5bc0a3c86fa45d090f",
    "summary.md": "2eae1dc06ac7d7afd9649d35ce47f3aaa97ff9046c533d55388f1935c1127214",
}


def _golden_words(n=1000, seed=11):
    """Seeded words from stems sharing prefixes and suffixes, with repeats."""
    rng = random.Random(seed)
    onsets, vowels = "bdgklmnprstvz", "aeiou"
    stems = sorted({
        "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(rng.randint(1, 3)))
        for _ in range(260)
    })
    prefixes = ["", "", "", "un", "re", "pre", "ko"]
    suffixes = ["", "", "ish", "ness", "ed", "ly", "ata", "in"]
    return [
        rng.choice(prefixes) + rng.choice(stems) + rng.choice(suffixes)
        for _ in range(n)
    ]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_train_segmenter_digest():
    model = train_segmenter(_golden_words())
    text = "".join(
        f"{w}\t{' '.join(model.segmentations[w])}\n" for w in sorted(model.segmentations)
    )
    assert _sha256(text) == GOLDEN_TRAIN_SHA256
    counts = "".join(f"{s}\t{c}\n" for s, c in sorted(model.counts.items()))
    assert _sha256(counts) == GOLDEN_TRAIN_COUNTS_SHA256
    assert {name: getattr(model, name) for name in GOLDEN_TRAIN_FACTS} == GOLDEN_TRAIN_FACTS


def test_golden_demo_lists_every_artifact(demo_run):
    cfg, _ = demo_run
    assert set(artifacts(cfg.output_dir)) == set(GOLDEN_DEMO_SHA256)


@pytest.mark.parametrize("rel", sorted(GOLDEN_DEMO_SHA256))
def test_golden_demo_artifact_digest(demo_run, rel):
    cfg, _ = demo_run
    assert hashlib.sha256(artifacts(cfg.output_dir)[rel]).hexdigest() == GOLDEN_DEMO_SHA256[rel]


def test_golden_generated_lists_every_artifact(generated_run):
    cfg, manifest = generated_run
    assert set(artifacts(cfg.output_dir)) == set(GOLDEN_GENERATED_SHA256)
    # the dataset exercises what it is there for: the synthetic languages,
    # with compounds accepted and no color dropped
    assert manifest["stages"]["ingest"]["counts"]["languages"] == 9
    assert manifest["stages"]["compounds"]["counts"]["accepted"] > 0
    assert manifest["dropped_colors"] == []


@pytest.mark.parametrize("rel", sorted(GOLDEN_GENERATED_SHA256))
def test_golden_generated_artifact_digest(generated_run, rel):
    cfg, _ = generated_run
    assert hashlib.sha256(artifacts(cfg.output_dir)[rel]).hexdigest() == GOLDEN_GENERATED_SHA256[rel]

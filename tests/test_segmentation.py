import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
        alpha=alpha, counts=c, total=sum(c.values()), vocab=frozenset(vocab)
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
    model = train_segmenter(["redish", "bluish", "greenish"])
    total = sum(segment_probability(model, s) for s in model.vocab)
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
    rng = random.Random(hash(style) % 1000)
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
    model = train_segmenter(["abcdefghijkl", "zzzzzzzzzzzz"], max_segment_len=8)
    assert all(len(s) <= 8 for s in model.counts)
    assert set(model.counts) <= set(model.vocab)


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

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorbasis.errors import DataError
from colorbasis.features import (
    ConcretenessLexicon,
    CorpusSummary,
    EtymologyTable,
    assemble_feature_matrix,
    etymology_features,
    pos_features,
    translation_concreteness,
    weighted_concreteness,
    word_concreteness,
    word_length_feature,
)
from colorbasis.stats import FEATURE_COLUMNS


@pytest.fixture
def conc():
    return ConcretenessLexicon(
        {
            "orange": 4.66,
            "beige": 3.41,
            "black": 3.76,
            "dark": 4.29,
            "dirty": 4.23,
        }
    )


def test_word_concreteness_lookup(conc):
    assert word_concreteness("orange", conc) == 4.66
    assert word_concreteness("beige", conc) == 3.41
    assert word_concreteness("chartreuse", conc) is None


def test_concreteness_rating_range(tmp_path):
    path = tmp_path / "conc.tsv"
    path.write_text("orange\t4.66\nx\t0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: concreteness rating out of range: 0.5$"):
        ConcretenessLexicon.load(path)


def test_concreteness_load(tmp_path, conc):
    path = tmp_path / "conc.tsv"
    path.write_text("orange\t4.66\nbeige\t3.41\n", encoding="utf-8")
    lex = ConcretenessLexicon.load(path)
    assert lex.rating("orange") == 4.66
    assert lex.rating("beige") == 3.41


def _rows(lang_senses):
    """One round-trip row's (language, back-translations) per language."""
    return [(f"l{i:04d}", sorted(senses)) for i, senses in enumerate(lang_senses)]


def test_translation_concreteness_weighted_mean(conc):
    # language counts mirror the per-sense weights: 1065 black, 467 dark,
    # 162 dirty
    lang_senses = (
        [["black"]] * 1065 + [["dark"]] * 467 + [["dirty"]] * 162
    )
    value = translation_concreteness(_rows(lang_senses), conc)
    expected = (1065 * 3.76 + 467 * 4.29 + 162 * 4.23) / (1065 + 467 + 162)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(6693.09 / 1694, rel=1e-12)
    assert value == pytest.approx(3.95, abs=0.01)


def test_translation_concreteness_single_sense(conc):
    assert translation_concreteness(_rows([["dark"]]), conc) == 4.29


def test_translation_concreteness_unrated(conc):
    assert translation_concreteness(_rows([["umbrous"], ["tenebrous"]]), conc) is None


def test_translation_concreteness_weights_count_languages_not_edges(conc):
    # one language contributes a sense once no matter how many of its
    # words back-translate to it
    rows = [("l1", ["black"]), ("l1", ["black"]), ("l2", ["dark"])]
    value = translation_concreteness(rows, conc)
    assert value == pytest.approx((3.76 + 4.29) / 2)


def test_weighted_concreteness_shared_rating_is_exact(conc):
    assert weighted_concreteness({"dark": 3, "dirty": 0}, conc) == 4.29


@given(
    st.lists(st.tuples(st.floats(1.0, 5.0), st.integers(1, 6)), min_size=3, max_size=40),
    st.randoms(use_true_random=False),
)
def test_weighted_concreteness_does_not_depend_on_insertion_order(rated, rng):
    # the weights of translation concreteness are filled from sets, whose
    # order follows the hash seed; the features stage writes the repr of
    # the mean, so the same weights must give the same bits in any order
    lex = ConcretenessLexicon({f"sense{i}": rating for i, (rating, _) in enumerate(rated)})
    weights = [(f"sense{i}", weight) for i, (_, weight) in enumerate(rated)]
    shuffled = list(weights)
    rng.shuffle(shuffled)
    assert weighted_concreteness(dict(shuffled), lex).hex() == weighted_concreteness(dict(weights), lex).hex()


# ---------------------------------------------------------------------------
# corpus features


def test_pos_features_ratio():
    corpus = CorpusSummary({"red": (150, 90, 10)})
    assert pos_features("red", corpus) == (150.0, 0.9)


def test_pos_features_zero_adjectives():
    corpus = CorpusSummary({"red": (80, 0, 50)})
    assert pos_features("red", corpus) == (80.0, 0.0)


def test_pos_features_absent_word():
    corpus = CorpusSummary({})
    assert pos_features("red", corpus) == (None, None)


def test_pos_features_no_tags():
    corpus = CorpusSummary({"red": (60, 0, 0)})
    assert pos_features("red", corpus) == (60.0, None)


def test_corpus_rejects_inconsistent_counts(tmp_path):
    path = tmp_path / "ngram.tsv"
    path.write_text("blue\t5\t1\t1\nred\t10\t9\t9\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: inconsistent counts for 'red'$"):
        CorpusSummary.load(path)


def test_corpus_load(tmp_path):
    path = tmp_path / "ngram.tsv"
    path.write_text("red\t150\t90\t10\n", encoding="utf-8")
    corpus = CorpusSummary.load(path)
    assert corpus.lookup("red") == (150, 90, 10)


# ---------------------------------------------------------------------------
# etymology


def test_etymology_fractions():
    table = EtymologyTable()
    table.add("red", "borrowing", 5, 100)
    table.add("red", "inheritance", 40, 100)
    feats = etymology_features("red", table, 100)
    assert feats["borrowing"] == 0.05
    assert feats["inheritance"] == 0.40
    assert feats["cognate"] == 0.0


def test_etymology_basic_pool_borrowing_rate():
    # inheritance 1161 + derivation 82 + cognate 303 + borrowing 18 +
    # unexplained 42566 = 44130 recorded words
    table = EtymologyTable()
    table.add("pool", "inheritance", 1161, 44130)
    table.add("pool", "derivation", 82, 44130)
    table.add("pool", "cognate", 303, 44130)
    table.add("pool", "borrowing", 18, 44130)
    feats = etymology_features("pool", table, 44130)
    assert feats["borrowing"] == pytest.approx(4.08e-4, abs=1e-6)


def test_etymology_zero_total_all_missing():
    table = EtymologyTable()
    feats = etymology_features("red", table, 0)
    assert all(v is None for v in feats.values())


def test_etymology_load_and_validate(tmp_path):
    path = tmp_path / "etym.tsv"
    path.write_text(
        "red\tderivation\t10\t100\nred\tsuffix-derivation\t4\t100\n",
        encoding="utf-8",
    )
    table = EtymologyTable.load(path)
    assert table.count("red", "suffix-derivation") == 4
    bad = tmp_path / "bad.tsv"
    bad.write_text(
        "red\tderivation\t3\t100\nred\tsuffix-derivation\t4\t100\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError):
        EtymologyTable.load(bad)


# ---------------------------------------------------------------------------
# word length


def test_word_length_mean():
    assert word_length_feature("red", [("deu", "rot"), ("fra", "rouge")]) == 4.0


def test_word_length_single():
    assert word_length_feature("red", [("spa", "rojo")]) == 4.0


def test_word_length_mixed_scripts():
    assert word_length_feature("red", [("jpn", "赤"), ("ita", "rosso")]) == 3.0


def test_word_length_no_translations():
    assert word_length_feature("red", []) is None


# ---------------------------------------------------------------------------
# matrix assembly


def _maps(colors, value=1.0, missing=()):
    maps = {}
    for i, col in enumerate(FEATURE_COLUMNS):
        maps[col] = {
            c: (None if (c, col) in missing else value + i + k)
            for k, c in enumerate(colors)
        }
    return maps


def test_assemble_complete_matrix_has_no_imputation():
    colors = ["white", "black", "red"]
    matrix = assemble_feature_matrix(_maps(colors), colors)
    assert matrix.colors == colors
    assert not matrix.dropped
    assert not any(any(m) for m in matrix.missing.values())


def test_assemble_drops_color_missing_more_than_half():
    colors = ["white", "black", "red"]
    missing = {("red", col) for col in FEATURE_COLUMNS[:8]}
    matrix = assemble_feature_matrix(_maps(colors, missing=missing), colors)
    assert matrix.colors == ["white", "black"]
    assert matrix.dropped == [("red", 8)]


def test_assemble_keeps_color_at_exactly_half():
    colors = ["white", "black", "red"]
    missing = {("red", col) for col in FEATURE_COLUMNS[:7]}
    matrix = assemble_feature_matrix(_maps(colors, missing=missing), colors)
    assert matrix.colors == colors


def test_assemble_imputes_column_median():
    colors = ["a", "b", "c", "d"]
    maps = {col: {c: 1.0 for c in colors} for col in FEATURE_COLUMNS}
    maps["word-length"] = {"a": 1.0, "b": 2.0, "c": None, "d": 4.0}
    matrix = assemble_feature_matrix(maps, colors)
    assert matrix.values["word-length"][matrix.colors.index("c")] == 2.0
    assert matrix.missing["word-length"] == [False, False, True, False]


def test_assemble_requires_two_survivors():
    colors = ["a", "b"]
    missing = {("a", col) for col in FEATURE_COLUMNS[:8]}
    with pytest.raises(DataError):
        assemble_feature_matrix(_maps(colors, missing=missing), colors)


def test_assemble_requires_all_columns():
    with pytest.raises(ValueError):
        assemble_feature_matrix({"word-length": {"a": 1.0}}, ["a", "b"])


def test_assemble_map_order_irrelevant():
    colors = ["a", "b", "c"]
    maps = _maps(colors)
    reversed_maps = dict(reversed(list(maps.items())))
    m1 = assemble_feature_matrix(maps, colors)
    m2 = assemble_feature_matrix(reversed_maps, colors)
    assert m1.values == m2.values
    assert m1.colors == m2.colors

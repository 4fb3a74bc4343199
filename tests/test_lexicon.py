import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorbasis.errors import DataError, EmptyLexiconError
from colorbasis.lexicon import (
    ColorConcept,
    TranslationTable,
    back_translate,
    load_lexicon,
    load_seeds,
    normalize_term,
    round_trip,
    translate,
)


def write_lexicon(tmp_path, rows, name="lex.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_load_deduplicates(tmp_path):
    path = write_lexicon(tmp_path, ["deu\trot\tred", "deu\trot\tred"])
    counts = {}
    table = load_lexicon(path, counts)
    assert len(frozenset(table)) == 1
    assert counts == {"lexicon_rows_skipped": 0}


def test_load_multi_gloss(tmp_path):
    path = write_lexicon(tmp_path, ["spa\trojo\tred", "spa\trojo\truddy"])
    table = load_lexicon(path)
    assert len(frozenset(table)) == 2
    assert back_translate(table, "rojo", "spa") == {"red", "ruddy"}


def test_load_skips_malformed(tmp_path):
    path = write_lexicon(tmp_path, ["deu\trot\tred", "deu\trot"])
    counts = {}
    table = load_lexicon(path, counts)
    assert len(frozenset(table)) == 1
    assert counts == {"lexicon_rows_skipped": 1}


def test_load_ignores_extra_columns(tmp_path):
    path = write_lexicon(tmp_path, ["deu\trot\tred\textra"])
    table = load_lexicon(path)
    assert ("deu", "rot", "red") in frozenset(table)


def test_load_empty_raises(tmp_path):
    path = write_lexicon(tmp_path, ["one\ttwo"])
    with pytest.raises(EmptyLexiconError):
        load_lexicon(path)


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_lexicon(tmp_path / "absent.tsv")


def test_load_normalizes_nfc_and_case(tmp_path):
    decomposed = unicodedata.normalize("NFD", "café")
    path = write_lexicon(tmp_path, [f"fra\t{decomposed}\tBrown"])
    table = load_lexicon(path)
    assert ("fra", "café", "brown") in frozenset(table)


def test_gloss_normalization_lowercases_before_nfc(tmp_path):
    # NFC before lowercasing left "J\u030c" as "j\u030c", which a second
    # pass composed to "\u01f0"
    assert normalize_term(" J\u030c ") == "\u01f0"
    path = write_lexicon(tmp_path, ["xx\tjo\tJ\u030c", "xx\tja\t\u01f0"])
    table = load_lexicon(path)
    assert {gloss for _, _, gloss in table} == {"\u01f0"}
    assert translate(table, "J\u030c", "xx") == {"jo", "ja"}
    assert frozenset(TranslationTable.from_rows(table)) == frozenset(table)


#: cased letters, combining marks (several compose with them under NFC),
#: case-changing oddities and whitespace
_term_chars = st.one_of(
    st.sampled_from("AaJjHhTtWwYyIiSs\u0130\u0131\u00df\u1e9e\u01c5\u2126\u212a \t\u2028"),
    st.sampled_from("\u0300\u0301\u0307\u030a\u030c\u0308\u0331\u0344\u0345\u0327"),
    st.characters(blacklist_categories=("Cs",)),
)


@settings(max_examples=150)
@given(st.text(_term_chars, max_size=6))
def test_normalize_term_is_idempotent(s):
    once = normalize_term(s)
    assert normalize_term(once) == once


def test_translate():
    table = TranslationTable.from_rows([("deu", "rot", "red")])
    assert translate(table, "red", "deu") == {"rot"}
    assert translate(table, "red", "xyz") == set()


def test_translate_multiple():
    table = TranslationTable.from_rows(
        [("ita", "rosso", "red"), ("ita", "vermiglio", "red")]
    )
    assert translate(table, "red", "ita") == {"rosso", "vermiglio"}


def test_back_translate_scoped_by_language():
    table = TranslationTable.from_rows(
        [
            ("deu", "rot", "red"),
            ("deu", "rot", "rust"),
            ("nld", "rot", "rotten"),
        ]
    )
    assert back_translate(table, "rot", "deu") == {"red", "rust"}
    assert back_translate(table, "rot", "nld") == {"rotten"}
    assert back_translate(table, "unknown", "deu") == set()


def test_round_trip_single_word():
    table = TranslationTable.from_rows(
        [("deu", "rot", "red"), ("deu", "rot", "rust")]
    )
    records = round_trip(table, "red", "deu")
    assert len(records) == 1
    rec = records[0]
    assert rec.foreign_word == "rot"
    assert rec.back_translations == ("red", "rust")


def test_round_trip_empty():
    table = TranslationTable.from_rows([("deu", "rot", "red")])
    assert round_trip(table, "red", "spa") == []


def test_round_trip_union_is_sense_set():
    table = TranslationTable.from_rows(
        [
            ("xx", "a", "red"),
            ("xx", "b", "red"),
            ("xx", "b", "crimson"),
        ]
    )
    records = round_trip(table, "red", "xx")
    assert [r.foreign_word for r in records] == ["a", "b"]
    senses = set().union(*(r.back_translations for r in records))
    assert senses == {"red", "crimson"}


def test_forward_backward_consistency():
    rows = [
        ("deu", "rot", "red"),
        ("deu", "purpur", "red"),
        ("spa", "rojo", "red"),
    ]
    table = TranslationTable.from_rows(rows)
    for lang in table.languages():
        for word in translate(table, "red", lang):
            assert "red" in back_translate(table, word, lang)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["aa", "bb", "cc"]),
            st.text("abc", min_size=1, max_size=3),
            st.sampled_from(["red", "blue", "teal"]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_row_order_never_matters(rows):
    t1 = TranslationTable.from_rows(rows)
    t2 = TranslationTable.from_rows(list(reversed(rows)))
    assert frozenset(t1) == frozenset(t2)
    for lang in t1.languages():
        for color in ("red", "blue", "teal"):
            assert round_trip(t1, color, lang) == round_trip(t2, color, lang)


def test_double_load_identical(tmp_path):
    path = write_lexicon(
        tmp_path, ["deu\trot\tred", "spa\trojo\tred", "deu\tblau\tblue"]
    )
    assert frozenset(load_lexicon(path)) == frozenset(load_lexicon(path))


# ---------------------------------------------------------------------------
# seed list


def test_color_concept_invariants():
    with pytest.raises(ValueError):
        ColorConcept(term="white", is_basic=True, bk_stage=None)
    with pytest.raises(ValueError):
        ColorConcept(term="beige", is_basic=False, bk_stage=3)
    with pytest.raises(ValueError):
        ColorConcept(term="white", is_basic=True, bk_stage=9)


def test_load_seeds(tmp_path):
    lines = [
        "white*@1", "black*@1", "red*@2", "green*@3", "yellow*@3", "blue*@4",
        "brown*@5", "purple*@6", "pink*@6", "orange*@6", "grey*@6",
        "crimson", "beige",
    ]
    path = tmp_path / "seeds.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    seeds = load_seeds(path)
    assert sum(1 for s in seeds if s.is_basic) == 11
    by_term = {s.term: s for s in seeds}
    assert by_term["white"].bk_stage == 1
    assert by_term["crimson"].is_basic is False
    assert by_term["crimson"].bk_stage is None


def test_load_seeds_wrong_basic_count(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_text("white*@1\nbeige\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_seeds(path)


def test_load_seeds_duplicate(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_text("beige\nbeige\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate"):
        load_seeds(path)

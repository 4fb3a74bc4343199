import pytest
from hypothesis import given
from hypothesis import strategies as st

from colorbasis.compounds import (
    DER_AFFIX_CONCEPT,
    CompoundRow,
    compound_counts,
    enumerate_splits,
    extract_candidates,
    score_and_filter,
)
from colorbasis.errors import ConfigError
from colorbasis.lexicon import TranslationTable


def test_enumerate_splits_abc():
    splits = [s[2:] for s in enumerate_splits("abc")]
    assert splits == [("a", "", "bc"), ("a", "b", "c"), ("ab", "", "c")]
    assert enumerate_splits("ab", "xx") == [("xx", "ab", "a", "", "b")]


def test_enumerate_splits_two_chars():
    splits = [s[2:] for s in enumerate_splits("ab")]
    assert splits == [("a", "", "b")]


def test_enumerate_splits_counts():
    assert len(enumerate_splits("a" * 10)) == 45
    assert enumerate_splits("a") == []
    assert enumerate_splits("") == []


@given(st.text("abcd", min_size=2, max_size=30))
def test_enumerate_splits_count_formula(word):
    k = len(word)
    splits = enumerate_splits(word)
    assert len(splits) == k * (k - 1) // 2
    for _, whole, left, glue, right in splits:
        assert whole == word
        assert left + glue + right == word


@given(st.text("abcd", min_size=4, max_size=20))
def test_arbitrary_glue_strictly_contains_short_glue_baseline(word):
    all_splits = {s[2:] for s in enumerate_splits(word)}
    baseline = {s for s in all_splits if len(s[1]) <= 1}
    assert baseline < all_splits  # strict superset for length >= 4


# ---------------------------------------------------------------------------
# candidate extraction


def _table(rows):
    return TranslationTable.from_rows(rows)


def test_extract_german_adjective_color():
    table = _table(
        [
            ("deu", "dunkel", "dark"),
            ("deu", "rot", "red"),
            ("deu", "dunkelrot", "crimson"),
        ]
    )
    found = extract_candidates(table, "deu")
    assert ("deu", "dunkelrot", "dunkel", "", "rot") in found


def test_extract_single_character_components():
    table = _table(
        [("cmn", "橙", "orange"), ("cmn", "色", "color"), ("cmn", "橙色", "orange")]
    )
    found = [s[2:] for s in extract_candidates(table, "cmn")]
    assert ("橙", "", "色") in found


def test_extract_requires_lexicon_components():
    table = _table([("deu", "dunkelrot", "crimson"), ("deu", "blau", "blue")])
    assert extract_candidates(table, "deu") == []


def test_extract_affix_route():
    table = _table(
        [("spa", "anaranja", "orange"), ("spa", "anaranjado", "orange")]
    )
    assert extract_candidates(table, "spa") == []
    found = extract_candidates(table, "spa", derivational_affixes={"do"})
    assert found == [("spa", "anaranjado", "anaranja", "", "do")]


@given(
    st.lists(
        st.tuples(st.sampled_from(["xx", "yy"]), st.text("ab", min_size=1, max_size=6)),
        min_size=1,
        max_size=25,
    ),
    st.sets(st.text("ab", min_size=1, max_size=3), max_size=3),
)
def test_extract_matches_filtered_enumeration(rows, affixes):
    table = _table([(lang, word, "gloss") for lang, word in rows])
    for lang in table.languages():
        expected = [
            split
            for word in sorted(table.words_of(lang))
            for split in enumerate_splits(word, lang)
            if split[2] in table.words_of(lang)
            and (split[4] in table.words_of(lang) or split[4] in affixes)
        ]
        assert extract_candidates(table, lang, affixes) == expected


@given(
    st.lists(
        st.tuples(st.sampled_from(["xx", "yy"]), st.text("ab", min_size=1, max_size=6)),
        min_size=1,
        max_size=25,
    ),
    st.sets(st.text("ab", min_size=1, max_size=3), max_size=3),
)
def test_extracted_splits_reassemble(rows, affixes):
    # the invariant a split has to keep: it is a plain five-string tuple
    # of its own language whose non-empty outer components and glue
    # reassemble its word
    table = _table([(lang, word, "gloss") for lang, word in rows])
    for lang in table.languages():
        for split in extract_candidates(table, lang, affixes):
            assert type(split) is tuple and len(split) == 5
            language, word, left, glue, right = split
            assert language == lang
            assert left and right
            assert left + glue + right == word


# ---------------------------------------------------------------------------
# recipes


def _dark_red_fixture():
    rows = []
    for lang, dark, red, word in [
        ("deu", "dunkel", "rot", "dunkelrot"),
        ("nld", "donker", "rood", "donkerrood"),
        ("swe", "mork", "rod", "morkrod"),
    ]:
        rows += [(lang, dark, "dark"), (lang, red, "red"), (lang, word, "crimson")]
    return _table(rows)


def _recipes(candidates, table):
    """The distinct recipes ``score_and_filter`` attaches to candidates,
    as (left concept, right concept, support, languages of their rows),
    by support descending, then by concept pair."""
    languages = {}
    for row in score_and_filter(candidates, table, threshold=1):
        recipe = (row.left_concept, row.right_concept, row.support)
        languages.setdefault(recipe, set()).add(row.language)
    found = [(*recipe, frozenset(langs)) for recipe, langs in languages.items()]
    return sorted(found, key=lambda r: (-r[2], r[0], r[1]))


def test_recipe_support_counts_languages():
    table = _dark_red_fixture()
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang))
    recipes = _recipes(candidates, table)
    assert recipes[0] == ("dark", "red", 3, frozenset({"deu", "nld", "swe"}))


def test_recipe_single_language():
    table = _table(
        [("deu", "dunkel", "dark"), ("deu", "rot", "red"), ("deu", "dunkelrot", "crimson")]
    )
    recipes = _recipes(extract_candidates(table, "deu"), table)
    assert recipes[0][2] == 1


def test_recipe_sick_house_motif():
    rows = []
    for lang, sick, house, word in [
        ("aaa", "krank", "haus", "krankhaus"),
        ("bbb", "ziek", "huis", "ziekhuis"),
        ("ccc", "sjuk", "hus", "sjukhus"),
    ]:
        rows += [(lang, sick, "sick"), (lang, house, "house"), (lang, word, "hospital")]
    table = _table(rows)
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang))
    recipes = _recipes(candidates, table)
    motif = [r for r in recipes if r[:2] == ("sick", "house")]
    assert motif[0][2:] == (3, frozenset({"aaa", "bbb", "ccc"}))


def test_recipe_support_invariant_under_permutation():
    table = _dark_red_fixture()
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang))
    r1 = _recipes(candidates, table)
    r2 = _recipes(list(reversed(candidates)), table)
    assert r1 == r2


# ---------------------------------------------------------------------------
# scoring and the two-pass filter


def test_scoring_threshold():
    table = _dark_red_fixture()
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang))
    analyses = score_and_filter(candidates, table, threshold=2)
    accepted = [a for a in analyses if a.accepted]
    assert {a.word for a in accepted} == {"dunkelrot", "donkerrood", "morkrod"}
    assert all(a.support == 3 for a in accepted)


def test_scoring_rejects_low_support():
    table = _table(
        [("deu", "dunkel", "dark"), ("deu", "rot", "red"), ("deu", "dunkelrot", "crimson")]
    )
    analyses = score_and_filter(extract_candidates(table, "deu"), table, threshold=2)
    assert analyses[0].accepted is False
    assert analyses[0].support == 1


def test_scoring_threshold_validation():
    with pytest.raises(ConfigError):
        score_and_filter([], _table([("x", "a", "b")]), threshold=0)


def test_second_pass_collapse():
    # L2's word "pqr" supports recipe (pa, qa) through one split but its
    # better split joins the (ca, da) recipe, so after best-split
    # selection the (pa, qa) recipe loses its second language and L1's
    # candidate collapses below the threshold.
    rows = [
        ("l1", "x", "pa"), ("l1", "y", "qa"), ("l1", "xy", "col1"),
        ("l2", "p", "pa"), ("l2", "qr", "qa"),
        ("l2", "pq", "ca"), ("l2", "r", "da"), ("l2", "pqr", "col2"),
        ("l3", "m", "ca"), ("l3", "n", "da"), ("l3", "mn", "col3"),
        ("l4", "s", "ca"), ("l4", "t", "da"), ("l4", "st", "col4"),
    ]
    table = _table(rows)
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang))

    analyses = score_and_filter(candidates, table, threshold=2)
    by_word = {}
    for a in analyses:
        by_word.setdefault(a.word, []).append(a)

    # pass 1 gave (pa, qa) support 2 via l1+l2; the l2 split lost the
    # per-word selection to the support-3 (ca, da) split
    pqr = {(a.left, a.right): a for a in by_word["pqr"]}
    assert pqr[("pq", "r")].accepted is True
    assert pqr[("p", "qr")].accepted is False

    xy = by_word["xy"][0]
    assert xy.accepted is False
    assert (xy.left_concept, xy.right_concept) == ("pa", "qa")
    assert xy.support == 1  # collapsed from 2 after the second pass


def test_accepted_analyses_reassemble():
    table = _dark_red_fixture()
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang))
    for a in score_and_filter(candidates, table, threshold=2):
        assert a.left + a.glue + a.right == a.word


def test_affix_route_recipe_concept():
    table = _table(
        [
            ("spa", "anaranja", "orange"), ("spa", "anaranjado", "orange"),
            ("ita", "arancia", "orange"), ("ita", "aranciato", "orange"),
        ]
    )
    candidates = extract_candidates(table, "spa", {"do"}) + extract_candidates(
        table, "ita", {"to"}
    )
    analyses = score_and_filter(candidates, table, threshold=2)
    assert all(a.accepted for a in analyses)
    assert all(a.right_concept == DER_AFFIX_CONCEPT for a in analyses)
    assert all(a.support == 2 for a in analyses)


# ---------------------------------------------------------------------------
# per-color features


def _analysis(lang, word, accepted):
    return CompoundRow(lang, word, word[:1], "", word[1:], "x", "y", 2, accepted)


def _accepted(analyses):
    return {(a.language, a.word) for a in analyses if a.accepted}


def test_compounding_features_counts_and_fraction():
    analyses = [_analysis("aa", "redword", True)]
    translations = {
        "red": [("aa", "redword"), ("aa", "plain"), ("bb", "roji"), ("cc", "rosso")]
    }
    feats, missing = compound_counts(_accepted(analyses), translations)
    assert feats["red"] == (1, 0.25)
    assert not missing


def test_compounding_features_no_compounds():
    feats, _ = compound_counts(set(), {"red": [("aa", "plain")]})
    assert feats["red"] == (0, 0.0)


def test_compounding_features_all_compounds():
    analyses = [_analysis("aa", "w1", True), _analysis("bb", "w2", True)]
    feats, _ = compound_counts(_accepted(analyses), {"red": [("aa", "w1"), ("bb", "w2")]})
    assert feats["red"] == (2, 1.0)


def test_compounding_features_missing_translations():
    feats, missing = compound_counts(set(), {"puce": []})
    assert "puce" in missing
    assert feats["puce"] == (0, 0.0)


def test_rejected_compounds_do_not_count():
    analyses = [_analysis("aa", "w1", False)]
    feats, _ = compound_counts(_accepted(analyses), {"red": [("aa", "w1"), ("bb", "w2")]})
    assert feats["red"] == (0, 0.0)


# ---------------------------------------------------------------------------
# score_and_filter against a per-candidate oracle


def _oracle_score_and_filter(candidates, table, threshold):
    """The two-pass filter computed candidate by candidate: concept pairs,
    best pairs and the recipe's languages for every candidate, as the
    ``compounds.csv`` rows."""
    from colorbasis.lexicon import back_translate

    def concept_pairs(c):
        language, _, left, _, right = c
        lefts = sorted(back_translate(table, left, language))
        if right in table.words_of(language):
            rights = sorted(back_translate(table, right, language))
        else:
            rights = [DER_AFFIX_CONCEPT]
        return [(l, r) for l in lefts for r in rights]

    def support_map(cands, cand_pairs):
        langs = {}
        for c, ps in zip(cands, cand_pairs):
            for p in ps:
                langs.setdefault(p, set()).add(c[0])
        return langs

    def best_pair(ps, supports):
        best = None
        for p in ps:
            s = len(supports.get(p, ()))
            if best is None or s > best[0] or (s == best[0] and p < best[1]):
                best = (s, p)
        return best if best else (0, None)

    pairs = [concept_pairs(c) for c in candidates]
    support1 = support_map(candidates, pairs)
    scored1 = [best_pair(p, support1) for p in pairs]
    by_word = {}
    for idx, c in enumerate(candidates):
        key = (c[0], c[1])
        if key not in by_word or scored1[idx][0] > scored1[by_word[key]][0]:
            by_word[key] = idx
    kept = set(by_word.values())
    accepted1 = [i in kept and scored1[i][0] >= threshold for i in range(len(candidates))]
    support2 = support_map(
        [c for c, a in zip(candidates, accepted1) if a], [p for p, a in zip(pairs, accepted1) if a]
    )
    rows = []
    for idx, c in enumerate(candidates):
        if accepted1[idx]:
            score, pair = best_pair(pairs[idx], support2)
            accepted, supports = score >= threshold, support2
        else:
            (score, pair), accepted, supports = scored1[idx], False, support1
        rows.append(CompoundRow(*c, *pair, len(supports[pair]), accepted))
    rows.sort(key=lambda r: (r.language, r.word, len(r.left), len(r.left) + len(r.glue)))
    return rows


def _matches_oracle(candidates, table, threshold):
    rows = score_and_filter(candidates, table, threshold)
    assert all(type(r) is CompoundRow and type(r.support) is int and type(r.accepted) is bool for r in rows)
    return rows == _oracle_score_and_filter(candidates, table, threshold)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["l1", "l2"]),
            st.text("ab", min_size=1, max_size=4),
            st.sampled_from(["dark", "red", "blue"]),
        ),
        min_size=1,
        max_size=10,
    ),
    st.sets(st.text("ab", min_size=1, max_size=2), max_size=2),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_score_and_filter_matches_per_candidate_oracle(rows, affixes, threshold, rng):
    # short words over two letters share (language, left, right) keys
    # across words and glues and tie between splits of one word;
    # unlisted right sides match the affixes
    table = _table(rows)
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang, affixes))
    rng.shuffle(candidates)
    assert _matches_oracle(candidates, table, threshold)


def test_score_and_filter_oracle_sees_shared_keys_and_affixes():
    table = _table(
        [("l1", "ab", "dark"), ("l1", "a", "red"), ("l1", "b", "blue"), ("l1", "acb", "x"),
         ("l2", "ab", "dark"), ("l2", "a", "red"), ("l2", "b", "blue"), ("l2", "ad", "y")]
    )
    candidates = extract_candidates(table, "l1") + extract_candidates(table, "l2", {"d"})
    keys = [(language, left, right) for language, _, left, _, right in candidates]
    assert len(set(keys)) < len(keys)  # "ab" and "acb" share (l1, a, b)
    assert ("l2", "a", "d") in keys  # right side matched by the affix
    for order in (candidates, candidates[::-1]):
        assert _matches_oracle(order, table, 2)


def test_score_and_filter_oracle_sees_tied_splits_of_one_word():
    # "aaba" splits as a + aba and as a + glue ab + a with the same
    # score; the earlier split must be the one the word keeps
    table = _table(
        [("l2", "aba", "blue"), ("l2", "a", "red"), ("l1", "a", "red"),
         ("l1", "aaba", "red"), ("l1", "aba", "red")]
    )
    candidates = extract_candidates(table, "l1") + extract_candidates(table, "l2")
    for order in (candidates, candidates[::-1]):
        assert _matches_oracle(order, table, 2)

import pytest

from colorbasis.wcs import (
    ElicitationTable,
    heterogeneity_report,
    heterogeneity_svg,
    inventory_stats,
    load_wcs,
    summarize,
    term_consensus,
)


def write_wcs(tmp_path, rows, name="wcs.tsv"):
    path = tmp_path / name
    path.write_text("\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8")
    return path


def test_load_valid_rows(tmp_path):
    path = write_wcs(
        tmp_path,
        [
            ("aaa", "s1", "c1", "mol"),
            ("aaa", "s1", "c2", "kib"),
            ("aaa", "s2", "c1", "mol"),
        ],
    )
    counts = {}
    table = load_wcs(path, counts)
    assert len(table.rows) == 3
    assert counts["conflicts"] == 0


def test_load_duplicate_keeps_first(tmp_path):
    path = write_wcs(
        tmp_path,
        [("aaa", "s1", "c1", "mol"), ("aaa", "s1", "c1", "kib")],
    )
    counts = {}
    table = load_wcs(path, counts)
    assert len(table.rows) == 1
    assert table.rows[0][3] == "mol"
    assert counts["conflicts"] == 1


def test_load_skips_empty_terms(tmp_path):
    path = write_wcs(
        tmp_path,
        [("aaa", "s1", "c1", "mol"), ("aaa", "s1", "c2", " ")],
    )
    counts = {}
    table = load_wcs(path, counts)
    assert len(table.rows) == 1
    assert counts["rows_skipped"] == 1


def _table(rows):
    return ElicitationTable(rows=list(rows))


def test_consensus_unanimous():
    table = _table(
        [("aaa", f"s{i}", "c1", "mol") for i in range(1, 4)]
    )
    assert term_consensus(table, "aaa") == {"mol": 1.0}


def test_consensus_fraction():
    rows = [("aaa", f"s{i}", "c1", "mol") for i in range(1, 5)]
    rows.append(("aaa", "s1", "c2", "kib"))
    table = _table(rows)
    cons = term_consensus(table, "aaa")
    assert cons["mol"] == 1.0
    assert cons["kib"] == 0.25


def test_consensus_counts_speakers_not_tokens():
    rows = [
        ("aaa", "s1", "c1", "mol"),
        ("aaa", "s1", "c2", "mol"),
        ("aaa", "s2", "c1", "kib"),
    ]
    cons = term_consensus(_table(rows), "aaa")
    assert cons["mol"] == 0.5


def test_consensus_unknown_language():
    with pytest.raises(KeyError):
        term_consensus(_table([("aaa", "s1", "c1", "mol")]), "zzz")


def test_language_with_79_terms():
    rows = []
    for i in range(79):
        speaker = f"s{i % 4}"
        rows.append(("big", speaker, f"c{i}", f"term{i:02d}"))
    table = _table(rows)
    cons = term_consensus(table, "big")
    assert len(cons) == 79
    summary = summarize(table)[0]
    assert summary.total_terms == 79
    assert len(summary.consensus) == 79


def test_inventory_no_variation():
    rows = [
        ("aaa", s, f"c{i}", f"t{i}") for s in ("s1", "s2", "s3") for i in range(5)
    ]
    assert inventory_stats(_table(rows), "aaa") == (5.0, 0.0)


def test_inventory_population_sigma():
    rows = [("aaa", "s1", f"c{i}", f"t{i}") for i in range(4)]
    rows += [("aaa", "s2", f"c{i}", f"t{i}") for i in range(6)]
    mean, std = inventory_stats(_table(rows), "aaa")
    assert mean == 5.0
    assert std == 1.0


def test_inventory_single_speaker():
    rows = [("aaa", "s1", f"c{i}", f"t{i}") for i in range(7)]
    assert inventory_stats(_table(rows), "aaa") == (7.0, 0.0)


def test_inventory_mean_bounded_by_distinct_terms():
    rows = [
        ("aaa", "s1", "c1", "x"), ("aaa", "s1", "c2", "y"),
        ("aaa", "s2", "c1", "x"),
    ]
    table = _table(rows)
    mean, _ = inventory_stats(table, "aaa")
    assert mean <= len(term_consensus(table, "aaa"))


# ---------------------------------------------------------------------------
# report


def _two_language_table():
    rows = [
        ("aaa", "s1", "c1", "mol"), ("aaa", "s1", "c2", "kib"),
        ("aaa", "s2", "c1", "mol"), ("aaa", "s2", "c3", "nar"),
        ("bbb", "s1", "c1", "ful"),
    ]
    return _table(rows)


def test_report_column_per_language():
    table = _two_language_table()
    summaries, consensus, inventory, svg = heterogeneity_report(table)
    assert [s.language for s in summaries] == ["aaa", "bbb"]
    assert svg.count("<text") == 2  # one label per language column
    assert svg.count("<rect") == 1 + 3 + 1  # background + aaa terms + bbb terms


def test_report_csv_row_count_is_total_distinct_terms():
    table = _two_language_table()
    summaries, consensus, _, _ = heterogeneity_report(table)
    expected = sum(s.total_terms for s in summaries)
    assert len(consensus) == expected


def test_report_uniform_shading_at_full_consensus():
    rows = [
        ("aaa", "s1", "c1", "mol"), ("aaa", "s2", "c1", "mol"),
        ("aaa", "s1", "c2", "kib"), ("aaa", "s2", "c2", "kib"),
    ]
    svg = heterogeneity_svg(summarize(_table(rows)))
    assert svg.count('fill="rgb(235,0,0)"') == 2


def test_report_deterministic():
    table = _two_language_table()
    r1 = heterogeneity_report(table)
    r2 = heterogeneity_report(table)
    assert r1[1:] == r2[1:]


def test_report_empty_table():
    summaries, consensus, inventory, svg = heterogeneity_report(_table([]))
    assert summaries == []
    assert "svg" in svg

"""Stage-based pipeline orchestration.

Stages run in dependency order and communicate exclusively through files
in the output directory, so any stage can be re-run on its own from the
cached upstream artifacts.  Every output is byte-deterministic: fixed
orderings, fixed float formatting, and per-language work merged in
canonical order regardless of the worker-pool size.

A stage function reads its upstream artifacts and returns its counts and
its artifacts as ``{relative path: text}``.  ``run_stage`` is the one
executor: it checks the manifest's config hash and input digests, runs
the stage, and writes the artifacts and the updated manifest only after
the stage has returned.  Hence:

- a stage refuses cached artifacts produced under a different
  configuration or from inputs that have changed since;
- a failed stage leaves the earlier artifacts and the manifest untouched;
- a full run (``run_pipeline``) is ``run_stage`` for each stage in a
  staging directory inside the output directory, so every stage of it
  makes the same checks and an input changed during the run fails the
  next stage to start; the artifacts are moved into place,
  ``manifest.json`` last, only after every stage has succeeded, so a
  failed full run leaves the output directory as it was.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import re
import statistics
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from operator import itemgetter
from pathlib import Path

from . import __version__
from .compounds import CompoundRow, compound_counts, extract_candidates, score_and_filter
from .config import PipelineConfig
from .errors import DataError, DependencyError, StageError, UndefinedGammaError
from .features import (
    ConcretenessLexicon,
    CorpusSummary,
    EtymologyTable,
    FeatureMatrix,
    assemble_feature_matrix,
    etymology_features,
    pos_features,
    translation_concreteness,
    word_concreteness,
    word_length_feature,
)
from .lexicon import (
    ColorConcept,
    RoundTripRecord,
    TranslationTable,
    load_lexicon,
    load_seeds,
    numbered_lines,
    round_trip,
)
from .segmentation import (
    PRESENCE_TOP_COLORS,
    affix_presence_feature,
    discover_affixes,
    train_segmenter,
)
from .stats import (
    AFFIX_COLUMN,
    FEATURE_COLUMNS,
    aggregate,
    bootstrap_then_full_aggregate,
    gamma,
    rfe,
    sequence_target,
)
from .wcs import heterogeneity_report, load_wcs

log = logging.getLogger(__name__)

NON_AFFIX_COLUMNS = tuple(c for c in FEATURE_COLUMNS if c != AFFIX_COLUMN)

#: What a stage returns: its counts for the manifest, and its artifacts as
#: ``{path relative to the output directory: text}``.
StageResult = tuple[dict, dict[str, str]]


# ---------------------------------------------------------------------------
# artifact I/O helpers


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _csv_rows(path: Path):
    """Yield the header, then each row, of a cached CSV artifact.  A row
    whose field count differs from the header's raises DataError naming
    the file and row."""
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        yield header
        for number, row in enumerate(reader, 1):
            if len(row) != len(header):
                raise DataError(f"{path}: row {number} has {len(row)} fields, expected {len(header)}")
            yield row


def _read_csv(path: Path):
    rows = _csv_rows(path)
    header = next(rows)
    return header, list(rows)


# A cell as the stages write it: ``json.dumps`` of a list of strings.
_JSON_STRING = r'"[^"\\\x00-\x1f]*(?:\\.[^"\\\x00-\x1f]*)*"'
_JSON_STRING_LIST = rf"\[(?:{_JSON_STRING}(?:, {_JSON_STRING})*)?\]"
_JSON_STRING_LISTS = re.compile(rf"{_JSON_STRING_LIST}(?:\n{_JSON_STRING_LIST})*")


def _json_column(path: Path, cells: list[str]) -> list:
    """Decode a column of JSON cells, one value per cell.

    When every cell is a list of strings written as the stages write it,
    each cell is one JSON value and the column is decoded with a single
    ``json.loads``.  Otherwise each cell is decoded on its own, and a cell
    that is not exactly one JSON value raises DataError naming ``path`` and
    its row, so a malformed cell can never shift the values of other rows.
    """
    if _JSON_STRING_LISTS.fullmatch("\n".join(cells)):
        try:
            return json.loads("[" + ",".join(cells) + "]")
        except ValueError:
            pass
    values = []
    for number, cell in enumerate(cells, 1):
        try:
            values.append(json.loads(cell))
        except ValueError as e:
            raise DataError(f"{path}: row {number}: malformed JSON cell: {e}") from None
    return values


def _columns(path: Path, header: list[str], names) -> list[int]:
    """The positions of ``names`` in the header of the cached CSV ``path``."""
    for name in names:
        if name not in header:
            raise DataError(f"{path}: no column {name!r}")
    return [header.index(name) for name in names]


def _number(path: Path, row: int, column: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"{path}: row {row}, column {column!r}: not a number: {cell!r}") from None


def _need(path: Path) -> Path:
    if not path.exists():
        raise DependencyError(f"missing upstream artifact: {path}")
    return path


def _fmt(value: float) -> str:
    return f"{value:.6f}"


# ---------------------------------------------------------------------------
# cached-artifact readers


def _read_lexicon_cache(out: Path) -> TranslationTable:
    """The ingested lexicon, built from its cached entries as they stand:
    ingest wrote them normalized, and normalizing is idempotent."""
    path = _need(out / "cache/lexicon_normalized.tsv")
    entries = []
    for number, line in numbered_lines(path):
        if not line:
            continue
        entry = tuple(line.split("\t"))
        if len(entry) != 3:
            raise DataError(f"{path}: line {number} has {len(entry)} fields, expected 3")
        if not all(entry):
            raise DataError(f"{path}: line {number} has an empty field")
        entries.append(entry)
    return TranslationTable(entries=frozenset(entries))


def _read_roundtrips(out: Path, back_translations: bool = False) -> list[tuple]:
    """The round-trip cache as (color, language, foreign word) rows.

    With ``back_translations`` the rows are RoundTripRecords, their
    back-translation sets decoded from the whole JSON column at once;
    without it the column is not decoded at all.
    """
    path = _need(out / "cache/roundtrips.csv")
    header, rows = _read_csv(path)
    *triple, bts = _columns(path, header, ("color", "language", "foreign_word", "back_translations"))
    triples = list(map(itemgetter(*triple), rows))
    if not back_translations:
        return triples
    decoded = _json_column(path, [row[bts] for row in rows])
    return [RoundTripRecord(c, lang, word, frozenset(b)) for (c, lang, word), b in zip(triples, decoded)]


def _translation_pairs(roundtrips) -> dict[str, list[tuple[str, str]]]:
    pairs: dict[str, set[tuple[str, str]]] = {}
    for color, lang, word, *_ in roundtrips:
        pairs.setdefault(color, set()).add((lang, word))
    return {color: sorted(p) for color, p in pairs.items()}


def _read_segmentations(out: Path) -> dict[tuple[str, str], tuple[str, ...]]:
    path = _need(out / "cache/segmentations.csv")
    header, rows = _read_csv(path)
    lang, word, segments = _columns(path, header, ("language", "word", "segments"))
    decoded = _json_column(path, [row[segments] for row in rows])
    return dict(zip(map(itemgetter(lang, word), rows), map(tuple, decoded)))


def _read_suffixes(out: Path) -> dict[str, set[str]]:
    """The suffixes of ``affixes.csv``, by language."""
    path = _need(out / "affixes.csv")
    header, rows = _read_csv(path)
    language, affix, position = _columns(path, header, ("language", "affix", "position"))
    suffixes: dict[str, set[str]] = {}
    for row in rows:
        if row[position] == "suffix":
            suffixes.setdefault(row[language], set()).add(row[affix])
    return suffixes


def _read_feature_matrix(out: Path) -> FeatureMatrix:
    path = _need(out / "features.csv")
    header, rows = _read_csv(path)
    color, *positions = _columns(path, header, ("color", *FEATURE_COLUMNS))
    colors = [row[color] for row in rows]
    values = {col: [] for col in FEATURE_COLUMNS}
    for number, row in enumerate(rows, 1):
        for col, i in zip(FEATURE_COLUMNS, positions):
            values[col].append(_number(path, number, col, row[i]))
    return FeatureMatrix(colors=colors, columns=FEATURE_COLUMNS, values=values)


def _read_accepted_compounds(out: Path) -> tuple[list[tuple[str, str, str]], int]:
    """The accepted rows of ``compounds.csv`` as (language, word, glue),
    and the number of rows.  Every row is checked as it is read, but only
    the accepted ones are kept."""
    path = _need(out / "compounds.csv")
    rows = _csv_rows(path)
    header = next(rows)
    language, word, glue, accepted = _columns(path, header, ("language", "word", "glue", "accepted"))
    kept = []
    total = 0
    for total, row in enumerate(rows, 1):
        if row[accepted] == "1":
            kept.append((row[language], row[word], row[glue]))
    return kept, total


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: PipelineConfig) -> StageResult:
    table = load_lexicon(cfg.lexicon)
    seeds = load_seeds(cfg.seeds)

    lex_lines = [f"{l}\t{w}\t{g}" for l, w, g in sorted(table.entries)]

    rows = []
    for concept in seeds:
        for lang in table.languages():
            for rec in round_trip(table, concept.term, lang):
                rows.append(
                    (
                        rec.color,
                        rec.language,
                        rec.foreign_word,
                        json.dumps(sorted(rec.back_translations)),
                    )
                )
    report = table.load_report
    return {
        "lexicon_entries": len(table.entries),
        "lexicon_rows_skipped": report.skipped if report else 0,
        "languages": len(table.languages()),
        "colors": len(seeds),
        "roundtrip_rows": len(rows),
    }, {
        "cache/lexicon_normalized.tsv": "\n".join(lex_lines) + "\n",
        "cache/roundtrips.csv": _csv_text(
            ["color", "language", "foreign_word", "back_translations"], rows
        ),
    }


def _train_language(args):
    """Worker for one language: train its segmenter and discover its
    affixes.  Returns the language, its ``cache/segmentations.csv`` rows,
    its ``affixes.csv`` rows and its training facts; top-level for
    picklability."""
    lang, words, color_words, alpha, max_iters, max_segment_len, thresholds = args
    model = train_segmenter(
        words,
        alpha=alpha,
        max_iters=max_iters,
        language=lang,
        max_segment_len=max_segment_len,
    )
    seg_rows = [
        (lang, word, json.dumps(list(model.segmentations[word])))
        for word in sorted(model.segmentations)
    ]
    affix_rows = sorted(
        (
            (lang, a.form, a.position, a.affix_class, _fmt(a.color_coverage), _fmt(a.global_coverage))
            for a in discover_affixes(model, color_words, words, thresholds)
        ),
        key=lambda r: (r[2], r[1]),
    )
    facts = {
        "words": len(model.segmentations),
        "edge_split_moves": model.edge_split_moves,
        "edge_split_capped": model.edge_split_capped,
        "em_passes": model.em_passes,
        "converged": model.converged,
    }
    return lang, seg_rows, affix_rows, facts


def stage_segment(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    table = _read_lexicon_cache(out)
    color_words: dict[str, set[str]] = {}
    for _, lang, word in _read_roundtrips(out):
        color_words.setdefault(lang, set()).add(word)

    thresholds = cfg.affix_thresholds()
    jobs = [
        (
            lang,
            sorted(table.words_of(lang)),
            sorted(color_words.get(lang, ())),
            cfg.alpha,
            cfg.max_iters,
            cfg.max_segment_len,
            thresholds,
        )
        for lang in table.languages()
    ]
    if cfg.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_train_language, jobs))
    else:
        results = [_train_language(j) for j in jobs]
    results.sort(key=lambda r: r[0])  # canonical merge order

    seg_rows = [row for _, rows, _, _ in results for row in rows]
    affix_rows = [row for _, _, rows, _ in results for row in rows]
    facts = {lang: facts for lang, _, _, facts in results}
    counts = {
        "languages_trained": len(results),
        "affixes": len(affix_rows),
        "edge_split_moves": sum(f["edge_split_moves"] for f in facts.values()),
        "em_passes": sum(f["em_passes"] for f in facts.values()),
        "em_not_converged": [lang for lang, f in facts.items() if not f["converged"]],
        "edge_split_capped": [lang for lang, f in facts.items() if f["edge_split_capped"]],
        "per_language": facts,
    }
    return counts, {
        "cache/segmentations.csv": _csv_text(["language", "word", "segments"], seg_rows),
        "affixes.csv": _csv_text(
            ["language", "affix", "position", "class", "color_coverage", "global_coverage"],
            affix_rows,
        ),
    }


def stage_compounds(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    table = _read_lexicon_cache(out)
    suffixes = _read_suffixes(out)
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang, suffixes.get(lang, ())))
    rows = score_and_filter(candidates, table, cfg.compound_threshold)
    return {
        "candidates": len(rows),
        "accepted": sum(row.accepted for row in rows),
    }, {
        "compounds.csv": _csv_text(
            CompoundRow._fields,
            ((*row[:7], str(row.support), "1" if row.accepted else "0") for row in rows),
        ),
    }


def stage_features(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    seeds = load_seeds(cfg.seeds)
    roundtrips = _read_roundtrips(out, back_translations=True)
    translations = _translation_pairs(roundtrips)
    records: dict[str, list[RoundTripRecord]] = {}
    for rec in roundtrips:
        records.setdefault(rec.color, []).append(rec)
    accepted = {(language, word) for language, word, _ in _read_accepted_compounds(out)[0]}

    conc = ConcretenessLexicon.load(cfg.concreteness)
    ngram = CorpusSummary.load(cfg.ngram)
    treebank = CorpusSummary.load(cfg.treebank)
    etym = EtymologyTable.load(cfg.etymology)

    colors = [c.term for c in seeds]
    compound_feats, compound_missing = compound_counts(
        accepted, {c: translations.get(c, []) for c in colors}
    )
    maps: dict[str, dict[str, float | None]] = {col: {} for col in NON_AFFIX_COLUMNS}
    for color in colors:
        recs = records.get(color, [])
        pairs = translations.get(color, [])
        maps["word-concreteness"][color] = word_concreteness(color, conc)
        maps["translation-concreteness"][color] = (
            translation_concreteness(color, recs, conc) if recs else None
        )
        freq, pct = pos_features(color, ngram)
        maps["ngram-frequency"][color] = freq
        maps["ngram-pct-adj"][color] = pct
        _, tb_pct = pos_features(color, treebank)
        maps["penntb-pct-adj"][color] = tb_pct
        if color in compound_missing:
            maps["compound-count"][color] = None
            maps["compound-frequency"][color] = None
        else:
            count, fraction = compound_feats[color]
            maps["compound-count"][color] = float(count)
            maps["compound-frequency"][color] = fraction
        for process, value in etymology_features(color, etym, etym.total(color)).items():
            maps[process][color] = value
        maps["word-length"][color] = word_length_feature(color, pairs)

    rows = []
    for color in colors:
        row = [color, "1" if translations.get(color) else "0"]
        for col in NON_AFFIX_COLUMNS:
            v = maps[col][color]
            row.append("" if v is None else repr(v))
        rows.append(row)
    return {"colors": len(colors)}, {
        "cache/features_base.csv": _csv_text(["color", "has_translations", *NON_AFFIX_COLUMNS], rows),
    }


def _read_features_base(out: Path):
    path = _need(out / "cache/features_base.csv")
    header, rows = _read_csv(path)
    color, translated, *positions = _columns(path, header, ("color", "has_translations", *NON_AFFIX_COLUMNS))
    colors = [r[color] for r in rows]
    has_translations = {r[color]: r[translated] == "1" for r in rows}
    maps: dict[str, dict[str, float | None]] = {col: {} for col in NON_AFFIX_COLUMNS}
    for number, row in enumerate(rows, 1):
        for col, i in zip(NON_AFFIX_COLUMNS, positions):
            cell = row[i]
            maps[col][row[color]] = _number(path, number, col, cell) if cell else None
    return colors, has_translations, maps


def stage_aggregate(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    colors, has_translations, maps = _read_features_base(out)
    translations = _translation_pairs(_read_roundtrips(out))
    segmentations = _read_segmentations(out)

    # The affix column is bootstrap-dependent; before the bootstrap it is
    # a placeholder that only contributes its missingness (colors without
    # translations can never receive a score) to the drop rule.
    maps = dict(maps)
    maps[AFFIX_COLUMN] = {
        c: 0.0 if has_translations.get(c) else None for c in colors
    }
    matrix = assemble_feature_matrix(maps, colors, FEATURE_COLUMNS, cfg.drop_threshold)
    if matrix.dropped:
        log.info(
            "dropped colors (too many missing features): %s",
            ", ".join(f"{c} ({n}/14)" for c, n in matrix.dropped),
        )
    if len(matrix.colors) < PRESENCE_TOP_COLORS:
        raise DataError(
            f"only {len(matrix.colors)} colors survive the missing-value filter "
            f"(drop_threshold {cfg.drop_threshold}); the affix-presence feature "
            f"needs at least {PRESENCE_TOP_COLORS}"
        )

    def affix_fn(bootstrap_ranking):
        scores, missing = affix_presence_feature(
            matrix.colors,
            translations,
            segmentations,
            bootstrap_ranking,
            min_support=cfg.affix_min_support,
        )
        present = [scores[c] for c in matrix.colors if c not in missing]
        med = statistics.median(present) if present else 0.0
        return {c: med if c in missing else scores[c] for c in matrix.colors}

    boot, final, matrix = bootstrap_then_full_aggregate(
        matrix, cfg.negated, cfg.transforms, affix_fn
    )

    feat_rows = [
        [color, *(repr(matrix.values[col][i]) for col in matrix.columns)]
        for i, color in enumerate(matrix.colors)
    ]
    seeds = {c.term: c for c in load_seeds(cfg.seeds)}

    def ranking_rows(ranking):
        return [
            (color, str(i + 1), _fmt(score), "1" if seeds[color].is_basic else "0")
            for i, (color, score) in enumerate(zip(ranking.colors, ranking.scores))
        ]

    return {
        "colors_ranked": len(matrix.colors),
        "colors_dropped": len(matrix.dropped),
        "dropped": [c for c, _ in matrix.dropped],
        "top_color": final.colors[0],
    }, {
        "features.csv": _csv_text(["color", *matrix.columns], feat_rows),
        "ranking.csv": _csv_text(["color", "rank", "score", "basic"], ranking_rows(final)),
        "ranking_bootstrap.csv": _csv_text(["color", "rank", "score", "basic"], ranking_rows(boot)),
    }


def _targets_for(matrix: FeatureMatrix, seeds: dict[str, ColorConcept], scope: str):
    basic_flags = [1.0 if seeds[c].is_basic else 0.0 for c in matrix.colors]
    stages = {c.term: c.bk_stage for c in seeds.values() if c.bk_stage is not None}
    is_basic = {c.term: c.is_basic for c in seeds.values()}
    seq = sequence_target(matrix.colors, is_basic, stages)
    if scope == "basic-only":
        idx = [i for i, c in enumerate(matrix.colors) if seeds[c].is_basic]
    else:
        idx = list(range(len(matrix.colors)))
    return basic_flags, seq, idx


def _gamma_or_nan(x, y) -> float:
    try:
        return gamma(x, y).gamma
    except UndefinedGammaError:
        return float("nan")


def stage_gamma(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    matrix = _read_feature_matrix(out)
    seeds = {c.term: c for c in load_seeds(cfg.seeds)}
    basic_flags, seq, seq_idx = _targets_for(matrix, seeds, cfg.sequence_scope)

    rows = []
    for col in matrix.columns:
        series = matrix.column(col)
        if col in cfg.negated:
            series = [-v for v in series]
        gb = _gamma_or_nan(series, basic_flags)
        gs = _gamma_or_nan([series[i] for i in seq_idx], [seq[i] for i in seq_idx])
        rows.append((col, _fmt(gb), _fmt(gs)))

    ranking = aggregate(matrix, cfg.negated, transforms=cfg.transforms)
    scores = [ranking.scores_by_color[c] for c in matrix.colors]
    gb = _gamma_or_nan(scores, basic_flags)
    gs = _gamma_or_nan([scores[i] for i in seq_idx], [seq[i] for i in seq_idx])
    rows.append(("aggregate", _fmt(gb), _fmt(gs)))

    return {
        "gamma_basic_aggregate": gb if gb == gb else None,
        "gamma_sequence_aggregate": gs if gs == gs else None,
    }, {
        "gamma.csv": _csv_text(["feature", "gamma_basic", "gamma_sequence"], rows),
    }


def stage_rfe(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    if not cfg.rfe_enabled:
        return {"enabled": False}, {"rfe.json": json.dumps({"enabled": False}, indent=2) + "\n"}
    matrix = _read_feature_matrix(out)
    seeds = {c.term: c for c in load_seeds(cfg.seeds)}
    basic_flags, seq, seq_idx = _targets_for(matrix, seeds, cfg.sequence_scope)

    payload = {"enabled": True}
    for target_name in cfg.rfe_targets:
        if target_name == "basic":
            target = basic_flags
            m = matrix
        else:
            target = [seq[i] for i in seq_idx]
            m = matrix
            if len(seq_idx) != len(matrix.colors):
                m = FeatureMatrix(
                    colors=[matrix.colors[i] for i in seq_idx],
                    columns=matrix.columns,
                    values={
                        col: [matrix.values[col][i] for i in seq_idx]
                        for col in matrix.columns
                    },
                )
        if len(set(target)) < 2:
            # every pair is tied in a constant target, so no gamma is defined
            payload[target_name] = {"trajectory": [], "best_features": [], "best_gamma": None}
            continue
        trajectory, best = rfe(m, target, cfg.negated, cfg.transforms)
        payload[target_name] = {
            "trajectory": [
                {"removed_feature": step["removed"], "gamma": step["gamma"]}
                for step in trajectory
            ],
            "best_features": list(best),
            "best_gamma": trajectory[-1]["gamma"],
        }
    return {"targets": list(cfg.rfe_targets)}, {
        "rfe.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
    }


def stage_wcs(cfg: PipelineConfig) -> StageResult:
    table = load_wcs(cfg.wcs)
    summaries, consensus, inventory, svg = heterogeneity_report(table)
    return {
        "languages": len(summaries),
        "responses": len(table.rows),
        "conflicts": table.conflicts,
        "rows_skipped": table.skipped,
    }, {
        "consensus.csv": _csv_text(["language", "term", "consensus"], consensus),
        "inventory.csv": _csv_text(
            ["language", "total_terms", "inventory_mean", "inventory_std"], inventory
        ),
        "heterogeneity.svg": svg,
    }


def stage_report(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    lines = ["# Color basicness run summary", ""]

    path = _need(out / "ranking.csv")
    header, ranking = _read_csv(path)
    color, rank, score, basic = _columns(path, header, ("color", "rank", "score", "basic"))
    lines += ["## Ranking (top 15)", "", "| rank | color | score | basic |", "| --- | --- | --- | --- |"]
    for row in ranking[:15]:
        lines.append(f"| {row[rank]} | {row[color]} | {row[score]} | {'yes' if row[basic] == '1' else ''} |")
    lines.append("")

    path = _need(out / "gamma.csv")
    header, rows = _read_csv(path)
    cells = itemgetter(*_columns(path, header, ("feature", "gamma_basic", "gamma_sequence")))
    lines += ["## Rank correlations", "", "| feature | vs basic | vs sequence |", "| --- | --- | --- |"]
    for row in rows:
        lines.append("| " + " | ".join(cells(row)) + " |")
    lines.append("")

    accepted, candidates = _read_accepted_compounds(out)
    dist = Counter(len(glue) for _, _, glue in accepted)
    lines += ["## Compounds", "", f"accepted analyses: {len(accepted)} of {candidates} candidates", ""]
    if dist:
        lines.append("glue length distribution: " + ", ".join(f"{k}: {dist[k]}" for k in sorted(dist)))
        lines.append("")

    path = _need(out / "affixes.csv")
    header, rows = _read_csv(path)
    cells = itemgetter(
        *_columns(path, header, ("language", "affix", "position", "class", "color_coverage", "global_coverage"))
    )
    lines += ["## Affixes", "", "| language | affix | position | class | color cov. | global cov. |", "| --- | --- | --- | --- | --- | --- |"]
    for row in rows:
        lines.append("| " + " | ".join(cells(row)) + " |")
    lines.append("")

    # the seeds missing from the ranking are exactly those the aggregate
    # stage dropped
    ranked = {row[color] for row in ranking}
    dropped = [c.term for c in load_seeds(cfg.seeds) if c.term not in ranked]
    if dropped:
        lines += ["## Dropped colors", "", ", ".join(dropped), ""]

    return {}, {"summary.md": "\n".join(lines) + "\n"}


STAGE_FUNCS = {
    "ingest": stage_ingest,
    "segment": stage_segment,
    "compounds": stage_compounds,
    "features": stage_features,
    "aggregate": stage_aggregate,
    "gamma": stage_gamma,
    "rfe": stage_rfe,
    "wcs": stage_wcs,
    "report": stage_report,
}
STAGE_ORDER = tuple(STAGE_FUNCS)


# ---------------------------------------------------------------------------
# manifest and entry points


def _input_digests(cfg: PipelineConfig) -> dict[str, str]:
    out = {}
    for name, path in sorted(cfg.input_paths().items()):
        out[name] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return out


#: the manifest fields that ``run_stage`` reads, with their JSON types
_MANIFEST_TYPES = {
    "config_hash": (str, "a string"),
    "input_digests": (dict, "an object"),
    "stages": (dict, "an object"),
}


def _load_manifest(out: Path) -> dict:
    """The manifest of ``out``, or ``{}`` if there is none.  A manifest
    that is not a JSON object, or whose fields read here have the wrong
    type, raises DataError naming the file."""
    path = out / "manifest.json"
    if not path.exists():
        return {}
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:
        raise DataError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: expected a JSON object")
    for key, (kind, expected) in _MANIFEST_TYPES.items():
        if key in manifest and not isinstance(manifest[key], kind):
            raise DataError(f"{path}: {key}: expected {expected}")
    return manifest


def _store_manifest(out: Path, manifest: dict):
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline=""
    )


def run_stage(cfg: PipelineConfig, stage: str) -> dict:
    """Run one stage against the artifacts in ``cfg.output_dir``, write
    the artifacts it returns there and record it in the manifest.

    Refuses cached artifacts produced under a different configuration or
    from inputs that have changed since.  A failing stage writes nothing,
    so earlier artifacts and the manifest stay as they were; a failure of
    the stage itself is raised as a StageError.
    """
    if stage not in STAGE_FUNCS:
        raise ValueError(f"unknown stage {stage!r}")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(out)
    if manifest.get("config_hash") not in (None, cfg.config_hash()):
        raise DataError(
            "cached artifacts were produced under a different configuration; "
            "re-run the full pipeline"
        )
    digests = _input_digests(cfg)
    cached = manifest.get("input_digests", digests)
    changed = sorted(k for k in digests.keys() | cached.keys() if digests.get(k) != cached.get(k))
    if changed:
        raise DataError(
            f"inputs changed since the cached artifacts were produced: {', '.join(changed)}; "
            "re-run the full pipeline"
        )
    manifest.update(config_hash=cfg.config_hash(), input_digests=digests, tool_version=__version__)
    started = time.perf_counter()
    try:
        counts, artifacts = STAGE_FUNCS[stage](cfg)
        for rel, text in artifacts.items():
            path = out / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8", newline="")
    except Exception as e:
        raise StageError(stage, e) from e
    manifest.setdefault("stages", {})[stage] = {
        "counts": counts,
        "duration_s": round(time.perf_counter() - started, 6),
    }
    if stage == "aggregate":
        manifest["dropped_colors"] = counts["dropped"]
    _store_manifest(out, manifest)
    return counts


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every stage in dependency order and return the manifest.

    Each stage is a ``run_stage`` in a staging directory inside the
    output directory; the artifacts, then ``manifest.json``, are moved
    into place only once every stage has succeeded.  On failure the
    staging directory is removed and the output directory is left as it
    was.
    """
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".staging-", dir=out) as staging:
        staging = Path(staging)
        staged = dataclasses.replace(cfg, output_dir=staging)
        for stage in STAGE_ORDER:
            counts = run_stage(staged, stage)
            log.info("stage %s done: %s", stage, counts)
        manifest = _load_manifest(staging)
        last = staging / "manifest.json"
        for path in sorted(p for p in staging.rglob("*") if p.is_file() and p != last):
            target = out / path.relative_to(staging)
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        os.replace(last, out / "manifest.json")
    return manifest

"""Stage-based pipeline orchestration.

Stages run in dependency order and communicate exclusively through files
in the output directory, so any stage can be re-run on its own from the
cached upstream artifacts.  Every output is byte-deterministic: fixed
orderings, fixed float formatting, and per-language work merged in
canonical order regardless of the worker-pool size.

A stage function reads its upstream artifacts and returns its counts and
its artifacts as ``{relative path: text}``.  ``run_stage`` is the one
executor: it checks the manifest's config hash and input digests, checks
each artifact the stage reads (``READS``) against the sha256 the
manifest records for it, runs the stage, and writes the artifacts and
the updated manifest, with their digests, only after the stage has
returned.  Hence:

- a stage refuses cached artifacts produced under a different
  configuration or from inputs that have changed since, and any cached
  artifact that is not, byte for byte, the one its stage wrote;
- a failed stage leaves the earlier artifacts and the manifest untouched;
- a full run (``run_pipeline``) is ``run_stage`` for each stage in a
  staging directory inside the output directory, so every stage of it
  makes the same checks and an input changed during the run fails the
  next stage to start; the artifacts are moved into place,
  ``manifest.json`` last, only after every stage has succeeded, so a
  failed full run leaves the output directory as it was.

Each CSV artifact's columns are stated once, in ``COLUMNS``: every writer
takes its header from it (``_csv_text``), and every cached CSV is read
through ``_read``, which streams the named cells of each row.  A reader
checks nothing of what it reads: the digest check has shown that the
file is exactly what its stage wrote.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from itertools import groupby, islice
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
#: one INFO line per stage with the memory high-water mark, apart from the
#: stage lines of ``log``
memory_log = logging.getLogger(f"{__name__}.memory")

NON_AFFIX_COLUMNS = tuple(c for c in FEATURE_COLUMNS if c != AFFIX_COLUMN)

#: What a stage returns: its counts for the manifest, and its artifacts as
#: ``{path relative to the output directory: text}``.
StageResult = tuple[dict, dict[str, str]]


# ---------------------------------------------------------------------------
# artifact I/O helpers

_RANKING_COLUMNS = ("color", "rank", "score", "basic")

#: Every CSV artifact, by path relative to the output directory, with its
#: columns in order.  Writers take their header from here, and ``_read``
#: finds each column's position here.
COLUMNS = {
    "cache/roundtrips.csv": ("color", "language", "foreign_word", "back_translations"),
    "cache/segmentations.csv": ("language", "word", "segments"),
    "affixes.csv": ("language", "affix", "position", "class", "color_coverage", "global_coverage"),
    "compounds.csv": CompoundRow._fields,
    "cache/features_base.csv": ("color", "has_translations", *NON_AFFIX_COLUMNS),
    "features.csv": ("color", *FEATURE_COLUMNS),
    "ranking.csv": _RANKING_COLUMNS,
    "ranking_bootstrap.csv": _RANKING_COLUMNS,
    "gamma.csv": ("feature", "gamma_basic", "gamma_sequence"),
    "consensus.csv": ("language", "term", "consensus"),
    "inventory.csv": ("language", "total_terms", "inventory_mean", "inventory_std"),
}


def _csv_text(rel: str, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS[rel])
    writer.writerows(rows)
    return buf.getvalue()


def _read(out: Path, rel: str, names=None):
    """Yield the ``names`` cells (two or more; by default every column of
    ``COLUMNS[rel]``) of each row of the cached CSV artifact ``rel``, as a
    tuple, one row at a time.  The file is the one its stage wrote, so its
    header is ``COLUMNS[rel]``."""
    columns = COLUMNS[rel]
    pick = itemgetter(*(columns.index(name) for name in names or columns))
    with (out / rel).open(encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        yield from map(pick, rows)


#: kept rows, and JSON cells decoded, at a time by ``_decoded_rows``
_DECODE_BLOCK = 4096


def _decoded_rows(out: Path, rel: str, keep=None):
    """Yield ``(row, value)`` for each row of the cached CSV artifact
    ``rel`` that ``keep`` accepts (every row by default): its cells as
    ``_read`` gives them, and its last cell decoded as JSON.  The kept
    rows are taken ``_DECODE_BLOCK`` at a time, and each block's cells are
    decoded with one ``json.loads``; a row that is not kept is dropped as
    it is read."""
    kept = (row for row in _read(out, rel) if keep is None or keep(row))
    while block := list(islice(kept, _DECODE_BLOCK)):
        yield from zip(block, json.loads("[" + ",".join(row[-1] for row in block) + "]"))


def _fmt(value: float) -> str:
    return f"{value:.6f}"


# ---------------------------------------------------------------------------
# cached-artifact readers


def _read_lexicon_cache(out: Path) -> TranslationTable:
    """The ingested lexicon, built from its cached entries as they stand:
    ingest wrote them normalized, and normalizing is idempotent."""
    lines = numbered_lines(out / "cache/lexicon_normalized.tsv")
    return TranslationTable(entries=frozenset(tuple(line.split("\t")) for _, line in lines))


def _translation_pairs(roundtrips) -> dict[str, list[tuple[str, str]]]:
    pairs: dict[str, set[tuple[str, str]]] = {}
    for color, lang, word, *_ in roundtrips:
        pairs.setdefault(color, set()).add((lang, word))
    return {color: sorted(p) for color, p in pairs.items()}


def _read_feature_matrix(out: Path) -> FeatureMatrix:
    colors = []
    values = {col: [] for col in FEATURE_COLUMNS}
    for color, *cells in _read(out, "features.csv"):
        colors.append(color)
        for col, cell in zip(FEATURE_COLUMNS, cells):
            values[col].append(float(cell))
    return FeatureMatrix(colors=colors, columns=FEATURE_COLUMNS, values=values)


def _read_accepted_compounds(out: Path) -> tuple[list[tuple[str, str, str]], int]:
    """The accepted rows of ``compounds.csv`` as (language, word, glue),
    and the number of rows."""
    kept = []
    total = 0
    rows = _read(out, "compounds.csv", ("language", "word", "glue", "accepted"))
    for total, (language, word, glue, accepted) in enumerate(rows, 1):
        if accepted == "1":
            kept.append((language, word, glue))
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
        "cache/roundtrips.csv": _csv_text("cache/roundtrips.csv", rows),
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
    for lang, word in _read(out, "cache/roundtrips.csv", ("language", "foreign_word")):
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
        "cache/segmentations.csv": _csv_text("cache/segmentations.csv", seg_rows),
        "affixes.csv": _csv_text("affixes.csv", affix_rows),
    }


def stage_compounds(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    table = _read_lexicon_cache(out)
    suffixes: dict[str, set[str]] = {}
    for lang, affix, position in _read(out, "affixes.csv", ("language", "affix", "position")):
        if position == "suffix":
            suffixes.setdefault(lang, set()).add(affix)
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang, suffixes.get(lang, ())))
    rows = score_and_filter(candidates, table, cfg.compound_threshold)
    return {
        "candidates": len(rows),
        "accepted": sum(row.accepted for row in rows),
    }, {
        "compounds.csv": _csv_text(
            "compounds.csv",
            ((*row[:7], str(row.support), "1" if row.accepted else "0") for row in rows),
        ),
    }


def stage_features(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    seeds = load_seeds(cfg.seeds)
    colors = [c.term for c in seeds]
    conc = ConcretenessLexicon.load(cfg.concreteness)
    # ingest writes each color's rows together, so each color's round-trip
    # records are reduced to its translation concreteness as soon as its
    # rows end, and only that float is kept
    translations: dict[str, list[tuple[str, str]]] = {}
    concreteness: dict[str, float | None] = {}
    for color, group in groupby(_decoded_rows(out, "cache/roundtrips.csv"), key=lambda r: r[0][0]):
        group = list(group)
        translations.update(_translation_pairs(row for row, _ in group))
        records = [RoundTripRecord(color, lang, word, frozenset(b)) for (_, lang, word, _), b in group]
        concreteness[color] = translation_concreteness(color, records, conc)
    accepted = {(language, word) for language, word, _ in _read_accepted_compounds(out)[0]}

    ngram = CorpusSummary.load(cfg.ngram)
    treebank = CorpusSummary.load(cfg.treebank)
    etym = EtymologyTable.load(cfg.etymology)

    compound_feats, compound_missing = compound_counts(
        accepted, {c: translations.get(c, []) for c in colors}
    )
    maps: dict[str, dict[str, float | None]] = {col: {} for col in NON_AFFIX_COLUMNS}
    for color in colors:
        pairs = translations.get(color, [])
        maps["word-concreteness"][color] = word_concreteness(color, conc)
        maps["translation-concreteness"][color] = concreteness.get(color)
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
        "cache/features_base.csv": _csv_text("cache/features_base.csv", rows),
    }


def stage_aggregate(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    seeds = {c.term: c for c in load_seeds(cfg.seeds)}
    colors = []
    maps: dict[str, dict[str, float | None]] = {col: {} for col in FEATURE_COLUMNS}
    for color, translated, *cells in _read(out, "cache/features_base.csv"):
        colors.append(color)
        for col, cell in zip(NON_AFFIX_COLUMNS, cells):
            maps[col][color] = float(cell) if cell else None
        # The affix column is bootstrap-dependent; before the bootstrap it
        # is a placeholder that only contributes its missingness (colors
        # without translations can never receive a score) to the drop rule.
        maps[AFFIX_COLUMN][color] = 0.0 if translated == "1" else None
    translations = _translation_pairs(
        _read(out, "cache/roundtrips.csv", ("color", "language", "foreign_word"))
    )
    # the affix-presence feature looks up only the translation pairs, so
    # only their segmentations are decoded, each keyed by the pair tuple
    # that ``translations`` already holds
    pairs = {pair: pair for color_pairs in translations.values() for pair in color_pairs}
    segmentations = {
        pairs[row[:2]]: tuple(segments)
        for row, segments in _decoded_rows(
            out, "cache/segmentations.csv", lambda row: row[:2] in pairs
        )
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
        [color, *(repr(matrix.values[col][i]) for col in FEATURE_COLUMNS)]
        for i, color in enumerate(matrix.colors)
    ]

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
        "features.csv": _csv_text("features.csv", feat_rows),
        "ranking.csv": _csv_text("ranking.csv", ranking_rows(final)),
        "ranking_bootstrap.csv": _csv_text("ranking_bootstrap.csv", ranking_rows(boot)),
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
        "gamma.csv": _csv_text("gamma.csv", rows),
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
        "consensus.csv": _csv_text("consensus.csv", consensus),
        "inventory.csv": _csv_text("inventory.csv", inventory),
        "heterogeneity.svg": svg,
    }


def stage_report(cfg: PipelineConfig) -> StageResult:
    out = cfg.output_dir
    lines = ["# Color basicness run summary", ""]

    ranked = set()
    lines += ["## Ranking (top 15)", "", "| rank | color | score | basic |", "| --- | --- | --- | --- |"]
    for i, (color, rank, score, basic) in enumerate(_read(out, "ranking.csv")):
        if i < 15:
            lines.append(f"| {rank} | {color} | {score} | {'yes' if basic == '1' else ''} |")
        ranked.add(color)
    lines.append("")

    lines += ["## Rank correlations", "", "| feature | vs basic | vs sequence |", "| --- | --- | --- |"]
    lines += ["| " + " | ".join(row) + " |" for row in _read(out, "gamma.csv")]
    lines.append("")

    accepted, candidates = _read_accepted_compounds(out)
    dist = Counter(len(glue) for _, _, glue in accepted)
    lines += ["## Compounds", "", f"accepted analyses: {len(accepted)} of {candidates} candidates", ""]
    if dist:
        lines.append("glue length distribution: " + ", ".join(f"{k}: {dist[k]}" for k in sorted(dist)))
        lines.append("")

    lines += ["## Affixes", "", "| language | affix | position | class | color cov. | global cov. |", "| --- | --- | --- | --- | --- | --- |"]
    lines += ["| " + " | ".join(row) + " |" for row in _read(out, "affixes.csv")]
    lines.append("")

    # the seeds missing from the ranking are exactly those the aggregate
    # stage dropped
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

#: The cached artifacts each stage reads, which ``run_stage`` checks
#: against their recorded digests before the stage starts; a stage reads
#: nothing else of the output directory.  ``rfe`` declares
#: ``features.csv`` even when it is disabled and does not read it.
READS = {
    "ingest": (),
    "segment": ("cache/lexicon_normalized.tsv", "cache/roundtrips.csv"),
    "compounds": ("cache/lexicon_normalized.tsv", "affixes.csv"),
    "features": ("cache/roundtrips.csv", "compounds.csv"),
    "aggregate": ("cache/features_base.csv", "cache/roundtrips.csv", "cache/segmentations.csv"),
    "gamma": ("features.csv",),
    "rfe": ("features.csv",),
    "wcs": (),
    "report": ("ranking.csv", "gamma.csv", "compounds.csv", "affixes.csv"),
}


# ---------------------------------------------------------------------------
# manifest and entry points


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _input_digests(cfg: PipelineConfig) -> dict[str, str]:
    return {name: _sha256(Path(path).read_bytes()) for name, path in sorted(cfg.input_paths().items())}


#: the manifest fields that ``run_stage`` reads, with their JSON types
_MANIFEST_TYPES = {
    "config_hash": (str, "a string"),
    "input_digests": (dict, "an object"),
    "stages": (dict, "an object"),
}


def _load_manifest(out: Path) -> dict:
    """The manifest of ``out``, or ``{}`` if there is none.  A manifest
    that is not a JSON object, or whose fields read here (each stage's
    entry and its ``artifacts`` included) have the wrong type, raises
    DataError naming the file."""
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
    for stage, entry in manifest.get("stages", {}).items():
        if not isinstance(entry, dict):
            raise DataError(f"{path}: stages.{stage}: expected an object")
        if not isinstance(entry.get("artifacts", {}), dict):
            raise DataError(f"{path}: stages.{stage}.artifacts: expected an object")
    return manifest


def _store_manifest(out: Path, manifest: dict):
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline=""
    )


#: ``ru_maxrss`` is in bytes on macOS and in kilobytes elsewhere
_RSS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10


def run_stage(cfg: PipelineConfig, stage: str) -> dict:
    """Run one stage against the artifacts in ``cfg.output_dir``, write
    the artifacts it returns there and record it in the manifest.

    Refuses cached artifacts produced under a different configuration or
    from inputs that have changed since.  As a failure of the stage, it
    refuses an artifact in ``READS[stage]`` that is missing
    (DependencyError) or whose sha256 is not the one the manifest records
    for it (DataError); it records the sha256 of each artifact it writes.
    A failing stage writes nothing, so earlier artifacts and the manifest
    stay as they were; a failure of the stage itself, these refusals
    included, is raised as a StageError.  Logs the memory
    high-water mark of the process, and of its reaped child processes
    such as ``segment``'s pool, once the stage is done: a mark for the
    whole process so far, not a peak of this stage alone.
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
    recorded = {}
    for entry in manifest.get("stages", {}).values():
        recorded.update(entry.get("artifacts", {}))
    started = time.perf_counter()
    try:
        for rel in READS[stage]:
            path = out / rel
            if not path.exists():
                raise DependencyError(f"missing upstream artifact: {path}")
            if _sha256(path.read_bytes()) != recorded.get(rel):
                raise DataError(f"{path}: not the artifact the manifest records; re-run the full pipeline")
        counts, artifacts = STAGE_FUNCS[stage](cfg)
        for rel, text in artifacts.items():
            path = out / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8", newline="")
    except Exception as e:
        raise StageError(stage, e) from e
    manifest.setdefault("stages", {})[stage] = {
        "artifacts": {rel: _sha256(text.encode("utf-8")) for rel, text in artifacts.items()},
        "counts": counts,
        "duration_s": round(time.perf_counter() - started, 6),
    }
    if stage == "aggregate":
        manifest["dropped_colors"] = counts["dropped"]
    _store_manifest(out, manifest)
    memory_log.info(
        "stage %s memory high-water mark: process %.1f MB, reaped children %.1f MB",
        stage,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_PER_MB,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / _RSS_PER_MB,
    )
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
            facts = counts.get("per_language", {})
            brief = {k: v for k, v in counts.items() if k != "per_language"}
            log.info("stage %s done: %s%s", stage, brief, "; per-language facts in manifest.json" if facts else "")
            for lang, f in facts.items():
                log.debug("stage %s %s: %s", stage, lang, f)
        manifest = _load_manifest(staging)
        last = staging / "manifest.json"
        for path in sorted(p for p in staging.rglob("*") if p.is_file() and p != last):
            target = out / path.relative_to(staging)
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        os.replace(last, out / "manifest.json")
    return manifest

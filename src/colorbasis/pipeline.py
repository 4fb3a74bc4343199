"""Stage-based pipeline orchestration.

Stages run in dependency order, and each writes what it produces as files
in the output directory, so any stage can be re-run on its own from the
cached upstream artifacts.  Every output is byte-deterministic: fixed
orderings, fixed float formatting, and per-language work merged in
canonical order regardless of the worker-pool size.

A stage function takes what it reads from ``built`` and returns its
counts and its artifacts as ``{relative path: text}``; it opens nothing
in the output directory.  ``_execute`` is the one executor: it checks the
manifest's config hash and input digests, reads each artifact the stage
reads (``READS``) and checks those bytes against the sha256 the manifest
records for it, runs the stage, and writes the artifacts, and records
them with their digests, only after the stage has returned.
``run_stage`` runs it against the stored manifest and stores the
manifest again.  Hence:

- a stage refuses cached artifacts produced under a different
  configuration or from inputs that have changed since, and any cached
  artifact that is not, byte for byte, the one its stage wrote;
- a failed stage leaves the earlier artifacts and the manifest untouched;
- a full run (``run_pipeline``) is ``_execute`` for each stage in a
  staging directory inside the output directory, against one manifest
  held in memory, so every stage of it makes the same checks and an input
  changed during the run fails the next stage to start; the manifest is
  stored once, and the artifacts are moved into place, ``manifest.json``
  last, only after every stage has succeeded, so a failed full run leaves
  the output directory as it was.

``built`` holds the value of each artifact a stage reads, and the seed
list under ``"seeds"``; a stage adds the values it builds for later
stages.  In a full run the earlier stages built them, and each is
dropped after its last reader; otherwise ``_execute`` parses each from
the very bytes whose digest it checked, with the artifact's one parser
in ``PARSERS``, and the seed file with ``load_seeds`` for a stage in
``TAKES_SEEDS``.  A stage sees the same values either way.

Each CSV artifact's columns are stated once, in ``COLUMNS``: every writer
takes its header from it (``_csv_text``).
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
import resource
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from itertools import chain, compress, groupby, islice
from operator import itemgetter, methodcaller
from pathlib import Path

from . import __version__
from .compounds import CompoundRow, compound_counts, extract_candidates, score_and_filter
from .config import PipelineConfig
from .errors import DataError, DependencyError, StageError
from .features import (
    NGRAM,
    TREEBANK,
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
    TranslationTable,
    load_lexicon,
    load_seeds,
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
    gamma_or_nan,
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
#: columns in order.  Writers take their header from here; a cached
#: artifact is read by its parser in ``PARSERS``.
COLUMNS = {
    "cache/roundtrips.csv": ("color", "language", "foreign_word", "back_translations"),
    "cache/segmentations.csv": ("language", "word", "segments"),
    "affixes.csv": ("language", "affix", "position", "class", "color_coverage", "global_coverage"),
    "compounds.csv": CompoundRow._fields,
    "cache/features_base.csv": ("color", *NON_AFFIX_COLUMNS),
    "features.csv": ("color", *FEATURE_COLUMNS),
    "ranking.csv": _RANKING_COLUMNS,
    "ranking_bootstrap.csv": _RANKING_COLUMNS,
    "gamma.csv": ("feature", "gamma_basic", "gamma_sequence"),
    "consensus.csv": ("language", "term", "consensus"),
    "inventory.csv": ("language", "total_terms", "inventory_mean", "inventory_std"),
}


def _csv_lines(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _csv_text(rel: str, rows) -> str:
    """The CSV artifact ``rel``: its header, from ``COLUMNS``, then ``rows``."""
    return _csv_lines(chain([COLUMNS[rel]], rows))


#: the lines of ``compounds.csv`` that hold an accepted row: a row's last
#: cell is ``1`` when it is accepted and ``0`` when not
_ACCEPTED = re.compile(r"^.*,1$", re.MULTILINE)
#: a line of a CSV artifact, with its line end: no cell its stage writes
#: holds a line break (words, glosses and colors come from single lines of
#: the inputs, and JSON cells escape control characters), so each line
#: after the header is one row
_LINE = re.compile(r".*\n")
#: a row's first and last cells
_FIRST = itemgetter(0)
_LAST = itemgetter(-1)
#: a round-trip record's translation pair (language, foreign word), and
#: its language with its back-translations
_PAIR = itemgetter(1, 2)
_SENSES = itemgetter(1, 3)
#: a ``compounds.csv`` row's language, word and glue, all that is read
#: of its accepted rows
_COMPOUND = itemgetter(*map(CompoundRow._fields.index, ("language", "word", "glue")))

#: rows, and JSON cells decoded, at a time by ``_records``: few enough
#: that a block's decoded lists are gone before the cyclic collector moves
#: them on to its oldest generation
_DECODE_BLOCK = 512


#: a string as ``json.dumps`` writes it, in C where the C encoder is built
_json_string = json.encoder.encode_basestring_ascii


def _json_list(items) -> str:
    """The JSON list of the strings ``items``, the same text as
    ``json.dumps(list(items))``, without ``json.dumps``'s per-call cost."""
    return "[" + ", ".join(map(_json_string, items)) + "]"


def _fmt(value: float) -> str:
    return f"{value:.6f}"


# ---------------------------------------------------------------------------
# cached-artifact parsers


def _rows(text: str, built: dict) -> list[tuple[str, ...]]:
    """Each row of a CSV artifact, its cells as a tuple."""
    return list(map(tuple, csv.reader(_LINE.findall(text)[1:])))


def _records(text: str, keep=None, shared: dict | None = None):
    """Yield each row of a CSV artifact whose last cell is a JSON list that
    ``keep`` accepts (every row by default) as a record: its cells as a
    tuple, the last decoded to a tuple, or to the equal tuple ``shared``
    holds if it is given.  The kept rows are taken ``_DECODE_BLOCK`` at a
    time, and each block's last cells are decoded with one ``json.loads``.
    Records come as they are decoded, so a caller that keeps few of them,
    or shares their lists, leaves few objects for the cyclic collector to
    track."""
    rows = csv.reader(_LINE.findall(text)[1:])
    rows = rows if keep is None else filter(keep, rows)
    while block := list(islice(rows, _DECODE_BLOCK)):
        values = list(map(tuple, json.loads("[" + ",".join(map(_LAST, block)) + "]")))
        if shared is not None:
            values = map(shared.setdefault, values, values)
        # each row's cells but the last, joined to its value as a 1-tuple
        yield from map(tuple.__add__, map(tuple, map(itemgetter(slice(-1)), block)), zip(values))


def _parse_lexicon(text: str, built: dict) -> TranslationTable:
    """The ingested lexicon, built from its cached entries as they stand
    and as they stream: ingest wrote them normalized, distinct and sorted,
    and normalizing is idempotent."""
    return TranslationTable.from_sorted(map(methodcaller("split", "\t"), text.split("\n")[:-1]))


def _parse_segmentations(text: str, built: dict) -> dict[str, dict[str, tuple[str, ...]]]:
    """Per language, the segmentations of more than one segment of the
    round-trip records' words, which are all that the affix-presence
    feature looks up: only their rows are decoded.  The round-trip pairs
    are held as ``language<TAB>word`` strings (no input cell holds a tab),
    which the cyclic collector does not track."""
    pairs = set(map("\t".join, map(_PAIR, built["cache/roundtrips.csv"])))
    by_language: dict[str, dict[str, tuple[str, ...]]] = {}
    for lang, word, segments in _records(text, lambda row: f"{row[0]}\t{row[1]}" in pairs):
        if len(segments) > 1:
            by_language.setdefault(lang, {})[word] = segments
    return by_language


def _parse_compounds(text: str, built: dict) -> tuple[int, list[tuple[str, str, str]]]:
    """The number of rows of ``compounds.csv``, and its accepted rows'
    language, word and glue; only the accepted lines are parsed."""
    return text.count("\n") - 1, list(map(_COMPOUND, csv.reader(_ACCEPTED.findall(text))))


def _parse_feature_matrix(text: str, built: dict) -> FeatureMatrix:
    rows = _rows(text, built)
    values = {col: [float(row[i]) for row in rows] for i, col in enumerate(FEATURE_COLUMNS, 1)}
    return FeatureMatrix(colors=list(map(_FIRST, rows)), columns=FEATURE_COLUMNS, values=values)


#: Each artifact a stage reads, with its parser: given the artifact's text
#: and the values ``_execute`` placed in ``built`` before it, the parser
#: returns the value the artifact's stage hands on.  It checks nothing of
#: what it parses: the digest check has shown that the text is exactly
#: what its stage wrote.
PARSERS = {
    "cache/lexicon_normalized.tsv": _parse_lexicon,
    # a few glosses make up most back-translation lists: equal ones share
    # one tuple, as they do in the lexicon table
    "cache/roundtrips.csv": lambda text, built: list(_records(text, shared={})),
    "cache/segmentations.csv": _parse_segmentations,
    "affixes.csv": _rows,
    "compounds.csv": _parse_compounds,
    "cache/features_base.csv": _rows,
    "features.csv": _parse_feature_matrix,
    "ranking.csv": _rows,
    "gamma.csv": _rows,
}


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: PipelineConfig, built: dict) -> StageResult:
    counts = {}
    table = built["cache/lexicon_normalized.tsv"] = load_lexicon(cfg.lexicon, counts)
    seeds = built["seeds"]

    lex_lines = [f"{l}\t{w}\t{g}" for l, w, g in table]

    languages = table.languages()
    records = built["cache/roundtrips.csv"] = [
        rec for concept in seeds for lang in languages for rec in round_trip(table, concept.term, lang)
    ]
    # the table's forward index, a cached property, is larger than the
    # table and serves these round trips alone: clear it before the table
    # is handed on
    vars(table).pop("_forward", None)
    return {
        "lexicon_entries": len(lex_lines),
        **counts,
        "languages": len(languages),
        "colors": len(seeds),
        "roundtrip_rows": len(records),
    }, {
        "cache/lexicon_normalized.tsv": "\n".join(lex_lines) + "\n",
        "cache/roundtrips.csv": _csv_text(
            "cache/roundtrips.csv",
            ((color, lang, word, _json_list(senses)) for color, lang, word, senses in records),
        ),
    }


def _train_language(args):
    """Worker for one language: train its segmenter and discover its
    affixes.  Returns the language, its ``cache/segmentations.csv`` lines,
    its ``affixes.csv`` rows, its color words' segmentations of more than
    one segment and its training facts; top-level for picklability."""
    lang, words, color_words, alpha, max_iters, max_segment_len, thresholds = args
    model = train_segmenter(
        words,
        alpha=alpha,
        max_iters=max_iters,
        language=lang,
        max_segment_len=max_segment_len,
    )
    segmentations = model.segmentations
    # encoded here, in parallel, and sent as one string
    seg_lines = _csv_lines((lang, word, _json_list(segmentations[word])) for word in sorted(segmentations))
    affix_rows = sorted(
        (
            (lang, a.form, a.position, a.affix_class, _fmt(a.color_coverage), _fmt(a.global_coverage))
            for a in discover_affixes(model, color_words, words, thresholds)
        ),
        key=lambda r: (r[2], r[1]),
    )
    # in the order of ``color_words``, and each distinct segment once, so
    # that it is pickled and sent once
    canonical: dict[str, str] = {}
    color_segmentations = [
        tuple(canonical.setdefault(segment, segment) for segment in segments) if len(segments) > 1 else None
        for segments in map(segmentations.__getitem__, color_words)
    ]
    facts = {
        "words": len(segmentations),
        "segments": len(model.counts),
        "affixes": len(affix_rows),
        "edge_split_moves": model.edge_split_moves,
        "edge_split_capped": model.edge_split_capped,
        "em_passes": model.em_passes,
        "converged": model.converged,
    }
    return lang, seg_lines, affix_rows, color_segmentations, facts


def stage_segment(cfg: PipelineConfig, built: dict) -> StageResult:
    table = built["cache/lexicon_normalized.tsv"]
    color_words: dict[str, set[str]] = {}
    for lang, word in map(_PAIR, built["cache/roundtrips.csv"]):
        color_words.setdefault(lang, set()).add(word)

    thresholds = cfg.affix_thresholds()
    jobs = [
        (
            lang,
            list(table.glossary(lang)),
            sorted(color_words.get(lang, ())),
            cfg.alpha,
            cfg.max_iters,
            cfg.max_segment_len,
            thresholds,
        )
        for lang in table.languages()
    ]
    if cfg.jobs > 1 and len(jobs) > 1:
        # the pool forks all of its workers at the first task, so it gets no
        # more of them than there are languages
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(jobs))) as pool:
            results = list(pool.map(_train_language, jobs))
    else:
        results = [_train_language(j) for j in jobs]
    # what ``aggregate`` reads of the segmentations (``_parse_segmentations``),
    # keyed by the words the jobs were given: the results are in job order
    built["cache/segmentations.csv"] = {
        lang: multi
        for (lang, _, words, *_), (_, _, _, kept, _) in zip(jobs, results)
        if (multi := {word: segments for word, segments in zip(words, kept) if segments})
    }
    results.sort(key=lambda r: r[0])  # canonical merge order

    affix_rows = built["affixes.csv"] = [row for _, _, rows, _, _ in results for row in rows]
    facts = {lang: facts for lang, _, _, _, facts in results}
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
        "cache/segmentations.csv": "".join([_csv_text("cache/segmentations.csv", ()), *(lines for _, lines, *_ in results)]),
        "affixes.csv": _csv_text("affixes.csv", affix_rows),
    }


def stage_compounds(cfg: PipelineConfig, built: dict) -> StageResult:
    table = built["cache/lexicon_normalized.tsv"]
    suffixes: dict[str, set[str]] = {}
    for lang, affix, position, *_ in built["affixes.csv"]:
        if position == "suffix":
            suffixes.setdefault(lang, set()).add(affix)
    candidates = []
    for lang in table.languages():
        candidates.extend(extract_candidates(table, lang, suffixes.get(lang, ())))
    rows = score_and_filter(candidates, table, cfg.compound_threshold)
    del candidates
    # what ``features`` and ``report`` read (``_parse_compounds``)
    accepted = list(map(_COMPOUND, compress(rows, map(_LAST, rows))))
    built["compounds.csv"] = (len(rows), accepted)
    return {
        "candidates": len(rows),
        "accepted": len(accepted),
    }, {
        "compounds.csv": _csv_text(
            "compounds.csv",
            ((*row[:7], str(row.support), "1" if row.accepted else "0") for row in rows),
        ),
    }


def stage_features(cfg: PipelineConfig, built: dict) -> StageResult:
    colors = [c.term for c in built["seeds"]]
    counts = {"colors": len(colors)}
    conc = ConcretenessLexicon.load(cfg.concreteness, counts)
    # each color's round-trip records give its translation pairs and its
    # translation concreteness: ingest makes a color's records together,
    # sorted by language and word and each pair once
    translations: dict[str, list[tuple[str, str]]] = {}
    concreteness: dict[str, float | None] = {}
    for color, group in groupby(built["cache/roundtrips.csv"], key=_FIRST):
        color_records = list(group)
        translations[color] = list(map(_PAIR, color_records))
        concreteness[color] = translation_concreteness(map(_SENSES, color_records), conc)
    _, accepted_rows = built["compounds.csv"]
    accepted = {(lang, word) for lang, word, _ in accepted_rows}

    ngram = CorpusSummary.load(cfg.ngram, counts, NGRAM)
    treebank = CorpusSummary.load(cfg.treebank, counts, TREEBANK)
    etym = EtymologyTable.load(cfg.etymology, counts)

    compound_feats, compound_missing = compound_counts(accepted, {c: translations.get(c, []) for c in colors})
    rows = built["cache/features_base.csv"] = []
    for color in colors:
        freq, pct = pos_features(color, ngram)
        _, tb_pct = pos_features(color, treebank)
        count, fraction = (None, None) if color in compound_missing else compound_feats[color]
        values = {
            "word-concreteness": word_concreteness(color, conc),
            "translation-concreteness": concreteness.get(color),
            "ngram-frequency": freq,
            "ngram-pct-adj": pct,
            "penntb-pct-adj": tb_pct,
            "compound-count": None if count is None else float(count),
            "compound-frequency": fraction,
            **etymology_features(color, etym, etym.total(color)),
            "word-length": word_length_feature(color, translations.get(color, [])),
        }
        rows.append((color, *("" if (v := values[col]) is None else repr(v) for col in NON_AFFIX_COLUMNS)))
    return counts, {
        "cache/features_base.csv": _csv_text("cache/features_base.csv", rows),
    }


def stage_aggregate(cfg: PipelineConfig, built: dict) -> StageResult:
    seeds = {c.term: c for c in built["seeds"]}
    # each color's translation pairs, in order (see ``stage_features``)
    translations = {color: list(map(_PAIR, group)) for color, group in groupby(built["cache/roundtrips.csv"], key=_FIRST)}
    colors = []
    maps: dict[str, dict[str, float | None]] = {col: {} for col in FEATURE_COLUMNS}
    for color, *cells in built["cache/features_base.csv"]:
        colors.append(color)
        for col, cell in zip(NON_AFFIX_COLUMNS, cells):
            maps[col][color] = float(cell) if cell else None
        # The affix column is bootstrap-dependent; before the bootstrap it
        # is a placeholder that only contributes its missingness (colors
        # without translations can never receive a score) to the drop rule.
        maps[AFFIX_COLUMN][color] = 0.0 if color in translations else None
    by_language = built["cache/segmentations.csv"]
    # keyed by the pair tuples that ``translations`` already holds
    segmentations = {
        pair: segments
        for color_pairs in translations.values()
        for pair in color_pairs
        if (segments := by_language.get(pair[0], {}).get(pair[1]))
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
        return {c: None if c in missing else scores[c] for c in matrix.colors}

    boot, final, matrix = bootstrap_then_full_aggregate(
        matrix, cfg.negated, cfg.transforms, affix_fn
    )
    # what ``gamma`` and ``rfe`` read (``_parse_feature_matrix``)
    built["features.csv"] = FeatureMatrix(colors=matrix.colors, columns=FEATURE_COLUMNS, values=matrix.values)

    feat_rows = [
        [color, *(repr(matrix.values[col][i]) for col in FEATURE_COLUMNS)]
        for i, color in enumerate(matrix.colors)
    ]

    def ranking_rows(ranking):
        return [
            (color, str(i + 1), _fmt(score), "1" if seeds[color].is_basic else "0")
            for i, (color, score) in enumerate(zip(ranking.colors, ranking.scores))
        ]

    ranking = built["ranking.csv"] = ranking_rows(final)
    return {
        "colors_ranked": len(matrix.colors),
        "colors_dropped": len(matrix.dropped),
        "dropped": [c for c, _ in matrix.dropped],
        "top_color": final.colors[0],
        "imputed": {col: sum(cells) for col, cells in matrix.missing.items()},
    }, {
        "features.csv": _csv_text("features.csv", feat_rows),
        "ranking.csv": _csv_text("ranking.csv", ranking),
        "ranking_bootstrap.csv": _csv_text("ranking_bootstrap.csv", ranking_rows(boot)),
    }


def _targets_for(matrix: FeatureMatrix, seeds: list[ColorConcept], scope: str):
    """The basic flags of ``matrix``'s colors; and the matrix the sequence
    is measured on, with its sequence target: under ``basic-only`` its
    basic colors alone, else ``matrix`` itself."""
    is_basic = {c.term: c.is_basic for c in seeds}
    basic_flags = [1.0 if is_basic[c] else 0.0 for c in matrix.colors]
    if scope == "basic-only":
        matrix = FeatureMatrix(
            colors=list(compress(matrix.colors, basic_flags)),
            columns=matrix.columns,
            values={col: list(compress(values, basic_flags)) for col, values in matrix.values.items()},
        )
    stages = {c.term: c.bk_stage for c in seeds if c.bk_stage is not None}
    return basic_flags, matrix, sequence_target(matrix.colors, is_basic, stages)


def stage_gamma(cfg: PipelineConfig, built: dict) -> StageResult:
    matrix = built["features.csv"]
    basic_flags, scoped, seq = _targets_for(matrix, built["seeds"], cfg.sequence_scope)

    rows = built["gamma.csv"] = []
    for col in matrix.columns:
        sign = -1.0 if col in cfg.negated else 1.0  # exact: v or -v
        gb = gamma_or_nan([sign * v for v in matrix.values[col]], basic_flags)
        gs = gamma_or_nan([sign * v for v in scoped.values[col]], seq)
        rows.append((col, _fmt(gb), _fmt(gs)))

    scores = aggregate(matrix, cfg.negated, transforms=cfg.transforms).scores_by_color
    gb = gamma_or_nan([scores[c] for c in matrix.colors], basic_flags)
    gs = gamma_or_nan([scores[c] for c in scoped.colors], seq)
    rows.append(("aggregate", _fmt(gb), _fmt(gs)))

    return {
        "gamma_basic_aggregate": gb if gb == gb else None,
        "gamma_sequence_aggregate": gs if gs == gs else None,
    }, {
        "gamma.csv": _csv_text("gamma.csv", rows),
    }


def stage_rfe(cfg: PipelineConfig, built: dict) -> StageResult:
    if not cfg.rfe_enabled:
        return {"enabled": False}, {"rfe.json": json.dumps({"enabled": False}, indent=2) + "\n"}
    matrix = built["features.csv"]
    basic_flags, scoped, seq = _targets_for(matrix, built["seeds"], cfg.sequence_scope)
    targets = {"basic": (matrix, basic_flags), "sequence": (scoped, seq)}

    payload = {"enabled": True}
    for target_name in cfg.rfe_targets:
        # an empty trajectory when no gamma is defined for the full set,
        # as for a constant target, whose every pair is tied
        trajectory, best = rfe(*targets[target_name], cfg.negated, cfg.transforms)
        payload[target_name] = {
            "trajectory": [
                {"removed_feature": step["removed"], "gamma": step["gamma"]}
                for step in trajectory
            ],
            "best_features": list(best),
            "best_gamma": trajectory[-1]["gamma"] if trajectory else None,
        }
    return {"targets": list(cfg.rfe_targets)}, {
        "rfe.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
    }


def stage_wcs(cfg: PipelineConfig, built: dict) -> StageResult:
    counts = {}
    table = load_wcs(cfg.wcs, counts)
    summaries, consensus, inventory, svg = heterogeneity_report(table)
    return {"languages": len(summaries), "responses": len(table.rows), **counts}, {
        "consensus.csv": _csv_text("consensus.csv", consensus),
        "inventory.csv": _csv_text("inventory.csv", inventory),
        "heterogeneity.svg": svg,
    }


def stage_report(cfg: PipelineConfig, built: dict) -> StageResult:
    lines = ["# Color basicness run summary", ""]

    ranked = set()
    lines += ["## Ranking (top 15)", "", "| rank | color | score | basic |", "| --- | --- | --- | --- |"]
    for i, (color, rank, score, basic) in enumerate(built["ranking.csv"]):
        if i < 15:
            lines.append(f"| {rank} | {color} | {score} | {'yes' if basic == '1' else ''} |")
        ranked.add(color)
    lines.append("")

    lines += ["## Rank correlations", "", "| feature | vs basic | vs sequence |", "| --- | --- | --- |"]
    lines += ["| " + " | ".join(row) + " |" for row in built["gamma.csv"]]
    lines.append("")

    candidates, accepted = built["compounds.csv"]
    dist = Counter(len(glue) for _, _, glue in accepted)
    lines += ["## Compounds", "", f"accepted analyses: {len(accepted)} of {candidates} candidates", ""]
    if dist:
        lines.append("glue length distribution: " + ", ".join(f"{k}: {dist[k]}" for k in sorted(dist)))
        lines.append("")

    lines += ["## Affixes", "", "| language | affix | position | class | color cov. | global cov. |", "| --- | --- | --- | --- | --- | --- |"]
    lines += ["| " + " | ".join(row) + " |" for row in built["affixes.csv"]]
    lines.append("")

    # the seeds missing from the ranking are exactly those the aggregate
    # stage dropped
    dropped = [c.term for c in built["seeds"] if c.term not in ranked]
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

#: The cached artifacts each stage reads, which ``_execute`` reads once
#: each, checks against their recorded digests and, unless an earlier stage
#: of the full run handed the value on, parses before the stage starts;
#: nothing else of the output directory is read for a stage.  ``rfe``
#: declares ``features.csv`` even when it is disabled and does not use it.
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
#: the stages that take the seed list
TAKES_SEEDS = {"ingest", "features", "aggregate", "gamma", "rfe", "report"}
#: the last stage that reads each artifact, after which a full run drops
#: the value built for it
_LAST_READER = {rel: stage for stage in STAGE_ORDER for rel in READS[stage]}


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
    included, is raised as a StageError.  Once the stage is done, logs
    its counts at INFO, with each language's facts (``per_language``) at
    DEBUG only, and the memory high-water mark of the process, and of its
    reaped child processes such as ``segment``'s pool: a mark for the
    whole process so far, not a peak of this stage alone.
    """
    if stage not in STAGE_FUNCS:
        raise ValueError(f"unknown stage {stage!r}")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(out)
    counts = _execute(cfg, stage, manifest, {})
    _store_manifest(out, manifest)
    return counts


def _execute(cfg: PipelineConfig, stage: str, manifest: dict, built: dict) -> dict:
    """``run_stage`` against ``manifest``, which it updates in place but
    does not store, with ``built`` handed to the stage; what the stage
    takes and ``built`` lacks is parsed into it first, each artifact from
    the bytes whose digest was checked."""
    out = cfg.output_dir
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
    recorded = {}
    for entry in manifest.get("stages", {}).values():
        recorded.update(entry.get("artifacts", {}))
    started = time.perf_counter()
    try:
        for rel in READS[stage]:
            path = out / rel
            if not path.exists():
                raise DependencyError(f"missing upstream artifact: {path}")
            data = path.read_bytes()
            if _sha256(data) != recorded.get(rel):
                raise DataError(f"{path}: not the artifact the manifest records; re-run the full pipeline")
            if rel not in built:
                built[rel] = PARSERS[rel](data.decode("utf-8"), built)
        if stage in TAKES_SEEDS and "seeds" not in built:
            built["seeds"] = load_seeds(cfg.seeds)
        counts, artifacts = STAGE_FUNCS[stage](cfg, built)
        for rel, text in artifacts.items():
            path = out / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8", newline="")
    except Exception as e:
        raise StageError(stage, e) from e
    manifest.update(config_hash=cfg.config_hash(), input_digests=digests, tool_version=__version__)
    manifest.setdefault("stages", {})[stage] = {
        "artifacts": {rel: _sha256(text.encode("utf-8")) for rel, text in artifacts.items()},
        "counts": counts,
        "duration_s": round(time.perf_counter() - started, 6),
    }
    if stage == "aggregate":
        manifest["dropped_colors"] = counts["dropped"]
    facts = counts.get("per_language", {})
    brief = {k: v for k, v in counts.items() if k != "per_language"}
    log.info("stage %s done: %s%s", stage, brief, "; per-language facts in manifest.json" if facts else "")
    for lang, f in facts.items():
        log.debug("stage %s %s: %s", stage, lang, f)
    memory_log.info(
        "stage %s memory high-water mark: process %.1f MB, reaped children %.1f MB",
        stage,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_PER_MB,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / _RSS_PER_MB,
    )
    return counts


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every stage in dependency order and return the manifest.

    Each stage is executed as ``run_stage`` does, in a staging directory
    inside the output directory, against one manifest held in memory and
    with the values earlier stages built handed on; the artifacts, then
    ``manifest.json``, stored once, are moved into place only once every
    stage has succeeded.  On failure the staging directory is removed and
    the output directory is left as it was.
    """
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".staging-", dir=out) as staging:
        staging = Path(staging)
        staged = dataclasses.replace(cfg, output_dir=staging)
        manifest: dict = {}
        # the seed list is read up to ``report``, the last stage, so it is
        # kept to the end
        built: dict = {}
        for stage in STAGE_ORDER:
            _execute(staged, stage, manifest, built)
            for rel in READS[stage]:
                if _LAST_READER[rel] == stage:
                    built.pop(rel, None)
        _store_manifest(staging, manifest)
        last = staging / "manifest.json"
        for path in sorted(p for p in staging.rglob("*") if p.is_file() and p != last):
            target = out / path.relative_to(staging)
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        os.replace(last, out / "manifest.json")
    return manifest

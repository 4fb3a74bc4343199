"""In-memory spans around the program's module calls, for the traced run.

``Tracer.install`` replaces, for the duration of a ``with`` block, the
module-level names that ``colorbasis.pipeline`` calls (and the ``stats``
names that ``rfe`` and the bootstrap call internally) with wrappers that
open and close a span.  Nothing in the package is edited; the originals
are put back on exit.  ``Path.write_text`` is wrapped for the write and
overwrite counts, not as a span, so a stage's self time still includes
writing its artifacts.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span or ``None``, and ``run`` identifies the operation the
span belongs to.  Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from colorbasis import features, pipeline, stats

#: pipeline-level callees, by span name -> attribute of colorbasis.pipeline
PIPELINE_CALLS = {
    "lexicon.load_lexicon": "load_lexicon",
    "lexicon.round_trip": "round_trip",
    "segmentation.train_segmenter": "train_segmenter",
    "segmentation.discover_affixes": "discover_affixes",
    "segmentation.affix_presence_feature": "affix_presence_feature",
    "compounds.extract_candidates": "extract_candidates",
    "compounds.score_and_filter": "score_and_filter",
    "features.compound_counts": "compound_counts",
    "features.word_concreteness": "word_concreteness",
    "features.translation_concreteness": "translation_concreteness",
    "features.pos_features": "pos_features",
    "features.etymology_features": "etymology_features",
    "features.word_length_feature": "word_length_feature",
    "features.assemble_feature_matrix": "assemble_feature_matrix",
    "stats.bootstrap_then_full_aggregate": "bootstrap_then_full_aggregate",
    "stats.rfe": "rfe",
    "wcs.heterogeneity_report": "heterogeneity_report",
}
#: stats functions also called from inside stats, patched in both modules
SHARED_CALLS = {"stats.aggregate": "aggregate", "stats.gamma": "gamma"}
#: table loaders the features stage calls as classmethods
LOADERS = {
    "features.load_concreteness": features.ConcretenessLexicon,
    "features.load_corpus": features.CorpusSummary,
    "features.load_etymology": features.EtymologyTable,
}
_INHERITED = object()


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self.counts: dict[str, Counter] = {}
        self.run = ""
        self._stack: list[int] = []

    def begin(self, run: str):
        self.run = run
        self.counts[run] = Counter()

    def count(self, name: str, n=1):
        self.counts[self.run][name] += n

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append((name, time.perf_counter(), 0.0, parent, self.run))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index] = (name, self.spans[index][1], time.perf_counter(), parent, self.run)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    @contextmanager
    def install(self):
        patches = []  # (owner, attribute, original)

        def patch(owner, attr, new):
            patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
            setattr(owner, attr, new)

        hooks = {
            "segmentation.train_segmenter": self._on_train,
            "compounds.extract_candidates": self._on_extract,
            "compounds.score_and_filter": self._on_filter,
        }
        stage_funcs = dict(pipeline.STAGE_FUNCS)
        for stage, fn in stage_funcs.items():
            pipeline.STAGE_FUNCS[stage] = self.span(f"pipeline.{stage}", fn)
        for name, attr in PIPELINE_CALLS.items():
            patch(pipeline, attr, self.span(name, getattr(pipeline, attr), hooks.get(name)))
        for name, attr in SHARED_CALLS.items():
            wrapped = self.span(name, getattr(stats, attr))
            patch(pipeline, attr, wrapped)
            patch(stats, attr, wrapped)
        for name, cls in LOADERS.items():
            patch(cls, "load", classmethod(self.span(name, cls.load.__func__)))
        write_text = Path.write_text

        def counted_write(path, *args, **kwargs):
            self.count("pipeline.files_overwritten" if path.exists() else "pipeline.files_written")
            started = time.perf_counter()
            try:
                return write_text(path, *args, **kwargs)
            finally:
                self.count("pipeline.write_s", time.perf_counter() - started)

        patch(Path, "write_text", counted_write)
        try:
            yield self
        finally:
            pipeline.STAGE_FUNCS.update(stage_funcs)
            for owner, attr, original in reversed(patches):
                if original is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def _on_train(self, args, model):
        self.count("segmentation.word_types", len(model.segmentations))
        self.count(
            "segmentation.multi_segment_words",
            sum(1 for segs in model.segmentations.values() if len(segs) >= 2),
        )

    def _on_extract(self, args, candidates):
        table, lang = args[0], args[1]
        self.count(
            "compounds.splits_enumerated",
            sum(len(w) * (len(w) - 1) // 2 for w in table.words_of(lang)),
        )
        self.count("compounds.candidates", len(candidates))

    def _on_filter(self, args, analyses):
        self.count("compounds.accepted", sum(1 for a in analyses if a.accepted))

    def durations(self, run: str) -> tuple[dict[str, list[float]], dict[str, float]]:
        """Per span name, the durations of one run's spans, and each
        name's summed self time (duration minus direct children)."""
        total: dict[str, list[float]] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, span_run in self.spans:
            if span_run == run and parent is not None:
                child[parent] += end - start
        self_time: dict[str, float] = {}
        for i, (name, start, end, parent, span_run) in enumerate(self.spans):
            if span_run != run:
                continue
            total.setdefault(name, []).append(end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]
        return total, self_time

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

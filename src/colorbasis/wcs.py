"""Color-naming elicitation analysis: per-term speaker consensus,
per-speaker inventory statistics, and the heterogeneity report.

Input rows are (language, speaker, chip, term).  Consensus counts
distinct speakers, not tokens; inventory spread uses the population
standard deviation because the surveyed speakers are the whole
population of interest per language.  Report output is byte-stable:
fixed orderings, fixed float formatting, hand-built SVG.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field

from .lexicon import numbered_lines


def _norm(s: str) -> str:
    return unicodedata.normalize("NFC", s.strip())


@dataclass
class ElicitationTable:
    """Deduplicated (language, speaker, chip) -> term responses."""

    rows: list[tuple[str, str, str, str]]
    conflicts: int = 0
    skipped: int = 0
    _by_language: dict[str, list[tuple[str, str, str]]] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self):
        for lang, speaker, chip, term in self.rows:
            self._by_language.setdefault(lang, []).append((speaker, chip, term))

    def languages(self) -> list[str]:
        return sorted(self._by_language)

    def responses(self, language: str) -> list[tuple[str, str, str]]:
        if language not in self._by_language:
            raise KeyError(f"unknown language {language!r}")
        return list(self._by_language[language])


def load_wcs(path) -> ElicitationTable:
    """Load elicitation TSV: ``language<TAB>speaker<TAB>chip<TAB>term``.

    Later rows duplicating a (language, speaker, chip) key are dropped
    and counted as conflicts; rows with an empty term are skipped.
    """
    rows = []
    seen = set()
    conflicts = 0
    skipped = 0
    for _, line in numbered_lines(path):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 4:
            skipped += 1
            continue
        lang, speaker, chip, term = (_norm(p) for p in parts[:4])
        if not term or not lang or not speaker or not chip:
            skipped += 1
            continue
        key = (lang, speaker, chip)
        if key in seen:
            conflicts += 1
            continue
        seen.add(key)
        rows.append((lang, speaker, chip, term))
    return ElicitationTable(rows=rows, conflicts=conflicts, skipped=skipped)


def term_consensus(table: ElicitationTable, language: str) -> dict[str, float]:
    """Fraction of the language's speakers who used each term."""
    responses = table.responses(language)
    speakers = {s for s, _, _ in responses}
    users: dict[str, set[str]] = {}
    for speaker, _, term in responses:
        users.setdefault(term, set()).add(speaker)
    return {term: len(su) / len(speakers) for term, su in users.items()}


def inventory_stats(table: ElicitationTable, language: str) -> tuple[float, float]:
    """(mean, population standard deviation) of per-speaker distinct-term
    counts."""
    responses = table.responses(language)
    inventories: dict[str, set[str]] = {}
    for speaker, _, term in responses:
        inventories.setdefault(speaker, set()).add(term)
    sizes = [len(terms) for terms in inventories.values()]
    mean = sum(sizes) / len(sizes)
    var = sum((s - mean) ** 2 for s in sizes) / len(sizes)
    return mean, math.sqrt(var)


@dataclass(frozen=True)
class LanguageSummary:
    language: str
    total_terms: int
    consensus: tuple[tuple[str, float], ...]  # (term, fraction), consensus desc
    inventory_mean: float
    inventory_std: float


def summarize(table: ElicitationTable) -> list[LanguageSummary]:
    """Per-language summaries sorted by distinct-term count descending."""
    out = []
    for lang in table.languages():
        cons = term_consensus(table, lang)
        ordered = tuple(sorted(cons.items(), key=lambda kv: (-kv[1], kv[0])))
        mean, std = inventory_stats(table, lang)
        out.append(
            LanguageSummary(
                language=lang,
                total_terms=len(cons),
                consensus=ordered,
                inventory_mean=mean,
                inventory_std=std,
            )
        )
    out.sort(key=lambda s: (-s.total_terms, s.language))
    return out


def _shade(fraction: float) -> str:
    # white at zero consensus, saturated red at full consensus
    g = round(235 * (1.0 - fraction))
    return f"rgb(235,{g},{g})"


#: Layout of the heterogeneity chart, in SVG user units.
CELL_WIDTH = 14
CELL_HEIGHT = 7
GAP = 4
MARGIN = 20


def heterogeneity_svg(summaries) -> str:
    """Stacked-column chart: one column per language, one cell per term,
    column height showing the distinct-term count and cell shade showing
    speaker consensus."""
    summaries = list(summaries)
    max_terms = max((s.total_terms for s in summaries), default=0)
    width = MARGIN * 2 + max(0, len(summaries) * (CELL_WIDTH + GAP) - GAP)
    height = MARGIN * 2 + max_terms * CELL_HEIGHT + 14
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    base_y = MARGIN + max_terms * CELL_HEIGHT
    for i, s in enumerate(summaries):
        x = MARGIN + i * (CELL_WIDTH + GAP)
        for j, (term, frac) in enumerate(s.consensus):
            y = base_y - (j + 1) * CELL_HEIGHT
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL_WIDTH}" height="{CELL_HEIGHT}" '
                f'fill="{_shade(frac)}" stroke="#888" stroke-width="0.5">'
                f"<title>{_escape(s.language)}: {_escape(term)} ({frac:.4f})</title></rect>"
            )
        parts.append(
            f'<text x="{x + CELL_WIDTH / 2:.1f}" y="{base_y + 11}" font-size="6" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(s.language)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def heterogeneity_report(table: ElicitationTable):
    """(summaries, ``consensus.csv`` rows, ``inventory.csv`` rows, SVG)
    for the whole table."""
    summaries = summarize(table)
    consensus = [
        (s.language, term, f"{frac:.6f}") for s in summaries for term, frac in s.consensus
    ]
    inventory = [
        (s.language, s.total_terms, f"{s.inventory_mean:.6f}", f"{s.inventory_std:.6f}")
        for s in summaries
    ]
    return summaries, consensus, inventory, heterogeneity_svg(summaries)

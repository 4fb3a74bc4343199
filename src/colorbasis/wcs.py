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
from dataclasses import dataclass

from .lexicon import TSV, read_tsv


def _norm(s: str) -> str:
    return unicodedata.normalize("NFC", s.strip())


class ElicitationTable:
    """Deduplicated (language, speaker, chip) -> term responses."""

    def __init__(self, rows: list[tuple[str, str, str, str]]):
        self.rows = rows
        self._by_language: dict[str, list[tuple[str, str, str]]] = {}
        for lang, speaker, chip, term in rows:
            self._by_language.setdefault(lang, []).append((speaker, chip, term))

    def languages(self) -> list[str]:
        return sorted(self._by_language)

    def responses(self, language: str) -> list[tuple[str, str, str]]:
        if language not in self._by_language:
            raise KeyError(f"unknown language {language!r}")
        return list(self._by_language[language])


#: ``language<TAB>speaker<TAB>chip<TAB>term``: the first response of a
#: speaker to a chip is kept
WCS = TSV(dict.fromkeys(("language", "speaker", "chip", "term"), _norm), 3, "rows_skipped", "first", "conflicts")


def load_wcs(path, counts: dict | None = None) -> ElicitationTable:
    """Load the elicitation TSV as ``WCS`` declares it: a row with fewer
    than four fields or a blank one is skipped and counted under
    ``rows_skipped``, and a later row repeating a (language, speaker,
    chip) key dropped and counted under ``conflicts``."""
    return ElicitationTable(rows=list(map(tuple, read_tsv(path, WCS, counts)[0])))


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

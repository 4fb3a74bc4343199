"""Rank statistics and score aggregation.

Implements the Goodman-Kruskal gamma association measure by direct pair
counting; the one rule that turns a feature column into a score (median
fill of missing cells, a monotone transform, min-max scaling and a flip
for the columns that point away from basicness); the unweighted score
aggregation that produces the basicness ranking, with its affix-column
bootstrap; the acquisition-sequence target series; and greedy backward
feature elimination.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedGammaError

#: Canonical feature column order used by every consumer of the matrix.
FEATURE_COLUMNS = (
    "word-concreteness",
    "translation-concreteness",
    "ngram-frequency",
    "ngram-pct-adj",
    "penntb-pct-adj",
    "compound-count",
    "compound-frequency",
    "affix-presence",
    "borrowing",
    "cognate",
    "derivation",
    "suffix-derivation",
    "inheritance",
    "word-length",
)

#: The column bootstrapped from the ranking of all the others.
AFFIX_COLUMN = "affix-presence"

#: Columns whose raw values point away from basicness; they are flipped
#: after scaling so that larger always means more basic.
DEFAULT_NEGATED = frozenset(
    {
        "word-concreteness",
        "translation-concreteness",
        "word-length",
        "compound-frequency",
        "borrowing",
    }
)

#: The monotone transforms a column can take before scaling, by name.
#: Rank-based statistics are unaffected; only the aggregate mean is.
TRANSFORMS = {"log1p": math.log1p}
DEFAULT_TRANSFORMS = {"ngram-frequency": "log1p"}

#: The one tied stage secondary terms share, after every basic stage.
SECONDARY_STAGE = 7


@dataclass(frozen=True)
class GammaResult:
    """Outcome of a gamma computation: the statistic and the pair tallies."""

    gamma: float
    concordant: int
    discordant: int
    tied_skipped: int


def gamma(x, y) -> GammaResult:
    """Goodman-Kruskal gamma between two equal-length ordinal series.

    Every unordered index pair is classified as concordant (both series
    rank the pair the same way), discordant (opposite ways), or tied in
    either series.  Tied pairs are skipped; gamma is
    (concordant - discordant) / (concordant + discordant).

    Raises UndefinedGammaError when every pair is tied.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
        raise ValueError("series must be one-dimensional and equally long")
    n = xa.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    if np.isnan(xa).any() or np.isnan(ya).any():
        raise ValueError("series must not contain NaN")

    prod = _pair_signs(xa) * _target_signs(ya.tobytes())
    concordant = int((prod > 0).sum())
    discordant = int((prod < 0).sum())
    tied = int((prod == 0).sum())
    if concordant + discordant == 0:
        raise UndefinedGammaError("all index pairs are tied in x or y")
    g = (concordant - discordant) / (concordant + discordant)
    return GammaResult(g, concordant, discordant, tied)


def gamma_or_nan(x, y) -> float:
    """``gamma(x, y).gamma``, or NaN where no pair is untied in both
    series: every pair is tied, or there are fewer than two observations."""
    if len(x) == len(y) < 2:
        return float("nan")
    try:
        return gamma(x, y).gamma
    except UndefinedGammaError:
        return float("nan")


@functools.lru_cache(maxsize=2)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False  # shared by every caller
    return i, j


def _pair_signs(a: np.ndarray) -> np.ndarray:
    """sign(a[i] - a[j]) for every index pair i < j, in row-major order."""
    i, j = _pair_index(a.shape[0])
    return np.sign(a[i] - a[j])


@functools.lru_cache(maxsize=2)
def _target_signs(data: bytes) -> np.ndarray:
    """Pair signs of a float64 series given as bytes.  Callers correlate
    many series against one or two fixed targets (each RFE step, every
    gamma.csv row), so a target's signs are computed once."""
    signs = _pair_signs(np.frombuffer(data))
    signs.flags.writeable = False  # shared by every caller
    return signs


def _median_filled(name: str, raw) -> tuple[list[float], list[bool]]:
    """Column ``name``'s values with each missing (None) cell filled with
    the median of the present ones, and the mask of the filled cells."""
    present = [v for v in raw if v is not None]
    if not present:
        raise DataError(f"feature column {name!r} is entirely missing")
    med = float(statistics.median(present))
    return [med if v is None else float(v) for v in raw], [v is None for v in raw]


@dataclass
class AggregateRanking:
    """Colors ordered by aggregate basicness score (top rescaled to 1.0)."""

    colors: list[str]
    scores: list[float]  # aligned to .colors, non-increasing
    scores_by_color: dict[str, float]


def _scaled_columns(matrix, columns, negated, transforms) -> dict[str, np.ndarray]:
    """Each distinct column of ``columns``, transformed (``TRANSFORMS``),
    min-max scaled, ``(v - lo) / (hi - lo)``, and flipped, ``1.0 - s``,
    when negated; a constant column becomes a flat 0.5."""
    scaled = {}
    for col in dict.fromkeys(columns):
        values = matrix.values[col]
        if col in transforms:
            values = map(TRANSFORMS[transforms[col]], values)
        v = np.fromiter(values, dtype=float)
        lo, hi = v.min(), v.max()
        if lo == hi:
            scaled[col] = np.full(v.shape, 0.5)
        else:
            s = (v - lo) / (hi - lo)
            scaled[col] = 1.0 - s if col in negated else s
    return scaled


def _rescaled_means(scaled: dict[str, np.ndarray], columns) -> np.ndarray:
    """Per row, the mean of the scaled ``columns`` divided by the top
    mean.  The columns are summed in the order given, as ``aggregate``
    sums them, so RFE's subset scores equal the aggregate's bit for bit."""
    sums = np.zeros_like(scaled[columns[0]])
    for col in columns:
        sums += scaled[col]
    means = sums / len(columns)
    # every column scales to [0, 1] with 1.0 reached (or is a flat 0.5),
    # so the top mean is at least 0.5 / len(columns)
    return means / means.max()


def aggregate(
    matrix,
    negated=DEFAULT_NEGATED,
    subset=None,
    transforms=DEFAULT_TRANSFORMS,
) -> AggregateRanking:
    """Unweighted mean of normalized columns, rescaled so the top is 1.0.

    Constant columns contribute a flat 0.5 to every color; this shifts
    every mean equally and leaves the ordering untouched.  Ties in the
    final ordering are broken by the matrix row (seed list) order.
    """
    columns = tuple(subset) if subset is not None else tuple(matrix.columns)
    if not columns:
        raise ValueError("feature subset must not be empty")
    scaled = _scaled_columns(matrix, columns, negated, transforms)
    rescaled = _rescaled_means(scaled, columns).tolist()
    n = len(rescaled)
    order = sorted(range(n), key=lambda i: (-rescaled[i], i))
    return AggregateRanking(
        colors=[matrix.colors[i] for i in order],
        scores=[rescaled[i] for i in order],
        scores_by_color={matrix.colors[i]: rescaled[i] for i in range(n)},
    )


def bootstrap_then_full_aggregate(matrix, negated, transforms, affix_fn):
    """Two-pass aggregation around the affix-presence feature.

    Pass one averages every column except affix-presence.  ``affix_fn`` is
    called with that bootstrap ranking's colors, best first (the affix
    feature reads its top colors from it), and returns the affix column in
    matrix row order, None for a missing cell; its missing cells are
    filled with the column median, as ``assemble_feature_matrix`` fills
    every column.  Pass two averages all columns.  Returns
    (bootstrap_ranking, final_ranking, matrix) where the matrix is a copy
    carrying the new affix column and its missing mask.
    """
    if AFFIX_COLUMN not in matrix.columns:
        raise ValueError(f"matrix lacks the {AFFIX_COLUMN!r} column")
    others = tuple(c for c in matrix.columns if c != AFFIX_COLUMN)
    boot = aggregate(matrix, negated, others, transforms)
    values, missing = _median_filled(AFFIX_COLUMN, affix_fn(boot.colors))
    matrix = dataclasses.replace(
        matrix,
        values={**matrix.values, AFFIX_COLUMN: values},
        missing={**matrix.missing, AFFIX_COLUMN: missing},
    )
    final = aggregate(matrix, negated, tuple(matrix.columns), transforms)
    return boot, final, matrix


def sequence_target(colors, is_basic, stages) -> list[float]:
    """Ordinal target encoding the diachronic acquisition sequence.

    Basic colors take their stage, secondary colors share one tied stage
    after them; values are negated so that earlier acquisition sorts
    higher, matching the direction of basicness-style scores.
    """
    out = []
    for c in colors:
        if is_basic[c]:
            stage = stages.get(c)
            if stage is None:
                raise ValueError(f"basic color {c!r} has no acquisition stage")
            out.append(-float(stage))
        else:
            out.append(-float(SECONDARY_STAGE))
    return out


def rfe(matrix, target, negated=DEFAULT_NEGATED, transforms=DEFAULT_TRANSFORMS):
    """Greedy backward feature elimination against a gamma objective.

    At each step the single feature whose removal most increases
    gamma(aggregate score, target) is dropped; elimination stops when no
    removal strictly improves gamma or one feature remains.  A subset
    whose gamma is undefined (its scores tie every pair, as a subset of
    constant columns does) is no improvement.  Returns the trajectory as a
    list of {removed, gamma} dicts (the first entry is the full set) and
    the surviving feature tuple; when the full set's gamma is undefined, as
    it is for a constant target or fewer than two colors, an empty
    trajectory and no features.
    """
    current = tuple(matrix.columns)
    if len(current) < 2:
        raise ValueError("need at least two features")
    if len(matrix.colors) < 2:  # no pair to correlate
        return [], ()

    # each column is scaled once; a subset's scores are the aggregate's,
    # float for float, in matrix row order
    scaled = _scaled_columns(matrix, current, negated, transforms)

    def score(subset):
        return gamma_or_nan(_rescaled_means(scaled, subset), target)

    g = score(current)
    if math.isnan(g):
        return [], ()
    trajectory = [{"removed": None, "gamma": g}]
    while len(current) > 1:
        # Strict improvement required; scanning feature names in sorted
        # order makes the argmax tie-break lexicographic.
        best_feature = None
        best_gamma = g
        for f in sorted(current):
            candidate = tuple(c for c in current if c != f)
            cg = score(candidate)
            if cg > best_gamma:  # false for NaN
                best_feature = f
                best_gamma = cg
        if best_feature is None:
            break
        current = tuple(c for c in current if c != best_feature)
        g = best_gamma
        trajectory.append({"removed": best_feature, "gamma": g})
    return trajectory, current

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colorbasis.errors import DegenerateColumnError, UndefinedGammaError
from colorbasis.features import FeatureMatrix
from colorbasis.stats import (
    DEFAULT_NEGATED,
    DEFAULT_TRANSFORMS,
    FEATURE_COLUMNS,
    AggregateRanking,
    aggregate,
    bootstrap_then_full_aggregate,
    gamma,
    normalize_feature,
    rfe,
    sequence_target,
)


def gamma_oracle(x, y):
    """Brute-force pair counting, independent of the implementation."""
    ns = nd = tied = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx == 0 or dy == 0:
                tied += 1
            elif dx == dy:
                ns += 1
            else:
                nd += 1
    return ns, nd, tied


# ---------------------------------------------------------------------------
# gamma


def test_gamma_perfectly_concordant():
    res = gamma([1, 1, 0, 0], [4, 3, 2, 1])
    assert res.gamma == 1.0
    assert res.discordant == 0


def test_gamma_hand_case():
    res = gamma([1, 0, 1, 0], [4, 3, 2, 1])
    assert res.concordant == 3
    assert res.discordant == 1
    assert res.gamma == 0.5


def test_gamma_perfectly_discordant():
    assert gamma([1, 2, 3], [3, 2, 1]).gamma == -1.0


def test_gamma_all_tied_raises():
    with pytest.raises(UndefinedGammaError):
        gamma([1, 1], [5, 5])


def test_gamma_rejects_bad_input():
    with pytest.raises(ValueError):
        gamma([1], [1])
    with pytest.raises(ValueError):
        gamma([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        gamma([1.0, float("nan")], [1.0, 2.0])


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=50
    )
)
def test_gamma_matches_oracle(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    ns, nd, tied = gamma_oracle(x, y)
    if ns + nd == 0:
        with pytest.raises(UndefinedGammaError):
            gamma(x, y)
        return
    res = gamma(x, y)
    assert (res.concordant, res.discordant, res.tied_skipped) == (ns, nd, tied)
    assert res.gamma == (ns - nd) / (ns + nd)


@given(
    st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2, max_size=30)
)
def test_gamma_bounds_and_sign_flip(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    try:
        res = gamma(x, y)
    except UndefinedGammaError:
        return
    assert -1.0 <= res.gamma <= 1.0
    if len(set(y)) == len(y):  # no ties in y
        assert gamma(x, [-v for v in y]).gamma == -res.gamma


@given(
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=30)
)
def test_gamma_monotone_transform_invariance(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    try:
        base = gamma(x, y)
    except UndefinedGammaError:
        return
    transformed = gamma([math.exp(v) for v in x], [v**3 for v in y])
    assert transformed.gamma == base.gamma


#: strictly increasing maps; in floating point one may still merge two
#: close values, which the test below rules out with ``assume``
_INCREASING = {
    "exp": math.exp,
    "atan": math.atan,
    "cube": lambda v: v**3,
    "affine": lambda v: 2.5 * v - 7.0,
    "squash": lambda v: v / (1.0 + abs(v)),
}


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-4, 4).map(float), st.floats(-30, 30)),
            st.integers(0, 3),
        ),
        min_size=2,
        max_size=20,
    ),
    st.sampled_from(sorted(_INCREASING)),
)
def test_gamma_unchanged_by_an_order_preserving_map(pairs, name):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    fx = [_INCREASING[name](v) for v in x]
    # the map keeps the sample's order and its ties
    assume(all((a < b) == (fa < fb) and (a == b) == (fa == fb)
               for a, fa in zip(x, fx) for b, fb in zip(x, fx)))
    try:
        base = gamma(x, y)
    except UndefinedGammaError:
        with pytest.raises(UndefinedGammaError):
            gamma(fx, y)
        return
    assert gamma(fx, y) == base


# ---------------------------------------------------------------------------
# normalization


def test_normalize_positive():
    assert normalize_feature([2, 4, 6]) == [0.0, 0.5, 1.0]


def test_normalize_negated():
    assert normalize_feature([2, 4, 6], "negated") == [1.0, 0.5, 0.0]


def test_normalize_constant_raises():
    with pytest.raises(DegenerateColumnError):
        normalize_feature([5, 5, 5])


# ---------------------------------------------------------------------------
# aggregation


def _matrix(colors, columns, rows):
    """rows: one list per color, aligned with columns."""
    values = {
        col: [rows[i][j] for i in range(len(colors))] for j, col in enumerate(columns)
    }
    return FeatureMatrix(colors=list(colors), columns=tuple(columns), values=values)


def test_aggregate_duplicate_columns_match_single_ordering():
    m = _matrix(["a", "b", "c"], ["f1", "f2"], [[3, 3], [2, 2], [1, 1]])
    ranking = aggregate(m, negated=frozenset(), transforms={})
    assert ranking.colors == ["a", "b", "c"]
    assert ranking.scores[0] == 1.0


def test_aggregate_engineered_order():
    m = _matrix(
        ["white", "black", "red"],
        ["f1", "f2", "f3"],
        [[9, 8, 7], [6, 5, 4], [1, 2, 3]],
    )
    ranking = aggregate(m, negated=frozenset(), transforms={})
    assert ranking.colors == ["white", "black", "red"]
    assert ranking.scores[0] == 1.0
    assert ranking.scores == sorted(ranking.scores, reverse=True)


def test_aggregate_column_order_irrelevant():
    m = _matrix(["a", "b", "c"], ["f1", "f2"], [[1, 9], [2, 8], [3, 7]])
    r1 = aggregate(m, negated=frozenset(), subset=("f1", "f2"), transforms={})
    r2 = aggregate(m, negated=frozenset(), subset=("f2", "f1"), transforms={})
    assert r1.colors == r2.colors
    assert r1.scores == r2.scores


def test_aggregate_empty_subset_raises():
    m = _matrix(["a", "b"], ["f1"], [[1], [2]])
    with pytest.raises(ValueError):
        aggregate(m, subset=())


def test_aggregate_tie_breaks_by_row_order():
    m = _matrix(["a", "b"], ["f1", "f2"], [[1, 2], [2, 1]])
    ranking = aggregate(m, negated=frozenset(), transforms={})
    assert ranking.colors == ["a", "b"]


@given(st.data())
def test_aggregate_affine_invariance(data):
    n_colors = data.draw(st.integers(3, 6))
    n_cols = data.draw(st.integers(1, 4))
    colors = [f"c{i}" for i in range(n_colors)]
    columns = [f"f{j}" for j in range(n_cols)]
    rows = [
        [data.draw(st.integers(0, 20)) for _ in range(n_cols)] for _ in range(n_colors)
    ]
    # each column needs at least two distinct values to stay scalable
    for j in range(n_cols):
        rows[0][j], rows[1][j] = 0, 21
    m1 = _matrix(colors, columns, rows)
    scale = data.draw(st.floats(0.1, 10))
    shift = data.draw(st.floats(-5, 5))
    m2 = _matrix(
        colors, columns, [[scale * v + shift for v in row] for row in rows]
    )
    r1 = aggregate(m1, negated=frozenset(), transforms={})
    r2 = aggregate(m2, negated=frozenset(), transforms={})
    assert r1.colors == r2.colors


# normal floats far from overflow: scaling by 2**k with |k| <= 8 keeps every
# difference, quotient and sum exact up to the same power of two
_plain_floats = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 1e6),
    st.floats(-1e6, -1e-6),
    st.integers(-20, 20).map(float),
)


@settings(max_examples=40)
@given(st.data())
def test_aggregate_scores_bit_identical_when_a_column_is_scaled_by_a_power_of_two(data):
    n_colors = data.draw(st.integers(3, 7))
    n_cols = data.draw(st.integers(1, 4))
    colors = [f"c{i}" for i in range(n_colors)]
    columns = [f"f{j}" for j in range(n_cols)] + ["freq"]
    rows = [
        [data.draw(_plain_floats) for _ in range(n_cols)] + [data.draw(st.floats(0, 1e4))]
        for _ in range(n_colors)
    ]
    negated = frozenset(data.draw(st.sets(st.sampled_from(columns))))
    transforms = {"freq": "log1p"}  # the scaled column has no transform
    j = data.draw(st.integers(0, n_cols - 1))
    factor = 2.0 ** data.draw(st.integers(-8, 8))
    scaled_rows = [row[:j] + [row[j] * factor] + row[j + 1:] for row in rows]
    r1 = aggregate(_matrix(colors, columns, rows), negated, transforms=transforms)
    r2 = aggregate(_matrix(colors, columns, scaled_rows), negated, transforms=transforms)
    assert r1.colors == r2.colors
    assert np.array(r1.scores).tobytes() == np.array(r2.scores).tobytes()


# ---------------------------------------------------------------------------
# two-pass aggregation


def _six_color_matrix(affix):
    colors = ["w", "b", "r", "g", "y", "u"]
    columns = ["f1", "f2", "affix-presence"]
    rows = [[6, 6], [5, 5], [4, 4], [3, 3], [2, 2], [1, 1]]
    values = {
        "f1": [r[0] for r in rows],
        "f2": [r[1] for r in rows],
        "affix-presence": list(affix),
    }
    return FeatureMatrix(colors=colors, columns=tuple(columns), values=values)


def test_bootstrap_uniform_affix_keeps_ranking():
    m = _six_color_matrix([0.3] * 6)
    boot, final, _ = bootstrap_then_full_aggregate(m, negated=frozenset(), transforms={})
    assert final.colors == boot.colors


def test_bootstrap_affix_flips_two_mid_colors():
    # strong affix evidence for 'g' pushes it past 'r'; everything else holds
    m = _six_color_matrix([0.5, 0.5, 0.0, 1.0, 0.5, 0.5])
    boot, final, _ = bootstrap_then_full_aggregate(m, negated=frozenset(), transforms={})
    assert boot.colors == ["w", "b", "r", "g", "y", "u"]
    assert final.colors == ["w", "b", "g", "r", "y", "u"]


def test_bootstrap_missing_affix_column_raises():
    m = _matrix(["a", "b"], ["f1"], [[1], [2]])
    with pytest.raises(ValueError):
        bootstrap_then_full_aggregate(m)


def test_bootstrap_affix_fn_receives_top_colors():
    m = _six_color_matrix([0.0] * 6)
    seen = {}

    def affix_fn(top):
        seen["top"] = list(top)
        return {c: 0.0 for c in m.colors}

    bootstrap_then_full_aggregate(m, negated=frozenset(), transforms={}, affix_fn=affix_fn)
    assert seen["top"] == ["w", "b", "r", "g", "y", "u"]

    # more colors than the affix feature's top ten: all of them arrive,
    # in bootstrap order
    colors = [f"c{i}" for i in range(12)]
    f1 = [5, 11, 0, 7, 2, 9, 1, 10, 4, 8, 3, 6]
    m = _matrix(colors, ["f1", "affix-presence"], [[v, 0.0] for v in f1])
    bootstrap_then_full_aggregate(m, negated=frozenset(), transforms={}, affix_fn=affix_fn)
    assert seen["top"] == sorted(colors, key=lambda c: -f1[colors.index(c)])


@settings(max_examples=20)
@given(st.data())
def test_basicness_evidence_in_one_hidden_order_ranks_the_colors_in_that_order(data):
    # the paper's headline as a property: when every one of the 14
    # features points the same way (each strictly monotone in one hidden
    # order, reversed for the negated ones), the aggregate recovers that
    # order and its gamma is 1.0 against both targets
    n = data.draw(st.integers(3, 12), label="colors")
    hidden = [f"c{i}" for i in range(n)]  # most basic first
    place = {color: i for i, color in enumerate(hidden)}
    rows_order = data.draw(st.permutations(hidden), label="row order")
    values = {}
    for col in FEATURE_COLUMNS:
        ascending = sorted(data.draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True)))
        by_place = ascending if col in DEFAULT_NEGATED else ascending[::-1]
        values[col] = [float(by_place[place[c]]) for c in rows_order]
    m = FeatureMatrix(colors=list(rows_order), columns=FEATURE_COLUMNS, values=values)

    basic = data.draw(st.integers(1, n - 1), label="basic colors")
    is_basic = {c: place[c] < basic for c in hidden}
    stages = dict(zip(hidden, sorted(data.draw(st.lists(st.integers(1, 6), min_size=basic, max_size=basic)))))

    boot, final, _ = bootstrap_then_full_aggregate(m, DEFAULT_NEGATED, DEFAULT_TRANSFORMS)
    assert boot.colors == hidden
    assert final.colors == hidden
    scores = [final.scores_by_color[c] for c in m.colors]
    assert gamma(scores, [float(is_basic[c]) for c in m.colors]).gamma == 1.0
    assert gamma(scores, sequence_target(m.colors, is_basic, stages)).gamma == 1.0


# ---------------------------------------------------------------------------
# sequence target


def test_sequence_target_stages():
    colors = ["white", "blue", "crimson"]
    is_basic = {"white": True, "blue": True, "crimson": False}
    stages = {"white": 1, "blue": 4}
    assert sequence_target(colors, is_basic, stages) == [-1.0, -4.0, -7.0]


def test_sequence_target_secondary_ties_skip():
    colors = ["purple", "pink", "orange", "grey"]
    is_basic = {c: True for c in colors}
    stages = {c: 6 for c in colors}
    target = sequence_target(colors, is_basic, stages)
    with pytest.raises(UndefinedGammaError):
        gamma(target, [1, 2, 3, 4])  # all x-ties, every pair skipped


def test_sequence_target_basic_vs_secondary_pairs_count():
    colors = ["white", "beige"]
    target = sequence_target(
        colors, {"white": True, "beige": False}, {"white": 1}
    )
    res = gamma(target, [2, 1])
    assert res.tied_skipped == 0


def test_sequence_target_missing_stage_raises():
    with pytest.raises(ValueError):
        sequence_target(["white"], {"white": True}, {})


# ---------------------------------------------------------------------------
# recursive feature elimination


def test_rfe_eliminates_noise_first():
    colors = [f"c{i}" for i in range(8)]
    target = [8, 7, 6, 5, 4, 3, 2, 1]
    perfect = [8, 7, 6, 5, 4, 3, 2, 1]
    rng = random.Random(7)
    noise = list(range(8))
    rng.shuffle(noise)
    m = _matrix(
        colors,
        ["clean1", "clean2", "clean3", "noise"],
        [[perfect[i], perfect[i], perfect[i], noise[i]] for i in range(8)],
    )
    trajectory, remaining = rfe(m, target, negated=frozenset(), transforms={})
    assert trajectory[0]["gamma"] < 1.0
    assert trajectory[1]["removed"] == "noise"
    assert trajectory[-1]["gamma"] == 1.0
    assert "noise" not in remaining


def test_rfe_identical_columns_stop_immediately():
    m = _matrix(["a", "b", "c"], ["f1", "f2", "f3"], [[3, 3, 3], [2, 2, 2], [1, 1, 1]])
    trajectory, remaining = rfe(m, [3, 2, 1], negated=frozenset(), transforms={})
    assert len(trajectory) == 1
    assert remaining == ("f1", "f2", "f3")


def test_rfe_complementary_pair_survives():
    # f1 and f2 each order half the colors; their mean orders all of them
    colors = ["a", "b", "c", "d"]
    target = [4, 3, 2, 1]
    m = _matrix(
        colors,
        ["f1", "f2"],
        [[4, 4], [3, 1], [1, 3], [0, 0]],
    )
    full = aggregate(m, negated=frozenset(), transforms={})
    series = [full.scores_by_color[c] for c in colors]
    assert gamma(series, target).gamma == 1.0
    trajectory, remaining = rfe(m, target, negated=frozenset(), transforms={})
    assert len(trajectory) == 1
    assert set(remaining) == {"f1", "f2"}


def test_rfe_matches_exhaustive_single_removal_oracle():
    rng = random.Random(11)
    colors = [f"c{i}" for i in range(10)]
    columns = [f"f{j}" for j in range(5)]
    rows = [[rng.randint(0, 9) for _ in columns] for _ in colors]
    for j in range(len(columns)):  # keep every column scalable
        rows[0][j], rows[1][j] = 0, 10
    target = [rng.randint(0, 9) for _ in colors]
    target[0], target[1] = 0, 10
    m = _matrix(colors, columns, rows)

    def score(subset):
        ranking = aggregate(m, negated=frozenset(), subset=subset, transforms={})
        return gamma([ranking.scores_by_color[c] for c in colors], target).gamma

    trajectory, remaining = rfe(m, target, negated=frozenset(), transforms={})
    # replay the greedy scan independently
    current = tuple(columns)
    g = score(current)
    assert trajectory[0]["gamma"] == g
    for step in trajectory[1:]:
        options = {
            f: score(tuple(c for c in current if c != f)) for f in sorted(current)
        }
        best_gamma = max(options.values())
        assert best_gamma > g
        best_feature = min(f for f, v in options.items() if v == best_gamma)
        assert step["removed"] == best_feature
        assert step["gamma"] == best_gamma
        current = tuple(c for c in current if c != best_feature)
        g = best_gamma
    # and no further removal would have improved it
    if len(current) > 1:
        assert all(score(tuple(c for c in current if c != f)) <= g for f in current)
    gammas = [s["gamma"] for s in trajectory]
    assert gammas == sorted(gammas)


def test_rfe_takes_an_undefined_subset_gamma_as_no_improvement():
    # f1 and f2 are constant, so the subset left by removing f3 scales to a
    # flat 0.5 and ties every pair: its gamma is undefined, which is no
    # improvement, and RFE stops at the full set
    m = _matrix(["a", "b", "c", "d"], ["f1", "f2", "f3"], [[5, 1, 1], [5, 1, 2], [5, 1, 3], [5, 1, 4]])
    trajectory, remaining = rfe(m, [1, 2, 3, 4], negated=frozenset(), transforms={})
    assert [(step["removed"], step["gamma"]) for step in trajectory] == [(None, 1.0)]
    assert remaining == ("f1", "f2", "f3")


def test_rfe_with_an_undefined_full_set_gamma_has_no_trajectory():
    # every column constant, or a constant target: every pair is tied
    flat = _matrix(["a", "b", "c"], ["f1", "f2"], [[5, 1], [5, 1], [5, 1]])
    assert rfe(flat, [1, 2, 3], negated=frozenset(), transforms={}) == ([], ())
    m = _matrix(["a", "b", "c"], ["f1", "f2"], [[1, 3], [2, 2], [3, 1]])
    assert rfe(m, [2, 2, 2], negated=frozenset(), transforms={}) == ([], ())


def test_rfe_requires_two_features():
    m = _matrix(["a", "b"], ["f1"], [[1], [2]])
    with pytest.raises(ValueError):
        rfe(m, [1, 2])


# ---------------------------------------------------------------------------
# bit-for-bit agreement with the column-by-column implementation


def _old_gamma(x, y):
    """gamma as computed before pair indices and target signs were
    reused: the full sign matrices on every call."""
    import numpy as np

    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    iu = np.triu_indices(xa.shape[0], k=1)
    prod = np.sign(xa[:, None] - xa[None, :])[iu] * np.sign(ya[:, None] - ya[None, :])[iu]
    concordant, discordant = int((prod > 0).sum()), int((prod < 0).sum())
    if concordant + discordant == 0:
        raise UndefinedGammaError("all index pairs are tied in x or y")
    return (concordant - discordant) / (concordant + discordant)


def _old_aggregate_scores(matrix, negated, subset, transforms):
    """Aggregate scores in matrix row order, every column re-normalized
    and summed with Python floats."""
    n = len(matrix.colors)
    sums = [0.0] * n
    for col in subset:
        vals = matrix.column(col)
        if col in transforms:
            vals = [math.log1p(v) for v in vals]
        try:
            scaled = normalize_feature(vals, "negated" if col in negated else "positive")
        except DegenerateColumnError:
            scaled = [0.5] * n
        for i, s in enumerate(scaled):
            sums[i] += s
    means = [s / len(subset) for s in sums]
    top = max(means)
    return [m / top for m in means]


def _old_rfe(matrix, target, negated, transforms):
    def score(subset):
        # an undefined gamma is no improvement; on the full set it ends RFE
        return _outcome(lambda: _old_gamma(_old_aggregate_scores(matrix, negated, subset, transforms), target))

    current = tuple(matrix.columns)
    g = score(current)
    if g == "undefined":
        return [], ()
    trajectory = [(None, g)]
    while len(current) > 1:
        best_feature, best_gamma = None, g
        for f in sorted(current):
            cg = score(tuple(c for c in current if c != f))
            if cg != "undefined" and cg > best_gamma:
                best_feature, best_gamma = f, cg
        if best_feature is None:
            break
        current = tuple(c for c in current if c != best_feature)
        g = best_gamma
        trajectory.append((best_feature, g))
    return trajectory, current


_cell = st.one_of(st.integers(0, 4), st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def _stats_case(draw):
    n = draw(st.integers(3, 9))
    k = draw(st.integers(2, 5))
    columns = [f"f{k - j}" for j in range(k)]  # not in sorted order
    rows = [[draw(_cell) for _ in columns] for _ in range(n)]
    target = [draw(st.integers(0, 3)) for _ in range(n)]
    target[0], target[1] = 0, 4  # the target is never constant
    negated = frozenset(draw(st.sets(st.sampled_from(columns))))
    transforms = {c: "log1p" for c in draw(st.sets(st.sampled_from(columns)))}
    return _matrix([f"c{i}" for i in range(n)], columns, rows), target, negated, transforms


def _outcome(fn):
    try:
        return fn()
    except UndefinedGammaError:
        return "undefined"


@settings(max_examples=25)
@given(_stats_case())
def test_rfe_and_gamma_match_the_column_by_column_code_bit_for_bit(case):
    m, target, negated, transforms = case
    scores = _old_aggregate_scores(m, negated, m.columns, transforms)
    ranking = aggregate(m, negated, transforms=transforms)
    assert [ranking.scores_by_color[c].hex() for c in m.colors] == [s.hex() for s in scores]
    assert _outcome(lambda: gamma(scores, target).gamma.hex()) == _outcome(
        lambda: _old_gamma(scores, target).hex()
    )

    def new_rfe():
        trajectory, remaining = rfe(m, target, negated, transforms)
        return [(s["removed"], s["gamma"].hex()) for s in trajectory], remaining

    def old_rfe():
        trajectory, remaining = _old_rfe(m, target, negated, transforms)
        return [(f, g.hex()) for f, g in trajectory], remaining

    assert _outcome(new_rfe) == _outcome(old_rfe)

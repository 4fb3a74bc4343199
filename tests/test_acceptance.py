"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion, including measured runtimes for the timed ones.
"""

import random
import time
from collections import Counter

import pytest

from colorbasis.compounds import enumerate_splits
from colorbasis.config import load_config
from colorbasis.demo import write_demo
from colorbasis.errors import UndefinedGammaError
from colorbasis.features import ConcretenessLexicon, FeatureMatrix, weighted_concreteness
from colorbasis.pipeline import run_pipeline
from colorbasis.segmentation import (
    SegmentModel,
    discover_affixes,
    segment_probability,
    train_segmenter,
    viterbi_segment,
)
from colorbasis.stats import aggregate, gamma, rfe
from colorbasis.wcs import inventory_stats, load_wcs, term_consensus

from conftest import artifacts
from test_segmentation import NAHUATL_COLORS, NAHUATL_OTHERS, _substring_vocab, exhaustive_best
from test_stats import gamma_oracle


@pytest.fixture
def criterion(request):
    info = {}
    yield info
    rep = getattr(request.node, "rep_call", None)
    status = "PASS" if rep is not None and rep.passed else "FAIL"
    runtime = f" ({info['runtime']:.2f}s)" if "runtime" in info else ""
    print(f"\n[criterion {info.get('id', '?'):>2}] {info.get('name', request.node.name)}: {status}{runtime}")


def test_criterion_01_gamma_oracle_equivalence(criterion):
    criterion.update(id=1, name="gamma matches brute-force oracle on 1000 random pairs")
    rng = random.Random(12345)
    started = time.perf_counter()
    for case in range(1000):
        n = rng.randint(2, 50)
        if case % 3 == 0:  # continuous values, few ties
            x = [rng.uniform(-5, 5) for _ in range(n)]
            y = [rng.uniform(-5, 5) for _ in range(n)]
        else:  # coarse grids, tie-rich
            x = [rng.randint(0, 6) for _ in range(n)]
            y = [rng.randint(0, 4) for _ in range(n)]
        ns, nd, tied = gamma_oracle(x, y)
        if ns + nd == 0:
            with pytest.raises(UndefinedGammaError):
                gamma(x, y)
            continue
        res = gamma(x, y)
        assert (res.concordant, res.discordant, res.tied_skipped) == (ns, nd, tied)
        assert res.gamma == (ns - nd) / (ns + nd)  # zero tolerance
    criterion["runtime"] = time.perf_counter() - started
    assert criterion["runtime"] < 5.0


def test_criterion_02_gamma_closed_cases(criterion):
    criterion.update(id=2, name="gamma closed-form cases")
    assert gamma([1, 1, 0, 0], [4, 3, 2, 1]).gamma == 1.0
    assert gamma([0, 0, 1, 1], [4, 3, 2, 1]).gamma == -1.0
    with pytest.raises(UndefinedGammaError):
        gamma([1, 1, 1], [2, 2, 2])
    res = gamma([1, 0, 1, 0], [4, 3, 2, 1])
    assert res.gamma == 0.5
    assert (res.concordant, res.discordant) == (3, 1)


def test_criterion_03_viterbi_exhaustive_equivalence(criterion):
    criterion.update(id=3, name="viterbi equals exhaustive argmax for 100 random models")
    rng = random.Random(777)
    started = time.perf_counter()
    checks = 0
    for model_idx in range(100):
        style = ("random", "dyadic", "uniform", "sparse")[model_idx % 4]
        lengths = [model_idx % 10 + 1] + [rng.randint(1, 10) for _ in range(5)]
        for n in lengths:
            word = "".join(rng.choice("ab") for _ in range(n))
            subs = sorted(
                {word[i:j] for i in range(n) for j in range(i + 1, n + 1)}
            )
            table = {}
            for s in subs:
                if style == "uniform":
                    table[s] = 0.25
                elif style == "dyadic":
                    table[s] = rng.choice([0.5, 0.25, 0.125])
                else:
                    table[s] = rng.uniform(0.01, 0.99)
                if style == "sparse" and len(s) > 1 and rng.random() < 0.5:
                    del table[s]
            expected = exhaustive_best(lambda s: table.get(s, 0.0), word)
            if expected is None:
                with pytest.raises(ValueError):
                    viterbi_segment(table, word)
            else:
                seg = viterbi_segment(table, word)
                assert seg.segments == expected[2], (word, table)
                assert seg.log_prob == expected[0]
            checks += 1
    criterion["runtime"] = time.perf_counter() - started
    assert checks >= 600
    assert criterion["runtime"] < 30.0


def test_criterion_04_map_smoothing(criterion):
    criterion.update(id=4, name="MAP smoothing normalizes and matches the worked example")
    model = SegmentModel(
        alpha=0.01,
        counts=Counter({"a": 3, "b": 1}),
        total=4,
        vocab_size=2,
    )
    assert segment_probability(model, "a") == pytest.approx(3.01 / 4.02, rel=1e-12)
    assert segment_probability(model, "a") == pytest.approx(0.748756218905473, rel=1e-12)

    words = NAHUATL_COLORS + NAHUATL_OTHERS
    trained = train_segmenter(words)
    total = sum(segment_probability(trained, s) for s in _substring_vocab(words, 8))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_criterion_05_split_enumeration(criterion):
    criterion.update(id=5, name="split counts follow K(K-1)/2 and contain the short-glue baseline")
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randint(2, 30)
        word = "".join(rng.choice("abcdef") for _ in range(k))
        splits = enumerate_splits(word)
        assert len(splits) == k * (k - 1) // 2
        all_triples = {(left, glue, right) for _, _, left, glue, right in splits}
        baseline = {t for t in all_triples if len(t[1]) <= 1}
        assert baseline <= all_triples
        if k >= 4:
            assert baseline < all_triples


def test_criterion_06_compound_fixture(criterion, demo_run):
    criterion.update(id=6, name="reference compounds detected and accepted on the demo lexicon")
    cfg, _ = demo_run
    rows = (cfg.output_dir / "compounds.csv").read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    idx = {name: i for i, name in enumerate(header)}
    accepted = {}
    for line in rows[1:]:
        parts = line.split(",")
        key = (parts[idx["language"]], parts[idx["word"]], parts[idx["left"]], parts[idx["right"]])
        accepted[key] = (parts[idx["accepted"]] == "1", int(parts[idx["support"]]))
    for key in [
        ("deu", "dunkelrot", "dunkel", "rot"),
        ("cmn", "橙色", "橙", "色"),
        ("spa", "anaranjado", "anaranja", "do"),
    ]:
        assert key in accepted, key
        ok, support = accepted[key]
        assert ok and support >= 2, key


def test_criterion_07_affix_classification(criterion):
    criterion.update(id=7, name="affix anchors classify color-specific and general-derivational")
    # color-specific: 4 of 10 color words end in -tic, rare elsewhere
    all_words = NAHUATL_COLORS + NAHUATL_OTHERS
    model = train_segmenter(all_words, language="nci")
    affixes = {
        (a.form, a.position): a
        for a in discover_affixes(model, NAHUATL_COLORS, all_words)
    }
    tic = affixes[("tic", "suffix")]
    assert tic.color_coverage == pytest.approx(0.40)
    assert tic.affix_class == "color-specific"

    # general derivational: 9 of 25 color words carry it, and it is
    # widespread in the rest of the vocabulary too
    stems = ["he", "mara", "qin", "dola", "buru", "sati", "keno", "lipa", "zura"]
    colors = [s + "tut" for s in stems] + [
        "ran", "bilq", "coshi", "dakar", "eman", "faruk", "gilas", "honar",
        "ivek", "jolan", "kepir", "lomas", "munar", "noral", "oresh", "pakun",
    ]
    others = [w + "tut" for w in ["os", "ger", "vin", "asl", "urd", "qav", "bek",
                                  "dol", "ym", "zar", "eli", "nur", "sim", "tav",
                                  "ulm", "xur"]] + [
        "bura", "ceq", "dian", "efir", "gol", "hil", "jyr", "kum", "lef",
        "mok", "nir", "opal", "pil", "qer", "rud", "sol", "tum", "ulf", "vor",
        "wib",
    ]
    model = train_segmenter(colors + others, language="aqc")
    affixes = {
        (a.form, a.position): a for a in discover_affixes(model, colors, colors + others)
    }
    tut = affixes[("tut", "suffix")]
    assert tut.color_coverage == pytest.approx(0.36)
    assert tut.affix_class == "general-derivational"


def test_criterion_08_weighted_concreteness(criterion):
    criterion.update(id=8, name="weighted back-translation concreteness")
    lex = ConcretenessLexicon({"black": 3.76, "dark": 4.29, "dirty": 4.23})
    value = weighted_concreteness({"black": 1065, "dark": 467, "dirty": 162}, lex)
    assert value == pytest.approx(3.95, abs=0.01)
    assert value == pytest.approx(6693.09 / 1694, rel=1e-12)


def test_criterion_09_end_to_end_ranking(criterion, tmp_path):
    criterion.update(id=9, name="demo pipeline recovers the acquisition order")
    started = time.perf_counter()
    config_path = write_demo(tmp_path)
    cfg = load_config(config_path)
    run_pipeline(cfg)
    criterion["runtime"] = time.perf_counter() - started

    rows = (cfg.output_dir / "ranking.csv").read_text(encoding="utf-8").splitlines()[1:]
    ranking = [r.split(",")[0] for r in rows]
    scores = [float(r.split(",")[2]) for r in rows]
    assert ranking[:6] == ["white", "black", "red", "green", "yellow", "blue"]
    assert scores[0] == 1.0

    gamma_rows = (cfg.output_dir / "gamma.csv").read_text(encoding="utf-8").splitlines()[1:]
    table = {r.split(",")[0]: float(r.split(",")[1]) for r in gamma_rows}
    assert table["aggregate"] == 1.0
    assert criterion["runtime"] < 10.0


def test_criterion_10_rfe_oracle(criterion):
    criterion.update(id=10, name="greedy elimination matches exhaustive single-removal search")
    colors = [f"c{i}" for i in range(9)]
    target = [9 - i for i in range(9)]
    # pure noise: maximally inverts the first pair, which outweighs up to
    # seven concordant columns after min-max scaling
    noise = [0.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]

    def matrix(n_features):
        columns = [f"f{j}" for j in range(n_features)]
        values = {}
        for j, col in enumerate(columns):
            if j == n_features - 1:
                values[col] = list(noise)
            else:
                values[col] = [float(t + 0.1 * j) for t in target]
        return FeatureMatrix(colors=colors, columns=tuple(columns), values=values)

    for n_features in (3, 5, 8):
        m = matrix(n_features)

        def score(subset):
            ranking = aggregate(m, negated=frozenset(), subset=subset, transforms={})
            series = [ranking.scores_by_color[c] for c in colors]
            try:
                return gamma(series, target).gamma
            except UndefinedGammaError:
                return float("-inf")

        trajectory, remaining = rfe(m, target, negated=frozenset(), transforms={})
        noise_col = f"f{n_features - 1}"
        assert trajectory[1]["removed"] == noise_col
        assert trajectory[-1]["gamma"] == 1.0
        gammas = [s["gamma"] for s in trajectory]
        assert gammas == sorted(gammas)

        current = tuple(m.columns)
        g = score(current)
        for step in trajectory[1:]:
            options = {
                f: score(tuple(c for c in current if c != f)) for f in sorted(current)
            }
            best = max(options.values())
            chosen = min(f for f, v in options.items() if v == best)
            assert best > g
            assert step["removed"] == chosen
            current = tuple(c for c in current if c != chosen)
            g = best


def test_criterion_11_parallel_determinism(criterion, tmp_path):
    criterion.update(id=11, name="serial and 8-way parallel runs are byte-identical")
    config_path = write_demo(tmp_path)
    cfg_serial = load_config(config_path, overrides={"output_dir": str(tmp_path / "serial")})
    cfg_parallel = load_config(
        config_path, overrides={"output_dir": str(tmp_path / "parallel"), "jobs": 8}
    )
    assert cfg_parallel.jobs == 8
    run_pipeline(cfg_serial)
    run_pipeline(cfg_parallel)
    # the manifest carries wall-clock timings; all its other fields compare
    serial = artifacts(tmp_path / "serial")
    assert artifacts(tmp_path / "parallel") == serial
    assert len(serial) >= 11


def test_criterion_12_wcs_arithmetic(criterion, tmp_path):
    criterion.update(id=12, name="survey consensus and inventory arithmetic")
    rows = [
        ("xla", "s1", "c1", "mol"), ("xla", "s1", "c2", "kib"),
        ("xla", "s1", "c3", "nar"), ("xla", "s1", "c4", "tup"),
        ("xla", "s2", "c1", "mol"), ("xla", "s2", "c2", "kib"),
        ("xla", "s2", "c3", "nar"), ("xla", "s2", "c4", "tup"),
        ("xla", "s2", "c5", "wex"), ("xla", "s2", "c6", "yal"),
    ]
    path = tmp_path / "wcs.tsv"
    path.write_text("\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8")
    table = load_wcs(path)
    mean, std = inventory_stats(table, "xla")
    assert mean == 5.0
    assert std == 1.0
    cons = term_consensus(table, "xla")
    assert cons == {
        "mol": 1.0, "kib": 1.0, "nar": 1.0, "tup": 1.0, "wex": 0.5, "yal": 0.5
    }

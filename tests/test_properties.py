"""Whole-pipeline properties on small generated datasets.

Each example starts from the bundled demo inputs, drops some of its
lexicon rows and adds generated ones (new words for the demo colors and
for a few non-color glosses, in the demo languages and in new ones), then
runs the pipeline through the command line.  The exit-code tests also
add malformed rows and may drop every demo row, or make one edit to any
one input file or the config.  The table row-order test adds rows to the
concreteness, n-gram, treebank, etymology and survey inputs instead.  The
scaling and order tests draw the demo's treebank and etymology counts,
map its concreteness ratings, or double its adjective tallies, in place.  The renaming test gives one
language of a generated lexicon another code.
"""

import json
import random
import re
import tempfile
from itertools import accumulate
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colorbasis import demo
from colorbasis.cli import main
from colorbasis.config import load_config
from colorbasis.demo import write_demo
from colorbasis.pipeline import STAGE_ORDER, run_stage
from conftest import artifacts

LANGUAGES = ["deu", "spa", "xa", "xb", "xc"]
GLOSSES = ["white", "black", "red", "green", "blue", "pink", "dark", "light", "sky"]

_row = st.tuples(
    st.sampled_from(LANGUAGES),
    st.text("aeiklmnorstu", min_size=1, max_size=7),
    st.sampled_from(GLOSSES),
)
#: rows a lexicon file may hold by mistake: any text in any field,
#: including tabs, line breaks and the reserved word-boundary characters
_odd_text = st.text(st.sampled_from(["a", "B", " ", "\t", "\n", "\r", "\x02", "\x03", "é", "\u0301"]), max_size=3)
_odd_row = st.tuples(_odd_text, _odd_text, _odd_text)


#: words the cached artifacts must carry through: a word and a longer
#: word it is a prefix of, each with three glosses, the longer one
#: holding a comma or a quote, which the CSV artifacts must quote
_shaped_rows = st.tuples(
    st.sampled_from(LANGUAGES),
    st.text("aeiklmnorstu", min_size=1, max_size=4),
    st.sampled_from([",", '"', 'e,"', "ne,", '"rot']),
).map(lambda t: [(t[0], word, gloss) for word in (t[1], t[1] + t[2]) for gloss in GLOSSES[len(t[1]) % 3 :: 3]])


@st.composite
def datasets(draw, max_drop=0.5, odd_rows=False, shaped=False):
    """(share of demo lexicon rows to drop, generated rows, shuffle seed)."""
    drop = draw(st.sampled_from([0.0, 0.3, max_drop]))
    rows = draw(st.lists(st.one_of(_row, _odd_row) if odd_rows else _row, max_size=40))
    if shaped:
        rows += [row for shaped in draw(st.lists(_shaped_rows, min_size=1, max_size=4)) for row in shaped]
    return drop, rows, draw(st.integers(0, 2**16))


def _write(root: Path, dataset, shuffle: bool = False) -> Path:
    drop, extra, seed = dataset
    config = write_demo(root)
    lexicon = root / "lexicon.tsv"
    rng = random.Random(seed)
    rows = [line for line in lexicon.read_text(encoding="utf-8").splitlines() if rng.random() >= drop]
    rows += ["\t".join(row) for row in extra]
    if shuffle:
        rng.shuffle(rows)
    lexicon.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return config


def _run(config: Path, out: Path, jobs: int = 1) -> int:
    return main(["run", "--config", str(config), "--output-dir", str(out), "--jobs", str(jobs)])


@settings(max_examples=8)
@given(datasets(max_drop=1.0, odd_rows=True))
def test_generated_data_exits_0_or_3(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        config = _write(Path(tmp), dataset)
        assert _run(config, Path(tmp) / "out") in (0, 3)


_INPUTS = ["lexicon.tsv", "seeds.txt", "concreteness.tsv", "ngram.tsv", "treebank.tsv", "etymology.tsv", "wcs.tsv", "config.yaml"]
_odd_cell = st.lists(
    st.sampled_from(["a", "B", "7", "-1", "1e400", " ", "\t", ",", '"', ":", "*", "@", "#", "[", "é", "\u0301", "\x02"]),
    max_size=3,
).map("".join)


@st.composite
def _one_edit(draw, text: str) -> bytes:
    """``text``, encoded as UTF-8, with one edit: an inserted character, a
    replaced cell, a duplicated or inserted line, a truncation, or an
    inserted byte that is not valid UTF-8."""
    kind = draw(st.sampled_from(["insert", "cell", "duplicate", "line", "truncate", "byte"]))
    if kind == "byte":
        data = text.encode("utf-8")
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from([b"\x80", b"\xc3", b"\xfe", b"\xff"])) + data[at:]
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_odd_cell.filter(bool)) + text[at:]
    elif kind == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    else:
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "cell":
            sep = ": " if ": " in lines[i] else "\t"
            cells = lines[i].split(sep)
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_odd_cell)
            lines[i] = sep.join(cells)
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, draw(_odd_cell))
        text = "\n".join(lines)
    return text.encode("utf-8")


@settings(max_examples=16)
@given(st.sampled_from(_INPUTS), st.data())
def test_one_edit_to_any_input_exits_0_2_or_3(name, data):
    # the baseline fuzzer's one-edit mutations, for every input and the
    # config: a damaged input is a data or configuration error, never an
    # internal one
    with tempfile.TemporaryDirectory() as tmp:
        config = write_demo(Path(tmp))
        path = Path(tmp) / name
        path.write_bytes(data.draw(_one_edit(path.read_text(encoding="utf-8"))))
        assert _run(config, Path(tmp) / "out") in (0, 2, 3)


@settings(max_examples=5)
@given(datasets(shaped=True))
def test_stage_reruns_reproduce_the_full_run(dataset):
    # every stage after segment reads cached artifacts back; re-running
    # each one over a full run's outputs must write the same bytes
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = _write(tmp, dataset)
        assume(_run(config, tmp / "out") == 0)
        full = artifacts(tmp / "out")
        cfg = load_config(config, {"output_dir": str(tmp / "out")})
        for stage in STAGE_ORDER[STAGE_ORDER.index("segment") + 1 :]:
            run_stage(cfg, stage)
        assert artifacts(tmp / "out") == full


@settings(max_examples=5)
@given(datasets())
def test_shuffled_lexicon_rows_give_identical_outputs(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        codes = [
            _run(_write(tmp / "ordered", dataset), tmp / "ordered" / "out"),
            _run(_write(tmp / "shuffled", dataset, shuffle=True), tmp / "shuffled" / "out"),
        ]
        assert codes[0] == codes[1]
        # the inputs differ in their row order, and so in their digests
        assert artifacts(tmp / "ordered" / "out", "input_digests") == artifacts(
            tmp / "shuffled" / "out", "input_digests"
        )


def _renamed_cells(out: Path, old: str, new: str) -> dict:
    """Every output, each line split at tabs, commas and pipes, with each
    cell equal to ``old`` read as ``new``; the manifest without its timings,
    its input digests and the digests of the artifacts (which are compared
    themselves), with the segment stage's languages renamed."""
    def rename(cell):
        return new if cell == old else cell

    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8")
        if path.name == "manifest.json":
            manifest = json.loads(text)
            manifest.pop("input_digests")
            for stage in manifest["stages"].values():
                stage.pop("duration_s")
                stage.pop("artifacts")
            segment = manifest["stages"]["segment"]["counts"]
            segment["per_language"] = {rename(k): v for k, v in segment["per_language"].items()}
            for key in ("em_not_converged", "edge_split_capped"):
                segment[key] = list(map(rename, segment[key]))
            files[path.name] = manifest
        else:
            files[str(path.relative_to(out))] = [
                [rename(cell.strip()) for cell in re.split(r"[\t,|]", line)] for line in text.split("\n")
            ]
    return files


@settings(max_examples=4)
@given(datasets(), st.data())
def test_renaming_a_language_within_its_sort_position_renames_the_outputs(dataset, data):
    # only the sort order of the language codes may matter: a code renamed
    # to one between the same neighbours (the code, or the one sorted just
    # before it, with digits appended, which no word holds) leaves every
    # output equal up to the renaming
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = _write(tmp / "old", dataset)
        lines = (tmp / "old" / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
        languages = sorted({line.split("\t")[0] for line in lines if line})
        assume(languages)
        i = data.draw(st.integers(0, len(languages) - 1))
        old = languages[i]
        new = data.draw(st.sampled_from(languages[max(i - 1, 0) : i + 1])) + data.draw(st.text("0123456789", min_size=1, max_size=2))
        assume(new not in languages)
        renamed = write_demo(tmp / "new")
        (tmp / "new" / "lexicon.tsv").write_text(
            "".join("\t".join(new if k == 0 and cell == old else cell for k, cell in enumerate(line.split("\t"))) + "\n" for line in lines),
            encoding="utf-8",
        )
        code = _run(config, tmp / "old" / "out")
        assert _run(renamed, tmp / "new" / "out") == code
        assume(code == 0)
        assert _renamed_cells(tmp / "old" / "out", old, new) == _renamed_cells(tmp / "new" / "out", old, new)


def _another_value(name: str, cells: list[str]) -> list[str]:
    """A demo row of ``name`` with its key kept and another value."""
    if name == "concreteness.tsv":
        return [cells[0], "1.25" if cells[1] != "1.25" else "4.95"]
    if name == "etymology.tsv":
        # the counts of one color and process are summed, in any order
        return [*cells[:2], str(int(cells[2]) + 3), cells[3]]
    total, adj, noun = map(int, cells[1:])
    return [cells[0], str(total + 7), str(adj), str(noun + 1)]


@st.composite
def _repeated_table_rows(draw):
    """Per table input, the demo's lines and drawn lines to add: copies
    of demo rows (identical repeats), demo keys with another value
    (conflicting repeats) and new keys.  Survey rows are copies of demo
    rows or responses under new keys, never another response to a
    speaker's chip, since the first response is kept by design."""
    kinds = st.sampled_from(["copy", "another", "new"] if draw(st.booleans()) else ["copy", "new"])
    tables = {}
    for name in ("concreteness.tsv", "ngram.tsv", "treebank.tsv", "etymology.tsv", "wcs.tsv"):
        lines = getattr(demo, f"build_{name[:-4]}")().splitlines()
        extra = []
        for kind, i in draw(st.lists(st.tuples(kinds, st.integers(0, 999)), max_size=3)):
            cells = lines[i % len(lines)].split("\t")
            if kind == "copy":
                extra.append(cells)
            elif name == "wcs.tsv":
                extra.append(["zzz", f"s{i % 3}", f"c{i}", cells[3]])
            elif kind == "another":
                extra.append(_another_value(name, cells))
            else:
                extra.append([f"zz{i}", *cells[1:]])
        tables[name] = lines + ["\t".join(cells) for cells in extra]
    return tables


@settings(max_examples=8)
@given(_repeated_table_rows(), st.randoms(use_true_random=False))
def test_shuffled_table_rows_give_identical_outputs(tables, rng):
    # a repeated key with another value is refused whatever the row order,
    # an identical one is dropped, and etymology counts are summed, so no
    # table keeps whichever of two rows comes last.  A shuffle and its
    # reverse put every two rows in opposite orders, so one of them swaps
    # any two rows of the original.
    shuffled = {name: rng.sample(lines, len(lines)) for name, lines in tables.items()}
    orders = [tables, shuffled, {name: lines[::-1] for name, lines in shuffled.items()}]
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for i, order in enumerate(orders):
            root = Path(tmp) / str(i)
            config = write_demo(root)
            for name, lines in order.items():
                (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            results.append((_run(config, root / "out"), artifacts(root / "out", "input_digests")))
        assert results[1] == results[0]
        assert results[2] == results[0]


@settings(max_examples=3)
@given(datasets())
def test_jobs_1_and_2_give_identical_outputs(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = _write(tmp, dataset)
        assert _run(config, tmp / "serial", jobs=1) == _run(config, tmp / "parallel", jobs=2)
        assert artifacts(tmp / "serial") == artifacts(tmp / "parallel")


@st.composite
def _count_tables(draw):
    """The demo's treebank and etymology rows with drawn counts, each row
    as (its key cells, its counts): a word's adjective and noun tallies, not
    both 0, and a total of at least their sum, and per color a total and a
    count per process, suffix-derivation at most derivation."""
    small = st.integers(0, 99)
    treebank = []
    for line in demo.build_treebank().splitlines():
        adj = draw(small)
        noun = draw(st.integers(0 if adj else 1, 99))
        treebank.append((line.split("\t")[:1], (adj + noun + draw(small), adj, noun)))
    etymology, totals, derivation = [], {}, {}
    for line in demo.build_etymology().splitlines():
        color, process = line.split("\t")[:2]
        count = draw(small)
        if process == "derivation":
            derivation[color] = count
        elif process == "suffix-derivation":
            count = min(count, derivation[color])
        etymology.append(([color, process], (count, totals.setdefault(color, draw(st.integers(1, 400))))))
    return {"treebank.tsv": treebank, "etymology.tsv": etymology}


@settings(max_examples=6)
@given(_count_tables(), st.sampled_from(["treebank.tsv", "etymology.tsv"]), st.integers(1, 8))
def test_power_of_two_counts_give_identical_outputs(tables, scaled, k):
    # the treebank feature is a share of a word's tallies and the etymology
    # features are fractions of a color's total: multiplying every count of
    # one of them by 2**k is exact in binary and changes no output, only
    # the digests of the inputs
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for factor in (1, 2**k):
            root = Path(tmp) / str(factor)
            config = write_demo(root)
            for name, rows in tables.items():
                times = factor if name == scaled else 1
                lines = ["\t".join([*key, *(str(c * times) for c in counts)]) for key, counts in rows]
                (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            results.append((_run(config, root / "out"), artifacts(root / "out", "input_digests")))
        assert results[0][0] == 0
        assert results[1] == results[0]


def _gamma_rows(root: Path, scope: str, inputs: dict[str, str]) -> tuple[dict[str, str], str]:
    """The rows of gamma.csv, by feature, and features.csv, after a demo
    run under ``scope`` with ``inputs`` (file name -> text) in place of the
    demo's files."""
    config = write_demo(root)
    text = config.read_text(encoding="utf-8")
    config.write_text(text.replace("parameters:\n", f"parameters:\n  sequence_scope: {scope}\n"), encoding="utf-8")
    for name, text in inputs.items():
        (root / name).write_text(text, encoding="utf-8")
    assert _run(config, root / "out") == 0
    rows = (root / "out" / "gamma.csv").read_text(encoding="utf-8").splitlines()
    return {row.split(",")[0]: row for row in rows}, (root / "out" / "features.csv").read_text(encoding="utf-8")


@settings(max_examples=5)
@given(st.data())
def test_increasing_map_of_ratings_keeps_their_gamma_row(data):
    # gamma depends only on the order of pairs (Goodman & Kruskal 1954).  A
    # missing rating is filled with the median of the others, which keeps
    # its place in that order under a strictly increasing map as long as no
    # median lands on a neighbour: the mapped ratings are a rank's drawn
    # steps scaled onto 1..5, each at least 0.04 from the next.  So the
    # word-concreteness row is unchanged, over all colors and over the
    # basic ones alone.
    ratings = {w: float(r) for w, r in (line.split("\t") for line in demo.build_concreteness().splitlines())}
    dropped = data.draw(st.sets(st.sampled_from(sorted(ratings)), max_size=len(ratings) - 2))
    ratings = {w: r for w, r in ratings.items() if w not in dropped}
    ranks = sorted(set(ratings.values()))
    steps = list(accumulate(data.draw(st.lists(st.integers(1, 5), min_size=len(ranks), max_size=len(ranks)))))
    mapping = {r: 1.0 + 4.0 * step / steps[-1] for r, step in zip(ranks, steps)}
    mapped = {w: mapping[r] for w, r in ratings.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for scope in ("all", "basic-only"):
            rows = []
            for name, table in (("raw", ratings), ("mapped", mapped)):
                text = "".join(f"{word}\t{rating!r}\n" for word, rating in table.items())
                rows.append(_gamma_rows(Path(tmp) / scope / name, scope, {"concreteness.tsv": text})[0]["word-concreteness"])
            assert rows[1] == rows[0]


def _doubled_adjectives(text: str) -> str:
    """An n-gram or treebank table with every adjective tally doubled and
    the added count added to the row's total."""
    lines = []
    for line in text.splitlines():
        word, total, adj, noun = line.split("\t")
        lines.append(f"{word}\t{int(total) + int(adj)}\t{2 * int(adj)}\t{noun}")
    return "\n".join(lines) + "\n"


def test_doubled_adjective_tallies_keep_the_share_gamma_rows():
    # doubling a word's adjective tally and adding the added count to its
    # total maps its adjectival share s = adj / (adj + noun) to 2s / (1 + s),
    # which is strictly increasing on [0, 1]; the median fill keeps its
    # place in the order, so the share's gamma.csv row is unchanged, over
    # all colors and over the basic ones alone, although its features.csv
    # column is not
    shares = {"ngram.tsv": (demo.build_ngram(), "ngram-pct-adj"), "treebank.tsv": (demo.build_treebank(), "penntb-pct-adj")}
    with tempfile.TemporaryDirectory() as tmp:
        for scope in ("all", "basic-only"):
            raw_rows, raw_features = _gamma_rows(Path(tmp) / scope / "raw", scope, {})
            for name, (text, feature) in shares.items():
                rows, features = _gamma_rows(Path(tmp) / scope / name, scope, {name: _doubled_adjectives(text)})
                assert rows[feature] == raw_rows[feature]
                assert features != raw_features

"""Whole-pipeline properties on small generated datasets.

Each example starts from the bundled demo inputs, drops some of its
lexicon rows and adds generated ones (new words for the demo colors and
for a few non-color glosses, in the demo languages and in new ones), then
runs the pipeline through the command line.  The exit-code test also
adds malformed rows and may drop every demo row.
"""

import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from colorbasis.cli import main
from colorbasis.demo import write_demo

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


@st.composite
def datasets(draw, max_drop=0.5, odd_rows=False):
    """(share of demo lexicon rows to drop, generated rows, shuffle seed)."""
    drop = draw(st.sampled_from([0.0, 0.3, max_drop]))
    rows = draw(st.lists(st.one_of(_row, _odd_row) if odd_rows else _row, max_size=40))
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


def _outputs(out: Path) -> dict:
    """Every artifact's bytes; the manifest without its timings and the
    input digests (which name the exact input bytes)."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("input_digests")
            for stage in manifest["stages"].values():
                stage.pop("duration_s")
            data = json.dumps(manifest, sort_keys=True).encode()
        files[str(path.relative_to(out))] = data
    return files


@settings(max_examples=8)
@given(datasets(max_drop=1.0, odd_rows=True))
def test_generated_data_exits_0_or_3(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        config = _write(Path(tmp), dataset)
        assert _run(config, Path(tmp) / "out") in (0, 3)


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
        assert _outputs(tmp / "ordered" / "out") == _outputs(tmp / "shuffled" / "out")


@settings(max_examples=3)
@given(datasets())
def test_jobs_1_and_2_give_identical_outputs(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = _write(tmp, dataset)
        assert _run(config, tmp / "serial", jobs=1) == _run(config, tmp / "parallel", jobs=2)
        assert _outputs(tmp / "serial") == _outputs(tmp / "parallel")

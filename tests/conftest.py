import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # expose per-phase outcomes so the acceptance suite can print a
    # PASS/FAIL line per criterion
    outcome = yield
    rep = outcome.get_result()
    setattr(item, "rep_" + rep.when, rep)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# A wider, randomized search for CI's extra segmentation run
# (``--hypothesis-profile wide``); each failure prints its reproduction blob.
settings.register_profile(
    "wide",
    max_examples=400,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory):
    """One full pipeline run over the bundled demo dataset."""
    from colorbasis.config import load_config
    from colorbasis.demo import write_demo
    from colorbasis.pipeline import run_pipeline

    root = tmp_path_factory.mktemp("demo")
    config_path = write_demo(root)
    cfg = load_config(config_path)
    manifest = run_pipeline(cfg)
    return cfg, manifest


def write_generated(
    directory, seed: int = 29, languages: int = 3, words: int = 160, extra_colors: int = 0, jobs: int = 1
) -> Path:
    """Write the demo dataset with ``languages`` seeded synthetic languages
    of ``words`` words each appended to its lexicon; returns the config
    path.  Each language has a word for most seed colors, some ending in
    the language's color suffix and some with a second gloss; compounds
    of two basic color words glossed as a secondary color, after recipes
    shared by every language, so the compound filter accepts some; and
    filler words with a shared prefix or suffix.  ``extra_colors``
    secondary colors join the seeds, each with a concreteness, n-gram,
    treebank and etymology row, and ``jobs`` is the config's worker-pool
    size.  The same arguments give the same bytes."""
    from colorbasis.demo import write_demo
    from colorbasis.features import ETYMOLOGY_PROCESSES
    from colorbasis.lexicon import load_seeds

    directory = Path(directory)
    config = write_demo(directory)
    rng = random.Random(seed)
    seeds = load_seeds(directory / "seeds.txt")
    extra = [f"xhue{chr(97 + i // 26 % 26)}{chr(97 + i % 26)}" for i in range(extra_colors)]
    basic = [c.term for c in seeds if c.is_basic]
    recipes = [(*rng.sample(basic, 2), color) for color in [c.term for c in seeds if not c.is_basic] + extra]
    consonants, vowels = "bdgklmnprstvz", "aeiou"

    def stem(syllables):
        return "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(syllables))

    rows = []
    for number in range(languages):
        lang = f"zg{number}"
        suffix, prefix = stem(1) + rng.choice("nrs"), stem(1)
        color_words: dict[str, str] = {}
        used: set[str] = set()

        def add(word, *glosses):
            if word in used:
                return False
            used.add(word)
            rows.extend(f"{lang}\t{word}\t{gloss}" for gloss in glosses)
            return True

        for color in [c.term for c in seeds] + extra:
            word = stem(rng.randint(1, 2)) + (suffix if rng.random() < 0.4 else "")
            if rng.random() < 0.85 and add(word, color, *(["thing"] if rng.random() < 0.2 else [])):
                color_words[color] = word
        glue = rng.choice(["", "o", "en"])
        for left, right, gloss in recipes:
            if left in color_words and right in color_words:
                add(color_words[left] + glue + color_words[right], gloss)
        while len(used) < words:
            word = stem(rng.randint(2, 3))
            word = rng.choice(["", prefix]) + word + rng.choice(["", suffix, "ta"])
            add(word, f"thing{rng.randrange(60)}")
    # the lines appended to each input file
    appended = {name: [] for name in ("seeds.txt", "concreteness.tsv", "ngram.tsv", "treebank.tsv", "etymology.tsv")}
    appended["lexicon.tsv"] = rows
    for color in extra:
        adj, tb_adj = rng.randint(10, 80), rng.randint(5, 30)
        appended["seeds.txt"].append(color)
        appended["concreteness.tsv"].append(f"{color}\t{rng.uniform(3.5, 4.9):.2f}")
        appended["ngram.tsv"].append(f"{color}\t{rng.randint(100, 3000)}\t{adj}\t{100 - adj}")
        appended["treebank.tsv"].append(f"{color}\t60\t{tb_adj}\t{50 - tb_adj}")
        etymology = {p: rng.randint(5, 60) for p in ETYMOLOGY_PROCESSES}
        etymology["suffix-derivation"] = etymology["derivation"] // 3  # a part of derivation
        appended["etymology.tsv"] += [f"{color}\t{p}\t{n}\t200" for p, n in etymology.items()]
    for name, lines in appended.items():
        with (directory / name).open("a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    config.write_text(config.read_text(encoding="utf-8").replace("jobs: 1", f"jobs: {jobs}"), encoding="utf-8")
    return config


@pytest.fixture(scope="session")
def generated_run(tmp_path_factory):
    """One full pipeline run over ``write_generated``'s dataset."""
    from colorbasis.config import load_config
    from colorbasis.pipeline import run_pipeline

    cfg = load_config(write_generated(tmp_path_factory.mktemp("generated")))
    return cfg, run_pipeline(cfg)


#: ``write_generated``'s arguments for a dataset shaped like the benchmark's
#: ``broad`` workload: many small languages, many colors, trained by a pool
WIDE = {"seed": 31, "languages": 24, "words": 50, "extra_colors": 100, "jobs": 2}


@pytest.fixture(scope="session")
def wide_run(tmp_path_factory):
    """One full pipeline run over ``write_generated``'s ``WIDE`` dataset."""
    from colorbasis.config import load_config
    from colorbasis.pipeline import run_pipeline

    cfg = load_config(write_generated(tmp_path_factory.mktemp("wide"), **WIDE))
    return cfg, run_pipeline(cfg)


def artifacts(out, *dropped) -> dict[str, bytes]:
    """Every file under the output directory ``out``, by its path relative
    to ``out``, as bytes; ``manifest.json`` as sorted-key JSON without each
    stage's ``duration_s`` and without the top-level keys ``dropped``, as
    ``.github/same_outputs.py`` compares it."""
    out = Path(out)
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for key in dropped:
                del manifest[key]
            for stage in manifest["stages"].values():
                del stage["duration_s"]
            data = json.dumps(manifest, sort_keys=True).encode()
        files[path.relative_to(out).as_posix()] = data
    return files

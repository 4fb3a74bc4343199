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


def write_generated(directory, seed: int = 29, languages: int = 3, words: int = 160) -> Path:
    """Write the demo dataset with ``languages`` seeded synthetic languages
    of ``words`` words each appended to its lexicon; returns the config
    path.  Each language has a word for most seed colors, some ending in
    the language's color suffix and some with a second gloss; compounds
    of two basic color words glossed as a secondary color, after recipes
    shared by every language, so the compound filter accepts some; and
    filler words with a shared prefix or suffix.  The same arguments give
    the same bytes."""
    from colorbasis.demo import write_demo
    from colorbasis.lexicon import load_seeds

    directory = Path(directory)
    config = write_demo(directory)
    rng = random.Random(seed)
    seeds = load_seeds(directory / "seeds.txt")
    basic = [c.term for c in seeds if c.is_basic]
    recipes = [(*rng.sample(basic, 2), c.term) for c in seeds if not c.is_basic]
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

        for color in (c.term for c in seeds):
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
    with (directory / "lexicon.tsv").open("a", encoding="utf-8") as fh:
        fh.write("".join(row + "\n" for row in rows))
    return config


@pytest.fixture(scope="session")
def generated_run(tmp_path_factory):
    """One full pipeline run over ``write_generated``'s dataset."""
    from colorbasis.config import load_config
    from colorbasis.pipeline import run_pipeline

    cfg = load_config(write_generated(tmp_path_factory.mktemp("generated")))
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

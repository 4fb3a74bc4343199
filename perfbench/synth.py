"""Seeded synthetic inputs for the benchmark, layered on the bundled demo.

``write_inputs`` writes the demo dataset with ``colorbasis.demo.write_demo``
and appends to it:

- ``languages`` synthetic languages.  Every language has its own syllable
  inventory and a few edge affixes that its words share, so segmentation
  has real prefixes and suffixes to find.
- In every language, a word for about four in five colors, stem + glue +
  stem compounds over those color stems, glossed as secondary colors, and
  ``words`` filler words with other glosses.  The same (left color,
  right color) recipe is realised in several languages, so the compound
  filter accepts some.
- ``extra_colors`` secondary colors, each with concreteness, ngram,
  treebank and etymology rows.

The shape of the additions (word lengths, affixes, compounds, color
coverage, the extra colors' rows) is drawn from a fixed stream, so every
seed costs about the same to process.  The seed permutes each synthetic
language's consonants and vowels and shuffles the lexicon rows, the
demo's included.  The same arguments give byte-identical files.  Only the
standard library and the demo module are used.
"""

from __future__ import annotations

import random
from pathlib import Path

from colorbasis.demo import COLOR_RANKS, write_demo

ETYMOLOGY_PROCESSES = ("inheritance", "cognate", "derivation", "suffix-derivation", "borrowing")
_ONSETS = "bdfghjklmnprstvwz"
_VOWELS = "aeiou"
_GLUES = ("", "", "e", "o", "s", "en")


def _syllables(rng: random.Random, onsets: str, vowels: str, n: int) -> str:
    return "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(n))


def _extra_color_names(count: int) -> list[str]:
    # letters only, so seeds parse them as plain secondary terms
    names = []
    for i in range(count):
        a, b = divmod(i, 26)
        names.append(f"xhue{chr(97 + a % 26)}{chr(97 + b)}")
    return names


def _language(rng: random.Random, name: str, words: int, colors: list[str],
              recipes: list[tuple[str, str, str]], concepts: list[str]) -> list[tuple[str, str, str]]:
    onsets = "".join(rng.sample(_ONSETS, 10))
    vowels = "".join(rng.sample(_VOWELS, 4))
    prefixes = [_syllables(rng, onsets, vowels, 1) for _ in range(2)]
    suffixes = [_syllables(rng, onsets, vowels, 1) + rng.choice("nrlst") for _ in range(4)]
    used: set[str] = set()
    rows: list[tuple[str, str, str]] = []

    def add(word: str, gloss: str) -> bool:
        if word in used:
            return False
        used.add(word)
        rows.append((name, word, gloss))
        return True

    # color words: a short stem, sometimes with the language's color suffix
    stems: dict[str, str] = {}
    for color in colors:
        if rng.random() < 0.2:
            continue
        for _ in range(20):
            stem = _syllables(rng, onsets, vowels, rng.randint(1, 2))
            word = stem + suffixes[0] if rng.random() < 0.4 else stem
            if add(word, color):
                stems[color] = word
                break
    # compounds over color stems, glossed as the recipe's secondary color
    glue = rng.choice(_GLUES)
    for left, right, gloss in recipes:
        if left in stems and right in stems and rng.random() < 0.6:
            add(stems[left] + glue + stems[right], gloss)
    # filler: stems with the language's shared edge affixes
    filler = 0
    while filler < words:
        word = _syllables(rng, onsets, vowels, rng.randint(2, 3))
        if rng.random() < 0.3:
            word = rng.choice(prefixes) + word
        if rng.random() < 0.6:
            word = word + rng.choice(suffixes)
        filler += add(word, rng.choice(concepts))
    return rows


def _replace(path: Path, text: str):
    path.unlink()
    path.write_text(text, encoding="utf-8")


def write_inputs(directory, seed: int, languages: int = 0, words: int = 0,
                 extra_colors: int = 0, jobs: int = 1) -> Path:
    """Write the demo plus the synthetic additions; returns the config path."""
    directory = Path(directory)
    config = write_demo(directory)
    shape = random.Random(0)  # the same for every seed, see the module docstring
    surface = random.Random(seed)
    extra = _extra_color_names(extra_colors)
    basic = [c for c, stage in COLOR_RANKS if stage is not None]
    secondary = [c for c, stage in COLOR_RANKS if stage is None] + extra
    # a recipe book shared by every language: (left, right) -> gloss
    recipes = []
    for i in range(max(8, len(secondary) // 2)):
        left, right = shape.sample(basic, 2)
        recipes.append((left, right, secondary[i % len(secondary)]))
    concepts = [f"thing{i:04d}" for i in range(max(200, words))]

    lexicon = directory / "lexicon.tsv"
    lines = lexicon.read_text(encoding="utf-8").splitlines()
    for i in range(languages):
        letters = _ONSETS + _VOWELS
        relabel = str.maketrans(letters, "".join(
            surface.sample(_ONSETS, len(_ONSETS)) + surface.sample(_VOWELS, len(_VOWELS))))
        for lang, word, gloss in _language(shape, f"zz{i:03d}", words, basic + secondary,
                                           recipes, concepts):
            lines.append(f"{lang}\t{word.translate(relabel)}\t{gloss}")
    surface.shuffle(lines)
    # replace rather than rewrite in place: on ext4, truncating a file that
    # was just written flushes it to disk, which would slow set-up
    _replace(lexicon, "".join(line + "\n" for line in lines))
    _replace(config, config.read_text(encoding="utf-8").replace("jobs: 1", f"jobs: {jobs}"))

    def append(name: str, lines: list[str]):
        path = directory / name
        with path.open("a", encoding="utf-8", newline="") as fh:
            fh.write("".join(line + "\n" for line in lines))

    append("seeds.txt", extra)
    conc, ngram, tree, etym = [], [], [], []
    for color in extra:
        conc.append(f"{color}\t{shape.uniform(3.5, 4.9):.2f}")
        total = shape.randint(100, 3000)
        adj = shape.randint(10, 80)
        ngram.append(f"{color}\t{total}\t{adj}\t{100 - adj}")
        tadj = shape.randint(5, 30)
        tree.append(f"{color}\t60\t{tadj}\t{50 - tadj}")
        deriv = shape.randint(5, 40)
        counts = {
            "inheritance": shape.randint(10, 60),
            "cognate": shape.randint(5, 50),
            "derivation": deriv,
            "suffix-derivation": shape.randint(0, deriv),
            "borrowing": shape.randint(5, 60),
        }
        etym += [f"{color}\t{p}\t{counts[p]}\t200" for p in ETYMOLOGY_PROCESSES]
    append("concreteness.tsv", conc)
    append("ngram.tsv", ngram)
    append("treebank.tsv", tree)
    append("etymology.tsv", etym)
    return config

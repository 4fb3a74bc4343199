"""Bundled synthetic demo dataset.

Twenty colors (the eleven basic terms plus nine conventional secondary
ones) across six languages, with every input engineered so that each
feature orders the colors the same way: earlier-acquired colors are less
concrete, more frequent, more adjectival, shorter, less borrowed, and
richer in color-affix morphology.  Running the pipeline on it recovers
the acquisition order at the top of the ranking and a basicness gamma of
one, which makes the dataset a readable end-to-end check as well as a
quick-start example.

The vocabulary is synthetic.  Word shapes are loosely modeled on real
languages (dunkelrot, anaranjado, 橙色) so that the compound and affix
machinery has something realistic to find, but no linguistic claims are
made by this data.
"""

from __future__ import annotations

from pathlib import Path

#: rank order: the acquisition sequence for basic terms, then the
#: secondary terms from strongest to weakest evidence.
COLOR_RANKS = (
    ("white", 1),
    ("black", 1),
    ("red", 2),
    ("green", 3),
    ("yellow", 3),
    ("blue", 4),
    ("brown", 5),
    ("purple", 6),
    ("pink", 6),
    ("orange", 6),
    ("grey", 6),
    ("crimson", None),
    ("scarlet", None),
    ("beige", None),
    ("gold", None),
    ("silver", None),
    ("tan", None),
    ("amber", None),
    ("bronze", None),
    ("teal", None),
)

# per-color base translations: (language, word)
BASE_WORDS = {
    "white": [("deu", "weiss"), ("nld", "wit"), ("spa", "alba"), ("ita", "bianca"),
              ("cmn", "白"), ("yue", "白"), ("cmn", "白色"), ("yue", "白色"),
              ("deu", "schneeweiss"), ("nld", "sneeuwwit")],
    "black": [("deu", "schwarz"), ("nld", "zwart"), ("spa", "negra"), ("ita", "nera"),
              ("cmn", "黑"), ("yue", "黑"), ("cmn", "黑色"), ("yue", "黑色")],
    "red": [("deu", "rot"), ("nld", "rood"), ("spa", "roja"), ("ita", "rossa"),
            ("cmn", "红"), ("yue", "红"), ("cmn", "红色"), ("yue", "红色")],
    "green": [("deu", "gruen"), ("nld", "groen"), ("spa", "verda"), ("ita", "varda"),
              ("cmn", "绿"), ("yue", "绿"), ("cmn", "绿色"), ("yue", "绿色")],
    "yellow": [("deu", "gelb"), ("nld", "geel"), ("spa", "amarilla"), ("ita", "gialla"),
               ("cmn", "黄"), ("yue", "黄"), ("cmn", "黄色"), ("yue", "黄色")],
    "blue": [("deu", "blau"), ("nld", "blauw"), ("spa", "azula"), ("ita", "azzurra"),
             ("cmn", "蓝"), ("yue", "蓝"), ("cmn", "蓝色"), ("yue", "蓝色")],
    "brown": [("deu", "braun"), ("nld", "bruin"), ("spa", "parda"), ("ita", "bruna"),
              ("cmn", "棕"), ("yue", "棕"), ("cmn", "棕色"), ("yue", "棕色")],
    "purple": [("deu", "lila"), ("nld", "paars"), ("spa", "morado"), ("ita", "viola"),
               ("ita", "violato"),
               ("cmn", "紫"), ("yue", "紫"), ("cmn", "紫色"), ("yue", "紫色")],
    "pink": [("deu", "rosa"), ("nld", "roze"), ("spa", "rosa"), ("ita", "rosa"),
             ("spa", "rosado"), ("ita", "rosato"),
             ("cmn", "粉"), ("yue", "粉"), ("cmn", "粉色"), ("yue", "粉色")],
    "orange": [("deu", "orange"), ("nld", "oranje"), ("spa", "anaranja"), ("ita", "arancia"),
               ("spa", "anaranjado"), ("ita", "aranciato"),
               ("cmn", "橙"), ("yue", "橙"), ("cmn", "橙色"), ("yue", "橙色")],
    "grey": [("deu", "grau"), ("nld", "grijs"), ("spa", "gris"), ("ita", "grigia"),
             ("cmn", "灰"), ("yue", "灰"), ("cmn", "灰色"), ("yue", "灰色")],
    # secondary colors: one compound pair in deu/nld plus plain words
    "crimson": [("deu", "dunkelrot"), ("nld", "donkerrood"), ("spa", "carmin"),
                ("ita", "cremisi"), ("cmn", "绛殷"), ("yue", "绛殷")],
    "scarlet": [("deu", "hellrot"), ("nld", "helrood"), ("spa", "escarlat"),
                ("ita", "scarlatti"), ("cmn", "猩烈"), ("yue", "猩烈")],
    "beige": [("deu", "sandfarben"), ("nld", "zandkleurig"), ("spa", "beix"),
              ("ita", "begi"), ("cmn", "米黄"), ("yue", "米黄")],
    "gold": [("deu", "goldgelb"), ("nld", "goudgeel"), ("spa", "aurelin"),
             ("ita", "oricalc"), ("cmn", "金"), ("yue", "金")],
    "silver": [("deu", "silbergrau"), ("nld", "zilvergrijs"), ("spa", "argent"),
               ("ita", "argenti"), ("cmn", "银"), ("yue", "银")],
    "tan": [("deu", "gelbbraun"), ("nld", "geelbruin"), ("spa", "canel"),
            ("ita", "tanni"), ("cmn", "驼褐"), ("yue", "驼褐")],
    "amber": [("deu", "gelborange"), ("nld", "geeloranje"), ("spa", "ambar"),
              ("ita", "ambri"), ("cmn", "琥珀"), ("yue", "琥珀")],
    "bronze": [("deu", "rotbraun"), ("nld", "roodbruin"), ("spa", "bronce"),
               ("ita", "bronzi"), ("cmn", "青铜"), ("yue", "青铜")],
    "teal": [("deu", "blaugruen"), ("nld", "blauwgroen"), ("spa", "celest"),
             ("ita", "tealin"), ("cmn", "黛青"), ("yue", "黛青")],
}

# non-color lexicon entries: compound components and affix-bearing filler
EXTRA_ENTRIES = [
    ("deu", "dunkel", "dark"), ("nld", "donker", "dark"),
    ("deu", "hell", "bright"), ("nld", "hel", "bright"),
    ("deu", "schnee", "snow"), ("nld", "sneeuw", "snow"),
    ("deu", "sand", "sand"), ("nld", "zand", "sand"),
    ("deu", "farben", "colored"), ("nld", "kleurig", "colored"),
    ("deu", "gold", "metal"), ("nld", "goud", "metal"),
    ("deu", "silber", "metal"), ("nld", "zilver", "metal"),
    ("cmn", "色", "color"), ("yue", "色", "color"),
    # filler keeping the derivational suffixes well-attested corpus-wide
    ("spa", "perdido", "lost"), ("spa", "menudo", "small"),
    ("spa", "contenido", "content"), ("spa", "sentido", "sense"),
    ("ita", "gelato", "ice cream"), ("ita", "salato", "salty"),
    ("ita", "perduto", "lost"), ("ita", "minuto", "minute"),
]

#: every basic color is padded with plain synonyms to 12 translation
#: pairs whose lengths sum to 56, keeping mean word length flat at 4.67
#: across basic colors (secondary colors all sit higher).
PAD_LENGTHS = {
    "white": [6, 6],
    "black": [7, 7, 7, 8],
    "red": [8, 8, 9, 9],
    "green": [7, 7, 8, 8],
    "yellow": [7, 7, 7, 7],
    "blue": [7, 7, 7, 8],
    "brown": [7, 7, 8, 8],
    "purple": [7, 8, 8],
    "pink": [12, 12],
    "orange": [2, 2],
    "grey": [7, 8, 8, 8],
}

_PAD_LANG_CYCLE = ("deu", "nld", "spa", "ita")
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
#: unique final digraphs so no two pad words share a productive suffix
_FINALS = [
    "rb", "sc", "nd", "lf", "rg", "sk", "nt", "lm", "rn", "sp",
    "nx", "lt", "rx", "st", "mp", "ld", "rk", "ns", "lp", "rd",
    "sm", "nk", "lg", "rt", "sn", "ng", "lx", "rp", "sd", "nf",
    "lb", "rf", "sg", "np", "lk", "rm", "sb", "nm", "lv", "rs",
]


def _pad_word(index: int, length: int) -> str:
    """Deterministic pronounceable filler of the requested length."""
    final = _FINALS[index % len(_FINALS)]
    body_len = max(0, length - len(final))
    body = []
    for i in range(body_len):
        if i % 2 == 0:
            body.append(_CONSONANTS[(index * 3 + i) % len(_CONSONANTS)])
        else:
            body.append(_VOWELS[(index * 5 + i) % len(_VOWELS)])
    word = "".join(body) + final
    return word[-length:] if len(word) > length else word


def build_lexicon_rows() -> list[tuple[str, str, str]]:
    rows = []
    for color, _ in COLOR_RANKS:
        for lang, word in BASE_WORDS[color]:
            rows.append((lang, word, color))
    pad_index = 0
    for color, _ in COLOR_RANKS:
        for length in PAD_LENGTHS.get(color, []):
            lang = _PAD_LANG_CYCLE[pad_index % len(_PAD_LANG_CYCLE)]
            rows.append((lang, _pad_word(pad_index, length), color))
            pad_index += 1
    rows.extend(EXTRA_ENTRIES)
    if len({(l, w, g) for l, w, g in rows}) != len(rows):
        raise AssertionError("demo lexicon contains duplicate rows")
    by_lang_word = {}
    for l, w, g in rows:
        by_lang_word.setdefault((l, w), set()).add(g)
    multi = {k: v for k, v in by_lang_word.items() if len(v) > 1}
    if multi:
        raise AssertionError(f"demo words with multiple glosses: {multi}")
    return rows


def _rank(color: str) -> int:
    for i, (c, _) in enumerate(COLOR_RANKS):
        if c == color:
            return i + 1
    raise KeyError(color)


def build_seeds() -> str:
    lines = []
    for color, stage in COLOR_RANKS:
        lines.append(f"{color}*@{stage}" if stage is not None else color)
    return "\n".join(lines) + "\n"


def build_concreteness() -> str:
    lines = []
    for color, stage in COLOR_RANKS:
        r = _rank(color)
        rating = 3.0 + 0.05 * r if stage is not None else 4.3 + 0.04 * (r - 12)
        lines.append(f"{color}\t{rating:.2f}")
    return "\n".join(lines) + "\n"


def build_ngram() -> str:
    lines = []
    for color, _ in COLOR_RANKS:
        r = _rank(color)
        total = 4000 - 150 * r
        adj = 92 - 2 * r
        noun = 100 - adj
        lines.append(f"{color}\t{total}\t{adj}\t{noun}")
    return "\n".join(lines) + "\n"


def build_treebank() -> str:
    lines = []
    for color, stage in COLOR_RANKS:
        r = _rank(color)
        adj = 46 - r if stage is not None else 27 - r
        noun = 50 - adj
        lines.append(f"{color}\t60\t{adj}\t{noun}")
    return "\n".join(lines) + "\n"


def build_etymology() -> str:
    lines = []
    for color, _ in COLOR_RANKS:
        r = _rank(color)
        rows = {
            "inheritance": 80 - 2 * r,
            "cognate": 60 - 2 * r,
            "derivation": 50 - 2 * r,
            "suffix-derivation": 40 - 2 * r,
            "borrowing": 2 * r - 2,
        }
        for process, count in rows.items():
            lines.append(f"{color}\t{process}\t{count}\t200")
    return "\n".join(lines) + "\n"


def build_wcs() -> str:
    rows = []
    # kalam: three speakers, one universal term plus idiosyncratic ones
    kalam = {
        "s1": ["mosi", "walin", "kepa", "tund", "yal"],
        "s2": ["mosi", "walin", "kepa", "ruk"],
        "s3": ["mosi", "walin", "sel"],
    }
    for speaker, terms in kalam.items():
        for i, term in enumerate(terms):
            rows.append(("kalam", speaker, f"c{i + 1:02d}", term))
    # tifal: inventory sizes 4 and 6
    tifal = {
        "t1": ["abi", "kor", "mun", "tele"],
        "t2": ["abi", "kor", "mun", "tele", "wis", "yun"],
    }
    for speaker, terms in tifal.items():
        for i, term in enumerate(terms):
            rows.append(("tifal", speaker, f"c{i + 1:02d}", term))
    # iduna: a single speaker
    for i, term in enumerate(["bwa", "kwe", "dodo"]):
        rows.append(("iduna", "i1", f"c{i + 1:02d}", term))
    return "\n".join("\t".join(row) for row in rows) + "\n"


CONFIG_TEMPLATE = """\
inputs:
  lexicon: lexicon.tsv
  seeds: seeds.txt
  concreteness: concreteness.tsv
  ngram: ngram.tsv
  treebank: treebank.tsv
  etymology: etymology.tsv
  wcs: wcs.tsv
output_dir: out
parameters:
  alpha: 0.01
  max_iters: 20
  max_segment_len: 8
  compound_threshold: 2
  jobs: 1
rfe:
  enabled: true
  targets: [basic, sequence]
"""


def write_demo(directory) -> Path:
    """Write the demo dataset and a ready-to-run config; returns the
    config path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = build_lexicon_rows()
    lexicon = "\n".join(f"{l}\t{w}\t{g}" for l, w, g in rows) + "\n"
    (directory / "lexicon.tsv").write_text(lexicon, encoding="utf-8")
    (directory / "seeds.txt").write_text(build_seeds(), encoding="utf-8")
    (directory / "concreteness.tsv").write_text(build_concreteness(), encoding="utf-8")
    (directory / "ngram.tsv").write_text(build_ngram(), encoding="utf-8")
    (directory / "treebank.tsv").write_text(build_treebank(), encoding="utf-8")
    (directory / "etymology.tsv").write_text(build_etymology(), encoding="utf-8")
    (directory / "wcs.tsv").write_text(build_wcs(), encoding="utf-8")
    config_path = directory / "config.yaml"
    config_path.write_text(CONFIG_TEMPLATE, encoding="utf-8")
    return config_path

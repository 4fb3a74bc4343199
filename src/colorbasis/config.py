"""Declarative pipeline configuration.

One YAML document drives a whole run: input paths, the output directory,
and every tunable parameter.  Validation happens eagerly with error
messages that name the offending field.  ``PipelineConfig`` is the one
place where a parameter is named and given its default; the loader's keys
and the config hash are derived from its fields.  The hash covers every
field except the input paths, ``output_dir`` and ``jobs`` (which do not
influence results), so identical parameters over identical inputs rerun
identically.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .compounds import DEFAULT_SUPPORT_THRESHOLD
from .errors import ConfigError
from .segmentation import DEFAULT_ALPHA, DEFAULT_MAX_ITERS, DEFAULT_MAX_SEGMENT_LEN, AffixThresholds
from .stats import DEFAULT_NEGATED, DEFAULT_TRANSFORMS, FEATURE_COLUMNS, TRANSFORMS

INPUT_KEYS = ("lexicon", "seeds", "concreteness", "ngram", "treebank", "etymology", "wcs")
RFE_TARGETS = ("basic", "sequence")
SEQUENCE_SCOPES = ("all", "basic-only")


@dataclass
class PipelineConfig:
    lexicon: Path
    seeds: Path
    concreteness: Path
    ngram: Path
    treebank: Path
    etymology: Path
    wcs: Path
    output_dir: Path
    alpha: float = DEFAULT_ALPHA
    max_iters: int = DEFAULT_MAX_ITERS
    max_segment_len: int = DEFAULT_MAX_SEGMENT_LEN
    affix_min_support: int = AffixThresholds.min_support
    affix_color_coverage_min: float = AffixThresholds.color_coverage_min
    affix_specificity_ratio: float = AffixThresholds.specificity_ratio
    affix_general_global_min: float = AffixThresholds.general_global_min
    compound_threshold: int = DEFAULT_SUPPORT_THRESHOLD
    negated: frozenset[str] = DEFAULT_NEGATED
    transforms: dict = field(default_factory=DEFAULT_TRANSFORMS.copy)
    drop_threshold: float = 0.5
    rfe_enabled: bool = True
    rfe_targets: tuple[str, ...] = RFE_TARGETS
    sequence_scope: str = SEQUENCE_SCOPES[0]
    jobs: int = 1

    def affix_thresholds(self) -> AffixThresholds:
        """The ``affix_*`` fields, without their prefix."""
        prefixed = {f.name: getattr(self, "affix_" + f.name) for f in fields(AffixThresholds)}
        return AffixThresholds(**prefixed)

    def input_paths(self) -> dict[str, Path]:
        return {k: getattr(self, k) for k in INPUT_KEYS}

    def semantic_fields(self) -> dict:
        """Every field that determines outputs: all but the input paths,
        ``output_dir`` and ``jobs``, so a new field is hashed unless it is
        excluded here on purpose."""
        out = {}
        for f in fields(self):
            if f.name not in (*INPUT_KEYS, "output_dir", "jobs"):
                value = getattr(self, f.name)
                out[f.name] = sorted(value) if isinstance(value, frozenset) else value
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_fields(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


#: the keys of the ``parameters`` section
PARAMETER_KEYS = tuple(
    f.name for f in fields(PipelineConfig)
    if f.name not in (*INPUT_KEYS, "output_dir") and not f.name.startswith("rfe_")
)
#: the keys of the ``rfe`` section: field ``rfe_<key>`` is ``rfe.<key>``
_RFE_KEYS = tuple(f.name.removeprefix("rfe_") for f in fields(PipelineConfig) if f.name.startswith("rfe_"))
#: the numeric parameters, with their (lower, upper) bounds in field order;
#: a field's default says whether it takes an integer or any number
_NUMBER_BOUNDS = {
    "alpha": (1e-12, None),
    "max_iters": (1, None),
    "max_segment_len": (1, None),
    "affix_min_support": (1, None),
    "affix_color_coverage_min": (0.0, 1.0),
    "affix_specificity_ratio": (1.0, None),
    "affix_general_global_min": (0.0, 1.0),
    "compound_threshold": (1, None),
    "drop_threshold": (0.0, 1.0),
    "jobs": (1, None),
}


class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that refuses a key given twice in one mapping,
    where ``yaml.safe_load`` would keep the last one."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise ConfigError(f"line {key_node.start_mark.line + 1}: repeated key {key!r}")
                seen.add(key)
        return super().construct_mapping(node, deep)


def _reject_unknown(mapping: dict, known, context: str):
    unknown = sorted(set(mapping) - set(known), key=str)
    if unknown:
        raise ConfigError(f"{context}{unknown[0]}: unknown config field")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping or mapping[key] in (None, ""):
        raise ConfigError(f"missing required config field: {context}{key}")
    return mapping[key]


def _known_names(value, known, key: str, expected: str, noun: str) -> list[str]:
    """``value`` if it is a list of names from ``known``."""
    if not isinstance(value, list):
        raise ConfigError(f"{key}: {expected}")
    for name in value:
        if not isinstance(name, str):
            raise ConfigError(f"{key}: expected a name, got {name!r}")
    bad = set(value) - set(known)
    if bad:
        raise ConfigError(f"{key}: unknown {noun} {sorted(bad)}")
    return value


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Parse and validate a YAML config file.

    Relative paths in it are taken from the file's directory.
    ``overrides`` (e.g. from CLI flags) replace ``output_dir`` and
    ``jobs``; an overriding ``output_dir`` is taken as given, so a
    relative one is taken from the working directory, and an empty one is
    refused as the config file's is.  Unknown keys, in
    the file or among the overrides, and a key repeated in one mapping of
    the file are config errors.  A parameter the file leaves out, or sets
    to null where that is allowed, keeps its ``PipelineConfig`` default.
    """
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_ConfigLoader)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as e:
        raise ConfigError(f"{path}: cannot read the config: {e.strerror}")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8")
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}")
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")

    overrides = dict(overrides or {})
    _reject_unknown(overrides, ("output_dir", "jobs"), "overrides.")
    _reject_unknown(raw, ("inputs", "output_dir", "parameters", "rfe"), "")
    inputs = raw.get("inputs")
    if not isinstance(inputs, dict):
        raise ConfigError("missing required config field: inputs")
    _reject_unknown(inputs, INPUT_KEYS, "inputs.")

    # joining an absolute path to the config's directory gives that path
    values = {key: path.parent / str(_require(inputs, key, "inputs.")) for key in INPUT_KEYS}
    if len(set(values.values())) != len(values):
        raise ConfigError("inputs: referenced paths must be distinct")

    out_dir = overrides.pop("output_dir", None)
    if out_dir == "":
        raise ConfigError("overrides.output_dir (--output-dir): must not be empty")
    if out_dir is not None:
        values["output_dir"] = Path(out_dir)
    elif raw.get("output_dir"):
        values["output_dir"] = path.parent / str(raw["output_dir"])
    else:
        raise ConfigError("missing required config field: output_dir")

    params = raw.get("parameters", {}) or {}
    if not isinstance(params, dict):
        raise ConfigError("parameters: must be a mapping")
    _reject_unknown(params, PARAMETER_KEYS, "parameters.")
    if overrides.get("jobs") is not None:
        params = {**params, "jobs": overrides.pop("jobs")}

    if params.get("negated") is not None:
        negated = _known_names(
            params["negated"], FEATURE_COLUMNS, "parameters.negated",
            "expected a list of feature names", "features",
        )
        values["negated"] = frozenset(negated)

    transforms = params.get("transforms")
    if transforms is not None:
        if not isinstance(transforms, dict):
            raise ConfigError("parameters.transforms: expected a mapping")
        bad = set(transforms) - set(FEATURE_COLUMNS)
        if bad:
            raise ConfigError(f"parameters.transforms: unknown features {sorted(bad, key=str)}")
        for col, name in transforms.items():
            if not isinstance(name, str) or name not in TRANSFORMS:
                raise ConfigError(
                    f"parameters.transforms.{col}: unknown transform {name!r} (known: {', '.join(TRANSFORMS)})"
                )
        values["transforms"] = dict(transforms)

    rfe = raw.get("rfe", {}) or {}
    if not isinstance(rfe, dict):
        raise ConfigError("rfe: must be a mapping")
    _reject_unknown(rfe, _RFE_KEYS, "rfe.")
    if "enabled" in rfe:
        if not isinstance(rfe["enabled"], bool):
            raise ConfigError("rfe.enabled: expected true or false")
        values["rfe_enabled"] = rfe["enabled"]
    if "targets" in rfe:
        targets = _known_names(rfe["targets"], RFE_TARGETS, "rfe.targets", "expected a list", "targets")
        values["rfe_targets"] = tuple(targets)

    if "sequence_scope" in params:
        if params["sequence_scope"] not in SEQUENCE_SCOPES:
            raise ConfigError("parameters.sequence_scope: must be 'all' or 'basic-only'")
        values["sequence_scope"] = params["sequence_scope"]

    for key, (lo, hi) in _NUMBER_BOUNDS.items():
        if key not in params:
            continue
        v = params[key]
        kind = type(getattr(PipelineConfig, key))  # the type of the field's default
        expected = "an integer" if kind is int else "a number"
        # only a finite YAML number: bool is an int subclass, float() would
        # read "0.5", NaN passes every bound, and int() would truncate 2.7
        # to 2 (an integral float such as 3.0 is an integer)
        if (
            isinstance(v, bool)
            or not isinstance(v, (int, float))
            or (isinstance(v, float) and not (v.is_integer() if kind is int else math.isfinite(v)))
        ):
            raise ConfigError(f"parameters.{key}: expected {expected}")
        try:
            v = kind(v)
        except OverflowError:  # an integer too large for a float
            raise ConfigError(f"parameters.{key}: expected {expected}")
        if lo is not None and v < lo:
            raise ConfigError(f"parameters.{key}: must be >= {lo}")
        if hi is not None and v > hi:
            raise ConfigError(f"parameters.{key}: must be <= {hi}")
        values[key] = v

    cfg = PipelineConfig(**values)
    for key, p in cfg.input_paths().items():
        if not p.exists():
            raise ConfigError(f"inputs.{key}: file does not exist: {p}")
    return cfg

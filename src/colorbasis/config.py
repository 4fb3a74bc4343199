"""Declarative pipeline configuration.

One YAML document drives a whole run: input paths, the output directory,
and every tunable parameter.  Validation happens eagerly with error
messages that name the offending field.  The config hash covers only
fields that influence results (parameters, not paths or parallelism), so
identical parameters over identical inputs rerun identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .segmentation import AffixThresholds
from .stats import DEFAULT_NEGATED, DEFAULT_TRANSFORMS, FEATURE_COLUMNS, TRANSFORMS

INPUT_KEYS = ("lexicon", "seeds", "concreteness", "ngram", "treebank", "etymology", "wcs")
PARAMETER_KEYS = (
    "alpha", "max_iters", "max_segment_len", "affix_min_support",
    "affix_color_coverage_min", "affix_specificity_ratio", "affix_general_global_min",
    "compound_threshold", "negated", "transforms", "drop_threshold", "sequence_scope", "jobs",
)


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
    alpha: float = 0.01
    max_iters: int = 20
    max_segment_len: int = 8
    affix_min_support: int = 2
    affix_color_coverage_min: float = 0.2
    affix_specificity_ratio: float = 5.0
    affix_general_global_min: float = 0.1
    compound_threshold: int = 2
    negated: frozenset[str] = DEFAULT_NEGATED
    transforms: dict = field(default_factory=lambda: dict(DEFAULT_TRANSFORMS))
    drop_threshold: float = 0.5
    rfe_enabled: bool = True
    rfe_targets: tuple[str, ...] = ("basic", "sequence")
    sequence_scope: str = "all"  # or "basic-only"
    jobs: int = 1

    def affix_thresholds(self) -> AffixThresholds:
        return AffixThresholds(
            min_support=self.affix_min_support,
            color_coverage_min=self.affix_color_coverage_min,
            specificity_ratio=self.affix_specificity_ratio,
            general_global_min=self.affix_general_global_min,
        )

    def input_paths(self) -> dict[str, Path]:
        return {k: getattr(self, k) for k in INPUT_KEYS}

    def semantic_fields(self) -> dict:
        """Fields that determine outputs (paths and jobs do not)."""
        return {
            "alpha": self.alpha,
            "max_iters": self.max_iters,
            "max_segment_len": self.max_segment_len,
            "affix_min_support": self.affix_min_support,
            "affix_color_coverage_min": self.affix_color_coverage_min,
            "affix_specificity_ratio": self.affix_specificity_ratio,
            "affix_general_global_min": self.affix_general_global_min,
            "compound_threshold": self.compound_threshold,
            "negated": sorted(self.negated),
            "transforms": dict(sorted(self.transforms.items())),
            "drop_threshold": self.drop_threshold,
            "rfe_enabled": self.rfe_enabled,
            "rfe_targets": list(self.rfe_targets),
            "sequence_scope": self.sequence_scope,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_fields(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _reject_unknown(mapping: dict, known, context: str):
    unknown = sorted(set(mapping) - set(known), key=str)
    if unknown:
        raise ConfigError(f"{context}{unknown[0]}: unknown config field")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping or mapping[key] in (None, ""):
        raise ConfigError(f"missing required config field: {context}{key}")
    return mapping[key]


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Parse and validate a YAML config file.

    ``overrides`` (e.g. from CLI flags) replace ``output_dir`` and
    ``jobs``.  Unknown keys, in the file or among the overrides, are
    config errors.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return build_config(raw, base_dir=path.parent, overrides=overrides)


def build_config(raw: dict, base_dir: Path | None = None, overrides: dict | None = None) -> PipelineConfig:
    overrides = dict(overrides or {})
    _reject_unknown(overrides, ("output_dir", "jobs"), "overrides.")
    _reject_unknown(raw, ("inputs", "output_dir", "parameters", "rfe"), "")
    inputs = raw.get("inputs")
    if not isinstance(inputs, dict):
        raise ConfigError("missing required config field: inputs")
    _reject_unknown(inputs, INPUT_KEYS, "inputs.")

    def resolve(p) -> Path:
        p = Path(str(p))
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        return p

    paths = {}
    for key in INPUT_KEYS:
        paths[key] = resolve(_require(inputs, key, "inputs."))

    distinct = set(paths.values())
    if len(distinct) != len(paths):
        raise ConfigError("inputs: referenced paths must be distinct")

    out_dir = overrides.pop("output_dir", None) or raw.get("output_dir")
    if not out_dir:
        raise ConfigError("missing required config field: output_dir")
    out_dir = resolve(out_dir)

    params = raw.get("parameters", {}) or {}
    if not isinstance(params, dict):
        raise ConfigError("parameters: must be a mapping")
    _reject_unknown(params, PARAMETER_KEYS, "parameters.")
    if overrides.get("jobs") is not None:
        params = {**params, "jobs": overrides.pop("jobs")}

    def num(key, default, lo=None, hi=None, kind=float):
        v = params.get(key, default)
        expected = "an integer" if kind is int else "a number"
        # bool is an int subclass, and int() would truncate 2.7 to 2
        if isinstance(v, bool) or (kind is int and isinstance(v, float) and not v.is_integer()):
            raise ConfigError(f"parameters.{key}: expected {expected}")
        try:
            v = kind(v)
        except (TypeError, ValueError):
            raise ConfigError(f"parameters.{key}: expected {expected}")
        if lo is not None and v < lo:
            raise ConfigError(f"parameters.{key}: must be >= {lo}")
        if hi is not None and v > hi:
            raise ConfigError(f"parameters.{key}: must be <= {hi}")
        return v

    negated = params.get("negated")
    if negated is None:
        negated = sorted(DEFAULT_NEGATED)
    if not isinstance(negated, list):
        raise ConfigError("parameters.negated: expected a list of feature names")
    bad = set(negated) - set(FEATURE_COLUMNS)
    if bad:
        raise ConfigError(f"parameters.negated: unknown features {sorted(bad)}")

    transforms = params.get("transforms")
    if transforms is None:
        transforms = dict(DEFAULT_TRANSFORMS)
    if not isinstance(transforms, dict):
        raise ConfigError("parameters.transforms: expected a mapping")
    bad = set(transforms) - set(FEATURE_COLUMNS)
    if bad:
        raise ConfigError(f"parameters.transforms: unknown features {sorted(bad)}")
    for col, name in transforms.items():
        if not isinstance(name, str) or name not in TRANSFORMS:
            raise ConfigError(
                f"parameters.transforms.{col}: unknown transform {name!r} (known: {', '.join(TRANSFORMS)})"
            )

    rfe = raw.get("rfe", {}) or {}
    if not isinstance(rfe, dict):
        raise ConfigError("rfe: must be a mapping")
    _reject_unknown(rfe, ("enabled", "targets"), "rfe.")
    enabled = rfe.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ConfigError("rfe.enabled: expected true or false")
    targets = rfe.get("targets", ["basic", "sequence"])
    if not isinstance(targets, list):
        raise ConfigError("rfe.targets: expected a list")
    targets = tuple(targets)
    bad = set(targets) - {"basic", "sequence"}
    if bad:
        raise ConfigError(f"rfe.targets: unknown targets {sorted(bad)}")

    scope = params.get("sequence_scope", "all")
    if scope not in ("all", "basic-only"):
        raise ConfigError("parameters.sequence_scope: must be 'all' or 'basic-only'")

    cfg = PipelineConfig(
        **paths,
        output_dir=out_dir,
        alpha=num("alpha", 0.01, lo=1e-12),
        max_iters=num("max_iters", 20, lo=1, kind=int),
        max_segment_len=num("max_segment_len", 8, lo=1, kind=int),
        affix_min_support=num("affix_min_support", 2, lo=1, kind=int),
        affix_color_coverage_min=num("affix_color_coverage_min", 0.2, lo=0.0, hi=1.0),
        affix_specificity_ratio=num("affix_specificity_ratio", 5.0, lo=1.0),
        affix_general_global_min=num("affix_general_global_min", 0.1, lo=0.0, hi=1.0),
        compound_threshold=num("compound_threshold", 2, lo=1, kind=int),
        negated=frozenset(negated),
        transforms=dict(transforms),
        drop_threshold=num("drop_threshold", 0.5, lo=0.0, hi=1.0),
        rfe_enabled=enabled,
        rfe_targets=targets,
        sequence_scope=scope,
        jobs=num("jobs", 1, lo=1, kind=int),
    )

    for key, p in cfg.input_paths().items():
        if not p.exists():
            raise ConfigError(f"inputs.{key}: file does not exist: {p}")
    return cfg

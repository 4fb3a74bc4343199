import ast
import builtins
import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import re
import shutil
import tempfile
import types
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from colorbasis.cli import main
from colorbasis.config import PARAMETER_KEYS, load_config
from colorbasis.demo import write_demo
from colorbasis.errors import ConfigError, DataError, DependencyError, StageError
from colorbasis import pipeline, segmentation
from colorbasis.pipeline import STAGE_ORDER, run_pipeline, run_stage

OUTPUT_FILES = [
    "features.csv", "ranking.csv", "ranking_bootstrap.csv", "gamma.csv",
    "rfe.json", "affixes.csv", "compounds.csv", "consensus.csv",
    "inventory.csv", "heterogeneity.svg", "summary.md", "manifest.json",
]


def _read_ranking(out_dir):
    lines = (out_dir / "ranking.csv").read_text(encoding="utf-8").splitlines()[1:]
    return [line.split(",")[0] for line in lines]


def _strip_timing(manifest):
    out = json.loads(json.dumps(manifest))
    for stage in out["stages"].values():
        stage.pop("duration_s")
    return out


def _copy_demo_output(demo_run, tmp_path):
    """A private copy of the demo run's output directory, so a test may
    re-run stages in it without touching the shared run."""
    cfg, _ = demo_run
    shutil.copytree(cfg.output_dir, tmp_path / "out")
    return dataclasses.replace(cfg, output_dir=tmp_path / "out")


# ---------------------------------------------------------------------------
# config validation


def _demo_config_dict(tmp_path):
    config_path = write_demo(tmp_path)
    return yaml.safe_load(config_path.read_text(encoding="utf-8")), config_path


def test_config_missing_input_names_field(tmp_path):
    raw, config_path = _demo_config_dict(tmp_path)
    del raw["inputs"]["lexicon"]
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match="inputs.lexicon"):
        load_config(config_path)


def test_config_requires_distinct_paths(tmp_path):
    raw, config_path = _demo_config_dict(tmp_path)
    raw["inputs"]["wcs"] = raw["inputs"]["lexicon"]
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match="distinct"):
        load_config(config_path)


def test_config_rejects_bad_parameter(tmp_path):
    raw, config_path = _demo_config_dict(tmp_path)
    raw["parameters"]["alpha"] = -1
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match="alpha"):
        load_config(config_path)


def test_config_rejects_unknown_negated_feature(tmp_path):
    raw, config_path = _demo_config_dict(tmp_path)
    raw["parameters"]["negated"] = ["no-such-feature"]
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match="negated"):
        load_config(config_path)


def test_config_missing_input_file(tmp_path):
    raw, config_path = _demo_config_dict(tmp_path)
    raw["inputs"]["lexicon"] = "nowhere.tsv"
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match="nowhere"):
        load_config(config_path)


@pytest.mark.parametrize(
    "section, key, value, overrides, field",
    [
        (None, None, None, {"max_iters": 1}, "overrides.max_iters"),
        (None, "outptu_dir", "out", {}, "outptu_dir"),
        ("inputs", "lexicon2", "lexicon.tsv", {}, "inputs.lexicon2"),
        ("parameters", "max_iter", 3, {}, "parameters.max_iter"),
        ("rfe", "enable", False, {}, "rfe.enable"),
        ("parameters", "transforms", {"ngram-frequency": "sqrt"}, {}, "parameters.transforms.ngram-frequency"),
        ("rfe", "enabled", "no", {}, "rfe.enabled"),
    ],
)
def test_config_rejects_what_the_loader_does_not_know(tmp_path, section, key, value, overrides, field):
    raw, config_path = _demo_config_dict(tmp_path)
    if key is not None:
        (raw if section is None else raw[section])[key] = value
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(field)):
        load_config(config_path, overrides)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("parameters", "max_iters", 2.7, "parameters.max_iters: expected an integer"),
        ("parameters", "max_iters", True, "parameters.max_iters: expected an integer"),
        ("parameters", "jobs", True, "parameters.jobs: expected an integer"),
        ("parameters", "jobs", 1.5, "parameters.jobs: expected an integer"),
        ("parameters", "alpha", True, "parameters.alpha: expected a number"),
        ("rfe", "targets", "basic", "rfe.targets: expected a list"),
        ("parameters", "negated", [["word-length"]], "parameters.negated: expected a name, got ['word-length']"),
        ("rfe", "targets", [["basic"]], "rfe.targets: expected a name, got ['basic']"),
        ("parameters", "negated", [1, "zz"], "parameters.negated: expected a name, got 1"),
        ("rfe", "targets", [1, "zz"], "rfe.targets: expected a name, got 1"),
        ("parameters", "transforms", {1: "log1p", "zz": "log1p"}, "parameters.transforms: unknown features [1, 'zz']"),
        ("parameters", "alpha", float("nan"), "parameters.alpha: expected a number"),
        ("parameters", "alpha", float("inf"), "parameters.alpha: expected a number"),
        ("parameters", "drop_threshold", float("nan"), "parameters.drop_threshold: expected a number"),
        ("parameters", "max_iters", "3", "parameters.max_iters: expected an integer"),
        ("parameters", "alpha", "0.5", "parameters.alpha: expected a number"),
        pytest.param("parameters", "alpha", 10**400, "parameters.alpha: expected a number", id="alpha-too-large-for-a-float"),
    ],
)
def test_config_rejects_values_it_would_otherwise_coerce(tmp_path, capsys, section, key, value, message):
    raw, config_path = _demo_config_dict(tmp_path)
    raw[section][key] = value
    # unsorted, since mapping keys of mixed types cannot be sorted
    config_path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(config_path)
    assert main(["run", "--config", str(config_path)]) == 2
    assert message in capsys.readouterr().err


def test_config_accepts_an_integral_float_for_an_integer_field(tmp_path):
    raw, config_path = _demo_config_dict(tmp_path)
    raw["parameters"]["max_iters"] = 3.0
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    cfg = load_config(config_path, {"jobs": 2})
    assert (cfg.max_iters, type(cfg.max_iters), cfg.jobs) == (3, int, 2)


def test_cli_output_dir_is_taken_from_the_working_directory(tmp_path, monkeypatch, capsys):
    # the config file's own output_dir stays relative to the file, but the
    # --output-dir flag is taken as given
    write_demo(tmp_path / "demo")
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    config = os.path.join("..", "demo", "config.yaml")
    assert load_config(config).output_dir.resolve() == (tmp_path / "demo" / "out").resolve()
    assert main(["wcs", "--config", config, "--output-dir", "rel_out"]) == 0
    assert "outputs in rel_out" in capsys.readouterr().out
    assert (tmp_path / "work" / "rel_out" / "consensus.csv").is_file()
    assert not (tmp_path / "demo" / "rel_out").exists()


#: the parent run's hash of the demo config; a change here makes every
#: cached run refuse its artifacts, so it must be on purpose
DEMO_CONFIG_HASH = "7854e84185487224098e0c3edd4562d8988e285ed516664da4b98ff771dc0c64"


def test_config_hash_is_pinned_for_the_demo_and_the_defaults(tmp_path):
    raw, config_path = _demo_config_dict(tmp_path)
    assert load_config(config_path).config_hash() == DEMO_CONFIG_HASH
    del raw["parameters"], raw["rfe"]
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert load_config(config_path).config_hash() == DEMO_CONFIG_HASH


#: a value other than the demo's for every hashed field, as (section, key, value)
HASHED_FIELD_CHANGES = {
    "alpha": ("parameters", "alpha", 0.25),
    "max_iters": ("parameters", "max_iters", 3),
    "max_segment_len": ("parameters", "max_segment_len", 5),
    "affix_min_support": ("parameters", "affix_min_support", 3),
    "affix_color_coverage_min": ("parameters", "affix_color_coverage_min", 0.3),
    "affix_specificity_ratio": ("parameters", "affix_specificity_ratio", 4.0),
    "affix_general_global_min": ("parameters", "affix_general_global_min", 0.2),
    "compound_threshold": ("parameters", "compound_threshold", 3),
    "negated": ("parameters", "negated", ["word-length"]),
    "transforms": ("parameters", "transforms", {}),
    "drop_threshold": ("parameters", "drop_threshold", 0.4),
    "rfe_enabled": ("rfe", "enabled", False),
    "rfe_targets": ("rfe", "targets", ["basic"]),
    "sequence_scope": ("parameters", "sequence_scope", "basic-only"),
}


@pytest.mark.parametrize("field", HASHED_FIELD_CHANGES)
def test_config_hash_tracks_semantics_only(tmp_path, field):
    raw, config_path = _demo_config_dict(tmp_path)
    cfg1 = load_config(config_path)
    # every field but the input paths, output_dir and jobs is hashed
    unhashed = {*cfg1.input_paths(), "output_dir", "jobs"}
    assert set(HASHED_FIELD_CHANGES) == {f.name for f in dataclasses.fields(cfg1)} - unhashed
    assert set(cfg1.semantic_fields()) == set(HASHED_FIELD_CHANGES)
    raw["output_dir"] = "elsewhere"
    raw["parameters"]["jobs"] = 7
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    cfg2 = load_config(config_path)
    assert cfg1.config_hash() == cfg2.config_hash()
    section, key, value = HASHED_FIELD_CHANGES[field]
    raw[section][key] = value
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    cfg3 = load_config(config_path)
    assert getattr(cfg3, field) != getattr(cfg1, field)
    assert cfg3.config_hash() != cfg1.config_hash()


def test_readme_configuration_shows_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Configuration\n.*?^```yaml\n(.*?)^```", readme, re.S | re.M).group(1)
    shown = yaml.safe_load(block)
    assert set(shown["parameters"]) == set(PARAMETER_KEYS)
    raw, config_path = _demo_config_dict(tmp_path)
    del raw["parameters"], raw["rfe"]
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    defaults = load_config(config_path)
    raw.update(parameters=shown["parameters"], rfe=shown["rfe"])
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert load_config(config_path) == defaults


# ---------------------------------------------------------------------------
# full pipeline on the demo dataset


def test_demo_outputs_exist(demo_run):
    cfg, manifest = demo_run
    for name in OUTPUT_FILES:
        assert (cfg.output_dir / name).exists(), name
    assert manifest["dropped_colors"] == []


def test_demo_ranking_recovers_acquisition_order(demo_run):
    cfg, _ = demo_run
    ranking = _read_ranking(cfg.output_dir)
    assert ranking[:6] == ["white", "black", "red", "green", "yellow", "blue"]
    basic = set(ranking[:11])
    assert basic == {
        "white", "black", "red", "green", "yellow", "blue", "brown",
        "purple", "pink", "orange", "grey",
    }


def test_demo_rerun_is_byte_identical(demo_run, tmp_path):
    cfg, _ = demo_run
    config_path = write_demo(tmp_path)
    cfg2 = load_config(config_path)
    run_pipeline(cfg2)
    for name in OUTPUT_FILES:
        if name == "manifest.json":
            continue  # timing differs by design
        a = (cfg.output_dir / name).read_bytes()
        b = (cfg2.output_dir / name).read_bytes()
        assert a == b, name


def test_demo_manifest_stable_except_timing(demo_run, tmp_path):
    cfg, manifest = demo_run
    config_path = write_demo(tmp_path)
    cfg2 = load_config(config_path)
    m2 = run_pipeline(cfg2)
    assert _strip_timing(manifest) == _strip_timing(m2)


@pytest.mark.parametrize("stage", STAGE_ORDER[1:])
def test_stage_rerun_from_cache(demo_run, tmp_path, stage):
    cfg = _copy_demo_output(demo_run, tmp_path)

    def snapshot():
        return {
            p.relative_to(cfg.output_dir).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in cfg.output_dir.rglob("*")
            if p.is_file()
        }

    before = snapshot()
    run_stage(cfg, stage)
    after = snapshot()
    manifest_before = json.loads(before.pop("manifest.json")[0])
    manifest_after = json.loads(after.pop("manifest.json")[0])
    assert _strip_timing(manifest_after) == _strip_timing(manifest_before)
    assert after.keys() == before.keys()
    assert any(after[rel][1] != before[rel][1] for rel in after), "the stage wrote nothing"
    for rel in after:
        assert after[rel][0] == before[rel][0], rel


def test_failed_stage_rerun_keeps_earlier_artifacts(demo_run, tmp_path):
    cfg = _copy_demo_output(demo_run, tmp_path)
    out = cfg.output_dir
    before = {name: (out / name).read_bytes() for name in ("features.csv", "manifest.json")}
    (out / "cache" / "segmentations.csv").unlink()
    with pytest.raises(StageError) as err:
        run_stage(cfg, "aggregate")
    assert isinstance(err.value.cause, DependencyError)
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name


def test_stage_missing_upstream_dependency(tmp_path):
    config_path = write_demo(tmp_path)
    cfg = load_config(config_path)
    with pytest.raises(StageError) as err:
        run_stage(cfg, "rfe")
    assert isinstance(err.value.cause, DependencyError)
    assert "features.csv" in str(err.value)


def test_stage_refuses_stale_config(demo_run, tmp_path):
    cfg, _ = demo_run
    config_path = write_demo(tmp_path)
    other = load_config(config_path, overrides={"output_dir": str(cfg.output_dir)})
    other.alpha = 0.5
    with pytest.raises(Exception, match="different configuration"):
        run_stage(other, "gamma")


def test_failed_run_removes_partial_outputs(tmp_path):
    config_path = write_demo(tmp_path)
    cfg = load_config(config_path)
    cfg.concreteness.write_text("word\n", encoding="utf-8")  # malformed row
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "features"
    assert not (cfg.output_dir / "features.csv").exists()
    assert not (cfg.output_dir / "cache" / "roundtrips.csv").exists()
    assert not (cfg.output_dir / "manifest.json").exists()


def _snapshot(out):
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def _fail_gamma(cfg):
    raise RuntimeError("gamma broke")


def test_failed_run_keeps_previous_good_run(tmp_path, monkeypatch):
    cfg = load_config(write_demo(tmp_path))
    run_pipeline(cfg)
    before = _snapshot(cfg.output_dir)
    assert len(before) == 16
    with cfg.lexicon.open("a", encoding="utf-8") as fh:
        fh.write("deu\tblutrot\tred\n")
    monkeypatch.setitem(pipeline.STAGE_FUNCS, "gamma", _fail_gamma)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "gamma"
    assert _snapshot(cfg.output_dir) == before


def test_no_staging_directory_left_behind(tmp_path, monkeypatch):
    cfg = load_config(write_demo(tmp_path))
    run_pipeline(cfg)
    assert not list(cfg.output_dir.glob(".staging-*"))
    monkeypatch.setitem(pipeline.STAGE_FUNCS, "gamma", _fail_gamma)
    with pytest.raises(StageError):
        run_pipeline(cfg)
    assert not list(cfg.output_dir.glob(".staging-*"))


def test_stage_by_stage_run_matches_the_full_run(demo_run, tmp_path):
    cfg, manifest = demo_run
    stepwise = dataclasses.replace(cfg, output_dir=tmp_path / "out")
    for stage in STAGE_ORDER:
        run_stage(stepwise, stage)
    got, want = _snapshot(stepwise.output_dir), _snapshot(cfg.output_dir)
    assert _strip_timing(json.loads(got.pop("manifest.json"))) == _strip_timing(manifest)
    want.pop("manifest.json")
    assert got == want


def test_input_changed_during_a_full_run_fails_it(tmp_path, monkeypatch, capsys):
    config_path = write_demo(tmp_path)
    cfg = load_config(config_path)
    run_pipeline(cfg)
    before = _snapshot(cfg.output_dir)
    segment = pipeline.STAGE_FUNCS["segment"]

    def segment_then_edit_the_survey(cfg):
        result = segment(cfg)
        _append_rows(cfg.wcs, [("zzz", "s1", "c1", "red")])
        return result

    monkeypatch.setitem(pipeline.STAGE_FUNCS, "segment", segment_then_edit_the_survey)
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "inputs changed since the cached artifacts were produced: wcs;" in err
    assert _snapshot(cfg.output_dir) == before
    assert not list(cfg.output_dir.glob(".staging-*"))


def test_dropped_colors_reported(tmp_path):
    config_path = write_demo(tmp_path)
    dropped = ("tan", "bronze")  # seed order
    lexicon = tmp_path / "lexicon.tsv"
    lines = lexicon.read_text(encoding="utf-8").splitlines(keepends=True)
    lexicon.write_text(
        "".join(l for l in lines if l.rstrip("\n").split("\t")[2] not in dropped),
        encoding="utf-8",
    )
    for name in ("concreteness.tsv", "ngram.tsv", "treebank.tsv", "etymology.tsv"):
        path = tmp_path / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(l for l in lines if l.split("\t")[0] not in dropped), encoding="utf-8")
    cfg = load_config(config_path)
    manifest = run_pipeline(cfg)
    assert manifest["dropped_colors"] == list(dropped)
    summary = (cfg.output_dir / "summary.md").read_text(encoding="utf-8")
    assert "## Dropped colors\n\ntan, bronze\n" in summary
    assert not set(dropped) & set(_read_ranking(cfg.output_dir))


def test_segment_counts_report_training(demo_run):
    _, manifest = demo_run
    counts = manifest["stages"]["segment"]["counts"]
    assert counts["edge_split_moves"] > 0
    assert counts["em_passes"] >= counts["languages_trained"]
    assert counts["em_not_converged"] == []


def test_segment_counts_report_each_language(demo_run):
    cfg, manifest = demo_run
    counts = manifest["stages"]["segment"]["counts"]
    stored = json.loads((cfg.output_dir / "manifest.json").read_text(encoding="utf-8"))
    assert stored["stages"]["segment"]["counts"] == counts
    words = {}
    for line in (cfg.output_dir / "cache/lexicon_normalized.tsv").read_text(encoding="utf-8").splitlines():
        lang, word, _ = line.split("\t")
        words.setdefault(lang, set()).add(word)
    per_language = counts["per_language"]
    assert list(per_language) == sorted(words)
    for lang, facts in per_language.items():
        model = segmentation.train_segmenter(
            sorted(words[lang]), cfg.alpha, cfg.max_iters, language=lang, max_segment_len=cfg.max_segment_len
        )
        assert facts == {
            "words": len(words[lang]),
            "edge_split_moves": model.edge_split_moves,
            "edge_split_capped": model.edge_split_capped,
            "em_passes": model.em_passes,
            "converged": model.converged,
        }
    # the summed counts are the per-language facts' sums and lists
    assert counts["edge_split_moves"] == sum(f["edge_split_moves"] for f in per_language.values())
    assert counts["em_passes"] == sum(f["em_passes"] for f in per_language.values())
    assert counts["em_not_converged"] == [lang for lang, f in per_language.items() if not f["converged"]]
    assert counts["edge_split_capped"] == [lang for lang, f in per_language.items() if f["edge_split_capped"]]


def test_segment_counts_report_em_cap(tmp_path, caplog):
    cfg = load_config(write_demo(tmp_path))
    cfg.max_iters = 1  # nld needs a second pass on the demo
    with caplog.at_level("WARNING"):
        manifest = run_pipeline(cfg)
    counts = manifest["stages"]["segment"]["counts"]
    assert counts["em_not_converged"] == ["nld"]
    assert counts["em_passes"] == counts["languages_trained"]
    assert "nld: hard EM stopped at max_iters=1" in caplog.text


def test_segment_counts_report_edge_split_cap(demo_run, tmp_path, monkeypatch, caplog):
    _, manifest = demo_run
    assert manifest["stages"]["segment"]["counts"]["edge_split_capped"] == []
    cfg = load_config(write_demo(tmp_path))
    monkeypatch.setattr(segmentation, "MAX_EDGE_SPLIT_MOVES", 1)
    with caplog.at_level("WARNING"):
        manifest = run_pipeline(cfg)
    counts = manifest["stages"]["segment"]["counts"]
    # the languages with more than one improving move, sorted
    assert counts["edge_split_capped"] == ["deu", "ita", "nld", "spa"]
    assert counts["edge_split_moves"] == 6  # one per language
    for lang in counts["edge_split_capped"]:
        assert f"{lang}: edge-split phase stopped at its cap of 1 moves" in caplog.text


def test_run_log_gives_per_language_facts_at_debug_only(tmp_path, caplog):
    cfg = load_config(write_demo(tmp_path))
    with caplog.at_level("DEBUG", logger="colorbasis.pipeline"):
        manifest = run_pipeline(cfg)
    facts = manifest["stages"]["segment"]["counts"]["per_language"]
    records = [r for r in caplog.records if r.name == "colorbasis.pipeline"]
    info = [r.getMessage() for r in records if r.levelname == "INFO"]
    assert [m.split(":")[0] for m in info] == [f"stage {stage} done" for stage in STAGE_ORDER]
    (segment,) = (m for m in info if m.startswith("stage segment done"))
    assert "per_language" not in segment
    assert segment.endswith("; per-language facts in manifest.json")
    # the summed facts stay at INFO; the map is one DEBUG line per language
    assert "'em_not_converged': []" in segment
    debug = [r.getMessage().split(": ", 1) for r in records if r.levelname == "DEBUG"]
    assert [prefix for prefix, _ in debug] == [f"stage segment {lang}" for lang in facts]
    assert [ast.literal_eval(f) for _, f in debug] == list(facts.values())
    assert len(debug) == 6


def test_summary_report_sections(demo_run):
    cfg, _ = demo_run
    text = (cfg.output_dir / "summary.md").read_text(encoding="utf-8")
    assert "## Ranking" in text
    assert "## Rank correlations" in text
    assert "glue length distribution" in text
    assert "white" in text


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_exit_codes(tmp_path, capsys):
    config_path = write_demo(tmp_path / "d")
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "top-ranked color: white" in out


def test_cli_demo_subcommand(tmp_path):
    assert main(["demo", "--output-dir", str(tmp_path / "x")]) == 0
    assert (tmp_path / "x" / "config.yaml").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("inputs: {}\noutput_dir: out\n", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code, kind",
    [(ConfigError, 2, "config error"), (DataError, 3, "data error"),
     (OSError, 3, "data error"), (RuntimeError, 4, "internal error")],
)
def test_cli_stage_failure_exit_codes(tmp_path, capsys, monkeypatch, error, code, kind):
    config_path = write_demo(tmp_path)

    def fail(cfg):
        raise error("boom")

    monkeypatch.setitem(pipeline.STAGE_FUNCS, "gamma", fail)
    assert main(["run", "--config", str(config_path)]) == code
    assert capsys.readouterr().err == f"{kind}: stage 'gamma' failed: boom\n"


def test_cli_jobs_zero_is_config_error(tmp_path, capsys):
    # 0 is an override like any other: it must not fall back to the config
    config_path = write_demo(tmp_path)
    assert main(["gamma", "--config", str(config_path), "--jobs", "0"]) == 2
    assert capsys.readouterr().err == "config error: parameters.jobs: must be >= 1\n"


def test_cli_dependency_error_exit_code(tmp_path, capsys):
    config_path = write_demo(tmp_path)
    assert main(["gamma", "--config", str(config_path)]) == 3
    assert "data error" in capsys.readouterr().err


def test_cli_reserved_sentinel_in_lexicon_is_data_error(tmp_path, capsys):
    config_path = write_demo(tmp_path)
    lexicon = tmp_path / "lexicon.tsv"
    rows = len(lexicon.read_text(encoding="utf-8").splitlines())
    with lexicon.open("a", encoding="utf-8") as fh:
        fh.write("deu\tro\x02t\tred\n")
    assert main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert f"lexicon.tsv:{rows + 1}" in err
    assert "reserved word-boundary character" in err


#: characters str.splitlines breaks at besides "\n" and "\r"
LINE_SEPARATORS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]

#: per line-oriented input, a row holding ``word`` in a field, and the
#: artifact that shows the word, if any does
ROWS_HOLDING = {
    "lexicon": (lambda word: ("deu", word, "pale"), "cache/segmentations.csv"),
    "seeds": (lambda word: (word,), "cache/features_base.csv"),
    "concreteness": (lambda word: (word, "2.5"), None),
    "ngram": (lambda word: (word, "10", "5", "5"), None),
    "treebank": (lambda word: (word, "10", "5", "5"), None),
    "etymology": (lambda word: (word, "inheritance", "1", "2"), None),
    "wcs": (lambda word: ("zzz", "s1", word, word), "consensus.csv"),
}


def _append_rows(path, rows):
    with path.open("a", encoding="utf-8", newline="") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("name", ROWS_HOLDING)
def test_cli_run_accepts_words_holding_line_separators(tmp_path, capsys, name):
    # every input and cache is split at newlines only: a word holding
    # U+2028 once made the segment stage exit 4 (lexicon) and the
    # features stage exit 3 (concreteness)
    config_path = write_demo(tmp_path)
    cfg = load_config(config_path)
    row, shown_in = ROWS_HOLDING[name]
    words = [f"we{sep}iss" for sep in LINE_SEPARATORS]
    _append_rows(getattr(cfg, name), [row(word) for word in words])
    assert main(["run", "--config", str(config_path)]) == 0, capsys.readouterr().err
    if shown_in is not None:
        text = (cfg.output_dir / shown_in).read_text(encoding="utf-8")
        assert all(word in text for word in words)
    before = _snapshot(cfg.output_dir)
    for stage in STAGE_ORDER[1:]:
        assert main([stage, "--config", str(config_path)]) == 0, capsys.readouterr().err
    after = _snapshot(cfg.output_dir)
    del before["manifest.json"], after["manifest.json"]
    assert after == before


#: how a stage refuses a cached artifact that is not the one its stage wrote
NOT_RECORDED = "not the artifact the manifest records; re-run the full pipeline"


def _replace(old, new):
    """A damage that replaces the one occurrence of ``old``."""

    def damage(text):
        assert text.count(old) == 1
        return text.replace(old, new)

    return damage


def _rows(change, lineterminator="\n"):
    """A damage that edits the rows of a CSV file and writes them back."""

    def damage(text):
        buf = io.StringIO()
        csv.writer(buf, lineterminator=lineterminator).writerows(change(list(csv.reader(io.StringIO(text)))))
        return buf.getvalue()

    return damage


def _drop_columns(*names):
    def change(rows):
        kept = [i for i, name in enumerate(rows[0]) if name not in names]
        return [[row[i] for i in kept] for row in rows]

    return _rows(change, "\r\n")


def _set_cells(**cells):
    """A damage that sets the last cell of each row ``r<number>`` (rows
    numbered from 1 after the header)."""

    def change(rows):
        for key, value in cells.items():
            number = int(key[1:])
            rows[number] = rows[number][:-1] + [value]
        return rows

    return _rows(change)


#: a row of the demo's ``cache/segmentations.csv`` whose (language, word)
#: is not a round-trip pair, so ``aggregate`` does not decode its cell
_UNUSED_SEGMENTATION_ROW = 38
_UNUSED = f"r{_UNUSED_SEGMENTATION_ROW}"
_LEXICON, _FIRST_ENTRY = "cache/lexicon_normalized.tsv", "cmn\t棕\tbrown\n"

#: (artifact, damage, stage that reads it) by test id
DAMAGED_ARTIFACTS = {
    # cells that are not numbers, or not finite ones
    "features-cell": ("features.csv", _replace("white,3.05,", "white,abc,"), "gamma"),
    "features_base-cell": ("cache/features_base.csv", _replace("white,1,3.05,", "white,1,abc,"), "aggregate"),
    "features-nan": ("features.csv", _replace("white,3.05,", "white,nan,"), "gamma"),
    "features-inf": ("features.csv", _replace("white,3.05,", "white,-inf,"), "rfe"),
    "features_base-nan": ("cache/features_base.csv", _replace("white,1,3.05,", "white,1,nan,"), "aggregate"),
    "features_base-unknown-color": (
        "cache/features_base.csv", _replace("white,1,3.05,", "mauve,1,3.05,"), "aggregate",
    ),
    # a number that still reads as one
    "features-number-edited": ("features.csv", _replace("white,3.05,", "white,3.06,"), "gamma"),
    # renamed and missing columns
    "features-column": ("features.csv", _replace(",word-length\n", ",word-len\n"), "gamma"),
    "features_base-column": ("cache/features_base.csv", _replace(",word-length\n", ",word-len\n"), "aggregate"),
    "affixes-column": ("affixes.csv", _replace(",position,", ",place,"), "compounds"),
    "compounds-column": ("compounds.csv", _replace(",glue,", ",paste,"), "features"),
    "ranking-two-columns": ("ranking.csv", _drop_columns("score", "basic"), "report"),
    "gamma-one-column": ("gamma.csv", _drop_columns("gamma_basic", "gamma_sequence"), "report"),
    "features_base-no-has_translations": (
        "cache/features_base.csv", _drop_columns("has_translations"), "aggregate",
    ),
    "features-no-color": ("features.csv", _drop_columns("color"), "gamma"),
    "affixes-no-class": ("affixes.csv", _drop_columns("class"), "report"),
    "roundtrips-three-columns": ("cache/roundtrips.csv", _drop_columns("back_translations"), "segment"),
    "segmentations-two-columns": ("cache/segmentations.csv", _drop_columns("segments"), "aggregate"),
    # short rows, empty files and rows out of order
    "roundtrips-short-row": (
        "cache/roundtrips.csv", _rows(lambda rows: rows[:2] + [rows[2][:2]] + rows[3:]), "segment",
    ),
    "compounds-short-row": ("compounds.csv", _rows(lambda rows: rows[:-1] + [rows[-1][:4]]), "report"),
    "compounds-empty": ("compounds.csv", _rows(lambda rows: []), "features"),
    "gamma-empty": ("gamma.csv", _rows(lambda rows: []), "report"),
    "roundtrips-color-split": (
        "cache/roundtrips.csv", _rows(lambda rows: rows[:2] + rows[3:] + [rows[2]]), "features",
    ),
    # JSON cells that are malformed, in a row the stage decodes or not
    "roundtrips-json": ("cache/roundtrips.csv", _set_cells(r2='["red"'), "features"),
    "roundtrips-json-later-block": ("cache/roundtrips.csv", _set_cells(r6='["red"'), "features"),
    "segmentations-json": ("cache/segmentations.csv", _set_cells(r3='["a"], ["b"]'), "aggregate"),
    "segmentations-json-unused-row": (
        "cache/segmentations.csv", _set_cells(**{_UNUSED: '["a"], ["b"]'}), "aggregate",
    ),
    "segmentations-cells-balance": (
        "cache/segmentations.csv", _set_cells(r1='["a"], ["b"', r2='"c"]'), "aggregate",
    ),
    "segmentations-empty-cell": ("cache/segmentations.csv", _set_cells(r2=""), "aggregate"),
    "roundtrips-bad-escape": ("cache/roundtrips.csv", _set_cells(r2='["\\x"]'), "features"),
    "segmentations-bad-unicode-escape-unused-row": (
        "cache/segmentations.csv", _set_cells(**{_UNUSED: '["\\u12"]'}), "aggregate",
    ),
    "segmentations-two-lines-in-a-cell": (
        "cache/segmentations.csv", _set_cells(**{_UNUSED: '["b"]\n["c"]'}), "aggregate",
    ),
    # well-formed JSON that is not a list of strings, or not the one written
    "segmentations-number": ("cache/segmentations.csv", _set_cells(r3="7"), "aggregate"),
    "segmentations-object": ("cache/segmentations.csv", _set_cells(r3='{"a": 1}'), "aggregate"),
    "roundtrips-number": ("cache/roundtrips.csv", _set_cells(r2="5"), "features"),
    "roundtrips-int-list": ("cache/roundtrips.csv", _set_cells(r2="[1, 2]"), "features"),
    "roundtrips-string": ("cache/roundtrips.csv", _set_cells(r2='"ab"'), "features"),
    "roundtrips-other-strings": ("cache/roundtrips.csv", _set_cells(r2='["x", "y"]'), "features"),
    # damaged lines of the cached lexicon, whose first line is cmn, 棕, brown
    "lexicon-short-line": (_LEXICON, _replace(_FIRST_ENTRY, "cmn\tbrown\n"), "segment"),
    "lexicon-empty-word": (_LEXICON, _replace(_FIRST_ENTRY, "cmn\t\tbrown\n"), "compounds"),
    "lexicon-empty-language": (_LEXICON, _replace(_FIRST_ENTRY, "\t棕\tbrown\n"), "segment"),
    "lexicon-empty-gloss": (_LEXICON, _replace(_FIRST_ENTRY, "cmn\t棕\t\n"), "compounds"),
}


@pytest.mark.parametrize("artifact, damage, stage", DAMAGED_ARTIFACTS.values(), ids=DAMAGED_ARTIFACTS)
def test_cli_damaged_cached_csv_is_data_error(demo_run, tmp_path, capsys, artifact, damage, stage):
    # however a cached artifact was changed, the stage that reads it
    # refuses it by its digest before reading it, and writes nothing
    cfg = _copy_demo_output(demo_run, tmp_path)
    config_path = write_demo(tmp_path)
    path = cfg.output_dir / artifact
    original = path.read_bytes()
    path.write_bytes(damage(original.decode("utf-8")).encode("utf-8"))
    assert path.read_bytes() != original
    before = _snapshot(cfg.output_dir)
    assert main([stage, "--config", str(config_path)]) == 3
    assert capsys.readouterr().err == f"data error: stage {stage!r} failed: {path}: {NOT_RECORDED}\n"
    assert _snapshot(cfg.output_dir) == before


#: every (stage, artifact it reads)
_STAGE_READS = [(stage, rel) for stage in STAGE_ORDER for rel in pipeline.READS[stage]]


@settings(max_examples=30)
@given(
    st.sampled_from(_STAGE_READS),
    st.sampled_from(["insert", "replace", "delete", "truncate"]),
    st.floats(0, 1),
    st.binary(min_size=1, max_size=3),
)
def test_any_edit_to_a_read_artifact_is_refused(demo_run, stage_read, edit, where, data):
    # one edit to one artifact a stage reads: the stage exits 3 naming the
    # file, unless the edit left the bytes as they were
    stage, rel = stage_read
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_path = write_demo(tmp)
        shutil.copytree(demo_run[0].output_dir, tmp / "out")
        path = tmp / "out" / rel
        original = path.read_bytes()
        at = round(where * len(original))
        edited = {
            "insert": original[:at] + data + original[at:],
            "replace": original[:at] + data + original[at + len(data):],
            "delete": original[:at] + original[at + len(data):],
            "truncate": original[:at],
        }[edit]
        path.write_bytes(edited)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([stage, "--config", str(config_path)])
    if edited == original:
        assert code == 0, err.getvalue()
    else:
        assert code == 3
        assert err.getvalue() == f"data error: stage {stage!r} failed: {path}: {NOT_RECORDED}\n"


def test_interrupted_move_is_refused(tmp_path, monkeypatch, capsys):
    # a full run over a changed input that fails while moving its artifacts
    # into place leaves some new artifacts beside the old manifest; once
    # the input is restored, the input digests match again, and only the
    # artifact digests show that a replaced file is not the recorded one
    config_path = write_demo(tmp_path)
    cfg = load_config(config_path)
    run_pipeline(cfg)
    lexicon = cfg.lexicon.read_bytes()
    _append_rows(cfg.lexicon, [("deu", "blutrot", "red")])
    replace, moved = os.replace, []

    def replace_three(src, dst):
        if len(moved) == 3:
            raise OSError("no space left on device")
        moved.append(Path(dst).relative_to(cfg.output_dir).as_posix())
        replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(os, "replace", replace_three)
        assert main(["run", "--config", str(config_path)]) == 3
    assert moved == ["affixes.csv", "cache/features_base.csv", "cache/lexicon_normalized.tsv"]
    cfg.lexicon.write_bytes(lexicon)
    capsys.readouterr()
    assert main(["segment", "--config", str(config_path)]) == 3
    path = cfg.output_dir / "cache/lexicon_normalized.tsv"
    assert capsys.readouterr().err == f"data error: stage 'segment' failed: {path}: {NOT_RECORDED}\n"


def _set_stage_entry(key, value):
    def damage(text):
        manifest = json.loads(text)
        if key is None:
            manifest["stages"]["features"] = value
        else:
            manifest["stages"]["features"][key] = value
        return json.dumps(manifest)

    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda text: text[: len(text) // 2], "not valid JSON"),
        (lambda text: "[]", "expected a JSON object"),
        (lambda text: json.dumps({**json.loads(text), "input_digests": None}), "input_digests: expected an object"),
        (lambda text: json.dumps({**json.loads(text), "stages": []}), "stages: expected an object"),
        (lambda text: json.dumps({**json.loads(text), "config_hash": 1}), "config_hash: expected a string"),
        (_set_stage_entry(None, ["counts"]), "stages.features: expected an object"),
        (_set_stage_entry("artifacts", ["features.csv"]), "stages.features.artifacts: expected an object"),
    ],
    ids=["truncated", "list", "null-digests", "list-stages", "number-hash", "list-stage-entry", "list-artifacts"],
)
def test_cli_damaged_manifest_is_data_error(demo_run, tmp_path, capsys, damage, message):
    cfg = _copy_demo_output(demo_run, tmp_path)
    config_path = write_demo(tmp_path)
    path = cfg.output_dir / "manifest.json"
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    before = path.read_bytes()
    assert main(["gamma", "--config", str(config_path)]) == 3
    assert f"data error: {path}: {message}" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_survey_terms_holding_commas_are_quoted(tmp_path):
    cfg = load_config(write_demo(tmp_path))
    terms = ["red, dark", 'say "red"']
    _append_rows(cfg.wcs, [("zzz", "s1", f"c{i}", term) for i, term in enumerate(terms)])
    run_stage(cfg, "wcs")
    with (cfg.output_dir / "consensus.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["language", "term", "consensus"]
    assert all(len(row) == 3 for row in rows)
    assert sorted(term for language, term, _ in rows if language == "zzz") == sorted(terms)


def test_wcs_stage_reports_skipped_survey_rows(demo_run, tmp_path):
    assert demo_run[1]["stages"]["wcs"]["counts"]["rows_skipped"] == 0
    cfg = load_config(write_demo(tmp_path))
    _append_rows(cfg.wcs, [("zzz", "s1", "c1")] * 3)
    counts = run_stage(cfg, "wcs")
    assert counts == {"languages": 3, "responses": 25, "conflicts": 0, "rows_skipped": 3}


def _csv_rows(path):
    with path.open(encoding="utf-8", newline="") as f:
        return list(csv.reader(f))[1:]


def test_aggregate_decodes_only_the_round_trip_pairs(demo_run, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_DECODE_BLOCK", 2)
    cfg = _copy_demo_output(demo_run, tmp_path)
    out = cfg.output_dir
    pairs = {(lang, word) for _, lang, word, _ in _csv_rows(out / "cache/roundtrips.csv")}
    segmentations = _csv_rows(out / "cache/segmentations.csv")
    used = [json.loads(cell) for lang, word, cell in segmentations if (lang, word) in pairs]
    assert tuple(segmentations[_UNUSED_SEGMENTATION_ROW - 1][:2]) not in pairs
    assert 0 < len(used) < len(segmentations)

    # every JSON list the stage decodes is a block of cells
    blocks = []

    def recording(text):
        value = json.loads(text)
        if text.startswith("["):
            blocks.append(value)
        return value

    monkeypatch.setattr(pipeline, "json", types.SimpleNamespace(loads=recording, dumps=json.dumps))
    before = {rel: (out / rel).read_bytes() for rel in ("features.csv", "ranking.csv", "ranking_bootstrap.csv")}
    run_stage(cfg, "aggregate")
    assert max(map(len, blocks)) == 2
    assert [value for block in blocks for value in block] == used
    assert {rel: (out / rel).read_bytes() for rel in before} == before


def test_features_reduces_each_color_as_its_rows_end(demo_run, tmp_path, monkeypatch):
    # with blocks of two rows most colors' rows span several blocks; each
    # color is still reduced once, from all of its records in file order
    monkeypatch.setattr(pipeline, "_DECODE_BLOCK", 2)
    cfg = _copy_demo_output(demo_run, tmp_path)
    out = cfg.output_dir
    roundtrips = _csv_rows(out / "cache/roundtrips.csv")
    calls = []
    translation_concreteness = pipeline.translation_concreteness

    def recording(color, records, lex):
        calls.append((color, [(r.language, r.foreign_word) for r in records]))
        return translation_concreteness(color, records, lex)

    monkeypatch.setattr(pipeline, "translation_concreteness", recording)
    before = (out / "cache/features_base.csv").read_bytes()
    run_stage(cfg, "features")
    expected = {}
    for color, lang, word, _ in roundtrips:
        expected.setdefault(color, []).append((lang, word))
    assert calls == list(expected.items())
    assert (out / "cache/features_base.csv").read_bytes() == before


def test_each_stage_logs_the_memory_high_water_mark(tmp_path, caplog):
    cfg = load_config(write_demo(tmp_path))
    with caplog.at_level("INFO", logger="colorbasis.pipeline"):
        run_pipeline(cfg)
        run_stage(cfg, "gamma")
    pattern = re.compile(
        r"stage (\w+) memory high-water mark: process (\d+\.\d) MB, reaped children (\d+\.\d) MB"
    )
    lines = [
        pattern.fullmatch(r.getMessage()) for r in caplog.records if r.name == "colorbasis.pipeline.memory"
    ]
    assert all(lines) and [m[1] for m in lines] == [*STAGE_ORDER, "gamma"]
    process = [float(m[2]) for m in lines]
    # a high-water mark never falls
    assert 0 < process[0] and process == sorted(process)


def test_every_cached_read_was_written_earlier_with_its_columns(tmp_path, monkeypatch):
    # run the stages one at a time, recording what each returns and which
    # files of the output directory it opens
    cfg = load_config(write_demo(tmp_path))
    out = cfg.output_dir.resolve()
    returned: dict[str, dict[str, str]] = {}
    opened: dict[str, set[str]] = {stage: set() for stage in STAGE_ORDER}
    current = None
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        if current is not None and isinstance(file, (str, os.PathLike)):
            path = Path(file).resolve()
            if path.is_relative_to(out):
                opened[current].add(path.relative_to(out).as_posix())
        return real_open(file, *args, **kwargs)

    def recording(stage, fn):
        def run(cfg):
            nonlocal current
            current = stage
            try:
                counts, artifacts = fn(cfg)
            finally:
                current = None
            returned[stage] = artifacts
            return counts, artifacts
        return run

    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    for stage in STAGE_ORDER:
        monkeypatch.setitem(pipeline.STAGE_FUNCS, stage, recording(stage, pipeline.STAGE_FUNCS[stage]))
        run_stage(cfg, stage)

    # a stage opens only the artifacts whose digests were checked before it
    # started: the demo runs rfe, so every declared read is made
    assert opened == {stage: set(reads) for stage, reads in pipeline.READS.items()}
    for stage, rels in opened.items():
        earlier = STAGE_ORDER[: STAGE_ORDER.index(stage)]
        for rel in rels:
            assert any(rel in returned[s] for s in earlier), (stage, rel)
    assert {rel for rels in opened.values() for rel in rels if rel.endswith(".csv")} == set(pipeline.COLUMNS) - {
        "ranking_bootstrap.csv", "consensus.csv", "inventory.csv"
    }
    headers = {
        rel: next(csv.reader(io.StringIO(text)))
        for artifacts in returned.values()
        for rel, text in artifacts.items()
        if rel.endswith(".csv")
    }
    assert headers == {rel: list(names) for rel, names in pipeline.COLUMNS.items()}


def test_cached_lexicon_is_the_ingested_one(tmp_path):
    # the stages after ingest build the table from the cache as it
    # stands, which holds only while normalizing twice changes nothing
    config_path = write_demo(tmp_path)
    lexicon = tmp_path / "lexicon.tsv"
    with lexicon.open("a", encoding="utf-8") as fh:
        fh.write("deu\tjot\tJ\u030c\ndeu\tcafe\u0301\t Brown \n")
    cfg = load_config(config_path)
    run_stage(cfg, "ingest")
    cached = pipeline._read_lexicon_cache(cfg.output_dir)
    ingested = pipeline.load_lexicon(lexicon)
    assert cached.entries == ingested.entries
    assert ("deu", "jot", "\u01f0") in cached.entries
    assert ("deu", "caf\u00e9", "brown") in cached.entries


def test_cli_rfe_constant_target_writes_null_entry(tmp_path, capsys):
    # every basic color at stage 1 and only basic colors in the sequence
    # target: that target is constant, so every gamma against it is undefined
    config_path = write_demo(tmp_path)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(re.sub(r"@\d", "@1", seeds.read_text(encoding="utf-8")), encoding="utf-8")
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    raw["parameters"]["sequence_scope"] = "basic-only"
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    payload = json.loads((tmp_path / "out" / "rfe.json").read_text(encoding="utf-8"))
    assert payload["sequence"] == {"best_features": [], "best_gamma": None, "trajectory": []}
    assert payload["basic"]["best_gamma"] is not None
    gamma_rows = (tmp_path / "out" / "gamma.csv").read_text(encoding="utf-8")
    assert "aggregate," in gamma_rows


@pytest.mark.parametrize(
    "row, message",
    [
        ("vermilion*", "basic color 'vermilion' needs a stage"),
        ("vermilion*@8", "stage out of range for 'vermilion'"),
        ("vermilion@2", "secondary color 'vermilion' must not carry a stage"),
    ],
)
def test_cli_invalid_seed_stage_is_data_error(tmp_path, capsys, row, message):
    config_path = write_demo(tmp_path)
    seeds = tmp_path / "seeds.txt"
    rows = len(seeds.read_text(encoding="utf-8").splitlines())
    with seeds.open("a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    assert main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert f"seeds.txt:{rows + 1}: {message}" in err


@pytest.mark.parametrize(
    "name, rows",
    [
        ("ngram", [("red", str(10**400), "1", "1")]),
        ("treebank", [("red", str(10**400), "1", "1")]),
        ("etymology", [("red", "inheritance", str(10**400), "200")]),
        # each line's count fits, but not the color's sum of them
        ("etymology", [("red", "borrowing", str(10**308), "200")] * 2),
    ],
    ids=["ngram", "treebank", "etymology", "etymology-sum"],
)
def test_cli_count_too_large_for_a_float_is_data_error(tmp_path, capsys, name, rows):
    # the features divide these counts as floats, which once exited 4
    config_path = write_demo(tmp_path)
    path = getattr(load_config(config_path), name)
    lines = len(path.read_text(encoding="utf-8").splitlines())
    _append_rows(path, rows)
    assert main(["run", "--config", str(config_path)]) == 3
    assert f"{path}:{lines + len(rows)}: count too large for a float" in capsys.readouterr().err


def test_cli_too_few_surviving_colors_is_data_error(tmp_path, capsys):
    # with drop_threshold 0.0 a color missing any feature is dropped, and
    # without concreteness rows eleven colors miss one: nine survive
    raw, config_path = _demo_config_dict(tmp_path)
    raw["parameters"]["drop_threshold"] = 0.0
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    concreteness = tmp_path / "concreteness.tsv"
    rows = concreteness.read_text(encoding="utf-8").splitlines(keepends=True)
    concreteness.write_text("".join(rows[11:]), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "only 9 colors survive the missing-value filter (drop_threshold 0.0)" in err


def test_cli_stage_refuses_changed_inputs(tmp_path, capsys):
    config_path = write_demo(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    with (tmp_path / "lexicon.tsv").open("a", encoding="utf-8") as fh:
        fh.write("deu\tneuwort\tred\n")
    capsys.readouterr()
    assert main(["gamma", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "lexicon" in err
    assert "re-run the full pipeline" in err


def test_cli_stage_subcommand(tmp_path):
    config_path = write_demo(tmp_path)
    assert main(["ingest", "--config", str(config_path)]) == 0
    assert main(["segment", "--config", str(config_path)]) == 0
    assert (tmp_path / "out" / "affixes.csv").exists()


# ---------------------------------------------------------------------------
# cache readers

_cache_text = st.text(st.sampled_from(list('ab,"\\ \'é语́[]{}:\t')), max_size=6)


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(_cache_text, _cache_text, _cache_text, st.lists(_cache_text, max_size=3)),
        max_size=8,
    ),
    st.sampled_from([json.dumps, functools.partial(json.dumps, indent=1, ensure_ascii=False)]),
)
def test_bulk_readers_match_per_row_json(rows, dump):
    # commas, quotes, backslashes, brackets, non-ASCII text, empty lists,
    # zero rows and cells not written by json.dumps' defaults all read back
    # as written, and their JSON columns decode exactly as one json.loads
    # per row does
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "cache").mkdir()
        written = {
            "cache/roundtrips.csv": [(c, l, w, dump(sorted(set(b)))) for c, l, w, b in rows],
            "cache/segmentations.csv": [(l, w, dump(b)) for _, l, w, b in rows],
        }
        for rel, cells in written.items():
            (out / rel).write_text(pipeline._csv_text(rel, cells), encoding="utf-8", newline="")
            read = list(pipeline._read(out, rel))
            assert read == cells
            assert [value for _, value in pipeline._decoded_rows(out, rel)] == [
                json.loads(row[-1]) for row in cells
            ]
        assert list(pipeline._read(out, "cache/roundtrips.csv", ("foreign_word", "color"))) == [
            (w, c) for c, _, w, _ in written["cache/roundtrips.csv"]
        ]


@settings(max_examples=25)
@given(
    st.lists(st.tuples(_cache_text, _cache_text, st.lists(_cache_text, max_size=3), st.booleans()), max_size=8),
    st.integers(1, 4),
    st.sampled_from([json.dumps, functools.partial(json.dumps, indent=1, ensure_ascii=False)]),
)
def test_decoded_rows_match_per_row_json(rows, block, dump):
    # whatever the block size, the kept rows come out in file order with
    # their cells decoded as json.loads does
    rel = "cache/segmentations.csv"
    cells = [(l, w, dump(b)) for l, w, b, _ in rows]
    kept = {(l, w, c) for (l, w, c), (*_, keep) in zip(cells, rows) if keep}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(pipeline, "_DECODE_BLOCK", block):
        out = Path(tmp)
        (out / "cache").mkdir()
        (out / rel).write_text(pipeline._csv_text(rel, cells), encoding="utf-8", newline="")
        decoded = list(pipeline._decoded_rows(out, rel, kept.__contains__))
    assert decoded == [(row, json.loads(row[-1])) for row in cells if row in kept]

import json
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

"""What every command pays before it does any work: no command loads scipy,
and YAML is read through one loader choice that gives the same documents
either way."""

import glob
import os
import subprocess
import sys

import pytest
import yaml

import miakit
from miakit import scenario
from miakit.scenario import ValidationError, bundled_path, load_scenario, read_yaml

BUNDLED = sorted(glob.glob(os.path.join(os.path.dirname(bundled_path("slack.yaml")), "*.yaml")))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(miakit.__file__)))

# Run in a fresh interpreter: this test process has scipy loaded already
# (the acceptance tests use it as an oracle).
PROBE = """
import sys
import miakit.cli as cli
from miakit.scenario import bundled_path

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, ck = sys.argv[1], bundled_path("checkpoint.yaml")
print("loaded:", "import", loaded())
for argv in (
    ["gen-flows", "--topology", bundled_path("cascade_clean.yaml"), "--seed", "3",
     "--out", out + "/flows.csv", "--truth", out + "/truth.yaml"],
    ["discover", "--flows", out + "/flows.csv", "--out", out + "/deps.yaml"],
    ["propagate", "--graph", ck, "--compromised", "plandb", "--mission", ck,
     "--out", out + "/impact.yaml"],
    ["simulate", "--scenario", ck, "--replications", "3", "--baseline", "--out", out + "/m.csv"],
    ["report", "--metrics", out + "/m.csv", "--baseline", out + "/m.csv.baseline.csv"],
):
    assert cli.main(argv) == 0, argv
    print("loaded:", argv[0], loaded())
import scipy
print("loaded:", "control", loaded())
"""


def test_no_command_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = dict(
        line.split(" ", 2)[1:] for line in proc.stdout.splitlines() if line.startswith("loaded: ")
    )
    # The probe does see scipy once it is loaded.
    assert "'scipy'" in seen.pop("control")
    assert seen == dict.fromkeys(
        ("import", "gen-flows", "discover", "propagate", "simulate", "report"), "[]"
    )


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_is_the_default_loader():
    assert scenario._SafeLoader is yaml.CSafeLoader


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", BUNDLED, ids=os.path.basename)
def test_c_and_python_loaders_build_equal_documents(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


class PurePythonLoader(yaml.SafeLoader):
    """The fallback loader, counting the documents it is given."""

    opened = 0

    def __init__(self, stream):
        type(self).opened += 1
        super().__init__(stream)


@pytest.fixture
def pure_python_loader(monkeypatch):
    monkeypatch.setattr(PurePythonLoader, "opened", 0)
    monkeypatch.setattr(scenario, "_SafeLoader", PurePythonLoader)
    return PurePythonLoader


def test_fallback_loader_reads_every_bundled_document(pure_python_loader):
    assert len(BUNDLED) >= 9
    for path in BUNDLED:
        with open(path, encoding="utf-8") as fh:
            assert read_yaml(path) == yaml.safe_load(fh)
    assert load_scenario(bundled_path("checkpoint.yaml")).mission.tasks
    assert pure_python_loader.opened == len(BUNDLED) + 1


def test_fallback_loader_reports_malformed_yaml(pure_python_loader, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [1,\n")
    with pytest.raises(ValidationError) as err:
        read_yaml(str(bad))
    assert str(err.value).startswith(f"{bad}: YAML error: ")
    assert "\n" not in str(err.value)


NUMPY_RANDOM_PROBE = """
import sys
import miakit.cli as cli
from miakit.scenario import bundled_path

out, ck = sys.argv[1], bundled_path("checkpoint.yaml")
for argv in (
    ["discover", "--flows", out + "/flows.csv", "--out", out + "/deps.yaml"],
    ["propagate", "--graph", ck, "--compromised", "plandb", "--mission", ck,
     "--out", out + "/impact.yaml"],
):
    assert cli.main(argv) == 0, argv
print("numpy.random" in sys.modules)
"""


def test_discover_and_propagate_do_not_load_numpy_random(tmp_path):
    # numpy.random costs a few MB of resident memory; only commands that
    # draw random numbers (simulate, gen-flows) should load it.
    from miakit.cli import main

    assert main(["gen-flows", "--topology", bundled_path("cascade_clean.yaml"), "--seed", "3",
                 "--out", str(tmp_path / "flows.csv")]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_PROBE, str(tmp_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"

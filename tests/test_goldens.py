"""The first ops of each benchmark workload, on its default seed, checked
against the goldens recorded from the CLI, so that a changed verdict,
residual or exact sum fails here and not only in the benchmark run.

The benchmark's own modules are loaded from ``perfbench/`` as they are,
without putting that directory on the import path or writing bytecode
into it.
"""

import importlib.util
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from rankone import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
OPS_PER_WORKLOAD = 12
WORKLOADS = ("disjointness", "telescope", "mobius-sum")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
with mock.patch.dict(sys.modules, {"workloads": workloads}):  # checks imports it by name
    checks = _load("checks")


def _goldens(workload):
    text = (BENCH / "goldens" / f"{workload}.json").read_text()
    return json.loads(text)["ops"][:OPS_PER_WORKLOAD]


GOLDENS = {w: _goldens(w) for w in WORKLOADS}


@pytest.mark.parametrize("i", range(OPS_PER_WORKLOAD))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_matches_its_golden(tmp_path, workload, i):
    _, config = workloads.Plan(workload, SEED).op(i)
    stream = io.StringIO()
    code = cli.run(cli.parse_config_dict(dict(config, output={"dir": str(tmp_path)})),
                   stream)
    assert code == 0, stream.getvalue()
    result = checks.extract(config["command"], tmp_path, stream.getvalue())
    assert checks.problems(config, result) == []
    golden = GOLDENS[workload][i]
    assert golden["config_sha"] == checks.config_sha(config), "inputs changed"
    assert checks.golden_problems(config["command"], result, golden) == []

"""No module of the library reads the process environment.

A run's settings are its arguments: the two tolerances of
:class:`SimConfig`, given by the caller, the CLI's ``--rtol`` or a sweep
spec.  A variable read behind the caller's back would be a second,
hidden source of them.
"""

import ast
import json
from pathlib import Path

import cyclebound
from cyclebound.cli import main
from cyclebound.harness import SweepSpec

SRC = Path(cyclebound.__file__).resolve().parent
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """The ``os.environ``-style attributes and ``from os import`` names a
    module's source reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                f"line {node.lineno}: from os import {alias.name}"
                for alias in node.names
                if alias.name in ENVIRONMENT_READERS
            ]
    return found


def test_environment_reads_are_found():
    assert environment_reads("import os\nrtol = os.environ.get('X')\n") == [
        "line 2: .environ"
    ]
    assert environment_reads("from os import getenv\n") == ["line 1: from os import getenv"]
    assert environment_reads("import math\nx = math.sqrt(2.0)\n") == []


def test_no_module_reads_the_environment():
    reads = {
        path.name: environment_reads(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in reads.items() if found} == {}
    assert "simulator.py" in reads and "cli.py" in reads


def test_a_tolerance_variable_changes_nothing(monkeypatch, capsys):
    # once without and once with the variable that set rtol before
    record = {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0]}
    args = ["cycle", "--json", "--a", "0.05", "--lambda", "0.05", "--m", "1"]
    outputs = []
    for rtol in (None, "1e-4"):
        if rtol is None:
            monkeypatch.delenv("CYCLEBOUND_RTOL", raising=False)
        else:
            monkeypatch.setenv("CYCLEBOUND_RTOL", rtol)
        code = main(args)
        out, _ = capsys.readouterr()
        outputs.append((code, json.loads(out), SweepSpec.from_json(record)))
    assert outputs[0] == outputs[1]
    assert outputs[0][2].sim == cyclebound.SimConfig()

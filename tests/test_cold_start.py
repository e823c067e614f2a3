"""Cold start: no class is generated at import, and every command runs without scipy.

pytest loads scipy itself, so each run is checked in a fresh interpreter.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

VERIFY_RUN = """
import sys
from homofiber import cli
code = cli.main(["verify", "--space", "hopf:2", "--k=1", "--samples", "3"])
print(code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


SIMULATE_RUN = """
import sys
from homofiber import cli
argv = ["simulate", "--space", "twistor_su3", "--k=1", "--samples", "40", "--out", sys.argv[1]]
code = cli.main(argv)
unwanted = ("scipy", "fractions", "decimal")
print(code, sorted(m for m in sys.modules if m.partition(".")[0] in unwanted))
"""


BLOCKED_RUN = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from homofiber import cli
out = sys.argv[1]
runs = [
    ["validate", "--space", "twistor_su3"],
    ["verify", "--space", "hopf:2", "--k=1", "--samples", "3"],
    ["verify", "--space", "kahler_s2", "--k=1", "--samples", "3", "--format", "csv"],
    ["verify", "--space", "hopf:1", "--samples", "3", "--perturb", "1e-2"],
    ["simulate", "--space", "twistor_su3", "--k=1", "--samples", "40"],
    ["catalog", "export", "hopf:3"],
]
print([cli.main(argv + ["--out", out]) for argv in runs])
"""


def _fresh(script, *args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_verify_run_leaves_scipy_unloaded():
    assert _fresh(VERIFY_RUN) == "0 []"


def test_simulate_run_leaves_scipy_fractions_and_decimal_unloaded(tmp_path):
    # the CSV writer's table of powers of ten comes from int arithmetic alone
    assert _fresh(SIMULATE_RUN, str(tmp_path / "s.csv")) == "0 []"
    assert (tmp_path / "s.csv").read_text().count("\n") == 41


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # the perturbed curve fails its checks (exit 1), as it does with scipy
    assert _fresh(BLOCKED_RUN, str(tmp_path / "out")) == "[0, 0, 0, 1, 0, 0]"


def test_no_module_imports_dataclasses():
    offenders = []
    for path in sorted((SRC / "homofiber").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"dataclasses imported at {', '.join(offenders)}"

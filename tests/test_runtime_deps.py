"""The program runs on numpy and the standard library alone.

scipy stays a test-only dependency (the oracles use it), so this test runs
the program in a fresh interpreter whose import system refuses scipy.  The
README's library quick start runs in a fresh interpreter too.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import shockdecay

SRC = Path(shockdecay.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"

NO_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused in this interpreter")
        return None


sys.meta_path.insert(0, RefuseScipy())

import numpy as np

import shockdecay.cli
from shockdecay import BoundaryPulse, fit_shock, formation_distance

assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
workdir = sys.argv[1]
code = shockdecay.cli.main(["compare-methods", "--report", workdir + "/report.json"])
assert code == 0, code
argv = ["fit-shock", "--pulse", "table", "--pulse-file", workdir + "/pulse.csv"]
code = shockdecay.cli.main(argv + ["--out", workdir + "/fit.csv"])
assert code == 0, code
pulse = BoundaryPulse(lambda t: 0.1 * t * (1.0 - t) ** 2, 1.0)
x = np.geomspace(1.1 * formation_distance(pulse), 1e6, 50)
assert np.all(np.isfinite(fit_shock(pulse, x_grid=x).tau_minus))
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
print("ok")
"""


def _run(args, cwd=None):
    """A fresh interpreter on args, with this checkout's package first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


def test_program_runs_without_scipy(tmp_path):
    taus = np.linspace(0.0, 1.0, 41)
    values = 0.05 * np.sin(np.pi * taus) * (1.0 + 0.5 * taus)
    rows = "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(taus, values))
    (tmp_path / "pulse.csv").write_text("tau,v\n" + rows)
    done = _run(["-c", NO_SCIPY, str(tmp_path)])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "ok"
    assert (tmp_path / "report.json").is_file() and (tmp_path / "fit.csv").is_file()


def test_readme_quick_start_runs(tmp_path):
    # The same block the console-script CI job runs, with warnings as errors.
    text = README.read_text().split("## Library quick start", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    done = _run(["-W", "error", "-c", block], cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_every_exported_name_resolves_once():
    # A stale or repeated __all__ entry breaks `from shockdecay import *`.
    assert len(set(shockdecay.__all__)) == len(shockdecay.__all__)
    assert [name for name in shockdecay.__all__ if not hasattr(shockdecay, name)] == []

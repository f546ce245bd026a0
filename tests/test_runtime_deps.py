"""The program runs on numpy and the standard library alone.

scipy stays a test-only dependency (the oracles use it), so this test runs
the program in a fresh interpreter whose import system refuses scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import shockdecay

SRC = Path(shockdecay.__file__).resolve().parent.parent

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


def test_program_runs_without_scipy(tmp_path):
    taus = np.linspace(0.0, 1.0, 41)
    values = 0.05 * np.sin(np.pi * taus) * (1.0 + 0.5 * taus)
    rows = "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(taus, values))
    (tmp_path / "pulse.csv").write_text("tau,v\n" + rows)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "ok"
    assert (tmp_path / "report.json").is_file() and (tmp_path / "fit.csv").is_file()


def test_every_exported_name_resolves_once():
    # A stale or repeated __all__ entry breaks `from shockdecay import *`.
    assert len(set(shockdecay.__all__)) == len(shockdecay.__all__)
    assert [name for name in shockdecay.__all__ if not hasattr(shockdecay, name)] == []

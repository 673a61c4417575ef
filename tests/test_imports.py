import os
import pathlib
import subprocess
import sys

import cvqkd

HEAVY = ("scipy.stats", "scipy.signal", "scipy.integrate", "scipy.optimize")

# Imports the package and the CLI, runs a small pipeline and a socketpair
# session, then prints the heavy scipy modules that got loaded and, after a
# "|", every scipy module that got loaded.
KEY_PATH = """
import socket, sys, threading
import cvqkd, cvqkd.cli
from cvqkd import session
from cvqkd.pipeline import PipelineConfig, run_pipeline

def config():
    return PipelineConfig(loss=0.54, var_mod=4.0, n_symbols=20_000,
                          n_bands=4, seed=4)

run_pipeline(config())
sa, sb = socket.socketpair()
def bob():
    with sb.makefile("rb") as r, sb.makefile("wb") as w:
        session.run_bob(r, w)
t = threading.Thread(target=bob)
t.start()
with sa.makefile("rb") as r, sa.makefile("wb") as w:
    session.run_alice(r, w, config())
t.join(timeout=60)
assert not t.is_alive()
print(" ".join(m for m in %r if m in sys.modules), "|",
      " ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
""" % (HEAVY,)


# The theory curve and the variance optimizer, then the same report.
THEORY_PATH = """
import sys
from cvqkd import security
from cvqkd.pipeline import PipelineConfig

security.theoretical_key_rate_curve([0.54, 0.9])
PipelineConfig(loss=0.54, var_mod=None).resolve_var_mod()
print(" ".join(m for m in %r if m in sys.modules), "|",
      " ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
""" % (HEAVY,)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cvqkd.__file__)))


def _modules_loaded(code):
    """(heavy scipy modules, all scipy modules) that ``code`` loaded."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    heavy, _, scipy = out.stdout.partition("|")
    return heavy.split(), scipy.split()


def test_key_path_imports_no_heavy_scipy_modules():
    heavy, scipy = _modules_loaded(KEY_PATH)
    assert heavy == []
    assert scipy == []


def test_theory_path_imports_no_optimize_or_integrate():
    loaded, scipy = _modules_loaded(THEORY_PATH)
    assert scipy == []
    assert "scipy.optimize" not in loaded
    assert "scipy.integrate" not in loaded
    # no root-finder is left anywhere in the package
    for path in pathlib.Path(cvqkd.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "scipy.optimize" not in text, path
        assert "scipy import optimize" not in text, path

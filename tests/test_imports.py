import os
import subprocess
import sys

import cvqkd

HEAVY = ("scipy.stats", "scipy.signal", "scipy.integrate", "scipy.optimize")

# Imports the package and the CLI, runs a small pipeline and a socketpair
# session, then prints the heavy scipy modules that got loaded.
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
print(" ".join(m for m in %r if m in sys.modules))
""" % (HEAVY,)


def test_key_path_imports_no_heavy_scipy_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cvqkd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", KEY_PATH], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []

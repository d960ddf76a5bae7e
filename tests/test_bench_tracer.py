"""The benchmark tracer (bench/spans.py) still wraps the package attributes
that interpolate calls through, so a rename under src/ fails here instead of
silently zeroing the traced benchmark's per-layer metrics."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Tracer.install patches module attributes for the whole process, so the
# traced run gets a process of its own.
SCRIPT = """
import json
import powerprobe
import powerprobe.cli
from spans import Tracer

tracer = Tracer()
tracer.install(powerprobe)
orc = powerprobe.oracle
spec = orc.gen_instance(101, 5, 2, seed=7, require_square_free=True)
root = tracer.begin_op("interpolate")
res = powerprobe.algorithms.interpolate(orc.CachingOracle(orc.make_oracle(spec)), 2)
tracer.end_op(root)
assert res.poly == spec.f
print(json.dumps(tracer.layer_metrics(1)))
"""


def test_tracer_sees_interpolate_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["algorithms.step1_pairs"] == 4
    assert metrics["algorithms.step2_candidates"] == 1
    assert metrics["ff_core.extract_roots_calls"] > 0
    assert metrics["oracle.queries"] > 0

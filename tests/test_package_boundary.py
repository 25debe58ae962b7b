"""The served package never imports ``repro.paper`` — held at import time.

CI greps for the import statement; this runs the imports.  A fresh
interpreter imports every served module, builds the default stack and
answers one query, and must end with no ``repro.paper`` module loaded.  The
old homes of the moved modules must not import at all: an alias left
behind would be a second path to the same code.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import repro

OLD_PATHS = ("repro.baselines", "repro.joins", "repro.indexmerge",
             "repro.bench", "repro.storage.btree", "repro.storage.bitmap",
             "repro.signature", "repro.storage.rtree",
             "repro.storage.hierindex")

SCRIPT = """
import importlib, sys

for name in sys.argv[1].split(","):
    importlib.import_module(name)

from repro.engine import Executor
from repro.functions import LinearFunction
from repro.query import Predicate, TopKQuery
from repro.workloads import SyntheticSpec, generate_relation

relation = generate_relation(SyntheticSpec(
    num_tuples=50, num_selection_dims=2, num_ranking_dims=2,
    cardinality=3, seed=5))
result = Executor.for_relation(relation, block_size=10).execute(TopKQuery(
    Predicate.of(A1=1), LinearFunction(["N1", "N2"], [1.0, 2.0]), 3))
assert len(result.tids) == 3, result

loaded = sorted(m for m in sys.modules if m.startswith("repro.paper"))
assert not loaded, f"the served package imported {loaded}"
for name in sys.argv[2].split(","):
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        continue
    raise AssertionError(f"{name} still imports")
"""


def test_served_package_never_loads_the_paper_half():
    # walk_packages imports each package it descends into (repro.paper
    # too), so the walk happens here and the fresh interpreter is handed
    # the names.
    served = [info.name
              for info in pkgutil.walk_packages(repro.__path__, "repro.")
              if not info.name.startswith("repro.paper")
              and not info.name.endswith("__main__")]
    assert "repro.engine.executor" in served and "repro.net.server" in served
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, ",".join(served), ",".join(OLD_PATHS)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

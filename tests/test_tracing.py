"""The benchmark's span tracer still finds the package hooks it patches.

``perfbench/tracing.py`` wraps ``PointAssembly.__init__``/``_get``, the
``GridStructure`` cache builders and a few module functions by name.  A
renamed hook would leave its metric at zero without an error, so this runs
the tracer on small calls in a child process (the patches are global) and
asserts that the spans were recorded.  The grid properties that the
connection stack defines for both engines (``mean_cartan``, ``p``, ``rho``,
``huu``, ``min_eig_g``), ``ricci_tilde``, ``h_tilde`` and the pointwise
tensors that read a ``PointAssembly`` are covered too.  The flow diagnostics
read the grid's closed-form ``rho``, ``ricci_scalar``, ``h_tilde``,
``gem_field`` and smallest eigenvalue of g, and build no spray, no Cartesian
g or g^-1 and no Htilde_ij, so the child builds ``p``, the spray ``G`` (with
its fiber partials), ``ricci_tilde`` and ``ginv`` itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json
import numpy as np
from perfbench import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
from finslerflow.connections import fundamental_tensor
from finslerflow.curvature import curvature_bundle
from finslerflow.flow import diagnostics, encode_state
from finslerflow.grids import build_grid
from finslerflow.measure import liouville_density
from finslerflow.zoo import get_entry

tracer.op = 0
curvature_bundle(get_entry("funk-disk").structure, np.array([0.2, 0.1]), np.array([0.6, 0.8]))
bg, fg = build_grid(2, 16, 2 * np.pi, 16)
state = encode_state(get_entry("conformal-torus").structure, bg, fg)
diagnostics(state, gem_stride=4)
gs = state.grid_structure()
gs.mean_cartan, gs.p, gs.G, gs.ricci_tilde, gs.ginv
randers = get_entry("randers-torus").structure
tracer.op = 1
fundamental_tensor(randers, np.array([0.3, 1.1]), np.array([0.6, 0.8]))
tracer.op = 2
liouville_density(randers, np.array([0.3, 1.1]), 0.7)
assembly_ops = sorted({s[5] for s in tracer.spans if s[0] == "connections.point_assembly"})
print(json.dumps({"metrics": tracing.per_layer_metrics(tracer, 1), "assembly_ops": assembly_ops}))
"""


def test_tracer_hooks_record_spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = out["metrics"]
    for name in (
        "connections.point_assembly_s", "fields.g_s", "fields.G_s", "fields.ricci_scalar_s",
        "fields.gem_field_s", "fields.theta_derivative_s", "fields.fiber_partials_s",
        "grids.base_derivative_s", "structures.f2_jets_s", "curvature.curvature_bundle_s",
        "fields.mean_cartan_s", "fields.p_s", "fields.rho_s", "fields.huu_s",
        "fields.ricci_tilde_s", "fields.h_tilde_s", "fields.min_eig_g_s",
    ):
        assert metrics[name] > 0.0, name
    assert metrics["fields.grid_structures"] == 1
    # op 1 is fundamental_tensor, op 2 liouville_density
    assert out["assembly_ops"] == [0, 1, 2]

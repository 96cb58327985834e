"""The statistics' bits do not depend on numpy's SIMD dispatch.

numpy picks a SIMD path for each vectorised ufunc at run time, by CPU,
and ``NPY_DISABLE_CPU_FEATURES`` turns dispatch targets off for one
process. The probe below runs twice in a fresh interpreter: with the
default dispatch, and with every AVX-512 target that the running numpy
dispatches and this CPU has turned off, which is the dispatch of a CPU
without AVX-512. Each value's bytes must be equal in the two runs:

- all six row kernels on a block of the fifteen cases;
- all six statistics on the four ``TestEdgeInputs`` samples;
- a 1,000-rep JB and GG calibration;
- ``ad_from_u`` and ``glb_from_u`` on 1,000 sorted uniform vectors of
  100 (one value's sum hides most rounding changes in its logs);
- the SSIM window taps;
- the raster chain on a 200-row block of the fifteen cases: the render,
  its lit-pixel list, and the ImageGrid, PSNR and SSIM kernels that
  read the list (compared by SHA-256 of their bytes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dnt
from test_classical import EDGE_SAMPLES

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

# numpy 2.x groups AVX-512 as X86_V4, AVX512_ICL and AVX512_SPR; numpy 1.x
# lists AVX512F, AVX512_SKX and their siblings. Only names the running
# numpy dispatches are passed, and only those this CPU has.
AVX512_TARGETS = [
    name
    for name in _umath.__cpu_dispatch__
    if ("AVX512" in name or name == "X86_V4") and _umath.__cpu_features__.get(name)
]

_PROBE = r"""
import hashlib, json, sys
import numpy as np
try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:
    from numpy.core import _multiarray_umath as _umath
from dnt.classical import STATISTIC_NAMES, ad_from_u, glb_from_u, statistic_fn
from dnt.engine import calibrate_cutoff
from dnt.features import _image_grid_rows
from dnt.imagesim import _G, SimilarityReference
from dnt.qq import _render_rows
from dnt.sampling import _z_scores, case_spec, sample

targets, edge = json.loads(sys.stdin.read())
hexes = {}
block = np.stack([sample(case_spec(c), 100, 100 * c + s).values for c in range(1, 16) for s in range(6)])
for name in STATISTIC_NAMES:
    hexes[f"{name} block"] = statistic_fn(name).calibration_rows(block)
    for label, values in edge.items():
        hexes[f"{name} {label}"] = statistic_fn(name).calibration_rows(np.array([values]))
for name in ("JB", "GG"):
    hexes[f"{name} cutoff"] = calibrate_cutoff(statistic_fn(name), 100, 1000, 0.05, seed=0)
us = np.sort(np.random.default_rng(0).random((1000, 100)), axis=-1)
hexes["ad_from_u"] = [ad_from_u(u) for u in us]
hexes["glb_from_u"] = [glb_from_u(u) for u in us]
hexes["SSIM taps"] = _G
rows = np.stack([sample(case_spec(1 + i % 15), 100, 2000 + i).values for i in range(200)])
rendered = _render_rows(_z_scores(rows, ascending=True))
reference = SimilarityReference.ideal(100)
chain = {
    **rendered._asdict(),
    "ImageGrid": _image_grid_rows(rendered),
    "PSNR": reference._level_statistics(rendered, "PSNR"),
    "SSIM": reference._level_statistics(rendered, "SSIM"),
}
print(json.dumps({
    "enabled": {name: bool(_umath.__cpu_features__[name]) for name in targets},
    "bytes": {key: np.asarray(v, dtype=np.float64).tobytes().hex() for key, v in hexes.items()},
    "digests": {key: hashlib.sha256(v.tobytes()).hexdigest() for key, v in chain.items()},
}))
"""


def _probe(disabled: list[str]) -> dict:
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    src = os.path.dirname(os.path.dirname(os.path.abspath(dnt.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    edge = {label: values.tolist() for label, values in EDGE_SAMPLES.items()}
    run = subprocess.run(
        [sys.executable, "-c", _PROBE],
        input=json.dumps([AVX512_TARGETS, edge]),
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.skipif(
    not AVX512_TARGETS,
    reason=f"numpy {np.__version__} dispatches no AVX-512 target that this CPU has "
    f"(dispatch: {' '.join(_umath.__cpu_dispatch__) or 'none'})",
)
def test_bits_do_not_depend_on_avx512_dispatch() -> None:
    default = _probe([])
    without = _probe(AVX512_TARGETS)
    assert all(default["enabled"].values()), default["enabled"]
    assert not any(without["enabled"].values()), without["enabled"]
    moved = sorted(key for key in default["bytes"] if default["bytes"][key] != without["bytes"][key])
    moved += sorted(key for key in default["digests"] if default["digests"][key] != without["digests"][key])
    assert len(default["digests"]) == 8
    assert not moved, f"bits differ with {' '.join(AVX512_TARGETS)} disabled: {moved}"

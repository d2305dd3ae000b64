"""Exported results must not depend on the machine's numeric kernels.

OpenBLAS picks its dot-product kernel from the CPU at run time, and
NumPy dispatches its SIMD loops the same way.  A sum that goes through
either can round differently on another machine, which once turned the
byte-identity goldens red on every CPU but the one that recorded them.
Each case here re-exports both golden pins in a fresh interpreter with
a different kernel forced, and requires the very bytes the goldens pin.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent.parent / "golden" / \
    "pre_uncertainty_results.json"
SRC = Path(__file__).resolve().parents[2] / "src"

#: Kernel selections to force: OpenBLAS's oldest and a modern x86
#: core type, and NumPy with its AVX-512 loops switched off.
VARIANTS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-without-avx512": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    },
}

EXPORT = """
import json, sys
from repro.core.experiment import Experiment, ExperimentConfig
from repro.export import result_to_dict
configs = json.loads(sys.argv[1])
print(json.dumps({
    pin: result_to_dict(Experiment(ExperimentConfig(**cfg)).run())
    for pin, cfg in configs.items()
}))
"""


@pytest.fixture(scope="module")
def exports():
    """``variant -> (returncode, stdout, stderr)``, run concurrently."""
    golden = json.loads(GOLDEN.read_text())
    configs = json.dumps({pin: g["config"] for pin, g in golden.items()})
    procs = {}
    for name, overrides in VARIANTS.items():
        env = dict(os.environ, PYTHONPATH=str(SRC), **overrides)
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", EXPORT, configs], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    results = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        results[name] = (proc.returncode, stdout, stderr)
    return results


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_pins_export_identically(exports, variant):
    returncode, stdout, stderr = exports[variant]
    assert returncode == 0, stderr
    golden = json.loads(GOLDEN.read_text())
    exported = json.loads(stdout)
    assert exported == {pin: g["result"] for pin, g in golden.items()}

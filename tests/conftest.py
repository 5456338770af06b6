import time

import pytest

from dualris.experiments import (RunConfig, build_channel_state, calibrate, delta_metrics,
                                 sweep_elevation)
from dualris.qubo import build_qubo, export_qubo, load_qubo


@pytest.fixture(scope="session")
def run_config():
    return RunConfig()


@pytest.fixture(scope="session")
def calibrated(run_config):
    """Default calibration plus its wall-clock cost (checked by acceptance)."""
    t0 = time.time()
    cal = calibrate(run_config)
    return {"cal": cal, "seconds": time.time() - t0}


@pytest.fixture(scope="session")
def sweep_result(run_config, calibrated):
    t0 = time.time()
    rows = delta_metrics(sweep_elevation(run_config, calibrated["cal"]))
    return {"rows": rows, "seconds": time.time() - t0,
            "by": {(r.elevation_deg, r.n_elements): r for r in rows}}


@pytest.fixture(scope="module")
def model_n64(run_config, calibrated, tmp_path_factory):
    """The 45 deg, N = 64 surrogate of the default run, exported and loaded back."""
    cal = calibrated["cal"]
    state, ris_cfg, _ = build_channel_state(run_config, cal, 45.0, 64)
    built = build_qubo(state, run_config.weights, cal, run_config.optical, run_config.rf,
                       ris_cfg)
    path = tmp_path_factory.mktemp("qubo") / "n64.qubo"
    export_qubo(built, str(path), comments=["dualris surrogate", "elevation_deg 45",
                                            "n_elements 64"])
    return built, path, load_qubo(str(path))

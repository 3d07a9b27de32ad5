"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def sweep_json_outside_repo(tmp_path_factory):
    """Send recorded sweeps and cached trials to a temporary directory.

    ``run_sweep`` records to the committed ``BENCH_sweep.json`` unless
    ``REPRO_BENCH_SWEEP_JSON`` says otherwise, and the trial cache writes
    under ``results/.trial-cache`` unless ``REPRO_BENCH_CACHE_DIR`` does;
    tests must leave the working tree clean, so both variables point at
    a temporary directory.  Forked sweep workers inherit them.
    """
    tmp = tmp_path_factory.mktemp("bench")
    path = tmp / "BENCH_sweep.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_BENCH_SWEEP_JSON", str(path))
        mp.setenv("REPRO_BENCH_CACHE_DIR", str(tmp / "trial-cache"))
        yield path

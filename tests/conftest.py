"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def sweep_json_outside_repo(tmp_path_factory):
    """Send every recorded sweep to a scratch file for the whole session.

    ``run_sweep`` records to the committed ``BENCH_sweep.json`` unless
    ``REPRO_BENCH_SWEEP_JSON`` says otherwise; tests must leave the
    working tree clean, so the variable points at a temporary file.
    Forked sweep workers inherit it.
    """
    path = tmp_path_factory.mktemp("bench") / "BENCH_sweep.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_BENCH_SWEEP_JSON", str(path))
        yield path

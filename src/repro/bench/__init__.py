"""Benchmark harness: workloads, sweeps, reporting, analytic models."""

from .analytic import CheckpointModel, petaflop_extrapolation
from .dashboard import build_dashboard, write_dashboard
from .executor import (
    TrialSpec,
    checkpoint_spec,
    create_spec,
    workload_spec,
    resolve_jobs,
    run_sweep,
    run_trials,
    sweep_json_path,
)
from .figures import FIG9_CLIENTS, FIG9_SERVERS, fig9_panel, fig10_comparison, fig10_panel
from .harness import (
    IMPLEMENTATIONS,
    PAPER_STATE_BYTES,
    SweepPoint,
    TrialResult,
    measure_create_point,
    measure_point,
    run_checkpoint_trial,
    run_create_trial,
)
from .report import format_rows, format_series_table, results_dir, save_json

__all__ = [
    "IMPLEMENTATIONS",
    "PAPER_STATE_BYTES",
    "TrialResult",
    "SweepPoint",
    "TrialSpec",
    "build_dashboard",
    "write_dashboard",
    "checkpoint_spec",
    "create_spec",
    "workload_spec",
    "resolve_jobs",
    "run_trials",
    "run_sweep",
    "sweep_json_path",
    "run_checkpoint_trial",
    "run_create_trial",
    "measure_point",
    "measure_create_point",
    "fig9_panel",
    "fig10_panel",
    "fig10_comparison",
    "FIG9_CLIENTS",
    "FIG9_SERVERS",
    "CheckpointModel",
    "petaflop_extrapolation",
    "format_series_table",
    "format_rows",
    "save_json",
    "results_dir",
]

"""ASCII charting and the command-line interface."""

import json
import os

import pytest

from repro.bench.harness import SweepPoint
from repro.bench.plot import ascii_chart, chart_sweep
from repro.cli import build_parser, main
from repro.trace import validate_chrome_trace
from repro.workload import TenantClass, WorkloadSpec

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
SMALL_DUMP = ["--clients", "8", "--servers", "4", "--state-mb", "8"]


def _point(clients, servers, mean, unit="MB/s"):
    return SweepPoint(
        impl="lwfs", n_clients=clients, n_servers=servers, mean=mean, stdev=0.0, unit=unit
    )


class TestAsciiChart:
    def test_empty_series(self):
        assert "(no data)" in ascii_chart({}, title="t")

    def test_all_points_plotted(self):
        chart = ascii_chart({"s": [(1, 10.0), (2, 20.0), (3, 15.0)]}, title="demo")
        body = "\n".join(chart.splitlines()[1:-2])  # strip title + legend
        assert body.count("o") == 3
        assert "demo" in chart

    def test_series_get_distinct_glyphs(self):
        chart = ascii_chart({"a": [(1, 1.0)], "b": [(2, 2.0)]})
        assert "o=a" in chart and "x=b" in chart

    def test_log_scale_marks_legend(self):
        chart = ascii_chart({"a": [(1, 10.0), (64, 10000.0)]}, log_y=True)
        assert "[log y" in chart

    def test_single_point_does_not_divide_by_zero(self):
        chart = ascii_chart({"a": [(5, 42.0)]})
        assert "o" in chart

    def test_chart_sweep_groups_by_servers(self):
        points = [
            _point(2, 2, 100),
            _point(4, 2, 150),
            _point(2, 16, 100),
            _point(4, 16, 400),
        ]
        chart = chart_sweep(points, "Fig 9")
        assert "2 servers" in chart and "16 servers" in chart
        assert "clients" in chart


class TestCLI:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("table1", "table2", "checkpoint", "create",
                        "fig9", "fig10", "petaflop", "examples"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Red Storm" in out and "65536" in out

    def test_checkpoint_point(self, capsys):
        assert main(["checkpoint", "--impl", "lwfs", "--clients", "4",
                     "--servers", "2", "--state-mb", "8"]) == 0
        out = capsys.readouterr().out
        assert "MB/s" in out

    @pytest.mark.parametrize("args,expected", [
        (["--impl", "lustre-fpp", "--clients", "64", "--servers", "16",
          "--state-mb", "16", "--collapse"], "representatives, max class"),
        ([*SMALL_DUMP, "--seed", "42", "--faults",
          os.path.join(EXAMPLES, "faults", "storage_crash.json")],
         "faults: 1 injected"),
        ([*SMALL_DUMP, "--tiers",
          os.path.join(EXAMPLES, "tiers", "nvram_node_local.json")],
         "buffer tier: 8 nodes absorbed 64 MB"),
    ], ids=["collapse", "faults", "tiers"])
    def test_checkpoint_flag(self, capsys, args, expected):
        assert main(["checkpoint", *args]) == 0
        assert expected in capsys.readouterr().out

    def test_checkpoint_rejects_nonpositive_metrics_period(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["checkpoint", *SMALL_DUMP, "--metrics", "--metrics-period", "0"])
        assert exc.value.code == 2
        assert "--metrics-period" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, doc, named", [
        (["checkpoint", *SMALL_DUMP], "--faults", {"rpc_drop_rate": "high"},
         "FaultPlan.rpc_drop_rate"),
        (["checkpoint", *SMALL_DUMP], "--faults",
         {"events": [{"kind": "server_crash", "at": 0.05, "target": "stro0"}]},
         "target 'stro0'"),
        (["traffic", "--servers", "2"], "--workload",
         {"classes": [{"name": "c", "tenants": 10, "rate": 5.0}], "horizen": 30},
         "unknown WorkloadSpec fields: ['horizen']"),
    ], ids=["plan-value", "plan-target", "workload-key"])
    def test_bad_spec_exits_2_naming_it(self, capsys, tmp_path, command, flag, doc, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, str(path)])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    def test_checkpoint_flow_fast_forwards_under_faults(self, capsys, monkeypatch):
        # A fault plan runs the same flow engine as a clean trial: the
        # dump (above 2 x chunk_bytes, so clients open flows) retires
        # flow steps in closed form.
        import repro.cli as cli

        results = []
        run = cli.run_checkpoint_trial

        def spy(*args, **kwargs):
            results.append(run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_checkpoint_trial", spy)
        plan = os.path.join(EXAMPLES, "faults", "storage_crash.json")
        assert main(["checkpoint", "--flow", "--faults", plan, "--clients", "8",
                     "--servers", "4", "--state-mb", "32", "--seed", "42"]) == 0
        assert "faults: 1 injected" in capsys.readouterr().out
        assert results[0].events_fast_forwarded >= 1

    def test_traffic_workload_file(self, capsys, tmp_path):
        spec = WorkloadSpec(
            classes=(TenantClass(name="meta", tenants=40, rate=50.0,
                                 op_mix=(("getattr", 1.0),),
                                 representatives=4),),
            horizon=1.0, quantum=0.05, warmup=0.1,
        )
        path = str(tmp_path / "mix.json")
        spec.save(path)
        assert main(["traffic", "--workload", path, "--servers", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("40 tenants over 2 servers")
        assert "meta" in out

    def test_trace_out_is_valid_chrome_json(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", *SMALL_DUMP, "--out", str(path),
                     "--timeline-lines", "0"]) == 0
        assert str(path) in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_create_point(self, capsys):
        assert main(["create", "--clients", "4", "--servers", "2",
                     "--per-client", "8"]) == 0
        assert "creates/s" in capsys.readouterr().out

    def test_fig9_small(self, capsys):
        assert main(["fig9", "--clients", "2", "4", "--servers", "2",
                     "--state-mb", "8", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "clients" in out

    def test_petaflop(self, capsys):
        assert main(["petaflop"]) == 0
        out = capsys.readouterr().out
        assert "pfs_create_fraction" in out

    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "quickstart.py" in out


    def test_figures_command(self, capsys, tmp_path):
        out_file = tmp_path / "charts.txt"
        code = main(["figures", "--out", str(out_file)])
        captured = capsys.readouterr().out
        if code == 0:
            assert "Fig 9" in captured
            assert out_file.exists()
        else:
            assert "no sweep results" in captured

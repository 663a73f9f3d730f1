"""Experiment harness and CLI: file layout, aggregation, plot data, exit codes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from cellless.cli import main
from cellless.harness import (PLOT_KINDS, ExperimentSpec, emit_plot_data,
                              load_run_metrics, plot_data_from_dir,
                              run_experiment)
from cellless.scenario import builtin_scenario, save_scenario, scenario_to_dict
from cellless.solution import load_solution, validate

FAST = dict(n_realizations=4)


def tiny_spec(tmp_path, **kwargs):
    from cellless.solver_ctm import CtmConfig
    from cellless.solver_maxrate import AnnealConfig
    base = dict(
        scenario="inf-dh-desk", solver="ctm", seeds=(1,),
        n_realizations=4, out_dir=str(tmp_path / "out"),
        ctm=CtmConfig(delta_db=4.0, refinement_rounds=0, kmeans_restarts=2),
        anneal=AnnealConfig(iterations=2, moves_per_temp=3),
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    spec = tiny_spec(tmp, solver="both", seeds=(1, 2))
    records = run_experiment(spec)
    return spec, records


def test_records_one_per_seed_solver(run_out):
    spec, records = run_out
    assert [(r.seed, r.solver) for r in records] == \
        [(1, "ctm"), (1, "maxrate"), (2, "ctm"), (2, "maxrate")]
    for r in records:
        assert r.error is None and r.bundle is not None
        assert r.wall_time > 0.0


def test_output_layout_and_reparse(run_out):
    spec, records = run_out
    out = Path(spec.out_dir)
    assert (out / "aggregate.csv").exists()
    for r in records:
        run_dir = out / r.scenario_name / str(r.seed) / r.solver
        for fname in ("solution.json", "metrics.csv", "summary.json"):
            assert (run_dir / fname).exists()
        summary, rows = load_run_metrics(run_dir)
        assert summary["seed"] == r.seed and summary["solver"] == r.solver
        assert summary["total_power_w"] == pytest.approx(r.bundle.total_power)
        assert len(rows) == 20 + 40  # users + humans
        # The saved solution re-validates against a fresh scenario instance.
        scenario = builtin_scenario(r.scenario_name, r.seed)
        sol = load_solution(run_dir / "solution.json")
        assert validate(sol, scenario) == []


def test_aggregate_matches_recomputation(run_out):
    spec, records = run_out
    with open(Path(spec.out_dir) / "aggregate.csv", newline="") as f:
        rows = {row["solver"]: row for row in csv.DictReader(f)}
    for solver in ("ctm", "maxrate"):
        ok = [r for r in records if r.solver == solver]
        powers = [r.bundle.total_power for r in ok]
        assert abs(float(rows[solver]["total_power_w_median"])
                   - float(np.median(powers))) <= 1e-12
        assert int(rows[solver]["n_runs"]) == 2


def test_paired_runs_share_the_scenario(run_out):
    """Same seed: both solvers face identical users and channel draws."""
    spec, records = run_out
    by = {(r.seed, r.solver): r for r in records}
    for seed in (1, 2):
        a = by[(seed, "ctm")].bundle
        b = by[(seed, "maxrate")].bundle
        assert set(a.per_user_rate) == set(b.per_user_rate)


def test_worker_invariance(tmp_path):
    outs = []
    for i, workers in enumerate((1, 2)):
        spec = tiny_spec(tmp_path / f"w{i}", seeds=(1, 2), workers=workers)
        run_experiment(spec)
        outs.append(Path(spec.out_dir))
    a = (outs[0] / "aggregate.csv").read_bytes()
    b = (outs[1] / "aggregate.csv").read_bytes()
    assert a == b
    for rel in sorted(p.relative_to(outs[0])
                      for p in outs[0].rglob("solution.json")):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_emit_plot_data_kinds(run_out, tmp_path):
    spec, records = run_out
    # power-bars: one row per PoA plus a total row, per record.
    path = tmp_path / "p.csv"
    emit_plot_data(records, "power-bars", path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(records) * (8 + 1)
    totals = [r for r in rows if r["poa_id"] == "total"]
    assert len(totals) == len(records)

    # rate-cdf: non-decreasing cdf within (0, 1].
    path = tmp_path / "r.csv"
    emit_plot_data(records, "rate-cdf", path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for solver in ("ctm", "maxrate"):
        cdf = [float(r["cdf"]) for r in rows if r["solver"] == solver]
        assert cdf == sorted(cdf)
        assert 0.0 < cdf[0] and cdf[-1] == 1.0

    # sar-map: one row per human per record.
    path = tmp_path / "s.csv"
    emit_plot_data(records, "sar-map", path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(records) * 40
    assert {"solver", "seed", "human_id", "x_m", "y_m", "phantom", "sar_wkg"} \
        == set(rows[0])

    with pytest.raises(ValueError):
        emit_plot_data(records, "pie-chart", tmp_path / "x.csv")


def _plot_bytes(plot, source, tmp_path, tag):
    out = {}
    for kind in PLOT_KINDS:
        path = tmp_path / f"{tag}-{kind}.csv"
        plot(source, kind, path)
        out[kind] = path.read_bytes()
    return out


def test_plot_from_records_equals_plot_from_dir(tmp_path):
    """Both plot paths write the same bytes, in numeric seed order, with
    map positions taken from the file world that was solved."""
    scenario = builtin_scenario("inf-dh-desk", 1)
    world = tmp_path / "desk.json"
    save_scenario(scenario, world)
    spec = tiny_spec(tmp_path, scenario=str(world), solver="both", seeds=(2, 10))
    records = run_experiment(spec)
    assert all(r.bundle is not None for r in records)
    from_records = _plot_bytes(emit_plot_data, records, tmp_path, "records")
    from_dir = _plot_bytes(plot_data_from_dir, spec.out_dir, tmp_path, "dir")
    assert from_records == from_dir

    rows = list(csv.DictReader(from_dir["rate-map"].decode().splitlines()))
    assert [int(r["seed"]) for r in rows] == sorted(int(r["seed"]) for r in rows)
    assert {r["seed"] for r in rows} == {"2", "10"}
    where = {u.id: (u.position.x, u.position.y) for u in scenario.users}
    for r in rows:
        assert (float(r["x_m"]), float(r["y_m"])) == where[r["user_id"]]


def test_renamed_file_world_plots(tmp_path):
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 1))
    d["name"] = "my-hall"
    world = tmp_path / "hall.json"
    world.write_text(json.dumps(d))
    spec = tiny_spec(tmp_path, scenario=str(world), seeds=(1,))
    records = run_experiment(spec)
    assert records[0].scenario_name == "my-hall"
    assert _plot_bytes(emit_plot_data, records, tmp_path, "records") \
        == _plot_bytes(plot_data_from_dir, spec.out_dir, tmp_path, "dir")


def test_solver_failure_recorded_not_raised(tmp_path):
    """An infeasible scenario yields an error record, not an exception."""
    scenario = builtin_scenario("inf-dh-desk", 1)
    d = scenario_to_dict(scenario)
    for u in d["users"]:
        u["required_rate_bps"] = 1e13
    path = tmp_path / "impossible.json"
    with open(path, "w") as f:
        json.dump(d, f)
    spec = tiny_spec(tmp_path, scenario=str(path), seeds=(1,))
    records = run_experiment(spec)
    assert len(records) == 1
    assert records[0].error is not None and records[0].bundle is None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summary_is_strict_json_without_users(tmp_path):
    """A world with no users has no minimum rate; summary.json writes null
    for it, not the non-standard Infinity."""
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 1))
    d["users"] = []
    for h in d["humans"]:
        h["linked_user"] = None
    world = tmp_path / "empty-hall.json"
    world.write_text(json.dumps(d))
    spec = tiny_spec(tmp_path, scenario=str(world), seeds=(1,))
    (record,) = run_experiment(spec)
    assert record.error is None and record.bundle.min_rate == float("inf")
    text = (Path(spec.out_dir) / record.scenario_name / "1" / "ctm" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert summary["min_rate_bps"] is None
    assert summary["max_sar_wkg"] == record.bundle.max_sar
    # No run has users, so the aggregate leaves the min-rate cells empty.
    aggregate = (Path(spec.out_dir) / "aggregate.csv").read_text()
    assert "nan" not in aggregate.lower()
    (row,) = csv.DictReader(aggregate.splitlines())
    assert [row[f"min_rate_bps_{s}"] for s in ("median", "p10", "p90")] == ["", "", ""]


def _fail_on_seed_two(monkeypatch):
    """Make harness's CtM solver raise a non-infeasibility error on seed 2."""
    import cellless.harness as harness
    solve = harness.solve_ctm

    def flaky(scenario, config):
        if config.seed == 2:
            raise ZeroDivisionError("injected")
        return solve(scenario, config)

    monkeypatch.setattr(harness, "solve_ctm", flaky)


def test_other_solver_errors_recorded_not_raised(monkeypatch, tmp_path):
    """Any exception in one run is recorded on it; the other runs finish."""
    _fail_on_seed_two(monkeypatch)
    records = run_experiment(tiny_spec(tmp_path, seeds=(1, 2)))
    assert [(r.seed, r.error) for r in records] == [(1, None), (2, "ZeroDivisionError: injected")]
    assert records[0].bundle is not None and records[1].bundle is None
    assert (Path(tmp_path) / "out" / "aggregate.csv").exists()


def test_cli_other_error_exit_code(monkeypatch, tmp_path, capsys):
    _fail_on_seed_two(monkeypatch)
    rc = main(["run", "--scenario", "inf-dh-desk", "--solver", "ctm", "--seeds", "1,2",
               "--realizations", "4", "--delta-db", "4.0", "--refine", "0",
               "--kmeans-restarts", "2"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "seed 2 ctm: FAILED (ZeroDivisionError: injected)" in out
    assert "seed 1 ctm: total power" in out


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        tiny_spec(tmp_path, seeds=())
    with pytest.raises(ValueError):
        tiny_spec(tmp_path, solver="gradient-descent")


# -- CLI ------------------------------------------------------------------------

def test_cli_validate_ok_and_bad(tmp_path, capsys):
    scenario = builtin_scenario("inf-dh-desk", 0)
    good = tmp_path / "good.json"
    save_scenario(scenario, good)
    assert main(["validate", "--scenario", str(good)]) == 0
    assert "ok:" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 42}))
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert main(["validate", "--scenario", str(tmp_path / "none.json")]) == 2


def test_cli_run_and_plot(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "inf-dh-desk", "--solver", "ctm",
               "--seeds", "1", "--realizations", "4", "--delta-db", "4.0",
               "--refine", "0", "--kmeans-restarts", "2",
               "--out", str(out)])
    assert rc == 0
    assert (out / "aggregate.csv").exists()
    plot = tmp_path / "bars.csv"
    rc = main(["plot", "--kind", "power-bars", "--in", str(out),
               "--out", str(plot)])
    assert rc == 0 and plot.exists()
    rc = main(["plot", "--kind", "rate-cdf", "--in", str(tmp_path / "empty"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_cli_infeasible_exit_code(tmp_path):
    scenario = builtin_scenario("inf-dh-desk", 1)
    d = scenario_to_dict(scenario)
    for u in d["users"]:
        u["required_rate_bps"] = 1e13
    path = tmp_path / "impossible.json"
    with open(path, "w") as f:
        json.dump(d, f)
    rc = main(["run", "--scenario", str(path), "--solver", "ctm",
               "--seeds", "1", "--realizations", "2"])
    assert rc == 3


def test_cli_seed_parsing():
    from cellless.cli import _parse_seeds
    assert _parse_seeds("1..4") == (1, 2, 3, 4)
    assert _parse_seeds("0,5,9") == (0, 5, 9)

"""Experiment harness and CLI: file layout, aggregation, plot data, exit codes."""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cellless
from cellless.cli import main
from cellless.harness import (METRIC_COLUMNS, PLOT_COLUMNS, PLOT_KINDS, ExperimentSpec,
                              _median, _metric_rows, _percentile, _plot_rows, _summary,
                              load_run_metrics, plot_data_from_dir, run_experiment)
from cellless.radio_metrics import Evaluator
from cellless.scenario import builtin_scenario, save_scenario, scenario_to_dict
from cellless.solution import solution_to_dict, validate

from conftest import make_tiny_scenario, too_close_world

FAST = dict(n_realizations=4)


def tiny_spec(tmp_path, **kwargs):
    from cellless.solver_maxrate import AnnealConfig
    base = dict(
        scenario="inf-dh-desk", solver="ctm", seeds=(1,),
        n_realizations=4, out_dir=str(tmp_path / "out"),
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
        # The saved solution is the record of the run's solution, which
        # validates against a fresh scenario instance.
        with open(run_dir / "solution.json", encoding="utf-8") as f:
            assert json.load(f) == solution_to_dict(r.solution)
        assert validate(r.solution, builtin_scenario(r.scenario_name, r.seed)) == []


def test_summary_names_the_package_version(run_out):
    """Every summary.json records the version of the numbers that made it,
    the one pyproject.toml reads from ``cellless.__version__``."""
    spec, records = run_out
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^dynamic = \["version"\]$', pyproject, re.M)
    assert re.search(r'^version = \{attr = "cellless\.__version__"\}$', pyproject, re.M)
    for r in records:
        summary, _ = load_run_metrics(Path(spec.out_dir) / r.scenario_name / str(r.seed) / r.solver)
        assert summary["cellless_version"] == cellless.__version__


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


@settings(deadline=None, max_examples=300)
@given(values=st.lists(st.floats(), min_size=1, max_size=20))
def test_aggregate_statistics_equal_numpy(values):
    """aggregate.csv's median and 10th/90th percentiles are numpy's, value
    for value: NaN where numpy gives NaN. Only the sign of a zero may
    differ, since numpy's partition does not keep equal values in order."""
    with np.errstate(all="ignore"):
        want = (np.median(values), np.percentile(values, 10), np.percentile(values, 90))
    got = (_median(values), _percentile(values, 10), _percentile(values, 90))
    for g, w in zip(got, want):
        assert (math.isnan(g) and math.isnan(w)) or g == w, (g, w)


def test_paired_runs_share_the_scenario(run_out):
    """Same seed: both solvers face identical users and channel draws."""
    spec, records = run_out
    by = {(r.seed, r.solver): r for r in records}
    for seed in (1, 2):
        a = by[(seed, "ctm")].bundle
        b = by[(seed, "maxrate")].bundle
        assert set(a.per_user_rate) == set(b.per_user_rate)


def test_plot_data_kinds(run_out, tmp_path):
    spec, records = run_out
    # power-bars: one row per PoA plus a total row, per record.
    path = tmp_path / "p.csv"
    plot_data_from_dir(spec.out_dir, "power-bars", path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(records) * (8 + 1)
    totals = [r for r in rows if r["poa_id"] == "total"]
    assert len(totals) == len(records)

    # rate-cdf: non-decreasing cdf within (0, 1].
    path = tmp_path / "r.csv"
    plot_data_from_dir(spec.out_dir, "rate-cdf", path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for solver in ("ctm", "maxrate"):
        cdf = [float(r["cdf"]) for r in rows if r["solver"] == solver]
        assert cdf == sorted(cdf)
        assert 0.0 < cdf[0] and cdf[-1] == 1.0

    # sar-map: one row per human per record.
    path = tmp_path / "s.csv"
    plot_data_from_dir(spec.out_dir, "sar-map", path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(records) * 40
    assert {"solver", "seed", "human_id", "x_m", "y_m", "phantom", "sar_wkg"} \
        == set(rows[0])

    with pytest.raises(ValueError):
        plot_data_from_dir(spec.out_dir, "pie-chart", tmp_path / "x.csv")

    # No run directory (failed runs write none): nothing to plot, and no file is written.
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="^no run directories found under "):
        plot_data_from_dir(empty, "power-bars", tmp_path / "failed.csv")
    assert not (tmp_path / "failed.csv").exists()


def _plot_bytes(out_dir, tmp_path, tag):
    """Each plot kind's bytes, as ``plot_data_from_dir`` writes them."""
    out = {}
    for kind in PLOT_KINDS:
        path = tmp_path / f"{tag}-{kind}.csv"
        plot_data_from_dir(out_dir, kind, path)
        out[kind] = path.read_bytes()
    return out


def _record_plot_bytes(records, tmp_path):
    """Each plot kind's bytes, built from the runs' records in memory as
    the run files hold them."""
    runs = [(_summary(r), _metric_rows(r.scenario, r.bundle)) for r in records]
    out = {}
    for kind in PLOT_KINDS:
        path = tmp_path / f"records-{kind}.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows([PLOT_COLUMNS[kind], *_plot_rows(kind, runs)])
        out[kind] = path.read_bytes()
    return out


def test_plot_from_dir_equals_plot_of_records(tmp_path):
    """The plots of a run directory are those of its runs' records, in
    numeric seed order, with map positions taken from the file world that
    was solved."""
    scenario = builtin_scenario("inf-dh-desk", 1)
    world = tmp_path / "desk.json"
    save_scenario(scenario, world)
    spec = tiny_spec(tmp_path, scenario=str(world), solver="both", seeds=(2, 10))
    records = run_experiment(spec)
    assert all(r.bundle is not None for r in records)
    from_records = _record_plot_bytes(records, tmp_path)
    from_dir = _plot_bytes(spec.out_dir, tmp_path, "dir")
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
    assert _record_plot_bytes(records, tmp_path) == _plot_bytes(spec.out_dir, tmp_path, "dir")


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


def test_failed_runs_record_their_wall_time(monkeypatch, tmp_path):
    """An infeasible run and a run that raises keep the time they took."""
    world = tmp_path / "tiny.json"
    save_scenario(make_tiny_scenario(required_rate=1e12), str(world))
    [infeasible] = run_experiment(tiny_spec(tmp_path, scenario=str(world), out_dir=None))
    assert infeasible.error.startswith("no feasible solution") and infeasible.wall_time > 0.0
    _fail_on_seed_two(monkeypatch)
    _, raised = run_experiment(tiny_spec(tmp_path, seeds=(1, 2), out_dir=None))
    assert raised.error == "ZeroDivisionError: injected" and raised.wall_time > 0.0


def test_a_world_with_a_user_too_close_to_a_poa_is_solved_legally(tmp_path):
    """A file world with a user 1 m from a PoA, under its 10 m minimum
    serving distance: CtM serves the user from another PoA, and the run
    records a feasible solution that ``validate`` accepts."""
    world = tmp_path / "close.json"
    save_scenario(too_close_world(0), str(world))
    [record] = run_experiment(tiny_spec(tmp_path, scenario=str(world), seeds=(0,), out_dir=None))
    assert record.error is None and record.bundle.feasible
    assert validate(record.solution, record.scenario) == []


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


def test_dump_links_writes_each_run_as_strict_json(tmp_path):
    """With dump_links, every run writes a strict-JSON links.json equal to a
    fresh Evaluator's dump of the run's solution."""
    spec = tiny_spec(tmp_path, solver="both", seeds=(1,), dump_links=True)
    records = run_experiment(spec)
    assert [r.solver for r in records] == ["ctm", "maxrate"]
    for r in records:
        assert r.error is None
        text = (Path(spec.out_dir) / r.scenario_name / "1" / r.solver / "links.json").read_text()
        links = json.loads(text, parse_constant=_reject_constant)
        assert links == Evaluator(r.scenario, r.seed, spec.n_realizations).dump_links(r.solution)


def _count_evaluators(monkeypatch):
    """The Evaluators built from now on, in this process."""
    made, init = [], Evaluator.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Evaluator, "__init__", counted)
    return made


@pytest.mark.parametrize("solver", ["ctm", "maxrate"])
def test_a_run_that_dumps_links_makes_one_evaluator(tmp_path, monkeypatch, solver):
    """A run's dump reads the Evaluator it was solved on: one per seed for
    either solver, where the dump used to build a second one and draw every
    link again. A both-run is counted in
    ``test_a_both_run_writes_what_separate_solver_runs_write``."""
    made = _count_evaluators(monkeypatch)
    spec = tiny_spec(tmp_path, solver=solver, seeds=(1, 2), dump_links=True)
    records = run_experiment(spec)
    assert all(r.error is None for r in records) and len(made) == 2
    assert [(ev.scenario.name, ev.seed) for ev in made] == [("inf-dh-desk", 1), ("inf-dh-desk", 2)]
    for r in records:
        run_dir = Path(spec.out_dir) / r.scenario_name / str(r.seed) / r.solver
        assert (run_dir / "links.json").exists()


def _run_files(out_dir):
    """Every file of every run under ``out_dir`` by relative path, with
    summary.json parsed and its ``wall_time_s`` left out."""
    files = {}
    for path in Path(out_dir).rglob("*"):
        if path.is_file() and path.name != "aggregate.csv":
            if path.name == "summary.json":
                summary = json.loads(path.read_text())
                summary.pop("wall_time_s")
                files[path.relative_to(out_dir)] = summary
            else:
                files[path.relative_to(out_dir)] = path.read_bytes()
    return files


def test_a_both_run_writes_what_separate_solver_runs_write(tmp_path, monkeypatch):
    """Sharing one Evaluator between a seed's CtM and MaxRate changes no
    file: a both-run, with one worker or two, writes what a CtM run and a
    MaxRate run write, links.json included, and builds one Evaluator per
    seed where the separate runs build one per run. The worker count
    changes no byte of aggregate.csv either."""
    made = _count_evaluators(monkeypatch)
    single, aggregates = {}, set()
    for solver in ("ctm", "maxrate"):
        spec = tiny_spec(tmp_path / solver, solver=solver, seeds=(1, 2), dump_links=True)
        run_experiment(spec)
        single.update(_run_files(spec.out_dir))
    assert len(single) == 16 and len(made) == 4
    for workers in (1, 2):
        del made[:]
        spec = tiny_spec(tmp_path / f"both-{workers}", solver="both", seeds=(1, 2),
                         dump_links=True, workers=workers)
        records = run_experiment(spec)
        assert [(r.seed, r.solver, r.error) for r in records] == \
            [(1, "ctm", None), (1, "maxrate", None), (2, "ctm", None), (2, "maxrate", None)]
        assert _run_files(spec.out_dir) == single
        aggregates.add((Path(spec.out_dir) / "aggregate.csv").read_bytes())
        if workers == 1:
            assert len(made) == 2
    assert len(aggregates) == 1


def test_dump_links_without_out_dir_is_refused(tmp_path, capsys):
    """There is nowhere to write links.json: the spec refuses it, and the
    CLI exits 2 instead of running and writing nothing."""
    with pytest.raises(ValueError, match="^dump_links needs out_dir$"):
        tiny_spec(tmp_path, out_dir=None, dump_links=True)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "inf-dh-desk", "--solver", "ctm", "--seeds", "1",
              "--realizations", "2", "--dump-links"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "dump_links needs out_dir" in err and "Traceback" not in err


def _fail_on_seed_two(monkeypatch):
    """Make harness's CtM solver raise a non-infeasibility error on seed 2."""
    import cellless.harness as harness
    solve = harness.solve_ctm

    def flaky(evaluator, *args, **kwargs):
        if evaluator.seed == 2:
            raise ZeroDivisionError("injected")
        return solve(evaluator, *args, **kwargs)

    monkeypatch.setattr(harness, "solve_ctm", flaky)


def _fail_evaluator_on_seed_two(monkeypatch):
    """Make harness's Evaluator construction raise on seed 2."""
    import cellless.harness as harness

    def flaky(scenario, seed, *args, **kwargs):
        if seed == 2:
            raise ZeroDivisionError("injected")
        return Evaluator(scenario, seed, *args, **kwargs)

    monkeypatch.setattr(harness, "Evaluator", flaky)


@pytest.mark.parametrize("fail, failed", [
    ("ctm", [(2, "ctm")]), ("evaluator", [(2, "ctm"), (2, "maxrate")])],
    ids=["ctm", "evaluator"])
def test_a_failure_stays_on_its_run(monkeypatch, tmp_path, fail, failed):
    """Any exception in one run is recorded on it, not raised. CtM raising
    on seed 2 fails that run alone: seed 2's MaxRate, on the same
    Evaluator, and seed 1 finish. An Evaluator that cannot be built
    for seed 2 fails both of seed 2's runs, and seed 1 finishes. Each failed
    run records the error and the time it took."""
    if fail == "ctm":
        _fail_on_seed_two(monkeypatch)
    else:
        _fail_evaluator_on_seed_two(monkeypatch)
    spec = tiny_spec(tmp_path, solver="both", seeds=(1, 2))
    records = run_experiment(spec)
    assert [(r.seed, r.solver) for r in records] == \
        [(1, "ctm"), (1, "maxrate"), (2, "ctm"), (2, "maxrate")]
    for r in records:
        if (r.seed, r.solver) in failed:
            assert r.error == "ZeroDivisionError: injected" and r.bundle is None
            assert r.wall_time > 0.0
            assert not (Path(spec.out_dir) / r.scenario_name / "2" / r.solver).exists()
        else:
            assert r.error is None and r.bundle is not None
            assert (Path(spec.out_dir) / r.scenario_name / str(r.seed) / r.solver
                    / "summary.json").exists()
    assert (Path(spec.out_dir) / "aggregate.csv").exists()


def test_cli_other_error_exit_code(monkeypatch, tmp_path, capsys):
    _fail_on_seed_two(monkeypatch)
    rc = main(["run", "--scenario", "inf-dh-desk", "--solver", "ctm", "--seeds", "1,2",
               "--realizations", "4"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "seed 2 ctm: FAILED (ZeroDivisionError: injected)" in out
    assert "seed 1 ctm: total power" in out


@pytest.mark.parametrize("args", [
    ["--seeds=-1"], ["--seeds", "3..1"], ["--seeds", "1,1"], ["--seeds", "0..2,2"],
    ["--realizations", "0"], ["--workers", "0"], ["--workers", "-2"],
    ["--sa-cooling", "1.5"], ["--sa-iterations", "0"], ["--sa-moves", "0"], ["--sa-temp", "0"],
    ["--sa-temp", "inf"],
], ids=["seed-negative", "seed-range-empty", "seed-repeated", "seed-not-integer",
        "realizations-zero", "workers-zero", "workers-negative",
        "sa-cooling-above-one", "sa-iterations-zero", "sa-moves-zero", "sa-temp-zero",
        "sa-temp-inf"])
def test_cli_bad_seeds_and_run_sizes_exit_2(args, tmp_path, capsys):
    """Rejected while parsing, before any run starts or any file is written."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "inf-dh-desk", "--out", str(tmp_path / "out"), *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: cellless run" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["--delta-db", "4.0"], ["--refine", "0"],
                                  ["--kmeans-restarts", "2"]],
                         ids=["delta-db", "refine", "kmeans-restarts"])
def test_cli_run_refuses_the_removed_solver_flags(args, tmp_path, capsys):
    """The power step's tolerance and the k-means restart count are fixed:
    their old flags are unknown arguments, refused before any run starts
    or any file is written."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "inf-dh-desk", "--out", str(tmp_path / "out"), *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(args)}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_cli_out_at_a_regular_file_exits_2_before_any_run(under, tmp_path, capsys, monkeypatch):
    """An ``--out`` that is, or lies under, a regular file exits 2 naming
    the path, before any run is solved."""
    import cellless.harness as harness

    runs = []
    monkeypatch.setattr(harness, "_run_seed", lambda *args: runs.append(args))
    (tmp_path / "taken").write_text("")
    out = str(tmp_path / "taken" / "out" if under else tmp_path / "taken")
    assert main(["run", "--scenario", "inf-dh-desk", "--solver", "ctm", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"cannot write --out {out!r}: " in err and "Traceback" not in err
    assert runs == []


@pytest.mark.parametrize("kwargs", [
    dict(seeds=(-1,)), dict(seeds=()), dict(seeds=(1, 1)), dict(seeds=(0, 2, 0)),
    dict(n_realizations=0), dict(workers=0),
], ids=["seed-negative", "seeds-empty", "seed-repeated", "seed-repeated-apart",
        "realizations-zero", "workers-zero"])
def test_spec_rejects_bad_seeds_and_run_sizes(tmp_path, kwargs):
    with pytest.raises(ValueError):
        tiny_spec(tmp_path, **kwargs)


@pytest.mark.parametrize("kwargs, name", [
    (dict(seeds=(True,)), "seeds"), (dict(seeds=(1.5,)), "seeds"), (dict(seeds=("1",)), "seeds"),
    (dict(seeds=(1, np.float64(2.5))), "seeds"), (dict(n_realizations=2.5), "n_realizations"),
    (dict(n_realizations=True), "n_realizations"), (dict(workers=1.5), "workers"),
    (dict(workers="2"), "workers"),
], ids=["seed-boolean", "seed-fraction", "seed-string", "seed-numpy-fraction",
        "realizations-fraction", "realizations-boolean", "workers-fraction", "workers-string"])
def test_spec_refuses_non_integers_naming_the_field(tmp_path, kwargs, name):
    """Refused at construction, not recorded as a failure of every run."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        tiny_spec(tmp_path, **kwargs)


def test_spec_keeps_numpy_integer_seeds_as_ints(tmp_path):
    """A numpy integer or integral float seed, realization count or worker
    count is a plain int from construction on, so its run writes a
    summary.json that plotting reads back, and a worker count of 2.0 starts
    a process pool instead of raising ``TypeError`` inside it."""
    spec = tiny_spec(tmp_path, seeds=(np.int64(1), np.uint8(2), 3.0), workers=2.0,
                     n_realizations=np.int64(2))
    assert spec.seeds == (1, 2, 3) and {type(seed) for seed in spec.seeds} == {int}
    assert (spec.workers, spec.n_realizations) == (2, 2)
    assert type(spec.workers) is int and type(spec.n_realizations) is int
    record = run_experiment(spec)[0]
    summary, _ = load_run_metrics(Path(spec.out_dir) / record.scenario_name / "1" / "ctm")
    assert record.error is None and summary["seed"] == 1


def test_spec_has_no_ctm_config(tmp_path):
    """CtM takes k-means' seed from each run's Evaluator and has no other
    knob, so a spec takes no CtM config."""
    from cellless.solver_ctm import CtmConfig
    with pytest.raises(TypeError, match="ctm"):
        tiny_spec(tmp_path, ctm=CtmConfig())


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        tiny_spec(tmp_path, seeds=())
    with pytest.raises(ValueError):
        tiny_spec(tmp_path, solver="gradient-descent")


# -- CLI ------------------------------------------------------------------------

def _fresh_python(code, *args):
    """``python -c code args`` in a new interpreter that imports the
    package from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy():
    """Importing the CLI loads no scipy, and no process pool
    (``concurrent.futures.process``, which loads multiprocessing): only a
    run with several workers uses one."""
    proc = _fresh_python(
        "import sys, cellless.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "print('concurrent.futures.process' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "False"]


def test_cli_ctm_run_with_scipy_blocked(tmp_path):
    proc = _fresh_python(
        "import sys; sys.modules['scipy'] = None; "
        "from cellless.cli import main; sys.exit(main(sys.argv[1:]))",
        "run", "--scenario", "inf-dh-desk", "--solver", "ctm", "--seeds", "1",
        "--realizations", "2", "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "seed 1 ctm: total power" in proc.stdout


def test_ctm_run_with_out_dir_imports_no_numpy_ma(tmp_path):
    """Writing aggregate.csv does not pull in ``numpy.ma``, as numpy's
    median and percentile do on their first call."""
    proc = _fresh_python(
        "import sys; from cellless.harness import ExperimentSpec, run_experiment; "
        "run_experiment(ExperimentSpec('inf-dh-desk', solver='ctm', seeds=(1,), "
        "n_realizations=2, out_dir=sys.argv[1])); print('numpy.ma' in sys.modules)",
        str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "aggregate.csv").exists()
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("edit, key", [
    (lambda s: s.pop("seed"), "'seed'"),
    (lambda s: s.pop("per_poa_power_dbm"), "'per_poa_power_dbm'"),
    (lambda s: s.update(seed="1"), "seed"),
    (lambda s: s.update(seed=1.5), "seed"),
    (lambda s: s.update(seed=True), "seed"),
    (lambda s: s.update(per_poa_power_dbm=["poa1"]), "per_poa_power_dbm"),
    (lambda s: s.update(per_poa_power_dbm={"poa1": "30"}), "per_poa_power_dbm"),
    (lambda s: s.update(per_poa_power_dbm={"poa1": math.nan}), "per_poa_power_dbm"),
    (lambda s: s.update(per_poa_power_dbm={"poa1": True}), "per_poa_power_dbm"),
    (lambda s: s.update(total_power_w="1.5"), "total_power_w"),
    (lambda s: s.update(total_power_w=math.inf), "total_power_w"),
    (lambda s: s.update(total_power_w=None), "total_power_w"),
    (lambda s: s.update(solver=5), "solver"),
    (lambda s: s.update(scenario=None), "scenario"),
], ids=["seed-missing", "powers-missing", "seed-string", "seed-fraction", "seed-boolean",
        "powers-list", "power-string", "power-nan", "power-boolean", "total-string",
        "total-infinite", "total-null", "solver-number", "scenario-null"])
def test_cli_plot_on_a_broken_summary_exits_2(run_out, tmp_path, capsys, edit, key):
    spec, _ = run_out
    out = shutil.copytree(spec.out_dir, tmp_path / "out")
    broken = out / "inf-dh-desk" / "2" / "maxrate" / "summary.json"
    summary = json.loads(broken.read_text())
    edit(summary)
    broken.write_text(json.dumps(summary))
    assert main(["plot", "--kind", "power-bars", "--in", str(out),
                 "--out", str(tmp_path / "bars.csv")]) == 2
    err = capsys.readouterr().err
    assert str(broken) in err and key in err and "Traceback" not in err


def test_cli_plot_reads_summary_values_as_written(run_out, tmp_path):
    """A summary ``seed`` of 2.0 passes the one integer rule, as a scenario
    file's ``panel_rows: 16.0`` does, and plotting checks the values it
    reads without rewriting them: the seed and a ``total_power_w`` of 0
    come out as written."""
    spec, _ = run_out
    out = shutil.copytree(spec.out_dir, tmp_path / "out")
    edited = out / "inf-dh-desk" / "2" / "maxrate" / "summary.json"
    edited.write_text(json.dumps({**json.loads(edited.read_text()), "seed": 2.0,
                                  "total_power_w": 0}))
    assert main(["plot", "--kind", "power-bars", "--in", str(out),
                 "--out", str(tmp_path / "bars.csv")]) == 0
    with open(tmp_path / "bars.csv", newline="") as f:
        totals = [(r["solver"], r["seed"], r["power_w"]) for r in csv.DictReader(f)
                  if r["poa_id"] == "total"]
    assert [seed for _, seed, _ in totals] == ["1", "1", "2", "2.0"]
    assert totals[-1] == ("maxrate", "2.0", "0")


@pytest.mark.parametrize("name, word", [("summary.json", b'"seed"'), ("metrics.csv", b"user")])
def test_cli_plot_on_a_file_that_is_not_utf8_names_it(run_out, tmp_path, capsys, name, word):
    spec, _ = run_out
    out = shutil.copytree(spec.out_dir, tmp_path / "out")
    broken = out / "inf-dh-desk" / "1" / "ctm" / name
    broken.write_bytes(broken.read_bytes().replace(word, word[:2] + b"\xff" + word[3:], 1))
    assert main(["plot", "--kind", "power-bars", "--in", str(out),
                 "--out", str(tmp_path / "bars.csv")]) == 2
    err = capsys.readouterr().err
    assert str(broken) in err and "not UTF-8" in err and "Traceback" not in err


def test_cli_plot_on_a_summary_that_is_not_json_exits_2(run_out, tmp_path, capsys):
    spec, _ = run_out
    out = shutil.copytree(spec.out_dir, tmp_path / "out")
    broken = out / "inf-dh-desk" / "1" / "ctm" / "summary.json"
    broken.write_text(broken.read_text().replace('"seed"', "seed", 1))
    assert main(["plot", "--kind", "power-bars", "--in", str(out),
                 "--out", str(tmp_path / "bars.csv")]) == 2
    err = capsys.readouterr().err
    assert str(broken) in err and "not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "5", "null", "[]", '"scenario seed solver per_poa_power_dbm total_power_w"'])
def test_cli_plot_on_a_summary_that_is_not_an_object_exits_2(run_out, tmp_path, capsys, text):
    """Valid JSON that is not an object: a number, null, a list, or a
    string that holds every summary key as a substring."""
    spec, _ = run_out
    out = shutil.copytree(spec.out_dir, tmp_path / "out")
    broken = out / "inf-dh-desk" / "1" / "ctm" / "summary.json"
    broken.write_text(text)
    assert main(["plot", "--kind", "power-bars", "--in", str(out),
                 "--out", str(tmp_path / "bars.csv")]) == 2
    err = capsys.readouterr().err
    assert str(broken) in err and "not a JSON object" in err and "Traceback" not in err


def test_cli_plot_on_a_metrics_csv_without_a_column_exits_2(run_out, tmp_path, capsys):
    spec, _ = run_out
    out = shutil.copytree(spec.out_dir, tmp_path / "out")
    broken = out / "inf-dh-desk" / "2" / "ctm" / "metrics.csv"
    with open(broken, newline="") as f:
        rows = list(csv.DictReader(f))
    with open(broken, "w", newline="") as f:
        writer = csv.DictWriter(f, METRIC_COLUMNS[1:], extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    assert main(["plot", "--kind", "rate-cdf", "--in", str(out),
                 "--out", str(tmp_path / "rates.csv")]) == 2
    err = capsys.readouterr().err
    assert str(broken) in err and "'kind'" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["no-metrics-csv", "out-in-missing-dir", "out-is-a-dir"])
def test_cli_plot_on_a_file_error_exits_2(run_out, tmp_path, capsys, case):
    """A run directory without its metrics.csv, an --out inside a missing
    directory and an --out that is a directory exit 2 naming the path,
    instead of a traceback."""
    spec, _ = run_out
    out = shutil.copytree(spec.out_dir, tmp_path / "out")
    dest = named = {"no-metrics-csv": tmp_path / "bars.csv",
                    "out-in-missing-dir": tmp_path / "missing" / "bars.csv",
                    "out-is-a-dir": tmp_path}[case]
    if case == "no-metrics-csv":
        named = out / "inf-dh-desk" / "1" / "ctm" / "metrics.csv"
        named.unlink()
    assert main(["plot", "--kind", "power-bars", "--in", str(out), "--out", str(dest)]) == 2
    err = capsys.readouterr().err
    assert str(named) in err and "Traceback" not in err


def test_run_experiment_starts_at_most_one_worker_per_seed(tmp_path, monkeypatch):
    """Workers take seeds, not runs: two seeds of two solvers each with
    eight workers start a pool of two, and one seed of two solvers with two
    workers starts no pool."""
    import concurrent.futures

    sizes = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    records = run_experiment(tiny_spec(tmp_path, solver="both", seeds=(1, 2), workers=8,
                                       out_dir=None))
    assert sizes == [2]
    assert [(r.seed, r.error) for r in records] == [(1, None), (1, None), (2, None), (2, None)]
    records = run_experiment(tiny_spec(tmp_path, solver="both", seeds=(1,), workers=2,
                                       out_dir=None))
    assert sizes == [2] and [r.error for r in records] == [None, None]


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
               "--seeds", "1", "--realizations", "4",
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


# Every optional run flag, what follows it on the command line, and the
# ``ExperimentSpec`` fields they set (``anneal``: those of ``AnnealConfig``);
# ``--dump-links`` needs ``--out``.
_RUN_FLAGS = {
    "--solver": (["maxrate"], dict(solver="maxrate")),
    "--seeds": (["2..4"], dict(seeds=(2, 3, 4))),
    "--realizations": (["3"], dict(n_realizations=3)),
    "--workers": (["2"], dict(workers=2)),
    "--out": (["runs"], dict(out_dir="runs")),
    "--dump-links": (["--out", "runs"], dict(dump_links=True, out_dir="runs")),
    "--sa-iterations": (["7"], dict(anneal=dict(iterations=7))),
    "--sa-cooling": (["0.5"], dict(anneal=dict(cooling_factor=0.5))),
    "--sa-temp": (["2.5"], dict(anneal=dict(initial_temp=2.5))),
    "--sa-moves": (["4"], dict(anneal=dict(moves_per_temp=4))),
}


def _specs_handed_over(monkeypatch):
    """The specs ``main`` hands ``run_experiment``, which runs nothing."""
    import cellless.cli as cli

    specs = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
    return specs


def test_cli_run_parses_only_the_flags_it_is_given():
    """A run flag that is not given is not in the namespace: its default
    is its field's, not the parser's."""
    from cellless.cli import _build_parser

    parser, run = _build_parser()
    assert vars(parser.parse_args(["run", "--scenario", "X"])) == \
        {"command": "run", "scenario": "X"}
    flags = {f for action in run._actions for f in action.option_strings}
    assert flags == set(_RUN_FLAGS) | {"-h", "--help", "--scenario"}


def test_cli_run_without_flags_hands_over_the_spec_defaults(monkeypatch):
    specs = _specs_handed_over(monkeypatch)
    assert main(["run", "--scenario", "inf-dh-desk"]) == 0
    assert specs == [ExperimentSpec(scenario="inf-dh-desk")]


@pytest.mark.parametrize("flag", list(_RUN_FLAGS))
def test_cli_run_flag_sets_its_own_field(flag, monkeypatch):
    """Each flag lands on its field and on no other."""
    from cellless.solver_maxrate import AnnealConfig

    specs = _specs_handed_over(monkeypatch)
    values, fields = _RUN_FLAGS[flag]
    assert main(["run", "--scenario", "inf-dh-desk", flag, *values]) == 0
    anneal = AnnealConfig(**fields.get("anneal", {}))
    assert specs == [ExperimentSpec(scenario="inf-dh-desk", **{**fields, "anneal": anneal})]


_RUN_HELP = """\
usage: cellless run [-h] --scenario SCENARIO [--solver {ctm,maxrate,both}]
                    [--seeds SEEDS] [--realizations REALIZATIONS]
                    [--workers WORKERS] [--out OUT] [--dump-links]
                    [--sa-iterations SA_ITERATIONS] [--sa-cooling SA_COOLING]
                    [--sa-temp SA_TEMP] [--sa-moves SA_MOVES]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   built-in name (e.g. inf-dh-desk) or scenario file path
  --solver {ctm,maxrate,both}
  --seeds SEEDS         '1..10' or comma-separated list
  --realizations REALIZATIONS
                        channel realizations per seed, shared by both solvers
  --workers WORKERS     processes; seeds run in parallel, a seed's solvers in
                        turn
  --out OUT             output directory
  --dump-links          write sampled link realizations per run (needs --out)
  --sa-iterations SA_ITERATIONS
  --sa-cooling SA_COOLING
  --sa-temp SA_TEMP
  --sa-moves SA_MOVES
"""


def test_cli_run_help_names_each_flag_by_its_flag(monkeypatch, capsys):
    """The flags' metavars are their own names, not the fields' they set."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _RUN_HELP


def _edit_metrics_cell(run_dir, kind, col, value):
    """Set ``col`` of the first ``kind`` row of a run's metrics.csv to
    ``value``; returns the file and that row's line number."""
    path = run_dir / "metrics.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    index = next(i for i, row in enumerate(rows) if row[0] == kind)
    rows[index][METRIC_COLUMNS.index(col)] = value
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    return path, index + 1


@pytest.mark.parametrize("kind, col, value", [
    ("user", "rate_bps", "abc"), ("user", "rate_bps", "nan"), ("user", "x_m", "inf"),
    ("user", "y_m", ""), ("human", "sar_wkg", "1e400"), ("human", "x_m", "-inf"),
])
@pytest.mark.parametrize("plot", ["rate-cdf", "rate-map"])
def test_cli_plot_on_a_metrics_cell_that_is_not_a_finite_number_exits_2(
        run_out, tmp_path, capsys, plot, kind, col, value):
    """Every plotted cell is checked, whichever kind is plotted: the file,
    the line and the column are named, instead of a bare float error
    (rate-cdf) or the cell copied into the plot (rate-map)."""
    spec, _ = run_out
    out = shutil.copytree(spec.out_dir, tmp_path / "out")
    broken, line = _edit_metrics_cell(out / "inf-dh-desk" / "2" / "ctm", kind, col, value)
    assert main(["plot", "--kind", plot, "--in", str(out),
                 "--out", str(tmp_path / "plot.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{broken}: line {line}, column {col!r}: ") and err.count("\n") == 1
    assert not (tmp_path / "plot.csv").exists()


def test_a_valid_run_plots_its_metrics_strings_as_written(run_out, tmp_path):
    """The cells are checked, not replaced: the loaded rows are the file's
    strings, and every kind plotted from the run directory has the bytes
    built from the records."""
    spec, records = run_out
    run_dir = Path(spec.out_dir) / "inf-dh-desk" / "1" / "ctm"
    with open(run_dir / "metrics.csv", newline="") as f:
        assert load_run_metrics(run_dir)[1] == list(csv.DictReader(f))
    assert _record_plot_bytes(records, tmp_path) == _plot_bytes(spec.out_dir, tmp_path, "dir")

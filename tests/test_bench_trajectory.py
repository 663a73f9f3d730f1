"""The trajectory writer parses perfbench's report and writes its file."""

import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory",
                                                  ROOT / "tools" / "bench_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = """\
workload ctm-desk seed 0 trace 0
env {"commit": "abc", "nproc": 2, "numpy": "2.4.6", "seed": 0}
op 0 inf-dh-desk seed=0 wall_s=0.3048 ref_s=0.2217 outcome=solved digest=c8444f10 check=ok
op 1 inf-dh-desk seed=1 wall_s=0.2947 ref_s=0.2178 outcome=infeasible digest=- check=FAILED: x
results {"failed_frac": 0.0}
wall setup_s=0.29 batch_s=0.599 op_s_p50=0.2997 (raw wall seconds, not rescaled)
metric op_s_p50 = 0.2197 s (median of 2 operations)
result ctm-desk {"correct": true, "attempted": 2, "failed": 0, "metrics": {}}
workload evaluate-paper seed 0 trace 0
env {"commit": "abc", "nproc": 2, "numpy": "2.4.6", "seed": 0}
op 0 umi-sc-default seed=0 wall_s=1.3173 ref_s=1.3819 outcome=evaluated digest=c1524dd6 check=ok
wall setup_s=0.38 batch_s=2.38 op_s_p50=1.19 (raw wall seconds, not rescaled)
result evaluate-paper {"correct": true, "attempted": 1, "failed": 0, "metrics": {}}
{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}
"""


def test_parse_perfbench_reads_each_workload(trajectory):
    got = trajectory.parse_perfbench(REPORT.splitlines())
    assert list(got) == ["ctm-desk", "evaluate-paper"]
    ctm = got["ctm-desk"]
    assert ctm["env"]["numpy"] == "2.4.6"
    assert ctm["wall"] == {"setup_s": 0.29, "batch_s": 0.599, "op_s_p50": 0.2997}
    assert ctm["result"]["attempted"] == 2
    assert [op["digest"] for op in ctm["ops"]] == ["c8444f10", "-"]
    assert ctm["ops"][1] == {"index": 1, "scenario": "inf-dh-desk", "seed": 1, "wall_s": 0.2947,
                             "ref_s": 0.2178, "outcome": "infeasible", "digest": "-",
                             "check": "FAILED: x"}
    assert got["evaluate-paper"]["ops"][0]["outcome"] == "evaluated"


def test_parse_perfbench_refuses_a_malformed_op_line(trajectory):
    with pytest.raises(ValueError):
        trajectory.parse_perfbench(["workload w seed 0 trace 0", "op 0 broken"])


def test_layer_run_is_stored_under_its_label(trajectory, tmp_path):
    """Two runs into one file keep both labels; each holds every layer, in
    raw and in reference-core seconds, the paper-scale ones too, and the
    minor page faults of the paper world's first ``metrics``."""
    out = tmp_path / "bench.json"
    for label in ("parent", "change"):
        code = trajectory.main(["--layers-only", "--repeats", "1", "--out", str(out),
                                "--label", label])
        assert code == 0
    runs = json.loads(out.read_text())["runs"]
    assert sorted(runs) == ["change", "parent"]
    solver = runs["change"]["layers"]["solver"]
    layers = [solver[name] for name in ("evaluator_init", "cold_fill", "cold_users_fill",
                                        "warm_metrics", "reduce_powers", "anneal_move",
                                        "maxrate_solve")]
    for kernel in runs["change"]["layers"]["kernel"].values():
        layers += [kernel["link_terms_per_block"], kernel["steered_energy_per_beam"]]
    paper = runs["change"]["layers"]["paper"]
    layers += [paper[name] for name in ("evaluator_init", "first_metrics", "cold_users_fill",
                                        "link_drawing", "link_terms", "steering")]
    assert len(layers) == 17
    # The first metrics' three steps are parts of it.
    steps = sum(paper[name]["median_s"] for name in ("link_drawing", "link_terms", "steering"))
    assert steps < paper["first_metrics"]["median_s"]
    for layer in layers:
        assert layer["samples"] == 1 and layer["median_s"] > 0.0
        assert 0.0 < layer["median_ref_s"] < math.inf
    # Beside the reduce_powers time, the count of its least-power sweeps.
    sweeps = solver["reduce_powers_sweeps"]
    assert type(sweeps) is int and sweeps > 0
    # Beside the first metrics' time, the minor page faults it took.
    faults = paper["first_metrics_minor_faults"]
    assert isinstance(faults, int) and faults >= 0
    assert paper["first_metrics_minor_faults_by_repeat"] == [faults]


def test_count_least_watts_counts_each_call_and_restores_the_search(trajectory, monkeypatch):
    """Each ``radio_metrics._least_watts`` call of the counted call is one
    sweep; the module attribute is the search again after the call, also
    when the call raises. Counting changes no power: one ``reduce_powers``
    on the layer world returns the same state counted or not."""
    from cellless import radio_metrics as rm
    from cellless.scenario import builtin_template, generate_placements
    from cellless.solver_ctm import CtmConfig, build_geometry, reduce_powers

    scenario = generate_placements(builtin_template("inf-dh-desk"), 1)
    geometry = build_geometry(scenario, CtmConfig(seed=0))
    search, solved = rm._least_watts, []
    sweeps = trajectory.count_least_watts(
        lambda: solved.append(reduce_powers(geometry, rm.Evaluator(scenario, 0, 2))[0]))
    assert type(sweeps) is int and sweeps > 0 and rm._least_watts is search
    assert solved == [reduce_powers(geometry, rm.Evaluator(scenario, 0, 2))[0]]

    def stub(*args):
        return None
    monkeypatch.setattr(rm, "_least_watts", stub)
    assert trajectory.count_least_watts(lambda n: [rm._least_watts() for _ in range(n)], 3) == 3
    assert rm._least_watts is stub

    def fails():
        rm._least_watts()
        raise ZeroDivisionError("injected")
    with pytest.raises(ZeroDivisionError):
        trajectory.count_least_watts(fails)
    assert rm._least_watts is stub


@pytest.mark.parametrize("stdout, outcome", [
    ("seed 0 ctm: total power 0.0123 W, min rate 50.1 Mbit/s, max SAR 1.2e-03 W/kg, feasible\n",
     "solved"),
    ("seed 0 maxrate: total power 8 W, min rate 90.2 Mbit/s, max SAR 2.5e-01 W/kg, infeasible\n",
     "infeasible"),
    ("seed 0 ctm: FAILED (no feasible solution: poa7 cannot meet user93's floor; 27 violated "
     "at maximum power: rate:user0, ...)\n", "infeasible"),
    ("seed 0 ctm: FAILED (ZeroDivisionError: injected)\n", "failed"),
    ("", "failed"),
], ids=["solved", "infeasible-verdict", "infeasible-at-max", "error", "no-line"])
def test_run_outcome_reads_the_run_line(trajectory, stdout, outcome):
    assert trajectory.run_outcome(stdout) == outcome


def test_a_cellless_run_row_times_the_checkouts_cli(trajectory):
    """A row runs ``cellless run`` from the checkout's source in its own
    interpreter and records its wall time, exit code and outcome."""
    rows = trajectory.time_cellless_runs(ROOT, 1, worlds=("inf-dh-desk",), solvers=("ctm",))
    assert len(rows) == 1
    row = rows[0]
    assert row["command"] == "cellless run --scenario inf-dh-desk --solver ctm --seeds 1"
    assert (row["scenario"], row["solver"], row["seed"]) == ("inf-dh-desk", "ctm", 1)
    assert row["exit_code"] == 0 and row["outcome"] == "solved" and row["wall_s"] > 0.0


def _git(cwd, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                          capture_output=True, text=True, check=True).stdout.strip()


def test_git_commit_names_only_the_top_of_a_work_tree(trajectory, tmp_path):
    """A checkout's own top level records its commit; an export in a
    git-ignored folder of that checkout, or outside any checkout, records
    "unknown" instead of the enclosing checkout's commit."""
    checkout, outside = tmp_path / "checkout", tmp_path / "outside"
    export = checkout / ".bench_build" / "parent"
    export.mkdir(parents=True)
    outside.mkdir()
    (checkout / ".gitignore").write_text(".bench_build/\n")
    _git(checkout, "init", "-q")
    _git(checkout, "add", ".gitignore")
    _git(checkout, "commit", "-q", "-m", "one")
    assert trajectory.git_commit(checkout) == _git(checkout, "rev-parse", "--short=12", "HEAD")
    assert trajectory.git_commit(export) == trajectory.git_commit(outside) == "unknown"


def test_a_given_commit_is_recorded(trajectory, tmp_path, monkeypatch):
    """``--commit`` is what ``env.commit`` records."""
    for layers in ("time_solver_layers", "time_kernel_layers", "time_paper_layers"):
        monkeypatch.setattr(trajectory, layers, lambda seed, repeats: {})
    out = tmp_path / "bench.json"
    assert trajectory.main(["--layers-only", "--commit", "0123abc", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["runs"]["change"]["env"]["commit"] == "0123abc"

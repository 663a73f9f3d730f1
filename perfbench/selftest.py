#!/usr/bin/env python3
"""Self-test of the benchmark on a shrunk input (4 users, 6 humans, two
channel realizations, a 2 x 5-move annealer). Takes well under a minute:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is printed by name
with its unit, in both modes and in the final JSON; that a corrupted
result from each workload kind is caught by the output check and makes
the run fail; that the speed probe samples, rescales and cleans up; and
that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
import time

import run
import speed
from tracer import Tracer

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def shrunk_workloads(prog, tmp):
    sc = prog.scenario
    template = dataclasses.replace(sc.builtin_template("inf-dh-desk"), n_users=4, n_humans=6)
    path = str(tmp / "shrunk.json")
    sc.save_scenario(sc.generate_placements(template, 1), path)
    small = dict(scenarios=(path,), seed_s=1.0, realizations=2)
    return {kind: run.Workload(f"shrunk-{kind}", kind,
                               anneal={"iterations": 2, "moves_per_temp": 5}, **small)
            for kind in ("ctm", "maxrate", "evaluate")}


def check_metrics_printed(wl, trace, lines, result):
    names = run.PER_LAYER if trace else run.END_TO_END
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 5 and parts[0] == "metric" and parts[2] == "=":
            printed[parts[1]] = (float(parts[3]), parts[4])
    tag = f"{wl.name} trace {trace}"
    expect(all(printed.get(n, (0, None))[1] == u for n, u in names),
           f"{tag}: every metric printed by name with its unit")
    expect(list(result["metrics"]) == [n for n, _ in names]
           and all(result["metrics"][n]["unit"] == u for n, u in names)
           and all(math.isfinite(v["value"]) for v in result["metrics"].values()),
           f"{tag}: final JSON holds exactly the metrics, each with value and unit")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: correct, nothing failed")
    json.loads(json.dumps(result))


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end names and units match the benchmark")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer names and units match the benchmark")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match the benchmark")


def check_speed_probe():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    expect(len(probe.samples) >= 0.3 / speed.INTERVAL_S
           and all(p > 0 for p in probe.samples),
           "speed probe samples at entry, every interval and exit")
    expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
           and signal.getsignal(signal.SIGALRM) is before,
           "speed probe stops its timer and restores the SIGALRM handler")
    half = 2 * speed.NOMINAL_S
    expect(math.isclose(speed.ref_seconds(3.0, [half, half]), 1.5)
           and math.isclose(speed.ref_seconds(3.0, [speed.NOMINAL_S, half]), 2.25),
           "ref_seconds weights wall time by the harmonic mean of probe speed")


def nudge(x):
    return math.nextafter(x, math.inf)


def corrupt_runs(prog, tracer):
    """Make every solver result differ from a fresh evaluation by one ulp."""
    h, rm = prog.harness, prog.radio_metrics
    original = h.run_experiment

    def corrupted(spec):
        records = original(spec)
        for r in records:
            if r.bundle is not None:
                rates = dict(r.bundle.per_user_rate)
                low = min(rates, key=rates.get)
                rates[low] = nudge(rates[low])
                r.bundle = dataclasses.replace(r.bundle, per_user_rate=rates)
        return records

    tracer.patch(h, "run_experiment", corrupted)
    evaluate = rm.evaluate

    def flipped(*args, **kwargs):
        return dataclasses.replace(evaluate(*args, **kwargs), violated=["sar:nobody"])

    tracer.patch(rm, "evaluate", flipped)


def check_corruption_caught(prog, workloads):
    for kind, wl in workloads.items():
        tracer = Tracer()
        corrupt_runs(prog, tracer)
        try:
            lines = []
            result, ok = run.run_workload(prog, wl, 0, 1.0, 0, emit=lines.append)
        finally:
            tracer.restore()
        expect(not ok and not result["correct"] and result["failed"] == result["attempted"],
               f"{wl.name}: a corrupted result is caught and fails the run")
        expect(any("FAILED" in line for line in lines), f"{wl.name}: the failure is printed")


def check_refuses_without_package(tmp):
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "ctm-desk",
                           "--seed", "1", "--seconds", "10", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "exits non-zero without printing a result when src/ is missing")


def main():
    prog = run.Program()
    tmp = run.WORK / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        check_benchmark_json()
        check_speed_probe()
        workloads = shrunk_workloads(prog, tmp)
        for wl in workloads.values():
            for trace in (0, 1):
                lines = []
                result, ok = run.run_workload(prog, wl, 0, 1.0, trace, emit=lines.append)
                check_metrics_printed(wl, trace, lines, result)
                expect(ok, f"{wl.name} trace {trace}: exit status ok")
        check_corruption_caught(prog, workloads)
        check_refuses_without_package(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

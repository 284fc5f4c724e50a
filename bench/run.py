"""Closed-loop benchmark of the loglimset command line.

Usage (from the repository root)::

    python3 bench/run.py --workload dual-random --seed 1 --seconds 30 --trace 0

One client runs one ``loglimset.cli.main(argv)`` invocation at a time.  A
pass runs every invocation of the workload once, in a fresh interpreter, so
caches start cold as they do for every CLI user.  Passes repeat, each in a
new process on the same inputs, until ``--seconds`` is spent.  The inputs
are drawn from ``--seed`` (see ``workloads.py``), written to a scratch
directory under ``.bench_work/`` and are all the program sees.  Every output
is checked by an oracle that avoids the code under test.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end:

* ``solve_s``: median wall time of one pass (interpreter start and import
  excluded), stdout captured;
* ``setup_s``: median time from starting an interpreter to
  ``loglimset.cli`` being imported, over at least ``MIN_SETUPS`` starts;
* ``peak_rss_mb``: median over passes of the pass process's peak RSS.

Both times are host-speed corrected: they are scaled by
``PROBE_REFERENCE_S`` over the median time of the fixed task that
``hostspeed.py`` runs while a pass works, so they read as seconds on a host
where the task takes ``PROBE_REFERENCE_S``.  A pass time is scaled by its
own process's median; set-up times by the median over the run's untraced
passes, since a process that only starts up samples too little, and only
before any work has evicted the task's data.  On a shared host the raw
times of the same code drift by 25-75 % from minute to minute; the raw
medians are printed to stderr.

The failure ratio is ``failed / attempted``: an invocation fails if it exits
nonzero, writes to stderr, disagrees with its oracle, or differs from the
first pass's output.

With ``--trace 1`` every untraced pass is followed by a traced one; the
metrics are the per-layer ones of ``BENCHMARK.json``, medians over the
traced passes, plus ``trace.overhead_ratio``, the median ratio of traced to
untraced pass time minus one.  A traced run aborts when a metric that
``spans.METRICS`` says this workload moves reads 0, so a layer that was
never reached cannot pass for a fast one, and when the ``cli.main`` spans
cover less than ``MIN_COVERAGE`` of the pass, so time spent outside every
span cannot hide.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import oracles
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3  # untraced passes per run; a traced run has as many traced ones
MIN_SETUPS = 9  # interpreter starts per run that give set-up times
RUN_BUDGET = 160  # seconds after which no pass process may still be running
MIN_COVERAGE = 0.98  # share of a traced pass that its cli.main spans must cover
PROBE_REFERENCE_S = 0.003  # hostspeed task time that end-to-end times are scaled to


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def at_reference(seconds: float, probe_s: float) -> float:
    """A wall time, scaled from a host where the probe took probe_s to the reference."""
    return seconds * PROBE_REFERENCE_S / probe_s


def child_env() -> dict[str, str]:
    """The environment of every pass process.

    ``LOGLIMSET_*`` variables are dropped so a user's settings (such as the
    process-pool switch) cannot change the numbers, and numeric libraries
    are held to one thread so a pass is one single-threaded process.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("LOGLIMSET_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Session:
    """Pass processes and output grading for one workload and seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.items = workloads.build(workload, seed, workdir)
        self._first_outputs: list[str] | None = None
        self._spawned = 0
        self.deadline = time.monotonic() + RUN_BUDGET

    def spawn(self, solve: bool = True, trace: bool = False) -> dict:
        """Run one pass in a fresh interpreter; solve=False only measures set-up."""
        self._spawned += 1
        result_path = self.workdir / f"result{self._spawned}.json"
        request_path = self.workdir / f"request{self._spawned}.json"
        items = self.items if solve else []
        request = {
            "src": str(SRC),
            "invocations": [item.argv for item in items],
            "trace": trace,
            "pass_id": self._spawned,
            "result": str(result_path),
        }
        request_path.write_text(json.dumps(request), encoding="utf-8")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(request_path), repr(spawned)],
                cwd=self.workdir,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(0.0, self.deadline - spawned),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"the run is still going after {RUN_BUDGET} s") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            raise BenchError(f"pass process exited with {proc.returncode}: {tail[0]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if solve:
            self.grade(result.pop("outputs"))
        return result

    def grade(self, outputs: list[list]) -> None:
        """Count failures; every pass must repeat the first one's outputs byte for byte."""
        if self._first_outputs is None:
            self._first_outputs = [out for _, out, _ in outputs]
        for item, (code, out, err), first in zip(self.items, outputs, self._first_outputs):
            self.attempted += 1
            if code != 0:
                problem = f"exit code {code}"
            elif err:
                problem = "wrote to stderr: " + err.strip().splitlines()[-1][:200]
            elif out != first:
                problem = "output differs from the first pass"
            else:
                problem = oracles.check(item.kind, item.data, out)
            if problem:
                self.failures.append(f"{' '.join(item.argv)}: {problem}")


def run_passes(session: Session, seconds: float, trace: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """Untraced and traced pass results, and the results of every process started.

    With tracing, untraced and traced passes alternate, so drift in the
    machine's speed touches both alike.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    started = time.monotonic()
    while True:
        plain.append(session.spawn())
        if trace:
            traced.append(session.spawn(trace=True))
        now = time.monotonic()
        typical = (now - started) / len(plain)
        if now + typical > session.deadline:
            break
        if len(plain) >= MIN_PASSES and now - started + typical > seconds:
            break
    setups = plain + traced
    while len(setups) < MIN_SETUPS and time.monotonic() + 1 < session.deadline:
        setups.append(session.spawn(solve=False))
    return plain, traced, setups


def end_to_end_metrics(plain: list[dict], setups: list[dict]) -> dict:
    probe_s = median(r["probe_s"] for r in plain)
    return {
        "solve_s": {"value": median(at_reference(r["solve_s"], r["probe_s"]) for r in plain), "unit": "s"},
        "setup_s": {"value": median(at_reference(r["setup_s"], probe_s) for r in setups), "unit": "s"},
        "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
    }


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric of ``BENCHMARK.json``.

    The same names must have a row in ``spans.METRICS``, which holds the
    layer and the workloads each metric should move.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {row["name"]: row["unit"] for row in spec["per_layer"]}
    if set(units) != set(spans.METRICS):
        raise BenchError(
            f"BENCHMARK.json per_layer and spans.METRICS differ in {sorted(set(units) ^ set(spans.METRICS))}"
        )
    return units


def check_spans(r: dict) -> None:
    """Reject a traced pass whose spans do not account for its time.

    Self times cannot sum past the pass time if the span bookkeeping is
    right, since every span nests under a ``cli.main`` span inside the timed
    loop: that check guards ``spans.self_times``.  The coverage check can
    fail on real data: a ``cli.main`` wrapper that is not in effect, or
    work done outside every call, leaves the pass uncovered.
    """
    own = sum(spans.self_times(r["spans"]))
    if own > r["solve_s"] + 1e-6:
        raise BenchError(f"layer self times sum to {own} s, more than the pass's {r['solve_s']} s")
    covered = sum(s[2] - s[1] for s in r["spans"] if s[3] < 0 and s[0] == "cli.main")
    if covered < MIN_COVERAGE * r["solve_s"]:
        raise BenchError(f"cli.main spans cover {covered:.4f} s of a {r['solve_s']:.4f} s pass")


def per_layer_metrics(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    units = per_layer_units()
    per_pass = []
    for r in traced:
        check_spans(r)
        per_pass.append(spans.layer_metrics(r["spans"], r["analyze_hits"], r["analyze_misses"]))
    values = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead_ratio"] = median(t["solve_s"] / p["solve_s"] for p, t in zip(plain, traced)) - 1.0
    silent = [name for name, (_, _, on) in spans.METRICS.items() if workload in on and not values[name]]
    if silent:
        raise BenchError(f"layers recorded nothing on {workload}: {', '.join(silent)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "loglimset" / "cli.py").is_file():
        raise BenchError(f"no loglimset sources under {SRC}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        session = Session(workload, seed, workdir)
        plain, traced, setups = run_passes(session, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in session.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        f"{workload} seed {seed}: {len(plain)} plain and {len(traced)} traced passes, "
        f"raw pass times {[round(r['solve_s'], 3) for r in plain + traced]}, "
        f"raw median set-up {median(r['setup_s'] for r in setups):.4f} s, "
        f"median probe {median(r['probe_s'] for r in plain) * 1e3:.4f} ms",
        file=sys.stderr,
    )
    metrics = per_layer_metrics(workload, plain, traced) if trace else end_to_end_metrics(plain, setups)
    return {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

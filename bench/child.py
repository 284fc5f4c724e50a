"""One cold pass over a workload, in a fresh interpreter.

Usage: ``python3 bench/child.py REQUEST.json SPAWN_TIME``

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start and the import of
``loglimset.cli``.  The request names the working directory, the CLI argv
list, whether to trace, and where to write the result.  Each argv runs
through ``loglimset.cli.main`` with stdout and stderr captured; the pass
time covers those calls only.

The host-speed probe (``hostspeed.py``) samples from before the import to
the end of an untraced pass.  The time its samples take, and the time it
takes to load, is subtracted from the set-up and pass times, and its
median sample goes into the result.  A traced pass stops it first, so no
span contains a sample.
"""

import sys
import time

PROBE_LOADING = time.monotonic()

import hostspeed  # noqa: E402

hostspeed.start()
PROBE_LOADING = time.monotonic() - PROBE_LOADING

import loglimset.cli  # noqa: E402

READY = time.monotonic()
PROBED_BY_READY = hostspeed.spent()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``ru_maxrss`` survives exec, so it can report the parent's size from
    before the fork; the kernel's high-water mark ``VmHWM`` starts afresh.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(invocations):
    outputs = []
    started = time.perf_counter()
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = loglimset.cli.main(argv)
            except Exception:  # an escaped exception is a failed invocation, not a crash
                code = -1
                err.write(traceback.format_exc())
        outputs.append([code, out.getvalue(), err.getvalue()])
    return time.perf_counter() - started, outputs


def main() -> None:
    request_path, spawned = sys.argv[1], float(sys.argv[2])
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    expected_src = os.path.realpath(request["src"])
    if not os.path.realpath(loglimset.cli.__file__).startswith(expected_src + os.sep):
        sys.exit(f"loglimset imported from {loglimset.cli.__file__}, not from {expected_src}")
    result = {"setup_s": READY - spawned - PROBE_LOADING - PROBED_BY_READY}
    if request["invocations"]:
        tracer = None
        if request["trace"]:
            hostspeed.stop()
            import spans

            tracer = spans.Tracer(request["pass_id"])
            spans.install(tracer)
        from loglimset import exactgeom

        probing = hostspeed.spent()
        solve_s, outputs = run_pass(request["invocations"])
        solve_s -= hostspeed.spent() - probing
        info = exactgeom._analyze.cache_info()
        result.update(
            solve_s=solve_s,
            outputs=outputs,
            peak_rss_mb=peak_rss_mb(),
            analyze_hits=info.hits,
            analyze_misses=info.misses,
            spans=tracer.spans if tracer else [],
        )
    result["probe_s"] = hostspeed.median_sample()
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

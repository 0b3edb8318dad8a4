"""One measured pass of a workload, run in a fresh interpreter.

Usage: python bench/pass_child.py JOB.json RESULT.json

The job lists the argv of each command. The child imports ``slowthink.cli``
(the import is timed on the monotonic clock so the parent can compute
interpreter-launch-to-import set-up time), optionally installs the tracer,
then runs every command in-process through ``slowthink.cli.dispatch`` and
writes timings, exit codes, captured stderr, peak RSS and, when traced, the
per-layer span summary to RESULT.json.

A fresh interpreter per pass means every pass pays what a user's CLI run
pays: lazy imports, cold ``lru_cache`` state and first-call set-up.
"""

import time

import slowthink.cli as cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer)
    commands = []
    t0 = time.perf_counter()
    for argv in job["commands"]:
        err = io.StringIO()
        c0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            rc = cli.dispatch(argv)
        commands.append(
            {"rc": rc, "seconds": time.perf_counter() - c0, "stderr": err.getvalue()}
        )
    wall = time.perf_counter() - t0
    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "commands": commands,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": _versions(),
    }
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer.spans, wall)
        result["noisy_eps_cache"] = tracing.noisy_eps_cache()
        if job.get("spans_out"):
            tracer.write(job["spans_out"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _versions() -> dict:
    from importlib import metadata

    import numpy

    # scipy's version comes from package metadata so that reading it never
    # imports scipy into a process that did not need it
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "scipy_loaded": "scipy" in sys.modules,
    }


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

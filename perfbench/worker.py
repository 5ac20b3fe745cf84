"""One workload process: set up wittkit, run the jobs closed loop, report.

    python3 worker.py SRC ALGEBRAS --setup-only
    python3 worker.py SRC ALGEBRAS JOBS_FILE OUT_FILE TRACE BUDGET_S

SRC is the directory holding the `wittkit` package and ALGEBRAS a comma
list of variant:arity:prefix triples.  Only `sys` and `time` are
imported before the set-up clock starts, so set-up time covers every
import wittkit needs; arguments are parsed by hand for the same reason.
Each job is one `wittkit.cli.main(argv)` call with stdout and stderr
captured; the next job starts when the previous one has returned.
"""

import sys
import time


def set_up(src: str, algebra_specs: str):
    started = time.perf_counter()
    sys.path.insert(0, src)
    from wittkit import AlgebraVariant, WittAlgebra, cli

    cli.build_parser()
    for spec in algebra_specs.split(","):
        variant, arity, prefix = spec.split(":")
        factory = getattr(AlgebraVariant, variant)
        WittAlgebra(factory(int(prefix), int(arity)) if variant == "winf"
                    else factory(int(arity)))
    return time.perf_counter() - started, cli


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM; a BaseException so no handler in wittkit eats it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_jobs(cli, jobs, budget_s, tracer=None):
    """Run every job in order; returns per-job records and the run totals."""
    import contextlib
    import io
    import resource
    import signal

    job_limit_s = 60.0
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    main = cli.main
    run_start = time.perf_counter()
    cpu_start = time.process_time()
    for job in jobs:
        remaining = budget_s - (time.perf_counter() - run_start)
        if remaining <= 0:
            records.append({"id": job["id"], "code": None, "status": "not run: run budget spent",
                            "stdout": "", "wall_s": 0.0, "cpu_s": 0.0})
            continue
        out, err = io.StringIO(), io.StringIO()
        status = "ok"
        code = None
        if tracer is not None:
            tracer.job = job["id"]
        started = time.perf_counter()
        cpu_started = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, min(job_limit_s, remaining))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(job["argv"])
        except JobTimeout:
            status = "timeout"
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed run
            status = f"exception {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        records.append({"id": job["id"], "code": code, "status": status, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:], "wall_s": wall, "cpu_s": cpu})
    totals = {
        "wall_s": time.perf_counter() - run_start,
        "cpu_s": time.process_time() - cpu_start,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    return records, totals


def main(argv):
    src, algebra_specs = argv[0], argv[1]
    setup_s, cli = set_up(src, algebra_specs)
    if argv[2:] == ["--setup-only"]:
        print(repr(setup_s))
        return 0
    import json

    jobs_file, out_file, trace, budget_s = argv[2], argv[3], argv[4] == "1", float(argv[5])
    with open(jobs_file, encoding="utf-8") as handle:
        jobs = json.load(handle)
    tracer = None
    if trace:
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    records, totals = run_jobs(cli, jobs, budget_s, tracer)
    result = {"setup_s": setup_s, "jobs": records, **totals}
    if tracer is not None:
        result["trace"] = tracer.summary(jobs)
        tracer.write_spans(out_file + ".spans.jsonl.gz")
    with open(out_file, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

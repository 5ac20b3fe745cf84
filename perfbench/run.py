"""wittkit benchmark: time to verdict per CLI job, and a traced per-layer run.

    python3 perfbench/run.py --workload lemma-grid --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; wittkit is imported from `src/`.
A workload's jobs run closed loop (one client, one process, the next job
after the previous verdict), each as one in-process
`wittkit.cli.main([..., "--format", "json"])` call.  The whole job list
runs once per pass, each pass in a fresh worker process, so nothing a
pass computes can serve a later one; passes repeat for `--seconds`,
every second one a light pass without the dearest jobs.  Every output
is checked exactly (checks.py) after the passes.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` one untraced and one traced pass run, and it carries the
per-layer metrics.  Details of each run go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes that only time set-up, besides one per pass.
SETUP_SAMPLES = 5
# Light passes leave out the jobs that took more than this many times
# the tail job's time in the first pass.
LIGHT_FACTOR = 1.5
# Wall-clock budget shared by the passes of one run, so that a run ends
# within 180 s even when the program regresses; jobs left over fail.
PASSES_BUDGET_S = 140.0
CONDITIONS = ("one workload process at a time on a shared machine; no CPU pinning, "
              "no frequency control and no cache dropping")


def _environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "wittkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed, "conditions": CONDITIONS}


def _worker(args, timeout):
    worker = [sys.executable, str(HERE / "worker.py"), str(SRC), *args]
    done = subprocess.run(worker, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def _run_pass(workdir: Path, algebras: str, jobs: list, trace: bool, budget: float) -> dict:
    """One pass over `jobs` in the given order; records come back keyed by job id."""
    jobs_file = workdir / "jobs.json"
    jobs_file.write_text(json.dumps([{"id": j["id"], "argv": j["argv"]} for j in jobs]))
    out_file = workdir / "pass.json"
    try:
        _worker([algebras, str(jobs_file), str(out_file), "1" if trace else "0", str(budget)],
                budget + 15)
    except subprocess.TimeoutExpired:
        return {"jobs": {j["id"]: {"code": None, "status": "worker killed", "stdout": ""}
                         for j in jobs}}
    result = json.loads(out_file.read_text())
    result["jobs"] = {record["id"]: record for record in result["jobs"]}
    return result


def _failures(jobs: list, passes: list) -> dict:
    """Job id -> reason, for every job whose output is wrong in any pass."""
    from checks import check

    failures = {}
    for job in jobs:
        first = passes[0]["jobs"][job["id"]]
        reason = check(job, first)
        for other in passes[1:]:
            record = other["jobs"].get(job["id"])  # light passes skip some jobs
            if record is None or reason is not None:
                continue
            if (record["code"], record["stdout"]) != (first["code"], first["stdout"]):
                reason = check(job, record) or "output differs between passes"
        if reason is not None:
            failures[job["id"]] = reason
    return failures


def _tail(walls: list):
    """The highest percentile with at least ten jobs beyond it: (value, percentile)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} jobs leave no tail percentile with ten jobs beyond it")
    return ordered[n - 11], 100.0 * (n - 10) / n


def _end_to_end(passes: list, setup: list):
    """Times from the passes, which all ran the same jobs.

    The host's speed drifts by up to a factor of two within seconds, so a
    job's time is its fastest pass, and wall_s and cpu_s add those up: the
    closed-loop time to the last verdict with each job at its fastest.
    Peak memory comes from the full passes only.
    """
    timed = [p for p in passes if "wall_s" in p]
    full = [p for p in timed if not p.get("light")]
    count = len(full[0]["jobs"])
    walls = [min(p["jobs"][i]["wall_s"] for p in timed if i in p["jobs"]) for i in range(count)]
    cpus = [min(p["jobs"][i]["cpu_s"] for p in timed if i in p["jobs"]) for i in range(count)]
    return {
        "wall_s": {"value": sum(walls), "unit": "s"},
        "cpu_s": {"value": sum(cpus), "unit": "s"},
        "job_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "job_tail_s": {"value": _tail(walls)[0], "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(p["peak_rss_kib"] for p in full) / 1024,
                         "unit": "MiB"},
    }, walls


def _light_ids(first: dict) -> set:
    """Jobs that also run in light passes: all but those far dearer than the tail job.

    The shorter a job, the more tries its fastest time needs to meet a
    quiet moment of a shared host, so the jobs that set job_p50_s and
    job_tail_s run in every pass and the dearest jobs in every second one.
    """
    walls = [record["wall_s"] for record in first["jobs"].values()]
    cut = LIGHT_FACTOR * _tail(walls)[0]
    return {job_id for job_id, record in first["jobs"].items() if record["wall_s"] <= cut}


def _layer_table(summary: dict, overhead: float) -> list:
    metrics = summary.get("metrics", {})
    wall = summary.get("wall_s") or 0.0
    lines = [f"traced job time {wall:.3f} s over {summary.get('spans', 0)} spans; "
             f"tracing overhead {overhead:.3f}x (traced wall_s / untraced wall_s)",
             f"{'layer':<13}{'self_s':>10}{'share':>8}"]
    for layer, self_s in summary.get("layers", {}).items():
        lines.append(f"{layer:<13}{self_s:>10.3f}{(self_s / wall if wall else 0):>8.1%}")
    lines.append(f"{'function':<36}{'calls':>10}{'self_s':>10}{'incl_s':>10}")
    functions = summary.get("functions", {})
    for name, f in sorted(functions.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(f"{name:<36}{f['calls']:>10}{f['self_s']:>10.3f}{f['outer_s']:>10.3f}")
    for name, m in metrics.items():
        lines.append(f"{name:<48} {m['value']:.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind, so the running worker is killed and awaited and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wittkit" / "__init__.py").is_file():
        print(f"error: no wittkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    algebras = ",".join(f"{v}:{a}:{p}" for v, a, p in workloads.ALGEBRAS[args.workload])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=HERE / ".work"))
    try:
        jobs = workloads.generate(args.workload, args.seed, workdir)
        _worker([algebras, "--setup-only"], 60)  # warm-up: byte-code caches
        setup = [float(_worker([algebras, "--setup-only"], 60)) for _ in range(SETUP_SAMPLES)]
        started = time.monotonic()
        passes = []
        longest = {False: 0.0, True: 0.0}
        light_ids = None
        order = list(jobs)
        for kind in [False, True] if trace else itertools.repeat(False):
            elapsed = time.monotonic() - started
            light = light_ids is not None and len(passes) % 2 == 1
            # no pass starts that would end after --seconds, judged by the
            # longest pass of its kind so far; the first always runs
            if passes and not trace and elapsed + longest[light] > args.seconds:
                break
            chosen = [job for job in order if job["id"] in light_ids] if light else order
            passes.append(_run_pass(workdir, algebras, chosen, kind, PASSES_BUDGET_S - elapsed))
            passes[-1]["light"] = light
            longest[light] = max(longest[light], time.monotonic() - started - elapsed)
            if not trace and light_ids is None and "wall_s" in passes[0]:
                light_ids = _light_ids(passes[0])
            if not trace:
                # each pass in a new order, so no job always follows the same one
                random.Random(f"{args.workload}:{args.seed}:{len(passes)}").shuffle(order)
        if trace and (workdir / "pass.json.spans.jsonl.gz").exists():
            shutil.move(str(workdir / "pass.json.spans.jsonl.gz"), OUT / f"{stem}.spans.jsonl.gz")
        failures = _failures(jobs, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup += [p["setup_s"] for p in passes if "setup_s" in p]
    attempted, failed = len(jobs), len(failures)
    env = _environment(args.seed)
    lines = [f"workload {args.workload}: {attempted} jobs, closed loop, 1 client, "
             f"{len(passes)} passes, seed {args.seed}, trace {args.trace}",
             "env: " + json.dumps(env, sort_keys=True)]
    if not any("wall_s" in p for p in passes):
        metrics, walls = {}, []
    elif trace:
        summary = passes[1].get("trace", {})
        metrics = {name: dict(m) for name, m in summary.get("metrics", {}).items()}
        overhead = (passes[1]["wall_s"] / passes[0]["wall_s"]
                    if "wall_s" in passes[0] and "wall_s" in passes[1] else 0.0)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        walls = [record.get("wall_s", 0.0) for record in passes[1]["jobs"].values()]
        lines += _layer_table(summary, overhead)
    else:
        metrics, walls = _end_to_end(passes, setup)
        pct = _tail(walls)[1]
        for name, m in metrics.items():
            note = f"  (p{pct:.1f} of {attempted} jobs)" if name == "job_tail_s" else ""
            lines.append(f"{name:<14} {m['value']:.6f} {m['unit']}{note}")
    lines.append(f"{'fail_ratio':<14} {failed / attempted:.6f}  ({failed} of {attempted} jobs)")
    for job_id, reason in sorted(failures.items()):
        lines.append(f"FAILED job {job_id} {' '.join(jobs[job_id]['argv'])}: {reason}")
    detail = {"env": env, "workload": args.workload, "metrics": metrics, "attempted": attempted,
              "failed": failed, "failures": {str(k): v for k, v in failures.items()},
              "setup_samples": setup,
              "pass_walls": [p.get("wall_s") for p in passes],
              "light_passes": [i for i, p in enumerate(passes) if p.get("light")],
              "jobs": [{"argv": j["argv"], "wall_s": w} for j, w in zip(jobs, walls)]}
    if trace:
        detail["trace"] = passes[1].get("trace")
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

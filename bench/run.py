#!/usr/bin/env python3
"""hazard2ts benchmark: the three CLI paths end to end, one job at a time.

    python3 bench/run.py --workload fit_mc --seed 1 --seconds 22 --trace 0

Run from the repository root.  Inputs are generated from --seed (bench/gen.py);
each job is the CLI command run in its own child process (bench/job.py) with
the program's defaults.  Jobs repeat until --seconds have passed (at least
MIN_JOBS), every job's outputs are checked (bench/checks.py), and the last
stdout line is the JSON result.  --trace 1 alternates traced and untraced
jobs and reports the per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # loads scipy's own OpenBLAS, so blas_info reports it

import checks
import gen

BENCH = Path(__file__).resolve().parent
WORKLOADS = {
    # MC CIF SE (1000 draws, the package default) and the BIC search dominate
    "fit_mc": {"records": 30_000, "draws": 1000, "pclm": False},
    # ingest of 300k records plus PCLM ungrouping of the 90+ band dominate
    "fit_register": {"records": 300_000, "draws": 100, "pclm": True},
    # paired-point paths: per-point SEs, quadrature, extrapolation flags, rows
    "predict_ts": {"records": 30_000, "points": 50_000},
}
MIN_JOBS = 3                 # a median, and reruns for byte-identity
SETUP_IMPORTS = 5            # timed fresh-interpreter imports per run
ORACLE_ROWS = 2000
RUN_LIMIT_S = 170.0          # no new job may start past this, minimum met or not
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import hazard2ts.cli; "
                "print(repr(time.perf_counter() - t0))")
PCLM_CONFIG = "pclm:\n  enabled: true\n"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("HAZARD2TS_THREADS", None)          # program default: serial search
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def prepare(workload: str, seed: int, work: Path, env: dict, root: Path) -> dict:
    """Write the workload's inputs; returns the CLI arguments and what the checks need."""
    spec = WORKLOADS[workload]
    records = gen.cohort(seed, spec["records"])
    cohort = work / "cohort.csv"
    if workload == "fit_register":
        records = gen.coarsen_register(records)
    gen.write_cohort_csv(cohort, records)
    if workload.startswith("fit"):
        args = ["fit", str(cohort), "--draws", str(spec["draws"])]
        if spec["pclm"]:
            (work / "pclm.yaml").write_text(PCLM_CONFIG)
            args += ["--config", str(work / "pclm.yaml")]
        return {"args": lambda out: args + ["--out", str(out)], "kind": "fit"}

    # predict_ts: model from `fit` on the fit_mc cohort; MC draws do not enter
    # model.json, so the minimum is used to keep preparation short
    model_dir = work / "model"
    subprocess.run([sys.executable, "-m", "hazard2ts.cli", "fit", str(cohort),
                    "--out", str(model_dir), "--draws", "2"],
                   env=env, cwd=root, check=True, stdout=subprocess.DEVNULL, timeout=120)
    t, s = gen.ts_points(seed, spec["points"])
    points = work / "points.csv"
    gen.write_points_csv(points, t, s)
    model = model_dir / "model.json"
    return {"args": lambda out: ["predict", "--model", str(model), "--points", str(points),
                                 "--coords", "ts", "--out", str(out / "pred.csv")],
            "kind": "predict", "model": model, "t": t, "s": s}


def measure_setup(env: dict, root: Path) -> list:
    """Import time of hazard2ts.cli in fresh interpreters (first one warms caches)."""
    times = []
    for _ in range(SETUP_IMPORTS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=root,
                             check=True, capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


def digest(outdir: Path):
    files = sorted(p for p in outdir.rglob("*") if p.is_file())
    hashes = tuple((str(p.relative_to(outdir)), hashlib.sha256(p.read_bytes()).hexdigest())
                   for p in files)
    return hashes, sum(p.stat().st_size for p in files)


def run_job(k: int, traced: bool, inputs: dict, work: Path, env: dict, root: Path,
            timeout: float) -> dict:
    outdir = work / f"job{k}"
    outdir.mkdir()
    result_path = work / f"job{k}.result.json"
    trace_path = work / f"job{k}.spans.json"
    cmd = [sys.executable, str(BENCH / "job.py"), str(result_path),
           str(trace_path) if traced else "-", "--", *inputs["args"](outdir)]
    with open(work / f"job{k}.log", "w") as log:
        try:
            code = subprocess.run(cmd, env=env, cwd=root, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    job = {"k": k, "traced": traced, "exit": code, "problems": []}
    if code != 0 or not result_path.is_file():
        log_tail = (work / f"job{k}.log").read_text(errors="replace")[-2000:]
        job["problems"].append(f"exit status {code}: {log_tail}")
        return job
    job.update(json.loads(result_path.read_text()))
    job["hashes"], job["bytes_written"] = digest(outdir)
    job["outdir"] = outdir
    job["spans"] = trace_path if traced else None
    return job


def check_outputs(job: dict, inputs: dict, seed: int):
    if inputs["kind"] == "fit":
        return checks.check_fit(job["outdir"])
    problems = checks.check_predict(job["outdir"] / "pred.csv", inputs["model"],
                                    inputs["t"], inputs["s"], ORACLE_ROWS, seed)
    return problems, None


def is_count(name: str) -> bool:
    return name.endswith((".calls", "iwls_iters", "candidates", "nonconverged"))


class Validator:
    """Fails a job on wrong outputs, on outputs differing from the first job's,
    or (traced jobs) on counts differing from the first traced job's.  Outputs
    are checked once per distinct digest, before later jobs' files are removed."""

    def __init__(self, inputs: dict, seed: int):
        self.inputs, self.seed = inputs, seed
        self.verdicts = {}
        self.ref = None
        self.ref_counts = None
        self.hazard_err = None

    def __call__(self, job: dict):
        if "hashes" not in job:
            return
        if self.ref is None:
            self.ref = job["hashes"]
        elif job["hashes"] != self.ref:
            job["problems"].append("artefacts differ from the first job's")
        if job["hashes"] not in self.verdicts:
            self.verdicts[job["hashes"]] = check_outputs(job, self.inputs, self.seed)
        problems, err = self.verdicts[job["hashes"]]
        job["problems"] += problems
        if job["hashes"] == self.ref:
            self.hazard_err = err
        if job["traced"]:
            counts = {k: v for k, v in job["layers"].items() if is_count(k)}
            if self.ref_counts is None:
                self.ref_counts = counts
            elif counts != self.ref_counts:
                job["problems"].append("traced counts differ from the first traced job's")


def blas_info() -> list:
    """OpenBLAS builds loaded in this process (numpy's and scipy's) and their
    default thread counts; the job processes inherit the same environment."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    info.update(threads=threads(), config=config().decode())
        found.append(info)
    return found


def metadata(root: Path, env: dict) -> dict:
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    src = sorted((root / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "blas_env": {k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS")},
        "hazard2ts_threads": env.get("HAZARD2TS_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def run_jobs(a, inputs: dict, work: Path, env: dict, root: Path, run_start: float):
    """Jobs one at a time until --seconds have passed and the minimum is met.
    A traced run alternates untraced and traced jobs, starting untraced."""
    jobs = []
    validate = Validator(inputs, a.seed)
    t0 = time.perf_counter()
    while True:
        n_traced = sum(j["traced"] for j in jobs)
        if a.trace:
            minimum_met = n_traced >= 2 and len(jobs) - n_traced >= 1
        else:
            minimum_met = len(jobs) >= MIN_JOBS
        now = time.perf_counter()
        last = jobs[-1].get("job_s", 0.0) if jobs else 0.0
        if minimum_met and (now - t0 >= a.seconds or now - run_start + last > RUN_LIMIT_S):
            return jobs, validate.hazard_err, now - t0
        job = run_job(len(jobs), bool(a.trace) and len(jobs) % 2 == 1, inputs, work, env,
                      root, timeout=max(10.0, RUN_LIMIT_S - (now - run_start)))
        validate(job)
        if "outdir" in job:
            shutil.rmtree(job["outdir"])
        jobs.append(job)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = parser.parse_args(argv)

    run_start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "hazard2ts" / "cli.py").is_file():
        print(f"error: {root} holds no src/hazard2ts; run from the repository root",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    metric_specs = declared["per_layer" if a.trace else "end_to_end"]

    name = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    results_dir = root / ".bench_work" / "results"
    work = root / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    env = child_env(root)
    try:
        inputs = prepare(a.workload, a.seed, work, env, root)
        setup = measure_setup(env, root)
        jobs, hazard_err, measured_s = run_jobs(a, inputs, work, env, root, run_start)

        failed = sum(bool(j["problems"]) for j in jobs)
        plain = [j for j in jobs if not j["traced"] and "job_s" in j]
        traced = [j for j in jobs if j["traced"] and "layers" in j]
        if not plain or (a.trace and not traced):
            raise RuntimeError("no job produced a result: "
                               + "; ".join(p for j in jobs for p in j["problems"])[:4000])
        e2e = {"setup_s": statistics.median(setup),
               "job_s": statistics.median(j["job_s"] for j in plain),
               "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain)}
        values = e2e
        if a.trace:
            values = {m["name"]: statistics.median(j["layers"].get(m["name"], 0.0) for j in traced)
                      for m in metric_specs}
            values["cli.bytes_written"] = statistics.median(j["bytes_written"] for j in traced)
            values["cli.job_cpu_s"] = statistics.median(j["cpu_s"] for j in plain)
            values["trace.overhead_s"] = (statistics.median(j["job_s"] for j in traced)
                                          - e2e["job_s"])
            shutil.copy(traced[0]["spans"], results_dir / f"{name}.spans.json")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}

        meta = metadata(root, env)
        print(f"workload {a.workload}  seed {a.seed}  seconds {a.seconds:g}  trace {a.trace}")
        print("meta " + json.dumps(meta, sort_keys=True))
        print(f"setup_s      {e2e['setup_s']:.4f} s    median of {len(setup)} imports")
        print(f"job_s        {e2e['job_s']:.4f} s    median of {len(plain)} untraced jobs "
              f"({measured_s:.1f} s measured)")
        print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
        print(f"error_rate   {failed / len(jobs):.4f}    {failed} failed / {len(jobs)} attempted")
        if hazard_err is not None:
            print(f"hazard_err   {hazard_err:.4f}    max over causes of median "
                  f"|lambda_hat/lambda - 1| on interior bins (limit {checks.HAZARD_ERR_MAX})")
        for job in jobs:
            for problem in job["problems"]:
                print(f"job {job['k']} FAILED: {problem}")
        if a.trace:
            for m in metric_specs:
                print(f"  {m['name']:<42} {values[m['name']]:.6g} {m['unit']}")

        record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
                  "meta": meta, "setup_s": setup, "hazard_err": hazard_err,
                  "jobs": [{k: v for k, v in j.items() if k not in ("hashes", "outdir", "spans")}
                           for j in jobs],
                  "metrics": metrics}
        (results_dir / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))
        print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

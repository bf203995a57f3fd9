"""mfshift benchmark: three route families, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload zeta-sweep --seed 1 --seconds 30 --trace 0

Each run generates the workload's documents and requests from the seed,
computes every reference, and then starts fresh worker interpreters one at
a time, each sending the whole request list in a closed loop, until the
measuring time is spent.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced workers and reports the
per-layer metrics.  The lines before the last give the environment, every
metric with its unit, each worker's wall time and every failed request; the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_WORKERS = 3  # untraced workers per run
# worker.host_probe's median on the host the bounds were set on (2-core
# Intel Xeon, Python 3.11.7, numpy 2.4.6); end-to-end times are scaled to it
PROBE_REF_S = 0.75
WORKER_TIMEOUT_S = 120
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# a percentile is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100

# per-layer metric -> unit; "<hook>.calls" and "<hook>.self_s" come from
# spans, the rest from counters, checks and -X importtime
PER_LAYER_UNITS = {
    "symbolic.composition_arrays.calls": "count",
    "symbolic.composition_arrays.self_s": "s",
    "symbolic.composition_arrays.classes": "count",
    "symbolic.composition_arrays.reuse_share": "share",
    "symbolic.word_blocks.words": "count",
    "symbolic.tail_sum_matrix.calls": "count",
    "symbolic.tail_sum_matrix.self_s": "s",
    "logsum.logsumexp.calls": "count",
    "logsum.logsumexp.self_s": "s",
    "pressure.bowen_root.calls": "count",
    "pressure.bowen_root.evals": "count",
    "pressure.bowen_root.self_s": "s",
    "pressure.zeta_coefficients.self_s": "s",
    "mfzeta.mf_bowen_fixed.self_s": "s",
    "mfzeta.mf_bowen_shrinking.self_s": "s",
    "mfzeta.constrained_coefficient.calls": "count",
    "mfzeta.constrained_coefficient.self_s": "s",
    "spectrum.beta.calls": "count",
    "spectrum.beta.self_s": "s",
    "spectrum.legendre.calls": "count",
    "spectrum.legendre.self_s": "s",
    "spectrum.sup_spectrum.self_s": "s",
    "spectrum.linprog.calls": "count",
    "spectrum.linprog.self_s": "s",
    "spectrum.variational_solve.calls": "count",
    "spectrum.variational_solve.self_s": "s",
    "model.integrate.calls": "count",
    "model.integrate.self_s": "s",
    "model.entropy.calls": "count",
    "model.entropy.self_s": "s",
    "birkhoff.erg_bowen.self_s": "s",
    "birkhoff.erg_spectrum_variational.self_s": "s",
    "oracle.brute_constrained_sum.calls": "count",
    "oracle.brute_constrained_sum.self_s": "s",
    "oracle.brute_variational.self_s": "s",
    "cli.parse_model.self_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_mfshift_s": "s",
    "mfzeta.fixed_root_err": "abs",
    "mfzeta.shrinking_root_err": "abs",
    "birkhoff.zeta_route_err": "abs",
    "birkhoff.variational_dev": "abs",
    "spectrum.route_dev": "abs",
    "oracle.rel_dev_max": "rel",
    "oracle.variational_rel_dev": "rel",
    "err_max": "abs",
    "trace.overhead_s": "s",
    # end to end, but over ten runs its quartile spread reached 0.3 of its
    # median on a shared 2-core host, beyond any bound a metric may carry
    "req_p50_ms": "ms",
}


class WorkerFailed(RuntimeError):
    pass


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": int(BLAS_THREADS),
        "platform": platform.platform(),
    }


def write_documents(rundir: Path, spec: dict) -> dict:
    """Model and observable files the workers parse, as the CLI would."""
    models = {}
    for name in spec["models"]:
        path = rundir / f"{name}.json"
        path.write_text(json.dumps(dict(workloads.MODELS[name], label=name)))
        models[name] = str(path)
    observables = {}
    for name, doc in spec["observables"].items():
        path = rundir / f"{name}.json"
        path.write_text(json.dumps(doc))
        n = round(len(doc["values"]) ** (1.0 / doc["depth"]))
        observables[name] = (str(path), n)
    return {"src": str(SRC), "models": models, "observables": observables}


def spawn(rundir: Path, tag: str, docs: dict, requests: list, trace: bool,
          probe: bool = False) -> dict:
    """Run one fresh worker to completion; return its output and peak RSS."""
    job_path = rundir / f"{tag}.job.json"
    out_path = rundir / f"{tag}.out.json"
    job_path.write_text(json.dumps(dict(docs, requests=requests, trace=trace, probe=probe)))
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), str(job_path), str(out_path)]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    err_path = rundir / f"{tag}.err"
    with open(err_path, "w") as err, open(os.devnull, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    if proc.returncode != 0 or not out_path.exists():
        tail = "\n".join(stderr.splitlines()[-15:])
        raise WorkerFailed(f"worker {tag} exited with {proc.returncode}:\n{tail}")
    result = json.loads(out_path.read_text())
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if trace:
        with np.load(str(out_path) + ".spans.npz") as spans:
            result["layers"] = tracing.layer_times(spans)
        result["imports"] = tracing.import_times(stderr)
    return result


def resolve_twins(rundir: Path, docs: dict, requests: list) -> None:
    """Fill "twin" references by running the other route, before timing."""
    twins = [i for i, r in enumerate(requests) if r["ref"] == "twin"]
    if not twins:
        return
    out = spawn(rundir, "twins", docs, [dict(requests[i]["twin"]) for i in twins], False)
    for i, res in zip(twins, out["results"]):
        if res["status"] != "ok":
            raise WorkerFailed(f"twin of request {i} failed: {res['status']}")
        requests[i]["ref"] = res["value"]


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values), p))


def latencies_ms(workers: list) -> list:
    return [r["latency_s"] * 1e3 for w in workers for r in w["results"]]


def end_to_end(workers: list, setups: list, probes: list) -> tuple:
    """Metrics with times scaled to the reference host speed, and the raw times.

    The host's speed drifts by a quarter and more over minutes, for every
    process alike.  Times are multiplied by PROBE_REF_S over the run's
    median host_probe time, taken in a fresh interpreter before each worker.
    """
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(w["wall_s"] for w in workers),
    }
    scale = PROBE_REF_S / statistics.median(probes)
    scaled = {name: v * scale for name, v in raw.items()}
    scaled["peak_rss_mb"] = statistics.median(w["peak_rss_mb"] for w in workers)
    return scaled, raw


def per_layer(traced: list, untraced: list, checked: dict) -> dict:
    first = traced[0]
    out = {}
    for metric in PER_LAYER_UNITS:
        hook, _, field = metric.rpartition(".")
        if hook in first["layers"] and field in ("calls", "self_s"):
            if field == "self_s":
                out[metric] = statistics.median(w["layers"][hook]["self_s"] for w in traced)
            else:
                out[metric] = first["layers"][hook]["calls"]
    counts = first["trace_counts"]
    calls = out["symbolic.composition_arrays.calls"]
    out["symbolic.composition_arrays.classes"] = counts["symbolic.composition_arrays.classes"]
    out["symbolic.composition_arrays.reuse_share"] = (
        counts["symbolic.composition_arrays.reused"] / calls if calls else 0.0
    )
    out["symbolic.word_blocks.words"] = counts["symbolic.word_blocks.words"]
    out["pressure.bowen_root.evals"] = counts["pressure.bowen_root.evals"]
    out["setup.import_scipy_s"] = statistics.median(w["imports"]["scipy"] for w in traced)
    out["setup.import_mfshift_s"] = statistics.median(w["imports"]["mfshift"] for w in traced)
    out.update(checked["layer_err"])
    out["err_max"] = checked["err_max"]
    out["trace.overhead_s"] = statistics.median(w["wall_s"] for w in traced) - statistics.median(
        w["wall_s"] for w in untraced
    )
    out["req_p50_ms"] = percentile(latencies_ms(untraced), 50)
    missing = set(PER_LAYER_UNITS) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return out


def check_workers(requests: list, workers: list) -> dict:
    """Check every worker's every result; worst deviations over all of them."""
    failures, layer_err, err_max = [], {}, 0.0
    for k, w in enumerate(workers):
        s = checks.summarize(requests, w["results"])
        failures += [dict(f, worker=k) for f in s["failures"]]
        for name, v in s["layer_err"].items():
            layer_err[name] = max(layer_err.get(name, 0.0), v)
        err_max = max(err_max, s["err_max"])
    return {"failures": failures, "layer_err": layer_err, "err_max": err_max,
            "attempted": len(requests) * len(workers)}


def measure(rundir, docs, requests, seconds, trace):
    """Start workers one at a time while the next should end within ``seconds``.

    Untraced runs start a set-up-only interpreter before each worker, which
    also times the host probe, so that set-up and host speed are sampled
    across the whole run; traced runs alternate untraced and traced workers.
    """
    setups, probes, untraced, traced, spent = [], [], [], [], []
    k = 0
    while True:
        enough = len(untraced) >= (1 if trace else MIN_WORKERS) and (traced or not trace)
        if enough and sum(spent) + statistics.median(spent) > seconds:
            break
        tr = trace and len(traced) < len(untraced)
        if not trace:
            probe = spawn(rundir, f"probe{k}", docs, [], False, probe=True)
            setups.append(probe["setup_s"])
            probes.append(probe["probe_s"])
        t = time.perf_counter()
        (traced if tr else untraced).append(spawn(rundir, f"w{k}", docs, requests, tr))
        spent.append(time.perf_counter() - t)
        k += 1
    setups += [w["setup_s"] for w in untraced]
    return setups, probes, untraced, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still stops and reaps its worker (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "mfshift" / "__init__.py").is_file():
        print(f"error: no mfshift source tree under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    rundir = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.generate(args.workload, args.seed)
        requests = spec["requests"]
        docs = write_documents(rundir, spec)
        resolve_twins(rundir, docs, requests)
        setups, probes, untraced, traced = measure(rundir, docs, requests, args.seconds, trace)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    workers = traced if trace else untraced
    checked = check_workers(requests, untraced + traced)
    if trace:
        values = per_layer(traced, untraced, checked)
        units = PER_LAYER_UNITS
    else:
        values, raw = end_to_end(untraced, setups, probes)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    env = dict(environment(), **workers[0]["versions"])
    samples = latencies_ms(untraced)
    p90 = percentile(samples, 90) if len(samples) >= P90_MIN_SAMPLES else None
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests x "
          f"{len(untraced)} untraced + {len(traced)} traced workers, closed loop, 1 client")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for kind, ws in (("untraced", untraced), ("traced", traced)):
        if ws:
            print(f"{kind} worker wall_s: " + ", ".join(f"{w['wall_s']:.3f}" for w in ws))
    if not trace:
        print("host_probe_s: " + ", ".join(f"{v:.4f}" for v in probes)
              + f" (reference {PROBE_REF_S} s); unscaled: "
              + ", ".join(f"{name} {v:.6g} s" for name, v in raw.items()))
    if trace:
        for hook, bound in traced[0]["trace_bindings"].items():
            print(f"trace hook {hook} bound as {', '.join(bound)}")
    for metric, m in metrics.items():
        print(f"  {metric:45s} {m['value']:.6g} {m['unit']}")
    print(f"  latency samples {len(samples)}, req_p50_ms {percentile(samples, 50):.6g} ms, req_p90_ms "
          + (f"{p90:.6g} ms" if p90 is not None else "not reported (fewer than "
             f"{P90_MIN_SAMPLES} samples)"))
    print(f"  requests {checked['attempted']}, failed {len(checked['failures'])}, "
          f"err_max {checked['err_max']:.3g}")
    for f in checked["failures"]:
        print(f"  FAILED {json.dumps(f)}")
    print(json.dumps({
        "correct": not checked["failures"],
        "attempted": checked["attempted"],
        "failed": len(checked["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

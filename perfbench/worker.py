"""One benchmark worker: a fresh interpreter driving the public mfshift API.

Usage: python3 perfbench/worker.py JOB.json OUT.json

The job names the source tree, the model and observable documents and the
request list.  The worker times its set-up (``import mfshift.cli`` plus
parsing every document), then sends the requests one at a time in a closed
loop and records each one's latency and result.  With ``"trace": true`` it
first installs the outside-in tracer and writes its spans next to OUT.
With ``"probe": true`` it also times ``host_probe``, the host-speed gauge.

Only the standard library is imported before the timed set-up, so that the
set-up time includes numpy and scipy as a CLI invocation pays them.
"""

from __future__ import annotations

import json
import sys
import time


def _box(mf, req):
    return mf.model.TargetBox.interval(req["lo"], req["hi"])


def _depth2_level(mf, spec, eps):
    """Level map with a tail-sensitive depth-2 numerator log p_i + eps*[i == j]."""
    import numpy as np

    phi2 = mf.model.PotentialTable(spec.log_measures[0][:, None] + eps * np.eye(spec.N))
    return mf.model.LevelMap((phi2,), mf.model.PotentialTable(spec.log_ratios))


def run_request(mf, models, observables, req):
    """Send one request; return (value, extra) where extra is JSON-able."""
    import numpy as np

    op = req["op"]
    spec = models.get(req.get("model"))
    if op == "mf_bowen_fixed":
        return mf.mfzeta.mf_bowen_fixed(
            spec, _box(mf, req), n_max=req["n_max"], tol=req["tol"]
        ), None
    if op == "mf_bowen_shrinking":
        res = mf.mfzeta.mf_bowen_shrinking(
            spec, mf.model.TargetBox.point(req["point"]), n_max=req["n_max"],
            tol=req["tol"],
        )
        return res.value, None
    if op == "erg_bowen":
        res = mf.birkhoff.erg_bowen(
            spec, observables[req["observable"]],
            mf.model.TargetBox.point(req["point"]), mode="shrinking",
            n_max=req["n_max"], tol=req["tol"],
        )
        return res.value, None
    if op == "legendre":
        return mf.spectrum.legendre(spec, req["alpha"]).f, None
    if op == "beta":
        return mf.spectrum.beta(spec, req["q"]).beta, None
    if op == "sup_spectrum":
        return mf.spectrum.sup_spectrum(spec, _box(mf, req)).value, None
    if op == "variational_solve":
        res = mf.spectrum.variational_solve(spec, _box(mf, req), objective="dimension")
        return res.value, None
    if op == "erg_spectrum_variational":
        res = mf.birkhoff.erg_spectrum_variational(
            spec, observables[req["observable"]], _box(mf, req)
        )
        return res.value, None
    if op == "compare_constrained":
        phi = mf.model.PotentialTable(spec.log_ratios).scale(req["scale"])
        rep = mf.oracle.compare_constrained(
            spec, phi, _box(mf, req), req["n"], req["mode"],
            _depth2_level(mf, spec, req["eps"]),
        )
        return rep.fast, {"naive": rep.naive, "rel_dev": rep.rel_deviation,
                          "abs_dev": rep.abs_deviation}
    if op == "compare_variational":
        rep = mf.oracle.compare_variational(spec, _box(mf, req), objective="dimension")
        return rep.fast, {"naive": rep.naive, "rel_dev": rep.rel_deviation}
    if op == "zeta_radius":
        phi = mf.model.PotentialTable(np.reshape(req["phi"], (2, 2)))
        coeffs = mf.pressure.zeta_coefficients(phi, req["n_max"])
        est = mf.pressure.radius_estimate(coeffs)
        return est.log_radius, {"log_a": coeffs.log_a[1:].tolist()}
    raise ValueError(f"unknown request op {op!r}")


def host_probe(reps: int = 5) -> float:
    """Seconds for a fixed piece of work that shares no code with mfshift.

    It mixes interpreter work (compiling and calling generated functions),
    many small numpy calls and a few passes over a large array, as the
    workloads do.  One untimed pass first pays the first-call costs.
    """
    import numpy as np

    src = "\n".join(
        f"def f{i}(x):\n    return [x * j for j in range({i % 7 + 3})]" for i in range(1500)
    )
    a = np.linspace(0.0, 1.0, 64)
    b = np.arange(1_000_000, dtype=np.int64)

    def work():
        ns = {}
        exec(compile(src, "<host-probe>", "exec"), ns)
        total = sum(len(ns[f"f{i}"](i)) for i in range(1500))
        for _ in range(4000):
            total += float(np.log(np.exp(a - a.max()).sum()))
        return total + int(np.cumsum(b % 7)[-1]) + int(np.sort(b[::-1] % 1000)[0])

    work()
    t = time.perf_counter()
    for _ in range(reps):
        work()
    return time.perf_counter() - t


def main(argv) -> int:
    job_path, out_path = argv[1], argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])

    t0 = time.perf_counter()
    import mfshift.cli

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    models = {
        name: mfshift.cli.parse_model(path) for name, path in job["models"].items()
    }
    observables = {
        name: mfshift.cli.parse_observable(path, n)
        for name, (path, n) in job["observables"].items()
    }
    setup_s = time.perf_counter() - t0

    import mfshift as mf
    from mfshift.errors import MfShiftError

    results = []
    wall0 = time.perf_counter()
    for i, req in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request = i
        t = time.perf_counter()
        try:
            value, extra = run_request(mf, models, observables, req)
            status = "ok"
        except MfShiftError as exc:
            value, extra, status = None, None, type(exc).__name__
        except Exception as exc:  # recorded and counted as a failed request
            value, extra, status = None, {"error": repr(exc)}, "error"
        latency = time.perf_counter() - t
        if value is not None:
            value = float(value)
        results.append({"latency_s": latency, "status": status,
                        "value": value, "extra": extra})
    wall_s = time.perf_counter() - wall0

    import numpy
    import scipy

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "results": results,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if job.get("probe"):
        out["probe_s"] = host_probe()
    if tracer is not None:
        tracer.save(out_path + ".spans.npz")
        out["trace_counts"] = dict(tracer.counts)
        out["trace_bindings"] = tracer.bindings
    with open(out_path, "w") as fh:
        json.dump(out, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Self-tests of the benchmark's own checking and tracing code.

Run with: python3 -m pytest perfbench/test_perfbench.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _exact_results(requests):
    """Results that reproduce every reference exactly (a perfect program)."""
    out = []
    for req in requests:
        ref = req["ref"]
        if ref == "InfeasibleConstraint":
            out.append({"status": "InfeasibleConstraint", "value": None, "extra": None})
        elif ref == "oracle":
            out.append({"status": "ok", "value": -3.0, "extra": {"naive": -3.0}})
        elif req["op"] == "compare_variational":
            out.append({"status": "ok", "value": ref, "extra": {"naive": ref}})
        elif req["op"] == "zeta_radius":
            out.append({"status": "ok", "value": ref,
                        "extra": {"log_a": list(req["ref_log_a"])}})
        else:
            out.append({"status": "ok", "value": ref, "extra": None})
    return out


@pytest.mark.parametrize("workload", tuple(workloads.GENERATORS))
def test_perturbed_result_is_counted_as_failed(workload):
    requests = workloads.generate(workload, seed=3)["requests"]
    for req in requests:
        if req["ref"] == "twin":
            req["ref"] = 0.5
    results = _exact_results(requests)
    assert checks.summarize(requests, results)["failures"] == []

    i = next(k for k, r in enumerate(requests)
             if isinstance(r["ref"], float) and math.isfinite(r["ref"]))
    results[i] = dict(results[i], value=results[i]["value"] + 3 * requests[i]["tol_check"] + 1e-9)
    failures = checks.summarize(requests, results)["failures"]
    assert [f["index"] for f in failures] == [i]


@pytest.mark.parametrize("workload", tuple(workloads.GENERATORS))
def test_requests_name_only_the_workloads_documents(workload):
    spec = workloads.generate(workload, seed=1)
    for req in spec["requests"]:
        for r in (req, req.get("twin") or {}):
            assert r.get("model") is None or r["model"] in spec["models"]
            assert r.get("observable") is None or r["observable"] in spec["observables"]


def test_documented_outcomes_pass_and_others_fail():
    empty = {"op": "mf_bowen_fixed", "ref": float("-inf"), "tol_check": 0.0}
    assert checks.check(empty, {"status": "ok", "value": float("-inf")})[0]
    assert not checks.check(empty, {"status": "ok", "value": 0.3})[0]
    infeasible = {"op": "variational_solve", "ref": "InfeasibleConstraint", "tol_check": 0.0}
    assert checks.check(infeasible, {"status": "InfeasibleConstraint", "value": None})[0]
    assert not checks.check(infeasible, {"status": "ok", "value": 0.5})[0]
    finite = {"op": "legendre", "ref": 0.8, "tol_check": 1e-8}
    assert not checks.check(finite, {"status": "error", "value": None})[0]
    assert not checks.check(finite, {"status": "ok", "value": float("-inf")})[0]


def test_references_match_known_values():
    quarter = workloads.MODELS["quarter"]
    b, a = workloads.beta_alpha(quarter, 1.0)
    assert b == pytest.approx(0.0, abs=1e-15)
    assert a[0] == pytest.approx(0.8112781244591328, abs=1e-12)
    q = workloads.invert_alpha(quarter, np.array([a[0]]))
    assert q[0] == pytest.approx(1.0, abs=1e-12)
    # depth-1 table lifted to depth 2: radius is the closed-form pressure
    phi = np.log([[0.25, 0.25], [0.75, 0.75]])
    log_a = workloads.depth2_log_coefficients(phi, 12)
    assert log_a[12] == pytest.approx(0.0, abs=1e-12)


def test_self_time_subtracts_children():
    spans = {
        "names": np.array(["a", "b"]),
        "start": np.array([0.0, 1.0, 3.0]),
        "end": np.array([10.0, 2.0, 5.0]),
        "name": np.array([0, 1, 1]),
        "parent": np.array([-1, 0, 0]),
    }
    layers = tracing.layer_times(spans)
    assert layers["a"] == {"calls": 1, "self_s": 7.0}
    assert layers["b"] == {"calls": 2, "self_s": 3.0}


def test_import_times_count_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:       200 |        200 |   scipy.optimize",
        "import time:        10 |        500 | mfshift",
        "import time:        20 |         20 | mfshift.cli",
    ])
    times = tracing.import_times(text)
    assert times["scipy"] == pytest.approx(350e-6)
    assert times["mfshift"] == pytest.approx(520e-6)


def test_missing_hook_fails_loudly():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    tracer = tracing.Tracer(hooks=tracing.HOOKS + ("spectrum.no_such_function",))
    with pytest.raises(tracing.MissingHook):
        tracer.install()


def test_times_are_scaled_to_the_reference_host_speed():
    import run

    workers = [{"wall_s": w, "peak_rss_mb": 100.0} for w in (4.0, 5.0, 9.0)]
    probes = [run.PROBE_REF_S * f for f in (1.1, 1.25, 2.0)]
    scaled, raw = run.end_to_end(workers, [0.5, 0.6, 0.7], probes)
    assert raw == {"setup_s": 0.6, "wall_s": 5.0}
    assert scaled["setup_s"] == pytest.approx(0.6 / 1.25)
    assert scaled["wall_s"] == pytest.approx(5.0 / 1.25)
    assert scaled["peak_rss_mb"] == 100.0


def test_declared_metrics_match_the_runner():
    import json

    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS

"""Checking worker results against the references computed before timing.

A request passes when its result is within the request's stated tolerance
of its reference, or when it ends in the documented outcome for its input:
-inf for an empty target, InfeasibleConstraint for an infeasible
variational target.  Anything else, including an exception the API does
not document, is a failed request; failures are reported, never dropped.
"""

from __future__ import annotations

import math

from workloads import TOL_ROUTE

# The per-layer deviation each request kind is reported under.
LAYER_ERRORS = {
    "fixed": "mfzeta.fixed_root_err",
    "shrinking": "mfzeta.shrinking_root_err",
    "birkhoff": "birkhoff.zeta_route_err",
    "spectrum": "spectrum.route_dev",
    "oracle": "oracle.rel_dev_max",
    "oracle_variational": "oracle.variational_rel_dev",
    "birkhoff_variational": "birkhoff.variational_dev",
}


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def check(req: dict, res: dict) -> tuple:
    """(ok, abs_err, dev) for one request.

    ``dev`` is the deviation the tolerance applies to (relative for oracle
    twins, absolute otherwise); ``abs_err`` is |result - reference|.  Both
    are None when the outcome is not a number to compare.
    """
    ref = req["ref"]
    tol = req["tol_check"]
    status = res["status"]
    if ref == "InfeasibleConstraint":
        return status == "InfeasibleConstraint", None, None
    if status != "ok":
        return False, None, None
    value = res["value"]
    if req["op"] == "compare_constrained":
        naive, fast = res["extra"]["naive"], value
        if math.isinf(naive) or math.isinf(fast):
            return naive == fast, None, None
        dev = _rel(naive, fast)
        return dev <= tol, abs(naive - fast), dev
    if req["op"] == "compare_variational":
        dev = _rel(res["extra"]["naive"], value)
        err = abs(value - ref)
        return err <= TOL_ROUTE and dev <= tol, err, dev
    if req["op"] == "zeta_radius":
        if len(res["extra"]["log_a"]) != len(req["ref_log_a"]):
            return False, None, None
        pairs = list(zip(res["extra"]["log_a"], req["ref_log_a"])) + [(value, ref)]
        dev = max(_rel(a, b) for a, b in pairs)
        err = max(abs(a - b) for a, b in pairs)
        return dev <= tol, err, dev
    if ref == float("-inf"):
        return value == ref, None, None
    if not math.isfinite(value):
        return False, None, None
    err = abs(value - ref)
    return err <= tol, err, err


def summarize(requests: list, results: list) -> dict:
    """Failures and per-layer worst deviations of one worker's results."""
    if len(results) != len(requests):
        raise ValueError("worker returned a different number of results")
    failures = []
    worst = {name: 0.0 for name in LAYER_ERRORS.values()}
    err_max = 0.0
    for i, (req, res) in enumerate(zip(requests, results)):
        ok, err, dev = check(req, res)
        if dev is not None:
            layer = LAYER_ERRORS[req["layer"]]
            worst[layer] = max(worst[layer], dev)
        if err is not None:
            err_max = max(err_max, err)
        if not ok:
            failures.append({
                "index": i,
                "op": req["op"],
                "model": req.get("model"),
                "status": res["status"],
                "value": res["value"],
                "ref": req["ref"],
                "tol": req["tol_check"],
                "err": err,
            })
    return {"failures": failures, "layer_err": worst, "err_max": err_max}

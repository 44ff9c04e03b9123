"""End-to-end benchmark of the ``eulersum`` command line.

    python3 perfbench/run.py --workload {expand,reduce,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/``.  One client drives ``eulersums.cli.main(argv)`` in this process,
in a closed loop (each request is sent when the previous one returns), on
one thread.  Module caches start cold and persist across the run's requests.
Every output is checked (see ``checks.py``); a request fails when it exits
non-zero or a check rejects its output.

Times are reported at the speed of a reference host (see ``calibration.py``).
On a shared 2-vCPU machine the same requests ran up to 1.7 times slower from
one moment to the next, which would swamp every bound; process CPU time
slowed just as much.  So a fixed calibration loop is timed just before and
just after each request, and each request's time is multiplied by
``CALIBRATION_REF_S`` (the loop's time on the reference host) over the mean
of the two.  Each set-up sample is rescaled by the loop timed in the fresh
interpreter itself, right after it is ready.  The raw sum is printed in the
report beside the rescaled one.

Outputs are written to ``perfbench/out/`` between requests, and checked only
after the run's peak memory is read, so the checks' memory stays out of
``peak_rss_mb``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same requests run with spans and
counts around every layer (see ``tracing.py``), the spans are written to
``perfbench/out/``, and the JSON holds the per-layer metrics, among them the
tracing overhead measured inside the span wrappers.  Earlier lines are a
readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
from calibration import at_reference_speed, calibrate  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, argv_for, draw  # noqa: E402

SETUP_SAMPLES = 20


def load_units() -> dict[str, dict[str, str]]:
    """Metric units by kind ("end_to_end", "per_layer"), from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


# Runs in a fresh interpreter: prints when the CLI was ready, then times the
# calibration loop in the same process.  The child may run on the other vCPU
# than this process, whose calibrations would not tell its speed.
_READY = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "import eulersums.cli\n"
    "eulersums.cli.build_parser()\n"
    "ready = time.monotonic()\n"
    "sys.path.insert(0, {here!r})\n"
    "from calibration import calibrate\n"
    "print(ready, calibrate())\n"
)


def measure_setup() -> float:
    """Median time, at reference speed, from starting a fresh interpreter
    until the CLI is ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _READY.format(src=SRC, here=HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        ready, speed = map(float, proc.stdout.split())
        samples.append(at_reference_speed(ready - t0, speed))
    return statistics.median(samples)


def import_program():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "eulersums", "cli.py")):
        raise SystemExit(f"error: no program source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import eulersums
    from eulersums import cli, expansion, numerics
    from eulersums.algebra import LinComb

    if os.path.dirname(os.path.dirname(os.path.abspath(eulersums.__file__))) != SRC:
        raise SystemExit(f"error: eulersums was imported from {eulersums.__file__}, not {SRC}")
    table = os.path.join(os.path.dirname(eulersums.__file__), "tables", "starter_weight12.jsonl")
    errors = (expansion.UnsupportedHypothesisError, expansion.DegreeCapError)
    return cli, numerics, LinComb, errors, table


def check(workload: str, argv, rc, stdout: str, goldens) -> tuple[list[str], bool]:
    """(every failure reason, whether printed bounds reach --tol)."""
    if rc != 0:
        return [f"exit code {rc}"], False
    if workload == "verify":
        reason, met = checks.parse_verify(stdout, float(workloads.VERIFY_TOL))
        return [reason] if reason else [], met
    reasons = []
    if goldens.get(checks.golden_key(argv)) != checks.golden_digest(stdout):
        reasons.append("stdout differs from the golden")
    if workload == "expand":
        reason = checks.check_expand_output(stdout)
        if reason:
            reasons.append(reason)
    return reasons, True


def run_requests(workload: str, reqs, cli, table: str, out_dir: str, tracer=None):
    """Closed loop over the request list.

    Each request's stdout is written to ``out_dir`` between requests, untimed,
    so that the checks can run after the run's peak memory is read.  Returns
    (raw latencies, latencies at reference speed, exit codes).
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    raw, around, codes = [], [], []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        before = calibrate()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv_for(workload, req.index, table))
        except Exception as e:  # a crash is a failed request, not a failed run
            rc = f"{type(e).__name__}: {e}"
        raw.append(time.perf_counter() - t0)
        after = calibrate()
        around.append((before, after))
        codes.append(rc)
        with open(os.path.join(out_dir, f"{i:04d}.out"), "w", encoding="utf-8") as f:
            f.write(out.getvalue())
    return raw, [at_reference_speed(t, (b + a) / 2) for t, (b, a) in zip(raw, around)], codes


def check_outputs(workload: str, reqs, codes, table: str, out_dir: str):
    """(failures, number of requests whose printed bounds reach --tol).

    The outputs are deleted when every check passes.
    """
    goldens = checks.load_goldens()
    failures, bound_met = [], 0
    for i, (req, rc) in enumerate(zip(reqs, codes)):
        with open(os.path.join(out_dir, f"{i:04d}.out"), encoding="utf-8") as f:
            stdout = f.read()
        reasons, met = check(workload, argv_for(workload, req.index, table), rc, stdout, goldens)
        bound_met += met
        if reasons:
            failures.append(f"{req.index}: " + "; ".join(reasons))
    if not failures:  # keep the outputs only when there is something to look at
        shutil.rmtree(out_dir)
    return failures, bound_met


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten requests beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    units = load_units()
    cli, numerics, lincomb_cls, errors, table = import_program()
    reqs = draw(args.workload, args.seed, args.seconds)
    out_dir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-trace{args.trace}")
    report = [f"workload {args.workload}, seed {args.seed}, one closed-loop client"]
    report += ["  " + line for line in workloads.summary(reqs)]

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(cli, numerics, lincomb_cls, errors)
        try:
            raw, _, codes = run_requests(args.workload, reqs, cli, table, out_dir, tracer)
        finally:
            tracer.uninstall()
        failures, _ = check_outputs(args.workload, reqs, codes, table, out_dir)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        metrics = tracer.metrics()
        units = units["per_layer"]
        report.append("layer self time (s):")
        for layer, t in tracer.layer_self_times().items():
            report.append(f"  {layer:<10} {t:.4f}")
        report.append(f"tracing overhead {tracer.overhead_s:.4f} s over {len(tracer.spans)} spans "
                      f"(traced raw wall {sum(raw):.4f} s)")
    else:
        setup_s = measure_setup()
        raw, latencies, codes = run_requests(args.workload, reqs, cli, table, out_dir)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures, bound_met = check_outputs(args.workload, reqs, codes, table, out_dir)
        pct, tail_s = tail(latencies)
        metrics = {
            "wall_s": sum(latencies),
            "req_p50_s": statistics.median(latencies),
            "req_tail_s": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024.0,
            "passed_frac": 1.0 - len(failures) / len(reqs),
            "bound_met_frac": bound_met / len(reqs),
        }
        units = units["end_to_end"]
        report.append(f"req_tail_s is the p{pct:.1f} latency of {len(reqs)} requests")
        report.append(f"raw wall time {sum(raw):.4f} s, {sum(latencies):.4f} s at reference speed")

    for f in failures:
        print("FAILED " + f, file=sys.stderr)
    report += [f"{k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    print("\n".join(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(reqs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

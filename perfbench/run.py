#!/usr/bin/env python3
"""The repository benchmark. Run from the repository root:

    python3 perfbench/run.py --workload verify|census|emit --seed N \
        --seconds S --trace 0|1 [--tiny]

With ``--trace 0`` it measures set-up in fresh processes, then makes
``passes(S)`` timed passes of the workload back to back and reports the
end-to-end metrics; pass times are wall time. With ``--trace 1`` it wraps
the ortho7 layer functions, makes one untraced and one traced pass, writes
the spans to ``.bench_out/`` and reports the per-layer metrics and the
tracing overhead. Every pass is checked after its timing; a run whose
checks fail prints ``"correct": false`` with no metrics and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the run's metadata. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# A fresh interpreter that imports ortho7 and performs one workload's set-up.
_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.WORKLOADS[sys.argv[3]].setup(sys.argv[4] == '1')")


def probe_setup(workload: str, tiny: bool, n: int) -> list[float]:
    """Wall seconds of `n` fresh processes doing import plus set-up."""
    env = dict(os.environ, ORTHO7_BACKEND="numpy")
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _PROBE, str(SRC), str(HERE),
                                 workload, "1" if tiny else "0"], env=env)
        # A blocking wait returns as soon as the child exits; a wait with a
        # timeout polls every 50 ms, which would quantise the probe times.
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        code = proc.wait()
        times.append(time.perf_counter() - t0)
        watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return times


def passes(seconds: float, nominal_pass_s: float) -> int:
    """Passes in a run: as many nominal passes as fit in `seconds`, at least
    one. The count depends on the arguments only, never on measured speed,
    so every run of a workload does the same work."""
    return max(1, int(seconds // nominal_pass_s))


def measure(run_pass, n: int):
    """Closed loop: `n` passes back to back. Returns their wall times and
    outcomes."""
    walls, outcomes = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        outcomes.append(run_pass())
        walls.append(time.perf_counter() - t0)
    return walls, outcomes


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "ortho7").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "census", "emit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ortho7" / "__init__.py").is_file():
        print(f"perfbench: no ortho7 sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    os.environ["ORTHO7_BACKEND"] = "numpy"
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import ortho7
    from ortho7 import kernels

    import workloads
    from layers import LAYERS, layer_metrics
    from spans import Tracer

    if Path(ortho7.__file__).resolve().parent != SRC / "ortho7":
        print(f"perfbench: imported ortho7 from {ortho7.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    backend = getattr(kernels, "BACKEND", "numpy")
    if backend != "numpy":
        print(f"perfbench: kernels.BACKEND is {backend!r}, need 'numpy'",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    def one_pass():
        return wl.run_pass(args.seed, args.tiny, OUT)

    meta = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "trace": args.trace, "backend": backend,
            "numpy": numpy.__version__, "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "git_sha": _git_sha(),
            "src_sha256": _src_digest()}

    if args.trace:
        tracer = Tracer(LAYERS)
        tracer.install(ortho7)
        wl.setup(args.tiny)
        tracer.uninstall()
        (untraced_s,), outcomes = measure(one_pass, 1)
        tracer.install(ortho7)
        (traced_s,), traced = measure(one_pass, 1)
        tracer.uninstall()
        outcomes += traced
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({"meta": meta, **tracer.dump()}))
        meta["trace_file"] = str(trace_path.relative_to(ROOT))
        meta["dropped_layers"] = tracer.missing
        check_times = ({r.name: r.elapsed for r in traced[0]}
                       if args.workload == "verify" else {})
        metrics = layer_metrics(tracer, check_times, workloads.CENSUS_WORKERS,
                                traced_s, untraced_s)
    else:
        setup = probe_setup(args.workload, args.tiny, 1 if args.tiny else SETUP_PROBES)
        wl.setup(args.tiny)
        walls, outcomes = measure(one_pass, passes(args.seconds, wl.nominal_pass_s))
        pass_s = statistics.median(walls)
        meta.update(setup_samples=setup, pass_samples=walls,
                    samples={"setup_s": len(setup), "pass_s": len(walls),
                             "peak_rss_mb": 1})
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "pass_s": (pass_s, "s"),
                   "peak_rss_mb": (_peak_rss_mb(), "MB")}
        if args.workload == "verify":
            meta["verify_s"] = pass_s
        elif args.workload == "census":
            meta["census_cands_per_s"] = workloads.census_candidates(args.tiny) / pass_s
        else:
            meta["emit_rows_per_s"] = workloads.emit_rows(outcomes[0]) / pass_s

    checks = [c for out in outcomes for c in wl.checks(out, args.seed, args.tiny)]
    for out in outcomes:
        if isinstance(out, workloads.Emission):
            out.path.unlink()
    failed = [c for c in checks if not c[1]]
    meta["fail_ratio"] = len(failed) / len(checks)
    meta["failed_checks"] = [f"{name}: {detail}" for name, _, detail in failed]
    correct = not failed
    if correct:
        samples = meta.get("samples", {})
        for name, (value, unit) in metrics.items():
            n = f" (median of {samples[name]})" if samples.get(name, 1) > 1 else ""
            print(f"{name} = {value:.6g} {unit}{n}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": len(checks), "failed": len(failed),
        "metrics": ({name: {"value": value, "unit": unit}
                     for name, (value, unit) in metrics.items()}
                    if correct else {})}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

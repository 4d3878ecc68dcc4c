"""qcomm benchmark: one workload per process, closed loop, one client.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Each operation is sent only after the previous one returned, and its output
is checked against planted answers outside the timed region. Times are
reported at a fixed machine speed: a reference kernel (reference.py) runs
between operations, and each operation's wall time is multiplied by
REF_S / (mean kernel time on either side of it). Raw wall times are printed
before the result line.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 the run alternates untraced and traced operations and reports
per-layer metrics from spans recorded around qcomm's module attributes.
Spans are written to .perfbench_out/spans-<workload>.json.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 5
# One BLAS thread: on a 2-CPU machine shared with other work, two spinning
# BLAS threads made run-to-run spread wider.
BLAS_THREADS = 1
# Bounds a run whose operations fail fast or whose checks are slow.
WALL_FACTOR = 4
WORKLOAD_NAMES = ("enumerate", "roots", "contexts", "cli-json")

# k: operation index; wall: seconds; scale: REF_S / local kernel time.
Op = namedtuple("Op", "k wall scale traced verdict")


def blas_env():
    return {
        v: str(BLAS_THREADS)
        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }


def setup_seconds(ref):
    """Median time, at reference speed, of a fresh interpreter importing qcomm."""
    from reference import REF_S

    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    before = ref()
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qcomm"], env=env, cwd=ROOT, check=True)
        wall = time.perf_counter() - t0
        after = ref()
        times.append(wall * REF_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def machine():
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def tail(samples):
    """(value, percentile, rank) of the highest percentile with at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    xs = sorted(samples)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), rank


def run_ops(wl, seconds, ref, tracer=None):
    """Closed loop until the timed operations add up to `seconds` of wall
    time, or the loop, checks included, has run WALL_FACTOR times as long.

    Returns a list of Op. With a tracer, every second operation runs with
    the tracer installed.
    """
    from reference import REF_S
    from workloads import Verdict

    try:
        wl.op(0)  # warm-up: lazy imports and allocator growth
    except Exception:  # the timed operations will fail and be counted
        traceback.print_exc(file=sys.stderr)
    ops = []
    busy = 0.0
    k = 1
    before = ref()
    start = time.perf_counter()
    while busy < seconds and time.perf_counter() - start < WALL_FACTOR * seconds:
        traced = tracer is not None and k % 2 == 0
        if traced:
            tracer.op = k
            tracer.install()
        t0 = time.perf_counter()
        try:
            dt, out = wl.op(k)
        except Exception:  # an operation that raises is a failed operation
            dt, out = time.perf_counter() - t0, None
            traceback.print_exc(file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
        after = ref()
        verdict = Verdict(False)
        if out is not None:
            try:
                verdict = wl.check(k, out)
            except Exception:  # output the oracle cannot read is a failure
                traceback.print_exc(file=sys.stderr)
        del out
        ops.append(Op(k, dt, REF_S / ((before + after) / 2), traced, verdict))
        before = after
        busy += dt
        k += 1
    return ops


def end_to_end(ops, setup_s):
    times = [op.wall * op.scale for op in ops]
    busy = sum(times)
    value, pct, rank = tail(times)
    print(f"op_s.tail is p{pct:.1f}: rank {rank} of {len(times)} samples")
    print(
        f"wall time: op_s.p50 {statistics.median(op.wall for op in ops):.4f} s; "
        f"machine ran at {statistics.median(op.scale for op in ops):.3f} x reference speed"
    )
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (value, "s"),
        "ops_per_s": (len(times) / busy, "1/s"),
        "solutions_per_s": (sum(op.verdict.solutions for op in ops) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Per-layer times: metric -> (span name, 0 for inclusive or 1 for self time).
LAYER_TIMES = {
    "structured.circulant_context_s": ("structured.circulant_context", 0),
    "structured.weighted_circulant_context_s": ("structured.weighted_circulant_context", 0),
    "structured.companion_context_s": ("structured.companion_context", 0),
    "algebra.make_context_s": ("algebra.make_context", 0),
    "linalg.eig_s": ("linalg.eig", 0),
    "solver.build_scalar_polys_s": ("solver.build_scalar_polys", 0),
    "poly.roots_s": ("poly.roots", 0),
    "poly.cluster_roots_s": ("poly.cluster_roots", 0),
    "solver.solve_s": ("solver.solve", 0),
    "solver.solve.self_s": ("solver.solve", 1),
    "algebra.from_diag_coords_s": ("algebra.from_diag_coords", 0),
    "problems.load_problem.self_s": ("problems.load_problem", 1),
    "cli.report_text_s": ("cli.solve_text", 1),
    "cli.report_json_s": ("cli.solve_json", 1),
    "cli.check_s": ("cli.check", 0),
}
# Per-layer call counts: metric -> span name.
LAYER_CALLS = {
    "algebra.diag_coords.calls": "algebra.diag_coords",
    "poly.roots.calls": "poly.roots",
    "poly.cluster_roots.calls": "poly.cluster_roots",
    "algebra.from_diag_coords.calls": "algebra.from_diag_coords",
}


def cli_span(args):
    argv = args[0]
    if argv[0] == "check":
        return "cli.check"
    return "cli.solve_json" if "--json" in argv else "cli.solve_text"


def make_tracer():
    from qcomm import algebra, cli, linalg, poly, problems, solver, structured

    from spans import Tracer

    tr = Tracer()
    for module, attr in [
        (structured, "circulant_context"),
        (structured, "weighted_circulant_context"),
        (structured, "companion_context"),
        (algebra, "make_context"),
        (linalg, "eig"),
        (algebra, "diag_coords"),
        (algebra, "from_diag_coords"),
        (solver, "build_scalar_polys"),
        (solver, "count_solutions"),
        (problems, "load_problem"),
        (poly, "cluster_roots"),
    ]:
        tr.patch(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")
    tr.patch(cli, "main", cli_span)
    tr.patch(
        poly, "roots", "poly.roots",
        on_call=lambda t, args, out: t.add_count("poly.roots.degree_sum", args[0].degree),
    )
    tr.patch(
        solver, "solve", "solver.solve",
        on_call=lambda t, args, out: t.add_count("solver.solutions", len(out.solutions)),
    )
    return tr


def per_layer(ops, tracer, probe=()):
    """Per-layer metrics from the traced operations; times per operation at
    reference speed, medians over the traced operations. probe holds the
    verdicts of the workload's untimed multiple-root probe, if it has one."""
    from reference import REF_S

    traced = [op for op in ops if op.traced]
    rows = tracer.per_op()

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def row(op, name):
        return rows.get(op.k, {}).get(name, (0.0, 0.0, 0))

    m = {}
    for metric, (name, col) in LAYER_TIMES.items():
        m[metric] = (med(row(op, name)[col] * op.scale for op in traced), "s")
    for metric, name in LAYER_CALLS.items():
        m[metric] = (med(row(op, name)[2] for op in traced), "count")
    m["poly.roots.degree_sum"] = (
        med(tracer.counts.get((op.k, "poly.roots.degree_sum"), 0.0) for op in traced),
        "count",
    )
    roots_calls = sum(row(op, "poly.roots")[2] for op in traced)
    cluster_calls = sum(row(op, "poly.cluster_roots")[2] for op in traced)
    m["poly.cluster_passes_per_poly"] = (
        cluster_calls / roots_calls if roots_calls else 0.0, "count"
    )
    polys = sum(op.verdict.polys for op in ops)
    m["count.correct_ratio"] = (
        sum(op.verdict.polys_correct for op in ops) / polys if polys else 0.0, "ratio"
    )
    probe_polys = sum(v.polys for v in probe)
    m["count.multiple_root_correct_ratio"] = (
        sum(v.polys_correct for v in probe) / probe_polys if probe_polys else 0.0, "ratio"
    )
    solve_s = sum(row(op, "solver.solve")[0] * op.scale for op in traced)
    solutions = sum(tracer.counts.get((op.k, "solver.solutions"), 0.0) for op in traced)
    flagged = sum(op.verdict.residual_flagged for op in traced)
    m["solver.us_per_solution"] = (1e6 * solve_s / solutions if solutions else 0.0, "us")
    m["solver.residual_flagged"] = (flagged / solutions if solutions else 0.0, "ratio")
    m["cli.report_bytes"] = (med(op.verdict.report_bytes for op in traced), "bytes")
    # Time in an operation that no root span covers: harness glue and
    # unwrapped qcomm code called directly by the workload.
    covered = {}
    for _, t0, t1, parent, k in tracer.spans:
        if parent < 0:
            covered[k] = covered.get(k, 0.0) + (t1 - t0)
    m["trace.unattributed_s"] = (
        med((op.wall - covered.get(op.k, 0.0)) * op.scale for op in traced), "s"
    )
    p50_traced = med(op.wall * op.scale for op in traced)
    p50_plain = med(op.wall * op.scale for op in ops if not op.traced)
    m["trace.overhead_ratio"] = (p50_traced / p50_plain if p50_plain else 0.0, "ratio")
    m["machine.ref_s"] = (med(REF_S / op.scale for op in ops), "s")
    traced_s = sum(op.wall for op in traced)
    self_s = sum(r[1] for op in traced for r in rows.get(op.k, {}).values())
    print(
        f"trace: layer self times cover {self_s / traced_s if traced_s else 0:.4f} of "
        f"{len(traced)} traced operations; op_s.p50 traced {p50_traced:.4f} s, "
        f"untraced {p50_plain:.4f} s"
    )
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qcomm", "__init__.py")):
        sys.stderr.write(f"no qcomm sources under {SRC}; run from a checkout root\n")
        return 2
    # BLAS reads its thread count once, when numpy is first imported.
    os.environ.update(blas_env())
    sys.path.insert(0, SRC)
    import numpy as np
    from reference import ReferenceKernel

    ref = ReferenceKernel()
    ref()  # warm-up
    setup_s = None if args.trace else setup_seconds(ref)

    import qcomm

    if not os.path.abspath(qcomm.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"qcomm imported from {qcomm.__file__}, not {SRC}\n")
        return 2
    import workloads

    info = machine()
    print("machine: " + json.dumps(info))
    rng = np.random.default_rng([args.seed, WORKLOAD_NAMES.index(args.workload)])
    wl = workloads.WORKLOADS[args.workload](rng, OUT_DIR)
    tracer = make_tracer() if args.trace else None
    ops = run_ops(wl, args.seconds, ref, tracer)
    probe = wl.probe() if hasattr(wl, "probe") else []

    failed = sum(not op.verdict.ok for op in ops)
    print(f"failed_ratio: {failed / len(ops):.4f} ({failed} of {len(ops)} operations)")
    if probe:
        polys = sum(v.polys for v in probe)
        wrong = polys - sum(v.polys_correct for v in probe)
        print(
            f"known defect, not counted in failed (ROADMAP item 3): {wrong} of {polys} "
            f"polynomials with planted double or triple roots miscounted"
        )
    if tracer is None:
        metrics = end_to_end(ops, setup_s)
    else:
        metrics = per_layer(ops, tracer, probe)
        os.makedirs(OUT_DIR, exist_ok=True)
        meta = dict(info, workload=args.workload, seed=args.seed, seconds=args.seconds)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.json"), meta)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

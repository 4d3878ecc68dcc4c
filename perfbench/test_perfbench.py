"""Tests of the benchmark itself: tiny smoke runs and oracle rejections.

Run from the repository root with:  python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import planted  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import ReferenceKernel  # noqa: E402

REF = ReferenceKernel()


def tiny(name, rng, tmp_path):
    return {
        "enumerate": lambda: workloads.Enumerate(rng, d=3, n=2, pool=2),
        "roots": lambda: workloads.Roots(rng, d=2, n=64, pool=4),
        "contexts": lambda: workloads.Contexts(rng, 8, 8, 8, 6, pool=1),
        "cli-json": lambda: workloads.CliJson(rng, str(tmp_path), d=2, n=2, pool=1),
    }[name]()


def test_leja_expansion_keeps_planted_roots_where_angle_order_does_not():
    z = np.exp(2j * np.pi * np.arange(128) / 128 + 0.01j)
    planted.check_planted(planted.expand_roots(z), z, np.ones(128, dtype=int))
    naive = np.array([1.0 + 0.0j])
    for r in z:
        naive = np.concatenate(([0.0j], naive)) - r * np.concatenate((naive, [0.0j]))
    with pytest.raises(planted.PlantingError):
        planted.check_planted(naive, z, np.ones(128, dtype=int))


def test_planted_multiple_roots_pass_the_generator_check():
    rng = np.random.default_rng(0)
    pts = planted.circle_points(rng, 40)
    mult = np.ones(40, dtype=int)
    mult[:3] = [2, 3, 2]
    c = planted.planted_poly(pts, mult)
    assert len(c) - 1 == mult.sum()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_smoke_run(name, tmp_path):
    wl = tiny(name, np.random.default_rng(1), tmp_path)
    ops = run.run_ops(wl, 0.05, REF)
    assert ops
    metrics = run.end_to_end(ops, setup_s=0.5)
    assert all(v > 0 for v, _ in metrics.values())
    for op in ops:
        assert op.verdict.ok, (name, op.k)


def test_roots_probe_checks_every_multiple_root_polynomial(tmp_path):
    wl = tiny("roots", np.random.default_rng(1), tmp_path)
    verdicts = wl.probe()
    assert len(verdicts) == 2 * len(workloads.Roots.PROBE_MULTIPLICITIES)
    assert all(v.polys == 2 for v in verdicts)
    tracer = run.make_tracer()
    m = run.per_layer(run.run_ops(wl, 0.05, REF, tracer), tracer, verdicts)
    ratio = m["count.multiple_root_correct_ratio"][0]
    assert ratio == sum(v.polys_correct for v in verdicts) / 8


@pytest.mark.xfail(reason="multiple roots are split by the fixed clustering radius (ROADMAP item 3)")
def test_roots_probe_counts_multiple_roots_as_planted(tmp_path):
    wl = tiny("roots", np.random.default_rng(1), tmp_path)
    assert all(v.ok for v in wl.probe())


def test_traced_tiny_run_reports_layers(tmp_path):
    wl = tiny("enumerate", np.random.default_rng(2), tmp_path)
    tracer = run.make_tracer()
    ops = run.run_ops(wl, 0.2, REF, tracer)
    m = run.per_layer(ops, tracer)
    assert m["poly.cluster_passes_per_poly"][0] == 3.0
    # One call per solution (2^3) plus one per coefficient (2).
    assert m["algebra.from_diag_coords.calls"][0] == 10
    assert m["solver.solve_s"][0] >= m["solver.solve.self_s"][0] > 0
    assert m["count.correct_ratio"][0] == 1.0
    from qcomm import solver

    assert solver.solve.__name__ == "solve"  # wrappers removed after the run


def test_traced_cli_run_splits_report_time(tmp_path):
    wl = tiny("cli-json", np.random.default_rng(2), tmp_path)
    tracer = run.make_tracer()
    m = run.per_layer(run.run_ops(wl, 0.2, REF, tracer), tracer)
    for name in ("cli.report_text_s", "cli.report_json_s", "cli.check_s",
                 "problems.load_problem.self_s", "solver.solve_s"):
        assert m[name][0] > 0, name
    assert m["cli.report_bytes"][0] > 0


@pytest.fixture
def solved(tmp_path):
    wl = tiny("enumerate", np.random.default_rng(3), tmp_path)
    _, out = wl.op(0)
    return wl, out


def test_oracle_accepts_the_solver_output(solved):
    wl, out = solved
    assert wl.check(0, out).ok


def test_oracle_rejects_perturbed_u(solved):
    wl, out = solved
    p, eq = wl.cases[0]
    s = out.solutions[3]
    s.u = s.u.copy()
    s.u[1] += 1e-4
    s.X = (eq.ctx.T * s.u) @ eq.ctx.T_inv
    assert not wl.check(0, out).ok


def test_oracle_rejects_perturbed_matrix(solved):
    wl, out = solved
    out.solutions[0].X = out.solutions[0].X * (1 + 1e-4)
    assert not wl.check(0, out).ok


def test_oracle_rejects_count_off_by_one(solved):
    wl, out = solved
    out.counts = [out.counts[0] + 1] + out.counts[1:]
    assert not wl.check(0, out).ok
    assert not oracle.check_counts([2, 3], 6, [2, 2])


def test_oracle_rejects_cli_counts_off_by_one(tmp_path):
    wl = tiny("cli-json", np.random.default_rng(4), tmp_path)
    _, out = wl.op(0)
    assert wl.check(0, out).ok
    out["doc"]["counts"][0] += 1
    assert not wl.check(0, out).ok


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark must find every name of the program it reads.

perfbench/tracing.py patches named functions and methods of the program at
run time, and the workloads of perfbench/jobs.py call and read others
(TimePolynomial.substitute, TimeMonomial.exps, cutjoin.exp_series,
TauExpansion.provenance, ...); a rename or deletion in src/ would only show
when the benchmark runs.  The first test installs and uninstalls the tracer
on the same module namespace perfbench/run.py builds and checks every
wrapped attribute comes back; the second runs each workload's jobs, checks
and negative control once, untimed and in-process."""

import importlib.util
import json
import sys
import tempfile
import types
from pathlib import Path

import pytest

from bgwtau import algebra, cli, cutjoin, operators, rational, report, schur, verify, zcalculus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def program():
    """The module namespace perfbench/run.py's load_program builds."""
    return types.SimpleNamespace(algebra=algebra, cli=cli, cutjoin=cutjoin, operators=operators,
                                 rational=rational, report=report, schur=schur, verify=verify,
                                 zcalculus=zcalculus)


def bindings(bg, targets):
    """Every (owner, name) the tracer patches, with its current value."""
    out = {}
    modules = [algebra, cli, cutjoin, operators, rational, report, schur, verify, zcalculus]
    for owner, attr, _, _ in targets(bg):
        if isinstance(owner, type):
            out[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(owner, attr)
        for mod in modules:
            for name, value in vars(mod).items():
                if value is original:
                    out[(mod, name)] = value
    return out


def test_tracer_install_uninstall_restores_every_target():
    tracing = load_perfbench("tracing")
    bg = program()
    before = bindings(bg, tracing.targets)
    tracer = tracing.Tracer(bg)
    tracer.install()
    try:
        for (owner, name), value in before.items():
            assert vars(owner)[name] is not value, f"{owner.__name__}.{name} not wrapped"
        assert tracer.patches
    finally:
        tracer.uninstall()
    for (owner, name), value in before.items():
        assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"


@pytest.mark.parametrize("workload", ["expand", "oracle", "ks", "verify"])
def test_each_workload_runs_and_checks_in_process(tmp_path, workload):
    """build, every job, check and negative_control of one workload at the
    default seed, caches cleared by perfbench/run.py's own Caches before and
    after (the ks control corrupts a stored basis-vector coefficient): every
    check passes with the recorded case counts, every output has its
    recorded digest, and the control fails."""
    run, jobs = load_perfbench("run"), load_perfbench("jobs")
    bg = program()
    expected = json.loads(run.EXPECTED.read_text())[workload]
    ctx = jobs.Context(bg, run.draw_ns(run.DEFAULT_SEED, rational.QQ),
                       lambda: tempfile.mkdtemp(dir=tmp_path))
    w = jobs.WORKLOADS[workload]
    caches = run.Caches(bg)
    caches.clear()
    try:
        out = {job.name: job.fn() for job in w.build(ctx, w.inputs(ctx))}
        assert {name: why for name, why in w.check(ctx, out, expected["cases"]).items() if why} == {}
        assert {name: run.digest(bg, o) for name, o in out.items()} == expected["digests"]
        caches.clear()
        assert w.negative_control(ctx, out)
    finally:
        caches.clear()

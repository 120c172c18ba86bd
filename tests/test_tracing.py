"""The benchmark's run-time tracer must find every name it wraps.

perfbench/tracing.py patches named functions and methods of the program at
run time; a rename or deletion in src/ would only show when the benchmark
runs with tracing on.  This test installs and uninstalls the tracer on the
same module namespace perfbench/run.py builds and checks every wrapped
attribute comes back."""

import importlib.util
import types
from pathlib import Path

from bgwtau import algebra, cli, cutjoin, operators, rational, report, schur, verify, zcalculus

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
    tracing = load_tracing()
    bg = types.SimpleNamespace(algebra=algebra, cli=cli, cutjoin=cutjoin, operators=operators,
                               rational=rational, report=report, schur=schur, verify=verify,
                               zcalculus=zcalculus)
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

"""The benchmark's tracer (``perfbench/tracing.py``) wraps the package's
functions by module binding; these tests catch an API change that would stop
``perfbench/run.py --trace 1`` from installing."""

import importlib.util
import os
import sys

import bregpcg
from conftest import bumped_band

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "bregpcg" or name.startswith("bregpcg.")
        for attr, value in vars(module).items()
    }


def test_tracer_installs_and_restores_every_binding():
    tracer = load_tracing().Tracer()
    before = package_bindings()
    try:
        tracer.install()
        patched = {(module.__name__, attr) for module, attr, _ in tracer._patched}
    finally:
        tracer.uninstall()
    after = package_bindings()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    # every wrapped function was found at home, and the builders reach the
    # eigensolver and the sketches through bindings the tracer replaces
    homes = {(f"bregpcg.{module}", func) for module, func, *_ in tracer._targets()}
    assert homes <= patched
    assert ("bregpcg.precond", "lanczos_tr") in patched


def test_traced_builds_are_one_span_each_and_reach_their_kernels():
    # the tracer counts each precond.build_* span as one build attempt, so no
    # public builder may call another, and the kernels must be looked up
    # through module bindings at call time
    from bregpcg.precond import build

    s = bregpcg.CsrMatrix.from_dense(bumped_band(80))
    factor = bregpcg.ic0(s)
    eig = bregpcg.EigsParams(slack=10)
    sketch = bregpcg.SketchParams(oversample=10)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        build("breg_alpha", s, factor, 4, alpha=0.5, eig=eig, sketch=sketch, positive_method="nystrom")
        build("nys_indef", s, factor, 4, sketch=sketch)
        build("svd", s, factor, 4)
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert [n for n in names if n.startswith("precond.build")] == [
        "precond.build_alpha", "precond.build_randomized", "precond.build_exact"
    ]
    assert names.count("sketch.nystrom") == 1
    assert names.count("sketch.nystrom_indefinite") == 1
    assert names.count("eigsolve.lanczos_tr") == 2  # the eta probe and the bottom run
    assert "bregman.scaled_error" in names


def test_traced_krylov_alpha_zero_build_is_one_lanczos_run():
    # with the Krylov positive part both sides come from one two-ended run,
    # also when floor(alpha * r) = 0
    from bregpcg.precond import build

    s = bregpcg.CsrMatrix.from_dense(bumped_band(80))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        build("breg_alpha", s, bregpcg.ic0(s), 4, alpha=0.0, eig=bregpcg.EigsParams(slack=10),
              positive_method="krylov_schur")
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert names.count("eigsolve.lanczos_tr") == 1


def test_every_public_name_resolves():
    assert [name for name in bregpcg.__all__ if not hasattr(bregpcg, name)] == []

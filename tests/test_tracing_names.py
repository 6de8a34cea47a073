"""The benchmark's tracer patches juliadim functions by name from outside the
package (perfbench/tracing.py).  A deleted or renamed traced name would only
fail the benchmark's own tests, so this checks every name here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = _tracing()
    for mod_name, attrs in tracing.TRACED.items():
        mod = importlib.import_module(f"juliadim.{mod_name}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                assert cls is not None, f"{mod_name}.{cls_name} is gone"
                assert callable(cls.__dict__.get(meth)), f"{mod_name}.{attr} is gone"
            else:
                assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr} is gone"


def test_tracer_patches_reimported_names():
    # per-origin-step landmark counts need the name dynamics imported from
    # modelmap to be the traced one
    import juliadim.dynamics as dynamics
    import juliadim.modelmap as modelmap

    tracing = _tracing()
    orig = modelmap.qN_landmarks
    assert dynamics.qN_landmarks is orig
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dynamics.qN_landmarks is modelmap.qN_landmarks is not orig
    finally:
        tracer.uninstall()
    assert dynamics.qN_landmarks is modelmap.qN_landmarks is orig

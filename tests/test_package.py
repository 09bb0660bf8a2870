"""The package's public names, and the bench tracer's hooks into it."""

import importlib
from pathlib import Path

import pytest

import cfosync


def test_public_names_resolve_and_the_scalar_layer_is_gone():
    for name in cfosync.__all__:
        assert hasattr(cfosync, name), name
    for name in ("Gaussian1D", "FLAT", "edge_message", "Measurement"):
        assert not hasattr(cfosync, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("cfosync.gaussian")


def test_every_bench_tracer_hook_resolves(monkeypatch):
    # a hook whose target is gone is recorded as absent, and its per-layer
    # bench metric then reads empty instead of failing
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer
    hooks = tracer.Tracer()
    hooks.install()
    try:
        assert hooks.absent == {}
    finally:
        hooks.uninstall()

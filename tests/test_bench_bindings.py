"""The package still has every binding the traced benchmark run wraps.

bench/layers.py wraps package functions by name, and a binding that is
gone makes a traced run exit 1 before its first traced iteration.  The
bench modules are imported read-only; their wrappers are installed on
the package modules and then restored.
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spinsphere import chsh, cli, frames, oracle, spin

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_run_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracing

    program = SimpleNamespace(spin=spin, chsh=chsh, frames=frames, oracle=oracle, cli=cli)
    modules = (spin, chsh, frames, oracle, cli)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    with tracer.installed(lambda t: layers.install(t, program)):
        assert spin.simulate_ensemble is not before[0]["simulate_ensemble"]
        e1, _, e3 = np.eye(3)
        cfg = spin.ExperimentConfig(n_trials=100, seed=1, direction_pairs=[(e3, e1)])
        # the ensemble wrapper reads the s, lam and r_a columns of its result
        trials = spin.simulate_ensemble(cfg)
        spin.raw_correlation(trials, *cfg.resolved_pairs()[0])
        spin.correlation_curve(cfg)
    for module, bindings in zip(modules, before):
        assert vars(module).keys() == bindings.keys()
        assert all(vars(module)[name] is value for name, value in bindings.items())
    names = [s["name"] for s in tracer.spans]
    assert names.count("spin.ensemble") == 1 and names.count("spin.curve") == 1
    ensemble = next(s for s in tracer.spans if s["name"] == "spin.ensemble")
    assert ensemble["attrs"]["trials"] == 100
    assert ensemble["attrs"]["bytes"] == trials.s.nbytes + trials.lam.nbytes + trials.r_a.nbytes


def test_traced_chsh_searches_run_under_the_wrappers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracing

    program = SimpleNamespace(spin=spin, chsh=chsh, frames=frames, oracle=oracle, cli=cli)
    tracer = tracing.Tracer()
    with tracer.installed(lambda t: layers.install(t, program)):
        mc = chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(mc_trials=1000))
        saw = chsh.maximize_chsh("so3_saw")
    assert mc.chsh_value == 2.0 and saw.chsh_value == 2.0
    names = [s["name"] for s in tracer.spans]
    assert names.count("chsh.search.monte_carlo") == 1
    assert names.count("chsh.search.so3_saw") == 1
    # the guard is gone; its wrapped names remain bound and are never called
    assert names.count("chsh.guard") == 0
    metrics = layers.metrics(tracer, 0, 0)
    assert metrics["chsh.guard.so3_saw.restarts"] == 0
    assert metrics["chsh.search.monte_carlo.s"] > 0.0


def test_traced_pooled_curve_runs_under_the_wrappers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracing

    monkeypatch.setattr(spin, "_usable_cpus", lambda: 2)
    program = SimpleNamespace(spin=spin, chsh=chsh, frames=frames, oracle=oracle, cli=cli)
    # four blocks on the default 37-angle grid, split between two workers
    cfg = spin.ExperimentConfig(n_trials=3 * spin.BLOCK_TRIALS + 3, seed=1)
    plain = spin.correlation_curve(cfg)
    tracer = tracing.Tracer()
    with tracer.installed(lambda t: layers.install(t, program)):
        pooled = spin.correlation_curve(cfg, threads=2)
    assert [(r.raw_mc, r.raw_stderr) for r in pooled] == [(r.raw_mc, r.raw_stderr) for r in plain]
    assert [s["name"] for s in tracer.spans].count("spin.curve") == 1
    metrics = layers.metrics(tracer, 0, 0)
    assert metrics["spin.curve.s"] > 0.0
    # one call per law for the whole curve
    assert metrics["geometry.distance.calls"] == 2


def test_pooled_monte_carlo_search_keeps_the_wrapped_bindings(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracing

    program = SimpleNamespace(spin=spin, chsh=chsh, frames=frames, oracle=oracle, cli=cli)
    modules = (spin, chsh, frames, oracle, cli)
    before = [dict(vars(m)) for m in modules]
    # wrapped by the bench although the search calls none of them
    kept = ((chsh, "simulate_ensemble"), (chsh, "monte_carlo_correlator"), (spin, "raw_correlation"))
    tracer = tracing.Tracer()
    with tracer.installed(lambda t: layers.install(t, program)):
        for module, name in kept:
            assert getattr(module, name) is not before[modules.index(module)][name]
        cfg = chsh.OptimizerConfig(mc_trials=1000, threads=2)
        report = chsh.maximize_chsh("monte_carlo", cfg)
    assert report.chsh_value == 2.0
    for module, bindings in zip(modules, before):
        assert vars(module).keys() == bindings.keys()
        assert all(vars(module)[name] is value for name, value in bindings.items())
    names = [s["name"] for s in tracer.spans]
    assert names.count("chsh.search.monte_carlo") == 1


def test_traced_torsion_check_runs_under_the_wrappers(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracing

    program = SimpleNamespace(spin=spin, chsh=chsh, frames=frames, oracle=oracle, cli=cli)
    modules = (spin, chsh, frames, oracle, cli)
    before = [dict(vars(m)) for m in modules]
    out = tmp_path / "torsion.json"
    tracer = tracing.Tracer()
    with tracer.installed(lambda t: layers.install(t, program)):
        assert cli.main(["torsion-check", "--n-points", "5", "--output", str(out)]) == 0
    for module, bindings in zip(modules, before):
        assert vars(module).keys() == bindings.keys()
        assert all(vars(module)[name] is value for name, value in bindings.items())
    names = [s["name"] for s in tracer.spans]
    # one stacked call each for the whole command, none through the connection
    assert names.count("frames.curvature") == 1 and names.count("frames.torsion") == 1
    metrics = layers.metrics(tracer, 0, 0)
    assert metrics["frames.curvature.s"] > 0.0 and metrics["frames.torsion.s"] > 0.0
    assert metrics["frames.connection.calls"] == 0
    assert metrics["geometry.embed_round.calls"] > 0

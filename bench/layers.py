"""Which spinsphere bindings the traced run wraps, and the per-layer metrics.

Layers are the package's modules: spin, chsh, frames, oracle, geometry,
algebra and cli (errors does no work).  Each public function is wrapped
once at every module binding its callers resolve at call time, e.g.
chsh.simulate_ensemble as well as spin.simulate_ensemble.  cli.oracle is
the oracle module itself, so it is not wrapped a second time.  One
private function, chsh._random_restart_guard, is wrapped only to read the
coplanar value its restarts must beat.  A binding that a later version of
the package no longer has fails the traced run.

metrics() describes one traced iteration.  Counts depend only on that
iteration's inputs, so a run reports the counts of its first traced
iteration, which are equal between runs at one seed.
"""

from __future__ import annotations

import tracemalloc

from tracing import union_length

KINDS = ("su2_cosine", "so3_saw", "monte_carlo")
COMMANDS = ("distances", "simulate", "oracle", "torsion-check", "chsh")
SOURCES = ("__init__", "algebra", "chsh", "cli", "errors", "frames", "geometry", "oracle", "spin")
IMPORTS = ("numpy", "scipy.optimize", "scipy.integrate", "spinsphere") + tuple(
    f"spinsphere.{m}" for m in SOURCES if m != "__init__"
)
WIN_MARGIN = 1e-6  # a restart "wins" when it beats the coplanar value by this much
MIB = 2.0**20


def install(tracer, program):
    """Wrap every traced binding of the imported program modules."""
    spin, chsh, frames, oracle, cli = (
        program.spin, program.chsh, program.frames, program.oracle, program.cli
    )
    tracer.wrap(spin, "correlation_curve", tracer.spanned("spin.curve"))
    for module in (spin, chsh):
        tracer.wrap(module, "simulate_ensemble", _ensemble(tracer))
    tracer.wrap(spin, "raw_correlation", tracer.spanned("spin.reduce", note=_trial_pairs))
    for attr in ("standard_score_correlation", "scalar_product_correlation"):
        tracer.wrap(spin, attr, tracer.spanned("spin.reduce"))
    tracer.wrap(oracle, "sign_model_correlation", tracer.spanned("oracle"))
    for module, attr in (
        (spin, "su2_distance"),
        (spin, "so3_distance"),
        (chsh, "so3_distance"),
        (cli, "su2_distance"),
        (cli, "so3_distance"),
    ):
        tracer.wrap(module, attr, tracer.counter("geometry.distance"))
    tracer.wrap(frames, "embed_round", tracer.counter("geometry.embed_round"))
    tracer.wrap(frames, "weitzenbock_connection", tracer.spanned("frames.connection"))
    tracer.wrap(frames, "curvature_tensor", tracer.spanned("frames.curvature"))
    tracer.wrap(frames, "torsion_tensor", tracer.spanned("frames.torsion"))
    tracer.wrap(frames, "round_metric_sectional", tracer.spanned("frames.control"))
    tracer.wrap(chsh, "maximize_chsh", tracer.spanned(_search_name))
    tracer.wrap(chsh, "_random_restart_guard", tracer.spanned("chsh.guard_stage", note=_coplanar))
    tracer.wrap(chsh, "minimize", tracer.spanned("chsh.guard", note=_restart))
    tracer.wrap(chsh, "su2_cosine_correlator", tracer.counter("chsh.correlator.su2_cosine"))
    tracer.wrap(chsh, "so3_saw_correlator", tracer.counter("chsh.correlator.so3_saw"))
    mc = tracer.counter("chsh.correlator.monte_carlo")
    tracer.wrap(chsh, "monte_carlo_correlator", lambda factory: lambda *a, **k: mc(factory(*a, **k)))


def _ensemble(tracer):
    def make(fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                with tracer.span("spin.ensemble") as record:
                    trials = fn(*args, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            record["attrs"].update(
                trials=len(trials),
                peak_bytes=peak,
                bytes=int(trials.s.nbytes + trials.lam.nbytes + trials.r_a.nbytes),
            )
            return trials

        return wrapper

    return make


def _trial_pairs(args, kwargs, result):
    return {"trial_pairs": len(args[0] if args else kwargs["trials"])}


def _search_name(args, kwargs):
    return "chsh.search." + (args[0] if args else kwargs["correlation_kind"])


def _coplanar(args, kwargs, result):
    return {"coplanar": float(args[1] if len(args) > 1 else kwargs["coplanar_value"])}


def _restart(args, kwargs, result):
    return {"nfev": int(result.nfev), "value": -float(result.fun)}


# metrics fixed by an iteration's inputs rather than by the host
COUNT_SUFFIXES = (".calls", ".restarts", ".nfev", ".win_ratio", "bytes", ".peak_mb")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, run: int, output_bytes: int) -> dict:
    """Per-layer metrics from the spans and counts of traced iteration `run`."""
    spans = [s for s in tracer.spans if s["run"] == run]
    by_id = {s["id"]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)
    calls, seconds = {}, {}
    for (name, _, r), (c, t) in tracer.counted.items():
        if r == run:
            calls[name] = calls.get(name, 0) + c
            seconds[name] = seconds.get(name, 0.0) + t

    def dur(group):
        return sum(s["end"] - s["start"] for s in group)

    def ancestor(span, prefix):
        while span is not None and not span["name"].startswith(prefix):
            span = by_id.get(span["parent"])
        return span

    m = {}
    ens = named.get("spin.ensemble", [])
    m["spin.ensemble.s"] = dur(ens)
    m["spin.ensemble.calls"] = len(ens)
    m["spin.ensemble.trials_per_s"] = _ratio(sum(s["attrs"]["trials"] for s in ens), dur(ens))
    m["spin.ensemble.peak_mb"] = max((s["attrs"]["peak_bytes"] for s in ens), default=0) / MIB
    m["spin.ensemble.bytes"] = max((s["attrs"]["bytes"] for s in ens), default=0)

    red = named.get("spin.reduce", [])
    wall = union_length((s["start"], s["end"]) for s in red)
    m["spin.reduce.s"] = wall
    m["spin.reduce.calls"] = len(red)
    m["spin.reduce.busy_s"] = dur(red)
    m["spin.reduce.parallelism"] = _ratio(dur(red), wall)
    pairs = sum(s["attrs"].get("trial_pairs", 0) for s in red)
    m["spin.reduce.trial_pairs_per_s"] = _ratio(pairs, wall)
    m["spin.curve.s"] = dur(named.get("spin.curve", []))

    orc = named.get("oracle", [])
    m["oracle.s"] = dur(orc)
    m["oracle.calls"] = len(orc)
    m["oracle.s_per_angle"] = _ratio(dur(orc), len(orc))

    for name in ("geometry.distance", "geometry.embed_round"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = seconds.get(name, 0.0)

    conn = named.get("frames.connection", [])
    m["frames.connection.calls"] = len(conn)
    m["frames.connection.s"] = dur(conn)
    curv, tors = named.get("frames.curvature", []), named.get("frames.torsion", [])
    m["frames.curvature.s"] = dur(curv)
    m["frames.torsion.s"] = dur(tors)
    m["frames.control.s"] = dur(named.get("frames.control", []))
    m["frames.points_per_s"] = _ratio(len(curv), dur(curv) + dur(tors))

    for k in KINDS:
        search = named.get(f"chsh.search.{k}", [])
        guard = [s for s in named.get("chsh.guard", []) if ancestor(s, f"chsh.search.{k}")]
        inner_ens = [s for s in ens if ancestor(s, f"chsh.search.{k}")]
        name = f"chsh.correlator.{k}"
        m[f"chsh.search.{k}.s"] = dur(search)
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = seconds.get(name, 0.0)
        m[f"{name}.evals_per_s"] = _ratio(calls.get(name, 0), seconds.get(name, 0.0))
        m[f"chsh.pre_guard.{k}.s"] = dur(search) - dur(guard) - dur(inner_ens)
        m[f"chsh.guard.{k}.s"] = dur(guard)
        m[f"chsh.guard.{k}.restarts"] = len(guard)
        m[f"chsh.guard.{k}.nfev"] = sum(s["attrs"]["nfev"] for s in guard)
        wins = 0
        for s in guard:
            stage = by_id.get(s["parent"])
            coplanar = stage["attrs"].get("coplanar") if stage else None
            if coplanar is not None and s["attrs"]["value"] > coplanar + WIN_MARGIN:
                wins += 1
        m[f"chsh.guard.{k}.win_ratio"] = _ratio(wins, len(guard))

    self_time = tracer.self_times()
    overhead = 0.0
    for c in COMMANDS:
        group = named.get(f"cli.{c}", [])
        m[f"cli.{c}.s"] = dur(group)
        overhead += sum(self_time[s["id"]] for s in group)
    m["cli.overhead.s"] = overhead
    m["cli.output_bytes"] = output_bytes
    return m

"""Per-layer metrics of a traced run, computed from its spans.

Set-up metrics are per code build (spans under a `setup` root); trial
metrics are per traced trial (spans under a `trial` root) unless the name
says per draw or per call.  A `fastbp` span belongs to the encoder (`enc`)
when its nearest non-fastbp ancestor is a sampler span, otherwise to the
decoder (`dec`).  A layer's self time is its spans' time minus the time of
their direct children; the trial roots' self time is the benchmark's own,
unattributed time.  Metrics of a layer that a workload bypasses read 0.
`trace.overhead_share` compares each traced trial with the untraced run of
the same trial inputs just before it.
"""

from collections import defaultdict

import numpy as np

LAYERS = ("sparsemat", "fastbp", "sampler", "channel", "lossy", "models")

PER_LAYER = {
    "sparsemat.sample_sparse_matrix_ms": "ms",
    "sparsemat.row_reduce_ms": "ms",
    "sparsemat.row_reduce_calls": "count",
    "sparsemat.dense_bytes": "bytes",
    "sparsemat.suffix_ranks_ms": "ms",
    "sparsemat.suffix_ranks_calls": "count",
    "sparsemat.unique_completion_ms": "ms",
    "sparsemat.unique_completion_calls": "count",
    "fastbp.dec.us_per_edge_iter": "us",
    "fastbp.dec.iters_per_decode": "count",
    "fastbp.dec.converged_share": "ratio",
    "fastbp.edges": "count",
    "fastbp.enc.build_ms": "ms",
    "fastbp.enc.run_calls_per_draw": "count",
    "fastbp.enc.iters_per_draw": "count",
    "fastbp.enc.us_per_edge_iter": "us",
    "fastbp.condition_us": "us",
    "sampler.exact_stepper_build_ms": "ms",
    "sampler.draw_ms": "ms",
    "sampler.steps_per_draw": "count",
    "sampler.restarts_per_draw": "count",
    "sampler.dead_ends": "count",
    "sampler.draws_per_s": "1/s",
    "channel.spec_build_s": "s",
    "channel.encode_ms_p50": "ms",
    "channel.decode_ms_p50": "ms",
    "channel.decode_failures": "count",
    "lossy.spec_build_s": "s",
    "lossy.encode_ms_p50": "ms",
    "lossy.decode_ms_p50": "ms",
    "lossy.distortion_per_letter": "ratio",
    "models.sample_us": "us",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **{f"{layer}.calls_per_trial": "count" for layer in LAYERS},
    "bench.unattributed_ms": "ms",
    "trace.trial_ms": "ms",
    "trace.untraced_trial_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.attributed_share": "ratio",
}

DRAWS = ("sampler._ExactEngine.draw", "sampler._SumProductEngine.draw",
         "sampler._UniformEngine.draw")
ENCODES = ("channel.ChannelEncoder.encode", "lossy.encode_reproduction")


def _bp_run(args):
    bp = args[0]
    before = bp.iterations
    return lambda converged: {"iters": bp.iterations - before, "edges": bp.E,
                              "converged": bool(converged)}


PROBES = {
    "fastbp.CosetBP.run": _bp_run,
    "fastbp.CosetBP.marginals": lambda args: lambda res: {"x_hat": np.argmax(res, axis=1)},
    "sparsemat.row_reduce": lambda args: lambda ech: {"bytes": ech.reduced.nbytes},
    "channel.decode_bp": lambda args: lambda out: {"ok": out.success},
}


def _side(span) -> str:
    p = span.parent
    while p is not None and p.layer == "fastbp":
        p = p.parent
    return "enc" if p is not None and p.layer == "sampler" else "dec"


def _ratio(a, b) -> float:
    return float(a) / b if b else 0.0


def _p50_ms(spans) -> float:
    return float(np.median([s.duration for s in spans])) * 1e3 if spans else 0.0


def layer_metrics(spans, traced, untraced) -> dict:
    """{name: (value, unit)} for every PER_LAYER metric.

    spans: the tracer's spans; traced/untraced: the Trial records of the
    traced pass and of the untraced pass over the same trial indices.
    """
    setup_roots = [s for s in spans if s.parent is None and s.name == "setup"]
    trial_roots = [s for s in spans if s.parent is None and s.name == "trial"]
    builds, n = max(len(setup_roots), 1), max(len(trial_roots), 1)
    by_phase = {"setup": defaultdict(list), "trial": defaultdict(list)}
    for s in spans:
        if s.parent is not None and s.root.name in by_phase:
            by_phase[s.root.name][s.name].append(s)
    setup, trial = by_phase["setup"], by_phase["trial"]

    def total(items):
        return sum(s.duration for s in items)

    def ms_per(items, per):
        return total(items) * 1e3 / per

    runs = trial["fastbp.CosetBP.run"]
    dec_runs = [s for s in runs if _side(s) == "dec"]
    enc_runs = [s for s in runs if _side(s) == "enc"]
    conditions = trial["fastbp.CosetBP.condition"]
    draws = [s for name in DRAWS for s in trial[name]]
    sp_draws = trial["sampler._SumProductEngine.draw"]
    clones = [s for s in trial["fastbp.CosetBP.clone"] if _side(s) == "enc"]
    steps = [s for s in conditions if _side(s) == "enc"] + \
        trial["sampler.ExactStepper.step_pmf"]
    encodes = [s for name in ENCODES for s in trial[name]]
    samples = [s for name, items in trial.items()
               if name.startswith("models.") and name.endswith(".sample") for s in items]
    reductions = setup["sparsemat.row_reduce"]

    def edge_iter_us(items):
        work = sum(s.info["edges"] * s.info["iters"] for s in items)
        return _ratio(total(items) * 1e6, work)

    trial_s = sum(s.duration for s in trial_roots)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = dict.fromkeys(LAYERS, 0)
    for items in trial.values():
        for s in items:
            self_s[s.layer] += s.self_time
            calls[s.layer] += 1
    unattributed = sum(s.self_time for s in trial_roots)
    # both passes ran the same trial inputs, failed trials included
    traced_ms = _ratio(sum(t.seconds for t in traced) * 1e3, len(traced))
    plain_ms = _ratio(sum(t.seconds for t in untraced) * 1e3, len(untraced))
    distortions = [t.distortion for t in traced if t.distortion is not None]

    values = {
        "sparsemat.sample_sparse_matrix_ms":
            ms_per(setup["sparsemat.sample_sparse_matrix"], builds),
        "sparsemat.row_reduce_ms": ms_per(reductions, builds),
        "sparsemat.row_reduce_calls": len(reductions) / builds,
        "sparsemat.dense_bytes": sum(s.info["bytes"] for s in reductions) / builds,
        "sparsemat.suffix_ranks_ms": ms_per(trial["sparsemat.suffix_ranks"], n),
        "sparsemat.suffix_ranks_calls": len(trial["sparsemat.suffix_ranks"]) / n,
        "sparsemat.unique_completion_ms":
            ms_per(trial["sparsemat.unique_completion"], n),
        "sparsemat.unique_completion_calls":
            len(trial["sparsemat.unique_completion"]) / n,
        "fastbp.dec.us_per_edge_iter": edge_iter_us(dec_runs),
        "fastbp.dec.iters_per_decode":
            _ratio(sum(s.info["iters"] for s in dec_runs), len(dec_runs)),
        "fastbp.dec.converged_share":
            _ratio(sum(s.info["converged"] for s in dec_runs), len(dec_runs)),
        "fastbp.edges": _ratio(sum(s.info["edges"] for s in dec_runs), len(dec_runs)),
        "fastbp.enc.build_ms": ms_per([s for s in trial["fastbp.CosetBP.__init__"]
                                       if _side(s) == "enc"], n),
        "fastbp.enc.run_calls_per_draw": _ratio(len(enc_runs), len(draws)),
        "fastbp.enc.iters_per_draw":
            _ratio(sum(s.info["iters"] for s in enc_runs), len(draws)),
        "fastbp.enc.us_per_edge_iter": edge_iter_us(enc_runs),
        "fastbp.condition_us": _ratio(total(conditions) * 1e6, len(conditions)),
        "sampler.exact_stepper_build_ms":
            ms_per(trial["sampler.ExactStepper.__init__"], n),
        "sampler.draw_ms": _ratio(total(draws) * 1e3, len(draws)),
        "sampler.steps_per_draw": _ratio(len(steps), len(draws)),
        "sampler.restarts_per_draw": _ratio(len(clones) - len(sp_draws), len(draws)),
        "sampler.dead_ends": sum(1 for s in draws if s.error == "DeadEndError"),
        "sampler.draws_per_s": _ratio(len(draws), total(encodes)),
        "channel.spec_build_s":
            total(setup["channel.ChannelCodeSpec.__post_init__"]) / builds,
        "channel.encode_ms_p50": _p50_ms(trial["channel.ChannelEncoder.encode"]),
        "channel.decode_ms_p50": _p50_ms(trial["channel.decode_bp"]),
        "channel.decode_failures":
            sum(1 for s in trial["channel.decode_bp"] if s.info and not s.info["ok"]),
        "lossy.spec_build_s":
            total(setup["lossy.LossyCodeSpec.__post_init__"]) / builds,
        "lossy.encode_ms_p50": _p50_ms(trial["lossy.encode_reproduction"]),
        "lossy.decode_ms_p50": _p50_ms(trial["lossy.decode"]),
        "lossy.distortion_per_letter": float(np.mean(distortions)) if distortions else 0.0,
        "models.sample_us": _ratio(total(samples) * 1e6, len(samples)),
        **{f"{layer}.self_ms": self_s[layer] * 1e3 / n for layer in LAYERS},
        **{f"{layer}.calls_per_trial": calls[layer] / n for layer in LAYERS},
        "bench.unattributed_ms": unattributed * 1e3 / n,
        "trace.trial_ms": trial_s * 1e3 / n,
        "trace.untraced_trial_ms": plain_ms,
        "trace.overhead_share": _ratio(traced_ms, plain_ms) - 1.0 if plain_ms else 0.0,
        "trace.attributed_share": _ratio(trial_s - unattributed, trial_s),
    }
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER.items()}

"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the modules of ``src/mimobc``. ``fixtures`` only generates
inputs (set-up), and ``report`` and ``errors`` hold plain data, so none of
them is traced.
"""

from __future__ import annotations

from spans import Tracer

LAYERS = ("region", "estimators", "matrices", "model", "verifier", "cli")

VERIFIER_CHECKS = (
    "check_cramer_rao",
    "check_fisher_shift",
    "check_debruijn",
    "check_dembo",
    "check_fisher_dpi",
    "check_fisher_convolution",
    "check_line_integral_entropy",
    "check_f_epsilon",
)

# (span name, module, attribute); several attributes may share one name
FUNCTIONS = [
    ("region.trace_boundary", "region", "trace_boundary"),
    ("region.weighted_sum_rate", "region", "weighted_sum_rate"),
    ("region.rate_tuple", "region", "rate_tuple"),
    ("region.CovarianceSplit.validate", "region", "CovarianceSplit.validate"),
    ("estimators.mixture_fisher_quad", "estimators", "mixture_fisher_quad"),
    ("estimators.mixture_entropy_quad", "estimators", "mixture_entropy_quad"),
    ("estimators.fisher_conditional", "estimators", "fisher_conditional"),
    ("estimators.entropy_conditional", "estimators", "entropy_conditional"),
    *[(f"matrices.{f}", "matrices", f) for f in (
        "symmetrize", "logdet", "inv_pd", "min_eig", "is_psd", "loewner_leq",
        "sqrt_psd", "matrix_line_integral",
    )],
    ("model.coarsen", "model", "coarsen"),
    ("model.gaussian_entropy", "model", "gaussian_entropy"),
    ("model.MixtureSource", "model", "MixtureSource.__init__"),
    ("model.adapters", "model", "channel_from_dict"),
    ("model.adapters", "model", "source_from_dict"),
    ("model.adapters", "model", "hierarchy_from_dict"),
    ("verifier.converse_walkthrough", "verifier", "converse_walkthrough"),
    ("verifier.run_inequality_suite", "verifier", "run_inequality_suite"),
    *[(f"verifier.{f}", "verifier", f) for f in VERIFIER_CHECKS],
    ("cli.main", "cli", "main"),
]

# functions whose inclusive time is reported as well (none calls itself)
TOTALS = (
    "region.trace_boundary",
    "region.weighted_sum_rate",
    "estimators.mixture_fisher_quad",
    "estimators.mixture_entropy_quad",
    "matrices.matrix_line_integral",
    "verifier.converse_walkthrough",
    "verifier.run_inequality_suite",
    "cli.main",
)


def _count_boundary_points(tracer, args, kwargs):
    weight_list = args[1] if len(args) > 1 else kwargs["weight_list"]
    tracer.counters["region.boundary_points"] += len(weight_list)


def _count_quad_points(name, default_order):
    def on_call(tracer, args, kwargs):
        src = args[0] if args else kwargs["src"]
        order = args[2] if len(args) > 2 else kwargs.get("order")
        if order is None:
            order = default_order[src.dim]
        tracer.counters[f"{name}.points"] += order ** src.dim * src.num_components
    return on_call


def _wrap_field(tracer, args, kwargs):
    """Give the line integral's field its own span, so the integral's self
    time excludes the field evaluations. The span belongs to the layer that
    defined the field."""
    def wrap(field):
        layer = field.__module__.rsplit(".", 1)[-1]
        return tracer.wrap(f"{layer}.line_integral_field", field)

    if args:
        return (wrap(args[0]), *args[1:]), kwargs
    return args, {**kwargs, "field": wrap(kwargs["field"])}


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; returns the names not found."""
    import mimobc.estimators as est

    # the order the package uses when the caller passes none; used only to
    # compute the ``.points`` counters
    default_order = est._DEFAULT_QUAD_ORDER
    hooks = {
        "region.trace_boundary": (_count_boundary_points, None),
        "estimators.mixture_fisher_quad": (
            _count_quad_points("estimators.mixture_fisher_quad", default_order), None),
        "estimators.mixture_entropy_quad": (
            _count_quad_points("estimators.mixture_entropy_quad", default_order), None),
        "matrices.matrix_line_integral": (None, _wrap_field),
    }
    targets = [
        (name, module, attr, *hooks.get(name, (None, None)))
        for name, module, attr in FUNCTIONS
    ]
    return tracer.install(targets)


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    spans = tracer.summary()
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out: dict[str, float] = {}
    for name in dict.fromkeys(n for n, _, _ in FUNCTIONS):
        s = spans.get(name, zero)
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    for name in TOTALS:
        out[f"{name}.total_s"] = spans.get(name, zero)["total_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s["self_s"] for n, s in spans.items() if n.split(".", 1)[0] == layer
        )
        out[f"{layer}.errors"] = tracer.errors[layer]
    points = tracer.counters["region.boundary_points"]
    evals = out["region.weighted_sum_rate.calls"]
    out["region.evals_per_point"] = evals / points if points else 0.0
    for name in ("estimators.mixture_fisher_quad", "estimators.mixture_entropy_quad"):
        out[f"{name}.points"] = tracer.counters[f"{name}.points"]
    return out

"""The layers the traced run measures: the public functions of each module
of ``polobstruct``, and the per-layer metric names derived from them."""

MODULES = ("intlinalg", "cyclotomic", "twist", "galmod", "kergroup", "cli")

# (module, metric function name, attribute path inside the module).
# ``_matmul`` is the one routine behind ``Matrix.__mul__``, ``__matmul__``
# and ``__pow__``, so wrapping it counts every matrix product.
TARGETS = (
    ("intlinalg", "Matrix", "Matrix.__init__"),
    ("intlinalg", "matmul", "_matmul"),
    ("intlinalg", "det", "det"),
    ("intlinalg", "solve_exact", "solve_exact"),
    ("intlinalg", "minpoly", "minpoly"),
    ("intlinalg", "leading_principal_minors", "leading_principal_minors"),
    ("intlinalg", "hnf_row", "hnf_row"),
    ("intlinalg", "col_hnf", "col_hnf"),
    ("intlinalg", "col_lattice_eq", "col_lattice_eq"),
    ("intlinalg", "col_lattice_contains", "col_lattice_contains"),
    ("intlinalg", "snf", "snf"),
    ("cyclotomic", "CycElem.mul", "CycElem.__mul__"),
    ("cyclotomic", "regular_rep", "regular_rep"),
    ("cyclotomic", "norm_to_Q", "norm_to_Q"),
    ("cyclotomic", "restrict_to_real", "restrict_to_real"),
    ("cyclotomic", "real_mult_matrix", "real_mult_matrix"),
    ("cyclotomic", "is_totally_positive", "is_totally_positive"),
    ("twist", "TwistData.for_prime", "TwistData.for_prime"),
    ("twist", "centralizer_basis", "centralizer_basis"),
    ("twist", "rosati", "rosati"),
    ("twist", "pol_descends", "pol_descends"),
    ("twist", "endo_degree", "endo_degree"),
    ("twist", "zeta_power_lattice", "zeta_power_lattice"),
    ("galmod", "build_ptorsion", "build_ptorsion"),
    ("galmod", "filtration_dims", "filtration_dims"),
    ("galmod", "composition_factors", "composition_factors"),
    ("kergroup", "twist_model", "twist_model"),
    ("kergroup", "ModelDescriptor.from_json", "ModelDescriptor.from_json"),
    ("kergroup", "ModelDescriptor.validate", "ModelDescriptor.validate"),
    ("kergroup", "attainable", "attainable"),
    ("kergroup", "b2_group", "b2_group"),
    ("kergroup", "quotient_group", "quotient_group"),
    ("kergroup", "phi_p_part", "phi_p_part"),
    ("kergroup", "r_membership", "r_membership"),
    ("cli", "run_verify_suite", "run_verify_suite"),
    ("cli", "main", "main"),
)

ENTRIES = "intlinalg.Matrix.entries"
VALIDATE_PER_QUERY = "kergroup.validate_per_query"
OVERHEAD = "trace_overhead_ratio"
FIRST_PASS = "first_pass_extra_s"


def span_names():
    return [f"{module}.{name}" for module, name, _ in TARGETS]


def metric_units():
    """{metric name: unit} for every per-layer metric, in report order."""
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units[ENTRIES] = "count"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units[VALIDATE_PER_QUERY] = "ratio"
    units[OVERHEAD] = "ratio"
    units[FIRST_PASS] = "s"
    return units


def layer_metrics(spans, counters, queries, cold_s, untraced_s, traced_s):
    """Per-layer metrics from aggregated spans ``{span: (calls, self_s)}``."""
    out = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for span in span_names():
        calls, own = spans.get(span, (0, 0.0))
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = own
        module_self[span.split(".", 1)[0]] += own
    out[ENTRIES] = counters.get(ENTRIES, 0)
    for module, own in module_self.items():
        out[f"{module}.self_s"] = own
    validates = spans.get("kergroup.ModelDescriptor.validate", (0, 0.0))[0]
    out[VALIDATE_PER_QUERY] = validates / queries
    out[OVERHEAD] = traced_s / untraced_s
    # what a fresh process's first pass costs over its second, such as lazy
    # imports; pass times are scaled by the speed probe, and it reads below
    # 0 when the probe misjudged the machine's speed during the second
    out[FIRST_PASS] = cold_s - untraced_s
    units = metric_units()
    return {name: {"value": value, "unit": units[name]} for name, value in out.items()}

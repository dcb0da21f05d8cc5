"""Workload table and metric names of the emtkit benchmark.

Each workload is one ``emtkit verify --config perfbench/configs/<name>.json``
call.  The expected check ids are spelled out here, not asked of the engine,
so that the correctness gate does not trust the code it measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

DEFAULT_SEED = 7     # 11 is held out for checking a claimed gain


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    check_ids: tuple

    @property
    def config(self) -> Path:
        return CONFIG_DIR / f"{self.name}.json"


WORKLOADS = {w.name: w for w in (
    Workload(
        "geometry-16pt",
        "jets, tensors and geometry at 16-point batches with no Lagrangian "
        "layer: the interpreter-overhead regime, and the control for "
        "fieldtheory changes",
        (
            "tilde-identity-map", "tilde-metric-closed-form",
            "tilde-alternating-closed-form", "tilde-trace-collapse",
            "tilde-product-rule",
            "lie-dual-forms", "killing-metric-flow", "parallel-claims",
            "volume-weight-flow",
            "curvature-commutator", "tilde-gradient-commutator",
            "connection-tensor-dual-form", "lie-gradient-commutator",
            "killing-gradient-commute",
        ),
    ),
    Workload(
        "fields-16pt",
        "fieldtheory, TheoryFrame tensors, the run caches and the catalog "
        "claim checks at 16-point batches, with the 16-xi master identity",
        (
            "lagrangian-flow-chain-rule", "flow-chain-rule-negative-control",
            "metric-emt-symmetry", "superpotential-antisymmetry",
            "improved-equals-metric", "master-identity",
            "current-gradient-pairing", "symmetry-current-conservation",
            "improved-divergence", "metric-emt-divergence",
            "canonical-curvature-obstruction",
            "canonical-obstruction-magnitude",
            "superpotential-current-closure", "current-decomposition",
            "matter-flow-current", "metric-derivative-identity",
            "first-order-emt-closed-form", "em-field-strength-form",
            "gauge-invariance-metric-emt", "gauge-invariance-improved-emt",
            "gauge-variance-canonical-emt",
        ),
    ),
    Workload(
        "variational-4d",
        "the large-batch flop regime: an 8^4 quadrature in 1024-point "
        "chunks plus two 64^2 grids, dominated by evaluate_theory",
        (
            "variational-agreement-2d", "variational-agreement-4d",
            "variational-superpotential-2d",
        ),
    ),
)}

ALL_CHECK_IDS = tuple(cid for w in WORKLOADS.values() for cid in w.check_ids)

# (name, unit); the order is the order of the printed summary
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("points_per_s", "points/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
    ("headroom_decades", "decades"),
)

# function spans whose figures are reported; every other public function of
# the library is spanned too, so that self time stays with the right layer.
# A time is reported in seconds where every workload reaches the function,
# and as a share of suites.run_checks where some workload never does: there
# the seconds would read 0 on every run.
_FUNCTION_METRICS = (
    ("jets.jet_einsum", ("calls", "self_s")),
    ("jets.jet_compose", ("calls", "self_s")),
    ("jets.jet_map", ("self_s",)),
    ("jets.differentiate", ("self_s",)),
    ("tensors.tilde", ("calls", "self_s")),
    ("tensors.tensor_product", ("self_share",)),
    ("tensors.contract", ("self_s",)),
    ("tensors.transpose_slots", ("self_s",)),
    ("geometry.geometry_at", ("calls", "self_s")),
    ("geometry.jet_matrix_inverse", ("self_s",)),
    ("geometry.covariant_derivative", ("calls", "self_s")),
    ("geometry.lie_derivative", ("calls",)),
    ("fieldtheory.evaluate_theory", ("calls", "incl_share", "self_share")),
    ("fieldtheory.a_einsum", ("calls", "incl_share")),
    ("fieldtheory.variational_pair", ("incl_share",)),
    ("catalog.verify_spacetime_claims", ("incl_s",)),
    ("catalog.verify_scenario_claims", ("incl_share",)),
)

LAYERS = ("jets", "tensors", "geometry", "fieldtheory", "catalog", "suites", "cli")


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(("ratio", "share", "coverage")):
        return "ratio"
    if metric.endswith("per_jet_einsum"):
        return "calls/call"
    if metric.endswith("batch_points"):
        return "points"
    return "count"


PER_LAYER_NAMES = (
    *(f"{fn}.{stat}" for fn, stats in _FUNCTION_METRICS for stat in stats),
    "jets.jet_einsum.batch_points",
    "jets.np_einsum.calls",
    "jets.np_einsum_per_jet_einsum",
    "jets.Jet.constructions",
    "catalog.random_fields.calls",
    "suites.run_checks.s",
    "suites.frame_cache.hit_ratio",
    "suites.theory_cache.hit_ratio",
    *(f"{layer}.self_s" for layer in LAYERS if layer != "fieldtheory"),
    "fieldtheory.self_share",
    "cli.report_s",
    "cli.overhead_s",
    "trace.overhead_s",
    "trace.layer_coverage",
    *(f"suites.check.{cid}.incl_share" for cid in ALL_CHECK_IDS),
)

PER_LAYER = tuple((name, _unit(name)) for name in PER_LAYER_NAMES)

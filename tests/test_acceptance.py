"""End-to-end acceptance gates for the verification engine.

One test per gate; each prints a single pass/fail summary line (shown with
pytest -s, or in the captured output on failure) and asserts the stated
thresholds and runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from emtkit.catalog import (
    SCENARIOS,
    SPACETIMES,
    bump_perturbation,
    random_tensor_field,
    sample_points,
    scenario_box,
    spacetime,
)
from emtkit.fieldtheory import (
    alternative_current,
    broken_scalar_theory,
    canonical_divergence_terms,
    difference_current,
    evaluate_theory,
    gauge_shifted,
    kinematic_lie_residual,
    master_identity_terms,
    maxwell_theory,
    metric_derivative_identity_terms,
    noether_current,
    scalar_theory,
    variational_pair,
)
from emtkit.geometry import (
    covariant_derivative,
    curvature_commutator_residual,
    divergence,
    evaluate,
    geometry_at,
    lie_connection_tensor,
    lie_derivative,
    lie_nabla_commutator,
    volume_lie_residual,
)
from emtkit.jets import constant_jet, jet_einsum
from emtkit.suites import RunConfig, build_report, report_json, run_checks
from emtkit.tensors import (
    TensorValue,
    antisymmetrize_pair,
    contract,
    max_abs,
    raise_slot,
    tensor_product,
    tilde,
    tilde_contract,
    transpose_slots,
    value_array,
)

from test_golden_reports import _platform

SCHW = SPACETIMES["schwarzschild"]
ON_SHELL = sorted(n for n, sc in SCENARIOS.items() if sc.on_shell)
MINKOWSKI_TRIO = ("scalar-wave-4d", "em-wave-4d", "coulomb-4d")

_TF_CACHE = {}


def theory_frame(name, count=16, seed=501, order=3):
    key = (name, count, seed, order)
    if key not in _TF_CACHE:
        sc = SCENARIOS[name]
        pts = sample_points(scenario_box(sc), count, seed)
        fr = geometry_at(spacetime(sc.spacetime).metric, pts, order)
        _TF_CACHE[key] = (sc, evaluate_theory(sc.theory, sc.field, fr))
    return _TF_CACHE[key]


def div_values(T, frame):
    return value_array(contract(covariant_derivative(T, frame), 0, 2))


def fold_max(*values):
    """The largest of ``values``, and NaN when any of them is NaN.

    The builtin ``max`` keeps its running value when a later one is NaN
    (``max(0.0, nan)`` is 0.0), so a NaN residual would drop out of a gate.
    """
    return float(np.max(np.asarray(values, dtype=float)))


@pytest.mark.parametrize("values", [(math.nan, 1.0, 2.0), (1.0, math.nan, 2.0),
                                    (1.0, 2.0, math.nan)], ids=["first", "middle", "last"])
def test_fold_max_propagates_nan(values):
    assert math.isnan(fold_max(*values))
    worst = 0.0
    for value in values:
        worst = fold_max(worst, value)
    assert math.isnan(worst)
    assert fold_max(0.0, *(v for v in values if not math.isnan(v))) == 2.0


def _gate(num, label, ok, detail):
    word = "PASS" if ok else "FAIL"
    print(f"[{word}] acceptance {num:02d} {label}: {detail}")
    assert ok, f"acceptance {num:02d} {label}: {detail}"


def test_gate_01_replacement_operator_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0

    def tensor(variance, n, comps):
        return TensorValue(variance, n, constant_jet(comps, n, 0))

    for k in range(200):
        n = (2, 3, 4)[k % 3]
        eye = np.eye(n)
        worst = fold_max(worst, max_abs(tilde(tensor(("u", "d"), n, eye))))
        worst = fold_max(worst, max_abs(tilde(
            tensor((), n, np.float64(rng.normal())))))
        gsym = rng.normal(size=(n, n))
        gsym = gsym + gsym.T
        got = value_array(tilde(tensor(("d", "d"), n, gsym)))
        want = -np.einsum("db,ca->abcd", gsym, eye) \
            - np.einsum("ad,cb->abcd", gsym, eye)
        worst = fold_max(worst, float(np.max(np.abs(got - want))))
        t = tensor(("u",), n, rng.normal(size=n))
        s = tensor(("d", "u"), n, rng.normal(size=(n, n)))
        lhs = tilde(tensor_product(t, s))
        term1 = transpose_slots(tensor_product(tilde(t), s), (0, 3, 4, 1, 2))
        term2 = tensor_product(t, tilde(s))
        worst = fold_max(worst, max_abs(lhs - term1 - term2))
    dt = time.perf_counter() - t0
    _gate(1, "replacement-operator algebra",
          worst <= 1e-14 and dt < 1.0,
          f"max residual {worst:.2e} over 200 draws, {dt:.2f}s")


def test_gate_02_metric_and_volume_flow():
    t0 = time.perf_counter()
    worst_flow, worst_dual = 0.0, 0.0
    for name in sorted(SPACETIMES):
        st = SPACETIMES[name]
        pts = sample_points(st.box, 64, seed=202)
        fr = geometry_at(st.metric, pts, 3)
        xi = evaluate(random_tensor_field(("u",), st.box, seed=203), fr)
        xil = TensorValue(("d",), fr.n, jet_einsum("ab,b->a", fr.g.components, xi.components))
        dxil = covariant_derivative(xil, fr)          # [b, a] = D_a xi_b
        sym = dxil + transpose_slots(dxil, (1, 0))
        h = lie_derivative(fr.g, xi, fr)
        worst_flow = fold_max(worst_flow, max_abs(h - sym))
        worst_flow = fold_max(worst_flow, max_abs(volume_lie_residual(xi, fr)))
        t = evaluate(random_tensor_field(("u", "d"), st.box, seed=204), fr)
        dual = lie_derivative(t, xi, fr) - lie_derivative(t, xi, frame=None)
        worst_dual = fold_max(worst_dual, max_abs(dual))
    dt = time.perf_counter() - t0
    _gate(2, "metric and volume flow",
          worst_flow <= 1e-10 and worst_dual <= 1e-12 and dt < 5.0,
          f"flow {worst_flow:.2e}, dual forms {worst_dual:.2e}, {dt:.2f}s")


def test_gate_03_commutator_suite():
    t0 = time.perf_counter()
    pts = sample_points(SCHW.box, 32, seed=301)
    fr = geometry_at(SCHW.metric, pts, 3)

    worst_curv = 0.0
    for variance in [(), ("u",), ("d",), ("u", "d")]:
        t = evaluate(random_tensor_field(variance, SCHW.box, seed=302), fr)
        worst_curv = fold_max(worst_curv, max_abs(
            curvature_commutator_residual(t, fr)))

    xi = evaluate(random_tensor_field(("u",), SCHW.box, seed=303), fr)
    c_direct = lie_connection_tensor(xi, fr, form="direct")
    c_metric = lie_connection_tensor(xi, fr, form="metric")
    worst_forms = max_abs(c_direct - c_metric)

    t11 = evaluate(random_tensor_field(("u", "d"), SCHW.box, seed=304), fr)
    worst_conn = max_abs(lie_nabla_commutator(t11, xi, fr)
                         - tilde_contract(t11, c_direct))

    worst_kill = 0.0
    for name in sorted(SPACETIMES):
        st = SPACETIMES[name]
        kfr = geometry_at(st.metric, sample_points(st.box, 32, seed=305), 3)
        kt = evaluate(random_tensor_field(("u", "d"), st.box, seed=306), kfr)
        for vf in st.killing:
            kxi = evaluate(vf, kfr)
            worst_kill = fold_max(worst_kill, max_abs(
                lie_nabla_commutator(kt, kxi, kfr)))
    dt = time.perf_counter() - t0
    _gate(3, "derivative commutators",
          worst_curv <= 1e-9 and worst_forms <= 1e-9
          and worst_conn <= 1e-9 and worst_kill <= 1e-10 and dt < 30.0,
          f"curvature {worst_curv:.2e}, forms {worst_forms:.2e}, "
          f"connection {worst_conn:.2e}, killing {worst_kill:.2e}, {dt:.1f}s")


def test_gate_04_kinematic_chain_rule():
    worst = 0.0
    for name in sorted(SPACETIMES):
        st = SPACETIMES[name]
        fr = geometry_at(st.metric, sample_points(st.box, 16, seed=401), 3)
        xi = evaluate(random_tensor_field(("u",), st.box, seed=402), fr)
        pairs = [
            (scalar_theory(0.4), random_tensor_field((), st.box, 403)),
            (maxwell_theory(), random_tensor_field(("d",), st.box, 404)),
        ]
        for theory, field in pairs:
            tf = evaluate_theory(theory, field, fr)
            worst = fold_max(worst, max_abs(kinematic_lie_residual(tf, xi)))

    st4 = SPACETIMES["minkowski4"]
    fr4 = geometry_at(st4.metric, sample_points(st4.box, 16, seed=401), 3)
    xi4 = evaluate(random_tensor_field(("u",), st4.box, seed=402), fr4)
    tf_bad = evaluate_theory(broken_scalar_theory(0.4),
                             random_tensor_field((), st4.box, 403), fr4)
    control = max_abs(kinematic_lie_residual(tf_bad, xi4))
    _gate(4, "kinematic chain rule",
          worst <= 1e-9 and control >= 1e-3,
          f"max residual {worst:.2e}, broken control {control:.2e}")


def test_gate_05_minkowski_on_shell():
    worst_eom, worst_div, worst_bm = 0.0, 0.0, 0.0
    worst_cur, worst_dec = 0.0, 0.0
    kvs = spacetime("minkowski4").killing
    assert len(kvs) == 10
    for name in MINKOWSKI_TRIO:
        sc, tf = theory_frame(name)
        worst_eom = fold_max(worst_eom, max_abs(tf.eom_residual))
        for T in (tf.emt_canonical, tf.emt_belinfante, tf.emt_metric):
            worst_div = fold_max(worst_div, float(np.max(np.abs(
                div_values(T, tf.frame)))))
        worst_bm = fold_max(worst_bm, max_abs(tf.emt_belinfante - tf.emt_metric))
        for vf in kvs:
            xi = evaluate(vf, tf.frame)
            jn = noether_current(tf, xi)
            ja = alternative_current(tf, xi)
            jd = difference_current(tf, xi)
            worst_cur = fold_max(worst_cur,
                                 max_abs(divergence(jn, tf.frame)),
                                 max_abs(divergence(ja, tf.frame)))
            worst_dec = fold_max(worst_dec, max_abs(jn - (ja - jd)))
    ok = (worst_eom <= 1e-7 and worst_div <= 1e-8 and worst_bm <= 1e-8
          and worst_cur <= 1e-8 and worst_dec <= 1e-8)
    _gate(5, "flat-space on-shell batch", ok,
          f"eom {worst_eom:.2e}, divergences {worst_div:.2e}, "
          f"B-vs-M {worst_bm:.2e}, currents {worst_cur:.2e}, "
          f"decomposition {worst_dec:.2e}")


def test_gate_06_schwarzschild_on_shell():
    worst_eom, worst_bm, worst_div = 0.0, 0.0, 0.0
    for name in ("schwarzschild-scalar", "schwarzschild-coulomb"):
        sc, tf = theory_frame(name)
        worst_eom = fold_max(worst_eom, max_abs(tf.eom_residual))
        worst_bm = fold_max(worst_bm, max_abs(tf.emt_belinfante - tf.emt_metric))
        worst_div = fold_max(worst_div, float(np.max(np.abs(
            div_values(tf.emt_metric, tf.frame)))))

    _, tf_em = theory_frame("schwarzschild-coulomb")
    lhs, rhs = canonical_divergence_terms(tf_em)
    la, ra = value_array(lhs), value_array(rhs)
    em_scale = min(np.max(np.abs(la)), np.max(np.abs(ra)))
    em_agree = np.max(np.abs(la - ra))

    _, tf_s = theory_frame("schwarzschild-scalar")
    lhs_s, rhs_s = canonical_divergence_terms(tf_s)
    s_small = fold_max(np.max(np.abs(value_array(lhs_s))),
                       np.max(np.abs(value_array(rhs_s))))

    ok = (worst_eom <= 1e-7 and worst_bm <= 1e-7 and worst_div <= 1e-7
          and em_scale >= 1e-6 and em_agree <= 1e-8 and s_small <= 1e-9)
    _gate(6, "curved-space on-shell batch", ok,
          f"eom {worst_eom:.2e}, B-vs-M {worst_bm:.2e}, div {worst_div:.2e}, "
          f"obstruction size {em_scale:.2e} agree {em_agree:.2e}, "
          f"scalar exception {s_small:.2e}")


def test_gate_07_master_identity():
    worst = 0.0
    checked = 0
    for name in ON_SHELL:
        sc, tf = theory_frame(name)
        box = scenario_box(sc)
        for k in range(16):
            xi = evaluate(random_tensor_field(("u",), box, seed=702 + k), tf.frame)
            assert max_abs(lie_derivative(tf.frame.g, xi, tf.frame)) > 1e-6, \
                f"seeded vector {k} is unexpectedly Killing on {name}"
            lhs, rhs = master_identity_terms(tf, xi)
            worst = fold_max(worst, max_abs(lhs - rhs))
            checked += 1
    _gate(7, "master identity", worst <= 1e-8,
          f"max residual {worst:.2e} over {checked} generic flows")


def test_gate_08_metric_derivative_identity():
    worst_id, worst_sym, worst_spec = 0.0, 0.0, 0.0
    for name in ON_SHELL:
        sc, tf = theory_frame(name)
        lhs, rhs = metric_derivative_identity_terms(tf)
        worst_id = fold_max(worst_id, max_abs(lhs - rhs))
        worst_sym = fold_max(worst_sym, max_abs(rhs - transpose_slots(rhs, (1, 0))))

        if sc.theory.name.startswith("scalar"):
            dphi = tf.dpsi
            dup = raise_slot(dphi, 0, tf.frame.ginv)
            want = np.einsum("...a,...b->...ab", value_array(dup),
                             value_array(dup))
            worst_spec = fold_max(worst_spec, float(np.max(np.abs(
                2.0 * value_array(tf.dL_dg) - want))))
        elif sc.theory.name == "maxwell":
            dA = tf.dpsi                              # [i, a] = D_a A_i
            F = transpose_slots(dA, (1, 0)) - dA      # [a, b] = F_ab
            Fup = raise_slot(raise_slot(F, 0, tf.frame.ginv), 1, tf.frame.ginv)
            Fmix = np.einsum("...ab,...bc->...ac", value_array(Fup),
                             value_array(tf.frame.g))  # [a, c] = F^a_c
            want = np.einsum("...ac,...bc->...ab", value_array(Fup), Fmix)
            worst_spec = fold_max(worst_spec, float(np.max(np.abs(
                2.0 * value_array(tf.dL_dg) - want))))
    ok = worst_id <= 1e-9 and worst_sym <= 1e-9 and worst_spec <= 1e-9
    _gate(8, "metric-derivative identity", ok,
          f"residual {worst_id:.2e}, symmetry {worst_sym:.2e}, "
          f"closed forms {worst_spec:.2e}")


# lhs and rhs of the 16^4 comparison of gate 9, as float.hex(), per platform
# (numpy version and BLAS build); a platform not listed prints its values
_GATE_09_PAIR = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0": ("0x1.7987ee34e11d7p-7", "0x1.7987ee34e11d7p-7"),
}


def test_gate_09_variational_equivalence():
    t0 = time.perf_counter()
    mink2 = SPACETIMES["minkowski2"]
    mink4 = SPACETIMES["minkowski4"]

    sc2 = SCENARIOS["scalar-wave-2d"]
    h2 = bump_perturbation(mink2.box, seed=9000)
    lhs2, rhs2 = variational_pair(sc2.theory, sc2.field, mink2.metric,
                                  h2, mink2.box, (64, 64))
    rel2 = abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2))

    sc4 = SCENARIOS["em-wave-4d"]
    h4 = bump_perturbation(mink4.box, seed=9001)
    lhs4, rhs4 = variational_pair(sc4.theory, sc4.field, mink4.metric,
                                  h4, mink4.box, (16, 16, 16, 16))
    rel4 = abs(lhs4 - rhs4) / max(abs(lhs4), abs(rhs4))
    pinned = _GATE_09_PAIR.get(_platform())
    if pinned is None:
        print(f"{_platform()}: 4d lhs {lhs4.hex()} rhs {rhs4.hex()}")
    else:
        assert (lhs4.hex(), rhs4.hex()) == pinned

    dt = time.perf_counter() - t0
    _gate(9, "variational equivalence",
          rel2 <= 1e-6 and rel4 <= 1e-3 and dt < 300.0,
          f"2d rel {rel2:.2e}, 4d rel {rel4:.2e}, {dt:.1f}s")


def test_gate_10_gauge_behavior():
    sc, tf0 = theory_frame("em-wave-4d")
    chi = random_tensor_field((), scenario_box(sc), seed=1001)
    shifted = gauge_shifted(sc.field, chi)
    tf1 = evaluate_theory(sc.theory, shifted, tf0.frame)
    inv = fold_max(max_abs(tf1.emt_metric - tf0.emt_metric),
                   max_abs(tf1.emt_belinfante - tf0.emt_belinfante))
    shift = max_abs(tf1.emt_canonical - tf0.emt_canonical)
    _gate(10, "gauge behavior", inv <= 1e-9 and shift >= 1e-4,
          f"invariant pair {inv:.2e}, canonical shift {shift:.2e}")


def test_gate_11_deterministic_reports():
    cfg = RunConfig(suites=("tilde-algebra", "lie-calculus", "gauge"),
                    points=6, seed=5)
    texts = []
    for _ in range(2):
        outcomes = run_checks(cfg)
        texts.append(report_json(build_report(cfg, outcomes)))
    _gate(11, "deterministic reports", texts[0] == texts[1],
          f"{len(texts[0])} bytes, byte-identical={texts[0] == texts[1]}")

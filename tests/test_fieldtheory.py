"""Lagrangian evaluation, energy-momentum tensors, currents, variations.

Flat-space closed forms are recomputed here with plain numpy straight from
the jet tables, independently of the reverse-mode (tape) differentiation layer.
"""

import dataclasses

import numpy as np
import pytest

from emtkit import fieldtheory, jets
from emtkit.catalog import (
    SCENARIOS,
    CatalogClaimError,
    spacetime,
    SPACETIMES,
    bump_perturbation,
    random_tensor_field,
    sample_points,
    scenario_box,
    verify_scenario_claims,
)
from emtkit.fieldtheory import (
    ArgTensor,
    LagrangianContext,
    LagrangianTheory,
    a_einsum,
    alternative_current,
    broken_scalar_theory,
    canonical_divergence_terms,
    current_gradient_pairing_residual,
    difference_current,
    evaluate_theory,
    gauge_shifted,
    kinematic_lie_residual,
    lie_matter_current,
    master_identity_terms,
    maxwell_theory,
    metric_derivative_identity_terms,
    noether_current,
    scalar_theory,
    variational_pair,
)
from emtkit.geometry import (
    MetricField,
    covariant_derivative,
    divergence,
    evaluate,
    geometry_at,
    jet_matrix_inverse,
)
from emtkit.jets import Jet, jet_einsum, partial_in_var
from emtkit.tensors import TensorValue, contract, max_abs, value_array

MINK4 = SPACETIMES["minkowski4"]
MINK2 = SPACETIMES["minkowski2"]
ETA4 = np.diag([-1.0, 1.0, 1.0, 1.0])


def mink4_frame(count=6, seed=2, order=3):
    pts = sample_points(MINK4.box, count, seed)
    return geometry_at(MINK4.metric, pts, order)


def scenario_theory_frame(name, count=8, seed=4, order=3):
    sc = SCENARIOS[name]
    pts = sample_points(scenario_box(sc), count, seed)
    frame = geometry_at(spacetime(sc.spacetime).metric, pts, order)
    return sc, evaluate_theory(sc.theory, sc.field, frame)


def maxwell_arrays(tf, Afld, frame):
    """A, dA, F and raised variants as plain numpy arrays at the frame points."""
    A = evaluate(Afld, frame).components
    a0 = A.data[0]                          # [pt, i]
    da = A.data[1]                          # [pt, i, c] = d_c A_i
    F = da.swapaxes(1, 2) - da              # [pt, x, y] = d_x A_y - d_y A_x
    Fup = np.einsum("ax,by,pxy->pab", ETA4, ETA4, F)
    Aup = np.einsum("cd,pd->pc", ETA4, a0)
    dAraise = np.einsum("bc,pic->pib", ETA4, da)   # [pt, i, b] = d^b A_i
    L = -0.25 * np.einsum("pxy,pxy->p", F, Fup)
    return a0, da, F, Fup, Aup, dAraise, L


def test_scalar_emt_closed_form_flat():
    mass = 0.7
    frame = mink4_frame()
    fld = random_tensor_field((), MINK4.box, seed=13)
    tf = evaluate_theory(scalar_theory(mass), fld, frame)

    phi = evaluate(fld, frame).components
    p0 = phi.data[0]                        # [pt]
    dp = phi.data[1]                        # [pt, a]
    dup = np.einsum("ab,pb->pa", ETA4, dp)
    L = -0.5 * (np.einsum("pa,pa->p", dp, dup) + mass ** 2 * p0 ** 2)
    want = np.einsum("pa,pb->pab", dup, dup) + np.einsum("ab,p->pab", ETA4, L)

    assert np.allclose(tf.L.data[0], L, atol=1e-13)
    for emt in (tf.emt_canonical, tf.emt_metric, tf.emt_belinfante):
        assert np.allclose(value_array(emt), want, atol=1e-12)
    # scalars carry no superpotential at all
    assert max_abs(tf.theta) == 0.0


def test_maxwell_theta_closed_form():
    frame = mink4_frame(seed=3)
    Afld = random_tensor_field(("d",), MINK4.box, seed=17)
    tf = evaluate_theory(maxwell_theory(), Afld, frame)
    _, _, _, Fup, Aup, _, _ = maxwell_arrays(tf, Afld, frame)
    want = -np.einsum("pca,pb->pcab", Fup, Aup)
    assert np.allclose(value_array(tf.theta), want, atol=1e-12)
    # antisymmetric in the first slot pair
    got = value_array(tf.theta)
    assert np.allclose(got, -got.transpose(0, 2, 1, 3), atol=1e-13)


def test_gradient_vector_source_and_theta_closed_form():
    # L = -1/2 grad_a B_b grad^a B^b: dL/d(grad_c B_s) = -grad^c B^s and
    # (tilde B)_s^ab = -delta_s^a B^b, so W^cab = grad^c B^a B^b
    frame = mink4_frame(seed=3)
    Bfld = random_tensor_field(("d",), MINK4.box, seed=29)
    tf = evaluate_theory(SCENARIOS["gradient-vector-2d"].theory, Bfld, frame)
    B = evaluate(Bfld, frame).components
    Bup = np.einsum("ab,pb->pa", ETA4, B.data[0])
    dBup = np.einsum("ax,cy,pxy->pac", ETA4, ETA4, B.data[1])   # [pt, a, c] = grad^c B^a
    W = np.einsum("pac,pb->pcab", dBup, Bup)
    np.testing.assert_allclose(value_array(tf.W), W, rtol=0, atol=1e-13)
    # Theta^abc = Y^acb + Y^bac + Y^cab with Y^cab = W^c[ab]
    Y = 0.5 * (W - W.transpose(0, 1, 3, 2))
    theta = (np.einsum("pacb->pabc", Y) + np.einsum("pbac->pabc", Y)
             + np.einsum("pcab->pabc", Y))
    assert max_abs(tf.theta) > 0.1
    np.testing.assert_allclose(value_array(tf.theta), theta, rtol=0, atol=1e-12)
    # the bracket Theta + W is symmetric in its last two slots
    br = value_array(tf.theta) + value_array(tf.W)
    np.testing.assert_allclose(br, br.transpose(0, 1, 3, 2), rtol=0, atol=1e-12)


def test_source_tensor_builds_tilde_psi_at_its_own_order(monkeypatch):
    _, tf = scenario_theory_frame("gradient-vector-2d", order=3)
    seen = []
    real = fieldtheory.tilde

    def recording(t):
        seen.append(t.components.order)
        return real(t)

    monkeypatch.setattr(fieldtheory, "tilde", recording)
    W = tf.W
    assert tf.psi.components.order == 3
    assert seen == [tf.dL_ddpsi.components.order] == [W.components.order] == [2]


def test_maxwell_canonical_closed_form():
    frame = mink4_frame(seed=5)
    Afld = random_tensor_field(("d",), MINK4.box, seed=19)
    tf = evaluate_theory(maxwell_theory(), Afld, frame)
    _, _, _, Fup, _, dAraise, L = maxwell_arrays(tf, Afld, frame)
    want = np.einsum("pai,pib->pab", Fup, dAraise) \
        + np.einsum("ab,p->pab", ETA4, L)
    assert np.allclose(tf.L.data[0], L, atol=1e-13)
    assert np.allclose(value_array(tf.emt_canonical), want, atol=1e-12)


def test_maxwell_symmetric_emt_on_shell():
    sc, tf = scenario_theory_frame("em-wave-4d")
    verify_scenario_claims(sc, tf)
    _, _, F, Fup, _, _, L = maxwell_arrays(tf, sc.field, tf.frame)
    Fmix = np.einsum("pbc,cy->pby", Fup, ETA4)      # [pt, b, y] = F^b_y
    want = np.einsum("pay,pby->pab", Fup, Fmix) + np.einsum("ab,p->pab", ETA4, L)
    assert np.allclose(value_array(tf.emt_belinfante), want, atol=1e-10)
    assert np.allclose(value_array(tf.emt_metric), want, atol=1e-10)
    # positive field energy density in these conventions
    assert np.all(value_array(tf.emt_metric)[:, 0, 0] > -1e-12)


def test_on_shell_gate():
    sc, tf = scenario_theory_frame("scalar-wave-4d")
    assert max_abs(tf.eom_residual) < 1e-12
    verify_scenario_claims(sc, tf)

    blob, tf_blob = scenario_theory_frame("scalar-blob-2d")
    assert max_abs(tf_blob.eom_residual) > 1e-3
    verify_scenario_claims(blob, tf_blob)
    with pytest.raises(CatalogClaimError, match="claims on-shell"):
        verify_scenario_claims(dataclasses.replace(blob, on_shell=True), tf_blob)


def _structural(t):
    return all(not any(table.strides) for table in t.components.data)


def test_scalar_theory_bracket_and_flat_connection_are_structural_zeros(monkeypatch):
    # tilde of a scalar is zero, so W, Theta, the bracket and D_c Theta^cab
    # of a scalar theory are never computed; a flat frame's Gamma is zero too
    _, tf = scenario_theory_frame("scalar-wave-4d", order=3)
    for name in ("W", "theta", "_bracket", "div_theta"):
        assert _structural(getattr(tf, name)), name
    assert _structural(mink4_frame(order=3).gamma)
    assert _structural(tf.frame.gamma)
    got = tf.emt_metric
    # the same T_M with every zero table dense, so that nothing is skipped
    monkeypatch.setattr(jets, "_zero_table", np.zeros)
    _, dense = scenario_theory_frame("scalar-wave-4d", order=3)
    assert not _structural(dense.W) and not _structural(dense.frame.gamma)
    for g, w in zip(got.components.data, dense.emt_metric.components.data):
        # bit for bit, signed zeros included
        assert g.shape == w.shape
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "nan-last"])
def test_non_finite_field_equation_residual_fails_the_gate(nan_first):
    # a one-form residual: its first and last components are different
    # points and different slots
    sc, tf = scenario_theory_frame("em-wave-4d", count=4)
    good = tf.eom_residual
    assert max_abs(good) < 1e-12
    tables = [t.copy() for t in good.components.data]
    tables[0].flat[0 if nan_first else -1] = np.nan
    comps = good.components
    tf.eom_residual = TensorValue(good.variance, good.n,
                                  Jet(comps.nvars, comps.order, comps.vdim, tables))
    assert np.isnan(max_abs(tf.eom_residual))
    with pytest.raises(CatalogClaimError, match="non-finite"):
        verify_scenario_claims(sc, tf)


def test_field_variance_validated():
    frame = mink4_frame()
    wrong = random_tensor_field(("d",), MINK4.box, seed=23)
    with pytest.raises(ValueError):
        evaluate_theory(scalar_theory(), wrong, frame)


def test_master_identity_for_generic_vector():
    sc, tf = scenario_theory_frame("schwarzschild-scalar", count=6)
    xi = evaluate(random_tensor_field(("u",), scenario_box(sc), seed=29), tf.frame)
    lhs, rhs = master_identity_terms(tf, xi)
    scale = max(max_abs(lhs), 1e-30)
    assert max_abs(lhs - rhs) / scale < 1e-9


def test_current_gradient_pairing():
    sc, tf = scenario_theory_frame("coulomb-4d", count=6)
    xi = evaluate(random_tensor_field(("u",), scenario_box(sc), seed=31), tf.frame)
    assert max_abs(current_gradient_pairing_residual(tf, xi)) < 1e-9


def test_current_decomposition_and_conservation():
    sc, tf = scenario_theory_frame("em-wave-4d", count=6)
    xi = evaluate(random_tensor_field(("u",), scenario_box(sc), seed=37), tf.frame)
    jn = noether_current(tf, xi)
    ja = alternative_current(tf, xi)
    jd = difference_current(tf, xi)
    assert max_abs(jn - (ja - jd)) < 1e-11
    # the difference current is conserved for any smooth vector field
    assert max_abs(divergence(jd, tf.frame)) < 1e-9


def _same_bits(got, want):
    assert len(got.data) == len(want.data)
    for g, w in zip(got.data, want.data):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def test_superpotential_divergence_is_shared_bit_for_bit():
    sc, tf = scenario_theory_frame("schwarzschild-coulomb", count=4)
    fr = tf.frame
    div = contract(covariant_derivative(tf.theta, fr), 0, 3)      # [a, b]
    _same_bits(tf.emt_belinfante.components, (tf.emt_canonical - div).components)
    for seed in (61, 62):
        xi = evaluate(random_tensor_field(("u",), scenario_box(sc), seed=seed), fr)
        xil = TensorValue(("d",), tf.n, jet_einsum("ab,b->a", fr.g.components,
                                                   xi.components))
        t1 = jet_einsum("ab,b->a", div.components, xil.components)
        dxil = covariant_derivative(xil, fr)
        t2 = jet_einsum("cab,bc->a", tf.theta.components, dxil.components)
        _same_bits(difference_current(tf, xi).components, t1 + t2)


def test_superpotential_is_differentiated_once_per_theory_frame(monkeypatch):
    sc, tf = scenario_theory_frame("em-wave-4d", count=4)
    xis = [evaluate(random_tensor_field(("u",), scenario_box(sc), seed=70 + k), tf.frame)
           for k in range(4)]
    theta = tf.theta
    seen = []

    def counting(real):
        def wrapped(t, *args, **kwargs):
            seen.append(t)
            return real(t, *args, **kwargs)
        return wrapped

    # Theta may be differentiated through either name
    for name in ("divergence", "covariant_derivative"):
        monkeypatch.setattr(fieldtheory, name, counting(getattr(fieldtheory, name)))
    for xi in xis:
        difference_current(tf, xi)
    tf.emt_belinfante
    assert sum(t is theta for t in seen) == 1


def test_symmetry_currents_conserved():
    sc, tf = scenario_theory_frame("em-wave-4d", count=6)
    for vf in spacetime(sc.spacetime).killing:
        xi = evaluate(vf, tf.frame)
        for cur in (noether_current(tf, xi), alternative_current(tf, xi),
                    lie_matter_current(tf, xi)):
            assert max_abs(divergence(cur, tf.frame)) < 1e-9, vf.name


def test_kinematic_residual_and_negative_control():
    frame = mink4_frame(seed=7)
    fld = random_tensor_field((), MINK4.box, seed=41)
    xi = evaluate(random_tensor_field(("u",), MINK4.box, seed=43), frame)

    tf = evaluate_theory(scalar_theory(0.3), fld, frame)
    assert max_abs(kinematic_lie_residual(tf, xi)) < 1e-12

    tf_bad = evaluate_theory(broken_scalar_theory(0.3), fld, frame)
    assert max_abs(kinematic_lie_residual(tf_bad, xi)) > 1e-3


def test_canonical_divergence_obstruction():
    _, tf = scenario_theory_frame("schwarzschild-coulomb", count=6)
    lhs, rhs = canonical_divergence_terms(tf)
    la, ra = value_array(lhs), value_array(rhs)
    assert np.max(np.abs(la)) > 1e-6       # genuinely fails to be conserved
    assert np.max(np.abs(la - ra)) < 1e-10  # by exactly the curvature term

    _, tf_s = scenario_theory_frame("schwarzschild-scalar", count=6)
    lhs_s, rhs_s = canonical_divergence_terms(tf_s)
    assert np.max(np.abs(value_array(lhs_s))) < 1e-9
    assert np.max(np.abs(value_array(rhs_s))) < 1e-30


def test_metric_derivative_identity():
    _, tf = scenario_theory_frame("schwarzschild-coulomb", count=6)
    lhs, rhs = metric_derivative_identity_terms(tf)
    assert max_abs(lhs - rhs) < 1e-10


def test_scalar_metric_derivative_specialization():
    # for the massless scalar, 2 dL/dg_ab is just grad^a phi grad^b phi
    _, tf = scenario_theory_frame("scalar-wave-4d", count=6)
    dp = tf.dpsi.components
    dup = np.einsum("ab,pb->pa", ETA4, dp.data[0])
    want = np.einsum("pa,pb->pab", dup, dup)
    assert np.allclose(2.0 * value_array(tf.dL_dg), want, atol=1e-12)


def test_maxwell_metric_derivative_specialization():
    sc, tf = scenario_theory_frame("em-wave-4d", count=6)
    _, _, _, Fup, _, _, _ = maxwell_arrays(tf, sc.field, tf.frame)
    Fmix = np.einsum("pbc,cy->pby", Fup, ETA4)
    want = np.einsum("pay,pby->pab", Fup, Fmix)
    assert np.allclose(2.0 * value_array(tf.dL_dg), want, atol=1e-12)


def test_gauge_shift_moves_canonical_only():
    sc = SCENARIOS["em-wave-4d"]
    pts = sample_points(scenario_box(sc), 6, seed=8)
    frame = geometry_at(spacetime(sc.spacetime).metric, pts, 3)
    chi = random_tensor_field((), scenario_box(sc), seed=47)
    shifted = gauge_shifted(sc.field, chi)

    # pointwise: the shifted potential is A plus the gradient of chi
    A0 = value_array(evaluate(sc.field, frame))
    A1 = value_array(evaluate(shifted, frame))
    dchi = evaluate(chi, frame).components.data[1]
    assert np.allclose(A1, A0 + dchi, atol=1e-12)

    tf0 = evaluate_theory(sc.theory, sc.field, frame)
    tf1 = evaluate_theory(sc.theory, shifted, frame)
    assert max_abs(tf1.emt_metric - tf0.emt_metric) < 1e-9
    assert max_abs(tf1.emt_belinfante - tf0.emt_belinfante) < 1e-9
    assert max_abs(tf1.emt_canonical - tf0.emt_canonical) > 1e-4


def test_variational_pair_scalar_2d():
    fld = random_tensor_field((), MINK2.box, seed=53)
    h = bump_perturbation(MINK2.box, seed=59)
    lhs, rhs = variational_pair(scalar_theory(0.5), fld,
                                MINK2.metric, h, MINK2.box, (32, 32))
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_variational_pair_exercises_connection_term():
    sc = SCENARIOS["gradient-vector-2d"]
    h = bump_perturbation(MINK2.box, seed=61)
    lhs, rhs = variational_pair(sc.theory, sc.field,
                                MINK2.metric, h, MINK2.box, (32, 32))
    assert abs(lhs) > 1e-6                  # a nonzero variation at all
    assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def test_variational_pair_builds_one_frame_and_one_theory_per_chunk(monkeypatch):
    calls = {"geometry_at": 0, "evaluate_theory": 0}
    frames = []
    for name in calls:
        real = getattr(fieldtheory, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            out = _real(*args, **kwargs)
            if _name == "geometry_at":
                frames.append(out)
            return out

        monkeypatch.setattr(fieldtheory, name, counted)
    sc = SCENARIOS["gradient-vector-2d"]
    h = bump_perturbation(MINK2.box, seed=61)
    h_calls = []
    h = dataclasses.replace(h, fn=lambda coords, _fn=h.fn: h_calls.append(1) or _fn(coords))
    variational_pair(sc.theory, sc.field, MINK2.metric, h, MINK2.box, (64, 64))
    chunks = 64 * 64 // fieldtheory._CHUNK
    assert chunks == 4
    assert calls == {"geometry_at": chunks, "evaluate_theory": chunks}
    # the support guard's values, then one eps-metric per chunk
    assert len(h_calls) == 1 + chunks
    for fr in frames:
        assert fr.g.components.order == 2
        assert fr.ginv.components.order == 1
        assert fr.sqrt_g.order == 1


def _stacked_bump(box, seed, width_frac=0.09):
    """``bump_perturbation`` with its matrix stacked from n * n scaled jets."""
    rng = np.random.default_rng(seed)
    n = len(box)
    M = rng.normal(size=(n, n))
    M = 0.1 * (M + M.T) / 2.0
    center = np.array([(b[0] + b[1]) / 2 for b in box])
    width = np.array([(b[1] - b[0]) * width_frac for b in box])

    def fn(coords):
        r2 = None
        for i in range(n):
            u = (coords[i] - center[i]) * (1.0 / width[i])
            r2 = u * u if r2 is None else r2 + u * u
        bump = jets.jexp(-r2)
        return jets.jet_stack([[M[i, j] * bump for j in range(n)] for i in range(n)])

    return dataclasses.replace(bump_perturbation(box, seed, width_frac), fn=fn)


def _full_order_pair(theory, field, metric, h, box, shape):
    """``variational_pair`` with every table of a chunk at the frame's order:
    g^-1 and sqrt|g| at order 2, eps h read through eps's value table, and
    T_M paired with h evaluated on the chunk's frame."""
    n = metric.n
    pts, vol = fieldtheory._midpoint_grid(box, shape)
    npts = pts.shape[0]

    def eps_metric_fn(coords):
        return metric.fn(coords[:n]) + jet_einsum("ab,->ab", h.fn(coords[:n]), coords[n])

    eps_metric = MetricField(metric.name + "+eps*h", n, eps_metric_fn)
    pts_ext = np.concatenate([pts, np.zeros((npts, 1))], axis=1)
    lhs_vals, rhs_vals = np.empty(npts), np.empty(npts)
    for lo in range(0, npts, fieldtheory._CHUNK):
        hi = min(lo + fieldtheory._CHUNK, npts)
        fr = geometry_at(eps_metric, pts_ext[lo:hi], 2)
        tf = evaluate_theory(theory, field, fr)
        lhs_vals[lo:hi] = partial_in_var(tf.L * fr.sqrt_g, n).data[0]
        hv = evaluate(h, fr)
        dens = 0.5 * jet_einsum("ab,ab->", tf.emt_metric.components, hv.components)
        rhs_vals[lo:hi] = (dens * fr.sqrt_g).data[0]
    return vol * float(np.sum(lhs_vals)), vol * float(np.sum(rhs_vals))


@pytest.mark.parametrize("name, shape", [("gradient-vector-2d", (32, 32)),
                                         ("em-wave-4d", (8, 8, 8, 8))])
def test_variational_pair_equals_the_full_order_recipe_bit_for_bit(name, shape):
    sc = SCENARIOS[name]
    st = spacetime(sc.spacetime)
    got = variational_pair(sc.theory, sc.field, st.metric,
                           bump_perturbation(st.box, 9000), st.box, shape)
    want = _full_order_pair(sc.theory, sc.field, st.metric,
                            _stacked_bump(st.box, 9000), st.box, shape)
    assert abs(got[0]) > 1e-3
    assert got == want


def test_variational_support_guard():
    # a polynomial perturbation does not vanish near the box boundary
    wide = random_tensor_field(("d", "d"), MINK2.box, seed=67)
    fld = random_tensor_field((), MINK2.box, seed=71)
    with pytest.raises(ValueError):
        variational_pair(scalar_theory(), fld,
                         MINK2.metric, wide, MINK2.box, (16, 16))


# --------------------------------------------------------------------------
# the reverse sweep against an independent directional derivative
# --------------------------------------------------------------------------


def _gate4_case(st_name, kind):
    """The theory and random field of acceptance gate 4 (kinematic chain rule)."""
    st = SPACETIMES[st_name]
    if kind == "scalar":
        return scalar_theory(0.4), random_tensor_field((), st.box, 403)
    if kind == "maxwell":
        return maxwell_theory(), random_tensor_field(("d",), st.box, 404)
    return broken_scalar_theory(0.4), random_tensor_field((), st.box, 403)


ADJOINT_CASES = (
    [("scenario", name) for name in SCENARIOS]
    + [(st_name, kind) for st_name in sorted(SPACETIMES)
       for kind in ("scalar", "maxwell")]
    + [("minkowski4", "broken-scalar")]
)


@pytest.mark.parametrize("where,what", ADJOINT_CASES,
                         ids=[f"{a}-{b}" for a, b in ADJOINT_CASES])
def test_reverse_derivatives_match_directional_derivative(where, what):
    """Shift psi, grad psi and g along seeded random directions by eps, carried
    as one extra jet variable; d/d eps L, taken by forward jet arithmetic alone,
    must equal the reverse-mode derivatives contracted with the directions."""
    if where == "scenario":
        sc = SCENARIOS[what]
        theory, field, box = sc.theory, sc.field, scenario_box(sc)
        metric = spacetime(sc.spacetime).metric
    else:
        theory, field = _gate4_case(where, what)
        box, metric = SPACETIMES[where].box, SPACETIMES[where].metric
    n = metric.n
    pts = sample_points(box, 8, seed=811)
    ext = MetricField(metric.name, n, lambda c: metric.fn(c[:n]))
    frame = geometry_at(ext, np.concatenate([pts, np.zeros((8, 1))], axis=1), 3)
    eps = frame.coords[n]
    tf = evaluate_theory(theory, field, frame)
    rng = np.random.default_rng(812)

    def shifted(jet, deriv):
        """(jet + eps * direction, <derivative, direction> per point)."""
        direction = rng.normal(size=jet.data[0].shape)
        S = "abcd"[: jet.vdim]
        pairing = np.einsum(f"p{S},p{S}->p", deriv.components.data[0], direction)
        return ArgTensor(jet + jet_einsum(f",{S}->{S}", eps, direction)), pairing

    psi, p1 = shifted(tf.psi.components, tf.dL_dpsi)
    dpsi, p2 = shifted(tf.dpsi.components, tf.dL_ddpsi)
    want = p1 + p2
    w = rng.normal(size=(8, n, n))
    w = w + w.swapaxes(1, 2)           # dL/dg is the symmetrized derivative
    g = frame.g.components + jet_einsum(",ab->ab", eps, w)
    want = want + np.einsum("pab,pab->p", tf.dL_dg.components.data[0], w)

    ctx = LagrangianContext(n, psi, dpsi, ArgTensor(g), ArgTensor(jet_matrix_inverse(g)),
                            frame.coords[:n])
    got = partial_in_var(theory.lagrangian(ctx).comps, n).data[0]
    scale = np.max(np.abs(got))
    assert scale > 1e-6
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_evaluate_theory_is_reentrant():
    frame = mink4_frame(seed=9)
    outer_field = random_tensor_field((), MINK4.box, seed=83)
    inner_field = random_tensor_field(("d",), MINK4.box, seed=89)
    base, inner_theory = scalar_theory(0.6), maxwell_theory()
    nested = []

    def lag(ctx):
        dphi = ctx.dpsi
        ctx.einsum("a,a->", dphi, dphi)             # the outer tape is in use
        nested.append(evaluate_theory(inner_theory, inner_field, frame))
        return base.lagrangian(ctx)

    tf = evaluate_theory(LagrangianTheory("nested", base.variance, lag),
                         outer_field, frame)
    pairs = [(tf, evaluate_theory(base, outer_field, frame)),
             (nested[0], evaluate_theory(inner_theory, inner_field, frame))]
    for got, alone in pairs:
        for attr in ("dL_dpsi", "dL_ddpsi"):
            assert np.array_equal(value_array(getattr(got, attr)),
                                  value_array(getattr(alone, attr)))
        assert np.array_equal(value_array(got.dL_dg), value_array(alone.dL_dg))
        assert max_abs(alone.dL_dg) > 0.0


def test_a_transpose_adjoint_applies_the_inverse_permutation():
    frame = mink4_frame(count=5, order=2)
    x = ArgTensor(evaluate(random_tensor_field(("u", "d", "u"), MINK4.box, seed=101),
                           frame).components)
    node = fieldtheory.a_transpose(x, (1, 2, 0))
    assert np.array_equal(node.comps.data[0], np.einsum("...ijk->...jki", x.comps.data[0]))
    rng = np.random.default_rng(103)
    bar = Jet(x.comps.nvars, x.comps.order, 3,
              [rng.normal(size=t.shape) for t in node.comps.data])
    (parent, adjoint), = node.parents
    assert parent is x
    back = adjoint(bar)
    for m in range(x.comps.order + 1):
        # <bar, P x> = <P* bar, x>, table by table and point by point
        lhs = np.sum(bar.data[m] * node.comps.data[m], axis=(1, 2, 3))
        rhs = np.sum(back.data[m] * x.comps.data[m], axis=(1, 2, 3))
        assert np.max(np.abs(lhs)) > 1e-3
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=0)
        assert np.shares_memory(back.data[m], bar.data[m])


@pytest.mark.parametrize("perm", [(0,), (0, 0), (1, 2), (0, 1, 2)])
def test_a_transpose_rejects_a_malformed_perm(perm):
    x = ArgTensor(Jet(2, 1, 2, [np.arange(4.0).reshape(2, 2), np.zeros((2, 2, 2))]))
    with pytest.raises(ValueError, match="not a permutation"):
        fieldtheory.a_transpose(x, perm)


@pytest.mark.parametrize("subs", ["aa,->", "ab,bb->a", "ab,b->", "a,b->a", "ab,c->b"])
def test_a_einsum_rejects_subscripts_without_adjoint(subs):
    frame = mink4_frame()
    operands = {r: ArgTensor(evaluate(random_tensor_field(("u",) * r, MINK4.box, seed=97),
                                      frame).components)
                for r in range(3)}
    sx, sy = subs.split("->")[0].split(",")
    with pytest.raises(ValueError, match="no adjoint"):
        a_einsum(subs, operands[len(sx)], operands[len(sy)])

"""Geometry layer: Christoffels, curvature, Lie and covariant derivatives.

The Schwarzschild Christoffel symbols and the volume factor sqrt|det g| are
checked against symbolic computations done from scratch with sympy, so a
shared convention bug in the numeric path cannot hide.
"""

import numpy as np
import pytest
import sympy as sp

from emtkit import geometry
from emtkit.catalog import (
    BUMP_AMP,
    BUMP_WIDTH,
    SPACETIMES,
    bump2_conformal_factor,
    random_tensor_field,
    sample_points,
)
from emtkit.geometry import (
    DegenerateMetricError,
    MetricField,
    TensorField,
    covariant_derivative,
    curvature_commutator_residual,
    divergence,
    evaluate,
    geometry_at,
    lie_connection_tensor,
    lie_derivative,
    lie_nabla_commutator,
    tilde_gradient_commutator_residual,
    volume_lie_residual,
)
from emtkit.jets import Jet, JetOrderError, jet_einsum, jet_stack, jet_truncate, lift
from emtkit.suites import RunConfig, RunContext
from emtkit.tensors import (TensorValue, _slot_letters, contract, einsum, max_abs,
                            tilde_contract, value_array)

SCHW = SPACETIMES["schwarzschild"]
MINK2 = SPACETIMES["minkowski2"]
BUMP2 = SPACETIMES["bump2"]

# A handful of interior Schwarzschild points, away from horizon and axis.
SCHW_PTS = np.array([
    [0.0, 5.0, 1.1, 0.7],
    [0.4, 3.2, 2.0, 4.1],
    [-0.8, 9.5, 0.9, 2.6],
])


def schw_frame(order=3):
    return geometry_at(SCHW.metric, SCHW_PTS, order)


def _sympy_schwarzschild_metric(xs):
    t, r, th, ph = xs
    f = 1 - 2 / r
    return sp.diag(-f, 1 / f, r ** 2, r ** 2 * sp.sin(th) ** 2)


def sympy_schwarzschild_gamma(point):
    """Christoffel symbols Gamma^b_{ca} at one point, computed symbolically."""
    xs = sp.symbols("t r theta phi", real=True)
    g = _sympy_schwarzschild_metric(xs)
    ginv = g.inv()
    gamma = np.zeros((4, 4, 4))
    subs = dict(zip(xs, point))
    for b in range(4):
        for c in range(4):
            for a in range(4):
                expr = sum(
                    sp.Rational(1, 2) * ginv[b, d] * (
                        sp.diff(g[d, c], xs[a])
                        + sp.diff(g[d, a], xs[c])
                        - sp.diff(g[c, a], xs[d])
                    )
                    for d in range(4)
                )
                gamma[b, c, a] = float(expr.subs(subs))
    return gamma


def test_christoffel_matches_sympy():
    frame = schw_frame(order=2)
    got = value_array(frame.gamma)
    for i, pt in enumerate(SCHW_PTS):
        want = sympy_schwarzschild_gamma(pt)
        assert np.allclose(got[i], want, atol=1e-11), f"point {pt}"


def _sympy_bump2_metric(xs):
    x, y = xs
    phi = BUMP_AMP * sp.exp(-(x ** 2 + y ** 2) / sp.Float(BUMP_WIDTH) ** 2)
    return sp.exp(2 * phi) * sp.eye(2)


@pytest.mark.parametrize("st, metric, sign", [(SCHW, _sympy_schwarzschild_metric, -1),
                                              (BUMP2, _sympy_bump2_metric, 1)],
                         ids=["schwarzschild", "bump2"])
def test_sqrt_g_tables_match_sympy(st, metric, sign):
    # value, gradient and Hessian of sqrt|det g| against sympy's; the sign
    # of det g replaces the absolute value, whose derivative sympy leaves
    # symbolic
    xs = sp.symbols(f"x0:{st.metric.n}")
    vol = sp.sqrt(sign * metric(xs).det())
    pts = sample_points(st.box, 6, seed=8)
    frame = geometry_at(st.metric, pts, order=2)

    def at_pts(expr):
        return np.broadcast_to(sp.lambdify(xs, expr, "numpy")(*pts.T), len(pts))

    want = [at_pts(vol),
            np.stack([at_pts(sp.diff(vol, a)) for a in xs], axis=-1),
            np.stack([np.stack([at_pts(sp.diff(vol, a, b)) for b in xs], axis=-1)
                      for a in xs], axis=-2)]
    for m in range(3):
        np.testing.assert_allclose(frame.sqrt_g.data[m], want[m], rtol=1e-12,
                                   err_msg=f"order {m}")
    # at order 0 the log series has no term and the jet is sqrt|det g0|
    root = geometry.jet_sqrt_abs_det(jet_truncate(frame.g.components, 0))
    assert root.order == 0
    np.testing.assert_allclose(root.data[0], want[0], rtol=1e-12, err_msg="order 0")


def ricci(frame):
    """R_cb = R^a_{cab}, slots [c, b], and R = g^cb R_cb, as value arrays."""
    rc = np.einsum("...acab->...cb", frame.riemann.components.data[0])
    return rc, np.einsum("...cb,...cb->...", frame.ginv.components.data[0], rc)


def test_schwarzschild_is_ricci_flat():
    rc, r = ricci(schw_frame(order=2))
    assert np.max(np.abs(rc)) < 1e-10
    assert np.max(np.abs(r)) < 1e-10


def test_bump2_ricci_scalar_closed_form():
    # For g = exp(2 phi) delta in two dimensions, R = -2 exp(-2 phi) lap(phi).
    pts = sample_points(BUMP2.box, 24, seed=3)
    frame = geometry_at(BUMP2.metric, pts, order=2)
    phi = bump2_conformal_factor(lift(pts, 2, 2))
    lap = phi.data[2][..., 0, 0] + phi.data[2][..., 1, 1]
    want = -2.0 * np.exp(-2.0 * phi.data[0]) * lap
    got = ricci(frame)[1]
    assert np.allclose(got, want, atol=1e-11)


def test_metric_compatibility():
    frame = schw_frame(order=2)
    assert max_abs(covariant_derivative(frame.g, frame)) < 1e-12
    assert max_abs(covariant_derivative(frame.ginv, frame)) < 1e-12


def test_flat_lie_derivative_closed_form():
    # xi = (x1)^2 d_1 on the flat two dimensional metric:
    # (Lie_xi g)_11 = 2 d_1 xi_1 = 4 x1 and every other component vanishes.
    pts = np.array([[0.3, 1.5], [-0.2, 0.4]])
    frame = geometry_at(MINK2.metric, pts, order=2)

    def xi_fn(coords):
        t, x = coords
        return jet_stack([0.0 * x, x * x])

    xi = evaluate(TensorField(("u",), xi_fn), frame)
    h = lie_derivative(frame.g, xi, frame)
    got = value_array(h)
    want = np.zeros_like(got)
    want[:, 1, 1] = 4.0 * pts[:, 1]
    assert np.allclose(got, want, atol=1e-13)


def test_lie_partial_and_covariant_forms_agree():
    pts = sample_points(SCHW.box, 8, seed=5)
    frame = geometry_at(SCHW.metric, pts, order=3)
    xi = evaluate(random_tensor_field(("u",), SCHW.box, seed=21), frame)
    t = evaluate(random_tensor_field(("u", "d"), SCHW.box, seed=22), frame)
    a = lie_derivative(t, xi, frame)
    b = lie_derivative(t, xi, frame=None)
    assert max_abs(a - b) < 1e-10


def test_curvature_commutator_identity():
    frame = schw_frame(order=3)
    for variance in [("u",), ("d",), ("u", "d")]:
        t = evaluate(random_tensor_field(variance, SCHW.box, seed=31), frame)
        res = curvature_commutator_residual(t, frame)
        assert max_abs(res) < 1e-10, variance


def test_tilde_gradient_commutator_identity():
    frame = schw_frame(order=2)
    t = evaluate(random_tensor_field(("d", "u"), SCHW.box, seed=33), frame)
    res = tilde_gradient_commutator_residual(t, frame)
    assert max_abs(res) < 1e-11


def test_connection_tensor_two_forms_agree():
    frame = schw_frame(order=3)
    xi = evaluate(random_tensor_field(("u",), SCHW.box, seed=41), frame)
    c_direct = lie_connection_tensor(xi, frame, form="direct")
    c_metric = lie_connection_tensor(xi, frame, form="metric")
    assert max_abs(c_direct - c_metric) < 1e-10


def test_lie_nabla_commutator_from_connection():
    frame = schw_frame(order=3)
    xi = evaluate(random_tensor_field(("u",), SCHW.box, seed=43), frame)
    t = evaluate(random_tensor_field(("u", "d"), SCHW.box, seed=44), frame)
    direct = lie_nabla_commutator(t, xi, frame)
    C = lie_connection_tensor(xi, frame, form="direct")
    assert max_abs(direct - tilde_contract(t, C)) < 1e-10


def test_covariant_and_lie_derivatives_do_not_materialise_tilde(monkeypatch):
    fr = schw_frame()
    t = evaluate(random_tensor_field(("u", "d"), SCHW.box, seed=5), fr)
    xi = evaluate(random_tensor_field(("u",), SCHW.box, seed=6), fr)
    want_d = covariant_derivative(t, fr)
    want_l = lie_derivative(t, xi, fr)

    def no_tilde(_):
        raise AssertionError("tilde(T) built only to be contracted")

    monkeypatch.setattr(geometry, "tilde", no_tilde)
    for got, want in ((covariant_derivative(t, fr), want_d),
                      (lie_derivative(t, xi, fr), want_l)):
        for g, w in zip(got.components.data, want.components.data):
            assert np.array_equal(g, w)


def test_covariant_derivative_forms_its_correction_at_the_result_order(monkeypatch):
    fr = schw_frame(order=3)
    xi = evaluate(random_tensor_field(("u",), SCHW.box, seed=7), fr)
    seen = []
    real = geometry.tilde_contract

    def recording(t, m):
        seen.append(t.components.order)
        return real(t, m)

    monkeypatch.setattr(geometry, "tilde_contract", recording)
    # a field (order 3), the metric (order 3) and a derived tensor (order 2)
    for t in (xi, fr.g, fr.gamma):
        seen.clear()
        got = covariant_derivative(t, fr)
        assert got.components.order == t.components.order - 1
        assert seen == [got.components.order]


@pytest.mark.parametrize("st", [SCHW, BUMP2], ids=lambda st: st.metric.name)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_divergence_equals_the_contracted_covariant_derivative_bit_for_bit(st, order):
    fr = geometry_at(st.metric, sample_points(st.box, 5, seed=21), order)
    for seed, variance in enumerate((("u",), ("u", "u"), ("d", "u"), ("u", "d", "u"))):
        t = evaluate(random_tensor_field(variance, st.box, seed=30 + seed), fr)
        for slot in {0, t.rank - 1} & {k for k, v in enumerate(variance) if v == "u"}:
            got = divergence(t, fr, slot)
            want = contract(covariant_derivative(t, fr), slot, t.rank)
            assert got.variance == want.variance
            assert got.components.order == order - 1
            for g, w in zip(got.components.data, want.components.data, strict=True):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("t_order,xi_order", [(1, 2), (2, 1), (2, 2)])
def test_lie_derivative_forms_its_tilde_term_at_the_result_order(monkeypatch, t_order, xi_order):
    fr = schw_frame(order=2)
    t = geometry._drop_orders(evaluate(random_tensor_field(("u", "d"), SCHW.box, seed=5), fr),
                              2 - t_order)
    xi = geometry._drop_orders(evaluate(random_tensor_field(("u",), SCHW.box, seed=6), fr), 2 - xi_order)
    # the untruncated formula, whose tilde term may sit one order above the result
    dxi = covariant_derivative(xi, fr)
    term1 = jet_einsum("ija,a->ij", covariant_derivative(t, fr).components, xi.components)
    want = term1 - geometry.tilde_contract(t, dxi).components
    seen = []
    real = geometry.tilde_contract

    def recording(t, m):
        seen.append((t.components.order, m.components.order))
        return real(t, m)

    monkeypatch.setattr(geometry, "tilde_contract", recording)
    got = lie_derivative(t, xi, fr)
    top = min(t_order, xi_order) - 1
    assert got.components.order == want.order == top
    assert seen[-1] == (top, top)
    for g, w in zip(got.components.data, want.data):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def test_lie_derivative_of_the_metric_reuses_its_gradient_bit_for_bit():
    fr = schw_frame()
    xi = evaluate(random_tensor_field(("u",), SCHW.box, seed=8), fr)
    fresh = TensorValue(fr.g.variance, fr.n, fr.g.components)   # not frame.g
    want = lie_derivative(fresh, xi, fr)
    got = lie_derivative(fr.g, xi, fr)
    for g, w in zip(got.components.data, want.components.data):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def _uncut_lie(t, xi, frame):
    """Lie_xi t by its formula with no cut: every factor at its full order."""
    if frame is None:
        dt, dxi = geometry.partial_tensor(t), geometry.partial_tensor(xi)
    else:
        dt = frame.dg if t is frame.g else covariant_derivative(t, frame)
        dxi = covariant_derivative(xi, frame)
    S = _slot_letters(t.rank)
    return einsum(f"{S}a,a->{S}", dt, xi) - tilde_contract(t, dxi)


def assert_same_bytes(got, want):
    """``got`` has the tables of ``want`` up to its own order, byte for
    byte, sign bits included."""
    got, want = (x.components if isinstance(x, TensorValue) else x for x in (got, want))
    assert got.order <= want.order
    for g, w in zip(got.data, want.data[: got.order + 1], strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_a_jet_or_tensor_at_an_order_it_lacks_raises():
    fr = schw_frame()
    for x in (fr.g, fr.g.components):
        assert geometry._at_order(x, 3) is x
        cut = geometry._at_order(x, 1)
        cut = cut.components if isinstance(cut, TensorValue) else cut
        assert cut.order == 1 and cut.data == fr.g.components.data[:2]
        with pytest.raises(JetOrderError):
            geometry._at_order(x, 4)


@pytest.mark.parametrize("points", [16, 128])
@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("st", sorted(SPACETIMES))
def test_lie_derivative_keeps_the_bytes_of_the_uncut_formula(st, order, points):
    # every factor of the Lie derivative is cut to the order its result
    # reads; the uncut formula, truncated afterwards, has the same bytes
    ctx = RunContext(RunConfig(points=points, seed=7), order)
    fr = ctx.frame(st)
    families = [*ctx.xi_stacks(fr, 4), *ctx.vector_stacks(SPACETIMES[st].killing, fr)]
    tensors = [fr.g, *ctx.random_tensors(fr, base_seed=40)]
    for xi in families:
        for t in tensors:
            got = lie_derivative(t, xi, fr)
            assert got.components.order == order - 1
            assert_same_bytes(got, _uncut_lie(t, xi, fr))
        assert_same_bytes(lie_derivative(tensors[-1], xi), _uncut_lie(tensors[-1], xi, None))
    # a lower xi lowers the result, and an order-0 one has no derivative
    low = geometry._drop_orders(families[0], order - 1)
    assert_same_bytes(lie_derivative(fr.g, low, fr), _uncut_lie(fr.g, low, fr))
    assert lie_derivative(fr.g, low, fr).components.order == 0
    with pytest.raises(JetOrderError):
        lie_derivative(fr.g, geometry._drop_orders(low, 1), fr)


def test_metric_gradient_is_computed_once_per_frame(monkeypatch):
    fr = schw_frame(order=2)
    xis = [evaluate(random_tensor_field(("u",), SCHW.box, seed=s), fr) for s in (9, 10)]
    seen = []
    real = geometry.covariant_derivative

    def counting(t, frame):
        seen.append(t)
        return real(t, frame)

    monkeypatch.setattr(geometry, "covariant_derivative", counting)
    for xi in xis:
        lie_derivative(fr.g, xi, fr)
    assert sum(t is fr.g for t in seen) == 1


def test_killing_vectors_annihilate_metric():
    frame = schw_frame(order=2)
    for vf in SCHW.killing:
        xi = evaluate(vf, frame)
        assert max_abs(lie_derivative(frame.g, xi, frame)) < 1e-12, vf.name


def test_nonkilling_vector_fails_killing_residual():
    frame = schw_frame(order=2)
    xi = evaluate(random_tensor_field(("u",), SCHW.box, seed=51), frame)
    assert max_abs(lie_derivative(frame.g, xi, frame)) > 1e-3


def test_volume_weight_flow_identity():
    pts = sample_points(BUMP2.box, 16, seed=6)
    frame = geometry_at(BUMP2.metric, pts, order=2)
    xi = evaluate(random_tensor_field(("u",), BUMP2.box, seed=52), frame)
    res = volume_lie_residual(xi, frame)
    assert res.variance == () and max_abs(res) < 1e-12


def test_volume_weight_flow_reads_the_derivatives_of_sqrt_g():
    # sqrt|g| with its value kept and its first derivatives doubled must
    # break the identity: its right side is d_a(sqrt|g| xi^a)
    pts = sample_points(BUMP2.box, 16, seed=6)
    frame = geometry_at(BUMP2.metric, pts, order=2)
    xi = evaluate(random_tensor_field(("u",), BUMP2.box, seed=52), frame)
    sg = frame.sqrt_g
    frame.sqrt_g = Jet(sg.nvars, sg.order, 0, [sg.data[0], 2.0 * sg.data[1], sg.data[2]])
    assert max_abs(volume_lie_residual(xi, frame)) > 1e-2


def test_christoffel_against_finite_differences():
    # independent numeric check: central differences of the metric itself
    pt = np.array([0.0, 6.0, 1.3, 0.9])
    h = 1e-5
    n = 4

    def g_at(p):
        coords = lift(p[None, :], n, 0)
        return SCHW.metric.fn(coords).data[0][0]

    dg = np.zeros((n, n, n))  # [a, b, c] = d_c g_ab
    for c in range(n):
        e = np.zeros(n)
        e[c] = h
        dg[:, :, c] = (g_at(pt + e) - g_at(pt - e)) / (2 * h)
    ginv = np.linalg.inv(g_at(pt))
    want = np.zeros((n, n, n))
    for b in range(n):
        for c in range(n):
            for a in range(n):
                want[b, c, a] = 0.5 * sum(
                    ginv[b, d] * (dg[d, c, a] + dg[d, a, c] - dg[c, a, d])
                    for d in range(n)
                )
    frame = geometry_at(SCHW.metric, pt[None, :], 1)
    got = value_array(frame.gamma)[0]
    assert np.allclose(got, want, atol=1e-7)


def test_degenerate_metric_raises():
    def collapsing(coords):
        x, y = coords
        z = 0.0 * x
        return jet_stack([[x * x, z], [z, z + 1.0]])

    m = MetricField(name="pinch", n=2, fn=collapsing)
    with pytest.raises(DegenerateMetricError):
        geometry_at(m, np.array([[0.0, 1.0]]), 1)


def test_too_few_coordinate_columns_rejected():
    with pytest.raises(ValueError):
        geometry_at(SCHW.metric, np.zeros((3, 2)), 1)

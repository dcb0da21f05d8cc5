"""Truncated Taylor tables against independent oracles.

The oracles are central finite differences with Richardson extrapolation
(never jets themselves), sympy's symbolic derivatives, plus analytically
differentiated polynomials where exactness to machine precision is expected.
"""

import math
import os
import subprocess
import sys
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from emtkit import geometry, jets
from emtkit.jets import (
    Jet,
    JetOrderError,
    constant_jet,
    differentiate,
    jcos,
    jet_compose,
    jet_einsum,
    jet_stack,
    jet_truncate,
    jexp,
    jlog,
    jreciprocal,
    jsin,
    jsqrt,
    lift,
    partial_in_var,
    stack_members,
    zeros_jet,
)


def fd_gradient(f, x, h=1e-5):
    """Central difference gradient with one Richardson step."""
    x = np.asarray(x, float)
    n = x.size

    def grad(step):
        g = np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            g[i] = (f(x + e) - f(x - e)) / (2 * step)
        return g

    g1 = grad(h)
    g2 = grad(h / 2)
    return (4 * g2 - g1) / 3


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            H[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                       - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return H


def scalar_fn_jets(x, order):
    coords = lift(np.asarray(x, float), len(x), order)
    return coords


def test_polynomial_exact():
    # f(t, u) = 3 t^2 u - u^3 + 2: every stored derivative must be exact
    pts = np.array([[1.5, -0.7], [0.2, 2.0]])
    t, u = lift(pts, 2, 3)
    f = 3.0 * t * t * u - u * u * u + 2.0
    tv, uv = pts[:, 0], pts[:, 1]
    assert np.allclose(f.data[0], 3 * tv**2 * uv - uv**3 + 2, atol=0, rtol=0)
    # gradient [df/dt, df/du]
    g = f.data[1]
    assert np.allclose(g[:, 0], 6 * tv * uv, atol=1e-15)
    assert np.allclose(g[:, 1], 3 * tv**2 - 3 * uv**2, atol=1e-15)
    # hessian
    H = f.data[2]
    assert np.allclose(H[:, 0, 0], 6 * uv, atol=1e-14)
    assert np.allclose(H[:, 0, 1], 6 * tv, atol=1e-14)
    assert np.allclose(H[:, 1, 0], 6 * tv, atol=1e-14)
    assert np.allclose(H[:, 1, 1], -6 * uv, atol=1e-14)
    # third order d3f/dt2du = 6
    T = f.data[3]
    assert np.allclose(T[:, 0, 0, 1], 6.0, atol=1e-14)
    assert np.allclose(T[:, 1, 1, 1], -6.0, atol=1e-14)


@pytest.mark.parametrize("builder,reference", [
    (lambda t, u: jexp(t * u), lambda x: np.exp(x[0] * x[1])),
    (lambda t, u: jsin(t) * jcos(u), lambda x: np.sin(x[0]) * np.cos(x[1])),
    (lambda t, u: jlog(2.0 + t * t + u * u),
     lambda x: np.log(2.0 + x[0] ** 2 + x[1] ** 2)),
    (lambda t, u: jsqrt(3.0 + t + u * u), lambda x: np.sqrt(3.0 + x[0] + x[1] ** 2)),
    (lambda t, u: jreciprocal(2.0 + jsin(t) + u * u),
     lambda x: 1.0 / (2.0 + np.sin(x[0]) + x[1] ** 2)),
])
def test_against_finite_differences(builder, reference):
    x = np.array([0.43, -0.81])
    t, u = lift(x, 2, 2)
    f = builder(t, u)
    assert np.isclose(f.data[0], reference(x), rtol=1e-14)
    assert np.allclose(f.data[1], fd_gradient(reference, x), rtol=1e-8, atol=1e-10)
    assert np.allclose(f.data[2], fd_hessian(reference, x), rtol=1e-5, atol=1e-7)


def test_derivative_tables_symmetric():
    x = np.array([[0.3, 0.9, -0.4]])
    a, b, c = lift(x, 3, 3)
    f = jexp(a * b) * jsin(b * c) + jsqrt(2.0 + c)
    T = f.data[3][0]
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.allclose(T, np.transpose(T, perm), atol=1e-13)


def test_jet_stack_releases_its_leaves_without_the_cycle_collector():
    import gc
    import weakref

    pts = np.random.default_rng(3).uniform(-1, 1, (5, 2))
    t, u = lift(pts, 2, 2)
    leaf = 2.0 * t
    table = weakref.ref(leaf.data[1])
    gc.disable()
    try:
        stacked = jet_stack([leaf, u])
        del leaf
        assert table() is None
    finally:
        gc.enable()
    assert np.array_equal(stacked.data[1][:, 0], 2.0 * t.data[1])


def _stacked_by_leaf(nested, vshape, nvars, order, batch):
    """Reference stack: each leaf's tables written into its own slot."""
    out = [np.empty(batch + vshape + (nvars,) * m) for m in range(order + 1)]
    for idx in np.ndindex(*vshape):
        leaf = nested
        for i in idx:
            leaf = leaf[i]
        for m, table in enumerate(out):
            where = (slice(None),) * len(batch) + idx
            table[where] = leaf.data[m] if isinstance(leaf, Jet) else (leaf if m == 0 else 0.0)
    return out


def _stack_cases():
    pts = np.random.default_rng(8).uniform(-1, 1, (5, 2))
    t, u = lift(pts, 2, 2)
    t3, u3 = lift(pts, 2, 3)
    t1, u1 = lift(pts[:1], 2, 2)
    r, s = lift(pts[:, None, :], 2, 2)                     # batch (5, 1)
    q, _ = lift(pts[None, :3, :], 2, 2)                    # batch (1, 3)
    return {
        "rank1-numbers": ([t * u, 1.5, jsin(t), -2.0], (4,), 2, (5,)),
        "rank2": ([[t * u, jsin(t), u], [jcos(u), t + u, 0.25]], (2, 3), 2, (5,)),
        "mixed-order": ([[t3 * u3, u], [t, 0.5]], (2, 2), 2, (5,)),
        "broadcast-batch": ([[t1, t], [u1 * u, u1]], (2, 2), 2, (5,)),
        "broadcast-2d-batch": ([r * s, q, 3.0], (3,), 2, (5, 3)),
        "array-leaf": ([t, np.arange(5.0), u], (3,), 2, (5,)),
    }


@pytest.mark.parametrize("case", sorted(_stack_cases()))
def test_jet_stack_matches_per_leaf_reference_bitwise(case):
    nested, vshape, order, batch = _stack_cases()[case]
    got = jet_stack(nested)
    assert (got.order, got.vdim, got.batch_shape, got.vshape) == (order, len(vshape), batch, vshape)
    want = _stacked_by_leaf(nested, vshape, 2, order, batch)
    for m, (g, w) in enumerate(zip(got.data, want)):
        assert g.flags.c_contiguous or jets._is_zero(g), m
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), m


def test_jet_stack_keeps_an_order_where_every_leaf_vanishes_structural():
    t, u = lift(np.random.default_rng(8).uniform(-1, 1, (5, 2)), 2, 3)
    got = jet_stack([[t, 2.0], [u, t + u]])
    assert [jets._is_zero(d) for d in got.data] == [False, False, True, True]
    assert not jets._is_zero(jet_stack([t, t * u]).data[2])


def test_jet_stack_rejects_bad_nestings():
    t, u = lift(np.zeros((2, 2)), 2, 1)
    with pytest.raises(ValueError, match="at least one Jet leaf"):
        jet_stack([[1.0, 2.0]])
    with pytest.raises(ValueError, match="rectangular"):
        jet_stack([[t, u], [t]])
    with pytest.raises(ValueError, match="rectangular"):
        jet_stack([t, [u, t]])
    with pytest.raises(ValueError, match="differ in nvars"):
        jet_stack([t, lift(np.zeros((2, 3)), 3, 1)[0]])
    with pytest.raises(ValueError, match="scalar leaves"):
        jet_stack([t, jet_stack([t, u])])


def test_jet_einsum_product_rule():
    pts = np.random.default_rng(2).uniform(-1, 1, (5, 2))
    t, u = lift(pts, 2, 2)
    A = jet_stack([[t * u, jsin(t)], [jcos(u), t + u]])
    B = jet_stack([jexp(0.3 * t), t * t])
    C = jet_einsum("ij,j->i", A, B)

    # value against plain einsum of the values
    want = np.einsum("...ij,...j->...i", A.data[0], B.data[0])
    assert np.allclose(C.data[0], want, atol=1e-14)
    # first derivative: product rule
    want1 = (np.einsum("...ijd,...j->...id", A.data[1], B.data[0])
             + np.einsum("...ij,...jd->...id", A.data[0], B.data[1]))
    assert np.allclose(C.data[1], want1, atol=1e-14)
    # second derivative: Leibniz with the cross terms
    want2 = (np.einsum("...ijde,...j->...ide", A.data[2], B.data[0])
             + np.einsum("...ijd,...je->...ide", A.data[1], B.data[1])
             + np.einsum("...ije,...jd->...ide", A.data[1], B.data[1])
             + np.einsum("...ij,...jde->...ide", A.data[0], B.data[2]))
    assert np.allclose(C.data[2], want2, atol=1e-14)


def _leibniz_reference(subs, x, y):
    """One einsum per subset of derivative slots taken by x, summed in
    ``combinations`` order."""
    (sx, sy), so = subs.split("->")[0].split(","), subs.split("->")[1]
    order = min(x.order, y.order)
    dl = [c for c in "zyxwvutsrq"][:order]
    out = []
    for m in range(order + 1):
        acc = None
        for i in range(m + 1):
            for pos in combinations(range(m), i):
                fl = "".join(dl[p] for p in pos)
                gl = "".join(dl[p] for p in range(m) if p not in pos)
                t = np.einsum(f"...{sx}{fl},...{sy}{gl}->...{so}{''.join(dl[:m])}",
                              x.data[i], y.data[m - i])
                acc = t if acc is None else acc + t
        out.append(acc)
    return out


@pytest.mark.parametrize("subs", [",->", "ab,bc->ac", "a,b->ab", "abc,c->ab", "ab,ab->"])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("bx,by", [((), ()), ((5,), (5,)), ((2, 1), (1, 3)), ((4,), ())])
def test_jet_einsum_matches_per_subset_leibniz(subs, order, bx, by):
    # random tables that are not symmetric in their derivative axes, so a
    # slot permuted the wrong way shows; the sums must agree bit for bit
    rng = np.random.default_rng(order)
    dims = {"a": 3, "b": 4, "c": 5}
    nv = 3
    (sx, sy) = subs.split("->")[0].split(",")

    def table_jet(batch, letters):
        shape = batch + tuple(dims[c] for c in letters)
        return Jet(nv, order, len(letters),
                   [rng.normal(size=shape + (nv,) * m) for m in range(order + 1)])

    x, y = table_jet(bx, sx), table_jet(by, sy)
    got = jet_einsum(subs, x, y)
    want = _leibniz_reference(subs, x, y)
    assert got.order == order and len(got.data) == len(want)
    for g, w in zip(got.data, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


# tables of x and y that become zero: the value table of a derivative part
# (every split reading it skipped, so the first live split of order 3 has
# three perms and must not accumulate into its own base), a derivative part
# with no gradient either (the first live split of order 3 is i = 2, three
# perms), a zero in the middle of y, and zero value tables on both sides
# (order 0 of the result is itself zero)
ZERO_CASES = {
    "x0": ((0,), ()),
    "x0-x1": ((0, 1), ()),
    "x1": ((1,), ()),
    "y0": ((), (0,)),
    "y2": ((), (2,)),
    "x0-y0": ((0,), (0,)),
}


@pytest.mark.parametrize("subs", [",->", "ab,bc->ac", "a,b->ab", "ab,ab->"])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("zeros", sorted(ZERO_CASES))
@pytest.mark.parametrize("batch", [(5,), (jets._MATMUL_MIN_POINTS,)], ids=["einsum", "matmul"])
def test_structural_zero_skips_equal_dense_zeros(subs, order, zeros, batch):
    rng = np.random.default_rng(order)
    dims = {"a": 3, "b": 4, "c": 2}
    nv = 3
    (sx, sy) = subs.split("->")[0].split(",")

    def operand(letters, zero, make):
        shape = batch + tuple(dims[c] for c in letters)
        return Jet(nv, order, len(letters),
                   [make(shape + (nv,) * m) if m in zero else rng.normal(size=shape + (nv,) * m)
                    for m in range(order + 1)])

    zx, zy = ZERO_CASES[zeros]
    state = rng.bit_generator.state
    got = jet_einsum(subs, operand(sx, zx, jets._zero_table), operand(sy, zy, jets._zero_table))
    rng.bit_generator.state = state
    want = jet_einsum(subs, operand(sx, zx, np.zeros), operand(sy, zy, np.zeros))
    for m, (g, w) in enumerate(zip(got.data, want.data)):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
        # an order every split of which reads a zero is itself a structural zero
        dead = all(i in zx or m - i in zy for i in range(m + 1))
        assert jets._is_zero(g) == dead


def test_structural_zeros_are_free_read_only_views():
    z = zeros_jet(3, 2, 1, (16, 4))
    c = constant_jet(np.ones((16, 4)), 3, 2, vdim=1)
    t, _ = lift(np.zeros((16, 2)), 3, 3)
    for table in (*z.data, *c.data[1:], *t.data[2:]):
        assert not any(table.strides) and not table.flags.writeable
        assert jets._is_zero(table)
    assert not jets._is_zero(t.data[1]) and not jets._is_zero(np.zeros((2, 2)))
    # sums, negation and scaling hand a zero on; the live table passes a sum through
    assert all(jets._is_zero(table) for table in (-z + 2.0 * z - z).data[1:])
    s = c + z
    assert s.data[0] is c.data[0] and jets._is_zero(s.data[1])


def test_a_live_table_of_any_layout_passes_a_sum_with_a_zero():
    """``x ± 0`` and ``0 + x`` hand on x's own tables even when they are not
    C-contiguous, ``0 - x`` is ``-x``, and a sum that broadcasts still adds."""
    rng = np.random.default_rng(5)
    x = Jet(2, 1, 1, [rng.normal(size=(3, 4)).T,
                      rng.normal(size=(2, 3, 4)).transpose(2, 1, 0)])
    assert not any(t.flags.c_contiguous for t in x.data)
    z = zeros_jet(2, 1, 1, (4, 3))
    for s in (x + z, z + x, x - z):
        assert all(got is t for got, t in zip(s.data, x.data, strict=True))
    for got, t in zip((z - x).data, x.data, strict=True):
        assert np.array_equal(got, -t)
    wide = zeros_jet(2, 1, 1, (5, 4, 3)) + x
    assert all(got.shape == (5,) + t.shape and np.array_equal(got[2], t)
               for got, t in zip(wide.data, x.data, strict=True))


_MALFORMED = {
    "negative-order": ((2, -1, 0, []), "jet order must be >= 0"),
    "table-count": ((2, 1, 0, [np.zeros(3)]), "expected 2 derivative tables, got 1"),
    "value-axes": ((2, 0, 2, [np.zeros(3)]), "value table has fewer axes than vdim"),
    "order-m-axes": ((2, 1, 1, [np.zeros((4, 3)), np.zeros(2)]),
                     "order-1 table has shape (2,), expected (4, 3, 2)"),
    "derivative-axes": ((2, 1, 0, [np.zeros(4), np.zeros((4, 3))]),
                        "order-1 table has shape (4, 3), expected (4, 2)"),
    "value-shape": ((2, 1, 1, [np.zeros((4, 3)), np.zeros((4, 5, 2))]),
                    "order-1 table has shape (4, 5, 2), expected (4, 3, 2)"),
    "value-shape-order-2": ((2, 2, 1, [np.zeros((4, 3)), np.zeros((4, 3, 2)),
                                       np.zeros((3, 2, 2, 2))]),
                            "order-2 table has shape (3, 2, 2, 2), expected (4, 3, 2, 2)"),
    "batch": ((2, 1, 0, [np.zeros(4), np.zeros((5, 2))]),
              "order-1 table has shape (5, 2), expected (4, 2)"),
    "batch-order-2": ((2, 2, 0, [np.zeros(4), np.zeros((4, 2)), np.zeros((5, 2, 2))]),
                      "order-2 table has shape (5, 2, 2), expected (4, 2, 2)"),
    # tables whose batches would broadcast to one are rejected all the same
    "batch-broadcastable": ((5, 1, 1, [np.zeros((3, 1, 2)), np.zeros((4, 2, 5))]),
                            "order-1 table has shape (4, 2, 5), expected (3, 1, 2, 5)"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_a_malformed_jet_is_rejected_with_its_message(case):
    args, message = _MALFORMED[case]
    with pytest.raises(ValueError) as exc:
        Jet(*args)
    assert str(exc.value) == message


def test_exactly_shaped_float_tables_are_kept_without_broadcasting(monkeypatch):
    rng = np.random.default_rng(11)
    tables = [rng.normal(size=(16, 3) + (4,) * m) for m in range(4)]
    tables[1] = rng.normal(size=(4, 3, 16)).T   # not C-contiguous
    tables[3] = jets._zero_table((16, 3, 4, 4, 4))

    def refuse(*args, **kwargs):
        raise AssertionError("an exactly shaped jet needs no broadcasting")

    monkeypatch.setattr(jets.np, "broadcast_shapes", refuse)
    monkeypatch.setattr(jets.np, "broadcast_to", refuse)
    j = Jet(4, 3, 1, tables)
    assert all(got is t for got, t in zip(j.data, tables, strict=True))
    assert (j.batch_shape, j.vshape) == ((16,), (3,))


def test_int_and_list_tables_become_float():
    j = Jet(2, 1, 0, [[1, 2], np.array([[1, 0], [0, 1]])])
    assert all(t.dtype == np.float64 for t in j.data)
    assert np.array_equal(j.data[0], [1.0, 2.0]) and np.array_equal(j.data[1], np.eye(2))


@pytest.mark.parametrize("shape", [(), (0,), (16, 4, 4, 5)])
def test_a_structural_zero_is_a_read_only_view_with_every_stride_0(shape):
    z = jets._zero_table(shape)
    assert z.shape == shape and z.dtype == np.float64
    assert not z.flags.writeable and not any(z.strides)
    with pytest.raises(ValueError):
        z[...] = 1.0
    assert np.all(z == 0.0)
    assert jets._is_zero(z) == (z.size > 0)


@pytest.mark.parametrize("keep", [None, 1])
@pytest.mark.parametrize("vdim", [0, 2])
def test_differentiate_is_moveaxis_of_each_table(keep, vdim):
    rng = np.random.default_rng(2)
    f = Jet(3, 3, vdim, [rng.normal(size=(5,) + (2,) * vdim + (3,) * m) for m in range(4)])
    df = differentiate(f, keep)
    p = 1 + vdim
    for m, t in enumerate(df.data):
        want = np.moveaxis(f.data[m + 1], -1, p)[(slice(None),) * p + (slice(0, keep),)]
        assert t.shape == want.shape and t.strides == want.strides
        assert np.array_equal(t, want)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_non_finite_values_reach_the_value_table(order):
    # a structural zero may drop the 0 * NaN terms it would have produced,
    # but never a NaN that a live operand carries into the value table; u
    # holds one NaN, and its tables above order 1 are structural zeros
    _, u = lift(np.array([[0.5, np.nan], [0.25, 0.75]]), 2, order)
    const = constant_jet(np.array([2.0, 3.0]), 2, order)
    for res in (jet_einsum(",->", u, const), jet_einsum(",->", const, u), u * u,
                jexp(u), jsin(u), jreciprocal(u + 5.0), jsqrt(u * u + 1.0)):
        assert np.isnan(res.data[0][0]) and np.isfinite(res.data[0][1])
    g = jet_stack([[u + 2.0, 0.0], [0.0, u * 0.0 + 1.0]])
    inv = geometry.jet_matrix_inverse(g)
    assert np.isnan(inv.data[0][0]).any() and np.isfinite(inv.data[0][1]).all()
    inf = constant_jet(np.array([np.inf, 1.0]), 2, order)
    assert np.isinf(jet_einsum(",->", inf, const).data[0][0])


# plain matmuls (a batch letter, the 1024-point quadrature's largest jet
# product), an outer product and a full contraction, then the two subscript
# kinds that are not a plain matmul: a letter repeated within an operand and
# a letter summed in one operand only
ROUTE_SUBSCRIPTS = ["ab,bc->ac", "abc,ac->ab", "abde,cdf->abcfe", "a,b->ab", "ab,ab->",
                    "aab,b->a", "ab,bc->c"]
ROUTE_POINTS = jets._MATMUL_MIN_POINTS
# operand kinds and batch shapes: a shared batch of one or two axes, batches
# that only broadcast, and a constant with no batch axes
ROUTE_OPERANDS = {
    "jet-jet": ("jet", "jet", (ROUTE_POINTS,), (ROUTE_POINTS,)),
    "jet-jet-two-axis": ("jet", "jet", (2, ROUTE_POINTS), (2, ROUTE_POINTS)),
    "jet-jet-broadcast": ("jet", "jet", (ROUTE_POINTS, 1), (1, 3)),
    "jet-const": ("jet", "const", (ROUTE_POINTS,), (ROUTE_POINTS,)),
    "jet-const-no-batch": ("jet", "const", (ROUTE_POINTS,), ()),
    "const-jet": ("const", "jet", (ROUTE_POINTS,), (ROUTE_POINTS,)),
    "const-const": ("const", "const", (ROUTE_POINTS,), (ROUTE_POINTS,)),
}


def _route_operand(rng, kind, batch, letters, order, nv=2):
    # not symmetric in the derivative axes, so a misplaced slot shows
    dims = {"a": 3, "b": 2, "c": 4, "d": 3, "e": 2, "f": 3}
    shape = batch + tuple(dims[c] for c in letters)
    if kind == "const":
        return rng.normal(size=shape)
    return Jet(nv, order, len(letters), [rng.normal(size=shape + (nv,) * m)
                                         for m in range(order + 1)])


def _as_jet(x, like):
    if isinstance(x, Jet):
        return x
    return Jet(like.nvars, like.order, x.ndim, [x] + [np.zeros(x.shape + (like.nvars,) * m)
                                                     for m in range(1, like.order + 1)])


@pytest.mark.parametrize("subs", ROUTE_SUBSCRIPTS)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("operands", sorted(ROUTE_OPERANDS))
def test_large_batch_contraction_matches_einsum(subs, order, operands):
    rng = np.random.default_rng(order)
    (sx, sy) = subs.split("->")[0].split(",")
    kx, ky, bx, by = ROUTE_OPERANDS[operands]
    x = _route_operand(rng, kx, bx, sx, order)
    y = _route_operand(rng, ky, by, sy, order)
    got = jet_einsum(subs, x, y)
    if operands == "const-const":
        got_tables = [got]
        want = [np.einsum(f"...{sx},...{sy}->...{subs.split('->')[1]}", x, y)]
    else:
        like = x if isinstance(x, Jet) else y
        assert got.order == order and got.nvars == like.nvars
        got_tables = list(got.data)
        want = _leibniz_reference(subs, _as_jet(x, like), _as_jet(y, like))
    assert len(got_tables) == len(want)
    for g, w in zip(got_tables, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_large_batch_jet_product_makes_no_einsum_call(monkeypatch):
    # the largest contraction of the 1024-point quadrature chunks
    rng = np.random.default_rng(11)
    x = _route_operand(rng, "jet", (1024,), "abde", 2)
    y = _route_operand(rng, "jet", (1024,), "cdf", 2)
    calls = []
    real = np.einsum

    def counting(subs, *ops, **kw):
        calls.append(subs)
        return real(subs, *ops, **kw)
    monkeypatch.setattr(np, "einsum", counting)
    big = jet_einsum("abde,cdf->abcfe", x, y)
    assert calls == []
    # the 16-point suites stay on np.einsum: one call per Leibniz split
    small = jet_einsum("abde,cdf->abcfe", _route_operand(rng, "jet", (16,), "abde", 2),
                       _route_operand(rng, "jet", (16,), "cdf", 2))
    assert len(calls) == 1 + 2 + 3
    assert big.batch_shape == (1024,) and small.batch_shape == (16,)


# plain-matmul subscripts: matrix products, one with a batch letter, the
# quadrature's largest jet product and a matrix-vector product
STACK_SUBSCRIPTS = ["ab,bc->ac", "abc,ac->ab", "abde,cdf->abcfe", "ab,b->a"]
# the stacks a 16-point run evaluates: 4 members of 16 points
STACK_MEMBERS = 4


@pytest.mark.parametrize("points", [16, 200])
@pytest.mark.parametrize("stacked", ["x", "y", "both"])
@pytest.mark.parametrize("subs", STACK_SUBSCRIPTS)
def test_a_stack_contracts_to_the_bits_of_each_member(monkeypatch, subs, stacked, points):
    # members on a leading batch axis against a quantity of the sample
    # points alone, or against a second stack; each slice of the product
    # has the bits of that member's product.  A run's stacks hold fewer than
    # ``_MATMUL_MIN_POINTS`` points, so every split goes through np.einsum.
    # At 200 points a stack against a stack has equal leading axes and goes
    # through ``@``, as each member does; a stack against an unstacked
    # operand goes through np.einsum, and has the bits of each member's
    # np.einsum product.  x's order-2 table is a structural zero of every
    # member, and of the stack
    assert STACK_MEMBERS * 16 < jets._MATMUL_MIN_POINTS <= 200
    rng = np.random.default_rng(points)
    (sx, sy) = subs.split("->")[0].split(",")

    def members(letters, count, zero):
        out = []
        for _ in range(count):
            j = _route_operand(rng, "jet", (points,), letters, 2)
            out.append(Jet(j.nvars, 2, j.vdim, [*j.data[:2], jets._zero_table(j.data[2].shape)])
                       if zero else j)
        return out

    xs = members(sx, STACK_MEMBERS if stacked != "y" else 1, True)
    ys = members(sy, STACK_MEMBERS if stacked != "x" else 1, False)
    x = stack_members(xs) if stacked != "y" else xs[0]
    y = stack_members(ys) if stacked != "x" else ys[0]
    assert (stacked == "y") or jets._is_zero(x.data[2])
    calls = []
    real = np.einsum

    def counting(subs_, *ops, **kw):
        calls.append(subs_)
        return real(subs_, *ops, **kw)

    monkeypatch.setattr(np, "einsum", counting)
    got = jet_einsum(subs, x, y)
    # x's live orders 0 and 1 against y's 0, 1 and 2: five splits
    assert len(calls) == (0 if points >= jets._MATMUL_MIN_POINTS and stacked == "both" else 5)
    assert got.batch_shape == (STACK_MEMBERS, points)
    if stacked != "both":
        # the members' reference products on the path the stack took
        monkeypatch.setattr(jets, "_MATMUL_MIN_POINTS", math.inf)
    for k in range(STACK_MEMBERS):
        want = jet_einsum(subs, xs[k] if stacked != "y" else x, ys[k] if stacked != "x" else y)
        for g, w in zip(got.data, want.data, strict=True):
            assert g[k].tobytes() == w.tobytes()


def test_stacked_members_are_contiguous_slices_and_keep_shared_zeros():
    t, u = lift(np.random.default_rng(2).uniform(size=(5, 2)), 2, 3)
    a, b = jet_stack([t, u + 1.0]), jet_stack([u * t, t * 2.0])   # affine, then quadratic
    stack = stack_members([a, b])
    assert stack.batch_shape == (2, 5) and stack.vdim == 1
    for k, member in enumerate((a, b)):
        for s_, m in zip(stack.data, member.data):
            assert np.array_equal(s_[k], m)
            assert jets._is_zero(s_[k]) or s_[k].flags.c_contiguous
    # order 3 is a structural zero of both members; order 2 only of a
    assert jets._is_zero(stack.data[3]) and stack.data[3].shape == (2, 5, 2, 2, 2, 2)
    assert jets._is_zero(a.data[2]) and not jets._is_zero(stack.data[2])


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from emtkit.jets import Jet, jet_einsum

rng = np.random.default_rng(5)


def jet(shape, order):
    return Jet(2, order, len(shape) - 1,
               [rng.normal(size=shape + (2,) * m) for m in range(order + 1)])


# many small products, and products big enough for a threaded gemm
out = [jet_einsum("abde,cdf->abcfe", jet((256, 4, 4, 4, 4), 2), jet((256, 4, 4, 4), 2)),
       jet_einsum("ab,bc->ac", jet((128, 96, 96), 0), jet((128, 96, 96), 0))]
digest = hashlib.sha256()
for j in out:
    for t in j.data:
        digest.update(np.ascontiguousarray(t).tobytes())
print(digest.hexdigest())
"""


def test_large_batch_contraction_is_bitwise_stable_across_blas_threads():
    src = str(Path(jets.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("lhs,rhs", [("jet", "jet"), ("jet", "const"), ("const", "jet")])
def test_subtraction_is_adding_the_negation_bitwise(lhs, rhs):
    rng = np.random.default_rng(3)

    def operand(kind, order, batch):
        if kind == "const":
            # a constant that broadcasts into the jet's batch without widening it
            return rng.normal(size=(1, 3))
        return Jet(2, order, 1, [rng.normal(size=batch + (3,) + (2,) * m)
                                 for m in range(order + 1)])

    x, y = operand(lhs, 3, (4, 1)), operand(rhs, 2, (5,))
    got, want = x - y, x + (-y)
    assert isinstance(got, Jet) and got.order == want.order
    for g, w in zip(got.data, want.data):
        assert g.tobytes() == w.tobytes()


def test_division_and_power():
    # jets have no ``**``: the real power that stays is ``_jpow_float``,
    # the ladder under ``jsqrt``
    x = np.array([0.7, 1.3])
    t, u = lift(x, 2, 3)
    f = (t * t + 1.0) / (u + 2.0)
    ref = lambda y: (y[0] ** 2 + 1) / (y[1] + 2)
    assert np.isclose(f.data[0], ref(x), rtol=1e-14)
    assert np.allclose(f.data[1], fd_gradient(ref, x), rtol=1e-8)
    g = jets._jpow_float(1.0 + t * t, 1.5)
    refg = lambda y: (1 + y[0] ** 2) ** 1.5
    assert np.isclose(g.data[0], refg(x), rtol=1e-14)
    assert np.allclose(g.data[1], fd_gradient(refg, x), rtol=1e-8)
    h = jets._jpow_float(u, 3.0)
    assert np.isclose(h.data[0], x[1] ** 3, rtol=1e-14)
    assert np.isclose(h.data[1][1], 3 * x[1] ** 2, rtol=1e-12)


def test_zeroth_power_keeps_batch_and_value_axes():
    # ``_jpow_float`` takes strictly positive value parts
    pts = np.random.default_rng(5).uniform(0.5, 1.5, (5, 2))
    x, y = lift(pts, 2, 2)
    one = jets._jpow_float(x, 0.0)
    assert (one.vdim, one.batch_shape, one.vshape) == (0, (5,), ())
    assert np.array_equal((x + one).data[0], pts[:, 0] + 1.0)
    v = jets._jpow_float(jet_stack([x, y]), 0.0)
    assert (v.vdim, v.batch_shape, v.vshape) == (1, (5,), (2,))
    assert np.all(v.data[0] == 1.0) and not any(t.any() for t in v.data[1:])


def test_differentiate_moves_axis():
    pts = np.array([[0.2, 0.4], [1.0, -1.0], [0.5, 0.25]])
    t, u = lift(pts, 2, 3)
    f = t * t * u
    df = differentiate(f)
    assert df.order == 2
    assert df.vshape == (2,)
    assert np.allclose(df.data[0][:, 0], 2 * pts[:, 0] * pts[:, 1], atol=1e-15)
    assert np.allclose(df.data[0][:, 1], pts[:, 0] ** 2, atol=1e-15)
    # second differentiation gives the hessian layout [i, j]
    ddf = differentiate(df)
    assert ddf.vshape == (2, 2)
    assert np.allclose(ddf.data[0][:, 0, 1], 2 * pts[:, 0], atol=1e-15)


def test_differentiate_keep_hides_auxiliary_vars():
    pts = np.array([[0.3, 0.8, 0.0]])
    t, u, eps = lift(pts, 3, 2)
    f = t * u + eps * u * u
    df = differentiate(f, keep=2)
    assert df.vshape == (2,)
    assert np.allclose(df.data[0][0], [0.8, 0.3], atol=1e-15)
    deps = partial_in_var(f, 2)
    assert np.isclose(deps.data[0][0], 0.64, atol=1e-15)


def test_order_exhaustion_raises():
    t, = lift(np.array([1.0]), 1, 0)
    with pytest.raises(JetOrderError):
        differentiate(t)
    with pytest.raises(JetOrderError):
        partial_in_var(t, 0)


def test_truncate_and_constants():
    t, u = lift(np.array([0.5, 0.25]), 2, 3)
    f = jexp(t * u)
    g = jet_truncate(f, 1)
    assert g.order == 1
    assert np.allclose(g.data[0], f.data[0])
    c = constant_jet(np.array([2.0, 3.0]), nvars=2, order=2)
    assert c.vshape == (2,)
    assert np.allclose(c.data[1], 0.0)
    z = zeros_jet(2, 2, 1, (4, 3))
    assert z.data[0].shape == (4, 3)


def test_compose_matches_direct():
    # compose exp with an inner jet and compare against building jexp directly
    x = np.array([[0.2, -0.4], [0.9, 0.1]])
    t, u = lift(x, 2, 3)
    inner = t * u + 0.3 * u
    direct = jexp(inner)
    v = inner.data[0]
    coeffs = [np.exp(v), np.exp(v), np.exp(v), np.exp(v)]
    composed = jet_compose(coeffs, inner)
    for m in range(4):
        assert np.allclose(composed.data[m], direct.data[m], atol=1e-13)


_X3 = sp.symbols("x y z", real=True)
# two inner functions of three variables, positive on [-0.5, 0.5]^3
# written with products only, so that each evaluates on jets and on symbols alike
_INNER_FNS = (lambda x, y, z: 1.5 + 0.3 * x + 0.2 * y * z - 0.4 * x * x * z,
              lambda x, y, z: 0.8 - 0.1 * y + 0.3 * x * y * z + 0.2 * z * z * z)
_INNER = tuple(f(*_X3) for f in _INNER_FNS)
_OUTER = {
    "exp": (jexp, sp.exp),
    "log": (jlog, sp.log),
    "sin": (jsin, sp.sin),
    "cos": (jcos, sp.cos),
    "sqrt": (jsqrt, sp.sqrt),
    "reciprocal": (jreciprocal, lambda u: 1 / u),
    "pow": (lambda f: jets._jpow_float(f, -1.25), lambda u: u ** sp.Rational(-5, 4)),
}


def _sympy_tables(expr, pts, order):
    """Every partial of ``expr`` in (x, y, z) up to ``order``, evaluated at
    ``pts`` (shape (P, 3)) into the jet layout (P,) + (3,)*m."""
    partials = {(): expr}
    for m in range(1, order + 1):
        for idx in combinations_with_replacement(range(3), m):
            partials[idx] = sp.diff(partials[idx[:-1]], _X3[idx[-1]])
    values = dict(zip(partials, sp.lambdify(_X3, list(partials.values()), "numpy")(*pts.T)))
    tables = []
    for m in range(order + 1):
        table = np.zeros((len(pts),) + (3,) * m)
        for idx in np.ndindex(*(3,) * m):
            table[(slice(None),) + idx] = values[tuple(sorted(idx))]
        tables.append(table)
    return tables


@pytest.mark.parametrize("name", sorted(_OUTER))
@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vdim1"])
@pytest.mark.parametrize("order", [0, 3])
def test_compose_matches_sympy(name, vector, order):
    # every mixed partial up to order 3 of an outer function of a
    # three-variable inner jet, at a batch of points, against sympy
    jf, sf = _OUTER[name]
    pts = np.random.default_rng(4).uniform(-0.5, 0.5, (5, 3))
    x, y, z = lift(pts, 3, order)
    jets_in = [f(x, y, z) for f in _INNER_FNS]
    got = jf(jet_stack(jets_in) if vector else jets_in[0])
    assert got.order == order and got.vdim == int(vector)
    for k, e in enumerate(_INNER if vector else _INNER[:1]):
        want = _sympy_tables(sf(e), pts, order)
        for m in range(order + 1):
            table = got.data[m][:, k] if vector else got.data[m]
            np.testing.assert_allclose(table, want[m], rtol=1e-12, atol=0,
                                       err_msg=f"{name} order {m}")


def test_batch_broadcasting():
    pts = np.random.default_rng(0).uniform(0.5, 1.5, (6, 2))
    t, u = lift(pts, 2, 2)
    one_point = lift(pts[:1], 2, 2)
    f = t * u
    g = one_point[0] * one_point[1]
    s = f + g  # batch (6,) with (1,) broadcast
    assert s.batch_shape == (6,)
    assert np.allclose(s.data[0], pts[:, 0] * pts[:, 1]
                       + pts[0, 0] * pts[0, 1], atol=1e-15)


coord = st.floats(min_value=-2.0, max_value=2.0,
                  allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(coord, min_size=2, max_size=2),
       st.lists(coord, min_size=2, max_size=2),
       st.lists(coord, min_size=2, max_size=2))
def test_property_bilinearity(x, a, b):
    t, u = lift(np.asarray(x), 2, 2)
    A = jet_stack([a[0] * t + a[1] * u, a[1] * t * u])
    B = jet_stack([b[0] * u, b[1] + 0.0 * t])
    left = jet_einsum("i,i->", A + B, A)
    right = jet_einsum("i,i->", A, A) + jet_einsum("i,i->", B, A)
    for m in range(3):
        assert np.allclose(left.data[m], right.data[m], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(coord, min_size=3, max_size=3))
def test_property_exp_log_roundtrip(x):
    t, u, v = lift(np.asarray(x), 3, 3)
    f = 1.5 + 0.3 * jsin(t) + 0.2 * u * v
    g = jlog(jexp(f))
    for m in range(4):
        assert np.allclose(g.data[m], f.data[m], atol=1e-11)


@settings(max_examples=50, deadline=None)
@given(st.lists(coord, min_size=2, max_size=2), st.integers(0, 2))
def test_property_truncation_consistent(x, order):
    t, u = lift(np.asarray(x), 2, 3)
    f = jexp(0.4 * t) * jcos(u)
    g = jet_truncate(f, order)
    h = jet_truncate(f, 3)
    for m in range(order + 1):
        assert np.allclose(g.data[m], h.data[m], atol=0)


@settings(max_examples=30, deadline=None)
@given(st.lists(coord, min_size=2, max_size=2),
       st.lists(coord, min_size=2, max_size=2))
def test_property_product_rule_scalars(x, c):
    t, u = lift(np.asarray(x), 2, 2)
    f = c[0] + t * u
    g = jsin(u) + c[1]
    p = f * g
    # d(fg) = df g + f dg, compared at the table level
    want = (np.einsum("d,->d", f.data[1], g.data[0])
            + np.einsum(",d->d", f.data[0], g.data[1]))
    assert np.allclose(p.data[1], want, atol=1e-12)

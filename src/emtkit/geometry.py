"""Metric geometry over jets: connection, curvature, and Lie-derivative calculus.

Everything here is evaluated at a batch of sample points wrapped in a
:class:`Frame`: the metric and its exact coordinate derivatives (as jets),
the inverse metric, the volume factor sqrt|det g|, the Christoffel symbols,
and (lazily, cached on the frame) the Riemann tensor and D g.

Index layout conventions used throughout:

* ``partial_tensor`` and ``covariant_derivative`` append the new covariant
  slot last, so ``(grad T)[..., a] = D_a T[...]``.
* ``gamma[b, c, a]`` holds Gamma^b_{ca}.
* ``riemann[e, c, a, b]`` holds R^e_{cab}, the convention fixed by
  ``(D_a D_b - D_b D_a) v^e = R^e_{cab} v^c``.

The covariant derivative of an arbitrary tensor is computed through the
index-replacement map:

    D_a T = d_a T + Gamma^b_{ca} (tilde T)^c_b

which reproduces the usual one-Gamma-per-slot prescription for every rank.
The contraction with tilde T is taken slot by slot
(:func:`~emtkit.tensors.tilde_contract`), so tilde T itself is never built;
the Lie derivative and the curvature and connection-tensor commutators
contract it the same way.  Every contraction of two tensors is a
:func:`~emtkit.tensors.einsum`, which derives the result's variance and
checks it; only the g^-1 and sqrt|g| series contract bare component jets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .jets import (
    Jet,
    _derivative_part,
    constant_jet,
    differentiate,
    jet_einsum,
    jet_truncate,
    jexp,
    lift,
    zeros_jet,
)
from .tensors import (TensorValue, _slot_letters, contract, einsum, tilde, tilde_contract,
                      transpose_slots)

__all__ = [
    "DegenerateMetricError",
    "MetricField",
    "TensorField",
    "Frame",
    "geometry_at",
    "evaluate",
    "jet_matrix_inverse",
    "jet_sqrt_abs_det",
    "partial_tensor",
    "covariant_derivative",
    "divergence",
    "lie_derivative",
    "curvature_commutator_residual",
    "tilde_gradient_commutator_residual",
    "lie_nabla_commutator",
    "lie_connection_tensor",
    "christoffel_deformation",
    "volume_lie_residual",
]

_DEGENERATE_TOL = 1e-12


class DegenerateMetricError(RuntimeError):
    """Metric determinant too close to zero at a sample point."""


@dataclass(frozen=True)
class MetricField:
    """Coordinate chart plus a map from coordinate jets to metric components."""

    name: str
    n: int
    fn: Callable[[list[Jet]], Jet]


@dataclass(frozen=True)
class TensorField:
    """Map from coordinate jets to tensor components of fixed variance; a
    vector field is one of variance ("u",)."""

    variance: tuple
    fn: Callable[[list[Jet]], Jet]
    name: str = ""


def jet_matrix_inverse(g: Jet) -> Jet:
    """Inverse of a jet-valued matrix via the truncated Neumann series.

    Writing g = g0 (I + g0^-1 N) with N the derivative-only part, the series
    for (I + g0^-1 N)^-1 terminates exactly at the jet order because N has a
    vanishing value part.
    """
    a0 = g.data[0]
    inv0 = np.linalg.inv(a0)
    B = jet_einsum("ij,jk->ik", -inv0, _derivative_part(g))
    total = constant_jet(inv0, g.nvars, g.order, vdim=2)
    P = total
    for _ in range(g.order):
        P = jet_einsum("ij,jk->ik", B, P)
        total = total + P
    return total


def jet_sqrt_abs_det(g: Jet) -> Jet:
    """sqrt|det g| of a jet-valued matrix: sqrt|det g0| * exp(1/2 tr log(I + g0^-1 N)).

    N is the derivative-only part of g, so the log series terminates
    exactly at the jet order, as in :func:`jet_matrix_inverse`.
    """
    a0 = g.data[0]
    root0 = np.sqrt(np.abs(np.linalg.det(a0)))
    M = jet_einsum("ij,jk->ik", np.linalg.inv(a0), _derivative_part(g))
    P = M
    nb = a0.ndim - 2
    series = zeros_jet(g.nvars, g.order, 0, a0.shape[:nb])
    for k in range(1, g.order + 1):
        tr = Jet(P.nvars, P.order, 0, [np.trace(t, axis1=nb, axis2=nb + 1) for t in P.data])
        term = ((-1.0) ** (k - 1) / (2 * k)) * tr
        series = series + term
        if k < g.order:
            P = jet_einsum("ij,jk->ik", P, M)
    return root0 * jexp(series)


def partial_tensor(t: TensorValue) -> TensorValue:
    """Coordinate partials as an extra covariant slot appended last."""
    return TensorValue(t.variance + ("d",), t.n, differentiate(t.components, keep=t.n))


class Frame:
    """Geometry of one metric evaluated at a batch of sample points.

    The Riemann tensor and D g are computed on first use and cached, so
    every vector field evaluated on the frame shares them.  g^-1 and
    sqrt|g| are built at jet order ``ginv_order`` (default: g's order); a
    lower one serves callers that read them at most to that order, since an
    order-m coefficient never reads a higher one.  :meth:`truncate` drops
    as many orders from them as from g."""

    def __init__(self, metric: MetricField, coords: list[Jet], g: TensorValue, *,
                 ginv_order: int | None = None):
        self.metric = metric
        self.n = metric.n
        self.coords = coords
        self.order = g.components.order
        self.g = g
        # plain determinant first: jet_sqrt_abs_det would invert the value
        # part and blow up with a linear-algebra error before we can diagnose anything
        if np.min(np.abs(np.linalg.det(g.components.data[0]))) <= _DEGENERATE_TOL:
            raise DegenerateMetricError(
                f"|det g| <= {_DEGENERATE_TOL} at a sample point of metric "
                f"'{metric.name}'"
            )
        gj = g.components if ginv_order is None else jet_truncate(g.components, ginv_order)
        self.sqrt_g = jet_sqrt_abs_det(gj)
        self.ginv = TensorValue(("u", "u"), self.n, jet_matrix_inverse(gj))
        self.gamma = self._christoffel()

    def _christoffel(self) -> TensorValue:
        dg = partial_tensor(self.g)          # [a, b, c] = d_c g_ab
        t1 = dg                               # [d, a, c] = d_c g_da
        t2 = transpose_slots(dg, (0, 2, 1))   # [d, a, c] -> d_a g_dc
        t3 = transpose_slots(dg, (2, 1, 0))   # [d, a, c] -> d_d g_ca
        X = t1 + t2 - t3
        return 0.5 * einsum("bd,dac->bca", self.ginv, X)

    def truncate(self, order: int) -> Frame:
        """This frame at jet ``order``; see :func:`_truncated_view`."""
        return _truncated_view(
            self, self.order - order, ("coords", "g", "sqrt_g", "ginv", "gamma"),
            {"metric": self.metric, "n": self.n, "order": order})

    @cached_property
    def dg(self) -> TensorValue:
        """D g, slots [a, b, c] = D_c g_ab: zero up to roundoff, computed
        once per frame because every Lie derivative of the metric reads it."""
        return covariant_derivative(self.g, self)

    @cached_property
    def riemann(self) -> TensorValue:
        dG = partial_tensor(self.gamma)       # [e, c, b, a] = d_a Gamma^e_{cb}
        r1 = transpose_slots(dG, (0, 1, 3, 2))  # [e, c, a, b] = d_a Gamma^e_{cb}
        r2 = dG                                 # [e, c, a, b] reading = d_b Gamma^e_{ca}
        gg1 = einsum("eda,dcb->ecab", self.gamma, self.gamma)
        gg2 = einsum("edb,dca->ecab", self.gamma, self.gamma)
        return r1 - r2 + gg1 - gg2


def _drop_orders(x, k: int):
    """``x``, a Jet, a TensorValue or a list of them, with the top ``k``
    derivative orders of every jet dropped: tuple slices, no copies; ``x``
    itself when ``k`` is 0."""
    if k == 0:
        return x
    if isinstance(x, list):
        return [_drop_orders(v, k) for v in x]
    if isinstance(x, TensorValue):
        return TensorValue(x.variance, x.n, _drop_orders(x.components, k))
    return jet_truncate(x, x.order - k)


def _truncated_view(obj, k: int, jets: tuple, same: dict):
    """``obj`` (a Frame or a TheoryFrame) with its top ``k`` jet orders dropped.

    A new instance whose attributes ``jets`` are those of ``obj`` through
    :func:`_drop_orders` and whose other attributes are ``same``.  Order-m
    coefficients of truncated Taylor arithmetic never read higher ones, so
    its tables equal those of a fresh build at the lower order, and each
    cached property is computed on the view when first used.  The view is
    memoised on ``obj``; with ``k == 0`` it is ``obj`` itself and never a
    memo entry, which would make every frame a reference cycle."""
    if k == 0:
        return obj
    views = obj.__dict__.setdefault("_views", {})
    if k not in views:
        views[k] = object.__new__(type(obj))
        vars(views[k]).update(same, **{a: _drop_orders(getattr(obj, a), k) for a in jets})
    return views[k]


def geometry_at(metric: MetricField, points: np.ndarray, order: int, *,
                ginv_order: int | None = None) -> Frame:
    """Evaluate the metric geometry at sample points.

    ``points`` has shape batch + (k,) with k >= metric.n; any extra columns
    become auxiliary differentiation variables (they never appear as tensor
    slots, only as extra derivative directions).  ``ginv_order`` is passed
    to :class:`Frame`.
    """
    points = np.asarray(points, dtype=float)
    k = points.shape[-1]
    if k < metric.n:
        raise ValueError(f"points provide {k} coordinates, metric needs {metric.n}")
    coords = lift(points, k, order)
    comps = metric.fn(coords)
    g = TensorValue(("d", "d"), metric.n, comps)
    asym = np.max(np.abs(comps.data[0] - np.swapaxes(comps.data[0], -1, -2)))
    if asym > 1e-12:
        raise ValueError(f"metric '{metric.name}' returned non-symmetric components")
    return Frame(metric, coords, g, ginv_order=ginv_order)


def evaluate(field: TensorField, frame: Frame) -> TensorValue:
    """Evaluate a TensorField on a frame's coordinate jets.

    Fields only ever see the manifold coordinates; auxiliary differentiation
    variables riding along on the frame stay hidden from them.
    """
    comps = field.fn(frame.coords[: frame.n])
    return TensorValue(tuple(field.variance), frame.n, comps)


def covariant_derivative(t: TensorValue, frame: Frame) -> TensorValue:
    """Levi-Civita covariant derivative, new covariant slot appended last."""
    dt = partial_tensor(t)
    if t.rank == 0:
        return dt
    # dt is one order below t, so the correction needs no more of t than that
    return dt + tilde_contract(_drop_orders(t, 1), frame.gamma)


def divergence(t: TensorValue, frame: Frame, slot: int = 0) -> TensorValue:
    """D_a T^{..a..}: the covariant derivative contracted with ``slot``, an
    up slot of ``t`` (the first by default)."""
    return contract(covariant_derivative(t, frame), slot, t.rank)


def lie_derivative(t: TensorValue, xi: TensorValue, frame: Frame | None = None) -> TensorValue:
    """Lie derivative along xi through the index-replacement map.

    With a frame, uses covariant derivatives; without, coordinate partials.
    The two agree identically for the Levi-Civita connection.
    """
    if xi.variance != ("u",):
        raise ValueError("xi must be a contravariant vector")
    if frame is None:
        dt, dxi = partial_tensor(t), partial_tensor(xi)
    else:
        dt = frame.dg if t is frame.g else covariant_derivative(t, frame)
        dxi = covariant_derivative(xi, frame)
    # the result carries one order less than the lower of t and xi, and
    # its order-m tables read no higher order of any operand
    top = min(t.components.order, xi.components.order) - 1
    t, xi, dt, dxi = (_drop_orders(v, v.components.order - top) for v in (t, xi, dt, dxi))
    S = _slot_letters(t.rank)
    return einsum(f"{S}a,a->{S}", dt, xi) - tilde_contract(t, dxi)


def curvature_commutator_residual(t: TensorValue, frame: Frame) -> TensorValue:
    """(D_a D_b - D_b D_a) T minus its curvature expression R^d_{cab} (tilde T)^c_d."""
    d1 = covariant_derivative(t, frame)
    d2 = covariant_derivative(d1, frame)       # [S, b, a]
    r = t.rank
    perm = list(range(r)) + [r + 1, r]
    lhs = transpose_slots(d2, perm) - d2        # [S, a, b]: D_a D_b T - D_b D_a T
    return lhs - tilde_contract(t, frame.riemann)


def tilde_gradient_commutator_residual(t: TensorValue, frame: Frame) -> TensorValue:
    """Residual of: tilde(D_e T)^a_b = D_e (tilde T)^a_b - delta^a_e D_b T."""
    r = t.rank
    dt = covariant_derivative(t, frame)
    lhs = tilde(dt)                                       # [S, e, a, b]
    rhs1 = covariant_derivative(tilde(t), frame)          # [S, a, b, e]
    perm = list(range(r)) + [r + 2, r, r + 1]
    rhs1 = transpose_slots(rhs1, perm)                    # [S, e, a, b]
    S = _slot_letters(r)
    dc = dt.components
    delta = TensorValue(("u", "d"), t.n, constant_jet(np.eye(t.n), dc.nvars, dc.order, vdim=2))
    return lhs - rhs1 + einsum(f"{S}b,ae->{S}eab", dt, delta)


def lie_nabla_commutator(t: TensorValue, xi: TensorValue, frame: Frame) -> TensorValue:
    """[Lie_xi, D] T computed directly: Lie(D T) - D(Lie T), slot appended last."""
    a = lie_derivative(covariant_derivative(t, frame), xi, frame)
    b = covariant_derivative(lie_derivative(t, xi, frame), frame)
    return a - b


def lie_connection_tensor(xi: TensorValue, frame: Frame, form: str = "direct") -> TensorValue:
    """The tensor C^c_{ba} mediating [Lie_xi, D]; slots ordered [c, b, a]:
    [Lie_xi, D_a] T = C^c_{ba} (tilde T)^b_c is ``tilde_contract(T, C)``.

    form='direct':  C^c_{ba} = R^c_{bda} xi^d + D_a D_b xi^c.
    form='metric':  C^d_{ab} = 1/2 g^{dc} (D_a h_bc + D_b h_ac - D_c h_ab)
    with h = Lie_xi g, transposed into the same [c, b, a] layout.
    """
    if form == "direct":
        rterm = einsum("cbda,d->cba", frame.riemann, xi)
        ddxi = covariant_derivative(covariant_derivative(xi, frame), frame)  # [c, b, a]
        return rterm + ddxi
    if form == "metric":
        h = lie_derivative(frame.g, xi, frame)
        defo = christoffel_deformation(h, frame)      # [d, a, b]
        return transpose_slots(defo, (0, 2, 1))       # [d, b, a]
    raise ValueError(f"unknown form {form!r}")


def christoffel_deformation(h: TensorValue, frame: Frame) -> TensorValue:
    """Linearized Christoffel symbols for a metric perturbation h (slots [d, a, b]).

    delta Gamma^d_{ab} = 1/2 g^{dc} (D_a h_bc + D_b h_ac - D_c h_ab).
    """
    dh = covariant_derivative(h, frame)           # [x, y, e] = D_e h_xy
    t1 = transpose_slots(dh, (1, 2, 0))           # [c, a, b] = D_a h_bc
    t2 = transpose_slots(dh, (1, 0, 2))           # [c, a, b] = D_b h_ac
    t3 = transpose_slots(dh, (2, 0, 1))           # [c, a, b] = D_c h_ab
    W = t1 + t2 - t3
    return 0.5 * einsum("dc,cab->dab", frame.ginv, W)


def volume_lie_residual(xi: TensorValue, frame: Frame) -> TensorValue:
    """Residual, a rank-0 tensor, of: Lie_xi sqrt|g| = d_a(sqrt|g| xi^a), the
    Lie derivative of the density, with the left side expanded as
    (1/2) sqrt|g| g^{ab} Lie_xi g_ab.  The right side reads the first
    derivatives of sqrt|g|."""
    h = lie_derivative(frame.g, xi, frame)
    lhs = einsum(",->", 0.5 * frame.sqrt_g, einsum("ab,ab->", frame.ginv, h))
    flux = partial_tensor(einsum(",a->a", frame.sqrt_g, xi))
    return lhs - contract(flux, 0, 1)

"""Concrete spacetimes, symmetry vectors, and field scenarios used by the
verification suites.

Everything here is deterministic: random fields and sample points derive from
explicit seeds, and every claimed property is re-checked numerically before a
suite trusts it: Killing and parallel vectors by :func:`verify_frame_claims`
on a frame it is given, a scenario's on- or off-shell claim by
:func:`verify_scenario_claims` on a theory frame it is given.  A run calls
them on the frames and theory frames it builds, once each, on its own
sample points.

A seeded random field is a cubic polynomial in the scaled coordinates of a
box: :func:`monomial_basis` builds the monomials once from a set of
coordinate jets, and :func:`coefficient_sum` forms one field's components
over them, so a run that evaluates many fields on one frame builds one
basis for all of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .jets import (Jet, constant_jet, jsin, jcos, jexp, jlog, jreciprocal, jsqrt, jet_einsum,
                   jet_stack)
from .geometry import (
    MetricField,
    TensorField,
    covariant_derivative,
    evaluate,
    geometry_at,
    lie_derivative,
)
from .tensors import max_abs
from .fieldtheory import (
    LagrangianTheory,
    TheoryFrame,
    maxwell_theory,
    scalar_theory,
)

__all__ = [
    "CatalogClaimError",
    "Spacetime",
    "Scenario",
    "SPACETIMES",
    "SCENARIOS",
    "spacetime",
    "scenario",
    "sample_points",
    "MonomialBasis",
    "monomial_basis",
    "coefficient_sum",
    "random_coefficients",
    "random_tensor_field",
    "bump_perturbation",
    "verify_spacetime_claims",
    "verify_frame_claims",
    "verify_scenario_claims",
]


class CatalogClaimError(RuntimeError):
    """A catalog entry failed the numerical check of its own claims."""


@dataclass(frozen=True)
class Spacetime:
    """A metric, its sampling box, the vectors it claims Killing, and those
    of them it also claims parallel."""

    metric: MetricField
    box: tuple
    killing: tuple = ()
    parallel: tuple = ()

    @property
    def name(self):
        return self.metric.name

    @property
    def n(self):
        return self.metric.n


@dataclass(frozen=True)
class Scenario:
    """A field on a spacetime, claimed on or off shell, sampled in ``box``:
    a box inside the spacetime's that excludes the field's singular loci,
    or None for the spacetime's own box."""

    name: str
    spacetime: str
    theory: LagrangianTheory
    field: TensorField
    on_shell: bool
    box: tuple | None = None


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def _flat_fn(n):
    eta = np.diag([-1.0] + [1.0] * (n - 1))

    def fn(coords):
        c = coords[0]
        value = np.broadcast_to(eta, c.batch_shape + (n, n)).copy()
        return constant_jet(value, c.nvars, c.order, vdim=2)

    return fn


def _schwarzschild_fn(mass):
    def fn(coords):
        t, r, th, ph = coords
        f = 1.0 - 2.0 * mass / r
        z = t * 0.0
        s2 = jsin(th) * jsin(th)
        return jet_stack([
            [-f, z, z, z],
            [z, jreciprocal(f), z, z],
            [z, z, r * r, z],
            [z, z, z, r * r * s2],
        ])
    return fn


BUMP_AMP = 0.3
BUMP_WIDTH = 1.5


def _bump2_fn(coords):
    # conformally flat Riemannian plane, e^{2 phi} delta_ij with a Gaussian phi
    w = jexp(2.0 * bump2_conformal_factor(coords))
    z = coords[0] * 0.0
    return jet_stack([[w, z], [z, w]])


def bump2_conformal_factor(coords):
    x, y = coords
    return BUMP_AMP * jexp(-(x * x + y * y) / (BUMP_WIDTH ** 2))


def _affine_vector(name, n, shift, linear):
    """The vector field xi^a = c^a + M^a_b x^b, from the nonzero entries of
    c (``shift``, {a: c^a}) and of M (``linear``, {(a, b): +1 or -1}).  Each
    component starts from z = x^0 * 0.0: z + c^a for a shift, and x^b + z
    or -x^b + z for an entry of M."""

    def fn(coords):
        z = coords[0] * 0.0
        comps = [z + shift[a] if a in shift else z for a in range(n)]
        for (a, b), sign in linear.items():
            comps[a] = (coords[b] if sign > 0 else -coords[b]) + comps[a]
        return jet_stack(comps)

    return TensorField(("u",), fn, name)


def _minkowski(n):
    """Flat space with its translations (claimed parallel too), spatial
    rotations x^i d_j - x^j d_i and boosts t d_i + x^i d_t."""
    vecs = [_affine_vector(f"translation-{i}", n, {i: 1.0}, {}) for i in range(n)]
    vecs += [_affine_vector(f"rotation-{i}{j}", n, {}, {(j, i): 1, (i, j): -1})
             for i in range(1, n) for j in range(i + 1, n)]
    vecs += [_affine_vector(f"boost-{i}", n, {}, {(0, i): 1, (i, 0): 1}) for i in range(1, n)]
    return Spacetime(MetricField(f"minkowski{n}", n, _flat_fn(n)), box=((-2.0, 2.0),) * n,
                     killing=tuple(vecs), parallel=tuple(vecs[:n]))


def _schwarzschild_rotations():
    def rot_a(coords):
        t, r, th, ph = coords
        z = t * 0.0
        return jet_stack([z, z, jsin(ph), jcos(ph) * jcos(th) / jsin(th)])

    def rot_b(coords):
        t, r, th, ph = coords
        z = t * 0.0
        return jet_stack([z, z, jcos(ph), -jsin(ph) * jcos(th) / jsin(th)])

    return (TensorField(("u",), rot_a, "rotation-a"), TensorField(("u",), rot_b, "rotation-b"))


SPACETIMES = {st.name: st for st in (
    _minkowski(2),
    _minkowski(4),
    Spacetime(
        MetricField("schwarzschild", 4, _schwarzschild_fn(1.0)),
        box=((-1.0, 1.0), (4.0, 12.0), (0.4, math.pi - 0.4), (0.0, 2.0 * math.pi)),
        killing=(_affine_vector("static-time", 4, {0: 1.0}, {}),
                 _affine_vector("axial", 4, {3: 1.0}, {})) + _schwarzschild_rotations(),
    ),
    Spacetime(
        MetricField("bump2", 2, _bump2_fn),
        box=((-3.0, 3.0), (-3.0, 3.0)),
        killing=(_affine_vector("rotation", 2, {}, {(0, 1): -1, (1, 0): 1}),),
    ),
)}


def spacetime(name: str) -> Spacetime:
    try:
        return SPACETIMES[name]
    except KeyError:
        raise KeyError(f"unknown spacetime '{name}' "
                       f"(have: {', '.join(sorted(SPACETIMES))})") from None


# --------------------------------------------------------------------------
# field scenarios
# --------------------------------------------------------------------------


def _plane_scalar(n, kvec, amp=1.0):
    kvec = np.asarray(kvec, float)

    def fn(coords):
        ph = kvec[0] * coords[0]
        for i in range(1, n):
            ph = ph + kvec[i] * coords[i]
        return amp * jsin(ph)

    return TensorField((), fn, name="plane-scalar")


def _plane_oneform(n, kvec, pol, amp=1.0, harmonic=1.0):
    kvec = np.asarray(kvec, float)
    pol = np.asarray(pol, float)

    def fn(coords):
        ph = kvec[0] * coords[0]
        for i in range(1, n):
            ph = ph + kvec[i] * coords[i]
        s = jsin(harmonic * ph)
        return jet_stack([amp * pol[i] * s for i in range(n)])

    return TensorField(("d",), fn, name="plane-oneform")


def _coulomb_oneform(charge=1.0):
    def fn(coords):
        t, x, y, z = coords
        r = jsqrt(x * x + y * y + z * z)
        zero = t * 0.0
        return jet_stack([charge / r, zero, zero, zero])
    return TensorField(("d",), fn, name="coulomb")


def _schwarzschild_coulomb(charge=1.0):
    def fn(coords):
        t, r, th, ph = coords
        zero = t * 0.0
        return jet_stack([charge / r, zero, zero, zero])
    return TensorField(("d",), fn, name="coulomb-radial")


def _schwarzschild_scalar(mass=1.0):
    def fn(coords):
        t, r, th, ph = coords
        return jlog(1.0 - 2.0 * mass / r)
    return TensorField((), fn, name="static-log")


def _gaussian_scalar():
    def fn(coords):
        t, x = coords
        return 0.8 * jexp(-(t * t + 0.5 * x * x)) + 0.1 * x
    return TensorField((), fn, name="gaussian-blob")


def _gradient_vector_theory():
    """Vector field with an unconstrained gradient kinetic term.

    Unlike the antisymmetrized field strength of electromagnetism, this
    Lagrangian feels the full covariant derivative, so its superpotential
    bracket is nonzero and the divergence subtraction in the metric tensor
    actually does work.  Used off shell.
    """

    def lag(ctx):
        dB = ctx.dpsi                                # [b, a] = grad_a B_b
        X = ctx.einsum("ac,dc->ad", ctx.ginv, dB)    # grad^a B_d
        X2 = ctx.einsum("ad,bd->ab", X, ctx.ginv)    # grad^a B^b
        S = ctx.einsum("ba,ab->", dB, X2)
        return -0.5 * S

    return LagrangianTheory("gradient-vector", ("d",), lag)


def _gradient_vector_field():
    def fn(coords):
        t, x = coords
        return jet_stack([jsin(0.9 * x - 0.3 * t), jcos(0.7 * t + 0.4 * x)])
    return TensorField(("d",), fn, name="swirl")


_M2 = 0.5
_KX2 = 1.1
_SCALAR2_K = (math.sqrt(_KX2 * _KX2 + _M2 * _M2), -_KX2)

_M4 = 0.8
_K4_SP = (0.5, -0.7, 0.3)
_SCALAR4_K = (math.sqrt(sum(c * c for c in _K4_SP) + _M4 * _M4),) + _K4_SP

_EM_K1 = (1.0, 0.6, 0.8, 0.0)
_EM_E1 = (0.0, -0.8, 0.6, 0.5)
_EM_K2 = (1.0, 0.0, -0.6, 0.8)
_EM_E2 = (0.0, 1.0, 0.0, 0.0)


def _em_superposition():
    a = _plane_oneform(4, _EM_K1, _EM_E1)
    b = _plane_oneform(4, _EM_K2, _EM_E2, amp=0.7, harmonic=1.3)

    def fn(coords):
        return a.fn(coords) + b.fn(coords)

    return TensorField(("d",), fn, name="two-waves")


SCENARIOS = {sc.name: sc for sc in (
    Scenario("scalar-wave-2d", "minkowski2", scalar_theory(_M2),
             _plane_scalar(2, _SCALAR2_K), on_shell=True),
    Scenario("scalar-wave-4d", "minkowski4", scalar_theory(_M4),
             _plane_scalar(4, _SCALAR4_K), on_shell=True),
    Scenario("em-wave-4d", "minkowski4", maxwell_theory(),
             _plane_oneform(4, _EM_K1, _EM_E1), on_shell=True),
    Scenario("em-two-waves-4d", "minkowski4", maxwell_theory(),
             _em_superposition(), on_shell=True),
    # the Coulomb potential is singular at the spatial origin, which this box excludes
    Scenario("coulomb-4d", "minkowski4", maxwell_theory(),
             _coulomb_oneform(), on_shell=True,
             box=((-1.0, 1.0), (1.0, 3.0), (1.0, 3.0), (1.0, 3.0))),
    Scenario("schwarzschild-scalar", "schwarzschild", scalar_theory(0.0),
             _schwarzschild_scalar(), on_shell=True),
    Scenario("schwarzschild-coulomb", "schwarzschild", maxwell_theory(),
             _schwarzschild_coulomb(), on_shell=True),
    Scenario("scalar-blob-2d", "minkowski2", scalar_theory(0.6),
             _gaussian_scalar(), on_shell=False),
    Scenario("gradient-vector-2d", "minkowski2", _gradient_vector_theory(),
             _gradient_vector_field(), on_shell=False),
)}


def scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario '{name}' "
                       f"(have: {', '.join(sorted(SCENARIOS))})") from None


def scenario_box(sc: Scenario):
    return spacetime(sc.spacetime).box if sc.box is None else sc.box


# --------------------------------------------------------------------------
# deterministic sampling and random fields
# --------------------------------------------------------------------------


def sample_points(box, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.uniform(size=(count, len(box)))


def _monomials(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _monomials(n - 1, total - first):
            yield (first,) + rest


_DEGREE = 3


@functools.lru_cache(maxsize=None)
def _chains(n):
    """Factor index chains u_i u_j ... with i <= j <= ..., one per monomial
    of degree at most 3 in n coordinates, in ``_monomials`` order: the
    constant chain () first, degree 1 running (u_{n-1}, ..., u_0)."""
    return tuple(sum(((i,) * p for i, p in enumerate(powers)), ())
                 for total in range(_DEGREE + 1) for powers in _monomials(n, total))


class MonomialBasis(NamedTuple):
    """The monomials of degree 1 to 3 of a box's scaled coordinates on one
    set of coordinate jets.  ``tables[k]``, shaped batch + (T,), holds the
    monomial of chain ``k + 1``: its derivative tables raveled and laid end
    to end, order 0 first.  ``zero`` is the jet ``coords[0] * 0.0``.  Every
    table is read-only."""

    tables: np.ndarray
    zero: Jet


def monomial_basis(box, coords) -> MonomialBasis:
    """The monomials of the box-centered scaled coordinates u_i, from the
    coordinate jets ``coords``.  Each degree is one stack of jets: degree 1
    is (u_{n-1}, ..., u_0) and each monomial above it is its prefix
    monomial times one more factor, one elementwise jet product per degree
    above 1."""
    chains = _chains(len(box))
    by_degree = [[c for c in chains if len(c) == d] for d in range(1, _DEGREE + 1)]
    first = [c[0] for c in by_degree[0]]
    zero = coords[0] * 0.0
    batch, nb = zero.batch_shape, len(zero.batch_shape)

    def pick(v, idx):
        return Jet(v.nvars, v.order, 1, [np.take(t, idx, axis=nb) for t in v.data])

    center = np.array([(b[0] + b[1]) / 2 for b in box])
    halfw = np.array([(b[1] - b[0]) / 2 for b in box])
    u = jet_stack([(coords[i] - center[i]) * (1.0 / halfw[i]) for i in first])
    stacks = [u]
    for prev, chains_d in zip(by_degree, by_degree[1:]):
        heads = [prev.index(c[:-1]) for c in chains_d]
        last = [first.index(c[-1]) for c in chains_d]
        stacks.append(pick(stacks[-1], heads) * pick(u, last))
    flat = np.concatenate(
        [np.concatenate([s.data[m] for s in stacks], axis=nb).reshape(batch + (len(chains) - 1, -1))
         for m in range(zero.order + 1)], axis=-1)
    tables = np.moveaxis(flat, nb, 0).copy()
    for t in (tables, *zero.data):
        t.flags.writeable = False
    return MonomialBasis(tables, zero)


def coefficient_sum(coef, basis: MonomialBasis, vdim: int | None = None) -> Jet:
    """The jet of components c_0 + sum_k c_k m_k over ``basis``, with
    ``coef`` shaped stack + (component shape) + (chains,), the component
    shape being its last ``vdim`` axes before the chains (default: every
    axis).  The stack axes lead the batch of the result, one field per
    stack entry.

    Every jet order is summed at once in the flat layout of the basis, term
    by term in chain order.  Each table of the result is then copied out
    C-contiguous, the layout of a table summed on its own (np.einsum picks
    its inner loops by operand strides), and ``basis.zero`` is added to it
    last.  Every entry takes the same operations with or without a stack,
    so each field of a stack has the bits it has summed alone.
    """
    zero = basis.zero
    vdim = coef.ndim - 1 if vdim is None else vdim
    stack, shape = coef.shape[:coef.ndim - 1 - vdim], coef.shape[coef.ndim - 1 - vdim:-1]
    batch = zero.batch_shape
    # the coefficients over stack + (1,)*batch + shape, the basis over
    # (1,)*stack + batch + (1,)*shape
    coef = coef.reshape(stack + (1,) * len(batch) + coef.shape[len(stack):])
    lead = (None,) * len(stack) + (slice(None),) * len(batch) + (None,) * len(shape)
    acc = coef[..., 1, None] * basis.tables[0][lead]
    # the constant chain () carries no jet: c_0 joins the value entry only
    acc[..., 0] += coef[..., 0]
    term = np.empty_like(acc)
    for k in range(1, len(basis.tables)):
        np.multiply(coef[..., k + 1, None], basis.tables[k][lead], out=term)
        acc += term
    data, start = [], 0
    for m, z in enumerate(zero.data):
        size = zero.nvars ** m
        table = np.ascontiguousarray(acc[..., start:start + size])
        table = table.reshape(stack + batch + shape + (zero.nvars,) * m)
        table += z[lead]
        data.append(table)
        start += size
    return Jet(zero.nvars, zero.order, len(shape), data)


def random_coefficients(variance, box, seed: int) -> np.ndarray:
    """The coefficients of ``random_tensor_field(variance, box, seed)``,
    shaped (component shape) + (chains,)."""
    chains = _chains(len(box))
    denom = np.array([float(math.factorial(len(c) + 1)) for c in chains])
    rng = np.random.default_rng(seed)
    return rng.normal(size=(len(box),) * len(variance) + (len(chains),)) / denom


def random_tensor_field(variance, box, seed: int) -> TensorField:
    """Seeded polynomial tensor field with O(1) components on the box.

    Each component is a cubic polynomial in box-centered scaled coordinates.
    Coefficients are drawn component-major (row-major over the component
    indices), each component's monomials in ``_monomials`` order of
    increasing total degree, each divided by ``(degree + 1)!``.  An
    evaluation builds the :func:`monomial_basis` of its coordinates and
    forms every component as one :func:`coefficient_sum` over it; a run
    that evaluates many seeded fields on one frame shares one basis among
    them.
    """
    coef = random_coefficients(variance, box, seed)

    def fn(coords):
        return coefficient_sum(coef, monomial_basis(box, coords))

    return TensorField(tuple(variance), fn, name=f"random-{seed}")


def bump_perturbation(box, seed: int, width_frac: float = 0.09) -> TensorField:
    """Symmetric (0,2) perturbation, 0.1 times a seeded random symmetric
    matrix under a Gaussian envelope that is negligible on the box boundary;
    suitable for compact-support variation."""
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
        return jet_einsum(",ab->ab", jexp(-r2), M)

    return TensorField(("d", "d"), fn, name=f"bump-{seed}")


# --------------------------------------------------------------------------
# claim verification
# --------------------------------------------------------------------------


def verify_spacetime_claims(st: Spacetime, seed: int = 0):
    """:func:`verify_frame_claims` at 12 seeded points of the box."""
    verify_frame_claims(st, geometry_at(st.metric, sample_points(st.box, 12, seed), 2))


def verify_frame_claims(st: Spacetime, fr):
    """Check on its frame ``fr``, to 1e-10, that each vector ``st`` lists is
    parallel if ``st.parallel`` lists it, D xi = 0, and Killing, Lie_xi g = 0
    (which D xi = 0 implies); a non-finite residual refutes the claim."""
    tol = 1e-10
    for v in dict.fromkeys(st.killing + st.parallel):
        xi = evaluate(v, fr)
        for claim in ("parallel", "Killing") if v in st.parallel else ("Killing",):
            r = max_abs(covariant_derivative(xi, fr) if claim == "parallel"
                        else lie_derivative(fr.g, xi, fr))
            if not r <= tol:
                raise CatalogClaimError(f"{st.name}: vector '{v.name}' claims {claim}, "
                                        f"residual {r:.3e} > {tol:.1e}")


def verify_scenario_claims(sc: Scenario, tf: TheoryFrame):
    """Check the scenario's on-shell claim on its theory frame ``tf``: the
    equation-of-motion residual is at most 1e-7 on shell and above it off
    shell; a non-finite residual refutes either claim."""
    gate = 1e-7
    r = max_abs(tf.eom_residual)
    if not math.isfinite(r):
        raise CatalogClaimError(
            f"scenario '{sc.name}' has a non-finite equation-of-motion "
            f"residual ({r})")
    if sc.on_shell and r > gate:
        raise CatalogClaimError(
            f"scenario '{sc.name}' claims on-shell, equation-of-motion "
            f"residual {r:.3e} > {gate:.1e}")
    if not sc.on_shell and r <= gate:
        raise CatalogClaimError(
            f"scenario '{sc.name}' claims off-shell but satisfies the "
            f"field equations (residual {r:.3e})")

"""Catalog of spacetimes and field configurations, and its self-checks."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from emtkit.catalog import (
    SCENARIOS,
    SPACETIMES,
    CatalogClaimError,
    Scenario,
    Spacetime,
    coefficient_sum,
    monomial_basis,
    random_coefficients,
    random_tensor_field,
    sample_points,
    scenario_box,
    spacetime,
    verify_scenario_claims,
    verify_spacetime_claims,
)
from emtkit.fieldtheory import evaluate_theory, scalar_theory
from emtkit.geometry import TensorField, evaluate, geometry_at
from emtkit import jets
from emtkit.jets import Jet, jet_stack
from emtkit.suites import _TENSOR_RANKS, RunConfig, RunContext
from emtkit.tensors import TensorValue, value_array


@pytest.mark.parametrize("name", sorted(SPACETIMES))
def test_spacetime_claims_hold(name):
    verify_spacetime_claims(SPACETIMES[name], seed=1)


@pytest.mark.parametrize("name", ["minkowski2", "minkowski4"])
def test_a_translation_is_structurally_zero_above_order_1(name):
    # a translation is constant, so its stacked tables above order 1 stay
    # structural zeros rather than dense arrays of zeros
    st = SPACETIMES[name]
    frame = geometry_at(st.metric, sample_points(st.box, 4, seed=2), 3)
    v = evaluate(st.killing[0], frame).components
    assert st.killing[0].name == "translation-0"
    assert [jets._is_zero(t) for t in v.data] == [False, False, True, True]


def _theory_frame(sc, count=12, seed=1):
    """``sc``'s theory frame at ``count`` seeded points of its box, order 2."""
    pts = sample_points(scenario_box(sc), count, seed)
    fr = geometry_at(spacetime(sc.spacetime).metric, pts, 2)
    return evaluate_theory(sc.theory, sc.field, fr)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_claims_hold(name):
    sc = SCENARIOS[name]
    verify_scenario_claims(sc, _theory_frame(sc))


def test_expected_symmetry_counts():
    # full flat-space symmetry algebra in four dimensions, and the
    # time/axial/rotation generators outside a spherical mass
    assert len(SPACETIMES["minkowski4"].killing) == 10
    assert len(SPACETIMES["minkowski2"].killing) == 3
    assert len(SPACETIMES["schwarzschild"].killing) == 4
    # flat space claims its translations parallel, and nothing else does
    assert [v.name for v in SPACETIMES["minkowski4"].parallel] == [
        f"translation-{i}" for i in range(4)]
    assert len(SPACETIMES["minkowski2"].parallel) == 2
    assert SPACETIMES["schwarzschild"].parallel == SPACETIMES["bump2"].parallel == ()


@pytest.mark.parametrize("name", sorted(SPACETIMES))
def test_parallel_vectors_are_listed_as_killing(name):
    st = SPACETIMES[name]
    assert all(v.variance == ("u",) for v in st.killing)
    assert all(any(v is k for k in st.killing) for v in st.parallel)


def test_sampling_is_deterministic():
    box = SPACETIMES["minkowski4"].box
    a = sample_points(box, 20, seed=9)
    b = sample_points(box, 20, seed=9)
    c = sample_points(box, 20, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    lo = np.array([x[0] for x in box])
    hi = np.array([x[1] for x in box])
    assert np.all(a >= lo) and np.all(a <= hi)


def test_random_fields_are_deterministic():
    box = SPACETIMES["minkowski2"].box
    pts = sample_points(box, 7, seed=0)
    frame = geometry_at(SPACETIMES["minkowski2"].metric, pts, 2)
    f1 = evaluate(random_tensor_field(("u", "d"), box, seed=5), frame)
    f2 = evaluate(random_tensor_field(("u", "d"), box, seed=5), frame)
    f3 = evaluate(random_tensor_field(("u", "d"), box, seed=6), frame)
    assert np.array_equal(value_array(f1), value_array(f2))
    assert not np.array_equal(value_array(f1), value_array(f3))
    v = evaluate(random_tensor_field(("u",), box, seed=5), frame)
    assert v.variance == ("u",)


def _reference_field(variance, box, seed):
    """Per-component random field: every component its own cubic with its
    own monomial products, the components stacked at the end."""
    rng = np.random.default_rng(seed)
    n = len(box)
    center = np.array([(b[0] + b[1]) / 2 for b in box])
    halfw = np.array([(b[1] - b[0]) / 2 for b in box])

    def component():
        terms = []
        for total in range(4):
            for powers in sorted(p for p in itertools.product(range(total + 1), repeat=n)
                                 if sum(p) == total):
                terms.append((rng.normal() / math.factorial(total + 1), powers))

        def fn(coords):
            u = [(coords[i] - center[i]) * (1.0 / halfw[i]) for i in range(n)]
            out = None
            for coef, powers in terms:
                t = None
                for i, p in enumerate(powers):
                    for _ in range(p):
                        t = u[i] if t is None else t * u[i]
                t = coef if t is None else coef * t
                out = t if out is None else out + t
            return out + coords[0] * 0.0

        return fn

    def build(rank):
        return component() if rank == 0 else [build(rank - 1) for _ in range(n)]

    tree = build(len(variance))

    def fn(coords):
        def walk(node):
            return [walk(c) for c in node] if isinstance(node, list) else node(coords)
        return jet_stack(walk(tree)) if variance else tree(coords)

    return fn


def _assert_same_bits(got: Jet, want: Jet):
    """Equal jets table for table, the sign of every zero included."""
    assert (got.nvars, got.order, got.vdim) == (want.nvars, want.order, want.vdim)
    for g, w in zip(got.data, want.data, strict=True):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.parametrize("space,order,batch,aux", [
    ("minkowski2", 3, (6,), 0),
    ("minkowski2", 2, (2, 3), 1),
    ("minkowski4", 3, (3,), 0),
    ("minkowski4", 2, (2, 2), 2),
    ("schwarzschild", 3, (16,), 0),
    ("bump2", 3, (16,), 0),
])
@pytest.mark.parametrize("variance", [(), ("d",), ("u", "d"), ("d", "u", "d")])
def test_random_fields_match_per_component_reference(space, order, batch, aux,
                                                     variance):
    # shared monomial jets must not change a single bit of any table
    st = SPACETIMES[space]
    n = len(st.box)
    pts = np.random.default_rng(3).uniform(0.2, 0.9, batch + (n + aux,))
    frame = geometry_at(st.metric, pts, order)
    got = evaluate(random_tensor_field(variance, st.box, seed=17), frame).components
    want = _reference_field(variance, st.box, seed=17)(frame.coords[:n])
    assert got.nvars == n + aux
    _assert_same_bits(got, want)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("space", sorted(SPACETIMES))
def test_run_fields_equal_standalone_evaluations(space, order):
    # a run sums each seeded field over the frame's shared basis; the
    # standalone field builds a basis of its own: the same bits
    ctx = RunContext(RunConfig(points=5, seed=4, xi_count=2), order)
    fr = ctx.frame(space)
    box = SPACETIMES[space].box
    got = [ctx.random_field(var, box, 30 + k, fr) for k, var in enumerate(_TENSOR_RANKS)]
    want = [evaluate(random_tensor_field(var, box, 30 + k), fr)
            for k, var in enumerate(_TENSOR_RANKS)]
    got += ctx.random_xis(space, fr)
    want += [evaluate(random_tensor_field(("u",), box, 1004 + k), fr) for k in range(2)]
    assert fr.order == order
    for g, w in zip(got, want, strict=True):
        assert g.variance == w.variance
        _assert_same_bits(g.components, w.components)


@pytest.mark.parametrize("space", ["minkowski2", "minkowski4"])
def test_a_sum_of_negative_zeros_ends_as_positive_zero(space):
    # every coefficient of component 1 is -0.0, and on these points every
    # monomial and each of its derivatives is >= 0, so each entry of that
    # component sums only -0.0 terms; the final + coords[0] * 0.0 of the
    # per-component reference makes every one of them +0.0
    st = SPACETIMES[space]
    n = len(st.box)
    frame = geometry_at(st.metric, np.random.default_rng(3).uniform(0.2, 0.9, (6, n)), 3)
    basis = monomial_basis(st.box, frame.coords)
    assert np.all(basis.tables >= 0.0)
    coef = random_coefficients(("d",), st.box, seed=17)
    coef[1] = -0.0
    got = coefficient_sum(coef, basis)
    for t in got.data:
        assert np.all(t[:, 1] == 0.0) and not np.signbit(t[:, 1]).any()


def test_random_field_evaluation_shares_monomial_products(monkeypatch):
    # building a basis takes one elementwise product per degree above 1
    # (one cubic per component would take ~800, one product per monomial
    # 30), and summing a field over it none
    calls = []
    real = jets.jet_einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    st = SPACETIMES["minkowski4"]
    frame = geometry_at(st.metric, sample_points(st.box, 4, seed=2), 3)
    monkeypatch.setattr(jets, "jet_einsum", counting)
    basis = monomial_basis(st.box, frame.coords)
    built = len(calls)
    coefficient_sum(random_coefficients(("d", "d"), st.box, seed=8), basis)
    assert 0 < built <= 2 and len(calls) == built


def test_scenario_box_override():
    # the point-charge configuration is singular at the origin, so its
    # sampling box is pushed away from the hole in the potential
    sc = SCENARIOS["coulomb-4d"]
    box = scenario_box(sc)
    assert box != spacetime(sc.spacetime).box
    r2min = sum(min(lo * lo, hi * hi) for lo, hi in box[1:])
    assert r2min > 0.5


def test_unknown_spacetime_name():
    with pytest.raises(KeyError):
        spacetime("nope")


def test_false_killing_claim_caught():
    st = SPACETIMES["minkowski2"]

    def shear(coords):
        t, x = coords
        return jet_stack([0.0 * t, x * x])

    liar = TensorField(("u",), shear, "liar")
    fake = Spacetime(st.metric, st.box, killing=st.killing + (liar,))
    with pytest.raises(CatalogClaimError, match="'liar' claims Killing"):
        verify_spacetime_claims(fake, seed=1)


def test_false_parallel_claim_caught():
    st = SPACETIMES["schwarzschild"]
    # static time translation is Killing but not parallel
    timelike = st.killing[0]
    assert timelike.name == "static-time"
    liar = TensorField(("u",), timelike.fn, "liar")
    fake = Spacetime(st.metric, st.box, killing=(liar,), parallel=(liar,))
    with pytest.raises(CatalogClaimError, match="'liar' claims parallel"):
        verify_spacetime_claims(fake, seed=1)


def test_a_parallel_claim_outside_the_killing_list_is_checked():
    st = SPACETIMES["schwarzschild"]
    liar = TensorField(("u",), st.killing[0].fn, "liar")
    fake = dataclasses.replace(st, parallel=(liar,))
    with pytest.raises(CatalogClaimError, match="'liar' claims parallel"):
        verify_spacetime_claims(fake, seed=1)


def test_false_on_shell_claim_caught():
    blob = SCENARIOS["scalar-blob-2d"]
    fake = Scenario(name="fake", spacetime=blob.spacetime, theory=blob.theory,
                    field=blob.field, on_shell=True)
    with pytest.raises(CatalogClaimError, match="claims on-shell"):
        verify_scenario_claims(fake, _theory_frame(fake))


def test_false_off_shell_claim_caught():
    wave = SCENARIOS["scalar-wave-2d"]
    fake = Scenario(name="fake", spacetime=wave.spacetime, theory=wave.theory,
                    field=wave.field, on_shell=False)
    with pytest.raises(CatalogClaimError, match="claims off-shell"):
        verify_scenario_claims(fake, _theory_frame(fake))


def test_on_shell_scenarios_cover_both_theories():
    names = [n for n, sc in SCENARIOS.items() if sc.on_shell]
    theories = {SCENARIOS[n].theory.name.split("(")[0] for n in names}
    assert {"scalar", "maxwell"} <= theories


def test_gauge_fields_flagged():
    # the gauge checks select scenarios by theory name: the four Maxwell
    # scenarios, each with a one-form potential
    maxwell = sorted(n for n, sc in SCENARIOS.items() if sc.theory.name == "maxwell")
    assert maxwell == ["coulomb-4d", "em-two-waves-4d", "em-wave-4d",
                       "schwarzschild-coulomb"]
    assert all(SCENARIOS[n].on_shell and SCENARIOS[n].field.variance == ("d",)
               for n in maxwell)


def _nan_valued(fn):
    return lambda coords: fn(coords) * float("nan")


@pytest.mark.parametrize("claim", ["Killing", "parallel"])
def test_non_finite_symmetry_residual_refutes_claim(claim):
    st = SPACETIMES["minkowski2"]
    v = st.parallel[0]
    bad = dataclasses.replace(v, fn=_nan_valued(v.fn))
    # a vector claimed parallel is checked for that first
    parallel = (bad,) if claim == "parallel" else ()
    fake = dataclasses.replace(st, killing=(bad,), parallel=parallel)
    with pytest.raises(CatalogClaimError, match=f"claims {claim}"):
        verify_spacetime_claims(fake, seed=1)


@pytest.mark.parametrize("name", ["scalar-wave-2d", "scalar-blob-2d"])  # on, off shell
def test_non_finite_field_equation_residual_refutes_scenario_claim(name):
    sc = SCENARIOS[name]
    nan_field = dataclasses.replace(sc.field, fn=_nan_valued(sc.field.fn))
    bad = dataclasses.replace(sc, field=nan_field)
    with pytest.raises(CatalogClaimError, match="non-finite"):
        verify_scenario_claims(bad, _theory_frame(bad))


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
def test_one_non_finite_residual_component_refutes_an_off_shell_claim(position):
    # a NaN compares false with the gate, so it must not read as "off shell"
    sc = SCENARIOS["gradient-vector-2d"]
    tf = _theory_frame(sc)
    res = tf.eom_residual
    c = res.components
    table = value_array(res).copy()
    table.flat[position] = np.nan
    tf.eom_residual = TensorValue(res.variance, res.n,
                                  Jet(c.nvars, c.order, c.vdim, [table, *c.data[1:]]))
    with pytest.raises(CatalogClaimError, match="non-finite"):
        verify_scenario_claims(sc, tf)

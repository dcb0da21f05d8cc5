"""Tensor values and the index-replacement operator.

The main oracle is a deliberately naive loop implementation of the
replacement operator over plain component arrays; the production path adds
each summand into a diagonal view of a zero table and must agree exactly.
It must also agree bit for bit with the summands written as einsums against
the identity matrix, and the slot-by-slot contraction ``tilde_contract``
must agree with contracting the materialised tilde T.  The one tensor
contraction, ``einsum``, must give the bytes of ``jet_einsum`` and reject
every subscript that does not pair an up slot with a down slot.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emtkit.tensors import (
    TensorValue,
    antisymmetrize_pair,
    contract,
    einsum,
    levi_civita,
    max_abs,
    raise_slot,
    tensor_product,
    tilde,
    tilde_contract,
    transpose_slots,
    value_array,
)
from emtkit.jets import Jet, _is_zero, _zero_table, constant_jet, jet_einsum
from emtkit.catalog import SPACETIMES, random_tensor_field, sample_points
from emtkit.geometry import evaluate, geometry_at
from emtkit.suites import _frozen


def tilde_loops(variance, comps):
    """Loop-based index replacement: for each up slot, +T with that slot set
    to the new down index and the freed index moved to the new up slot; for
    each down slot, -T likewise with the roles swapped."""
    n = comps.shape[-1]
    rank = len(variance)
    out = np.zeros(comps.shape + (n, n))
    for idx in itertools.product(range(n), repeat=rank):
        for c in range(n):
            for d in range(n):
                acc = 0.0
                for k, v in enumerate(variance):
                    if v == "u":
                        # contributes T[..idx with slot k -> c ..] delta(idx[k], d)
                        if idx[k] == d:
                            jdx = idx[:k] + (c,) + idx[k + 1:]
                            acc += comps[jdx]
                    else:
                        if idx[k] == c:
                            jdx = idx[:k] + (d,) + idx[k + 1:]
                            acc -= comps[jdx]
                out[idx + (c, d)] = acc
    return out, tuple(variance) + ("u", "d")


RNG = np.random.default_rng(11)


def tensor(variance, n, comps):
    """A tensor whose components are the array ``comps``, or a jet passed as
    it is; an array becomes an order-0 jet whose value axes are the last
    ``len(variance)`` of it."""
    if not isinstance(comps, Jet):
        comps = constant_jet(comps, 2, 0, vdim=len(variance))
    return TensorValue(variance, n, comps)


@pytest.mark.parametrize("comps", [np.eye(2), np.float64(1.0), [[1.0, 0.0], [0.0, 1.0]]],
                         ids=["array", "number", "list"])
def test_tensor_value_components_must_be_a_jet(comps):
    variance = ("u", "d") if np.ndim(comps) else ()
    with pytest.raises(TypeError, match="must be a Jet"):
        TensorValue(variance, 2, comps)


@pytest.mark.parametrize("variance", [
    ("u",), ("d",), ("u", "d"), ("d", "d"), ("u", "u"),
    ("u", "d", "d"), ("d", "u", "u"),
])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_tilde_matches_loop_oracle(variance, n):
    comps = RNG.normal(size=(n,) * len(variance))
    got = tilde(tensor(variance, n, comps))
    want, want_var = tilde_loops(variance, comps)
    assert got.variance == want_var
    assert np.allclose(value_array(got), want, atol=0, rtol=0)


def tilde_eye_products(t):
    """Index replacement as one einsum against the identity matrix per slot,
    the summands negated and added in slot order."""
    S = "abc"[:t.rank]
    acc = None
    for k, v in enumerate(t.variance):
        src = S[:k] + ("x" if v == "u" else "y") + S[k + 1:]
        delta = S[k] + ("y" if v == "u" else "x")
        term = jet_einsum(f"{src},{delta}->{S}xy", t.components, np.eye(t.n))
        if v == "d":
            term = -term
        acc = term if acc is None else acc + term
    return acc


def tables(c):
    return c.data if isinstance(c, Jet) else (c,)


def random_components(rng, rank, order, n=3, nvars=4, batch=(2, 3), vshape=None):
    """A plain array for order None (``tensor`` makes it an order-0 jet),
    else a jet of that order."""
    shape = batch + (vshape if vshape is not None else (n,) * rank)
    if order is None:
        return rng.normal(size=shape)
    return Jet(nvars, order, len(shape) - len(batch),
               [rng.normal(size=shape + (nvars,) * m) for m in range(order + 1)])


ALL_VARIANCES = [v for r in range(4) for v in itertools.product("ud", repeat=r)]


def variance_id(variance):
    return "".join(variance) or "scalar"


@pytest.mark.parametrize("variance", ALL_VARIANCES, ids=variance_id)
@pytest.mark.parametrize("order", [None, 0, 1, 2, 3])
def test_tilde_matches_eye_products_bitwise(variance, order):
    seed = ALL_VARIANCES.index(variance) * 5 + (0 if order is None else order + 1)
    rng = np.random.default_rng(seed)
    t = tensor(variance, 3, random_components(rng, len(variance), order))
    got = tilde(t)
    assert got.variance == variance + ("u", "d")
    if not variance:
        assert all(not np.any(g) for g in tables(got.components))
        return
    want = tables(tilde_eye_products(t))
    assert len(tables(got.components)) == len(want)
    for g, w in zip(tables(got.components), want):
        # + 0.0 maps -0.0 to +0.0 and leaves every other bit pattern alone
        assert (g + 0.0).tobytes() == (w + 0.0).tobytes()


@pytest.mark.parametrize("variance", [("u",), ("d",), ("u", "d"), ("d", "d"),
                                      ("d", "u", "u"), ()], ids=variance_id)
@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("m_order", [None, 2])
def test_tilde_contract_matches_materialised_tilde(variance, extra, m_order):
    rng = np.random.default_rng(len(variance) * 7 + extra * 3 + (m_order or 0))
    n = 3
    t = TensorValue(variance, n, random_components(rng, len(variance), 3, n=n))
    m = random_components(rng, 0, m_order, vshape=(n,) * (2 + extra))
    if m_order is None:   # a derivative-free constant at t's order
        m = constant_jet(m, 4, 3, vdim=2 + extra)
    m = TensorValue(("u", "d") + ("d",) * extra, n, m)
    E = "pq"[:extra]
    S = "abc"[:t.rank]
    want = tables(jet_einsum(f"{S}xy,yx{E}->{S}{E}", tilde(t).components, m.components))
    got = tilde_contract(t, m)
    assert got.variance == t.variance + m.variance[2:]
    got = tables(got.components)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * max(np.max(np.abs(w)), 1e-300)


def test_tilde_scalar_is_zero():
    t = tensor((), 3, np.float64(4.2))
    got = tilde(t)
    assert got.variance == ("u", "d")
    assert np.allclose(value_array(got), 0.0)


def test_tilde_vector_closed_form():
    n = 4
    v = RNG.normal(size=n)
    got = value_array(tilde(tensor(("u",), n, v)))
    want = np.einsum("c,ad->acd", v, np.eye(n))
    # up slot: value v^c lands in the new up slot, delta pairs old slot with
    # the new down slot
    assert np.allclose(got, want)


def test_tilde_oneform_closed_form():
    n = 4
    a = RNG.normal(size=n)
    got = value_array(tilde(tensor(("d",), n, a)))
    want = -np.einsum("d,ca->acd", a, np.eye(n))
    assert np.allclose(got, want)


def test_tilde_identity_tensor_vanishes():
    for n in (2, 3, 4):
        got = tilde(tensor(("u", "d"), n, np.eye(n)))
        assert max_abs(got) == 0.0


_VALUES = np.array([[0.5, -3.0], [2.0, 1.0]])
_JET = Jet(2, 1, 2, [_VALUES, np.full((2, 2, 2), -9.0)])
_NAN_ROW = np.array([1.0, np.nan, 2.0])


@pytest.mark.parametrize("x,values,want", [
    (TensorValue(("u", "d"), 2, _JET), _VALUES, 3.0),
    (_JET, _VALUES, 3.0),                   # derivative tables are not read
    (_VALUES, _VALUES, 3.0),
    (-2.5, np.array(-2.5), 2.5),
    (np.empty((0, 3)), np.empty((0, 3)), 0.0),
    (_NAN_ROW, _NAN_ROW, np.nan),
], ids=["jet-tensor", "jet", "array", "number", "empty", "nan"])
def test_max_abs_reads_the_value_part_of_every_input_form(x, values, want):
    assert np.array_equal(value_array(x), values, equal_nan=True)
    got = max_abs(x)
    assert type(got) is float
    assert got == want or (np.isnan(want) and np.isnan(got))


def test_tilde_metric_form():
    n = 4
    g = RNG.normal(size=(n, n))
    g = g + g.T
    got = value_array(tilde(tensor(("d", "d"), n, g)))
    eye = np.eye(n)
    want = -np.einsum("db,ca->abcd", g, eye) - np.einsum("ad,cb->abcd", g, eye)
    assert np.allclose(got, want)


def test_tilde_alternating_symbol():
    for n in (2, 3):
        eps = levi_civita(n)
        got = value_array(tilde(eps))
        S = "ijk"[:n]
        want = -np.einsum(f"{S},cd->{S}cd", value_array(eps), np.eye(n))
        assert np.allclose(got, want)


def test_tilde_trace_counts_slots():
    n = 3
    for variance in [("u", "u"), ("u", "d"), ("d", "d"), ("u", "u", "d")]:
        comps = RNG.normal(size=(n,) * len(variance))
        t = tensor(variance, n, comps)
        tr = contract(tilde(t), t.rank, t.rank + 1)
        p = variance.count("u")
        q = variance.count("d")
        assert np.allclose(value_array(tr), (p - q) * comps, atol=1e-14)


def test_tilde_leibniz_over_products():
    n = 3
    t = tensor(("u",), n, RNG.normal(size=n))
    s = tensor(("d", "u"), n, RNG.normal(size=(n, n)))
    lhs = tilde(tensor_product(t, s))
    term1 = tensor_product(tilde(t), s)
    perm = (0, 3, 4, 1, 2)  # pull til(t)'s replacement slots to the end
    term2 = tensor_product(t, tilde(s))
    res = value_array(lhs) - value_array(transpose_slots(term1, perm)) \
        - value_array(term2)
    assert np.max(np.abs(res)) < 1e-14


def test_levi_civita_parity():
    for n in (2, 3, 4):
        eps = value_array(levi_civita(n))
        assert eps[tuple(range(n))] == 1.0
        # swapping two indices flips the sign
        idx = list(range(n))
        idx[0], idx[1] = idx[1], idx[0]
        assert eps[tuple(idx)] == -1.0
        # repeated index kills it
        assert eps[(0, 0) + tuple(range(n - 2))] == 0.0


def test_contract_is_trace():
    n = 4
    comps = RNG.normal(size=(n, n, n))
    t = tensor(("u", "d", "d"), n, comps)
    tr = contract(t, 0, 1)
    assert tr.variance == ("d",)
    assert np.allclose(value_array(tr), np.einsum("aab->b", comps), atol=1e-15)
    with pytest.raises(ValueError):
        contract(t, 1, 2)  # both covariant


def test_transpose_slots_permutes():
    n = 3
    comps = RNG.normal(size=(n, n, n))
    t = tensor(("u", "d", "u"), n, comps)
    got = transpose_slots(t, (2, 0, 1))
    assert got.variance == ("u", "u", "d")
    want = np.einsum("abc->cab", comps)
    assert np.allclose(value_array(got), want)


def special_components(rank, order, n=3, nvars=2, batch=(2,)):
    """Components with -0.0, NaN and inf in every live table; above order 0
    the top table is a structural zero.  Order None gives a plain array,
    which ``tensor`` makes an order-0 jet."""
    rng = np.random.default_rng(rank * 5 + (order or 0))
    live = []
    for m in range(1 if order is None else order + 1):
        t = rng.normal(size=batch + (n,) * rank + (nvars,) * m)
        t.flat[:3] = (-0.0, np.nan, np.inf)
        t.flat[-1] = -np.inf
        live.append(t)
    if order is None:
        return live[0]
    if order > 0:
        live[-1] = _zero_table(live[-1].shape)
    return Jet(nvars, order, rank, live)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", [None, 0, 1, 2, 3])
def test_transpose_slots_is_a_view_equal_to_the_einsum_copy(rank, order):
    comps = special_components(rank, order)
    t = tensor(("u", "d", "u")[:rank], 3, comps)
    comps = t.components
    src = "ijk"[:rank]
    for perm in itertools.permutations(range(rank)):
        got = transpose_slots(t, perm)
        assert got.variance == tuple(t.variance[p] for p in perm)
        dst = "".join(src[p] for p in perm)
        want = jet_einsum(f"{src},->{dst}", comps, np.float64(1.0))
        for g, w, c in zip(tables(got.components), tables(want), tables(comps)):
            assert g.shape == w.shape
            # NaN and inf keep their bits; the einsum copy summed into +0.0,
            # so it turned -0.0 into +0.0, which + 0.0 does to the view too
            assert (g + 0.0).tobytes() == (w + 0.0).tobytes()
            assert np.shares_memory(g, c)
            assert _is_zero(g) == _is_zero(c)
            if not _is_zero(c):
                assert np.sum(np.signbit(g) & (g == 0)) == np.sum(np.signbit(c) & (c == 0))


@pytest.mark.parametrize("order", [None, 0, 2])
def test_transpose_slots_accepts_a_frozen_tensor(order):
    t = _frozen(tensor(("u", "d", "d"), 3, special_components(3, order)))
    got = transpose_slots(t, (2, 0, 1))
    for g in tables(got.components):
        assert not g.flags.writeable
    back = transpose_slots(got, (1, 2, 0))
    for b, c in zip(tables(back.components), tables(t.components)):
        assert b.tobytes() == c.tobytes()


@pytest.mark.parametrize("perm", [(0,), (0, 0), (1, 2), (0, 1, 2)])
def test_transpose_slots_rejects_a_malformed_perm(perm):
    t = tensor(("u", "d"), 2, np.arange(4.0).reshape(2, 2))
    with pytest.raises(ValueError, match="not a permutation"):
        transpose_slots(t, perm)


def test_raise_lower_roundtrip():
    n = 3
    g = RNG.normal(size=(n, n))
    g = g @ g.T + n * np.eye(n)  # positive definite
    ginv = np.linalg.inv(g)
    gv = tensor(("d", "d"), n, g)
    ginvv = tensor(("u", "u"), n, ginv)
    a = tensor(("d",), n, RNG.normal(size=n))
    up = raise_slot(a, 0, ginvv)
    assert up.variance == ("u",)
    back = np.einsum("ab,b->a", value_array(gv), value_array(up))
    assert np.allclose(back, value_array(a), atol=1e-12)


def test_symmetrize_antisymmetrize_split():
    n = 4
    comps = RNG.normal(size=(n, n))
    t = tensor(("u", "u"), n, comps)
    a = antisymmetrize_pair(t, 0, 1)
    s = comps - value_array(a)
    assert np.allclose(value_array(a), 0.5 * (comps - comps.T), atol=1e-15)
    assert np.allclose(s, s.T, atol=1e-15)
    assert np.allclose(value_array(a), -value_array(a).T, atol=1e-15)


def test_addition_requires_matching_variance():
    n = 2
    t = tensor(("u",), n, np.ones(n))
    s = tensor(("d",), n, np.ones(n))
    with pytest.raises(ValueError):
        _ = t + s


small_tensor = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from(["u", "d"]), min_size=0, max_size=2),
        st.integers(0, 2 ** 31 - 1),
    ))


@settings(max_examples=60, deadline=None)
@given(small_tensor, st.floats(-3, 3, allow_nan=False))
def test_property_tilde_linear(spec, scale):
    n, variance, seed = spec
    rng = np.random.default_rng(seed)
    shape = (n,) * len(variance)
    a = rng.normal(size=shape)
    b = rng.normal(size=shape)
    ta = tensor(tuple(variance), n, a)
    tb = tensor(tuple(variance), n, b)
    lhs = tilde(ta + scale * tb)
    rhs = tilde(ta) + scale * tilde(tb)
    assert np.allclose(value_array(lhs), value_array(rhs), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 31 - 1))
def test_property_double_transpose_identity(n, seed):
    rng = np.random.default_rng(seed)
    comps = rng.normal(size=(n, n))
    t = tensor(("u", "d"), n, comps)
    back = transpose_slots(transpose_slots(t, (1, 0)), (1, 0))
    assert np.allclose(value_array(back), comps, atol=0)


# --------------------------------------------------------------------------
# einsum: the one tensor contraction
# --------------------------------------------------------------------------


def random_tensor(rng, variance, order=2, n=3):
    return TensorValue(variance, n, random_components(rng, len(variance), order, n=n))


def scalar_jet(rng, order=2):
    return random_components(rng, 0, order, vshape=())


@pytest.mark.parametrize("subs,vx,vy,want", [
    ("ab,b->a", ("u", "u"), ("d",), ("u",)),
    ("ab,ba->", ("u", "u"), ("d", "d"), ()),
    ("bd,dac->bca", ("u", "u"), ("d", "d", "d"), ("u", "d", "d")),
    ("acd,badc->b", ("u", "u", "u"), ("u", "d", "d", "d"), ("u",)),
    ("cbda,d->cba", ("u", "d", "d", "d"), ("u",), ("u", "d", "d")),
    ("a,b->ab", ("d",), ("u",), ("d", "u")),
    ("ab,->ab", ("u", "u"), None, ("u", "u")),
    (",a->a", None, ("u",), ("u",)),
    ("a,->a", ("u",), None, ("u",)),
])
def test_einsum_derives_the_variance_and_keeps_the_jet_einsum_bytes(subs, vx, vy, want):
    rng = np.random.default_rng(len(subs))
    x = scalar_jet(rng) if vx is None else random_tensor(rng, vx)
    y = scalar_jet(rng) if vy is None else random_tensor(rng, vy)
    got = einsum(subs, x, y)
    assert got.variance == want and got.n == 3
    comps = [v if isinstance(v, Jet) else v.components for v in (x, y)]
    ref = jet_einsum(subs, *comps)
    assert len(got.components.data) == len(ref.data)
    for g, r in zip(got.components.data, ref.data):
        assert g.shape == r.shape and g.tobytes() == r.tobytes()


@pytest.mark.parametrize("subs,vx,vy,match", [
    ("ab,b->a", ("u", "u"), ("u",), "summed letter 'b' joins slots 'uu'"),
    ("ab,b->a", ("u", "d"), ("d",), "summed letter 'b' joins slots 'dd'"),
    ("abc,c->ab", ("u", "d"), ("u",), "does not fit operands of rank 2 and 1"),
    ("ab,bc->a", ("u", "d"), ("u",), "does not fit operands of rank 2 and 1"),
    ("a,a->a", ("u",), ("d",), "output letter 'a' is in slots 'ud'"),
    ("a,b->abc", ("u",), ("d",), "output letter 'c' is in slots ''"),
    ("aa,->", ("u", "u"), (), "summed letter 'a' joins slots 'uu'"),
    # W^acd R^b_adc with R's slots misread: a meets R's up slot
    ("acd,abdc->b", ("u", "u", "u"), ("u", "d", "d", "d"), "summed letter 'a' joins slots 'uu'"),
])
def test_einsum_rejects_a_pairing_that_is_no_tensor_contraction(subs, vx, vy, match):
    rng = np.random.default_rng(3)
    x, y = random_tensor(rng, vx), random_tensor(rng, vy)
    with pytest.raises(ValueError, match=match):
        einsum(subs, x, y)


def test_einsum_rejects_a_jet_with_value_axes_as_a_scalar():
    rng = np.random.default_rng(5)
    v = random_tensor(rng, ("u",))
    with pytest.raises(ValueError, match="vdim"):
        einsum("a,a->", v.components, random_tensor(rng, ("d",)))


@pytest.mark.parametrize("variance", [("d", "u"), ("u", "u"), ("d", "d", "d"), ("u",)],
                         ids=variance_id)
def test_tilde_contract_needs_an_up_then_a_down_slot_first(variance):
    rng = np.random.default_rng(9)
    t, m = random_tensor(rng, ("u", "d")), random_tensor(rng, variance)
    with pytest.raises(ValueError, match="first slots up, down"):
        tilde_contract(t, m)


BUMP2 = SPACETIMES["bump2"]


def bump2_field(variance, seed):
    fr = geometry_at(BUMP2.metric, sample_points(BUMP2.box, 4, seed=1), 2)
    return fr, evaluate(random_tensor_field(variance, BUMP2.box, seed=seed), fr)


@pytest.mark.parametrize("i", [-1, 1])
def test_raise_slot_rejects_a_slot_index_out_of_range(i):
    fr, v = bump2_field(("d",), 2)
    with pytest.raises(ValueError, match=f"slot index {i} is out of range"):
        raise_slot(v, i, fr.ginv)


@pytest.mark.parametrize("i,j", [(0, -1), (-2, 1), (0, 2)])
def test_contract_rejects_a_slot_index_out_of_range(i, j):
    _, t = bump2_field(("u", "d"), 3)
    bad = i if not 0 <= i < 2 else j
    with pytest.raises(ValueError, match=f"slot index {bad} is out of range"):
        contract(t, i, j)

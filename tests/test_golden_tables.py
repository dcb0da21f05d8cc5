"""Golden tables: the jet tables a run builds have pinned bytes.

A report rounds every residual to a maximum over points and targets, so a
change that moves table bits without moving a maximum leaves it unchanged.
These pins read the tables themselves, sign bits included, through a
:class:`~emtkit.suites.RunContext` at 16 points, seed 7 and jet order 3:

- every catalog symmetry vector, evaluated on its spacetime's frame;
- g, g^-1, sqrt|g|, the Christoffel symbols and the Riemann tensor of the
  ``schwarzschild`` and ``bump2`` frames, and of ``schwarzschild+bump``:
  the Schwarzschild metric plus a seeded :func:`bump_perturbation`, on the
  same points.  Every catalog metric is diagonal or constant, and on such
  a metric each Christoffel component sums at most one nonzero term of
  each kind, so a reassociated sum rounds the same; the perturbed metric
  has no zero entry and tells the two apart;
- T_M, T_B and T_C of ``schwarzschild-coulomb``;
- the value tables of the vector-family residuals on
  ``schwarzschild-coulomb``, ``em-two-waves-4d`` and ``scalar-wave-2d``:
  both sides of the master identity, the current-gradient pairing (member
  by member, as its check runs it), the kinematic Lie residual and the
  divergence of the difference current over the run's stack of 4 random
  xis, and the divergence of the matter current over the scenario's
  Killing stacks.  A check reads only their maxima.

The sha256 of each object's tables is compared with the value pinned for
this numpy version and BLAS build.  On a numpy or BLAS not in the table the
test still runs: it builds every object twice, in two contexts, requires
the two hashes to be identical, and prints the hash so that it can be
pinned.
"""

import hashlib

import numpy as np
import pytest

from emtkit.catalog import SPACETIMES, bump_perturbation, sample_points, scenario, spacetime
from emtkit.fieldtheory import (current_gradient_pairing_residual, difference_current,
                                kinematic_lie_residual, lie_matter_current,
                                master_identity_terms)
from emtkit.geometry import MetricField, divergence, geometry_at
from emtkit.suites import RunConfig, RunContext, _members
from emtkit.tensors import TensorValue

from test_golden_reports import _platform

GOLDEN = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0": {
        ("vector", "minkowski2", "translation-0"):
            "fa93607c69dc803a7d934200726358460cdafab68e6a9426876107704cea5442",
        ("vector", "minkowski2", "translation-1"):
            "1e2ff8869e1001e922c9cc3c1a329c064ddaaedd69984b740842852bc3892479",
        ("vector", "minkowski2", "boost-1"):
            "b48b710654685e3c8bee453a8fdfb8c5f0ac00a268bbe9ea6300dbd35e9cf8ae",
        ("vector", "minkowski4", "translation-0"):
            "e003c37d719379cf2d1ec8d2b2af12c58924b36c49205ccdcf84eb144a2b9891",
        ("vector", "minkowski4", "translation-1"):
            "28c19ac83145c3fad2f42bee62e62efae23382081e4aff8f1483cc31ce30e10f",
        ("vector", "minkowski4", "translation-2"):
            "c610a96a045ace0572d13c9d84fee36199dcd3bc01e611c3ca432158e9433c01",
        ("vector", "minkowski4", "translation-3"):
            "d86155eeb1898851c4b31ce35f1d1084999478dc8fa16b9760a7acda82b44c9e",
        ("vector", "minkowski4", "rotation-12"):
            "f3236af83fcd48929cde2f2ccba1cc9c84de4175ded4d5d68c34e261f74cce45",
        ("vector", "minkowski4", "rotation-13"):
            "f02415f28555a02ca3be9e77b81f3b38f0dc09d9bb7859648158068cd5f8a460",
        ("vector", "minkowski4", "rotation-23"):
            "e1bf301ed464d4307f532cb83c9f9f83748fdd59af93bde0be0412c9eeb9d88a",
        ("vector", "minkowski4", "boost-1"):
            "22f46065d947ccb4afd8425ed174430e6465682b6d79271aa407be221aa5188c",
        ("vector", "minkowski4", "boost-2"):
            "6edbab25fad87f791c98de09477c16cc638970d3f6a5a838ff40a3964e2a2dc4",
        ("vector", "minkowski4", "boost-3"):
            "974f642828926a310aec6770010e12c9ec36071cb49fe83f83ea8c906d83cfe4",
        ("vector", "schwarzschild", "static-time"):
            "e003c37d719379cf2d1ec8d2b2af12c58924b36c49205ccdcf84eb144a2b9891",
        ("vector", "schwarzschild", "axial"):
            "d86155eeb1898851c4b31ce35f1d1084999478dc8fa16b9760a7acda82b44c9e",
        ("vector", "schwarzschild", "rotation-a"):
            "035cf931a6616e9f3b863d5668a2473119a6730799bb1589cd5e59632a3c3825",
        ("vector", "schwarzschild", "rotation-b"):
            "1ee8e67a3af04430e05cab321fcc48470c7023da31883b8d529e756d8e13d13a",
        ("vector", "bump2", "rotation"):
            "72e6631e2133d3046aa73561a074cf16e46fafe94cd14e55a2250fa78b96931c",
        ("frame", "schwarzschild", "g"):
            "932729683c716c7ee20c2ca17fbf60703f9462480e2152cec998593918d6b718",
        ("frame", "schwarzschild", "ginv"):
            "4bb96d1287ee1e5bb0f6e735c2d04904d0a7a22b876e9d2f1ec1ec17c0b54271",
        ("frame", "schwarzschild", "sqrt_g"):
            "b053a3c5b2235515d18246019add9f720a937ffaba1652e2b4b9c8b9be803b2b",
        ("frame", "schwarzschild", "gamma"):
            "b61e97ce7eb207cfc178caa67dc0a7547ab6e2580c601cd29fdaaaab1ed00f6b",
        ("frame", "schwarzschild", "riemann"):
            "f347364e68cf49fe4e1635e4885104119b5c54c8c8db66687002f2b42eb85d1b",
        ("frame", "bump2", "g"):
            "fdecef1216261cf335691f655f5f0d8cee9403b2286a8e7f92f0db813a9ef922",
        ("frame", "bump2", "ginv"):
            "ec75a7a08eee942c4b29ecb44f406dcc095d2054f77a6dc759c725a4316d953e",
        ("frame", "bump2", "sqrt_g"):
            "f63dec547b640e0aabb37e678e1eff93a8a2038dc7e385a3afafe13f4bf25e3e",
        ("frame", "bump2", "gamma"):
            "672925c383e4a80b98cf00139d3ca00f62ac3f8ed4724ff4fa0462f2e602d98a",
        ("frame", "bump2", "riemann"):
            "cefcfec6ff2808c1ea09b8d02fc8a81a61c828b838a7dcfc2fad3d127f5cdbb3",
        ("frame", "schwarzschild+bump", "g"):
            "f58b2dfc75c117894da8558cebf0d22c651ac490b35f3a1b89d814893f439e11",
        ("frame", "schwarzschild+bump", "ginv"):
            "975179d39da0770909bf01f240f3ec419542c408da34ffdf235ea2180247612e",
        ("frame", "schwarzschild+bump", "sqrt_g"):
            "aa816eea5f0eb5b1ba19407cbcb4f14e30bbe661166963ae8ca9175e3830a50b",
        ("frame", "schwarzschild+bump", "gamma"):
            "48adeeae7b0c91caee743df169ca49a3d1ad4d6ac7e6ce32e57f84395e40d3f6",
        ("frame", "schwarzschild+bump", "riemann"):
            "f8876026ab0ab63bf9d05d3475c1d4c0558216bfda0473615fd6aed890d2124f",
        ("theory", "schwarzschild-coulomb", "emt_metric"):
            "c91997a70d587c9ce8d948d9f2ac5142f03d05da8c9623e6f9830a72e2915675",
        ("theory", "schwarzschild-coulomb", "emt_belinfante"):
            "9ccef74506a1a0c03878de0fb9f71b64299534cb3743de06dc825bf092e1f79e",
        ("theory", "schwarzschild-coulomb", "emt_canonical"):
            "492fe2f4f715159708af2a364c84b029868bf0d5c4efe08fbef11be45b6203dc",
        ("residual", "schwarzschild-coulomb", "master-lhs"):
            "a9f6a880c11cd62930a493a0b25d9c5add8ce42b32671b2f50a9e18f3dcffd18",
        ("residual", "schwarzschild-coulomb", "master-rhs"):
            "04844c929153f8e50d51ae270e03c30b92bb09107d99723ab0289ef8bcb1c804",
        ("residual", "schwarzschild-coulomb", "current-gradient-pairing"):
            "d3c8edc03c6fbaa248287ed1dd80cbfc5bef71333da42d94a7020e2b8691f9b9",
        ("residual", "schwarzschild-coulomb", "kinematic-lie"):
            "5d7ba971a466fe690fcfeda8ae2af98f3e5c48b987be08982126dac663a9fccf",
        ("residual", "schwarzschild-coulomb", "difference-current-divergence"):
            "3e1b779ed7acbdfef7e881b91273d7054ea4cc3bd8c9a78a3237beadd60ec2f8",
        ("residual", "schwarzschild-coulomb", "matter-current-divergence"):
            "6171701367f57e38265e134428b2c05fba8e1e24de96cc797f21eca5999a9079",
        ("residual", "em-two-waves-4d", "master-lhs"):
            "62aaab8954e9ffca780a6aec81f55dc2f410f9ced29697e653502afcec248895",
        ("residual", "em-two-waves-4d", "master-rhs"):
            "117942adde4064c2bddaa917bc01f803a2ad8043935dc5add06808c378d4dbf1",
        ("residual", "em-two-waves-4d", "current-gradient-pairing"):
            "4887c4fb136253c141c90e449cb5cea00a76d8205a9e2fb8a1715d54e725fd76",
        ("residual", "em-two-waves-4d", "kinematic-lie"):
            "e770ad1ff8b8a638219f2a5f68bf90e3d31b8799a7bfacdf64331d7deb5f8936",
        ("residual", "em-two-waves-4d", "difference-current-divergence"):
            "27bdbb836c7900829ed60270506d5139768a39ddef5e16f151e745a758887c00",
        ("residual", "em-two-waves-4d", "matter-current-divergence"):
            "1de3e35705cc3e97df02a556566d93c648dff747ac7e7660b0b40d130ecdc62f",
        ("residual", "scalar-wave-2d", "master-lhs"):
            "73da94bba0c8325748c68c2b2e055cf407881b67f21aff5da3a49630b33d6867",
        ("residual", "scalar-wave-2d", "master-rhs"):
            "71f984a6b583276117600a995499ca5dd523bed09e2bb8e272cae9a42bd72592",
        ("residual", "scalar-wave-2d", "current-gradient-pairing"):
            "23984b6504d47df275c45a677263b3cdc560011012074f06cf997786c756447b",
        ("residual", "scalar-wave-2d", "kinematic-lie"):
            "3fe2d2d1d76640cdeb713d537e6e05a1afdd329b4ebc01052d227acd3c6c7991",
        ("residual", "scalar-wave-2d", "difference-current-divergence"):
            "ad6da72822b5db301c080d1cc33719ae0aa96cea0600f1e306bb43cd66eaea07",
        ("residual", "scalar-wave-2d", "matter-current-divergence"):
            "b1e2f95c95ff3084041af25384494e6fa41624fbf03741b570f763526f708306",
    },
}

_GEOMETRY = ("g", "ginv", "sqrt_g", "gamma", "riemann")
_EMTS = ("emt_metric", "emt_belinfante", "emt_canonical")
_RESIDUALS = ("master-lhs", "master-rhs", "current-gradient-pairing", "kinematic-lie",
              "difference-current-divergence", "matter-current-divergence")

KEYS = ([("vector", st, v.name) for st, entry in SPACETIMES.items() for v in entry.killing]
        + [("frame", st, q) for st in ("schwarzschild", "bump2", "schwarzschild+bump")
           for q in _GEOMETRY]
        + [("theory", "schwarzschild-coulomb", q) for q in _EMTS]
        + [("residual", sc, q) for sc in ("schwarzschild-coulomb", "em-two-waves-4d",
                                          "scalar-wave-2d") for q in _RESIDUALS])


def _table_sha256(value):
    jet = value.components if isinstance(value, TensorValue) else value
    digest = hashlib.sha256()
    for table in jet.data:
        digest.update(repr(table.shape).encode())
        digest.update(np.ascontiguousarray(table).tobytes())
    return digest.hexdigest()


def _values_sha256(values):
    """sha256 of the value tables of ``values``, a list of tensors."""
    digest = hashlib.sha256()
    for value in values:
        table = value.components.data[0]
        digest.update(repr(table.shape).encode())
        digest.update(np.ascontiguousarray(table).tobytes())
    return digest.hexdigest()


def _residuals(ctx, name):
    """The value tables of each vector-family residual of scenario ``name``."""
    tf = ctx.theory_frame(name)
    (xis,) = ctx.xi_stacks(tf.frame, 4)
    killing = ctx.vector_stacks(spacetime(scenario(name).spacetime).killing, tf.frame)
    lhs, rhs = master_identity_terms(tf, xis)
    return {
        "master-lhs": [lhs],
        "master-rhs": [rhs],
        "current-gradient-pairing": [current_gradient_pairing_residual(tf, xi)
                                     for xi in _members(xis)],
        "kinematic-lie": [kinematic_lie_residual(tf, xis)],
        "difference-current-divergence": [divergence(difference_current(tf, xis), tf.frame)],
        "matter-current-divergence": [divergence(lie_matter_current(tf, xi), tf.frame)
                                      for xi in killing],
    }


def _perturbed_frame(cfg):
    st = SPACETIMES["schwarzschild"]
    h = bump_perturbation(st.box, cfg.seed, width_frac=0.5)
    metric = MetricField("schwarzschild+bump", st.n,
                         lambda coords: st.metric.fn(coords) + h.fn(coords))
    return geometry_at(metric, sample_points(st.box, cfg.points, cfg.seed), 3)


def _hashes():
    ctx = RunContext(RunConfig(points=16, seed=7), 3)
    frames = {"schwarzschild+bump": _perturbed_frame(ctx.cfg)}
    out = {}
    for kind, name, part in KEYS:
        if kind == "residual":
            out[kind, name, part] = _values_sha256(_residuals(ctx, name)[part])
            continue
        if kind == "vector":
            fr = ctx.frame(name)
            (v,) = [v for v in SPACETIMES[name].killing if v.name == part]
            value = ctx.field(v, fr)
        elif kind == "frame":
            value = getattr(frames[name] if name in frames else ctx.frame(name), part)
        else:
            value = getattr(ctx.theory_frame(name), part)
        out[kind, name, part] = _table_sha256(value)
    return out


@pytest.fixture(scope="module")
def hashes():
    return _hashes()


@pytest.mark.parametrize("key", KEYS, ids=["/".join(k) for k in KEYS])
def test_a_table_has_its_pinned_bytes(hashes, key):
    got = hashes[key]
    pinned = GOLDEN.get(_platform())
    if pinned is None:
        print(f"{_platform()}: {'/'.join(key)} sha256 {got}")
        assert _hashes()[key] == got
    else:
        assert got == pinned[key]

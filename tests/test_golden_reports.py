"""Golden reports: the benchmark configs and the pointwise suites give
pinned report bytes, and the selection errors give pinned exit codes and
output.

Each benchmark config (``perfbench/configs``) is run in-process exactly as
``emtkit verify --config <config> --seed S --quiet --report R`` runs it, at
seeds 7 and 11, and so are the six pointwise suites, every suite but
``variational``, at seed 7.  Those build order-3 frames, so the checks
that declare a lower order read truncated views, a path neither benchmark
config takes.  Every one of those runs at 16 points, where each
contraction of ``jet_einsum`` goes to np.einsum; ``lie-calculus``,
``commutator`` and ``emt-onshell`` at 128 points and 4 xis, seed 7, run
its plain-matmul contractions as batched ``@`` too.  The four suites that
evaluate vector families run at 40 points, seed 7, where every family runs
one member at a time.  The sha256 of each report is compared with the value pinned
for this numpy version and BLAS build.  On a numpy or BLAS not in the table
the test still runs: it runs each configuration twice, requires the two
reports to be identical, and prints their hash so that it can be pinned.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from emtkit.cli import EXIT_OFFSHELL, EXIT_USAGE, main
from emtkit.suites import SUITE_ORDER

CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"

GOLDEN = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0": {
        ("geometry-16pt", 7):
            "e807147f96517eda57c3920d29a39c89807a50c6ad8b5269a97074ddc4a34b7c",
        ("geometry-16pt", 11):
            "4bec1e0d13e4529070df99ddcc041b8e88dba474e439419def129c859934b107",
        ("fields-16pt", 7):
            "f084df9a5b9d295af1bd2bb63b35123dd006f4c9f69b0320628411caf5e1cd70",
        ("fields-16pt", 11):
            "cd88f8de693adebae3c123af14439a31d55e62a2b1de9925e5cd6aad31171966",
        ("variational-4d", 7):
            "f0f8a7a4282e4040182d509862a72f2b81a51aa618c81b9764b9d2a59c67fd36",
        ("variational-4d", 11):
            "3ef18a06682026fb178fbf483697ca4ce34a1cca6e4389802b0c2869c346726e",
        ("pointwise-suites", 7):
            "69093b9058148ceae3e8c6c72bccf9c41edb359c3a43e9ef4a532219ef8798e8",
        ("matmul-128pt", 7):
            "789bfb97f2eb48966dc60f16008946146f530c71eaeb0f4752344205305673d3",
        ("families-40pt", 7):
            "1b5ec62c8dd0fdbcc539077aaa0fe5846aa898523a5025277b649a7ebf5dddfb",
    },
}


def _platform():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


_POINTWISE = [arg for suite in SUITE_ORDER if suite != "variational"
              for arg in ("--suite", suite)]


# the suites in SUITE_ORDER, since the report echoes them as listed
_MATMUL_CONFIG = ('{"suites": ["lie-calculus", "commutator", "emt-onshell"], '
                  '"points": 128, "xi_count": 4}')
# every suite that evaluates a vector family, at a point count where each
# family runs one member at a time
_FAMILIES_CONFIG = ('{"suites": ["lie-calculus", "commutator", "kinematic-lagrangian", '
                    '"emt-onshell"], "points": 40}')
_CONFIGS = {"matmul-128pt": _MATMUL_CONFIG, "families-40pt": _FAMILIES_CONFIG}


def _args(workload, tmp_path):
    if workload == "pointwise-suites":
        return _POINTWISE
    if workload in _CONFIGS:
        config = tmp_path / f"{workload}.json"
        config.write_text(_CONFIGS[workload])
        return ["--config", str(config)]
    return ["--config", str(CONFIGS / f"{workload}.json")]


def _report_sha256(tmp_path, workload, seed):
    report = tmp_path / f"{workload}-{seed}.json"
    code = main(["verify", *_args(workload, tmp_path), "--seed", str(seed), "--quiet",
                 "--report", str(report)])
    assert code == 0
    return hashlib.sha256(report.read_bytes()).hexdigest()


def _check_pinned(tmp_path, workload, seed):
    got = _report_sha256(tmp_path, workload, seed)
    pinned = GOLDEN.get(_platform())
    if pinned is None:
        again = _report_sha256(tmp_path, workload, seed)
        print(f"{_platform()}: {workload} seed {seed} sha256 {got}")
        assert again == got
    else:
        assert got == pinned[workload, seed]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("workload", ["geometry-16pt", "fields-16pt", "variational-4d"])
def test_a_benchmark_report_has_its_pinned_bytes(tmp_path, workload, seed):
    _check_pinned(tmp_path, workload, seed)


def test_the_pointwise_suites_report_has_its_pinned_bytes(tmp_path):
    _check_pinned(tmp_path, "pointwise-suites", 7)


def test_a_report_through_the_matmul_path_has_its_pinned_bytes(tmp_path):
    _check_pinned(tmp_path, "matmul-128pt", 7)


def test_a_report_of_one_member_families_has_its_pinned_bytes(tmp_path):
    _check_pinned(tmp_path, "families-40pt", 7)


_OFF_SHELL = ("on-shell gate: scenario 'scalar-blob-2d' is claimed off shell, "
              "and the check holds only on shell\n")


@pytest.mark.parametrize("args,code,err", [
    (["--suite", "lie-calculus", "--spacetime", "bump2"], EXIT_USAGE,
     "error: selected spacetimes bump2 leave no target for parallel-claims\n"),
    (["--suite", "emt-onshell", "--scenario", "scalar-blob-2d"], EXIT_OFFSHELL, _OFF_SHELL),
    (["--suite", "lie-calculus", "--suite", "emt-onshell", "--spacetime", "bump2",
      "--scenario", "scalar-blob-2d"], EXIT_OFFSHELL, _OFF_SHELL),
], ids=["empty-selection", "off-shell", "off-shell-before-empty-selection"])
def test_a_refused_selection_has_its_pinned_exit_and_output(capsys, args, code, err):
    assert main(["verify", *args]) == code
    assert capsys.readouterr() == ("", err)

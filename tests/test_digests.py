"""Pinned sha256 digests of fixed-seed outputs.

Each output is built from a fixed seed: ``raw.csv`` and ``summary.csv`` of
the criterion-11 plan, a plaintext and a hashed sample dump of one referral
capture, and the ``netsize estimate`` result line of each estimator on
those dumps.  A change that moves an output byte moves its digest, and the
failure names every output that moved.  A change that moves outputs on
purpose updates the digests here and says which moved and why.
"""

import hashlib

import numpy as np

import netsize as ns
from netsize.cli import main
from netsize.harness import ESTIMATORS, ExperimentPlan, raw_csv_lines, run_plan, summary_csv_lines, write_csv
from netsize.hashing import HashSpace, assign_hashes, hashed_view
from netsize.sampling import RdsConfig, rds_capture, write_sample_dump

OMEGA = 32000

DIGESTS = {
    "raw.csv": "ecc16ff5d73b98a363a648eb5a86ae821e93583a45c1fe0ef5bcc7961ea85cb7",
    "summary.csv": "287d774e8d2d36b8d761ebf0b2a3616693cbb0088170e3e3f0f0991af59ead3c",
    "plaintext dump": "69e2dd509bafc57b4e9adf09eeefc1293150e0e15e58f55a665c0b43f1fdc291",
    "hashed dump": "c9c1d15c0898ce8d0aeaa6d5482b5fed37db93adb9a957f9105e535869877a7f",
    "estimate n1": "1f7207929c878191c41d5e667eae5c33c49d2b3a18f9fe777311603fd2144b94",
    "estimate n2": "55e79a009d6d5b7411240a0a60d9ee5028d70c0851b8c53b29d8f5244a8b2191",
    "estimate n3": "1e7f27ce8b23e4bde9a8f704679d23f64728f223c0eb91dbbe5ccdf2f7166496",
    "estimate n2psi": "e2da016a817ff4006c3afd8b2c2a1c1225e6c878ab16c7e1b99e3a3660f7819d",
    "estimate n3psi": "3809f987ab1072a83fda248238e9025f1ca2270a80670d1b984a075907711022",
}


def _outputs(tmp_path, capsys):
    """The bytes of each pinned output, by name."""
    plan = ExperimentPlan(
        families=(ns.Family.ERDOS_RENYI, ns.Family.CONFIG_LOGNORMAL),
        lambdas=(5.0,),
        sizes=(400,),
        sample_sizes=(60,),
        estimators=tuple(ESTIMATORS),
        omegas=(512,),
        graph_replicates=2,
        sample_replicates=3,
        seed=7,
    )
    raw, summaries = run_plan(plan, workers=1)
    paths = {"raw.csv": tmp_path / "raw.csv", "summary.csv": tmp_path / "summary.csv",
             "plaintext dump": tmp_path / "plain.csv", "hashed dump": tmp_path / "hashed.csv"}
    write_csv(raw_csv_lines(raw), paths["raw.csv"])
    write_csv(summary_csv_lines(summaries), paths["summary.csv"])

    rng = np.random.default_rng(2017)
    g = ns.sample_graph(ns.Family.CONFIG_POISSON, 10.0, 2000, rng)
    sample = rds_capture(g, RdsConfig(target_size=250), rng)
    write_sample_dump(sample, paths["plaintext dump"])
    write_sample_dump(hashed_view(sample, assign_hashes(g.n, HashSpace(OMEGA), rng)), paths["hashed dump"])
    outputs = {name: path.read_bytes() for name, path in paths.items()}

    for estimator, (_, reads) in ESTIMATORS.items():
        dump = paths["hashed dump" if reads == "hashed" else "plaintext dump"]
        omega = ["--omega", str(OMEGA)] if reads == "hashed" else []
        assert main(["estimate", "--estimator", estimator, "--sample", str(dump), *omega]) == 0
        # the result line only: the header above it names the dump's path
        outputs[f"estimate {estimator}"] = capsys.readouterr().out.splitlines()[-1].encode()
    return outputs


def test_fixed_seed_outputs_keep_their_digests(tmp_path, capsys):
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in _outputs(tmp_path, capsys).items()}
    moved = [f"{name} ({digests[name]})" for name in DIGESTS if digests[name] != DIGESTS[name]]
    assert not moved, "outputs that moved: " + ", ".join(moved)

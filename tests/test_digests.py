"""Pinned sha256 digests of fixed-seed outputs.

Each output is built from a fixed seed: ``raw.csv`` and ``summary.csv`` of
the criterion-11 plan, a plaintext and a hashed sample dump of one referral
capture, and the ``netsize estimate`` result line of each estimator on
those dumps.  The graphs are pinned too: for each family at n = 2000, the
bytes and dtype of ``edge_array``, the CSR offsets and targets and
``degrees()``, the ``netsize generate`` output and one capture's dump; the
same arrays of an Erdos-Renyi graph drawn in many small gap blocks, of a
Barabasi-Albert graph resolved in many small slot blocks and of a rewired
graph; one hashed dump per hash mode; and the edges of two complete
Erdos-Renyi graphs.  So is ``netsize ingest`` with every cleaning option
on, and ``netsize stats``, which always cleans, with the same filter, on a
fixed edge list of reciprocal arcs, repeated lines, loops and ids outside
the filter.  A change that moves an output byte moves its digest, and the
failure names every output that moved.  A change that moves outputs on purpose updates
the digests here and says which moved and why.
"""

import hashlib
from unittest import mock

import numpy as np

import netsize as ns
from netsize import generators
from netsize.cli import main
from netsize.harness import ESTIMATORS, ExperimentPlan, raw_csv_lines, run_plan, summary_csv_lines, write_csv
from netsize.hashing import HashMode, HashSpace, assign_hashes, hashed_view
from netsize.sampling import RdsConfig, rds_capture, sample_dump_lines, write_sample_dump

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

GRAPH_DIGESTS = {
    "lognormal edges": "13cc56305fb6d1d4685ed481efdc71f9aad3d1e7e62bd492189ec6aa4b7bd349",
    "lognormal offsets": "73aec0cc016be366aab35bcef5b32938b078283399672d6ee17b0362cf0532aa",
    "lognormal targets": "011f4c273dfca441604a465dbc2d797b12d6b9188d973be0524ebd704afff65b",
    "lognormal degrees": "3436ec0d994aef38424a9d4cb076dbcd17fa909a71ba1d1f3ebbea70829223f3",
    "lognormal capture": "366c53de8aa6b545374595e259c264906546733bf9083847059c33ae7f44b6ea",
    "lognormal generate": "586a4b59de3d8869805e279a4755b2b7ac9852d6b96931d2d36af7e499ece3e3",
    "poisson edges": "44fa1abdb6d1cf5ad6367e4c89c060bd19955039c44ae5e8b6672acb9bcc6ef0",
    "poisson offsets": "6a6bc47762b71cf697d4023541230221c5c37f6a56c537c20c4b40b5f1732291",
    "poisson targets": "35704aa908a517f20dbe90b1ae29e929e179f8b99f54059f1ac6681cd9da3b76",
    "poisson degrees": "9dd52604a9b81b949142941920a6dcb917c30b656ede9eed84b6b25594d7c790",
    "poisson capture": "54ff663e3a5486ec72826d9c03ed14daa89e6269766a807c2fabdac7d94e1c27",
    "poisson generate": "35c6735ea2fc95ddffc332e16432d99ac356b1a725eae5ed560c6f35164bbe07",
    "exponential edges": "26fe825123d6d1edd737b61bb09578e703d45512af444681d607a15dd6bdb3b3",
    "exponential offsets": "14b74e3f1d57a9434690d0430ebf6bafb25aa11f5957f4b0bcb030a3139ed6dd",
    "exponential targets": "dc9cd41f5e2f291db33f7fe8a3b9037319942f77e6686ef791118fa8857d2cd6",
    "exponential degrees": "8b806396b2d1fc9c73c50f728529e7ecd432cc30886bec54b6f771bf3af69244",
    "exponential capture": "7944bf85ed3535963fe6e2a6871eb03131307f608aa5437cac86023e4294174a",
    "exponential generate": "8d4e49c56eea7fddf84594f17852c65f73451cc17361fe5d0bb6cf83e89a2b6c",
    "ba edges": "570d01bd3ecde6832c387730fb1cda318bdddef31b99ae02fdd14a5add2b2ed5",
    "ba offsets": "79a1ec56425e103776499fce1d7d90b2bbcc838c1243029d6705d3c3a5b2361e",
    "ba targets": "5d5b5f440cd8e18333cc2f32dc1a8c938a526543ea5ef8d5cef2d9143be59c7c",
    "ba degrees": "de6fc825ec4a603686abb7221660736d80893370c8c2380994284fe77bd4d439",
    "ba capture": "3e422c3bda178795c3e013f17229b683ae276a0a36dd8a05df12e15fe46ff882",
    "ba generate": "d7b22b87d8b7a460266e00050d7d1b4d9419898251757d4e8c915da19fa9be1c",
    "er edges": "daeade460ff49e7236dbfb45c44324c14a631af1b4892dc638f635f0ed8171e6",
    "er offsets": "1f142cb648fe3d05d5f9408cbd1e657b947710984e5f058e561861919b62e4db",
    "er targets": "097b66c3df718d0f9776212da6b40edbb9734937de5695c5ed10383842f8b3ba",
    "er degrees": "87e3870a43fce83b7fbeaa6f92b798def90a4ed076c6299b665111fe006d9603",
    "er capture": "8a97859bd6d6d50755548fe88cead73fd4c7573003a669ba3dd417e02f677c98",
    "er generate": "0d95ac46d2a5e8f18eac6fd7777896c88dec28ce5ea4c49e62342481cf674131",
    "er blocks edges": "938c257949c0bdf4747b889354f9c11aa2a7d1f91307451789d4f43b72ff3025",
    "er blocks offsets": "3c04208f1fbd2ce6081788fe74c0f48ebed5111f4100dc1f873659c4239b8671",
    "er blocks targets": "ee05cb764b17a1a638da6f25cef98229f156fbcc3d365564912367087894e272",
    "er blocks degrees": "1cb29406bf917c3efed28f19e2a0d797ddc182e4aef416c3b402efb4eabb4ae9",
    "ba blocks edges": "748516386acaed273b45fdce2fd6a817d34c2861494e5145a5de406ce59bc7e6",
    "ba blocks offsets": "228cc44dd5db753818afaa77957a486bd30b0807e624c53e40f5040164b259d6",
    "ba blocks targets": "f98c707323c83d55c521fb4c58f5431f12e50a2878fdf019a6204753fd84b8cd",
    "ba blocks degrees": "946f564e84baa1e0f4e367f664ae51366cde2fde67abb546c519b52271f808ed",
    "rewired edges": "8b82921b9c1573b9be9f84c2fa050b75312ae49a1d3cda1cec07f7d3fb047980",
    "rewired offsets": "1048b5682daf7512ecc84298dd0921e8a4de1ae771fa26aafbfad17c21908aa1",
    "rewired targets": "cec82301f6dd45ea033780950aae456b20ed0c7a727e7d6c569f88338d7b2b8f",
    "rewired degrees": "d66661ed3afb7e45d45dae22915bc2b0d531eaa441fca8aed305487107d3c54f",
    "random hashed dump": "f3be23fcc265d46a78fff99c6b05a9a355a23dd477212f77f12197c4d2ff1f5a",
    "injective hashed dump": "6d8e9ce76af932c86ccb783c7547b5e112f1eceef34cfd5a52927f323e41785a",
    "telefunken hashed dump": "404456ae7ba97127160c31ac285b2e49eba9bd623cf3d18907733f4efaf03a8f",
    "complete er 50 edges": "fc8af00e48f69f36e906d67df153f0cc5a183ce29aa9b7b41a855b8e1468b703",
    "complete er 2000 edges": "a4d0f6383c569a16b8f206ee73bb21387d2d557e1475b563bed0a3bc230f5d3b",
}

INGEST_DIGESTS = {
    "ingest edges": "5c02580982dab24b99f5a91fcc2d01e5b171e0f98f4f9a3269647a554a6a024d",
    "ingest id map": "5c1d2809eb171d6e212a480067d2f6c7cfb1b4adcc248e45040973eb76a18b21",
    "ingest report": "3d12b3d1a31a45fe2cfa6f910c9b372b184eb52cdc23f1d95bea300f1f1a5755",
    "stats": "d09621efb513d384a1632444411e9f81ee5475a51b75579427f6d3c8d00e8b8a",
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


def _graph_arrays(name, g):
    """The dtype and bytes of each array a graph holds, by output name."""
    offsets, targets = g.adjacency
    arrays = {"edges": g.edge_array, "offsets": offsets, "targets": targets, "degrees": g.degrees()}
    return {f"{name} {part}": f"{array.dtype.str}:".encode() + array.tobytes() for part, array in arrays.items()}


def _dump(sample):
    return "\n".join(sample_dump_lines(sample)).encode()


def _graph_outputs(capsys):
    """The bytes of each pinned graph output, by name."""
    outputs = {}
    for family in ns.Family:
        name = family.value
        rng = np.random.default_rng(22)
        g = ns.sample_graph(family, 10.0, 2000, rng)
        outputs.update(_graph_arrays(name, g))
        outputs[f"{name} capture"] = _dump(rds_capture(g, RdsConfig(target_size=250), rng))
        assert main(["generate", "--family", name, "--lambda", "10", "--n", "2000", "--rng-seed", "22"]) == 0
        outputs[f"{name} generate"] = capsys.readouterr().out.encode()

    with mock.patch.object(generators, "_GAP_BLOCK", 64):  # about 60 blocks
        outputs.update(_graph_arrays("er blocks", ns.sample_graph(ns.Family.ERDOS_RENYI, 4.0, 2000,
                                                                   np.random.default_rng(23))))
    with mock.patch.object(generators, "_SLOT_BLOCK", 512):  # 20 blocks of pick slots
        outputs.update(_graph_arrays("ba blocks", ns.sample_graph(ns.Family.BARABASI_ALBERT, 10.0, 2000,
                                                                   np.random.default_rng(27))))
    rng = np.random.default_rng(24)
    g = ns.sample_graph(ns.Family.CONFIG_POISSON, 6.0, 2000, rng)
    outputs.update(_graph_arrays("rewired", generators.rewire_to_clustering(g, 0.1, rng)))

    rng = np.random.default_rng(25)
    g = ns.sample_graph(ns.Family.CONFIG_LOGNORMAL, 6.0, 2000, rng)
    sample = rds_capture(g, RdsConfig(target_size=250), rng)
    for mode, size in [(HashMode.RANDOM_FUNCTION, 2000), (HashMode.INJECTIVE, 32000), (HashMode.TELEFUNKEN, 4**6)]:
        hashed = hashed_view(sample, assign_hashes(g.n, HashSpace(size, mode), rng))
        outputs[f"{mode.value} hashed dump"] = _dump(hashed)

    for n in (50, 2000):  # p = 1: every pair, drawn by the gap walk
        g = generators.erdos_renyi(n - 1.0, n, np.random.default_rng(0))
        outputs[f"complete er {n} edges"] = f"{g.edge_array.dtype.str}:".encode() + g.edge_array.tobytes()
    return outputs


def _ingest_outputs(tmp_path, capsys, monkeypatch):
    """The bytes of each pinned ``netsize ingest`` and ``netsize stats`` output, by name."""
    monkeypatch.chdir(tmp_path)  # the written edge list names the input path
    rng = np.random.default_rng(26)
    arcs = 1000 + 7 * rng.integers(0, 40, size=(300, 2))  # loops, repeats and reciprocal arcs
    lines = [f"{u} {v}" for u, v in arcs.tolist()] + ["1007 1014", "1014 1007", "1014 1007", "1021 1021"]
    (tmp_path / "edges.txt").write_text("# arcs\n" + "\n".join(lines) + "\n")
    (tmp_path / "keep.txt").write_text("\n".join(str(1000 + 7 * i) for i in range(35)) + "\n")
    options = ["--edges", "edges.txt", "--filter", "keep.txt"]
    assert main(["ingest", *options, "--dedupe", "--drop-loops", "--id-map", "ids.txt", "--out", "clean.txt"]) == 0
    report = capsys.readouterr().out.splitlines()[1]  # below the header, which names the run
    assert main(["stats", *options]) == 0  # stats applies both cleaning rules itself
    stats = "\n".join(capsys.readouterr().out.splitlines()[1:])
    return {"ingest edges": (tmp_path / "clean.txt").read_bytes(), "ingest id map": (tmp_path / "ids.txt").read_bytes(),
            "ingest report": report.encode(), "stats": stats.encode()}


def _moved(outputs, pinned):
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert set(digests) == set(pinned)
    return [f"{name} ({digests[name]})" for name in pinned if digests[name] != pinned[name]]


def test_fixed_seed_outputs_keep_their_digests(tmp_path, capsys):
    moved = _moved(_outputs(tmp_path, capsys), DIGESTS)
    assert not moved, "outputs that moved: " + ", ".join(moved)


def test_fixed_seed_graphs_keep_their_digests(capsys):
    moved = _moved(_graph_outputs(capsys), GRAPH_DIGESTS)
    assert not moved, "graph outputs that moved: " + ", ".join(moved)


def test_ingested_edge_lists_keep_their_digests(tmp_path, capsys, monkeypatch):
    moved = _moved(_ingest_outputs(tmp_path, capsys, monkeypatch), INGEST_DIGESTS)
    assert not moved, "ingest outputs that moved: " + ", ".join(moved)

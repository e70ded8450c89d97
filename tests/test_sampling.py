import numpy as np
import pytest

from netsize.generators import Family, sample_graph
from netsize.graph import MultiGraph, harmonic_mean
from netsize.multiset import Multiset
from netsize.sampling import (
    RdsConfig,
    Sample,
    as_sample_view,
    rds_capture,
    read_sample_dump,
    rows_to_sample,
    sample_to_rows,
    uniform_sample,
    write_sample_dump,
)

CYCLE4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_uniform_sample_extremes():
    g = sample_graph(Family.ERDOS_RENYI, 3.0, 25, np.random.default_rng(0))
    assert sorted(uniform_sample(g, 25, np.random.default_rng(1))) == list(range(25))
    assert uniform_sample(g, 0, np.random.default_rng(1)) == ()
    with pytest.raises(ValueError):
        uniform_sample(g, 26, np.random.default_rng(1))


def test_uniform_sample_is_uniform():
    g = MultiGraph(10, [(i, (i + 1) % 10) for i in range(10)])
    rng = np.random.default_rng(7)
    counts = np.zeros(10)
    draws = 100_000
    for _ in range(draws):
        counts[uniform_sample(g, 1, rng)[0]] += 1
    freqs = counts / draws
    assert np.all(np.abs(freqs - 0.1) < 0.01)


def test_rds_forced_single_seed_trace():
    cfg = RdsConfig(target_size=4, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
    sample = rds_capture(CYCLE4, cfg, np.random.default_rng(3))
    assert sample.order in ((0, 1, 3, 2), (0, 3, 1, 2))
    assert len(sample.forest.edges) == 3
    assert sample.forest.seeds == (0,)
    assert all(sample.forest.seed_of[v] == 0 for v in sample.order)


def test_rds_isolated_graph_pure_reseeding():
    g = MultiGraph(5, [])
    cfg = RdsConfig(target_size=3, num_seeds=2)
    sample = rds_capture(g, cfg, np.random.default_rng(0))
    assert sample.size == 3
    assert len(sample.forest.edges) == 0
    assert len(sample.forest.seeds) == 3  # third vertex entered via reseed
    assert all(sample.forest.seed_of[v] == v for v in sample.order)


def test_rds_forest_identity_and_no_repeats():
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 500, np.random.default_rng(1))
    cfg = RdsConfig(target_size=150)
    for seed in range(5):
        sample = rds_capture(g, cfg, np.random.default_rng(seed))
        assert len(set(sample.order)) == len(sample.order)
        assert len(sample.forest.edges) == sample.size - len(sample.forest.seeds)
        # components partition the sample; recruiters stay in their component
        assert sample.counts.comp_size.sum() == sample.size
        assert len(sample.counts.labels) == len(sample.forest.seeds)
        for recruiter, recruit in sample.forest.edges:
            assert sample.forest.seed_of[recruiter] == sample.forest.seed_of[recruit]


def test_rds_alter_bags_exclude_referral_ties():
    cfg = RdsConfig(target_size=4, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
    sample = rds_capture(CYCLE4, cfg, np.random.default_rng(3))
    tree_degree = Multiset()
    for a, b in sample.forest.edges:
        tree_degree[a] += 1
        tree_degree[b] += 1
    for i, v in enumerate(sample.order):
        assert len(sample.alters(i)) == sample.degrees[i] - tree_degree[v]


def test_rds_overshoot_bounded():
    g = sample_graph(Family.CONFIG_POISSON, 8.0, 400, np.random.default_rng(2))
    cfg = RdsConfig(target_size=101)
    sample = rds_capture(g, cfg, np.random.default_rng(5))
    assert 101 <= sample.size <= 102  # max recruit count is 2


def test_rds_determinism():
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 300, np.random.default_rng(4))
    cfg = RdsConfig(target_size=80)
    a = rds_capture(g, cfg, np.random.default_rng(9))
    b = rds_capture(g, cfg, np.random.default_rng(9))
    assert a.order == b.order
    assert a.forest.edges == b.forest.edges


def test_rds_target_exceeds_population():
    with pytest.raises(ValueError):
        rds_capture(CYCLE4, RdsConfig(target_size=5, num_seeds=1), np.random.default_rng(0))


def test_rds_config_validation():
    with pytest.raises(ValueError):
        RdsConfig(target_size=5, num_seeds=6)
    with pytest.raises(ValueError):
        RdsConfig(target_size=5, recruit_law=((2, 0.5), (1, 0.4)))


def test_harmonic_degree_assumption_on_configuration_graph():
    # over many referral samples the harmonic mean of sampled degrees tracks
    # the population mean degree
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 10_000, np.random.default_rng(10))
    pop_mean = 2 * g.num_edges / g.n
    cfg = RdsConfig(target_size=500)
    ratios = []
    for seed in range(100):
        sample = rds_capture(g, cfg, np.random.default_rng(seed))
        harm = harmonic_mean(sample.degrees.tolist())
        ratios.append(harm / pop_mean)
    med = sorted(ratios)[len(ratios) // 2]
    assert abs(med - 1.0) < 0.10


def test_sample_view_wraps_uniform_sample():
    g = sample_graph(Family.CONFIG_POISSON, 4.0, 50, np.random.default_rng(0))
    subjects = uniform_sample(g, 12, np.random.default_rng(1))
    view = as_sample_view(g, subjects)
    assert view.order == subjects
    assert len(view.forest.edges) == 0
    assert all(len(view.alters(i)) == g.degree(v) for i, v in enumerate(subjects))


def test_dump_round_trip(tmp_path):
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 200, np.random.default_rng(6))
    sample = rds_capture(g, RdsConfig(target_size=60), np.random.default_rng(7))
    path = tmp_path / "sample.csv"
    write_sample_dump(sample_to_rows(sample), path, header_comment="round trip")
    back = rows_to_sample(read_sample_dump(path))
    assert back.order == sample.order
    for column in ("degrees", "components", "recruiters", "alter_codes", "alter_offsets"):
        assert np.array_equal(getattr(back, column), getattr(sample, column)), column
    assert back.forest.seed_of == sample.forest.seed_of
    assert sorted(back.forest.edges) == sorted(sample.forest.edges)


def test_rows_to_sample_rejects_duplicate_codes():
    hashed = Sample(codes=(4, 4), degrees=(1, 1), alter_codes=((4,), (4,)), components=(0, 1))
    with pytest.raises(ValueError, match="duplicate"):
        rows_to_sample(hashed)


DUMP_HEADER = "# a comment\nsubject_code,recruiter_code,component_id,reported_degree,alter_codes\n"


@pytest.mark.parametrize("body, message", [
    ("5,SEED,0,2,7;8\n6,SEED,0,x,5\n", "non-integer"),
    ("5,SEED,0,2,7;8\n6,SEED,0,2,5;y\n", "non-integer"),
    ("5,SEED,0,2,7;8\n6,SEED,0,-1,\n", "negative reported degree"),
    ("5,SEED,0,2,7;8\n6,SEED,0,1,5;7\n", "exceed the reported degree"),
    ("5,SEED,0,2,7;8\n6,9,0,2,5\n", "not an earlier subject"),
    ("5,SEED,0,2,7;8\n6,5,1,2,5\n", "not an earlier subject"),
    ("5,6,0,2,7;8\n6,SEED,0,2,5\n", "not an earlier subject"),
])
def test_dump_reader_rejects_malformed_rows(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(DUMP_HEADER + body)
    bad_line = 4 if body.startswith("5,SEED") else 3
    with pytest.raises(ValueError, match=f"{path}:{bad_line}: .*{message}"):
        read_sample_dump(path)


def test_dump_reader_links_recruiters_by_code(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text(DUMP_HEADER + "5,SEED,3,2,7\n6,5,3,2,5\n7,SEED,1,1,\n8,6,3,3,5;6\n")
    sample = read_sample_dump(path)
    assert sample.recruiters.tolist() == [-1, 0, -1, 1]
    assert sample.recruiter_codes == [None, 5, None, 6]
    assert sample.counts.labels.tolist() == [3, 1]

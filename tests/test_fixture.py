import hashlib

import pytest

from grassmann_lab import verify_fixture_partition
from grassmann_lab.fixture import J242Fixture, default_fixture_path, load_fixture
from grassmann_lab.subspaces import subspace_from_digits
from oracles import fixture_colouring

# transcription is frozen; any edit to the data file must be deliberate
FIXTURE_SHA256 = "42794264264d63a8e7132be9f2aab38974624d73bc1bea2e7de774c5e91d5778"


def test_fixture_checksum():
    digest = hashlib.sha256(default_fixture_path().read_bytes()).hexdigest()
    assert digest == FIXTURE_SHA256


def test_fixture_shape():
    fx = load_fixture()
    assert len(fx.matrices) == 35
    assert sorted(fx.matrices) == sorted(f"A{i}" for i in range(1, 36))
    assert len(fx.sets) == 7
    assert all(len(labels) == 5 for labels in fx.sets.values())


def test_some_fixture_matrices_are_not_reduced(f2):
    fx = load_fixture()
    # A20 = (0010 / 1001) has decreasing pivots; canonicalization reorders it
    raw = fx.matrices["A20"]
    S = subspace_from_digits(f2, raw)
    assert ["".join(str(x) for x in r) for r in S.basis.rows] != list(raw)
    assert S.dim == 2


def test_fixture_verifies(j242):
    report = verify_fixture_partition(j242, load_fixture())
    assert report.ok, report.violations
    assert report.distinct_ok and report.partition_ok and report.independent_ok
    assert report.chi_upper == 7
    assert len(report.label_to_vertex) == 35
    assert sorted(report.label_to_vertex.values()) == list(range(35))


def test_fixture_colouring_is_proper(j242):
    colours = fixture_colouring(j242, load_fixture())
    assert sorted(set(colours)) == list(range(7))
    for i in range(35):
        for j in range(i + 1, 35):
            if j242.adjacent(i, j):
                assert colours[i] != colours[j]


def test_moving_a_label_breaks_independence(j242):
    fx = load_fixture()
    sets = dict(fx.sets)
    # move A2 from L2 into L1: A1 and A2 are adjacent (stacked rank 3)
    sets["L2"] = tuple(l for l in sets["L2"] if l != "A2")
    sets["L1"] = sets["L1"] + ("A2",)
    tampered = J242Fixture(fx.matrices, sets)
    report = verify_fixture_partition(j242, tampered)
    assert not report.independent_ok
    violations = [v for v in report.violations if v["check"] == "independence"]
    assert any(set(v["pair"]) == {"A1", "A2"} for v in violations)


def test_deleting_a_label_breaks_coverage(j242):
    fx = load_fixture()
    matrices = dict(fx.matrices)
    del matrices["A35"]
    sets = {name: tuple(l for l in labels if l != "A35") for name, labels in fx.sets.items()}
    tampered = J242Fixture(matrices, sets)
    report = verify_fixture_partition(j242, tampered)
    assert not report.distinct_ok
    assert any(v["check"] == "coverage" for v in report.violations)


def test_dropping_a_label_from_all_sets_is_flagged(j242):
    fx = load_fixture()
    sets = {name: tuple(l for l in labels if l != "A17") for name, labels in fx.sets.items()}
    tampered = J242Fixture(fx.matrices, sets)
    report = verify_fixture_partition(j242, tampered)
    assert not report.partition_ok
    assert any(
        v["check"] == "partition-coverage" and v.get("missing") == ["A17"]
        for v in report.violations
    )


def test_duplicated_label_is_flagged(j242):
    fx = load_fixture()
    sets = dict(fx.sets)
    sets["L1"] = sets["L1"] + ("A2",)  # A2 already lives in L2
    report = verify_fixture_partition(j242, J242Fixture(fx.matrices, sets))
    assert not report.partition_ok


def test_malformed_fixture_file(tmp_path):
    bad = tmp_path / "empty.txt"
    bad.write_text("\n")
    with pytest.raises(ValueError):
        load_fixture(bad)

import hashlib

import oracles
import pytest

from grassmann_lab import Fixture, check_fixture
from grassmann_lab.fixture import default_fixture_path, load_fixture

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


def test_some_fixture_matrices_are_not_reduced(f2, j242):
    fx = load_fixture()
    # A20 = (0010 / 1001) has decreasing pivots; its span still finds its vertex
    raw = fx.matrices["A20"]
    S = oracles.subspace_from_digits(f2, raw)
    assert ["".join(str(x) for x in r) for r in S.basis.rows] != list(raw)
    assert S.dim == 2
    assert check_fixture(j242, fx)["label_to_vertex"]["A20"] == j242.vertex_id(S)


def test_fixture_verifies(j242):
    report = check_fixture(j242, load_fixture())
    assert list(report) == ["ok", "chi_upper", "violations", "label_to_vertex"]
    assert report["ok"] is True and report["violations"] == []
    assert report["chi_upper"] == 7
    assert len(report["label_to_vertex"]) == 35
    assert sorted(report["label_to_vertex"].values()) == list(range(35))


def test_label_to_vertex_matches_elimination_and_enumerated_spans(j242):
    fx = load_fixture()
    found = check_fixture(j242, fx)["label_to_vertex"]
    by_span = oracles.fixture_vertices(j242, fx)
    assert sorted(found) == sorted(fx.matrices)
    for label, rows in fx.matrices.items():
        M = oracles.matrix(j242.spec, [[int(ch, 36) for ch in row] for row in rows])
        assert found[label] == j242.vertex_id(oracles.canonicalize(M)) == by_span[label]


def test_fixture_colouring_is_proper(j242):
    colours = oracles.fixture_colouring(j242, load_fixture())
    assert sorted(set(colours)) == list(range(7))
    for i in range(35):
        for j in range(i + 1, 35):
            if j242.adjacent(i, j):
                assert colours[i] != colours[j]


def _refused(G, fx) -> list[str]:
    report = check_fixture(G, fx)
    assert report["ok"] is False and report["chi_upper"] is None
    return report["violations"]


def test_moving_a_label_breaks_independence(j242):
    fx = load_fixture()
    sets = dict(fx.sets)
    # move A2 from L2 into L1: A1 and A2 (vertices 0 and 8) are adjacent (stacked rank 3)
    sets["L2"] = tuple(l for l in sets["L2"] if l != "A2")
    sets["L1"] = sets["L1"] + ("A2",)
    assert _refused(j242, Fixture(fx.matrices, sets)) == [
        "not an endomorphism: edge (0, 8) breaks under the map"
    ]


def test_deleting_a_label_breaks_coverage(j242):
    fx = load_fixture()
    matrices = dict(fx.matrices)
    del matrices["A35"]
    sets = {name: tuple(l for l in labels if l != "A35") for name, labels in fx.sets.items()}
    vertex = check_fixture(j242, fx)["label_to_vertex"]["A35"]
    assert _refused(j242, Fixture(matrices, sets)) == [
        f"vertex {vertex} has colour -1 outside 0..6"
    ]


def test_dropping_a_label_from_all_sets_is_flagged(j242):
    fx = load_fixture()
    sets = {name: tuple(l for l in labels if l != "A17") for name, labels in fx.sets.items()}
    vertex = check_fixture(j242, fx)["label_to_vertex"]["A17"]
    assert _refused(j242, Fixture(fx.matrices, sets)) == [
        "A17 is in no set",
        f"vertex {vertex} has colour -1 outside 0..6",
    ]


def test_duplicated_label_is_flagged(j242):
    fx = load_fixture()
    sets = dict(fx.sets)
    sets["L1"] = sets["L1"] + ("A2",)  # A2 already lives in L2
    violations = _refused(j242, Fixture(fx.matrices, sets))
    assert violations[0] == "vertex 8 is coloured twice: A2 in L1, A2 in L2"


def test_malformed_fixture_file(tmp_path):
    bad = tmp_path / "empty.txt"
    bad.write_text("\n")
    with pytest.raises(ValueError):
        load_fixture(bad)

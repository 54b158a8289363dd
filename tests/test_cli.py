import json
import sys

import pytest

from grassmann_lab import cli, coreness, graph, qpoly
from grassmann_lab.cli import main
from grassmann_lab.config import MAX_FIELD_SIZE, MAX_QBINOM_DEGREE, MAX_SCAN_WORK, BoundExceeded
from grassmann_lab.fixture import default_fixture_path
from grassmann_lab.qpoly import scan_core_threshold
from grassmann_lab.report import graph_from_json_dict, graph_to_json_dict, scan_report_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_json(capsys, j242):
    code, out, _ = run(capsys, "build", "--q", "2", "--n", "4", "--m", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["vertices"] == 35
    assert len(data["vertices"]) == 35
    assert data["vertices"][0]["matrix"] == ["1000", "0100"]
    assert len(data["edges"]) == 35 * 18 // 2
    # round-trip: reloading gives identical adjacency bitsets
    G = graph_from_json_dict(data)
    assert G.adjacency == j242.adjacency
    assert graph_to_json_dict(G) == data


def test_build_dot_triangle(capsys):
    code, out, _ = run(capsys, "build", "--q", "2", "--n", "2", "--m", "1", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 3  # K_3
    assert 'v0 [label="v0"' in out


def test_build_text(capsys):
    code, out, _ = run(capsys, "build", "--q", "2", "--n", "4", "--m", "2")
    assert code == 0
    assert "35 vertices" in out


def test_build_too_large_exits_2(capsys):
    code, _, err = run(capsys, "build", "--q", "2", "--n", "10", "--m", "5")
    assert code == 2
    assert "enumeration too large" in err


def test_invalid_q_exits_3(capsys):
    code, _, err = run(capsys, "build", "--q", "6", "--n", "4", "--m", "2")
    assert code == 3
    assert "prime power" in err


def test_bad_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--q", "2"])
    assert exc.value.code == 3


def test_verify_j242(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["cliques"]["total_maximal_cliques"] == 30
    assert data["lemmas"]["dual"]["applicable"] is True
    assert data["lemmas"]["dual"]["ok"] is True


def test_verify_j252_skips_dual(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "5", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["cliques"]["stars"] == 31 and data["cliques"]["tops"] == 155
    assert data["lemmas"]["dual"] == {"applicable": False, "note": "requires n = 2m"}


def test_verify_builds_each_catalog_once(capsys, monkeypatch):
    calls = []
    for name in ("star_catalog", "top_catalog"):
        build = getattr(graph, name)
        monkeypatch.setattr(
            graph, name, lambda G, name=name, build=build: calls.append(name) or build(G)
        )
    code, _, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--m", "2")
    assert code == 0
    assert sorted(calls) == ["star_catalog", "top_catalog"]


def test_verify_bounds_the_catalogs_before_enumerating(capsys):
    # J_2(10,1) has 1023 vertices but 174,252 star and top centres
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "10", "--m", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_q3(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", "4", "--m", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_coreness_with_fixture(capsys):
    code, out, _ = run(
        capsys,
        "coreness", "--q", "2", "--n", "4", "--m", "2",
        "--fixture", str(default_fixture_path()),
    )
    assert code == 0
    data = json.loads(out)
    core = data["coreness"]
    assert core["verdict"] == "not-core"
    assert core["omega"] == 7 and core["alpha"] == 5 and core["chi"] == 7
    assert core["witness"]["classification"] == "colouring"
    assert data["fixture"]["ok"] is True
    assert data["fixture"]["chi_upper"] == 7


def test_coreness_with_fixture_builds_the_graph_once(capsys, monkeypatch):
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return graph.build_graph(*args, **kwargs)

    monkeypatch.setattr(cli, "build_graph", spy)
    monkeypatch.setattr(coreness, "build_graph", spy)
    code, _, _ = run(
        capsys,
        "coreness", "--q", "2", "--n", "4", "--m", "2",
        "--fixture", str(default_fixture_path()),
    )
    assert code == 0
    assert len(built) == 1


def test_tampered_fixture_exits_1(capsys, tmp_path):
    text = default_fixture_path().read_text()
    # swap A1 into L2: A1 and A2 are adjacent, breaking independence
    tampered = text.replace("L1: A1", "L1:").replace("L2: A2", "L2: A2 A1")
    path = tmp_path / "tampered.txt"
    path.write_text(tampered)
    code, out, _ = run(
        capsys, "coreness", "--q", "2", "--n", "4", "--m", "2", "--fixture", str(path)
    )
    assert code == 1
    data = json.loads(out)
    assert data["fixture"]["ok"] is False
    assert not data["fixture"]["independent_sets"]


def test_missing_fixture_exits_3_before_the_search(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the coreness search ran before the fixture was read")

    monkeypatch.setattr(cli, "core_test", refuse)
    missing = tmp_path / "missing.txt"
    code, out, err = run(
        capsys, "coreness", "--q", "4", "--n", "4", "--m", "2", "--fixture", str(missing)
    )
    assert code == 3
    assert out == ""
    assert err == f"error: cannot read fixture: [Errno 2] No such file or directory: '{missing}'\n"


def test_coreness_core_case(capsys):
    code, out, _ = run(capsys, "coreness", "--q", "2", "--n", "5", "--m", "2")
    assert code == 0
    core = json.loads(out)["coreness"]
    assert core["verdict"] == "core"
    assert core["integrality"]["value"] == "31/3"


def test_coreness_undetermined(capsys):
    code, out, _ = run(capsys, "coreness", "--q", "2", "--n", "6", "--m", "3")
    assert code == 0
    core = json.loads(out)["coreness"]
    assert core["verdict"] == "undetermined"
    assert core["integrality"] == {"is_integer": True, "value": 93}


def test_qbinom(capsys):
    code, out, _ = run(capsys, "qbinom", "--n", "4", "--m", "2")
    assert code == 0
    data = json.loads(out)["qbinom"]
    assert data["exponents"] == {"3": 1, "4": 1}
    assert data["polynomial"]["coeffs"] == [1, 1, 2, 1, 1]
    assert data["h"]["applicable"] is False
    assert data["h"]["f"]["text"] == "q^2 + 1"


def test_qbinom_at_value(capsys):
    code, out, _ = run(capsys, "qbinom", "--n", "5", "--m", "2", "--at", "2")
    assert code == 0
    data = json.loads(out)["qbinom"]
    assert data["value_at"] == {"q": 2, "value": 155}
    assert data["h"]["value_at"] == {"q": 2, "value": "31/3"}


def test_qbinom_with_scan(capsys):
    code, out, _ = run(capsys, "qbinom", "--n", "8", "--m", "3", "--q-max", "16")
    assert code == 0
    data = json.loads(out)["qbinom"]
    assert data["h"]["applicable"] is True
    assert data["h"]["exponents"]["3"] == -1
    assert all(not e["is_integer"] for e in data["scan"]["entries"])


def test_scan_command(capsys):
    code, out, _ = run(capsys, "scan", "--n", "5", "--m", "2", "--q-max", "64")
    assert code == 0
    data = json.loads(out)["qbinom"]["scan"]
    assert data["largest_integer_q"] is None
    assert len(data["entries"]) == 27


DIGIT_BOUND_COMMANDS = [
    "qbinom --n 80 --m 40 --at 2048",
    "qbinom --n 80 --m 40 --q-max 2048",
    "qbinom --n 300 --m 4 --at 1048576",
    "scan --n 200 --m 100 --q-max 4",
    "build --q 2 --n 300 --m 150",
    "verify --q 2 --n 300 --m 150",
    "coreness --q 2 --n 300 --m 150",
]

# 0 means no limit; interpreters before 3.10.7 have none
STR_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(
    not 0 < STR_DIGIT_LIMIT <= 4300,
    reason="the commands print integers just past the default 4300-digit int-to-str limit",
)
@pytest.mark.parametrize("command", DIGIT_BOUND_COMMANDS)
def test_integers_past_the_str_digit_limit_exit_2(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {STR_DIGIT_LIMIT} decimal digits" in err
    assert "set_int_max_str_digits" not in err
    assert sys.get_int_max_str_digits() == STR_DIGIT_LIMIT


@pytest.mark.parametrize(
    "command",
    [
        "coreness --q 2 --n 20000 --m 1 --format text",
        "qbinom --n 3000 --m 1 --at 1048576 --format text",
    ],
)
def test_huge_integers_that_are_never_printed_pass(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and out and err == ""


@pytest.mark.skipif(
    not 0 < STR_DIGIT_LIMIT <= 4300,
    reason="h at the largest prime power passes the default 4300-digit int-to-str limit",
)
@pytest.mark.parametrize(
    "command",
    [
        "qbinom --n 80 --m 40 --q-max 2048",
        "qbinom --n 80 --m 40 --q-max 2048 --format text",
        "scan --n 200 --m 100 --q-max 4",
        "scan --n 200 --m 100 --q-max 4 --format text",
    ],
)
def test_scans_past_the_str_digit_limit_fail_before_scanning(capsys, monkeypatch, command):
    n, m, q_max = (int(a) for a in command.split()[2:7:2])
    # the message the report check gives once the whole scan has run
    with pytest.raises(BoundExceeded) as exc:
        scan_report_dict(scan_core_threshold(n, m, q_max))
    calls = []

    def counted(*args):
        calls.append(args)
        return scan_core_threshold(*args)

    def refuse(*args):
        raise AssertionError("polynomial built for a scan that cannot be printed")

    monkeypatch.setattr(cli, "scan_core_threshold", counted)
    monkeypatch.setattr(cli, "h_report", refuse)
    monkeypatch.setattr(cli, "gaussian_binomial_poly", refuse)
    code, out, err = run(capsys, *command.split())
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")
    assert calls == []


def test_qbinom_checks_at_before_the_scan(capsys):
    code, out, err = run(capsys, *"qbinom --n 80 --m 40 --at 6 --q-max 2048".split())
    assert (code, out, err) == (3, "", "error: --at must be a prime power, got 6\n")


def _refuse_scanning(monkeypatch):
    def refuse(*args):
        raise AssertionError("scan started above the work cap")

    monkeypatch.setattr(cli, "scan_core_threshold", refuse)
    monkeypatch.setattr(cli, "prime_power_base", refuse)
    monkeypatch.setattr(cli, "gaussian_binomial_poly", refuse)
    monkeypatch.setattr(qpoly, "prime_powers_upto", refuse)


@pytest.mark.parametrize(
    "command",
    ["scan --n 5 --m 2 --q-max 3000000", "qbinom --n 8 --m 3 --q-max 1000000 --format text"],
)
def test_scans_past_the_work_cap_exit_2_before_scanning(capsys, monkeypatch, command):
    _refuse_scanning(monkeypatch)
    code, out, err = run(capsys, *command.split())
    n, m, q_max = (int(a) for a in command.split()[2:7:2])
    assert (code, out) == (2, "")
    assert err == (
        f"error: scan too long: m(n-m) * q_max may be at most {MAX_SCAN_WORK}, so q_max at "
        f"most {MAX_SCAN_WORK // (m * (n - m))} for (n={n}, m={m}), got {q_max}\n"
    )


def test_scan_work_cap_boundary(capsys, monkeypatch):
    # m(n-m) * q_max = 6 * 64 = 384 for (5, 2) up to 64
    monkeypatch.setattr(cli, "MAX_SCAN_WORK", 384)
    assert run(capsys, *"scan --n 5 --m 2 --q-max 64".split())[0] == 0
    _refuse_scanning(monkeypatch)
    monkeypatch.setattr(cli, "MAX_SCAN_WORK", 383)
    code, _, err = run(capsys, *"scan --n 5 --m 2 --q-max 64".split())
    assert code == 2 and "q_max at most 63 for (n=5, m=2), got 64" in err


def test_scan_rejects_shapes_without_h_before_the_work_cap(capsys, monkeypatch):
    _refuse_scanning(monkeypatch)
    code, out, err = run(capsys, *"scan --n 7 --m 4 --q-max 100000000".split())
    assert (code, out, err) == (3, "", "error: need 4 <= 2m <= n\n")


@pytest.mark.parametrize("command", ["build", "verify"])
def test_fields_past_the_size_cap_exit_3_before_factoring(capsys, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("q factored above the field size cap")

    monkeypatch.setattr(cli, "prime_power_base", refuse)
    q = 100000000000031
    code, out, err = run(capsys, command, "--q", str(q), "--n", "2", "--m", "1")
    assert (code, out, err) == (3, "", f"error: field too large: q = {q} > {MAX_FIELD_SIZE}\n")


def test_qbinom_caps_the_degree_of_the_h_report_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("polynomial built above the cap")

    monkeypatch.setattr(cli, "gaussian_binomial_poly", refuse)
    code, out, err = run(capsys, "qbinom", "--n", "400", "--m", "200")
    assert code == 2
    assert out == ""
    assert err == (
        "error: Gaussian binomial too large for the h report: [400,200]_q has degree 40000 "
        f"> {MAX_QBINOM_DEGREE}\n"
    )
    monkeypatch.setattr(cli, "MAX_QBINOM_DEGREE", 14)
    code, _, err = run(capsys, "qbinom", "--n", "8", "--m", "3")
    assert code == 2 and "degree 15 > 14" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_QBINOM_DEGREE", 15)
    assert run(capsys, "qbinom", "--n", "8", "--m", "3")[0] == 0


def test_qbinom_without_an_h_report_is_not_capped(capsys, monkeypatch):
    # degree 9999 > MAX_QBINOM_DEGREE, but m = 1 runs no h report
    assert run(capsys, "qbinom", "--n", "10000", "--m", "1")[0] == 0
    monkeypatch.setattr(cli, "MAX_QBINOM_DEGREE", 0)
    assert run(capsys, "qbinom", "--n", "8", "--m", "5")[0] == 0


def test_witness_revalidates_from_json(capsys, j242):
    code, out, _ = run(capsys, "coreness", "--q", "2", "--n", "4", "--m", "2")
    assert code == 0
    witness = json.loads(out)["coreness"]["witness"]
    from grassmann_lab import validate_endomorphism

    endo = validate_endomorphism(j242, witness["map"])
    assert len(endo.image()) == witness["image_size"] == 7
    assert endo.is_injective() == witness["injective"] is False


def test_round_trip_q3(j342):
    data = graph_to_json_dict(j342)
    G = graph_from_json_dict(data)
    assert G.adjacency == j342.adjacency
    assert G.vertices == j342.vertices


def test_verify_complete_graph(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "3", "--m", "1")
    assert code == 0
    data = json.loads(out)
    # the one maximal clique of a complete graph is the star over the origin
    assert data["cliques"]["total_maximal_cliques"] == 1
    assert data["cliques"]["stars"] == 1
    assert data["ok"] is True


def test_reports_are_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--m", "2")
    _, out2, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--m", "2")
    assert out1 == out2
    _, out1, _ = run(capsys, "coreness", "--q", "2", "--n", "4", "--m", "2")
    _, out2, _ = run(capsys, "coreness", "--q", "2", "--n", "4", "--m", "2")
    assert out1 == out2

import json
import sys

import pytest

from grassmann_lab import cli, coreness, graph, qpoly, subspaces
from grassmann_lab.cli import main
from grassmann_lab.config import (
    MAX_FIELD_SIZE,
    MAX_QBINOM_DEGREE,
    MAX_QBINOM_WORK,
    MAX_SCAN_WORK,
    BoundExceeded,
    check_decimal_digits,
)
from grassmann_lab.fixture import default_fixture_path
from grassmann_lab.qpoly import scan_core_threshold
from grassmann_lab.report import graph_from_json_dict, graph_to_json, scan_report_dict


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
    assert json.loads(graph_to_json(G)) == data


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


@pytest.mark.parametrize(
    "target, exc, command, code",
    [
        ("h_report", ArithmeticError, "qbinom --n 8 --m 3", 1),
        ("core_test", AssertionError, "coreness --q 2 --n 4 --m 2", 1),
        ("h_report", ZeroDivisionError, "qbinom --n 8 --m 3", 3),
        ("scan_core_threshold", KeyError, "scan --n 8 --m 3 --q-max 16", 1),
        ("build_graph", TypeError, "build --q 2 --n 4 --m 2", 1),
    ],
)
def test_failed_self_checks_print_one_error_line(
    capsys, monkeypatch, target, exc, command, code
):
    # exit 1 for a failed check, but a ZeroDivisionError still means invalid input
    def broken(*args, **kwargs):
        raise exc("self-check tripped")

    monkeypatch.setattr(cli, target, broken)
    assert main(command.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if code == 1:
        assert captured.err == f"error: {exc.__name__}: {exc('self-check tripped')}\n"


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupts_and_exits_propagate(monkeypatch, exc):
    def interrupted(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(cli, "scan_core_threshold", interrupted)
    with pytest.raises(exc):
        main("scan --n 8 --m 3 --q-max 16".split())


def test_the_cached_parser_keeps_no_state_between_calls(capsys):
    valid = "qbinom --n 8 --m 3 --at 4".split()
    cli._build_parser.cache_clear()
    first = run(capsys, *valid)
    assert first[0] == 0
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exit_info:
        main(["qbinom", "--n", "8", "--m", "x"])
    assert exit_info.value.code == 3
    capsys.readouterr()
    assert run(capsys, *valid) == first
    code, out, _ = run(capsys, *"qbinom --n 8 --m 3 --q-max 16".split())
    assert code == 0 and "scan" in json.loads(out)["qbinom"]
    code, out, _ = run(capsys, *"qbinom --n 8 --m 3".split())
    assert code == 0 and "scan" not in json.loads(out)["qbinom"]
    assert cli._build_parser() is parser


def test_commands_are_looked_up_when_called(capsys, monkeypatch):
    seen = []
    cli._build_parser()  # cached before the command is replaced
    monkeypatch.setattr(cli, "cmd_scan", lambda args: seen.append(args.q_max) or 0)
    assert main("scan --n 8 --m 3 --q-max 16".split()) == 0
    assert seen == [16] and capsys.readouterr().out == ""


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


# (command, the value its error names): a lower bound from the shape alone puts each past
# the limit, so none is evaluated
SHAPE_BOUND_COMMANDS = [
    ("build --q 2 --n 2000 --m 1000", "the vertex count of J_2(2000,1000)"),
    ("coreness --q 2 --n 2000 --m 1000", "|V|/omega for J_2(2000,1000)"),
    ("coreness --q 1048573 --n 430 --m 215", "|V|/omega for J_1048573(430,215)"),
    ("qbinom --n 430 --m 216 --at 1048573", "[430,216]_q at q = 1048573"),
    ("build --q 2 --n 5000 --m 2500", "the vertex count of J_2(5000,2500)"),
    ("verify --q 2 --n 5000 --m 2500", "the star and top centre count of J_2(5000,2500)"),
    ("coreness --q 2 --n 5000 --m 2500", "|V|/omega for J_2(5000,2500)"),
    (
        "verify --q 1048573 --n 1000000 --m 1",
        "the star and top centre count of J_1048573(1000000,1)",
    ),
    ("coreness --q 1048573 --n 1000000 --m 1", "the vertex count of J_1048573(1000000,1)"),
]


@pytest.mark.skipif(
    not 0 < STR_DIGIT_LIMIT <= 4300,
    reason="the shape bounds pass the default 4300-digit int-to-str limit",
)
@pytest.mark.parametrize(
    "command, what", SHAPE_BOUND_COMMANDS, ids=[c for c, _ in SHAPE_BOUND_COMMANDS]
)
def test_shapes_past_the_str_digit_limit_exit_2_before_evaluating(
    capsys, monkeypatch, command, what
):
    def refuse(*args):
        raise AssertionError("a value was evaluated although its shape is past the digit limit")

    for module in (cli, coreness, graph, subspaces):
        monkeypatch.setattr(module, "gaussian_binomial_int", refuse)
    for module in (cli, coreness):
        monkeypatch.setattr(module, "h_integrality", refuse)
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert err == (
        f"error: {what} has more than {STR_DIGIT_LIMIT} decimal digits, "
        "the interpreter's limit for int-to-str conversion\n"
    )


@pytest.mark.skipif(not STR_DIGIT_LIMIT, reason="the interpreter has no int-to-str limit")
def test_the_digit_check_passes_exactly_the_printable_integers():
    largest = 10**STR_DIGIT_LIMIT - 1
    check_decimal_digits(largest, "x")
    check_decimal_digits(-largest, "x")
    for value in (largest + 1, -largest - 1):
        with pytest.raises(BoundExceeded, match=f"more than {STR_DIGIT_LIMIT} decimal digits"):
            check_decimal_digits(value, "x")


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


def test_text_coreness_at_m_equal_one_never_evaluates_the_vertex_count(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("[n,1]_q was evaluated although text output prints no |V|")

    for module in (cli, coreness, graph, qpoly, subspaces):
        monkeypatch.setattr(module, "gaussian_binomial_int", refuse)
    code, out, err = run(capsys, *"coreness --q 1048573 --n 1000000 --m 1 --format text".split())
    assert (code, err) == (0, "")
    assert out == (
        "J_1048573(1000000,1): verdict core; "
        "complete graph: every endomorphism permutes the vertices\n"
    )


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


@pytest.mark.parametrize(
    "command, refused",
    [
        (
            "qbinom --n 8 --m 3 --at 2 --q-max 16 --format text",
            ("gaussian_binomial_int", "scan_core_threshold"),
        ),
        (
            "qbinom --n 24 --m 12 --at 2048 --q-max 2048 --format text",
            ("gaussian_binomial_int", "scan_core_threshold"),
        ),
        ("scan --n 8 --m 3 --q-max 2000 --format text", ("scan_report_dict",)),
    ],
)
def test_text_reports_evaluate_only_what_they_print(capsys, monkeypatch, command, refused):
    expected = run(capsys, *command.split())

    def refuse(*args):
        raise AssertionError("a text report evaluated what it does not print")

    for name in refused:
        monkeypatch.setattr(cli, name, refuse)
    assert run(capsys, *command.split()) == expected
    assert expected[0] == 0


@pytest.mark.parametrize(
    "command, code, error",
    [
        ("qbinom --n 8 --m 3 --at 6 --q-max 16", 3, "--at must be a prime power, got 6"),
        pytest.param(
            "qbinom --n 80 --m 40 --q-max 2048",
            2,
            "h(q) for (n=80, m=40) up to q = 2048 has more than",
            marks=pytest.mark.skipif(
                not 0 < STR_DIGIT_LIMIT <= 4300, reason="needs the int-to-str digit limit"
            ),
        ),
    ],
)
def test_text_qbinom_still_checks_at_and_q_max(capsys, command, code, error):
    got, out, err = run(capsys, *command.split(), "--format", "text")
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {error}")


@pytest.mark.parametrize("m", [0, 4, 5])
def test_verify_counts_no_centres_for_m_outside_1_to_n_minus_1(capsys, monkeypatch, m):
    def refuse(*args):
        raise AssertionError("centres counted for an invalid m")

    monkeypatch.setattr(cli, "gaussian_binomial_int", refuse)
    code, out, err = run(capsys, *f"verify --q 2 --n 4 --m {m}".split())
    assert (code, out, err) == (3, "", f"error: need 1 <= m < n, got m={m}, n=4\n")


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


@pytest.mark.parametrize("command", ["build", "verify", "coreness", "qbinom"])
def test_fields_past_the_size_cap_exit_3_before_factoring(capsys, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("q factored above the field size cap")

    monkeypatch.setattr(cli, "prime_power_base", refuse)
    monkeypatch.setattr(coreness, "prime_power_base", refuse)
    q = 100000000000031
    flag = "--at" if command == "qbinom" else "--q"
    code, out, err = run(capsys, command, flag, str(q), "--n", "4", "--m", "2")
    assert (code, out, err) == (3, "", f"error: field too large: q = {q} > {MAX_FIELD_SIZE}\n")


@pytest.mark.parametrize("command", ["build", "verify"])
def test_the_largest_field_reaches_the_graph_field_cap_at_once(capsys, command):
    # finding the degree-20 modulus of GF(2^20) skips the 2^19 candidates divisible by x
    code, out, err = run(capsys, command, "--q", str(MAX_FIELD_SIZE), "--n", "2", "--m", "1")
    assert (code, out) == (2, "")
    assert err == f"error: field too large for graph building: q={MAX_FIELD_SIZE} > 16\n"


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


def test_qbinom_caps_the_work_of_every_shape_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("Gaussian binomial built above the work cap")

    monkeypatch.setattr(cli, "gaussian_binomial_poly", refuse)
    monkeypatch.setattr(cli, "gaussian_binomial_int", refuse)
    # min(301, 300) * 301 * 300 = 27,090,000, and 2m > n runs no h report
    code, out, err = run(capsys, "qbinom", "--n", "601", "--m", "301", "--at", "2")
    assert (code, out) == (2, "")
    assert err == (
        "error: Gaussian binomial too large to build: min(m, n-m) * m(n-m) may be at most "
        f"{MAX_QBINOM_WORK}, got [601,301]_q\n"
    )
    # the --at check keeps its precedence
    code, _, err = run(capsys, "qbinom", "--n", "601", "--m", "301", "--at", "6")
    assert (code, err) == (3, "error: --at must be a prime power, got 6\n")


def test_qbinom_work_cap_boundary(capsys, monkeypatch):
    # min(5, 3) * 5 * 3 = 45 for [8,5]
    monkeypatch.setattr(cli, "MAX_QBINOM_WORK", 45)
    assert run(capsys, *"qbinom --n 8 --m 5".split())[0] == 0
    monkeypatch.setattr(cli, "MAX_QBINOM_WORK", 44)
    code, out, err = run(capsys, *"qbinom --n 8 --m 5".split())
    assert (code, out) == (2, "") and "got [8,5]_q" in err


def test_witness_revalidates_from_json(capsys, j242):
    code, out, _ = run(capsys, "coreness", "--q", "2", "--n", "4", "--m", "2")
    assert code == 0
    witness = json.loads(out)["coreness"]["witness"]
    from grassmann_lab import validate_endomorphism

    endo = validate_endomorphism(j242, witness["map"])
    assert len(endo.image()) == witness["image_size"] == 7
    assert endo.is_injective() == witness["injective"] is False


def test_round_trip_q3(j342):
    data = json.loads(graph_to_json(j342))
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

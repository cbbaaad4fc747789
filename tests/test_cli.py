"""CLI contract: JSON on stdout, diagnostics on stderr, exit codes, determinism."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from tamaripop import cli, paths, pop, series
from tamaripop.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enum_lists_lattice(capsys):
    code, out, _ = run(capsys, "enum", "--n", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 5
    assert all(rec["nu"] == "ENENE" for rec in lines)
    assert {rec["path"] for rec in lines} == {"NNEEE", "NENEE", "NEENE", "ENNEE", "ENENE"}
    vec = next(rec["vector"] for rec in lines if rec["path"] == "NNEEE")
    assert vec == [2, 0, 2, 1, 2, 2]


def test_enum_explicit_base_path(capsys):
    code, out, _ = run(capsys, "enum", "--nu", "NENE")
    assert code == 0
    assert [json.loads(line)["path"] for line in out.splitlines()] == ["NNEE", "NENE"]


@pytest.mark.parametrize(
    "nu, line",
    [
        ("N", '{"nu": "N", "path": "N", "vector": [0, 1]}'),
        ("NNN", '{"nu": "NNN", "path": "NNN", "vector": [0, 1, 2, 3]}'),
        ("NNNE", '{"nu": "NNNE", "path": "NNNE", "vector": [0, 1, 2, 3, 3]}'),
    ],
)
def test_enum_on_a_base_path_without_free_choices(capsys, nu, line):
    assert run(capsys, "enum", "--nu", nu) == (0, line + "\n", "")


def test_enum_bound_exit_code(capsys):
    code, out, err = run(capsys, "enum", "--n", "20")
    assert code == 2
    assert out == ""
    assert "bound" in err


def test_pop_vector_trajectory(capsys):
    code, out, _ = run(capsys, "pop", "--n", "3", "--vector", "2,0,1,1,2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["sortability_time"] == 2
    assert doc["trajectory"] == [
        [2, 0, 1, 1, 2, 2],
        [1, 0, 1, 1, 2, 2],
        [0, 0, 1, 1, 2, 2],
    ]


def test_pop_trace_goes_to_stderr(capsys):
    _, out, err = run(capsys, "pop", "--n", "3", "--vector", "2,0,2,1,2,2", "--trace")
    assert "state:" in err
    assert "state:" not in out


def test_pop_invalid_vector(capsys):
    code, _, err = run(capsys, "pop", "--n", "3", "--vector", "1,1,1,1,1,1")
    assert code == 2
    assert "valid" in err


def test_pop_refuses_a_vector_that_vector_to_path_would_decode(capsys):
    code, out, err = run(capsys, "pop", "--nu", "ENENE", "--vector", "2,0,2,1,0,2")
    assert code == 2
    assert out == ""
    assert err == "error: not a valid vector for this base path\n"


def test_pop_perm_mode(capsys):
    code, out, _ = run(capsys, "pop", "--perm", "231")
    assert code == 0
    assert json.loads(out) == {"perm": [2, 3, 1], "pop": [2, 1, 3]}


def test_pop_perm_rejects_312_containing(capsys):
    code, _, err = run(capsys, "pop", "--perm", "312")
    assert code == 2
    assert "312" in err


@pytest.mark.parametrize(
    "text",
    ["\uff11\uff12", "1_0,9,8,7,6,5,4,3,2,1", "1,,2", "12\u0663"],
    ids=["full-width-digits", "underscore", "empty-part", "arabic-indic-digit"],
)
def test_pop_perm_refuses_a_word_that_is_not_ascii_digits(capsys, text):
    code, out, err = run(capsys, "pop", "--perm", text)
    assert code == 2
    assert out == ""
    assert err == f"error: not a permutation word: {text!r}\n"


def test_pop_perm_allows_spaces_around_commas(capsys):
    code, out, _ = run(capsys, "pop", "--perm", " 2, 1 ")
    assert code == 0
    assert json.loads(out) == {"perm": [2, 1], "pop": [1, 2]}


def test_sortable_agrees_with_series(capsys):
    code, out, _ = run(capsys, "sortable", "--n", "6", "--t", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "agree": True,
        "count": 70,
        "n": 6,
        "series_coefficient": "70",
        "t": 2,
    }


def test_sortable_rejects_t_zero_before_the_census(capsys, monkeypatch):
    def no_census(*args, **kwargs):
        raise AssertionError("census built for an invalid t")

    monkeypatch.setattr(pop, "_census", no_census)
    code, out, err = run(capsys, "sortable", "--n", "11", "--t", "0")
    assert code == 2
    assert out == ""
    assert "t >= 1" in err


def test_sortable_past_int64_census_keys_exits_2_before_enumerating(capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("census enumerated past the int64 key bound")

    monkeypatch.setattr(pop, "_vector_rows", no_enumeration)
    code, out, err = run(capsys, "sortable", "--n", "16", "--t", "1", "--force")
    assert code == 2
    assert out == ""
    assert "int64" in err


@pytest.mark.parametrize(
    "argv", [("sortable", "--n", "-1", "--t", "1"), ("series", "--t", "1", "--terms", "-1")]
)
def test_negative_size_is_refused_by_value_before_anything_is_built(capsys, monkeypatch, argv):
    def nothing_built(*args, **kwargs):
        raise AssertionError("built a census or series for a negative size")

    monkeypatch.setattr(pop, "_census", nothing_built)
    monkeypatch.setattr(series, "h_series", nothing_built)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "got -1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sortable", "--n", "100000000000", "--t", "2"), "n=100000000000 exceeds the enumeration bound 13"),
        (("image", "--n", "100000000000"), "n=100000000000 exceeds the enumeration bound 13"),
        (("enum", "--n", "100000000000"), "n=100000000000 exceeds the enumeration bound 13"),
        (("pop", "--n", "100000000000", "--vector", "0,0"), "expected 200000000000 entries, got 2"),
        (("sortable", "--n", "2000000", "--t", "2", "--force"), "needs 2000000^2000000 keys"),
    ],
)
def test_oversized_n_is_refused_before_the_base_path_is_built(capsys, monkeypatch, argv, message):
    def nothing_built(*args, **kwargs):
        raise AssertionError("built E(NE)^(n-1) for an oversized n")

    monkeypatch.setattr(pop, "_east_staircase_ctx", nothing_built)
    monkeypatch.setattr(cli, "east_staircase", nothing_built)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--perm", "21", "--n", "3"),
        ("--perm", "21", "--trace"),
        ("--perm", "21", "--nu", "NE"),
        ("--perm", "21", "--n", "3", "--vector", "9,9", "--trace"),
        ("--n", "3", "--vector", "2,0,1,1,2,2", "--perm", "12"),
    ],
)
def test_pop_perm_refuses_the_vector_mode_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["pop", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--perm takes none of --vector, --n, --nu and --trace" in captured.err


def test_series_output_is_decimal_strings(capsys):
    code, out, _ = run(capsys, "series", "--t", "1", "--terms", "6")
    assert code == 0
    assert json.loads(out) == ["0", "1", "2", "4", "8", "16", "32"]


def _run_in_512_mb(*argv):
    """The CLI in a child process under a 512 MB address-space limit, where a
    late refusal of a huge size ends in an out-of-memory error line instead."""

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "tamaripop.cli", *argv], env=env, capture_output=True, text=True,
        timeout=60, preexec_fn=limit_address_space,
    )


def test_series_order_past_the_bound_exits_2_before_allocating():
    # 10**11 terms would need an 800 GB list
    proc = _run_in_512_mb("series", "--t", "5", "--terms", "100000000000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: order 100000000000 exceeds the bound 7000\n"


def test_forced_enum_past_the_census_key_cap_exits_2_before_allocating():
    # --force lifts the element bound but not the cap of n <= 15 that every
    # --n shares; E(NE)^(n-1) for n = 10**11 would be a 200 GB string
    proc = _run_in_512_mb("enum", "--n", "100000000000", "--force")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: the census for n=100000000000 needs 100000000000^100000000000 keys, "
        "more than int64 holds\n"
    )


@pytest.mark.parametrize("suite", ["pop-oracle", "bijection"])
def test_corpus_past_the_element_bound_exits_2_before_it_is_built(suite):
    # the corpus holds (NE)^(max_ell // 2), so max_ell alone refuses it before
    # its O(max_ell^2) staircase texts are built
    proc = _run_in_512_mb("verify", "--suite", suite, "--max-n", "100000000000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: n=50000000000 exceeds the enumeration bound 13\n"


def test_enum_refuses_a_lattice_by_its_elements_not_its_steps(capsys, monkeypatch):
    # E^13 N^13 has 26 steps and 10,400,600 elements; each lattice is refused
    # by a count that stops at the first height past the bound (for
    # (NE)^20000, C_14 = 2,674,440), where a full count takes minutes
    counts = []
    real = paths._count_tam

    def recorded(*args, **kwargs):
        counts.append(real(*args, **kwargs))
        return counts[-1]

    monkeypatch.setattr(paths, "_count_tam", recorded)
    for nu, counted in (("E" * 13 + "N" * 13, 1_144_066), ("NE" * 20000, 2_674_440)):
        code, out, err = run(capsys, "enum", "--nu", nu)
        assert counts.pop() == counted
        assert (code, out) == (2, "")
        assert err == (
            f"error: Tam(nu) of a {len(nu)}-step nu has more than 742900 elements; "
            "pass --force to override\n"
        )
    code, out, _ = run(capsys, "enum", "--nu", "E" * 200 + "N")  # 201 steps, 201 elements
    assert code == 0
    assert len(out.splitlines()) == 201


def test_enum_lists_a_lattice_of_long_paths(capsys):
    # 1,501 steps, past the default recursion limit of a recursion over the steps
    code, out, _ = run(capsys, "enum", "--nu", "E" * 1500 + "N")
    lines = out.splitlines()
    assert (code, len(lines)) == (0, 1501)
    assert json.loads(lines[-1]) == {
        "nu": "E" * 1500 + "N", "path": "E" * 1500 + "N", "vector": [0] * 1501 + [1]
    }


def test_enum_refuses_a_step_matrix_past_its_byte_bound_before_allocating():
    # E^100000 N has only 100,001 elements, but its step matrix would take 10 GB
    proc = _run_in_512_mb("enum", "--nu", "E" * 100000 + "N")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: an enumeration of Tam(nu) for a 100001-step nu would take at least 10000200001 "
        "bytes, more than 760729600; pass --force to override\n"
    )


@pytest.mark.parametrize(
    "argv, hint",
    [
        (("enum", "--n", "14"), True),
        (("sortable", "--n", "14", "--t", "2"), True),
        (("image", "--n", "14"), True),
        # forced, these still pass the census's int64 keys, n <= 15
        (("enum", "--n", "16"), False),
        (("sortable", "--n", "16", "--t", "2"), False),
        (("image", "--n", "16"), False),
        # verify takes no --force
        (("verify", "--suite", "theorem-1", "--max-n", "14"), False),
    ],
)
def test_force_is_suggested_only_where_it_lifts_the_refusal(capsys, argv, hint):
    n = argv[argv.index("--n" if "--n" in argv else "--max-n") + 1]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    suffix = "; pass --force to override" if hint else ""
    assert err == f"error: n={n} exceeds the enumeration bound 13{suffix}\n"


@pytest.mark.parametrize(
    "args, err",
    [
        ((), "error: out of memory\n"),
        (("Unable to allocate 9.31 GiB",), "error: out of memory: Unable to allocate 9.31 GiB\n"),
    ],
    ids=["bare", "numpy"],
)
def test_a_memory_error_is_one_error_line_and_exit_2(capsys, monkeypatch, args, err):
    def out_of_memory(*_args, **_kwargs):
        raise MemoryError(*args)

    monkeypatch.setattr(pop, "pop_image", out_of_memory)
    assert run(capsys, "image", "--n", "5") == (2, "", err)


def test_image_with_qpoly(capsys):
    code, out, _ = run(capsys, "image", "--n", "5", "--qpoly")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 9
    assert doc["motzkin"] == 9
    assert doc["qpoly"] == doc["qpoly_formula"] == {"2": 2, "3": 6, "4": 1}


def test_verify_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "decomposition", "--max-n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == sorted(c["name"] for c in doc["checks"])
    assert all(c["status"] == "pass" for c in doc["checks"])
    # timing stays off stdout so reruns are byte-identical
    assert "seconds" not in out
    assert "(" in err


THEOREM_2_AT_4 = (
    '{"checks": [{"name": "a055151-row-sums-motzkin", "params": {"max_n": 4}, "status": "pass"}, '
    '{"name": "pop-image-size-is-motzkin", "params": {"max_n": 4}, "status": "pass"}, '
    '{"name": "qpolynomial-matches-formula", "params": {"max_n": 4}, "status": "pass"}, '
    '{"name": "qpolynomial-matches-permutation-ascents", "params": {"max_n": 4}, "status": "pass"}, '
    '{"name": "rmap-bijection-descents-peaks", "params": {"max_n": 4}, "status": "pass"}], '
    '"options": {"max_n": 4, "max_t": null, "seed": 0}, "passed": true, "suite": "theorem-2"}\n'
)


POP_ORACLE_AT_4_SEED_3 = (
    '{"checks": [{"name": "down-cover-candidates-match", '
    '"params": {"max_ell": 4, "random_paths": 50, "seed": 3}, "status": "pass"}, '
    '{"name": "pop-entry-lower-bound", '
    '"params": {"max_ell": 4, "random_paths": 50, "seed": 3}, "status": "pass"}, '
    '{"name": "pop-meet-oracle-equivalence", '
    '"params": {"max_ell": 4, "random_paths": 50, "seed": 3}, "status": "pass"}], '
    '"options": {"max_n": 4, "max_t": null, "seed": 3}, "passed": true, "suite": "pop-oracle"}\n'
)


def test_verify_reports_the_seed_and_fixed_params_it_ran_with(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pop-oracle", "--max-n", "4", "--seed", "3")
    assert code == 0
    assert out == POP_ORACLE_AT_4_SEED_3


def test_verify_counts_cases_on_stderr_only(capsys):
    code, out, err = run(capsys, "verify", "--suite", "theorem-2", "--max-n", "4")
    assert code == 0
    assert out == THEOREM_2_AT_4
    names = [c["name"] for c in json.loads(out)["checks"]]
    counts = {}
    for line in err.splitlines():
        match = re.fullmatch(r"(\S+): pass \(\d+\.\d\ds, (\d+) cases\)", line)
        assert match, line
        counts[match[1]] = int(match[2])
    assert sorted(counts) == names
    assert all(c > 0 for c in counts.values())


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("flag", ["--max-n", "--max-t"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_empty_bounds(capsys, flag, value):
    code, out, err = run(capsys, "verify", "--suite", "petersen", flag, value)
    assert code == 2
    assert out == ""
    assert "at least 1" in err
    assert "pass" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "bijection", "--max-n", "4", "--max-t", "3"),
        ("--suite", "petersen", "--max-t", "2"),
    ],
)
def test_verify_refuses_a_bound_that_no_selected_check_reads(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: max_t=\d bounds no check in suite '\w+'\n", err)


def test_verify_refuses_a_huge_max_t_before_any_check_body_runs(capsys, monkeypatch):
    def no_body(*args, **kwargs):
        raise AssertionError("a check body ran past the max_t cap")

    for name in ("h_series", "g_series", "h_series_rational", "g_series_rational", "catalan"):
        monkeypatch.setattr(series, name, no_body)
    for name in ("count_t_sortable", "_census"):
        monkeypatch.setattr(pop, name, no_body)
    code, out, err = run(capsys, "verify", "--suite", "theorem-1", "--max-t", "1000000000")
    assert (code, out) == (2, "")
    assert err == "error: max_t=1000000000 exceeds the bound 7000\n"


def test_verify_stdout_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "petersen", "--max-n", "4", "--seed", "3")
    _, second, _ = run(capsys, "verify", "--suite", "petersen", "--max-n", "4", "--seed", "3")
    assert first == second


def test_pop_requires_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pop"])
    assert exc.value.code == 2


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, tamaripop.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0

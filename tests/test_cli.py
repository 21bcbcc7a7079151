import io
import json

import pytest

from arrsheaf.cli import EXIT_CAP, EXIT_CONSISTENCY, EXIT_INPUT, EXIT_OK, main


def run_cli(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_emits_file_format(capsys):
    code = main(["catalog", "boolean", "2"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    assert "field Q" in out and "dim 2" in out
    assert out.count("hyperplane") == 2


def test_catalog_unknown_name(capsys):
    code = main(["catalog", "unknown-thing"])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "known catalog entries" in err


def test_catalog_pipes_into_lattice(tmp_path, capsys):
    code = main(["catalog", "braid", "3"])
    out, _ = capsys.readouterr()
    f = tmp_path / "braid3.arr"
    f.write_text(out)
    code = main(["lattice", str(f)])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["characteristic_polynomial"] == [-6, 11, -6, 1]
    assert len(payload["elements"]) == 15


def test_stdin_dash(capsys, monkeypatch):
    code, out, err = run_cli(
        ["freeness", "-"],
        stdin_text="field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n",
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["certificate"]["status"] == "free"
    assert payload["certificate"]["exponents"] == [1, 1]


def test_derivations_subcommand(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["derivations", str(f), "--flat", "3", "--degree", "1"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["basis"]


def test_derivations_negative_degree_has_no_monomials(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["derivations", str(f), "--flat", "0", "--degree", "-1"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["monomial_order"] == []
    assert payload["dim"] == 0


def test_derivations_bad_flat_index(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["derivations", str(f), "--flat", "99", "--degree", "1"])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT and "flat index" in err


def test_oversized_characteristic_is_an_input_error(tmp_path, capsys):
    from arrsheaf.linalg import _PRIMALITY_BOUND

    f = tmp_path / "big.arr"
    f.write_text(f"field Fp {_PRIMALITY_BOUND}\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["lattice", str(f)])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT and "too large" in err


def test_cohomology_json_and_table(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["cohomology", str(f), "--functor", "D", "--window", "-2:3"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["window"] == [-2, 3]
    assert {(e["n"], e["d"]): e["dim"] for e in payload["entries"]}[(0, 1)] == 2
    code = main(
        ["cohomology", str(f), "--functor", "D", "--window", "-2:3", "--format", "table"]
    )
    out, _ = capsys.readouterr()
    assert code == EXIT_OK and "n" in out.splitlines()[0]


@pytest.mark.parametrize("kmax", ["1", "-2"])
def test_cohomology_structure_kmax_below_two_rejected(tmp_path, capsys, kmax):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["cohomology", str(f), "--functor", "O", "--kmax", kmax])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT and out == ""
    assert "kmax must be at least 2" in err


@pytest.mark.parametrize("kmax", ["1", "0"])
def test_report_skip_kunneth_kmax_below_two_rejected(tmp_path, capsys, kmax):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["report", str(f), "--skip-kunneth", "--kmax", kmax])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT and out == ""
    assert "kmax must be at least 2" in err


def test_verify_kunneth_kmax_checked_before_table(tmp_path, capsys, monkeypatch):
    # --kmax 1 is an input error, reported before any computation
    tables = []
    monkeypatch.setattr("arrsheaf.cli.lattice_cohomology_table",
                        lambda *args, **kwargs: tables.append(args))
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["verify-kunneth", str(f), "--window", "-6:6", "--kmax", "1"])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT and out == ""
    assert "kmax must be at least 2" in err
    assert tables == []


def test_bad_window(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["cohomology", str(f), "--window", "junk"])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT and "window" in err


def test_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1\n")
    code = main(["lattice", str(f)])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT


def test_missing_file(capsys):
    code = main(["lattice", "/nonexistent/path.arr"])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT


def test_oracle_subcommand(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["oracle", str(f), "--module", "O", "--window", "-3:2", "--kmax", "6"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out)
    dims = {(e["n"], e["d"]): e["dim"] for e in payload["entries"]}
    assert dims[(1, -2)] == 1 and dims[(0, 2)] == 3


def test_report_table_format(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(
        [
            "report", str(f),
            "--window", "-3:2", "--kunneth-window", "-2:2", "--kmax", "4",
            "--format", "table",
        ]
    )
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    assert "free        : True" in out
    assert "pd (lattice): 0" in out


def test_verify_kunneth_subcommand(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["verify-kunneth", str(f), "--window", "-2:2", "--kmax", "4"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_match"] is True and payload["mismatches"] == []


def test_cap_exit_code(tmp_path, capsys):
    f = tmp_path / "braid3.arr"
    from arrsheaf.arrangement import catalog, serialize_arrangement

    f.write_text(serialize_arrangement(catalog("braid", 3)))
    import arrsheaf.oracle as oracle

    old = oracle.DEFAULT_TUPLE_CAP
    oracle.DEFAULT_TUPLE_CAP = 3
    try:
        code = main(["cohomology", str(f), "--cover", "full", "--window", "0:0"])
    finally:
        oracle.DEFAULT_TUPLE_CAP = old
    _, err = capsys.readouterr()
    assert code == EXIT_CAP and "cap" in err.lower()


def test_cap_guards_structure_table(tmp_path):
    # generic-5-8 has 163 proper flats: the O table on the full cover would
    # enumerate ~9e8 tuples, so the cap has to stop it before it builds any;
    # a separate process under a 2 GiB address-space limit keeps a missed
    # cap from exhausting the machine
    import resource
    import subprocess
    import sys

    from arrsheaf.arrangement import catalog, serialize_arrangement

    f = tmp_path / "g58.arr"
    f.write_text(serialize_arrangement(catalog("generic", 5, 8)))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "arrsheaf.cli", "cohomology", str(f), "--functor", "O",
         "--cover", "full", "--window", "0:0", "--kmax", "2"],
        capture_output=True,
        preexec_fn=limit_memory,
        timeout=30,
    )
    assert proc.returncode == EXIT_CAP and b"cap" in proc.stderr.lower()


def test_no_subcommand_usage(capsys):
    code = main([])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT and "usage" in err


def test_byte_identical_reruns(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    outputs = []
    for _ in range(2):
        code = main(["cohomology", str(f), "--functor", "O", "--window", "-4:3"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_catalog_nonfree47_pipes_into_freeness(capsys, monkeypatch):
    # arrsheaf catalog nonfree-4-7 | arrsheaf freeness -
    code = main(["catalog", "nonfree-4-7"])
    arr_text, _ = capsys.readouterr()
    assert code == EXIT_OK and arr_text.count("hyperplane") == 7
    code, out, _ = run_cli(["freeness", "-"], stdin_text=arr_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["arrangement"] == "nonfree-4-7"
    assert payload["certificate"]["status"] == "not-free"


def test_catalog_report_pipeline_stdin(capsys, monkeypatch):
    # arrsheaf catalog braid 3 | arrsheaf report -
    code = main(["catalog", "braid", "3"])
    arr_text, _ = capsys.readouterr()
    assert code == EXIT_OK
    code, out, _ = run_cli(
        ["report", "-", "--window", "-3:3", "--kunneth-window", "-2:2", "--kmax", "4"],
        stdin_text=arr_text,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["freeness"]["free"] is True
    assert payload["freeness"]["certificate"]["exponents"] == [1, 2, 3]
    assert payload["kunneth"]["mismatches"] == []


def test_consistency_failure_exit_code(tmp_path, capsys, monkeypatch):
    from arrsheaf.diagnostics import ConsistencyError

    def explode(*args, **kwargs):
        raise ConsistencyError({"message": "forced for the exit-code contract"})

    monkeypatch.setattr("arrsheaf.cli.build_report", explode)
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["report", str(f)])
    out, _ = capsys.readouterr()
    assert code == EXIT_CONSISTENCY
    assert json.loads(out)["status"] == "consistency-failure"


def test_unknown_flag_exit_code(capsys):
    code = main(["cohomology", "--bogus-flag", "x.arr"])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT


def test_unknown_subcommand_exit_code(capsys):
    code = main(["frobnicate"])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT


def test_help_exits_zero(capsys):
    code = main(["--help"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK and "arrsheaf" in out


def test_report_braid3_default_pipeline(capsys, monkeypatch):
    # the README pipeline with moderate windows; cross-engine checks active
    code = main(["catalog", "braid", "3"])
    arr_text, _ = capsys.readouterr()
    code, out, _ = run_cli(
        ["report", "-", "--kunneth-window", "-4:4", "--kmax", "6"],
        stdin_text=arr_text,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pd_via_lattice"] == 0
    assert payload["pd_via_oracle"]["pd"] == 0
    assert payload["kunneth"]["mismatches"] == []
    assert payload["window"] == [-9, 6]


def test_verify_kunneth_generic34(tmp_path, capsys, monkeypatch):
    # the tensor term is a rank of constraints, so no freeness certificate
    # (and no generator scan) is computed
    from arrsheaf import cli, derivations, diagnostics
    from arrsheaf.arrangement import catalog as cat, serialize_arrangement

    certificates = []
    for module in (cli, derivations, diagnostics):
        monkeypatch.setattr(module, "freeness_certificate",
                            lambda *args: certificates.append(args))
    f = tmp_path / "g34.arr"
    f.write_text(serialize_arrangement(cat("generic", 3, 4)))
    code = main(["verify-kunneth", str(f), "--window", "-2:2", "--kmax", "6"])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert certificates == []


def test_cross_process_determinism(tmp_path):
    # byte-identical output across separate interpreter runs with different
    # hash randomization, which would expose any set-order dependence
    import os
    import subprocess
    import sys

    f = tmp_path / "b3.arr"
    from arrsheaf.arrangement import catalog as cat, serialize_arrangement

    f.write_text(serialize_arrangement(cat("braid", 3)))
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "arrsheaf.cli", "cohomology", str(f),
             "--window", "-2:4"],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and outputs[0]


def test_threads_flag_rejected(tmp_path, capsys):
    f = tmp_path / "b2.arr"
    f.write_text("field Q\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n")
    code = main(["--threads", "2", "lattice", str(f)])
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT and "usage" in err

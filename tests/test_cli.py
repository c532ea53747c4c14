import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gtmprod.cli import console_main, main


@pytest.fixture()
def no_config(tmp_path, monkeypatch):
    monkeypatch.delenv("GTMPROD_CONFIG", raising=False)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_theta_prefix(self, capsys, no_config):
        code, out, _ = run(capsys, "seq", "--seq", "gtm:3:011", "--count", "9")
        assert code == 0 and out.strip() == "011100100"

    def test_sign_values(self, capsys, no_config):
        code, out, _ = run(capsys, "seq", "--seq", "gtm:2:1", "--count", "4",
                           "--values", "sign")
        assert code == 0 and out.strip() == "+1 -1 -1 +1"

    def test_bad_spec_is_usage_error(self, capsys, no_config):
        code, _, err = run(capsys, "seq", "--seq", "gtm:9", "--count", "4")
        assert code == 2 and "error" in err


class TestSum:
    def test_value(self, capsys, no_config):
        code, out, _ = run(capsys, "sum", "--seq", "gtm:3:001", "--n", "10")
        assert code == 0 and out.strip() == "2"


class TestAliasNames:
    # an alias shares the ladder of its gtm pattern but is echoed by the name given
    def test_sum_echoes_given_name(self, capsys, no_config):
        code, out, _ = run(capsys, "--format", "json", "sum", "--seq", "dcount:3:1", "--n", "10")
        doc = json.loads(out)
        assert code == 0 and doc["seq"] == "dcount:3:1" and doc["partial_sum"] == 0

    def test_dirichlet_echoes_given_name(self, capsys, no_config):
        code, out, _ = run(capsys, "--format", "json", "dirichlet", "--seq", "dparity:3", "--s", "2")
        assert code == 0 and json.loads(out)["seq"] == "dparity:3"


class TestCheck:
    def test_ok(self, capsys, no_config, monkeypatch):
        code, out, _ = run(capsys, "check", "--term", "(2n+1)/(2n+2)",
                           "--mode", "delta")
        assert code == 0 and out.strip() == "ok"
        # the console script reads sys.argv and exits with main's code
        monkeypatch.setattr(sys, "argv", ["gtmprod", "check", "--term", "(2n+1)/(2n+2)",
                                          "--mode", "delta"])
        with pytest.raises(SystemExit) as info:
            console_main()
        assert info.value.code == 0 and capsys.readouterr().out.strip() == "ok"

    def test_rejected_exit_3(self, capsys, no_config):
        code, out, _ = run(capsys, "check", "--term", "(2n+1)/(2n+2)",
                           "--mode", "theta")
        assert code == 3 and out.strip() == "rejected: sum-of-roots"

    def test_parse_error_exit_2(self, capsys, no_config):
        code, _, err = run(capsys, "check", "--term", "(2n+1", "--mode", "delta")
        assert code == 2 and "position" in err


class TestEval:
    def test_woods_robbins(self, capsys, no_config):
        code, out, _ = run(capsys, "eval", "--seq", "gtm:2:1", "--mode", "delta",
                           "--from", "0", "--term", "(2n+1)/(2n+2)",
                           "--tol", "1e-9")
        assert code == 0
        assert "0.707106781186" in out
        est = [l for l in out.splitlines() if l.startswith("est_error")][0]
        assert float(est.split("=")[1]) <= 1e-9

    def test_rejected_exit_3(self, capsys, no_config):
        code, _, err = run(capsys, "eval", "--seq", "gtm:2:0", "--mode", "delta",
                           "--term", "(2n+1)/(2n+2)")
        assert code == 3 and "trivial-pattern" in err

    def test_late_negative_term_rejected_exit_3(self, capsys, no_config):
        # -1 at n = 101; rejected at check time, not partway through evaluation
        code, _, err = run(capsys, "eval", "--seq", "gtm:2:1", "--mode", "delta",
                           "--from", "1", "--term", "(2n-201)/(2n-203)")
        assert code == 3 and "non-positive-term at n=101" in err

    def test_unachievable_eps_exit_4(self, capsys, no_config):
        code, _, err = run(capsys, "eval", "--seq", "gtm:2:1", "--mode", "delta",
                           "--term", "(2n+1)/(2n+2)", "--tol", "1e-18")
        assert code == 4 and "numeric failure" in err

    def test_json_document(self, capsys, no_config):
        code, out, _ = run(capsys, "--format", "json", "eval", "--seq", "gtm:2:1",
                           "--mode", "delta", "--term", "(2n+1)/(2n+2)")
        doc = json.loads(out)
        assert code == 0 and abs(doc["value"] - 0.7071067811865476) < 1e-10
        assert abs(doc["log_value"] + 0.5 * math.log(2.0)) <= doc["est_error"] <= 1e-9

    def test_value_past_binary64_prints_inf(self, capsys, no_config):
        # the value overflows binary64; the certified log is printed, exit 0
        argv = ["eval", "--seq", "gtm:2:1", "--mode", "delta", "--from", "1", "--term",
                "((n+1)^6000(n+3)^6000)/((n+2)^12000)", "--tol", "1e-6"]
        code, out, err = run(capsys, *argv)
        lines = dict(line.split(" = ") for line in out.splitlines())
        assert code == 0 and err == ""
        assert lines["value    "] == "inf" and lines["log_value"].startswith("877.6016515993")
        assert float(lines["est_error"]) <= 1e-6
        code, out, err = run(capsys, "--format", "json", *argv)
        doc = json.loads(out)  # JSON has no inf: the value is null, the log carries it
        assert code == 0 and err == "" and doc["value"] is None
        assert abs(doc["log_value"] - 877.6016515993) <= 1e-9 and doc["est_error"] <= 1e-6

    @pytest.mark.parametrize("tol", ["1e-12", "1e-13"])
    def test_tight_tol_certifies(self, capsys, no_config, tol):
        code, out, _ = run(capsys, "--format", "json", "eval", "--seq", "gtm:2:1",
                           "--mode", "delta", "--term", "(2n+1)/(2n+2)", "--tol", tol)
        assert code == 0 and json.loads(out)["est_error"] <= float(tol)

    @pytest.mark.parametrize("tol,method", [
        pytest.param(tol, method, id=tol if method == "accel" else f"{tol}-{method}")
        for method in ("accel", "direct") for tol in ("nan", "0", "-1")])
    def test_bad_tol_exit_2(self, capsys, no_config, tol, method):
        code, out, err = run(capsys, "eval", "--seq", "gtm:2:1", "--mode", "delta",
                             "--term", "(2n+1)/(2n+2)", "--tol", tol, "--method", method)
        assert code == 2 and out == "" and "must be a positive finite number" in err


class TestDirichlet:
    def test_zeta2(self, capsys, no_config):
        code, out, _ = run(capsys, "dirichlet", "--seq", "gtm:2:0", "--s", "2")
        assert code == 0 and "1.64493406684823" in out

    def test_pole_usage_error(self, capsys, no_config):
        code, _, err = run(capsys, "dirichlet", "--seq", "gtm:2:0", "--s", "1")
        assert code == 2

    def test_large_order_returns_at_once(self, tmp_path):
        # the direct sum once formed n^s for n = 2..4, although each floor of
        # 2^B / n^s is 0 there: 5 s at s = 10^7, and growing faster than s;
        # s = 10^400, past binary64's range, once exited 4 ("int too large
        # to convert to float")
        script = textwrap.dedent("""
            import contextlib, io, json
            from gtmprod.cli import main
            docs = []
            for s in ("10000000", "1000000000", "1" + "0" * 400):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["--format", "json", "dirichlet", "--seq", "gtm:2:1", "--s", s])
                docs.append([code, json.loads(out.getvalue())])
            print(json.dumps(docs))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), GTMPROD_CONFIG=str(tmp_path / "absent.json"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        for code, doc in json.loads(proc.stdout):
            assert code == 0 and doc["value"] == -1.0 and doc["eps_achieved"] <= 1e-15


class TestVerify:
    def test_filtered_json(self, capsys, no_config):
        code, out, _ = run(capsys, "--format", "json", "verify",
                           "--filter", "g2.*", "--tol", "1e-8")
        doc = json.loads(out)
        assert code == 0
        assert doc["summary"] == {"total": 4, "pass": 4, "fail": 0}
        row = doc["results"][0]
        assert set(row) == {"id", "paper", "method", "lhs_value", "rhs_value",
                            "abs_dlog", "est_error", "terms_used", "pass", "reason"}
        assert row["reason"] is None

    def test_non_finite_fields_are_null(self, capsys, no_config):
        # the oracle refuses N = 3 < q^2, so the record fails with a NaN value
        # and infinite errors; they print as null, and a strict parser, which
        # refuses NaN and Infinity, reads the document
        code, out, _ = run(capsys, "--format", "json", "verify", "--filter", "wr",
                           "--method", "direct", "--direct-n", "3")

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        (row,) = json.loads(out, parse_constant=refuse)["results"]
        assert code == 1 and row["pass"] is False and row["terms_used"] == 0
        assert row["lhs_value"] is row["abs_dlog"] is row["est_error"] is None
        assert row["rhs_value"] == 1 / math.sqrt(2)

    def test_failed_rows_carry_the_reason_the_text_prints(self, capsys, no_config):
        # the text output explained a failure that the json and csv rows dropped
        args = ("verify", "--filter", "wr", "--tol", "1e-300")
        code, out, _ = run(capsys, *args)
        assert code == 1
        reason = out.splitlines()[1].removeprefix("      reason: ")
        assert reason.startswith("eps 2.5e-301 is below the accuracy of the Dirichlet")
        code, out, _ = run(capsys, "--format", "json", *args)
        (row,) = json.loads(out)["results"]
        assert code == 1 and row["pass"] is False and row["reason"] == reason
        code, out, _ = run(capsys, "--format", "csv", *args)
        (row,) = csv.DictReader(io.StringIO(out))
        assert code == 1 and row["pass"] == "False" and row["reason"] == reason

    @pytest.mark.parametrize("catalog, glob, message", [
        (None, "nothing_matches", "no record matches --filter 'nothing_matches'"),
        ("# only a comment\n\n", None, "the catalog holds no record"),
    ], ids=["filter", "empty-catalog"])
    def test_empty_selection_is_a_usage_error(self, capsys, no_config, tmp_path,
                                              catalog, glob, message):
        # it printed "summary: 0/0 pass" and exited 0, so a mistyped filter passed
        args = ["--format", "json", "verify"]
        if catalog is not None:
            path = tmp_path / "empty.catalog"
            path.write_text(catalog)
            args += ["--catalog", str(path)]
        if glob is not None:
            args += ["--filter", glob]
        code, out, err = run(capsys, *args)
        assert code == 2 and err == f"error: {message}\n"
        assert json.loads(out) == {"command": "verify", "error": {
            "exit_code": 2, "kind": "usage", "message": f"error: {message}"}}

    def test_csv_header(self, capsys, no_config):
        code, out, _ = run(capsys, "--format", "csv", "verify", "--filter", "wr")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 1
        assert rows[0]["id"] == "wr" and rows[0]["pass"] == "True"

    def test_failure_exit_1(self, capsys, no_config, tmp_path):
        bad = tmp_path / "bad.catalog"
        bad.write_text("w1|Eq.(W-R)|gtm:2:1|delta|0|(2n+1)/(2n+2)|1/2|x\n")
        code, out, _ = run(capsys, "verify", "--catalog", str(bad))
        assert code == 1 and "FAIL" in out

    def test_missing_catalog_exit_2(self, capsys, no_config):
        code, _, err = run(capsys, "verify", "--catalog", "/nonexistent/zzz")
        assert code == 2

    @pytest.mark.parametrize("rhs,reason", [
        ("1/0", "zero denominator in 1/0 (at position 0)"),
        ("0^(0-1)", "0.0 ^ -1.0 has no finite value"),
        ("10^400", "10.0 ^ 400.0 has no finite value"),
        ("0-1", "right-hand side -1.0 is not positive"),
        ("1-1", "right-hand side 0.0 is not positive"),
    ])
    def test_rhs_without_value_exit_2(self, capsys, no_config, tmp_path, rhs, reason):
        bad = tmp_path / "bad.catalog"
        bad.write_text(f"w1|Eq.(W-R)|gtm:2:1|delta|0|(2n+1)/(2n+2)|{rhs}|x\n")
        code, _, err = run(capsys, "verify", "--catalog", str(bad))
        assert code == 2
        assert err.strip() == f"error: record 'w1' does not validate: {reason} (line 1)"

    def test_builtin_filter_parses_only_the_records_that_run(self, capsys, no_config,
                                                             monkeypatch):
        import gtmprod.catalog as catalog_mod

        calls = []
        for name in ("parse_product_term", "parse_expr"):
            parse = getattr(catalog_mod, name)
            monkeypatch.setattr(catalog_mod, name,
                                lambda text, parse=parse: calls.append(text) or parse(text))
        code, out, _ = run(capsys, "verify", "--filter", "wr")
        assert code == 0 and out.startswith("pass  wr ")
        assert calls == ["(2n+1)/(2n+2)", "1/sqrt(2)"]

    def test_builtin_verify_checks_each_record_once(self, capsys, no_config, monkeypatch):
        # load_catalog validates each record and evaluate_product then reads
        # the same spec's verdict: one check_product per record, not two
        import gtmprod.ratfun as rmod

        checked = []
        real = rmod.check_product
        monkeypatch.setattr(rmod, "check_product",
                            lambda spec: checked.append(spec) or real(spec))
        code, out, _ = run(capsys, "verify")
        records = out.splitlines()[:-1]  # the last line is the summary
        assert code == 0 and len(records) == 79
        assert len(checked) == len(set(map(id, checked))) == 79

    def test_user_file_is_validated_whole(self, capsys, no_config, tmp_path):
        path = tmp_path / "c.catalog"
        path.write_text("wr2|Eq.(W-R)|gtm:2:1|delta|0|(2n+1)/(2n+2)|1/sqrt(2)|x\n"
                        "bad|x|gtm:2:1|theta|0|(2n+1)/(2n+2)|1/sqrt(2)|y\n")
        code, out, err = run(capsys, "verify", "--catalog", str(path), "--filter", "wr2")
        assert code == 2 and out == ""
        assert err == "error: record 'bad' rejected: sum-of-roots (line 2)\n"


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys, no_config):
        args = ("--format", "json", "eval", "--seq", "gtm:3:001", "--mode", "delta",
                "--term", "(3n+2)/(3n+3)")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_verify_deterministic(self, capsys, no_config):
        args = ("--format", "json", "verify", "--filter", "ex1.7.1*", "--tol", "1e-8")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestUsage:
    def test_no_command(self, capsys, no_config):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys, no_config):
        assert run(capsys, "seq", "--nope", "1")[0] == 2

    def test_config_file_defaults(self, capsys, no_config, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"format": "json"}))
        monkeypatch.setenv("GTMPROD_CONFIG", str(cfg))
        code, out, _ = run(capsys, "sum", "--seq", "gtm:2:1", "--n", "5")
        assert code == 0 and json.loads(out)["partial_sum"] == -1

    def test_config_file_ignores_retired_keys(self, capsys, no_config, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"format": "json", "j_max": 8, "n_max": 1000,
                                   "cache_dir": "/x"}))
        monkeypatch.setenv("GTMPROD_CONFIG", str(cfg))
        code, out, _ = run(capsys, "eval", "--seq", "gtm:2:1", "--mode", "delta",
                           "--term", "(2n+1)/(2n+2)")
        doc = json.loads(out)
        assert code == 0 and abs(doc["value"] - 0.7071067811865476) < 1e-10


class TestConfigErrors:
    @pytest.mark.parametrize("config", [
        pytest.param({"tol": "1e-9"}, id="tol-string"),
        pytest.param({"tol": True}, id="tol-bool"),
        pytest.param({"tol": 0}, id="tol-zero"),
        pytest.param({"tol": -1e-9}, id="tol-negative"),
        pytest.param({"format": "xml"}, id="format"),
        pytest.param(["tol"], id="not-an-object"),
        pytest.param('{"tol": 1e-3,', id="not-json"),
    ])
    def test_bad_config_exit_2(self, capsys, no_config, tmp_path, monkeypatch, config):
        cfg = tmp_path / "config.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        monkeypatch.setenv("GTMPROD_CONFIG", str(cfg))
        code, out, err = run(capsys, "sum", "--seq", "gtm:2:1", "--n", "5")
        assert code == 2 and out == "" and err.startswith("error: config")


class TestJsonErrors:
    # exit codes 2-4 in json mode: stderr keeps its text, stdout holds one error document
    @pytest.mark.parametrize("code,kind,argv,message", [
        (2, "usage", ("--seq", "gtm:2:1", "--tol", "-1"),
         "error: tol must be a positive finite number, got -1.0"),
        (3, "rejected", ("--seq", "gtm:2:0"), "rejected: trivial-pattern"),
        (4, "numeric", ("--seq", "gtm:2:1", "--tol", "1e-17"),
         "numeric failure: certified error "),
    ], ids=["exit2", "exit3", "exit4"])
    def test_error_document(self, capsys, no_config, code, kind, argv, message):
        args = ("eval", "--mode", "delta", "--term", "(2n+1)/(2n+2)", *argv)
        got, out, err = run(capsys, "--format", "json", *args)
        assert got == code and out.count("\n") == 1 and err.startswith(message)
        assert json.loads(out) == {"command": "eval", "error": {
            "exit_code": code, "kind": kind, "message": err.rstrip("\n")}}
        assert run(capsys, *args) == (code, "", err)  # text mode: the same stderr only

    def test_dirichlet_eps_out_of_reach_is_numeric(self, capsys, no_config):
        argv = ("dirichlet", "--seq", "gtm:2:1", "--s", "2", "--eps", "1e-20")
        got, out, err = run(capsys, "--format", "json", *argv)
        assert got == 4 and err.startswith("numeric failure: achieved eps ")
        assert err.endswith(" exceeds requested 1e-20\n")
        assert json.loads(out) == {"command": "dirichlet", "error": {
            "exit_code": 4, "kind": "numeric", "message": err.rstrip("\n")}}
        assert run(capsys, *argv) == (4, "", err)

    @pytest.mark.parametrize("argv,message", [
        (("check", "--term", "(2n+1", "--mode", "delta"),
         "error: expected ')' (at position 5)"),
        (("dirichlet", "--seq", "gtm:2:0", "--s", "1"),
         "error: the all-plus pattern needs s >= 2 (zeta pole at s=1)"),
        (("verify", "--catalog", "/nonexistent/zzz"),
         "error: [Errno 2] No such file or directory: '/nonexistent/zzz'"),
        (("seq", "--seq", "gtm:2:1", "--count", "-1"), "error: count must be >= 0"),
        (("seq", "--seq", "gtm:2:1", "--count", "10000001"),
         "error: count exceeds the prefix cap of 10^7"),
        (("sum", "--seq", "gtm:2:1", "--n", "-1"), "error: n must be >= 0"),
    ], ids=["check", "dirichlet", "verify", "seq", "seq-cap", "sum"])
    def test_usage_error_document_per_command(self, capsys, no_config, argv, message):
        got, out, err = run(capsys, "--format", "json", *argv)
        assert got == 2 and out.count("\n") == 1 and err == message + "\n"
        assert json.loads(out) == {"command": argv[0], "error": {
            "exit_code": 2, "kind": "usage", "message": message}}
        assert run(capsys, *argv) == (2, "", err)  # text mode: the same stderr only

    @pytest.mark.parametrize("n", ["0", "-5", pytest.param(str(2**500), id="2^500")])
    @pytest.mark.parametrize("argv", [
        ("eval", "--seq", "gtm:2:1", "--mode", "delta", "--term", "(2n+1)/(2n+2)",
         "--method", "direct"),
        ("verify", "--filter", "wr", "--method", "direct"),
    ], ids=["eval", "verify"])
    def test_direct_n_below_one_is_usage_error(self, capsys, no_config, argv, n):
        # eval once ran q^10 terms for 0, and verify reported every record as
        # FAIL, for 0 and for 2^500 (which evaluate_direct refuses)
        argv = (*argv, "--direct-n", n)
        message = (f"error: --direct-n must be >= 1, got {n}" if int(n) < 1
                   else f"error: --direct-n must be below 2^500, got {n}")
        got, out, err = run(capsys, "--format", "json", *argv)
        assert got == 2 and err == message + "\n"
        assert json.loads(out) == {"command": argv[0], "error": {
            "exit_code": 2, "kind": "usage", "message": message}}
        assert run(capsys, *argv) == (2, "", err)

    def test_verify_both_at_ten_to_the_fifteen_terms(self, capsys, no_config):
        # the direct oracle's cost grows with log N: 2^49 terms return at once
        code, out, _ = run(capsys, "--format", "json", "verify", "--method", "both",
                           "--filter", "wr", "--direct-n", "1000000000000000")
        doc = json.loads(out)
        assert code == 0 and doc["summary"] == {"fail": 0, "pass": 2, "total": 2}
        assert [r["terms_used"] for r in doc["results"]][1] == 2**49

    def test_unparsed_usage_error_emits_nothing(self, capsys, no_config):
        code, out, err = run(capsys, "--format", "json", "eval", "--seq", "gtm:2:1")
        assert code == 2 and out == "" and "required" in err


class TestCacheFile:
    # the Dirichlet cache is in memory only: the retired --cache-dir is
    # accepted for one release, warned about and ignored
    def test_cache_dir_is_ignored(self, capsys, no_config):
        argv = ["--format", "json", "eval", "--seq", "gtm:3:01", "--mode", "delta",
                "--term", "(2n+1)/(2n+2)"]
        plain = run(capsys, *argv)
        cache_dir = no_config / "cache"
        cache_dir.mkdir()
        code, out, err = run(capsys, "--cache-dir", str(cache_dir), *argv)
        assert (code, out) == plain[:2] and code == 0
        assert err == "warning: --cache-dir is ignored; the Dirichlet cache is in memory only\n"
        assert list(cache_dir.iterdir()) == []
        assert "--cache-dir" not in run(capsys, "--help")[1]

    @pytest.mark.parametrize("argv", [
        ["eval", "--seq", "gtm:2:1", "--mode", "delta", "--term", "(2n+1)/(2n+2)"],
        ["verify", "--filter", "wr"],
    ], ids=["eval", "verify"])
    def test_direct_method_opens_no_cache(self, capsys, no_config, monkeypatch, argv):
        # the direct oracle reads no Dirichlet value: no sweep and no direct F(s) sum
        import gtmprod.dirichlet as dmod

        def refuse(*args, **kwargs):
            raise ArithmeticError("a Dirichlet constant was built")

        monkeypatch.setattr(dmod, "_ladder_fixed", refuse)
        monkeypatch.setattr(dmod, "_direct_fixed", refuse)
        assert run(capsys, *argv)[0] != 0  # the accelerated method needs one
        code, out, err = run(capsys, *argv, "--method", "direct")
        assert (code, err) == (0, "") and "direct" in out


class TestLazyImports:
    def test_commands_load_neither_numpy_nor_mpmath(self, tmp_path):
        # a fresh interpreter: check, eval (accel), dirichlet and a one-record
        # verify run on ints and floats; the bulk routines still import numpy
        script = textwrap.dedent("""
            import json, math, sys
            from gtmprod.cli import main
            codes = [main(argv) for argv in (
                ["check", "--term", "(2n+1)/(2n+2)", "--mode", "delta"],
                ["eval", "--seq", "gtm:3:01", "--mode", "delta", "--term", "(2n+1)/(2n+2)"],
                ["dirichlet", "--seq", "gtm:3:01", "--s", "3"],
                ["verify", "--filter", "wr"])]
            before = sorted(m for m in ("numpy", "mpmath") if m in sys.modules)
            from gtmprod import (ProductSpec, evaluate_direct, parse_product_term,
                                 parse_seq_spec, partial_sums_upto)
            seq = parse_seq_spec("gtm:2:1")
            res = evaluate_direct(ProductSpec(seq, "delta", 0, parse_product_term("(2n+1)/(2n+2)")),
                                  2**12)
            print(json.dumps({
                "codes": codes, "before": before,
                "direct_ok": abs(res.log_value + 0.5 * math.log(2)) <= res.est_error,
                "partial_sums": partial_sums_upto(seq, 8).tolist(),
                "numpy_after": "numpy" in sys.modules}))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), GTMPROD_CONFIG=str(tmp_path / "absent.json"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.splitlines()[-1])
        assert doc["codes"] == [0, 0, 0, 0]
        assert doc["before"] == []
        assert doc["direct_ok"] and doc["numpy_after"]
        assert doc["partial_sums"] == [0, 1, 0, -1, 0, -1, 0, 1, 0]


class TestImportSet:
    def test_commands_load_only_what_they_run(self, tmp_path):
        # a fresh interpreter: check, eval and dirichlet load six gtmprod
        # modules (the direct oracle's among them, which evaluator imports)
        # and none of the modules below; verify loads the catalog,
        # and no command loads dataclasses, inspect, fractions or decimal
        script = textwrap.dedent("""
            import json, sys
            preloaded = set(sys.modules)
            from gtmprod.cli import main
            codes = [main(argv) for argv in (
                ["check", "--term", "(2n+1)/(2n+2)", "--mode", "delta"],
                ["eval", "--seq", "gtm:3:01", "--mode", "delta", "--term", "(2n+1)/(2n+2)"],
                ["dirichlet", "--seq", "gtm:3:01", "--s", "3"])]
            never = ("dataclasses", "inspect", "fractions", "decimal")
            absent = never + ("csv", "gtmprod.catalog", "gtmprod.expr", "gtmprod.gammafn",
                              "gtmprod.families", "numpy", "mpmath")
            loaded = sorted(m for m in absent if m in sys.modules and m not in preloaded)
            package = sorted(m for m in sys.modules if m.startswith("gtmprod."))
            codes.append(main(["verify", "--filter", "wr"]))
            print(json.dumps({"codes": codes, "loaded": loaded, "package": package,
                              "catalog_after_verify": "gtmprod.catalog" in sys.modules,
                              "verify_loaded": sorted(m for m in never
                                                      if m in sys.modules and m not in preloaded)}))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), GTMPROD_CONFIG=str(tmp_path / "absent.json"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.splitlines()[-1])
        assert doc == {"codes": [0, 0, 0, 0], "loaded": [],
                       "package": ["gtmprod.cli", "gtmprod.direct", "gtmprod.dirichlet",
                                   "gtmprod.evaluator", "gtmprod.ratfun", "gtmprod.sequences"],
                       "catalog_after_verify": True, "verify_loaded": []}

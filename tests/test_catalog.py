import math
from dataclasses import replace

import pytest

import gtmprod.catalog as catalog_mod
from gtmprod.catalog import (
    CatalogError,
    load_catalog,
    parse_catalog_line,
    run_catalog,
)
from gtmprod.dirichlet import DirichletCache
from gtmprod.evaluator import evaluate_product, verify_identity
from gtmprod.ratfun import format_product_term, parse_product_term


@pytest.fixture(scope="module")
def records():
    return load_catalog("builtin")


class TestBuiltinCatalog:
    def test_size_and_families(self, records):
        assert len(records) >= 79
        by_tag = {}
        for r in records:
            for t in r.tags:
                by_tag.setdefault(t, []).append(r)
        assert len(by_tag["ex1.5"]) == 16
        assert len(by_tag["ex1.6"]) == 16
        assert len(by_tag["ex1.7"]) == 16
        assert len(by_tag["cor1.10"]) == 16
        assert len(by_tag["g1"]) == 10
        assert len(by_tag["g2"]) == 4
        assert len(by_tag["classic"]) == 1

    def test_ids_unique_and_modes_consistent(self, records):
        ids = [r.id for r in records]
        assert len(set(ids)) == len(ids)
        for r in records:
            expected_mode = "theta" if "cor1.10" in r.tags else "delta"
            assert r.mode == expected_mode
            assert r.start == 0

    def test_lhs_round_trip(self, records):
        for r in records:
            fl = parse_product_term(r.lhs)
            assert parse_product_term(format_product_term(fl)) == fl

    def test_line_round_trip(self, records):
        for r in records:
            assert parse_catalog_line(r.to_line()) == r


class TestLoad:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.catalog"
        path.write_text("")
        assert load_catalog(path) == []

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.catalog"
        path.write_text("# header\n\nwr2|Eq.(W-R)|gtm:2:1|delta|0|(2n+1)/(2n+2)|1/sqrt(2)|x\n")
        assert len(load_catalog(path)) == 1

    def test_duplicate_id_rejected(self, tmp_path):
        line = "wr2|Eq.(W-R)|gtm:2:1|delta|0|(2n+1)/(2n+2)|1/sqrt(2)|x"
        path = tmp_path / "c.catalog"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        assert "line 2" in str(err.value)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "c.catalog"
        path.write_text("only|three|fields\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        assert "line 1" in str(err.value)

    def test_nonconvergent_record_rejected_at_load(self, tmp_path):
        path = tmp_path / "c.catalog"
        path.write_text("bad|x|gtm:2:1|theta|0|(2n+1)/(2n+2)|1/sqrt(2)|x\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        assert "sum-of-roots" in str(err.value)

    def test_late_negative_term_rejected_at_load(self, tmp_path):
        path = tmp_path / "c.catalog"
        path.write_text("neg|x|gtm:2:1|delta|1|(2n-201)/(2n-203)|1|x\n")
        with pytest.raises(CatalogError) as err:
            load_catalog(path)
        assert "non-positive-term at n=101" in str(err.value)

    def test_bad_rhs_rejected(self, tmp_path):
        path = tmp_path / "c.catalog"
        path.write_text("bad|x|gtm:2:1|delta|0|(2n+1)/(2n+2)|sqrt(|x\n")
        with pytest.raises(CatalogError):
            load_catalog(path)


class TestFilteredLoad:
    GOOD = "wr2|Eq.(W-R)|gtm:2:1|delta|0|(2n+1)/(2n+2)|1/sqrt(2)|x"
    REJECTED = "bad|x|gtm:2:1|theta|0|(2n+1)/(2n+2)|1/sqrt(2)|y"

    @pytest.mark.parametrize("line", [
        "only|three|fields",
        "b|x|gtm:2:1|sigma|0|(2n+1)/(2n+2)|1|y",
        "b|x|gtm:2:1|delta|zero|(2n+1)/(2n+2)|1|y",
        GOOD,
    ], ids=["fields", "mode", "start", "duplicate"])
    def test_builtin_line_checks_cover_every_line(self, monkeypatch, line):
        monkeypatch.setattr(catalog_mod, "builtin_catalog_text", lambda: f"{self.GOOD}\n{line}\n")
        with pytest.raises(CatalogError, match="line 2"):
            load_catalog("builtin", filter="wr2")

    def test_builtin_validates_only_the_records_that_match(self, monkeypatch):
        monkeypatch.setattr(catalog_mod, "builtin_catalog_text",
                            lambda: f"{self.GOOD}\n{self.REJECTED}\n")
        assert [r.id for r in load_catalog("builtin", filter="wr2")] == ["wr2"]
        assert load_catalog("builtin", filter="zzz*") == []
        with pytest.raises(CatalogError, match="sum-of-roots"):
            load_catalog("builtin")
        with pytest.raises(CatalogError, match="sum-of-roots"):
            load_catalog("builtin", filter="y")

    def test_file_is_validated_whole(self, tmp_path):
        path = tmp_path / "c.catalog"
        path.write_text(f"{self.GOOD}\n{self.REJECTED}\n")
        with pytest.raises(CatalogError, match="sum-of-roots"):
            load_catalog(path, filter="wr2")


class TestRunCatalog:
    def test_filter_and_summary(self, cache):
        report = run_catalog(load_catalog("builtin", filter="g2.*"), tol=1e-8, cache=cache)
        assert report.total == 4 and report.failed == 0
        assert [r.id for r in report.results] == sorted(r.id for r in report.results)

    def test_tag_filter(self, cache):
        report = run_catalog(load_catalog("builtin", filter="classic"), tol=1e-8, cache=cache)
        assert report.total == 1 and report.results[0].id == "wr"

    def test_no_match_is_empty(self, cache):
        report = run_catalog(load_catalog("builtin", filter="zzz*"), cache=cache)
        assert report.total == 0 and report.passed == 0 and report.all_passed

    def test_both_methods(self, cache):
        report = run_catalog(load_catalog("builtin", filter="wr"), method="both", cache=cache,
                             tol=1e-4, direct_n=1 << 16)
        assert report.total == 2
        assert {r.method for r in report.results} == {"accel", "direct"}
        assert report.all_passed

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_rejects_bad_tol_before_any_work(self, records, tol):
        fresh = DirichletCache()
        with pytest.raises(ValueError):
            run_catalog(records, tol=tol, cache=fresh)
        assert fresh.mp_lookup("gtm:2:1", 1) is None

    @pytest.mark.parametrize("method, tol", [("accel", 1e-4), ("direct", 1e-4),
                                             ("accel", 1e-20)])  # the last cannot certify
    def test_record_result_is_the_identity_report(self, records, method, tol, cache):
        wr = next(r for r in records if r.id == "wr")
        (res,) = run_catalog([wr], tol=tol, method=method, cache=cache,
                             direct_n=1 << 16).results
        rep = verify_identity(wr.product_spec(), wr.rhs_value(), tol, cache, method, 1 << 16)
        assert (res.passed, res.lhs_value, res.rhs_value, res.abs_dlog, res.est_error,
                res.terms_used, res.reason) == (rep.ok, rep.lhs_value, rep.rhs_value,
                                                rep.abs_dlog, rep.est_error, rep.terms_used,
                                                rep.reason)

    def test_loaded_records_are_not_parsed_again(self, cache, monkeypatch):
        # load_catalog parses every record to validate it; run_catalog reuses that
        loaded = load_catalog("builtin")
        calls = []

        def counted(parse):
            def wrapper(text):
                calls.append(text)
                return parse(text)
            return wrapper

        monkeypatch.setattr(catalog_mod, "parse_product_term", counted(parse_product_term))
        monkeypatch.setattr(catalog_mod, "parse_expr", counted(catalog_mod.parse_expr))
        report = run_catalog([r for r in loaded if r.id.startswith("ex1.5")], cache=cache)
        assert report.total == 16 and report.all_passed
        assert calls == []
        # a record built from a line is parsed on first use, once
        wr = parse_catalog_line(next(r for r in loaded if r.id == "wr").to_line())
        assert run_catalog([wr], cache=cache).all_passed
        assert run_catalog([wr], cache=cache).all_passed
        assert calls == [wr.rhs, wr.lhs]

    def test_failures_are_data(self, records, cache):
        bad = replace(records[0], rhs="2/3")
        report = run_catalog([bad], tol=1e-8, cache=cache)
        assert report.failed == 1
        assert math.isfinite(report.results[0].abs_dlog)


class TestCrossRecordConsistency:
    def test_wr_equals_g1_q2(self, records, cache):
        by_id = {r.id: r for r in records}
        v1 = evaluate_product(by_id["wr"].product_spec(), eps=1e-9, cache=cache)
        v2 = evaluate_product(by_id["g1.q2.k1"].product_spec(), eps=1e-9, cache=cache)
        assert abs(v1.log_value - v2.log_value) < 1e-12

    @pytest.mark.parametrize("rid", ["ex1.7.1", "ex1.7.8", "ex1.7.13"])
    def test_alternating_representations_agree(self, rid, records, cache):
        # (0,1,0) base-3 word and base-3 digit-sum parity generate the same
        # alternating signs, so evaluations must coincide
        by_id = {r.id: r for r in records}
        rec = by_id[rid]
        swapped = replace(rec, seqspec="dparity:3")
        v1 = evaluate_product(rec.product_spec(), eps=1e-9, cache=cache)
        v2 = evaluate_product(swapped.product_spec(), eps=1e-9, cache=cache)
        assert abs(v1.log_value - v2.log_value) < 1e-12
        assert abs(v1.log_value - math.log(rec.rhs_value())) <= 1e-8

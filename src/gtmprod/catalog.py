"""Machine-readable identity records and the batch verification runner.

One record per line, pipe-separated and diff-friendly:

    id|source|seqspec|mode|from|lhs-product-term|rhs-expression|tags

The builtin catalog ships as package data (79 concrete closed-form
equalities).  ``load_catalog`` checks every line (eight fields, the mode,
the start index, a unique id) and validates records: both mini-languages
must parse, the right-hand side must be positive and the resulting product
spec must pass ``check_product`` (its ``ProductSpec.verdict``, which the
record's later evaluation reads rather than checking again).
It validates every record of a file; of the builtin catalog, which the
test suite validates whole, only the records that match the filter.
Within one load, records with the same ``seqspec`` share one parsed
sequence and records with the same right-hand side one value: the
builtin catalog's 79 records hold 18 distinct specs and 25 distinct
right-hand sides.  The sharing ends with the load; a record built
outside one (``parse_catalog_line``) is parsed on its first use.

Of the CLI commands only ``verify`` imports this module, and with it
``expr`` and ``gammafn``.
"""

from __future__ import annotations

import math
from fnmatch import fnmatch
from importlib import resources
from pathlib import Path

from .dirichlet import DirichletCache, check_eps
from .evaluator import ProductSpec, verify_identity
from .expr import eval_expr, parse_expr
from .ratfun import parse_product_term
from .sequences import FrozenValue, MultiplicativeSequence, parse_seq_spec


class CatalogError(ValueError):
    """Malformed or invalid catalog input, annotated with the line number."""

    def __init__(self, message: str, lineno: int | None = None):
        where = f" (line {lineno})" if lineno is not None else ""
        super().__init__(f"{message}{where}")
        self.lineno = lineno


class IdentityRecord(FrozenValue):
    """One catalog line: its eight fields, ``start`` an int and ``tags`` a tuple."""

    _fields = ("id", "paper", "seqspec", "mode", "start", "lhs", "rhs", "tags")

    def __init__(self, id: str, paper: str, seqspec: str, mode: str, start: int,
                 lhs: str, rhs: str, tags: tuple[str, ...]):
        self._set(id, paper, seqspec, mode, start, lhs, rhs, tags)

    # Parsed on first use and kept on the record, so that the validation in
    # load_catalog and the later run parse each record once.  load_catalog
    # passes what its earlier records parsed, keyed by text: the sequence of
    # each seqspec and the value of each rhs.

    def product_spec(self) -> ProductSpec:
        spec = self.__dict__.get("_spec")
        return self._parse_spec({}) if spec is None else spec

    def rhs_value(self) -> float:
        rhs = self.__dict__.get("_rhs")
        return self._parse_rhs({}) if rhs is None else rhs

    def _parse_spec(self, seqs: dict[str, MultiplicativeSequence]) -> ProductSpec:
        seq = seqs.get(self.seqspec)
        if seq is None:
            seq = seqs[self.seqspec] = parse_seq_spec(self.seqspec)
        spec = self.__dict__["_spec"] = ProductSpec(seq, self.mode, self.start,
                                                    parse_product_term(self.lhs))
        return spec

    def _parse_rhs(self, values: dict[str, float]) -> float:
        rhs = values.get(self.rhs)
        if rhs is None:
            rhs = values[self.rhs] = eval_expr(parse_expr(self.rhs))
        self.__dict__["_rhs"] = rhs
        return rhs

    def to_line(self) -> str:
        return "|".join([self.id, self.paper, self.seqspec, self.mode,
                         str(self.start), self.lhs, self.rhs, ",".join(self.tags)])


def parse_catalog_line(line: str, lineno: int | None = None) -> IdentityRecord:
    parts = line.split("|")
    if len(parts) != 8:
        raise CatalogError(f"expected 8 pipe-separated fields, got {len(parts)}", lineno)
    rid, paper, seqspec, mode, start_text, lhs, rhs, tags = (p.strip() for p in parts)
    if mode not in ("delta", "theta"):
        raise CatalogError(f"bad mode {mode!r}", lineno)
    try:
        start = int(start_text)
    except ValueError:
        raise CatalogError(f"bad start index {start_text!r}", lineno) from None
    return IdentityRecord(rid, paper, seqspec, mode, start, lhs, rhs,
                          tuple(t for t in tags.split(",") if t))


def _validate(record: IdentityRecord, lineno: int | None, seqs: dict, values: dict):
    try:
        spec = record._parse_spec(seqs)
        rhs = record._parse_rhs(values)
    except Exception as exc:
        raise CatalogError(f"record {record.id!r} does not validate: {exc}", lineno) from None
    if rhs <= 0:
        raise CatalogError(f"record {record.id!r} does not validate: "
                           f"right-hand side {rhs!r} is not positive", lineno)
    if not spec.verdict:  # decided once: evaluate_product reads the same verdict
        raise CatalogError(f"record {record.id!r} rejected: {spec.verdict.reason}", lineno)


def builtin_catalog_text() -> str:
    return resources.files("gtmprod.data").joinpath("builtin.catalog").read_text()


def load_catalog(source: str | Path = "builtin",
                 filter: str | None = None) -> list[IdentityRecord]:
    """The validated records of the builtin catalog or a file path whose id
    or tag matches the glob ``filter`` (every record without one); a file is
    validated whole, the builtin catalog with a filter only where it matches."""
    builtin = source == "builtin"
    text = builtin_catalog_text() if builtin else Path(source).read_text()
    records: list[IdentityRecord] = []
    seen: set[str] = set()
    seqs: dict[str, MultiplicativeSequence] = {}  # parsed once per load, by text
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        record = parse_catalog_line(line, lineno)
        if record.id in seen:
            raise CatalogError(f"duplicate record id {record.id!r}", lineno)
        seen.add(record.id)
        wanted = _matches(record, filter)
        if wanted or not builtin:
            _validate(record, lineno, seqs, values)
        if wanted:
            records.append(record)
    return records


class RecordResult(FrozenValue):
    """The outcome of one record by one method; ``reason`` says why it failed."""

    _fields = ("id", "paper", "method", "passed", "lhs_value", "rhs_value", "abs_dlog",
               "est_error", "terms_used", "reason")

    def __init__(self, id: str, paper: str, method: str, passed: bool, lhs_value: float,
                 rhs_value: float, abs_dlog: float, est_error: float, terms_used: int,
                 reason: str | None = None):
        self._set(id, paper, method, passed, lhs_value, rhs_value, abs_dlog, est_error,
                  terms_used, reason)


class CatalogReport(FrozenValue):
    """The results of a run in id order, and how many passed and failed."""

    _fields = ("results", "total", "passed", "failed")

    def __init__(self, results: tuple[RecordResult, ...], total: int, passed: int, failed: int):
        self._set(results, total, passed, failed)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def _matches(record: IdentityRecord, pattern: str | None) -> bool:
    if not pattern:
        return True
    return fnmatch(record.id, pattern) or any(fnmatch(t, pattern) for t in record.tags)


def _evaluate_record(record: IdentityRecord, method: str, tol: float,
                     cache: DirichletCache, direct_n: int | None) -> RecordResult:
    rhs = record.rhs_value()
    try:
        rep = verify_identity(record.product_spec(), rhs, tol, cache, method, direct_n)
    except Exception as exc:  # failures are data in a batch run
        return RecordResult(record.id, record.paper, method, False,
                            math.nan, rhs, math.inf, math.inf, 0, str(exc))
    return RecordResult(record.id, record.paper, method, rep.ok, rep.lhs_value, rhs,
                        rep.abs_dlog, rep.est_error, rep.terms_used, rep.reason)


def run_catalog(records, tol: float = 1e-8, method: str = "accel",
                cache: DirichletCache | None = None,
                direct_n: int | None = None) -> CatalogReport:
    """Verify the records (``load_catalog`` selects them); report in id order."""
    check_eps(tol, "tol")
    if method not in ("accel", "direct", "both"):
        raise ValueError(f"method must be accel, direct or both, got {method!r}")
    if cache is None:
        cache = DirichletCache()
    methods = ("accel", "direct") if method == "both" else (method,)
    results = []
    for record in sorted(records, key=lambda r: r.id):
        for m in methods:
            results.append(_evaluate_record(record, m, tol, cache, direct_n))
    passed = sum(1 for r in results if r.passed)
    return CatalogReport(tuple(results), len(results), passed, len(results) - passed)

"""Command-line front end.

Subcommands: seq, sum, check, eval, dirichlet, verify.  Exit codes:
0 success / all records pass, 1 verification failure, 2 usage or parse
error, 3 convergence precondition rejected, 4 numeric failure.  Output
formats: text (default), json (one document per invocation, an error
document for exit codes 2-4 once the arguments are parsed), csv (stable
header row).  Numeric output carries 15 significant digits plus the error
estimate so reports are self-certifying.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .dirichlet import check_eps, dirichlet_value
from .evaluator import ProductRejectedError, ProductSpec, evaluate_direct, evaluate_product
from .ratfun import ParseError, factored_convergence, parse_product_term
from .sequences import SequenceError, parse_seq_spec, partial_sum, sign_prefix

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_NUMERIC = 4
FORMATS = ("text", "json", "csv")


def _config_path() -> Path | None:
    env = os.environ.get("GTMPROD_CONFIG")
    if env:
        return Path(env)
    default = Path.home() / ".config" / "gtmprod" / "config.json"
    return default if default.exists() else None


def load_config() -> argparse.Namespace:
    """The config file's defaults; ValueError if the file or a value it sets is bad."""
    cfg = argparse.Namespace(tol=1e-9, format="text")
    path = _config_path()
    if path is not None and path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        for key in ("tol", "format"):
            if key in data:
                setattr(cfg, key, data[key])
    if isinstance(cfg.tol, bool) or not isinstance(cfg.tol, (int, float)):
        raise ValueError(f"config tol must be a number, got {cfg.tol!r}")
    check_eps(cfg.tol, "config tol")
    if cfg.format not in FORMATS:
        raise ValueError(f"config format must be one of {', '.join(FORMATS)}, "
                         f"got {cfg.format!r}")
    return cfg


def _num(x: float) -> str:
    return f"{x:.15g}"


def _emit(args, payload: dict, text_lines: list[str], csv_rows: list[dict]):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        if not csv_rows:
            return
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(csv_rows)
        sys.stdout.write(buf.getvalue())
    else:
        for line in text_lines:
            print(line)


def _cmd_seq(args) -> int:
    seq = parse_seq_spec(args.seq)
    if args.count < 0:
        raise SequenceError("count must be >= 0")
    if args.count > 10**7:
        raise SequenceError("count exceeds the prefix cap of 10^7")
    signs = sign_prefix(seq, args.count)
    if args.values == "sign":
        shown = " ".join("+1" if s > 0 else "-1" for s in signs)
    else:
        shown = "".join("0" if s > 0 else "1" for s in signs)
    _emit(args,
          {"command": "seq", "seq": seq.spec, "count": args.count,
           "values": args.values, "output": shown},
          [shown],
          [{"seq": seq.spec, "count": args.count, "values": args.values, "output": shown}])
    return EXIT_OK


def _cmd_sum(args) -> int:
    seq = parse_seq_spec(args.seq)
    if args.n < 0:
        raise SequenceError("n must be >= 0")
    value = partial_sum(seq, args.n)
    _emit(args,
          {"command": "sum", "seq": seq.spec, "n": args.n, "partial_sum": value},
          [str(value)],
          [{"seq": seq.spec, "n": args.n, "partial_sum": value}])
    return EXIT_OK


def _cmd_check(args) -> int:
    term = parse_product_term(args.term)
    verdict = factored_convergence(term, args.mode)
    payload = {"command": "check", "term": args.term, "mode": args.mode,
               "ok": verdict.ok, "reason": verdict.reason}
    rows = [{"term": args.term, "mode": args.mode, "ok": verdict.ok,
             "reason": verdict.reason or ""}]
    _emit(args, payload, ["ok" if verdict.ok else f"rejected: {verdict.reason}"], rows)
    return EXIT_OK if verdict.ok else EXIT_REJECTED


def _direct_n(args) -> int | None:
    """--direct-n, checked before any work: a term count below 1 is a usage error."""
    if args.direct_n is not None and args.direct_n < 1:
        raise ValueError(f"--direct-n must be >= 1, got {args.direct_n}")
    return args.direct_n


def _cmd_eval(args) -> int:
    seq = parse_seq_spec(args.seq)
    term = parse_product_term(args.term)
    spec = ProductSpec(seq, args.mode, args.start, term)
    check_eps(args.tol, "tol")  # both methods: direct ignores it, but a bad one is a usage error
    direct_n = _direct_n(args)
    if args.method == "accel":
        res = evaluate_product(spec, eps=args.tol)
    else:
        res = evaluate_direct(spec, direct_n)
    payload = {"command": "eval", "seq": seq.spec, "mode": args.mode,
               "from": args.start, "term": args.term,
               "value": res.value, "log_value": res.log_value,
               "est_error": res.est_error, "terms_used": res.terms_used,
               "dirichlet_orders": res.dirichlet_orders, "method": res.method}
    lines = [f"value     = {_num(res.value)}",
             f"log_value = {_num(res.log_value)}",
             f"est_error = {res.est_error:.3e}",
             f"terms     = {res.terms_used}",
             f"orders    = {res.dirichlet_orders}",
             f"method    = {res.method}"]
    rows = [{"seq": seq.spec, "mode": args.mode, "from": args.start,
             "term": args.term, "value": _num(res.value),
             "est_error": f"{res.est_error:.3e}",
             "terms_used": res.terms_used, "method": res.method}]
    _emit(args, payload, lines, rows)
    return EXIT_OK


def _cmd_dirichlet(args) -> int:
    seq = parse_seq_spec(args.seq)
    value, eps = dirichlet_value(seq, args.s, eps=args.eps)
    payload = {"command": "dirichlet", "seq": seq.spec, "s": args.s,
               "value": value, "eps_achieved": eps}
    lines = [f"F({args.s}) = {_num(value)}", f"eps       = {eps:.3e}"]
    rows = [{"seq": seq.spec, "s": args.s, "value": _num(value),
             "eps_achieved": f"{eps:.3e}"}]
    _emit(args, payload, lines, rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .catalog import load_catalog, run_catalog  # only verify loads expr and gammafn

    direct_n = _direct_n(args)
    records = load_catalog(args.catalog, filter=args.filter)
    report = run_catalog(records, tol=args.tol, method=args.method, direct_n=direct_n)
    results = [{
        "id": r.id, "paper": r.paper, "method": r.method,
        "lhs_value": r.lhs_value, "rhs_value": r.rhs_value,
        "abs_dlog": r.abs_dlog, "est_error": r.est_error,
        "terms_used": r.terms_used, "pass": r.passed,
    } for r in report.results]
    payload = {"command": "verify",
               "results": results,
               "summary": {"total": report.total, "pass": report.passed,
                           "fail": report.failed}}
    lines = []
    for r in report.results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{status}  {r.id:<16} {r.method:<6} lhs={_num(r.lhs_value):<22}"
                     f" rhs={_num(r.rhs_value):<22} dlog={r.abs_dlog:.3e}"
                     f" est={r.est_error:.3e}")
        if r.reason:
            lines.append(f"      reason: {r.reason}")
    lines.append(f"summary: {report.passed}/{report.total} pass")
    rows = [{k: ("" if v is None else v) for k, v in item.items()} for item in results]
    _emit(args, payload, lines, rows)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAIL


def build_parser(config: argparse.Namespace) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtmprod",
        description="Generalized Thue-Morse sequences and sign-weighted "
                    "infinite products of rational terms.")
    parser.add_argument("--format", choices=FORMATS,
                        default=config.format)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)  # retired: accepted, ignored
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print a sequence prefix")
    p.add_argument("--seq", required=True, help="gtm:<q>:<bits> | dcount:<q>:<k> | dparity:<q>")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--values", choices=("theta", "sign"), default="theta")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("sum", help="partial sum of the sign sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("check", help="convergence criteria for a product term")
    p.add_argument("--term", required=True)
    p.add_argument("--mode", choices=("delta", "theta"), required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="evaluate an infinite product")
    p.add_argument("--seq", required=True)
    p.add_argument("--mode", choices=("delta", "theta"), required=True)
    p.add_argument("--from", dest="start", type=int, default=0)
    p.add_argument("--term", required=True)
    p.add_argument("--tol", type=float, default=config.tol)
    p.add_argument("--method", choices=("accel", "direct"), default="accel")
    p.add_argument("--direct-n", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dirichlet", help="Dirichlet constant F(s)")
    p.add_argument("--seq", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-15)
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("verify", help="batch-verify catalog identities")
    p.add_argument("--catalog", default="builtin")
    p.add_argument("--filter", default=None, help="glob on record id or tag")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--method", choices=("accel", "direct", "both"), default="accel")
    p.add_argument("--direct-n", type=int, default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def _fail(args, code: int, kind: str, message: str) -> int:
    """Print message on stderr and, once the arguments are parsed in json
    format, one error document on stdout; return the exit code."""
    print(message, file=sys.stderr)
    if args is not None and args.format == "json":
        print(json.dumps({"command": args.command, "error": {
            "exit_code": code, "kind": kind, "message": message}}, sort_keys=True))
    return code


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser(load_config()).parse_args(argv)
        if args.cache_dir is not None:
            print("warning: --cache-dir is ignored; the Dirichlet cache is in memory only",
                  file=sys.stderr)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, or a usage error it has printed
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except ProductRejectedError as exc:
        return _fail(args, EXIT_REJECTED, "rejected", f"rejected: {exc.reason}")
    except ArithmeticError as exc:  # EpsUnachievableError among them
        return _fail(args, EXIT_NUMERIC, "numeric", f"numeric failure: {exc}")
    except (ParseError, SequenceError, ValueError, OSError) as exc:  # CatalogError is a ValueError
        return _fail(args, EXIT_USAGE, "usage", f"error: {exc}")


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()

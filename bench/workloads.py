"""The four benchmark workloads.

A workload is set up once (imports, input generation, declared cache
warm-up) and then runs rounds of ops.  An op is one certified evaluation
with an ``eps`` fixed here, checked against an independent reference from
``reference.py``.  An op fails if it raises, if its ``est_error`` exceeds
its ``eps``, or if it misses its reference by more than ``tol + est_error``;
failures are counted, never retried or dropped.

Only the calls into gtmprod are timed; input generation and reference
checks between them are not.  Times are CPU seconds (user + system) of the
process doing the work: ``process_time`` around an in-process call, and the
child's own CPU time for a command-line invocation.  On a shared virtual
machine wall time also counts the moments the host runs someone else; the
guest kernel leaves that stolen time out of CPU time.  ``worker.py``
scales them by the calibration loop (``calibrate.py``), to the power
``scale_power`` of the workload.  The program sees only the generated inputs.
Random choices come from ``random.Random(f"{name}:{seed}")``, except the
family batch, which is fixed (see ``FamilyBatch``).
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from time import process_time

import reference as ref
from calibrate import Probes


@dataclass
class Outcome:
    latency_s: float
    ok: bool
    est_error: float = math.nan
    eps: float = math.nan
    dlog: float = math.nan
    reason: str | None = None


def judge(latency, log_value, est, eps, ref_log, tol, reason=None) -> Outcome:
    """Pass iff est <= eps and |log_value - ref_log| <= tol + est."""
    dlog = abs(log_value - ref_log)
    if reason is None and not est <= eps:
        reason = f"est_error {est:.3e} exceeds eps {eps:.3e}"
    if reason is None and not dlog <= tol + est:
        reason = f"|dlog| {dlog:.3e} exceeds tol + est {tol + est:.3e}"
    return Outcome(latency, reason is None, est, eps, dlog, reason)


def children_cpu_s() -> float:
    """CPU seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def failed(latency, exc) -> Outcome:
    return Outcome(latency, False, reason=f"{type(exc).__name__}: {exc}")


class Workload:
    name = ""
    ops_per_round = 0
    # op times are multiplied by the calibration scale (calibrate.py) to this power
    scale_power = 1.0

    def __init__(self, root: Path, seed: int, tmp: Path, corrupt: bool):
        self.root = root
        self.tmp = tmp
        self.rng = random.Random(f"{self.name}:{seed}")
        self.corrupt = corrupt
        self.traced = False
        self.probes = Probes()  # measure() starts a fresh one per round

    def expected(self, value: float) -> float:
        """A reference value; with ``corrupt`` set the first one is made wrong."""
        if self.corrupt:
            self.corrupt = False
            return value + 1.0
        return value

    def setup(self):
        raise NotImplementedError

    def run_round(self, limit: int) -> tuple[list[Outcome], float]:
        """Run up to ``limit`` ops; return them and the CPU seconds spent in gtmprod.

        After each op that returns, ``self.probes.after`` times the calibration loop."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class CatalogCold(Workload):
    """``verify`` of the builtin catalog, cold: load, then every record with a
    fresh DirichletCache per pass, in a seeded order.  The load counts in the
    pass's time but is not an op."""

    name = "catalog_cold"
    TOL = 1e-8
    EPS = TOL / 4  # what verify requests per record

    def setup(self):
        import gtmprod.catalog
        import gtmprod.dirichlet

        self.catalog = gtmprod.catalog
        self.dirichlet = gtmprod.dirichlet
        entries = ref.read_catalog(self.root)
        self.ops_per_round = len(entries)
        self.ids = [e.id for e in entries]
        self.ref_log = {e.id: ref.closed_form_log(e.rhs) for e in entries}

    def run_round(self, limit):
        order = list(self.ids)
        self.rng.shuffle(order)
        order = order[:limit]
        t = process_time()
        try:
            records = {r.id: r for r in self.catalog.load_catalog("builtin")}
        except Exception as exc:  # a failed load fails the whole pass
            spent = process_time() - t
            return [failed(0.0, exc) for _ in order], spent
        spent = process_time() - t
        cache = self.dirichlet.DirichletCache()
        outs = []
        for rid in order:
            t = process_time()
            try:
                report = self.catalog.run_catalog([records[rid]], tol=self.TOL,
                                                  method="accel", cache=cache)
            except Exception as exc:
                outs.append(failed(process_time() - t, exc))
                continue
            lat = process_time() - t
            spent += lat
            self.probes.after(lat)
            (res,) = report.results
            reason = None if res.passed else f"record failed: {res.reason}"
            outs.append(judge(lat, math.log(res.lhs_value) if res.lhs_value > 0 else math.nan,
                              res.est_error, self.EPS, self.expected(self.ref_log[rid]),
                              self.TOL, reason))
        return outs, spent


# ---------------------------------------------------------------------------


def _positive_fraction(rng, upper=5) -> Fraction:
    den = rng.randint(1, 12)
    return Fraction(rng.randint(1, upper * den), den)


def _balanced_lists(rng, upper) -> tuple[list[Fraction], list[Fraction]]:
    """Positive a_1..a_d, b_1..b_d with equal sums, drawn as in the acceptance suite."""
    d = rng.randint(1, 3)
    a = [_positive_fraction(rng, upper) for _ in range(d)]
    b = [_positive_fraction(rng, upper) for _ in range(d - 1)]
    last = sum(a) - sum(b)
    if last <= 0:
        a[0] += 1 - last
        last += 1 - last
    b.append(last)
    return a, b


class FamilyBatch(Workload):
    """Functional-equation instances (Thm f and Thm frak, q = 2..5, drawn as in
    acceptance criterion 2) mixed with the 13 parametrized families (drawn as
    in criterion 3), against one DirichletCache warmed in setup for every
    sequence used.  A round evaluates the whole batch in a seeded order.

    The batch itself is drawn from a fixed generator, not from the seed.
    Op cost is heavy-tailed: the divisor scan in ``integer_zeros_poles``
    grows with the heights of the parameters, and single ops took from 0.03
    to 1.8 s.  With a batch drawn per seed, ``ops_per_s`` spread by 40% of
    its median over five seeds, more than any regression bound allows.
    """

    name = "family_batch"
    TOL = 1e-7
    EPS = 1e-8
    PATTERNS_PER_Q = 2
    BLOCKS = 3  # each: thm_f and thm_frak for q = 2..5, then eight families
    FAMILIES_PER_BLOCK = 8
    WARM_ORDERS = 16
    FAMILIES = [
        "shifted_ratio_family", "zero_sum_family", "symmetric_pair_family",
        "tm_gamma_ratio_family", "tm_three_parameter_family", "tm_beta_like_family",
        "tm_beta_like_reciprocal_family", "tm_power_of_two_family",
        "tm_power_over_linear_family", "tm_cosine_family", "tm_scaled_cosine_family",
        "tm_quartic_reflection_family", "tm_factorial_family",
    ]
    WITH_SEQUENCE = FAMILIES[:3]

    def setup(self):
        import gtmprod.dirichlet
        import gtmprod.evaluator
        import gtmprod.families
        import gtmprod.sequences

        self.ev = gtmprod.evaluator
        self.families = gtmprod.families
        draw = random.Random(f"{self.name}:batch")
        self.pool = {2: ["1"]}
        for q in (3, 4, 5):
            self.pool[q] = draw.sample(_nontrivial_patterns(q), self.PATTERNS_PER_Q)
        self.batch = self._draw_batch(draw)
        self.ops_per_round = len(self.batch)
        self.expected_log = [self._reference(*inst) for inst in self.batch]
        make = gtmprod.sequences.make_sequence
        self.seqs = {(q, bits): make("gtm", q, bits=bits)
                     for q, pats in self.pool.items() for bits in pats}
        self.cache = gtmprod.dirichlet.DirichletCache()
        for seq in self.seqs.values():
            for s in range(1, self.WARM_ORDERS + 1):
                gtmprod.dirichlet.dirichlet_mp(seq, s, self.cache)
        for s in range(2, self.WARM_ORDERS + 1):
            gtmprod.dirichlet.zeta_mp(s, self.cache)

    def _draw_batch(self, rng):
        out = []
        rotation = 0
        for _ in range(self.BLOCKS):
            for q in (2, 3, 4, 5):
                a, b = _positive_fraction(rng), _positive_fraction(rng)
                out.append(("thm_f", (q, rng.choice(self.pool[q])), (a, b)))
                out.append(("thm_frak", (q, rng.choice(self.pool[q])), _balanced_lists(rng, 5)))
            for _ in range(self.FAMILIES_PER_BLOCK):
                name = self.FAMILIES[rotation % len(self.FAMILIES)]
                rotation += 1
                key = None
                if name in self.WITH_SEQUENCE:
                    q = rng.randint(2, 4)
                    key = (q, rng.choice(self.pool[q]))
                out.append((name, key, self._family_params(rng, name)))
        return out

    @staticmethod
    def _family_params(rng, name):
        if name in ("shifted_ratio_family", "tm_three_parameter_family"):
            return tuple(_positive_fraction(rng, 3) for _ in range(3))
        if name == "zero_sum_family":
            zs = [Fraction(rng.randint(1, 10), rng.randint(25, 40))
                  for _ in range(rng.randint(1, 2))]
            return (zs + [-sum(zs)],)
        if name == "tm_gamma_ratio_family":
            return _balanced_lists(rng, 3)
        if name in ("tm_beta_like_family", "tm_beta_like_reciprocal_family"):
            return (_positive_fraction(rng, 2), _positive_fraction(rng, 2))
        if name in ("tm_power_of_two_family", "tm_power_over_linear_family"):
            return (_positive_fraction(rng, 2),)
        if name == "tm_factorial_family":
            return (rng.randint(1, 6),)
        return (Fraction(rng.randint(1, 19), 20),)  # symmetric pair, cosines, quartic

    @staticmethod
    def _reference(kind, key, params) -> float:
        signs = ref.pattern_signs(f"gtm:{key[0]}:{key[1]}") if key else ref.TM_SIGNS
        if kind == "thm_f":
            return ref.scaling_log(signs, *params)
        if kind == "thm_frak":
            return ref.gamma_ratio_log(signs, *params)
        return ref.family_log(kind, params, signs)

    def _build(self, kind, key, params):
        seq = self.seqs[key] if key else None
        if kind == "thm_f":
            term, _ = self.ev.build_scaling_term(seq, *params)
            return seq, "delta", term
        if kind == "thm_frak":
            term, _ = self.ev.build_gamma_ratio_term(seq, *params)
            return seq, "theta", term
        builder = getattr(self.families, kind)
        built = builder(seq, *params) if key else builder(*params)
        return built[0], built[1], built[2]

    def run_round(self, limit):
        order = list(range(len(self.batch)))
        self.rng.shuffle(order)
        outs, spent = [], 0.0
        for i in order[:limit]:
            kind, key, params = self.batch[i]
            expected = self.expected(self.expected_log[i])
            t = process_time()
            try:
                seq, mode, term = self._build(kind, key, params)
                res = self.ev.evaluate_product(self.ev.ProductSpec(seq, mode, 1, term),
                                               eps=self.EPS, cache=self.cache)
            except Exception as exc:
                outs.append(failed(process_time() - t, exc))
                continue
            lat = process_time() - t
            spent += lat
            self.probes.after(lat)
            outs.append(judge(lat, res.log_value, res.est_error, self.EPS, expected, self.TOL))
        return outs, spent


def _nontrivial_patterns(q) -> list[str]:
    return ["".join(b) for b in product("01", repeat=q - 1) if "1" in b]


# ---------------------------------------------------------------------------


class OracleCrosscheck(Workload):
    """Acceptance criterion 8 per record: the accelerated value against the
    direct oracle at N = q^12, plus, in theta mode, the plain-product
    consistency 2 log P_theta + log P_delta = log prod R(n).

    A round is one op per slot: a seeded q = 2 theta record with six
    factors, a seeded dcount record (two factors) for q = 3, g1.q4.k2,
    g1.q4.k3 and g1.q5.k4.  Direct-sum cost grows with q^12 and with the
    number of factors, and ladder cost with the pattern, so each slot holds
    records of one cost.  With five ops a round, the median op is a q = 4
    one, and those two records cost the same (0.74 and 0.76 s; the third
    dcount:4 record costs 0.84 s).  With four, the median fell between
    the q = 3 and the q = 4 op, and moved with both.
    The q = 5 slot is fixed because peak
    memory depends on the record: ``delta_prefix`` holds a negated copy of
    the previous block while it writes the block of each minus digit, and
    dcount:5:4, whose minus digit comes last, peaks about 47 MB above the
    other three (381 against 334 MB).  It is the worst case of the four.
    Each op gets a fresh DirichletCache, so its cost does not depend on
    earlier ops.
    """

    name = "oracle_crosscheck"
    TOL = 1e-8
    EPS = 1e-9
    ops_per_round = 5
    # The op cost is partly interpreter work and partly numpy passes over
    # arrays of up to 244 MB, which move with the memory system more than
    # with the calibration loop.  Across two sets of ten seeds, the op
    # times moved with the loop time to a power of 0.3 to 0.5 in one set
    # and 1.25 in the other.  Recomputed with the square root of the loop
    # ratio, the spread of both metrics stayed at or below 0.086 of the
    # median in both sets, against up to 0.13 unscaled and 0.18 fully scaled.
    scale_power = 0.5

    def setup(self):
        import gtmprod.dirichlet
        import gtmprod.evaluator
        import gtmprod.ratfun
        import gtmprod.sequences

        self.ev = gtmprod.evaluator
        self.ratfun = gtmprod.ratfun
        self.sequences = gtmprod.sequences
        self.DirichletCache = gtmprod.dirichlet.DirichletCache
        entries = ref.read_catalog(self.root)
        self.slots = [[e for e in entries if e.q == 2 and e.mode == "theta" and e.factors == 6]]
        self.slots.append([e for e in entries if e.seqspec.startswith("dcount:3:")])
        self.slots += [[e for e in entries if e.id == rid]
                       for rid in ("g1.q4.k2", "g1.q4.k3", "g1.q5.k4")]
        self.ref_log = {e.id: ref.closed_form_log(e.rhs) for e in entries}
        self.plain_log = {e.id: ref.plain_product_log(e.lhs, e.start)
                          for e in entries if e.mode == "theta"}

    def _op(self, entry):
        cache = self.DirichletCache()
        spec = self.ev.ProductSpec(self.sequences.parse_seq_spec(entry.seqspec), entry.mode,
                                   entry.start, self.ratfun.parse_product_term(entry.lhs))
        accel = self.ev.evaluate_product(spec, eps=self.EPS, cache=cache)
        direct = self.ev.evaluate_direct(spec, spec.seq.q**12, cache=cache)
        delta = None
        if entry.mode == "theta":
            delta_spec = self.ev.ProductSpec(spec.seq, "delta", spec.start, spec.term)
            delta = self.ev.evaluate_product(delta_spec, eps=self.EPS, cache=cache)
        return accel, direct, delta

    def run_round(self, limit):
        outs, spent = [], 0.0
        for slot in self.slots[:limit]:
            entry = self.rng.choice(slot)
            expected = self.expected(self.ref_log[entry.id])
            t = process_time()
            try:
                accel, direct, delta = self._op(entry)
            except Exception as exc:
                outs.append(failed(process_time() - t, exc))
                continue
            lat = process_time() - t
            spent += lat
            self.probes.after(lat)
            reason = None
            gap = abs(accel.log_value - direct.log_value)
            if not gap <= accel.est_error + direct.est_error:
                reason = f"accel vs direct gap {gap:.3e} over budget"
            if delta is not None:
                combined = 2.0 * accel.log_value + delta.log_value
                miss = abs(combined - self.plain_log[entry.id])
                if not miss <= 2.0 * accel.est_error + delta.est_error + 1e-10:
                    reason = f"theta plain-product consistency off by {miss:.3e}"
            outs.append(judge(lat, accel.log_value, accel.est_error, self.EPS, expected,
                              self.TOL, reason))
        return outs, spent


# ---------------------------------------------------------------------------


class CliSession(Workload):
    """A seeded script of gtmprod command-line invocations sharing one
    cache directory.  Each round runs, in order: eval (a q = 2 theta record),
    check, eval (a q = 3 record), dirichlet (writes the persisted cache), eval
    (a q = 5 record) and a one-record verify (a q = 3 record).  The latency
    of an op is the child's CPU time: interpreter start, imports and the
    command.  Children start through
    ``cli_child.py``, which runs ``gtmprod.cli.main`` and records the
    child's own peak memory.

    Each slot draws from records of one sequence kind and factor count, so
    that its cost does not depend on the seed.  With the mix fixed per
    round, the median falls among the evals and the 90th percentile among
    the verifies.  The dirichlet calls walk a seeded order of nine distinct
    (sequence, s) pairs, so a persisted value is not hit by accident.
    """

    name = "cli_session"
    EVAL_TOL = 1e-9
    VERIFY_TOL = 1e-8
    VERIFY_EPS = VERIFY_TOL / 4  # what verify requests per record
    DIRICHLET_EPS = 1e-12
    ops_per_round = 6
    TIMEOUT_S = 120

    def setup(self):
        entries = ref.read_catalog(self.root)
        self.eval_slots = [
            [e for e in entries if e.q == 2 and e.mode == "theta" and e.factors == 6],
            [e for e in entries if e.seqspec.startswith("gtm:3:") and e.factors == 4],
            [e for e in entries if e.q == 5 and e.factors == 2],
        ]
        self.verify_slot = self.eval_slots[1]
        self.dirichlet_pairs = [(f"gtm:3:{bits}", s) for bits in ("01", "10", "11")
                                for s in (3, 4, 5)]
        self.rng.shuffle(self.dirichlet_pairs)
        self.rounds_started = 0
        self.ref_log = {}
        cache_dir = self.tmp / "cache"
        cache_dir.mkdir()
        config = self.tmp / "config.json"
        config.write_text("{}\n")
        self.env = dict(os.environ, GTMPROD_CACHE_DIR=str(cache_dir),
                        GTMPROD_CONFIG=str(config))
        self.cache_file = cache_dir / "dirichlet.cache"
        self.span_files: list[Path] = []
        self.child_peak_mb = 0.0
        # untimed, cache-free: compiles and loads bytecode before timing starts
        self._run(["check", "--term", "(2n+1)/(2n+2)", "--mode", "delta"])

    def _run(self, args) -> tuple[float, subprocess.CompletedProcess]:
        spans = "-"
        if self.traced:
            spans = self.tmp / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
        peak = self.tmp / "peak.txt"
        peak.unlink(missing_ok=True)
        cmd = [sys.executable, str(self.root / "bench" / "cli_child.py"), str(peak), str(spans)]
        before = children_cpu_s()
        proc = subprocess.run(cmd + list(args), env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=self.TIMEOUT_S)
        lat = children_cpu_s() - before
        if peak.exists():
            self.child_peak_mb = max(self.child_peak_mb, int(peak.read_text()) / 1024.0)
        return lat, proc

    def _closed(self, entry) -> float:
        if entry.id not in self.ref_log:
            self.ref_log[entry.id] = ref.closed_form_log(entry.rhs)
        return self.ref_log[entry.id]

    def _script(self):
        rng = self.rng
        pair = self.dirichlet_pairs[self.rounds_started % len(self.dirichlet_pairs)]
        self.rounds_started += 1
        a, b, c = (rng.choice(slot) for slot in self.eval_slots)
        return [("eval", a), ("check", self._check_term()), ("eval", b),
                ("dirichlet", pair), ("eval", c), ("verify", rng.choice(self.verify_slot))]

    def _check_term(self):
        """((a n + b)(a n + c))/((a n + d)^2): delta-convergent always,
        theta-convergent iff b + c = 2 d (equal root sums)."""
        rng = self.rng
        a, b = rng.randint(2, 9), rng.randint(1, 9)
        c = b + 2 * rng.randint(1, 4)
        d = (b + c) // 2 + rng.choice((0, 0, 1))
        return f"(({a}n+{b})({a}n+{c}))/(({a}n+{d})^2)", (0 if 2 * d == b + c else 3)

    def _judge(self, kind, arg, lat, proc) -> Outcome:
        try:
            if kind == "check":
                _, want = arg
                said = proc.stdout.strip()
                if proc.returncode != want or (said == "ok") != (want == 0):
                    return Outcome(lat, False, reason=f"check exit {proc.returncode} ({said}), "
                                                      f"want {want}")
                return Outcome(lat, True)
            if proc.returncode != 0:
                return Outcome(lat, False, reason=f"{kind} exit {proc.returncode}: "
                                                  f"{proc.stderr.strip()[-200:]}")
            out = json.loads(proc.stdout)
            if kind == "eval":
                return judge(lat, out["log_value"], out["est_error"], self.EVAL_TOL,
                             self.expected(self._closed(arg)), self.EVAL_TOL)
            if kind == "dirichlet":
                value, err = ref.dirichlet_reference(*arg)
                expected = self.expected(value)
                miss = abs(out["value"] - expected)
                reason = None
                if not miss <= out["eps_achieved"] + err:
                    reason = f"F(s) off by {miss:.3e}"
                return Outcome(lat, reason is None and out["eps_achieved"] <= self.DIRICHLET_EPS,
                               out["eps_achieved"], self.DIRICHLET_EPS, miss, reason)
            (res,) = out["results"]
            reason = None if res["pass"] and res["id"] == arg.id else "record did not pass"
            return judge(lat, math.log(res["lhs_value"]), res["est_error"], self.VERIFY_EPS,
                         self.expected(self._closed(arg)), self.VERIFY_TOL, reason)
        except (ValueError, KeyError, TypeError) as exc:
            return failed(lat, exc)

    def run_round(self, limit):
        outs, spent = [], 0.0
        for kind, arg in self._script()[:limit]:
            if kind == "eval":
                args = ["--format", "json", "eval", "--seq", arg.seqspec, "--mode", arg.mode,
                        "--from", str(arg.start), "--term", arg.lhs, "--tol", str(self.EVAL_TOL)]
            elif kind == "check":
                args = ["check", "--term", arg[0], "--mode", "theta"]
            elif kind == "dirichlet":
                args = ["--format", "json", "dirichlet", "--seq", arg[0], "--s", str(arg[1]),
                        "--eps", str(self.DIRICHLET_EPS)]
            else:
                args = ["--format", "json", "verify", "--filter", arg.id,
                        "--tol", str(self.VERIFY_TOL)]
            try:
                lat, proc = self._run(args)
            except subprocess.TimeoutExpired as exc:
                outs.append(failed(self.TIMEOUT_S, exc))
                spent += self.TIMEOUT_S
                continue
            spent += lat
            self.probes.after(lat)
            outs.append(self._judge(kind, arg, lat, proc))
        return outs, spent


WORKLOADS = {w.name: w for w in (CatalogCold, FamilyBatch, OracleCrosscheck, CliSession)}

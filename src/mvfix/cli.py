"""Command line interface.

Subcommands: ``certify`` sweeps pairs and reports the empirical
contraction modulus, ``solve`` runs the nearest-point iteration and
validates its decay law, ``paper-demo`` audits the built-in worked
example against its published values, and ``check-f`` probes the axioms
of a gauge function.

Reports carry a human-readable section followed by a fenced
``---machine---`` block of ``key=value`` rows; floats are printed with
17 significant digits so they round-trip to the exact binary64 value,
and repeated runs with the same seed produce byte-identical blocks.

Exit codes: 0 ok, 1 error, 2 iteration budget exhausted, 3 certificate
violated, 4 certificate vacuous.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import MODES, CertificateReport, certify
from .config import (
    ProblemConfig,
    build_ffunction,
    build_integrand,
    build_map,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .errors import ConfigError, MvfixError
from .ffunctions import F_KINDS, FFunction, check_f1, check_f2_f3, check_f4
from .integrand import Integrand, integrand_label
from .maps import MultiMap
from .sets1d import CompactSet
from .solver import (
    FixedPointFound,
    IterationError,
    IterationTrace,
    MaxIterReached,
    TraceVerdict,
    iterate,
    validate_trace,
)
from .worked_example import WorkedExampleReport, run_worked_example

__all__ = [
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_BUDGET",
    "EXIT_VIOLATED",
    "EXIT_VACUOUS",
    "TRACE_COLUMNS",
    "fmt_value",
    "machine_block",
    "extract_machine_block",
    "write_trace_csv",
    "read_trace_csv",
    "main",
    "run",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
EXIT_VIOLATED = 3
EXIT_VACUOUS = 4

TRACE_COLUMNS = ("n", "x", "next", "d_to_set", "gamma", "F_gamma", "n_gamma_k")


def fmt_value(v) -> str:
    """Render one machine-block value; floats keep 17 significant digits."""
    if v is None:
        return "undefined"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def machine_block(rows: Sequence[tuple[str, object]]) -> str:
    lines = ["---machine---"]
    lines.extend(f"{key}={fmt_value(value)}" for key, value in rows)
    lines.append("---end---")
    return "\n".join(lines) + "\n"


def extract_machine_block(text: str) -> dict[str, str]:
    """Parse the fenced key=value block out of a report."""
    inside = False
    rows: dict[str, str] = {}
    for line in text.splitlines():
        if line.strip() == "---machine---":
            inside = True
            continue
        if line.strip() == "---end---":
            break
        if inside and "=" in line:
            key, _, value = line.partition("=")
            rows[key] = value
    return rows


# Exact %.17g of float64s: |v| * 10**(16 - E) rounded once in x87 precision, where 10**27 is exact
# (10**0 and 10**28 only serve a log10 one off at the ends of the fast range)
_X87 = np.finfo(np.longdouble).nmant == 63
_POW10 = np.cumprod(np.r_[1, np.full(28, 10)].astype(np.longdouble))
_QUADS = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10  # digits of 0 .. 9999
_TRAILING_ZEROS = (_QUADS[:, ::-1].cumsum(axis=1) == 0).sum(axis=1).astype(np.uint8)
_QUADS = (_QUADS + 48).astype(np.uint8).view("<u4").ravel()  # "0000" .. "9999", in byte order
_QUAD_WORDS = _QUADS.astype(np.uint64), _QUADS.astype(np.uint64) << 32  # as low, high half-word
_BLOCK = 1024  # rows


def _slot_layouts() -> tuple[np.ndarray, ...]:
    """Where a fast value's digits go, by class ``17 * (E + 11) + sig - 1``.

    Digit i of the 17 is byte 7 + i of three 64-bit words.  The lead
    digits, those before the point, move 6 bytes down to byte 1 + i, the
    kept tail digits 5 bytes down to byte 2 + i, past the point in byte
    1 + p, and an exponent "e-05" fills bytes 19 to 22; for 1e-4 <= |v| < 1
    every kept digit moves 1 byte down, past "0.000" in bytes 1 to 5.
    Byte 0 is the sign.  Returns the lead masks, tail masks and fixed text
    of each class as words (the text of a negative value 459 classes on),
    and the tail shift in bits.
    """
    lead, tail, text = (np.zeros((459, 24), np.uint8) for _ in range(3))
    shift = np.full(459, 40, np.uint64)
    for c in range(459):
        e, sig = c // 17 - 11, c % 17 + 1
        if -4 <= e < 0:
            tail[c, 7 : 7 + sig] = 255
            text[c, 1 : 2 - e] = list(b"0." + b"0" * (-e - 1))
            shift[c] = 8
            continue
        p = max(e + 1, 1)  # digits before the point
        lead[c, 7 : 7 + p] = 255
        tail[c, 7 + p : 7 + max(sig, p)] = 255
        text[c, 1 + p] = ord(".") * (sig > p)
        if e < 0:
            text[c, 19:23] = list(b"e-%02d" % -e)
    text = np.concatenate([text, text])
    text[459:, 0] = ord("-")
    lead, tail = (np.ascontiguousarray(t.view(np.uint64).T) for t in (lead, tail))
    return lead, tail, text.view(np.uint64), shift


_LEAD, _TAIL, _TEXT, _SHIFT = _slot_layouts()


def _divmod(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    q = x // d  # np.divmod and % take several times as long
    r = q * d
    return q, np.subtract(x, r, out=r)


def _format_g17(v: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` for each x of ``v``, as rows of 24 NUL-padded bytes.

    The 17 digits are ``|x| * 10**(16 - E)`` rounded once in x87 extended
    precision, as one digit and four 4-digit groups; each slot is put
    together as three 64-bit words by the tables of :func:`_slot_layouts`.
    Values that are not finite, lie outside (1e-11, 1e16) or whose product
    has a fraction of exactly 1/2 fall back to ``"%.17g" % x``, as does
    every value where ``np.longdouble`` is not the x87 format.
    """
    a = np.abs(v)
    fast = (a > 1e-11) & (a < 1e16) & _X87
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int8)
    r = a.astype(np.longdouble)
    r *= _POW10.take(16 - e)
    n = r.astype(np.int64)
    off = np.flatnonzero((n >= 10**17) | (n < 10**16))  # log10 is one off below 10**k
    if off.size:
        e[off] += (n[off] >= 10**17).astype(np.int8) - (n[off] < 10**16)
        r[off] = a[off].astype(np.longdouble) * _POW10.take(16 - e[off])  # not r * 10: one rounding
    del a
    r += 0.5  # exact: ulp(r) <= 2**-7, so r + 1/2 keeps its fraction
    n = r.astype(np.int64)  # r rounded half up, on the exact product's side of 1/2 unless == 1/2
    fast &= r != n
    del r
    # now |v| rounds to n * 10**(e - 16) where fast, with n of 17 digits (no product in the fast
    # range rounds up to 10**17: the nearest comes within 4.5 of it); d0 and the quads of n, as
    # the halves of three words: (pad, d0), (q1, q2), (q3, q4)
    low, high = np.zeros((3, len(v)), np.int64), np.empty((3, len(v)), np.int64)
    high[0], n = _divmod(n, 10**16)
    low[1], low[2] = _divmod(n, 10**8)
    low[1:], high[1:] = _divmod(low[1:], 10**4)
    (zeros, z3), (z2, z4) = _TRAILING_ZEROS.take(low[1:]), _TRAILING_ZEROS.take(high[1:])
    for z in z2, z3, z4:
        zeros *= z == 4
        zeros += z  # trailing zeros of the digits after d0, which is never 0
    c = e.astype(np.intp) * 17 + (203 - zeros)  # the class, with sig = 17 - zeros
    del n, e, zeros, z2, z3, z4
    w = _QUAD_WORDS[0].take(low)
    del low
    w |= _QUAD_WORDS[1].take(high)  # digit i in byte 7 + i
    del high
    lead = _LEAD.take(c, axis=1)
    lead &= w
    words = lead >> 48
    lead[1:] <<= 16  # in place: a (2, n) temporary here was the kernel's memory peak
    words[:2] |= lead[1:]
    del lead
    tail = _TAIL.take(c, axis=1)
    tail &= w
    del w
    shift = _SHIFT.take(c)
    words[:2] |= tail[1:] << (64 - shift)
    tail >>= shift
    words |= tail
    del tail, shift
    out = _TEXT.take(c + np.signbit(v) * 459, axis=0)
    np.bitwise_or(out.T, words, out=out.T)
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = np.array(["%.17g" % x for x in v[slow].tolist()], "S24")[:, None].view(np.uint8)
    return out


def write_trace_csv(path: Path, trace: IterationTrace, F: FFunction) -> None:
    """Serialize the recorded steps, every float as ``"%.17g"``, so it round-trips exactly.

    ``F_gamma`` and ``n_gamma_k`` come from :meth:`IterationTrace.decay_columns`,
    so a gamma that underflowed to 0 gets ``F_gamma = -inf``.  Rows go out
    in blocks of 1,024 through one buffer of 25-byte fields, each a 24-byte
    NUL-padded slot and its separator; the row bytes are the buffer with
    the NULs squeezed out.  One :func:`_format_g17` call per block formats
    the row index ``n`` as a whole float (below 2**53 its ``%.17g`` is its
    ``%d``), the float fields and, in the first block, ``x0``.  Row n's
    ``x`` reuses row n-1's ``next`` slot, and ``gamma`` the ``d`` slot
    where the two have equal bits.
    """
    f_gamma, n_gamma_k = trace.decay_columns(F)
    cols = (trace.next_point, trace.d_to_set, f_gamma, n_gamma_k, trace.gamma)
    with open(path, "wb") as fh:
        fh.write((",".join(TRACE_COLUMNS) + "\n").encode())
        raw = bytearray(_BLOCK * 7 * 25)
        buf = np.frombuffer(raw, np.uint8).reshape(_BLOCK, 7, 25)
        buf[:, :, 24] = list(b",,,,,,\n")
        fields = buf[:, :, :24].view("V24")[:, :, 0]
        for start in range(0, len(trace.x), _BLOCK):
            nxt, d, fg, w, gamma = (c[start : start + _BLOCK] for c in cols)
            rows, first = len(nxt), int(start == 0)
            own = gamma.view(np.int64) != d.view(np.int64)
            n = np.arange(start, start + rows, dtype=float)
            values = np.concatenate([trace.x[:first], n, nxt, d, fg, w, gamma[own]])
            slots = _format_g17(values).view("V24")[:, 0]
            block = fields[:rows]
            block[0, 1] = slots[0] if first else fields[-1, 2]  # x0, or the last block's last next
            slots = slots[first:]
            for i, k in enumerate((0, 2, 3, 5, 6)):
                block[:, k] = slots[i * rows : (i + 1) * rows]
            block[:, 4] = block[:, 3]
            block[own, 4] = slots[5 * rows :]
            block[1:, 1] = block[:-1, 2]
            fh.write((raw if rows == _BLOCK else raw[: rows * 7 * 25]).translate(None, b"\0"))


def read_trace_csv(path: Path) -> list[tuple[int, float, float, float, float, float, float]]:
    """Read a trace CSV back; an ``MvfixError`` names the line of a bad header, row or field."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MvfixError("trace line 1: empty file, expected the header")
        if tuple(header) != TRACE_COLUMNS:
            raise MvfixError(f"unexpected trace header {tuple(header)!r}")
        rows = []
        for row in reader:
            try:
                if len(row) != len(TRACE_COLUMNS):
                    raise ValueError(f"expected {len(TRACE_COLUMNS)} fields, got {len(row)}")
                rows.append((int(row[0]),) + tuple(float(v) for v in row[1:]))
            except ValueError as err:
                raise MvfixError(f"trace line {reader.line_num}: {err}") from None
    return rows


def _format_certify_report(
    cfg: ProblemConfig, T: MultiMap, f: Integrand, report: CertificateReport
) -> str:
    lines = [
        "contraction certificate",
        "=======================",
        f"map: {T.describe()}",
        f"domain: {T.domain!r}",
        f"mode: {report.mode}   F: {cfg.f.kind} (k = {cfg.f.k:g})   integrand: "
        f"{integrand_label(f)}",
        f"pairs: {report.evaluated_pairs} evaluated, {report.vacuous_pairs} vacuous, "
        f"{report.error_count} errors, {report.violation_count} violations",
    ]
    if report.tau_star is None:
        lines.append("tau_star: undefined (no pair produced distinct value sets)")
    else:
        lines.append(f"tau_star: {fmt_value(report.tau_star)}")
        w = report.worst_pair
        lines.append(
            f"worst pair: x = {fmt_value(w.x)}, y = {fmt_value(w.y)} "
            f"(h = {fmt_value(w.h)}, m = {fmt_value(w.m)}, margin = {fmt_value(w.margin)})"
        )
    if report.errors:
        lines.append("first error: x = {}, y = {}: {}".format(*report.errors[0]))
    lines.append("note: empirical modulus over sampled pairs, not a proof")
    lines.append("")

    rows: list[tuple[str, object]] = [
        ("command", "certify"),
        ("mode", report.mode),
        ("seed", report.seed),
        ("grid_size", report.grid_size),
        ("random_pairs", report.random_pairs),
        ("evaluated_pairs", report.evaluated_pairs),
        ("vacuous_pairs", report.vacuous_pairs),
        ("error_count", report.error_count),
        ("violation_count", report.violation_count),
        ("tau_star", report.tau_star),
    ]
    if report.worst_pair is not None:
        rows.extend(
            [
                ("worst_x", report.worst_pair.x),
                ("worst_y", report.worst_pair.y),
                ("worst_h", report.worst_pair.h),
                ("worst_m", report.worst_pair.m),
                ("worst_margin", report.worst_pair.margin),
            ]
        )
    lines.append(machine_block(rows))
    return "\n".join(lines)


def _certify_exit_code(report: CertificateReport) -> int:
    if report.tau_star is None:
        return EXIT_ERROR if report.errors else EXIT_VACUOUS
    if report.violation_count:
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_certify(cfg: ProblemConfig) -> tuple[str, int]:
    T = build_map(cfg)
    f = build_integrand(cfg)
    report = certify(
        T,
        build_ffunction(cfg),
        f,
        grid_size=cfg.grid_size,
        random_pairs=cfg.random_pairs,
        seed=cfg.seed,
        mode=cfg.mode,
    )
    return _format_certify_report(cfg, T, f, report), _certify_exit_code(report)


def _outcome_fields(trace: IterationTrace) -> tuple[str, float]:
    outcome = trace.outcome
    if isinstance(outcome, FixedPointFound):
        return "fixed_point_found", outcome.x
    if isinstance(outcome, MaxIterReached):
        return "max_iter_reached", outcome.last_x
    return "error", outcome.last_x


def _format_solve_report(
    cfg: ProblemConfig,
    T: MultiMap,
    trace: IterationTrace,
    verdict: TraceVerdict | None,
    skip_reason: str | None,
    trace_path: Path | None,
) -> str:
    name, final_x = _outcome_fields(trace)
    lines = [
        "fixed-point iteration",
        "=====================",
        f"map: {T.describe()}",
        f"domain: {T.domain!r}",
        f"x0 = {fmt_value(cfg.x0)}   tol = {fmt_value(cfg.tol)}   max_iter = {cfg.max_iter}",
        f"outcome: {name}",
        f"final x: {fmt_value(final_x)}",
        f"recorded steps: {len(trace.x)}",
    ]
    if isinstance(trace.outcome, FixedPointFound):
        lines.append(f"halted at step {trace.outcome.step}")
    if isinstance(trace.outcome, IterationError):
        lines.append(f"error: {trace.outcome.detail}")
    if trace_path is not None:
        lines.append(f"trace written to {trace_path.name}")
    if verdict is None:
        lines.append(f"validation: skipped ({skip_reason})")
    else:
        lines.append(
            "validation: decay_chain_ok = {}, n1 = {}, rate_bound_ok = {}".format(
                fmt_value(verdict.decay_chain_ok),
                fmt_value(verdict.n1),
                fmt_value(verdict.rate_bound_ok),
            )
        )
        if verdict.first_failure is not None:
            lines.append(f"first decay failure at n = {verdict.first_failure}")
        lines.append(f"cauchy tail bound: {fmt_value(verdict.cauchy_tail_bound)}")
    lines.append("")

    rows: list[tuple[str, object]] = [
        ("command", "solve"),
        ("outcome", name),
        ("final_x", final_x),
        ("steps", len(trace.x)),
        ("tol", cfg.tol),
        ("max_iter", cfg.max_iter),
    ]
    if verdict is None:
        rows.append(("validated", "skipped"))
        rows.append(("decay_chain_ok", "skipped"))
        rows.append(("rate_bound_ok", "skipped"))
    else:
        rows.extend(
            [
                ("validated", True),
                ("decay_chain_ok", verdict.decay_chain_ok),
                ("first_failure", verdict.first_failure),
                ("n1", verdict.n1),
                ("rate_bound_ok", verdict.rate_bound_ok),
                ("cauchy_tail_bound", verdict.cauchy_tail_bound),
            ]
        )
    lines.append(machine_block(rows))
    return "\n".join(lines)


def cmd_solve(cfg: ProblemConfig, out_dir: Path | None) -> tuple[str, int]:
    if cfg.x0 is None:
        raise ConfigError("solve requires 'x0' in the configuration")
    T = build_map(cfg)
    F = build_ffunction(cfg)
    f = build_integrand(cfg)
    trace = iterate(T, cfg.x0, tol=cfg.tol, max_iter=cfg.max_iter, f=f)

    verdict: TraceVerdict | None = None
    skip_reason: str | None = None
    positive_steps = int(np.count_nonzero(trace.gamma > 0.0))
    if cfg.tau is None:
        skip_reason = "no tau configured"
    elif positive_steps < 2:
        skip_reason = f"only {positive_steps} positive-gamma steps recorded"
    else:
        verdict = validate_trace(trace, F, cfg.tau)

    trace_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / "trace.csv"
        write_trace_csv(trace_path, trace, F)

    text = _format_solve_report(cfg, T, trace, verdict, skip_reason, trace_path)
    if isinstance(trace.outcome, IterationError):
        return text, EXIT_ERROR
    if isinstance(trace.outcome, MaxIterReached):
        return text, EXIT_BUDGET
    if verdict is not None and not (verdict.decay_chain_ok and verdict.rate_bound_ok):
        return text, EXIT_VIOLATED
    return text, EXIT_OK


def _format_demo_report(report: WorkedExampleReport) -> str:
    lines = [
        "worked example audit: T(x) = [x/4, (x+1)/2] on [0, 1]",
        "=====================================================",
    ]
    for line in report.lines:
        if line.published is not None:
            lines.append(
                f"{line.label} = {fmt_value(line.value)} "
                f"(paper: {line.published} -- {line.note})"
            )
        else:
            lines.append(f"{line.label} = {fmt_value(line.value)} ({line.note})")
    lines.append("")
    lines.append("step-size table, h_n = 1/(4 n (n+1)), phi = 1, F = ln, k = 0.5:")
    lines.append(f"{'n':>4} {'h':>12} {'gamma':>12} {'F(gamma)':>12} {'n*g^k':>12} {'g^k*F':>12}")
    for row in report.probe.rows:
        lines.append(
            f"{row.n:>4} {row.h:>12.6g} {row.gamma:>12.6g} {row.f_gamma:>12.6g} "
            f"{row.n_gamma_k:>12.6g} {row.gamma_k_f_gamma:>12.6g}"
        )
    lines.append(
        f"F(gamma_n) strictly decreasing: {fmt_value(report.probe.f_gamma_decreasing)}; "
        f"|gamma^k F| eventually decreasing: {fmt_value(report.probe.weight_decreasing)}"
    )
    lines.append("")
    lines.append("value-set convergence toward T(0) = [0, 1/2]:")
    for n, dist in report.set_limit_rows:
        lines.append(f"  n = {n:>9}: hausdorff(T(1/n), T(0)) = {fmt_value(dist)}")
    lines.append("")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    lines.append("")

    rows: list[tuple[str, object]] = [("command", "paper-demo")]
    for line in report.lines:
        rows.append((line.key, line.value))
        rows.append((line.key + "_ok", line.matches))
    rows.append(("f_gamma_decreasing", report.probe.f_gamma_decreasing))
    rows.append(("weight_decreasing", report.probe.weight_decreasing))
    rows.append(("overall", "pass" if report.passed else "fail"))
    lines.append(machine_block(rows))
    return "\n".join(lines)


def cmd_paper_demo() -> tuple[str, int]:
    report = run_worked_example()
    return _format_demo_report(report), EXIT_OK if report.passed else EXIT_VIOLATED


def cmd_check_f(kind: str, k: float) -> tuple[str, int]:
    F = FFunction(kind, k)
    v1 = check_f1(F)
    v23 = check_f2_f3(F)
    v4 = check_f4(F, CompactSet([(1.0, 2.0), (5.0, 5.0)]))
    lines = [
        f"gauge function check: kind = {kind}, k = {k:g}",
        f"(F1) strictly increasing on the default grid: "
        f"{'pass' if v1.passed else f'fail at pair {v1.first_violation}'}",
        f"(F2) {'pass' if v23.f2_passed else 'fail'}: {v23.f2_detail}",
        f"(F3) {'pass' if v23.f3_passed else 'fail'}: {v23.f3_detail}",
        f"(F4) infimum commutes on [1, 2] U {{5}}: {'pass' if v4.passed else 'fail'} "
        f"(F(min) = {fmt_value(v4.lhs)}, grid min = {fmt_value(v4.rhs)})",
        "",
    ]
    all_passed = v1.passed and v23.passed and v4.passed
    rows = [
        ("command", "check-f"),
        ("kind", kind),
        ("k", k),
        ("f1_passed", v1.passed),
        ("f2_passed", v23.f2_passed),
        ("f3_passed", v23.f3_passed),
        ("f4_passed", v4.passed),
        ("overall", "pass" if all_passed else "fail"),
    ]
    lines.append(machine_block(rows))
    return "\n".join(lines), EXIT_OK if all_passed else EXIT_VIOLATED


def _apply_overrides(cfg: ProblemConfig, args: argparse.Namespace) -> ProblemConfig:
    """``cfg`` with ``--mode`` and ``--seed`` applied, checked as config keys."""
    given = {key: getattr(args, key) for key in ("mode", "seed")}
    overrides = {key: v for key, v in given.items() if v is not None}
    return config_from_dict({**config_to_dict(cfg), **overrides}) if overrides else cfg


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory to write report and trace files into",
    )
    parser = argparse.ArgumentParser(
        prog="mvfix",
        description="certify and solve multivalued integral-type contractions on the line",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "certify",
        parents=[out],
        help="sweep pairs and report the empirical contraction modulus",
    )
    p.add_argument("config", type=Path, help="problem configuration JSON")
    # overrides of the config's keys
    p.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="pair distance mode: two-sided hausdorff or one-sided excess",
    )
    p.add_argument("--seed", type=int, default=None, help="override the sweep seed")
    p = sub.add_parser(
        "solve",
        parents=[out],
        help="run the nearest-point iteration and validate its decay law",
    )
    p.add_argument("config", type=Path, help="problem configuration JSON")
    sub.add_parser(
        "paper-demo",
        parents=[out],
        help="audit the built-in worked example against its published values",
    )
    p = sub.add_parser("check-f", parents=[out], help="probe the axioms of a gauge function")
    p.add_argument("--kind", choices=F_KINDS, required=True)
    p.add_argument("--k", type=float, default=0.5, help="witness exponent in (0, 1)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: ``prog`` is fixed, so nothing in it reads sys.argv
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error, and 2 means "budget exhausted" here
        return EXIT_OK if stop.code == 0 else EXIT_ERROR
    try:
        if args.command == "certify":
            text, code = cmd_certify(_apply_overrides(load_config(args.config), args))
        elif args.command == "solve":
            text, code = cmd_solve(load_config(args.config), args.out)
        elif args.command == "paper-demo":
            text, code = cmd_paper_demo()
        else:
            text, code = cmd_check_f(args.kind, args.k)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            report = args.out / f"{args.command.replace('-', '_')}_report.txt"
            report.write_text(text, encoding="utf-8", newline="\n")
    except MvfixError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as err:  # the only files a command writes are under --out
        print(f"error: cannot write --out: {err}", file=sys.stderr)
        return EXIT_ERROR
    print(text, end="")
    return code


def run() -> None:
    sys.exit(main())

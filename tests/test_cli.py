import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfix import FFunction, MvfixError, cli, f_eval, iterate, singleton_map
from mvfix.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VACUOUS,
    EXIT_VIOLATED,
    TRACE_COLUMNS,
    build_parser,
    extract_machine_block,
    fmt_value,
    main,
    read_trace_csv,
)
from helpers import TOO_DEEP, nested_sources
from mvfix.config import SWEEP_LIMIT, config_from_dict
from mvfix.expr import MAX_DEPTH
from mvfix.sets1d import CompactSet

HALVING = {
    "domain": [[0.0, 1.0]],
    "map": {"kind": "singleton", "f": "x/2"},
}
TOO_BIG = "must be a number, got an integer too large for a float"


def write_config(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestFormatting:
    def test_fmt_value(self):
        assert fmt_value(None) == "undefined"
        assert fmt_value(True) == "true"
        assert fmt_value(False) == "false"
        assert fmt_value(0.5) == "0.5"
        assert fmt_value(1 / 3) == "0.33333333333333331"
        assert fmt_value(7) == "7"

    def test_machine_block_round_trip(self):
        from mvfix.cli import machine_block

        text = "preamble\n" + machine_block([("a", 1.5), ("b", None), ("c", True)])
        rows = extract_machine_block(text)
        assert rows == {"a": "1.5", "b": "undefined", "c": "true"}


def g17_mismatches(values):
    """The values whose slot from the vectorised kernel is not ``"%.17g" % v``."""
    values = np.asarray(values, dtype=float)
    slots = cli._format_g17(values)
    assert slots.shape == (len(values), 24)
    return [
        (v, bytes(slot))
        for v, slot in zip(values.tolist(), slots)
        if bytes(slot).replace(b"\0", b"") != b"%.17g" % v
    ]


def bits_as_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


FLOAT64_BITS = st.integers(0, 2**64 - 1)
# every bit pattern of a float64 in the kernel's fast range, either sign
FAST_RANGE_BITS = st.builds(
    lambda sign, bits: sign | bits,
    st.sampled_from([0, 2**63]),
    st.integers(
        int(np.float64(1e-11).view(np.uint64)) + 1, int(np.float64(1e16).view(np.uint64)) - 1
    ),
)
# |v| * 10**(16 - E) rounds to a fraction of exactly 1/2 in x87 extended
# precision, though the exact fraction is 0.4994 and 0.5015; the third is an exact tie
HALF_WITNESSES = [0.0002481361948173567, 7.005112445184033e-09, 848165541590462.6]
G17_CORPUS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225073858507201e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e-11, 1e16,
    2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 - 1), 9.9999999999999995e-05,
    *(2.0**-k for k in range(1, 61)),
    *(w for k in range(-12, 18) for w in
      (10.0**k, math.nextafter(10.0**k, 0.0), math.nextafter(10.0**k, math.inf))),
    *HALF_WITNESSES,
]


class TestG17Kernel:
    """``cli._format_g17`` gives the bytes of ``"%.17g" % v`` for every float64."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FLOAT64_BITS, min_size=1, max_size=40))
    def test_raw_bit_patterns(self, bits):
        assert g17_mismatches(bits_as_floats(bits)) == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FAST_RANGE_BITS, min_size=1, max_size=40))
    def test_bit_patterns_in_the_fast_range(self, bits):
        assert g17_mismatches(bits_as_floats(bits)) == []

    def test_corpus(self):
        assert g17_mismatches(G17_CORPUS) == []
        assert g17_mismatches([-v for v in G17_CORPUS]) == []

    def test_near_powers_of_ten(self):
        # log10 gives the exponent one too high on some of these, which the kernel corrects
        powers = np.array([10.0**k for k in range(-12, 18)])
        near = (powers.view(np.int64)[:, None] + np.arange(-300, 301)).view(np.float64)
        assert g17_mismatches(near.ravel()) == []

    @pytest.mark.parametrize("v", HALF_WITNESSES)
    def test_a_product_on_the_half(self, v):
        assert g17_mismatches([v, -v]) == []

    def test_spread_values(self):
        rng = np.random.default_rng(17)
        values = np.concatenate([
            rng.uniform(0.0, 1.0, 20_000),
            np.exp(rng.uniform(np.log(1e-12), np.log(1e17), 40_000)) * rng.choice([-1, 1], 40_000),
            np.arange(-2000, 2000) / 8,
            np.arange(0, 20_000, dtype=float),
        ])
        assert g17_mismatches(values) == []

    def test_whole_floats_are_their_index(self):
        # trace.csv's n column: a whole float's %.17g is its %d below 2**53
        rows = [
            0, *(m for k in range(1, 9) for m in (10**k - 1, 10**k)),
            *range(10**8, 10**8 + 5), 2**53 - 1,
        ]
        slots = cli._format_g17(np.array(rows, dtype=float))
        assert [bytes(slot).replace(b"\0", b"") for slot in slots] == [b"%d" % n for n in rows]

    def test_without_x87_every_value_takes_the_fallback(self, monkeypatch):
        monkeypatch.setattr(cli, "_X87", False)
        # powers of ten of 0 would spoil every digit the kernel made itself
        monkeypatch.setattr(cli, "_POW10", cli._POW10 * 0)
        assert g17_mismatches(G17_CORPUS + [0.5, 1.25, -3e-7, 123456.789]) == []


class TestCertifyCommand:
    def test_contraction_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HALVING)
        assert main(["certify", cfg]) == EXIT_OK
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["command"] == "certify"
        assert rows["mode"] == "hausdorff"
        tau_star = float(rows["tau_star"])
        assert abs(tau_star - math.log(2.0)) <= 1e-9
        assert rows["violation_count"] == "0"

    def test_identity_map_is_violated(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(HALVING, map={"kind": "singleton", "f": "x"}))
        assert main(["certify", cfg]) == EXIT_VIOLATED
        rows = extract_machine_block(capsys.readouterr().out)
        assert float(rows["tau_star"]) == 0.0
        assert int(rows["violation_count"]) > 0

    def test_constant_map_is_vacuous(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, dict(HALVING, map={"kind": "interval_endpoints", "lo": "0", "hi": "0"})
        )
        assert main(["certify", cfg]) == EXIT_VACUOUS
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["tau_star"] == "undefined"

    def test_overflowing_own_distances_are_quiet(self, tmp_path, capsys):
        # x + 1.8e308 overflows in the point-image own distances and is redone
        members = ["1.7976931348623157e308", "-1.7976931348623157e308"]
        data = {
            "domain": [[0, 1e305]],
            "map": {"kind": "finite_set", "members": members},
            "grid_size": 5,
            "random_pairs": 2,
        }
        assert main(["certify", write_config(tmp_path, data)]) == EXIT_VACUOUS
        assert capsys.readouterr().err == ""

    def test_mode_flag_overrides(self, tmp_path, capsys):
        data = dict(
            HALVING, map={"kind": "interval_endpoints", "lo": "x/4", "hi": "(x+1)/2"}
        )
        cfg = write_config(tmp_path, data)
        assert main(["certify", cfg, "--mode", "excess"]) == EXIT_OK
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["mode"] == "excess"
        assert abs(float(rows["tau_star"]) - math.log(4.0)) <= 1e-9

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HALVING)
        main(["certify", cfg, "--seed", "7"])
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["seed"] == "7"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HALVING)
        main(["certify", cfg])
        first = capsys.readouterr().out
        main(["certify", cfg])
        second = capsys.readouterr().out
        assert first == second

    def test_report_file_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HALVING)
        out = tmp_path / "reports"
        main(["certify", cfg, "--out", str(out)])
        text = (out / "certify_report.txt").read_text()
        assert extract_machine_block(text) == extract_machine_block(
            capsys.readouterr().out
        )

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["certify", str(tmp_path / "absent.json")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(HALVING, tau=-1.0))
        assert main(["certify", cfg]) == EXIT_ERROR
        assert "tau must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem",
        [
            dict(HALVING, integrand={"kind": "expression", "source": "1e999", "grid_max": 1.0}),
            dict(HALVING, map={"kind": "singleton", "f": "x/2 + 1e400"}),
        ],
    )
    def test_overflowing_literal_is_an_error_line(self, tmp_path, capsys, problem):
        assert main(["certify", write_config(tmp_path, problem)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: number literal is not finite")
        assert "Traceback" not in err

    def test_nan_margins_are_counted_as_errors(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "domain": [[0, 10]],
                "map": {"kind": "singleton", "f": "x/2"},
                "integrand": {"kind": "constant", "c": 1e308},
                "grid_size": 11,
                "random_pairs": 0,
            },
        )
        assert main(["certify", cfg]) == EXIT_OK
        out = capsys.readouterr()
        rows = extract_machine_block(out.out)
        assert (rows["evaluated_pairs"], rows["error_count"]) == ("27", "28")
        assert rows["vacuous_pairs"] == "0"
        assert out.err == ""

    @pytest.mark.parametrize(
        "integrand", [{"kind": "exponential", "rate": 5}, {"kind": "power", "p": 200}]
    )
    def test_phi_overflow_is_reported_not_raised(self, tmp_path, capsys, integrand):
        cfg = write_config(
            tmp_path,
            {
                "domain": [[0, 1000]],
                "map": {"kind": "singleton", "f": "x/2"},
                "integrand": integrand,
                "grid_size": 21,
                "random_pairs": 10,
            },
        )
        code = main(["certify", cfg])
        out = capsys.readouterr()
        rows = extract_machine_block(out.out)
        assert int(rows["error_count"]) > 0
        assert "first error: x = " in out.out
        assert "overflows at u = " in out.out
        assert code == (EXIT_OK if int(rows["evaluated_pairs"]) else EXIT_ERROR)
        assert out.err == ""

    def test_error_rows_past_the_cap_are_counted(self, tmp_path, capsys):
        # a table keyed at 0 alone: all 21 * 20 / 2 + 100 = 310 pairs fail,
        # more than ERROR_ROWS; the lines are those of the uncapped report
        cfg = write_config(
            tmp_path,
            {
                "domain": [[0.0, 1.0]],
                "map": {"kind": "table", "entries": [[0.0, [[0.0, 0.0]]]]},
                "grid_size": 21,
                "random_pairs": 100,
            },
        )
        assert main(["certify", cfg]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert "pairs: 0 evaluated, 0 vacuous, 310 errors, 0 violations\n" in out
        assert "first error: x = 0.0, y = 0.05: no table entry for x = 0.05\n" in out
        assert extract_machine_block(out)["error_count"] == "310"

    def test_integrand_is_built_once(self, tmp_path, capsys, monkeypatch):
        import mvfix.cli

        built = []
        build = mvfix.cli.build_integrand
        monkeypatch.setattr(mvfix.cli, "build_integrand", lambda cfg: built.append(cfg) or build(cfg))
        cfg = write_config(
            tmp_path,
            dict(HALVING, integrand={"kind": "expression", "source": "1 + t", "grid_max": 2}),
        )
        assert main(["certify", cfg]) == EXIT_OK
        assert len(built) == 1
        assert "integrand: expression('1 + t')" in capsys.readouterr().out


class TestSolveCommand:
    def solve_config(self, **extra):
        data = dict(HALVING, x0=1.0, tol=0.0, max_iter=60, tau=math.log(2.0))
        data.update(extra)
        return data

    def test_budget_run_with_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.solve_config())
        # tol = 0 never halts on this orbit, so the budget is the stop
        assert main(["solve", cfg]) == EXIT_BUDGET
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["outcome"] == "max_iter_reached"
        assert rows["steps"] == "60"
        assert rows["validated"] == "true"
        assert rows["decay_chain_ok"] == "true"
        assert rows["n1"] == "3"
        assert rows["rate_bound_ok"] == "true"

    def test_budget_takes_precedence_over_verdict(self, tmp_path, capsys):
        # a truncated run reports the broken chain but still exits on budget
        cfg = write_config(tmp_path, self.solve_config(tau=0.8, max_iter=20))
        assert main(["solve", cfg]) == EXIT_BUDGET
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["decay_chain_ok"] == "false"
        assert rows["first_failure"] == "1"

    def test_overflowing_tau_fails_quietly(self, tmp_path, capsys):
        # 2 * tau overflows to a margin of -inf
        data = dict(HALVING, x0=0.5, tau=1e308)
        assert main(["solve", write_config(tmp_path, data)]) == EXIT_VIOLATED
        out, err = capsys.readouterr()
        assert err == "" and extract_machine_block(out)["first_failure"] == "1"

    def test_overclaimed_tau_fails(self, tmp_path, capsys):
        # the orbit of [x/3, x/2] converges, so the verdict drives the exit
        data = self.solve_config(tau=0.8, tol=1e-12, max_iter=100)
        data["map"] = {"kind": "interval_endpoints", "lo": "x/3", "hi": "x/2"}
        cfg = write_config(tmp_path, data)
        assert main(["solve", cfg]) == EXIT_VIOLATED
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["outcome"] == "fixed_point_found"
        assert rows["decay_chain_ok"] == "false"
        assert rows["first_failure"] == "1"

    def test_fixed_point_found(self, tmp_path, capsys):
        data = self.solve_config(tol=1e-12, max_iter=100)
        data["map"] = {"kind": "interval_endpoints", "lo": "x/3", "hi": "x/2"}
        data["tau"] = None
        del data["tau"]
        cfg = write_config(tmp_path, data)
        assert main(["solve", cfg]) == EXIT_OK
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["outcome"] == "fixed_point_found"
        assert abs(float(rows["final_x"])) < 1e-11
        assert rows["validated"] == "skipped"

    @pytest.mark.parametrize("first,second", [(0.5, 0.5), (-0.0, 0.0)])
    def test_repeated_table_key_is_one_error_line(self, tmp_path, capsys, first, second):
        entries = [[first, [[0, 0.1]]], [second, [[0.3, 0.4]]], [1.0, [[0.2, 0.2]]]]
        cfg = write_config(tmp_path, self.solve_config(map={"kind": "table", "entries": entries}))
        assert main(["solve", cfg]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: table key {second} appears more than once\n"

    @pytest.mark.parametrize("flags", [["--seed", "1"], ["--mode", "excess"]])
    def test_sweep_flags_are_usage_errors(self, tmp_path, capsys, flags):
        # solve reads neither the seed nor the mode, so it takes neither flag
        cfg = write_config(tmp_path, self.solve_config())
        assert main(["solve", cfg, *flags]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err

    def test_missing_x0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HALVING)
        assert main(["solve", cfg]) == EXIT_ERROR
        assert "x0" in capsys.readouterr().err

    def test_domain_escape(self, tmp_path, capsys):
        data = {
            "domain": [[0.0, 1.5]],
            "map": {"kind": "singleton", "f": "x + 1"},
            "x0": 0.5,
            "tol": 0.0,
            "max_iter": 10,
        }
        cfg = write_config(tmp_path, data)
        assert main(["solve", cfg]) == EXIT_ERROR
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["outcome"] == "error"

    def test_read_trace_csv_refuses_another_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n,x\n0,0.5\n")
        with pytest.raises(MvfixError, match=r"^unexpected trace header \('n', 'x'\)$"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "body, words",
        [
            ("", "trace line 1: empty file, expected the header"),
            ("0,0.5,0.25\n", "trace line 2: expected 7 fields, got 3"),
            (
                "0,0.5,0.25,0.25,0.25,-1.4,0.5\n1,a,0,0,0,0,0\n",
                "trace line 3: could not convert string to float: 'a'",
            ),
            (
                "0.5,0.5,0.25,0.25,0.25,-1.4,0.5\n",
                "trace line 2: invalid literal for int() with base 10: '0.5'",
            ),
        ],
        ids=["empty", "short_row", "bad_float", "bad_index"],
    )
    def test_read_trace_csv_names_the_bad_line(self, tmp_path, body, words):
        # each once came back as a 3-tuple, a raw ValueError or a raw StopIteration
        path = tmp_path / "trace.csv"
        path.write_text(("" if not body else ",".join(TRACE_COLUMNS) + "\n") + body)
        with pytest.raises(MvfixError) as err:
            read_trace_csv(path)
        assert str(err.value) == words

    def test_trace_csv_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.solve_config())
        out = tmp_path / "reports"
        main(["solve", cfg, "--out", str(out)])
        capsys.readouterr()
        path = out / "trace.csv"

        raw = path.read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()[0]
        assert header == ",".join(TRACE_COLUMNS)

        rows = read_trace_csv(path)
        T = singleton_map(CompactSet.interval(0.0, 1.0), "x/2")
        trace = iterate(T, 1.0, tol=0.0, max_iter=60)
        F = FFunction("log")
        assert len(rows) == len(trace.x)
        for n, row in enumerate(rows):
            gamma = trace.gamma[n].item()
            assert row[0] == n
            assert row[1] == trace.x[n]
            assert row[2] == trace.next_point[n]
            assert row[3] == trace.d_to_set[n]
            assert row[4] == gamma
            assert row[5] == f_eval(F, gamma)
            assert row[6] == n * math.sqrt(gamma)

    def test_underflowed_gamma_is_written_as_the_limit(self, tmp_path, capsys):
        # Phi(d) = d^51 / 51 underflows to 0 from step 19 on; (F2) puts F at -inf
        data = self.solve_config(
            x0=0.5, tau=0.5, max_iter=40, integrand={"kind": "power", "p": 50}
        )
        cfg = write_config(tmp_path, data)
        assert main(["solve", cfg]) == EXIT_BUDGET
        plain = capsys.readouterr()
        out = tmp_path / "reports"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_BUDGET
        written = capsys.readouterr()
        assert plain.err == written.err == ""
        assert extract_machine_block(written.out) == extract_machine_block(plain.out)
        assert extract_machine_block(plain.out)["validated"] == "true"

        rows = read_trace_csv(out / "trace.csv")
        assert len(rows) == 40
        underflowed = [row for row in rows if row[4] == 0.0]
        assert len(underflowed) == 21
        assert all(row[5] == -math.inf and row[6] == 0.0 for row in underflowed)
        assert all(row[5] == f_eval(FFunction("log"), row[4]) for row in rows if row[4] > 0.0)
        assert "\n39,9.0949470177292824e-13,4.5474735088646412e-13," in (
            out / "trace.csv"
        ).read_text()

    def test_overflowing_gamma_is_an_error_not_a_verdict(self, tmp_path, capsys):
        data = self.solve_config(
            domain=[[0.0, 10.0]], x0=10.0, tau=0.5, max_iter=40,
            integrand={"kind": "constant", "c": 1e308},
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "reports"
        assert main(["solve", cfg, "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "error: Phi(d) is not finite at step 0, d = 5.0: inf\n" in captured.out
        rows = extract_machine_block(captured.out)
        assert rows["outcome"] == "error"
        assert rows["steps"] == "0"
        assert rows["validated"] == "skipped"
        assert (out / "trace.csv").read_text() == ",".join(TRACE_COLUMNS) + "\n"


class TestOtherCommands:
    def test_paper_demo_passes(self, capsys):
        assert main(["paper-demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "MATCH" in out
        assert "DISCREPANCY" in out
        rows = extract_machine_block(out)
        assert rows["overall"] == "pass"

    def test_paper_demo_report_file(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["paper-demo", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert (out / "paper_demo_report.txt").exists()

    def test_check_f_log_passes(self, capsys):
        assert main(["check-f", "--kind", "log"]) == EXIT_OK
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["f1_passed"] == "true"
        assert rows["f2_passed"] == "true"
        assert rows["f3_passed"] == "true"
        assert rows["f4_passed"] == "true"

    def test_check_f_neg_inv_sqrt_default_witness_fails(self, capsys):
        assert main(["check-f", "--kind", "neg_inv_sqrt"]) == EXIT_VIOLATED
        rows = extract_machine_block(capsys.readouterr().out)
        assert rows["f3_passed"] == "false"
        assert rows["overall"] == "fail"

    def test_check_f_neg_inv_sqrt_large_witness_passes(self, capsys):
        assert main(["check-f", "--kind", "neg_inv_sqrt", "--k", "0.9"]) == EXIT_OK

    def test_unknown_kind_rejected_by_parser(self, capsys):
        # a usage error exits 1, not argparse's 2, which means "budget exhausted"
        assert main(["check-f", "--kind", "sin"]) == EXIT_ERROR
        assert "invalid choice: 'sin'" in capsys.readouterr().err

    def test_missing_config_argument_is_a_usage_error(self, capsys):
        assert main(["certify"]) == EXIT_ERROR
        assert "required: config" in capsys.readouterr().err

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: mvfix")

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            assert main(["check-f", "--kind", "log"]) == EXIT_OK
            assert main(["check-f", "--kind", "sin"]) == EXIT_ERROR  # a usage error keeps it
            assert main(["check-f", "--kind", "neg_inv_sqrt", "--k", "0.9"]) == EXIT_OK
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert "kind = neg_inv_sqrt, k = 0.9" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["certify", "CFG"], ["solve", "CFG"], ["paper-demo"], ["check-f", "--kind", "log"]]
    )
    @pytest.mark.parametrize("out", ["a_file", "a_file/sub"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, argv, out):
        cfg = write_config(tmp_path, dict(HALVING, x0=0.8))
        (tmp_path / "a_file").write_text("kept")
        argv = [cfg if arg == "CFG" else arg for arg in argv]
        assert main([*argv, "--out", str(tmp_path / out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --out: [Errno ")
        assert captured.err.count("\n") == 1
        assert (tmp_path / "a_file").read_text() == "kept"

    @pytest.mark.parametrize("command", ["certify", "solve"])
    def test_failed_config_creates_no_out_dir(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, dict(HALVING, x0=0.8, tau=-1.0))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: tau must be positive, got -1.0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "raw,detail",
        [(b'{"seed": \xff}', "'utf-8' codec can't decode byte 0xff"), (b"[" * 100_000, "maximum")],
        ids=["not-utf-8", "nested-too-deep"],
    )
    @pytest.mark.parametrize("command", ["certify", "solve"])
    def test_undecodable_config_is_one_error_line(self, tmp_path, capsys, command, raw, detail):
        path = tmp_path / "problem.json"
        path.write_bytes(raw)
        assert main([command, str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: configuration is not valid JSON: {detail}")
        assert captured.err.count("\n") == 1

    # the names the benchmark's phase clock and tracer rebind on mvfix.cli
    PHASE_NAMES = (
        "load_config", "build_map", "build_ffunction", "build_integrand",
        "certify", "iterate", "validate_trace", "write_trace_csv",
    )

    @pytest.mark.parametrize(
        "command,used",
        [
            ("certify", {"certify"}),
            ("solve", {"iterate", "validate_trace", "write_trace_csv"}),
        ],
    )
    def test_main_calls_each_rebound_name_once(self, tmp_path, capsys, monkeypatch, command, used):
        """Each name used is called once: what bench/spans.py rebinds to time a run's phases."""
        used = used | {"load_config", "build_map", "build_ffunction", "build_integrand"}
        calls = dict.fromkeys(self.PHASE_NAMES, 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        for name in self.PHASE_NAMES:
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        cfg = write_config(tmp_path, dict(HALVING, x0=0.8, tau=0.5, tol=1e-9, max_iter=60))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        capsys.readouterr()
        assert calls == {name: int(name in used) for name in self.PHASE_NAMES}

    def test_readme_usage_lists_each_parsers_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```", 2)[1]
        lines = [line.split() for line in block.splitlines() if line.strip()]
        actions = build_parser()._actions
        (commands,) = (a.choices for a in actions if isinstance(a, argparse._SubParsersAction))
        assert [words[1] for words in lines] == list(commands)
        for words in lines:
            options = commands[words[1]]._option_string_actions
            assert set(re.findall(r"--[a-z-]+", " ".join(words))) == {
                o for o in options if o.startswith("--") and o != "--help"
            }, words[1]


class TestOverflowingDomain:
    """A domain whose total length overflows a float: certify refuses it in one line."""

    CONFIG = dict(HALVING, domain=[[-1e308, 1e308]], x0=0.5)

    def test_certify_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        assert main(["certify", cfg]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a 101-point grid over CompactSet([-1e+308, 1e+308]) overflows a float\n"
        )

    def test_solve_needs_no_grid(self, tmp_path, capsys):
        # the enclosure of x/2 over the domain shows every image valid, so no grid is built
        cfg = write_config(tmp_path, self.CONFIG)
        assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = extract_machine_block(capsys.readouterr().out)
        assert (rows["outcome"], rows["steps"]) == ("fixed_point_found", "38")
        assert rows["final_x"] == "1.8189894035458565e-12"


class TestNumericKnobs:
    """JSON admits Infinity and NaN; no knob may turn them into a traceback."""

    SOLVABLE = dict(HALVING, x0=0.8, tau=0.5, max_iter=50)

    @pytest.mark.parametrize(
        "command,patch,flags,message",
        [
            ("certify", {"grid_size": math.inf}, [], "grid_size must be an integer >= 2, got inf"),
            ("certify", {"grid_size": math.nan}, [], "grid_size must be an integer >= 2, got nan"),
            (
                "certify",
                {"random_pairs": math.inf},
                [],
                "random_pairs must be an integer >= 0, got inf",
            ),
            (
                "certify",
                {"random_pairs": math.nan},
                [],
                "random_pairs must be an integer >= 0, got nan",
            ),
            ("certify", {"seed": math.inf}, [], "seed must be an integer, got inf"),
            ("certify", {"seed": math.nan}, [], "seed must be an integer, got nan"),
            ("certify", {"seed": -5}, [], "seed must be >= 0, got -5"),
            ("certify", {}, ["--seed", "-5"], "seed must be >= 0, got -5"),
            ("solve", {"max_iter": math.inf}, [], "max_iter must be an integer >= 1, got inf"),
            ("solve", {"max_iter": math.nan}, [], "max_iter must be an integer >= 1, got nan"),
            ("solve", {"tol": math.nan}, [], "tol must be >= 0, got nan"),
            ("solve", {"tol": math.inf}, [], "tol must be finite, got inf"),
            ("solve", {"tau": math.inf}, [], "tau must be finite, got inf"),
            (
                "certify",
                {"grid_size": 1e20},
                [],
                f"grid_size must be at most {SWEEP_LIMIT}, got 1e+20",
            ),
            (
                "certify",
                {"random_pairs": 1e20},
                [],
                f"random_pairs must be at most {SWEEP_LIMIT}, got 1e+20",
            ),
            *[
                (command, {key: 10**400}, [], f"{key} {TOO_BIG}")
                for command, key in [
                    ("solve", "tau"),
                    ("solve", "tol"),
                    ("solve", "x0"),
                    ("certify", "grid_size"),
                    ("certify", "random_pairs"),
                    ("certify", "seed"),
                    ("solve", "max_iter"),
                ]
            ],
            ("certify", {}, ["--seed", "1" + "0" * 400], f"seed {TOO_BIG}"),
        ],
    )
    def test_rejected_with_one_error_line(self, tmp_path, capsys, command, patch, flags, message):
        cfg = write_config(tmp_path, dict(self.SOLVABLE, **patch))
        assert main([command, cfg, *flags]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_sweep_limit_admits_the_sweeps_that_run(self):
        cfg = config_from_dict(dict(self.SOLVABLE, grid_size=4001, random_pairs=10**6))
        assert (cfg.grid_size, cfg.random_pairs) == (4001, 10**6)
        cfg = config_from_dict(dict(self.SOLVABLE, grid_size=SWEEP_LIMIT))
        assert cfg.grid_size == SWEEP_LIMIT


class TestMapText:
    """Any map text ends in a report or one error line; text at the nesting limit runs."""

    @staticmethod
    def problem(tmp_path, f):
        return write_config(
            tmp_path, dict(HALVING, map={"kind": "singleton", "f": f}, x0=0.8, grid_size=11)
        )

    @pytest.mark.parametrize("command", ["certify", "solve"])
    @pytest.mark.parametrize(
        "f, message",
        [
            ("xé", "unexpected character 'é' (at position 1)"),
            ("x²", "unexpected character '²' (at position 1)"),
            *[(TOO_DEEP[shape], f"expression nests deeper than {MAX_DEPTH} levels")
              for shape in sorted(TOO_DEEP)],
        ],
        ids=["non-ascii", "superscript", *sorted(TOO_DEEP)],
    )
    def test_refused_with_one_error_line(self, tmp_path, capsys, command, f, message):
        assert main([command, self.problem(tmp_path, f)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["certify", "solve"])
    @pytest.mark.parametrize("shape", sorted(nested_sources(MAX_DEPTH)))
    def test_at_the_limit_runs(self, tmp_path, capsys, command, shape):
        f = nested_sources(MAX_DEPTH)[shape]
        assert main([command, self.problem(tmp_path, f)]) == EXIT_OK
        assert capsys.readouterr().err == ""

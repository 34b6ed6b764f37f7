"""Golden outputs of the four subcommands.

Each case runs ``mvfix.cli.main`` in-process with ``--out`` and compares
the exit code, stdout, stderr and every file written under ``--out``
with the files in ``tests/goldens/<case>/``, byte for byte.  The long
``trace.csv`` of the benchmark's solve config is kept as its SHA-256
digest (``trace.csv.sha256``); every other file is kept verbatim.

Regenerate the goldens only on purpose, from the tree whose output they
should pin::

    PYTHONPATH=src python tests/test_goldens.py --regenerate
"""

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

GOLDEN_DIR = Path(__file__).parent / "goldens"
DIGEST_SUFFIX = ".sha256"
DIGEST_MIN_BYTES = 100_000

INTERVAL_MAP = {"kind": "interval_endpoints", "lo": "x/4", "hi": "(x + 1)/2"}

CASES = {
    "certify_interval": (
        ["certify"],
        {"domain": [[0.0, 1.0]], "map": INTERVAL_MAP, "f": {"kind": "log"},
         "grid_size": 21, "random_pairs": 40, "seed": 3},
    ),
    "certify_finite_excess": (
        ["certify", "--mode", "excess"],
        {"domain": [[0.0, 1.0]],
         "map": {"kind": "finite_set", "members": ["x/4", "x/3", "(x + 1)/2", "0.9*x"]},
         "f": {"kind": "log"}, "grid_size": 21, "random_pairs": 40, "seed": 5},
    ),
    "certify_expr_phi": (
        ["certify"],
        {"domain": [[0.0, 1.0]], "map": INTERVAL_MAP, "f": {"kind": "log"},
         "integrand": {"kind": "expression", "source": "1 + t^2", "grid_max": 2.0},
         "grid_size": 11, "random_pairs": 20, "seed": 7},
    ),
    "solve_singleton": (
        ["solve"],
        # the benchmark's solve config at its held-out seed
        {"domain": [[0.0, 1.0]], "map": {"kind": "singleton", "f": "x - x^2"},
         "f": {"kind": "log"}, "tau": 1e-9, "tol": 0.0, "max_iter": 10_000,
         "x0": 0.4 + 0.2 * random.Random(7919).random()},
    ),
    "solve_power_underflow": (
        ["solve"],
        # Phi(d) = d^51 / 51 underflows to 0 from step 19 on
        {"domain": [[0.0, 1.0]], "map": {"kind": "singleton", "f": "x/2"},
         "f": {"kind": "log"}, "integrand": {"kind": "power", "p": 50},
         "x0": 0.5, "tol": 0.0, "tau": 0.5, "max_iter": 40},
    ),
    "paper_demo": (["paper-demo"], None),
    "check_f_log": (["check-f", "--kind", "log"], None),
    # non-default (F3) exponents: k reaches the report header, the batch
    # neg_inv_sqrt path, the trace's n_gamma_k column and check-f
    "certify_neg_inv_sqrt_k": (
        ["certify"],
        {"domain": [[0.0, 1.0]], "map": INTERVAL_MAP, "f": {"kind": "neg_inv_sqrt", "k": 0.25},
         "grid_size": 21, "random_pairs": 40, "seed": 11},
    ),
    "solve_neg_inv_sqrt_k": (
        ["solve"],
        {"domain": [[0.0, 1.0]], "map": {"kind": "singleton", "f": "x/2"},
         "f": {"kind": "neg_inv_sqrt", "k": 0.25},
         "x0": 0.9, "tol": 0.0, "tau": 0.3, "max_iter": 30},
    ),
    "check_f_log_plus_linear_k": (["check-f", "--kind", "log_plus_linear", "--k", "0.9"], None),
}


def run_case(name, tmp_path, readouterr):
    """Run one case; returns {file name: bytes} for everything it produced."""
    from mvfix.cli import main

    args, config = CASES[name]
    out_dir = tmp_path / "out"
    argv = list(args)
    if config is not None:
        config_path = tmp_path / "problem.json"
        config_path.write_text(json.dumps(config))
        argv.insert(1, str(config_path))
    code = main(argv + ["--out", str(out_dir)])
    captured = readouterr()
    produced = {
        "exit_code": f"{code}\n".encode(),
        "stdout.txt": captured.out.encode(),
        "stderr.txt": captured.err.encode(),
    }
    for path in sorted(out_dir.iterdir()):
        produced[path.name] = path.read_bytes()
    return produced


def _golden_files(produced):
    files = {}
    for fname, data in produced.items():
        if len(data) >= DIGEST_MIN_BYTES:
            files[fname + DIGEST_SUFFIX] = (hashlib.sha256(data).hexdigest() + "\n").encode()
        else:
            files[fname] = data
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, capsys):
    expected_dir = GOLDEN_DIR / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    got = _golden_files(run_case(name, tmp_path, capsys.readouterr))
    assert sorted(got) == sorted(expected)
    for fname, data in expected.items():
        assert got[fname] == data, f"{name}/{fname} differs from its golden"


def regenerate():
    for name in sorted(CASES):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                produced = run_case(
                    name, Path(tmp), lambda: SimpleNamespace(out=out.getvalue(), err=err.getvalue())
                )
        target = GOLDEN_DIR / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for fname, data in _golden_files(produced).items():
            (target / fname).write_bytes(data)
        print(f"wrote {target}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()

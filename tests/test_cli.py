"""Command-line behavior: outputs, exit codes, and error formats."""

import contextlib
import errno
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from itertools import chain
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnomon_triples import cli, partitions
from gnomon_triples.cli import Z_MAX_CAP, main
from gnomon_triples.diagrams import KINDS
from gnomon_triples.oracle import brute_force_primitive
from gnomon_triples.ordering import render_table, stream
from gnomon_triples.partitions import Partition
from gnomon_triples.triples import PrimitiveTriple, construct


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvert:
    @pytest.mark.parametrize("argv, out", [
        (["4961", "6480", "8161"], "S=3280 t=40 l=41\n"),
        (["8161", "4961", "6480"], "S=3280 t=40 l=41\n"),  # leg order does not matter
        (["6", "8", "10", "--general"], "k=2 S=2 t=1 l=1\n"),  # the gcd divided out
    ], ids=["tablet", "any-leg-order", "general"])
    def test_prints_the_split(self, capsys, argv, out):
        assert run_cli(capsys, "invert", *argv) == (0, out, "")

    @pytest.mark.parametrize("legs, error", [(["6", "8", "10"], "not-primitive"),
                                             (["3", "4", "6"], "not-a-triple")])
    def test_a_domain_error_is_exit_one(self, capsys, legs, error):
        code, out, err = run_cli(capsys, "invert", *legs)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {error}:")


class TestTable:
    @pytest.mark.parametrize("argv, out", [
        (["table", "--to-s", "6"], "1.1\t2\t1\t1\t3\t4\t5\n"
                                   "2.1\t4\t2\t1\t5\t12\t13\n"
                                   "3.1\t6\t1\t3\t15\t8\t17\n"
                                   "3.2\t\t3\t1\t7\t24\t25\n"),
        # enumerate's range starts at side 2 by default
        (["enumerate", "--to-s", "4"], "1.1\t2\t1\t1\t3\t4\t5\n2.1\t4\t2\t1\t5\t12\t13\n"),
    ], ids=["table", "enumerate"])
    def test_small_output(self, capsys, argv, out):
        assert run_cli(capsys, *argv) == (0, out, "")

    def test_full_reference_table(self, capsys, golden_table_text):
        code, out, _ = run_cli(capsys, "table", "--to-s", "100")
        assert code == 0
        assert out == golden_table_text

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--to-s", "40")
        _, second, _ = run_cli(capsys, "table", "--to-s", "40")
        assert first == second


class TestEnumerate:
    def test_tsv_repeats_the_side(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--from-s", "30", "--to-s", "30")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "15.1\t30\t1\t15\t255\t32\t257"
        assert all(line.split("\t")[1] == "30" for line in lines)

    def test_jsonl_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--from-s", "30", "--to-s", "30", "--format", "jsonl"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["n2"] for r in records] == [1, 2, 3, 4]
        assert records[3] == {
            "n1": 15, "n2": 4, "s": 30, "t": 15, "l": 1, "x": 31, "y": 480, "z": 481,
        }

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_output_matches_render_table(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys, "enumerate", "--from-s", "28", "--to-s", "400", "--format", fmt
        )
        assert code == 0
        assert out == render_table(stream(28, 400), fmt)

    def test_inverted_range_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--from-s", "30", "--to-s", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: gnomon-triples enumerate ")
        assert err[-1] == "gnomon-triples enumerate: error: --from-s 30 exceeds --to-s 4"

    def test_side_with_a_prime_half_near_10_18(self, capsys):
        side = str(2 * (10**18 + 3))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", "--from-s", side, "--to-s", side)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert [line.split("\t")[:4] for line in out.splitlines()] == [
            ["1000000000000000003.1", side, "1", "1000000000000000003"],
            ["1000000000000000003.2", side, "1000000000000000003", "1"],
        ]

    @pytest.mark.parametrize("command", ["enumerate", "table"])
    def test_help_states_the_size_limit(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "'error: size-limit:' (exit 1)" in capsys.readouterr().out

    def test_prime_half_side_past_the_bound_is_a_size_limit(self, capsys):
        side = str(2 * 3317044064679887385962123)  # the first prime past psi_13
        code, out, err = run_cli(capsys, "enumerate", "--from-s", side, "--to-s", side)
        assert (code, out) == (1, "")
        assert err.startswith("error: size-limit:")
        assert len(err.splitlines()) == 1


SMALLEST_PAIR = (
    "T1=1 T2=2 L=5\n"
    "progression_x2: first=9 count=1 last=9 sum=9\n"
    "progression_y2: first=7 count=2 last=9 sum=16\n"
    "shared_suffix: first=9 count=1 last=9\n"
)


class TestGnomon:
    @pytest.mark.parametrize("argv, out", [
        (["gnomon", "3", "4", "5"], SMALLEST_PAIR),
        (["gnomon", "5", "4", "3"], SMALLEST_PAIR),
        (["gnomon", "3", "4", "5", "--k", "4"],
         "T1=4 T2=8 L=20\n"
         "progression_x2: first=33 count=4 last=39 sum=144\n"
         "progression_y2: first=25 count=8 last=39 sum=256\n"
         "shared_suffix: first=33 count=4 last=39\n"),
        (["scale", "15", "8", "17", "3"], "k=3 x=45 y=24 z=51\nT1=27 T2=6 L=51\n"),
        (["scale", "17", "8", "15", "3"], "k=3 x=45 y=24 z=51\nT1=27 T2=6 L=51\n"),
        (["scale", "3", "4", "5", "1"], "k=1 x=3 y=4 z=5\nT1=1 T2=2 L=5\n"),
    ], ids=["smallest", "smallest-any-order", "scaled", "scale", "scale-any-order", "scale-one"])
    def test_prints_the_pair(self, capsys, argv, out):
        assert run_cli(capsys, *argv) == (0, out, "")

    def test_suffix_longer_than_sys_maxsize(self, capsys):
        code, out, _ = run_cli(capsys, "gnomon", "3", "4", "5", "--k", "99999999999999999999")
        assert code == 0
        assert out.endswith(" count=99999999999999999999 last=999999999999999999989\n")

    @pytest.mark.parametrize("legs, err_start", [
        (("6", "8", "10"), "error: not-primitive:"),
        (("3", "4", "6"), "error: not-a-triple: 3^2 + 4^2 != 6^2"),
    ])
    @pytest.mark.parametrize("command", ["gnomon", "scale", "diagram"])
    def test_rejects_non_primitive(self, capsys, tmp_path, command, legs, err_start):
        argv = {
            "gnomon": ["gnomon", *legs],
            "scale": ["scale", *legs, "2"],
            "diagram": ["diagram", "--kind", "lattice", "--triple", ",".join(legs),
                        "--out", str(tmp_path / "x.svg")],
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(err_start)
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("argv", [
        ["gnomon", "5", "4", "3", "--k", "2"],
        ["scale", "17", "8", "15", "3"],
        ["diagram", "--kind", "connected", "--triple", "5,4,3", "--out", "x.svg"],
    ])
    def test_builds_its_triple_with_one_check(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        checks = {PrimitiveTriple: 0, Partition: 0}
        for cls in checks:
            def counted(self, cls=cls, check=cls.__post_init__):
                checks[cls] += 1
                check(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        assert run_cli(capsys, *argv)[0] == 0
        assert checks == {PrimitiveTriple: 1, Partition: 0}


class TestVerify:
    def test_small_bound_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--z-max", "100")
        assert code == 0
        assert out == "enumerator: 16\nbrute_force: 16\neuclid: 16\nPASS\n"
        code, out, _ = run_cli(capsys, "verify", "--z-max", "5")  # a bound that is a hypotenuse
        assert (code, out) == (0, "enumerator: 1\nbrute_force: 1\neuclid: 1\nPASS\n")
        # Odd and even bounds; 29 and 30 need side 12, for (21, 20, 29).
        for z_max, count in ((13, 2), (25, 4), (26, 4), (29, 5), (30, 5)):
            code, out, _ = run_cli(capsys, "verify", "--z-max", str(z_max))
            assert (code, out) == (0, f"enumerator: {count}\nbrute_force: {count}\n"
                                      f"euclid: {count}\nPASS\n"), z_max

    def test_default_bound_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.endswith("PASS\n")

    @pytest.mark.parametrize("z_max", [4, Z_MAX_CAP + 1, 10**7])
    def test_tiny_bound_is_a_usage_error(self, capsys, z_max):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--z-max", str(z_max)])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("usage:")

    def test_both_ends_of_the_bound_are_accepted(self):
        assert cli._z_max("5") == 5
        assert cli._z_max(str(Z_MAX_CAP)) == Z_MAX_CAP
        assert cli._z_max("30000") == Z_MAX_CAP  # the bound the README documents

    def test_a_repeated_row_fails(self, capsys, monkeypatch):
        # Side 2's one row, (3, 4, 5), comes once more ahead of the real stream.
        monkeypatch.setattr(cli, "stream", lambda lo, hi: chain(stream(2, 2), stream(lo, hi)))
        code, out, _ = run_cli(capsys, "verify", "--z-max", "100")
        assert code == 1
        assert out == (
            "enumerator: 16\nbrute_force: 16\neuclid: 16\nFAIL\n"
            "enumerator repeats: 1\n"
            "enumerator - brute_force: 0\n"
            "brute_force - enumerator: 0\n"
            "enumerator - euclid: 0\n"
            "euclid - enumerator: 0\n"
        )

    def test_failure_names_the_triples_that_disagree(self, capsys, monkeypatch):
        def brute_without_3_4_5(z_max):
            return brute_force_primitive(z_max) - {PrimitiveTriple(3, 4, 5)}

        monkeypatch.setattr(cli, "brute_force_primitive", brute_without_3_4_5)
        code, out, _ = run_cli(capsys, "verify", "--z-max", "100")
        assert code == 1
        assert out == (
            "enumerator: 16\nbrute_force: 15\neuclid: 16\nFAIL\n"
            "enumerator repeats: 0\n"
            "enumerator - brute_force: 1 (3, 4, 5)\n"
            "brute_force - enumerator: 0\n"
            "enumerator - euclid: 0\n"
            "euclid - enumerator: 0\n"
        )
        # An oracle that finds nothing: the sample is the first 10 by z.
        monkeypatch.setattr(cli, "euclid_parametrization", lambda z_max: set())
        code, out, _ = run_cli(capsys, "verify", "--z-max", "100")
        assert code == 1
        line = out.splitlines()[-2]
        first_ten = sorted(brute_force_primitive(100), key=lambda p: (p.z, p.x))[:10]
        assert line == "enumerator - euclid: 16 " + " ".join(
            str(p.values()) for p in first_ten
        )


class TestDiagram:
    def test_writes_lattice_svg(self, capsys, tmp_path):
        out_path = tmp_path / "lattice.svg"
        code, out, _ = run_cli(
            capsys, "diagram", "--kind", "lattice", "--triple", "3,4,5",
            "--k", "4", "--unit", "10", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        svg = out_path.read_text(encoding="utf-8")
        assert svg.count('<g class="cell"') == 16
        ET.fromstring(svg)
        run_cli(capsys, "diagram", "--kind", "lattice", "--triple", "3,4,5", "--out", str(out_path))
        assert out_path.read_text(encoding="utf-8").count('<g class="cell"') == 1  # --k defaults to 1

    def test_canonicalizes_leg_order(self, capsys, tmp_path):
        out_path = tmp_path / "even.svg"
        code, _, _ = run_cli(
            capsys, "diagram", "--kind", "square_gnomon_even",
            "--triple", "4,3,5", "--unit", "20", "--out", str(out_path),
        )
        assert code == 0
        assert 'width="100"' in out_path.read_text(encoding="utf-8")

    def test_oversized_rendering_fails_cleanly(self, capsys, tmp_path):
        # past the pixel cap, past the lattice cell cap at only 5 px, and a
        # frame of 5*10^320 units, past the range of a float (at 5e-324 px
        # per unit, 20000 px / unit is inf)
        for kind, k, unit in (
            ("lattice", "4", "5000"),
            ("lattice", "1000", "0.001"),
            ("lattice_regrouped", "1" + "0" * 320, "10"),
            ("lattice_regrouped", "1" + "0" * 320, "5e-324"),
        ):
            code, _, err = run_cli(
                capsys, "diagram", "--kind", kind, "--triple", "3,4,5",
                "--k", k, "--unit", unit, "--out", str(tmp_path / "x.svg"),
            )
            assert code == 1
            assert err.startswith("error: size-limit:")
            assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "unit, out_dir, code, err_start",
        [
            pytest.param("nan", "", 2, "usage:", id="nan-2-usage:"),
            pytest.param("inf", "", 2, "usage:", id="inf-2-usage:"),
            pytest.param("0", "", 2, "usage:", id="0-2-usage:"),
            pytest.param("-1", "", 2, "usage:", id="-1-2-usage:"),
            pytest.param("abc", "", 2, "usage:", id="abc-2-usage:"),
            pytest.param("1e-300", "", 1, "error: size-limit:", id="1e-300-1-error: size-limit:"),
            # a good unit, but --out names a directory that does not exist
            pytest.param("10", "missing", 2, "error: No such file or directory:",
                         id="missing-out-dir"),
        ],
    )
    def test_bad_unit_is_rejected(self, capsys, tmp_path, unit, out_dir, code, err_start):
        out_path = tmp_path / out_dir / "x.svg"
        try:
            result = main(["diagram", "--kind", "lattice", "--triple", "3,4,5",
                           "--unit", unit, "--out", str(out_path)])
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        assert result == code
        assert captured.out == ""
        assert captured.err.startswith(err_start)
        assert not out_path.exists()


HAVE_PROC_IO = os.path.exists("/proc/self/io")


def child_env(unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


@pytest.fixture(scope="module")
def table_to_50000():
    return render_table(stream(2, 50_000))


@pytest.fixture(scope="module")
def imported_by_a_run(run_child):
    """The modules that a run of ``invert 3 4 5`` imports, with no site hook."""
    code, _, err, _, _ = run_child("invert", "3", "4", "5", flags=("-S", "-X", "importtime"))
    assert code == 0
    # Each line after the header names one module, indented by its depth.
    return {line.rpartition("|")[2].strip() for line in err.splitlines()[1:]}


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [],
        ["table", "--to-s", "7"],
        ["diagram", "--kind", "mural", "--triple", "3,4,5", "--out", "x.svg"],
        ["diagram", "--kind", "lattice", "--triple", "3,4", "--out", "x.svg"],
    ], ids=["no-subcommand", "odd-side", "bad-kind", "malformed-triple"])
    def test_usage_error_is_exit_two(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("command", ["invert", "gnomon", "scale"])
    def test_leg_arguments_show_in_help_and_errors(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert " X Y Z" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main([command, "3", "4"])
        assert exc.value.code == 2
        assert "the following arguments are required: Z" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gnomon", "3", "4", "5", "--k", "9" * 4300],
            ["scale", "3", "4", "5", "9" * 4300],
            ["gnomon", *map(str, construct(Partition(t=10**1100, l=1, side=2 * 10**1100)).values())],
            ["enumerate", "--from-s", str(2**13000), "--to-s", str(2**13000)],
        ],
        ids=["gnomon-k", "scale-k", "gnomon-legs", "enumerate"],
    )
    def test_prints_ints_longer_than_the_digit_limit(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert max(len(word) for word in out.replace("=", " ").split()) > limit
        assert sys.get_int_max_str_digits() == limit

    def test_argument_past_the_digit_limit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gnomon", "3", "4", "5", "--k", "9" * 4301])
        assert exc.value.code == 2
        assert "is not an integer" in capsys.readouterr().err

    def test_module_entry_point(self):
        for module in ("gnomon_triples", "gnomon_triples.cli"):
            result = subprocess.run(
                [sys.executable, "-m", module, "invert", "3", "4", "5"],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0
            assert result.stdout == "S=2 t=1 l=1\n"

    def test_closed_stdout_exits_one_without_a_traceback(self):
        # Far more output than a pipe buffers, so writes meet the closed pipe.
        with subprocess.Popen(
            [sys.executable, "-m", "gnomon_triples", "table", "--to-s", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline() == b"1.1\t2\t1\t1\t3\t4\t5\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""  # no traceback, no "Exception ignored" note

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--to-s", "100"],
            ["table", "--to-s", "20000"],  # far past 8 KB: a flush inside main fails
            ["invert", "3", "4", "5"],
            ["verify", "--z-max", "100"],
            ["--help"],  # argparse exits through SystemExit with the help still buffered
            ["table", "--help"],
        ],
        ids=["table", "table-20000", "invert", "verify", "help", "table-help"],
    )
    def test_failed_stdout_write_is_one_error_line(self, run_child, argv):
        with open("/dev/full", "wb") as full:
            code, _, err, _, _ = run_child(*argv, stdout=full)
        assert (code, err) == (1, f"error: {os.strerror(errno.ENOSPC)}: <stdout>\n")

    # Every way out of the process freezes the collector, so shutdown has nothing to scan.
    @pytest.mark.parametrize("argv", [["--help"], ["table", "--to-s", "100"]],
                             ids=["help", "table"])
    def test_a_pipe_without_reader_exits_one_silently(self, run_child, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err, _, frozen = run_child(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert (code, err) == (1, "")
        assert frozen > 0

    @pytest.mark.parametrize("argv", [["invert", "3", "4", "5"], ["table", "--to-s", "10"],
                                      ["table", "--to-s", "100"]],
                             ids=["invert", "table", "table-100"])
    def test_stdout_closed_at_start_is_one_error_line(self, run_child, argv):
        code, _, err, _, frozen = run_child(*argv, preexec_fn=lambda: os.close(1))
        assert (code, err) == (1, f"error: {os.strerror(errno.EBADF)}: <stdout>\n")
        assert frozen > 0

    @pytest.mark.parametrize(
        "argv, code",
        [(["table", "--to-s", "100"], 0), (["invert", "6", "8", "10"], 1),
         (["table", "--to-s", "7"], 2), (["--help"], 0)],
        ids=["table", "domain-error", "usage-error", "help"],
    )
    def test_the_process_ends_with_the_collector_frozen(self, capsys, monkeypatch, run_child,
                                                        argv, code, golden_table_text):
        """The child's output is main()'s in this process; only shutdown's collections go."""
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps alike in both processes
        got, out, err, _, frozen = run_child(*argv)
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert frozen > 0
        assert (got, out, err) == (code, *capsys.readouterr())
        if code == 0 and argv[0] == "table":
            assert out == golden_table_text

    def test_main_leaves_the_collector_unfrozen(self, capsys):
        """Tests, the fuzz guard and the benchmark's traced pass call main() many times."""
        before = gc.get_freeze_count()
        assert run_cli(capsys, "invert", "3", "4", "5")[0] == 0
        assert run_cli(capsys, "invert", "6", "8", "10")[0] == 1
        with pytest.raises(SystemExit):
            main(["table", "--to-s", "7"])
        assert gc.get_freeze_count() == before

    def test_rows_before_a_domain_error_come_out_first(self, capsys, monkeypatch, run_child):
        # With the bound lowered to 10^11, the third side, 4 * 3 * 166666666667,
        # ends the run after the 10 rows of the two sides before it.
        argv = ["enumerate", "--from-s", "2000000000000", "--to-s", "2000000000400"]
        child = run_child(*argv, prelude="from gnomon_triples import partitions\n"
                                         "partitions.PSI_13 = 10**11", stderr=subprocess.STDOUT)
        monkeypatch.setattr(partitions, "PSI_13", 10**11)
        code, out, err = run_cli(capsys, *argv)
        assert (code, len(out.splitlines()), len(err.splitlines())) == (1, 10, 1)
        assert err.startswith("error: size-limit: factor 166666666667 ")
        assert child[:2] == (1, out + err)

    def test_a_failed_invariant_is_one_error_line(self, capsys, monkeypatch, run_child):
        # A primality fault hands the prime 100000000003 to rho, which fails require.
        argv = ["enumerate", "--from-s", "200000000006", "--to-s", "200000000006"]
        child = run_child(*argv, prelude="from gnomon_triples import partitions\n"
                                         "partitions._is_prime = lambda n: False")
        monkeypatch.setattr(partitions, "_is_prime", lambda n: False)
        assert run_cli(capsys, *argv) == (1, "", "error: internal: 100000000003\n")
        assert child[:3] == (1, "", "error: internal: 100000000003\n")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "default"])
    def test_full_non_blocking_stdout_is_one_error_line(self, run_child, unbuffered):
        # Nothing reads the pipe before the child exits, so its writes fill it.
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        try:
            code, _, err, _, _ = run_child("table", "--to-s", "20000", stdout=write_end,
                                           env=child_env(unbuffered))
        finally:
            os.close(write_end)
            os.close(read_end)
        assert (code, err) == (1, "error: write could not complete without blocking: <stdout>\n")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "default"])
    def test_stdout_is_block_buffered(self, run_child, unbuffered, golden_table_text,
                                      table_to_50000):
        code, out, err, writes, _ = run_child("table", "--to-s", "50000",
                                              env=child_env(unbuffered))
        assert (code, out, err) == (0, table_to_50000, "")
        assert table_to_50000.startswith(golden_table_text)
        if HAVE_PROC_IO:
            assert writes <= table_to_50000.count("\n") // 100

    @pytest.mark.skipif(not (hasattr(os, "openpty") and HAVE_PROC_IO),
                        reason="needs os.openpty and /proc/self/io")
    def test_terminal_stdout_is_line_buffered(self, run_child, golden_table_text):
        # The terminal holds the whole table, so it is read after the child exits.
        master, slave = os.openpty()
        chunks = []
        with open(master, "rb", buffering=0) as terminal:
            try:
                code, _, err, writes, _ = run_child("table", "--to-s", "100", stdout=slave)
            finally:
                os.close(slave)
            try:
                while chunk := terminal.read(4096):
                    chunks.append(chunk)
            except OSError as exc:  # the child has closed the terminal
                assert exc.errno == errno.EIO
        assert (code, err) == (0, "")
        assert b"".join(chunks).replace(b"\r\n", b"\n").decode() == golden_table_text
        assert writes >= golden_table_text.count("\n")

    def test_console_script_is_the_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, name = scripts["gnomon-triples"].partition(":")
        assert getattr(importlib.import_module(module), name) is cli.entry_point

    def test_runtime_imports_only_the_standard_library(self, imported_by_a_run):
        names = {name.partition(".")[0] for name in imported_by_a_run}
        assert names - sys.stdlib_module_names == {"gnomon_triples"}

    def test_start_up_imports_neither_dataclasses_nor_inspect(self, imported_by_a_run):
        """Each CLI start pays for its imports; the records need neither module."""
        assert imported_by_a_run.isdisjoint({"dataclasses", "inspect"})

    def test_start_up_imports_neither_typing_nor_pathlib(self, imported_by_a_run):
        """``TableRow`` is a plain namedtuple subclass and ``diagram --out`` writes through
        ``open``: about 10 ms of import with ``-S -I``, which a site hook can hide."""
        assert imported_by_a_run.isdisjoint({"typing", "pathlib"})


# CLI fuzz guard: any argv ends in exit 0, 1 or 2 (returned, or SystemExit 0 or
# 2 from argparse), lets no other exception escape and finishes quickly.
# enumerate's sides reach 10^30, past the factoring bound psi_13 (about
# 3.3e24), where a side ends in the size-limit error; below it, rho's cost on
# a cofactor grows with the square root of its smaller prime factor, so windows
# above 10^12 span at most 20 side units (2000 below).  verify's --z-max is
# at most 300 or past Z_MAX_CAP, where it is a usage error: the brute-force
# oracle is O(z^2), about 31 s at the cap itself.
FUZZ_SECONDS = 2.0
# An integer of 4301 digits is past Python's int-to-str limit: a usage error.
JUNK = st.sampled_from(
    ["0", "-1", "x", "1.5", "", "nan", "1e-300", "3,4", "--help", "9" * 4301]
)


@st.composite
def fuzz_legs(draw):
    """Three legs: half from a real split (in any order), half arbitrary."""
    if draw(st.booleans()):
        t = draw(st.integers(min_value=1, max_value=400))
        l = 2 * draw(st.integers(min_value=0, max_value=299)) + 1
        g = gcd(t, l)
        t, l = t // g, l // g
        values = draw(st.permutations(construct(Partition(t=t, l=l, side=2 * t * l)).values()))
    else:
        values = draw(st.lists(st.integers(1, 10**6), min_size=3, max_size=3))
    return [str(v) for v in values]


def fuzz_k():
    """A scale factor of 1 to 4400 digits, the digit count drawn first.

    By default Python converts no int of more than 4300 digits to or from
    str: such an argument is a usage error.  Half the counts are drawn from
    2150 to 4300 digits, where the argument parses but a gnomon's area prints
    past the limit.  Long values repeat a drawn block of digits, because the
    test's own str() runs under the limit.
    """
    return st.builds(
        lambda digits, block: (block * digits)[:digits],
        st.integers(1, 4400) | st.integers(2150, 4300),
        st.from_regex(r"[1-9][0-9]{0,29}", fullmatch=True),
    )


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(
        ["enumerate", "table", "invert", "gnomon", "scale", "verify", "diagram"]
    ))
    if command == "enumerate":
        # log-uniform by decade up to 10^30
        from_s = 2 * draw(st.integers(0, 29).flatmap(lambda e: st.integers(1, 5 * 10**e)))
        to_s = from_s + 2 * draw(st.integers(-10, 10 if from_s > 10**12 else 1000))
        fmt = draw(st.sampled_from(["tsv", "jsonl", "appendix"]))
        argv = ["--from-s", str(from_s), "--to-s", str(to_s), "--format", fmt]
    elif command == "table":
        argv = ["--to-s", str(2 * draw(st.integers(0, 1001)))]
    elif command == "invert":
        argv = draw(fuzz_legs()) + draw(st.sampled_from([[], ["--general"]]))
    elif command == "gnomon":
        argv = draw(fuzz_legs()) + ["--k", draw(fuzz_k())]
    elif command == "scale":
        argv = draw(fuzz_legs()) + [draw(fuzz_k())]
    elif command == "verify":
        argv = ["--z-max", str(draw(st.integers(1, 300) | st.integers(Z_MAX_CAP + 1, 10**7)))]
    else:
        unit = draw(st.one_of(
            st.sampled_from(["0.001", "0.01", "0.1"]),
            st.floats(min_value=1e-9, max_value=1e4).map(repr),
        ))
        argv = [
            "--kind", draw(st.sampled_from(KINDS)),
            "--triple", ",".join(draw(fuzz_legs())),
            "--k", draw(st.one_of(st.integers(1, 12).map(str), fuzz_k())), "--unit", unit,
            "--out", draw(st.sampled_from(["x.svg", "x.svg", os.path.join("missing", "x.svg")])),
        ]
    argv = [command, *argv]
    edit = draw(st.sampled_from(["keep", "keep", "keep", "replace", "drop"]))
    at = draw(st.integers(0, len(argv) - 1))
    if edit == "replace":
        argv[at] = draw(JUNK)
    elif edit == "drop":
        del argv[at]
    return argv


@settings(max_examples=200, deadline=None)
@given(fuzz_argv())
def test_cli_fuzz_ends_in_a_documented_exit_code(argv):
    # A fresh working directory per example, so that any file a drawn argv
    # names (a JUNK word in place of the .svg path included) lands in it:
    # function-scoped fixtures are not reset between Hypothesis examples.
    with tempfile.TemporaryDirectory() as out_dir:
        cwd = os.getcwd()
        os.chdir(out_dir)
        try:
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    assert exc.code in (0, 2), argv
                    code = exc.code
            elapsed = time.perf_counter() - start
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), argv
    assert elapsed < FUZZ_SECONDS, (argv, elapsed)

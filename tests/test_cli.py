"""Command-line behavior: outputs, exit codes, and error formats."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnomon_triples import cli
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
    def test_tablet_triple(self, capsys):
        code, out, err = run_cli(capsys, "invert", "4961", "6480", "8161")
        assert code == 0
        assert out == "S=3280 t=40 l=41\n"
        assert err == ""

    def test_leg_order_does_not_matter(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "8161", "4961", "6480")
        assert code == 0
        assert out == "S=3280 t=40 l=41\n"

    def test_non_primitive_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "invert", "6", "8", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: not-primitive:")

    def test_general_divides_out_the_gcd(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "6", "8", "10", "--general")
        assert code == 0
        assert out == "k=2 S=2 t=1 l=1\n"

    def test_not_a_triple(self, capsys):
        code, _, err = run_cli(capsys, "invert", "3", "4", "6")
        assert code == 1
        assert err.startswith("error: not-a-triple:")


class TestTable:
    def test_small_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--to-s", "6")
        assert code == 0
        assert out == (
            "1.1\t2\t1\t1\t3\t4\t5\n"
            "2.1\t4\t2\t1\t5\t12\t13\n"
            "3.1\t6\t1\t3\t15\t8\t17\n"
            "3.2\t\t3\t1\t7\t24\t25\n"
        )

    def test_full_reference_table(self, capsys, golden_table_text):
        code, out, _ = run_cli(capsys, "table", "--to-s", "100")
        assert code == 0
        assert out == golden_table_text

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--to-s", "40")
        _, second, _ = run_cli(capsys, "table", "--to-s", "40")
        assert first == second

    def test_odd_side_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--to-s", "7"])
        assert exc.value.code == 2


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

    def test_default_range_starts_at_two(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--to-s", "4")
        assert code == 0
        assert out.splitlines() == ["1.1\t2\t1\t1\t3\t4\t5", "2.1\t4\t2\t1\t5\t12\t13"]

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


class TestGnomon:
    def test_smallest_triple(self, capsys):
        code, out, _ = run_cli(capsys, "gnomon", "3", "4", "5")
        assert code == 0
        assert out == (
            "T1=1 T2=2 L=5\n"
            "progression_x2: first=9 count=1 last=9 sum=9\n"
            "progression_y2: first=7 count=2 last=9 sum=16\n"
            "shared_suffix: first=9 count=1 last=9\n"
        )

    def test_scaled(self, capsys):
        code, out, _ = run_cli(capsys, "gnomon", "3", "4", "5", "--k", "4")
        assert code == 0
        assert out == (
            "T1=4 T2=8 L=20\n"
            "progression_x2: first=33 count=4 last=39 sum=144\n"
            "progression_y2: first=25 count=8 last=39 sum=256\n"
            "shared_suffix: first=33 count=4 last=39\n"
        )

    def test_suffix_longer_than_sys_maxsize(self, capsys):
        code, out, _ = run_cli(capsys, "gnomon", "3", "4", "5", "--k", "99999999999999999999")
        assert code == 0
        assert out.endswith(" count=99999999999999999999 last=999999999999999999989\n")

    def test_rejects_non_primitive(self, capsys):
        code, _, err = run_cli(capsys, "gnomon", "6", "8", "10")
        assert code == 1
        assert err.startswith("error: not-primitive:")


class TestScale:
    def test_scale_by_three(self, capsys):
        code, out, _ = run_cli(capsys, "scale", "15", "8", "17", "3")
        assert code == 0
        assert out == "k=3 x=45 y=24 z=51\nT1=27 T2=6 L=51\n"

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "scale", "3", "4", "5", "1")
        assert code == 0
        assert out == "k=1 x=3 y=4 z=5\nT1=1 T2=2 L=5\n"


class TestVerify:
    def test_small_bound_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--z-max", "100")
        assert code == 0
        assert out == "enumerator: 16\nbrute_force: 16\neuclid: 16\nPASS\n"

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

    def test_canonicalizes_leg_order(self, capsys, tmp_path):
        out_path = tmp_path / "even.svg"
        code, _, _ = run_cli(
            capsys, "diagram", "--kind", "square_gnomon_even",
            "--triple", "4,3,5", "--unit", "20", "--out", str(out_path),
        )
        assert code == 0
        assert 'width="100"' in out_path.read_text(encoding="utf-8")

    def test_non_primitive_triple_fails(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "diagram", "--kind", "lattice", "--triple", "6,8,10",
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 1
        assert err.startswith("error: not-primitive:")
        assert not (tmp_path / "x.svg").exists()

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

    def test_bad_kind_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["diagram", "--kind", "mural", "--triple", "3,4,5",
                  "--out", str(tmp_path / "x.svg")])
        assert exc.value.code == 2

    def test_malformed_triple_argument_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["diagram", "--kind", "lattice", "--triple", "3,4",
                  "--out", str(tmp_path / "x.svg")])
        assert exc.value.code == 2


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

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
        result = subprocess.run(
            [sys.executable, "-m", "gnomon_triples", "invert", "3", "4", "5"],
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
        [["table", "--to-s", "100"], ["invert", "3", "4", "5"], ["verify", "--z-max", "100"]],
        ids=["table", "invert", "verify"],
    )
    def test_failed_stdout_write_is_one_error_line(self, argv):
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "gnomon_triples", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert result.returncode == 1
        assert result.stderr == f"error: {os.strerror(errno.ENOSPC)}: <stdout>\n"

    def test_runtime_imports_only_the_standard_library(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        # -I ignores PYTHONPATH; modules that .pth files preload form the baseline.
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "before = set(sys.modules)\n"
            "import gnomon_triples.cli\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(new - sys.stdlib_module_names))\n"
        )
        result = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "['gnomon_triples']\n"


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
    # A fresh directory per example: function-scoped fixtures are not reset
    # between Hypothesis examples.
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [os.path.join(out_dir, a) if a.endswith(".svg") else a for a in argv]
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 2), argv
                code = exc.code
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), argv
    assert elapsed < FUZZ_SECONDS, (argv, elapsed)

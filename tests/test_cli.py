"""Command-line interface: record schema, CSV output, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from polybohr import cli, radii

PKG = [sys.executable, "-m", "polybohr"]


def run_cli(*args):
    return subprocess.run(PKG + list(args), capture_output=True, text=True)


def payload_of(proc):
    record = json.loads(proc.stdout)
    assert record["schema_version"] == 1
    return record["payload"]


class TestRadiusCommand:
    def test_classical(self):
        proc = run_cli("radius", "--family", "classical", "--n", "3")
        assert proc.returncode == 0
        payload = payload_of(proc)
        assert payload["radius_r"] == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_euler(self):
        proc = run_cli("radius", "--family", "euler", "--n", "1",
                       "--lambda", "0.25")
        assert proc.returncode == 0
        assert payload_of(proc)["radius_x"] == pytest.approx(0.3191, abs=1e-3)

    def test_convex_t_case_insensitive(self):
        proc = run_cli("radius", "--family", "convexT", "--t", "0.75")
        assert proc.returncode == 0
        assert payload_of(proc)["radius_r"] == 0.5

    def test_unknown_family_usage_error(self):
        proc = run_cli("radius", "--family", "nonsense")
        assert proc.returncode == 2

    def test_missing_parameter_usage_error(self):
        proc = run_cli("radius", "--family", "euler", "--n", "1")
        assert proc.returncode == 2
        assert "--lambda" in proc.stderr

    def test_out_of_range_parameter_usage_error(self):
        proc = run_cli("radius", "--family", "area", "--n", "1", "--t", "1.5")
        assert proc.returncode == 2

    def test_nonfinite_lambda_usage_error(self):
        for value in ("nan", "inf"):
            proc = run_cli("radius", "--family", "euler", "--lambda", value)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert "lambda must be" in proc.stderr

    def test_degenerate_solve_exits_one_with_diagnostic(self):
        proc = run_cli("radius", "--family", "convexmnt", "--m", "1",
                       "--n", "1", "--t", "1.0")
        assert proc.returncode == 1
        record = json.loads(proc.stdout)
        assert record["command"] == "error"
        assert "NoSignChangeError" in record["payload"]["error"]

    def test_seventeen_digit_serialization(self):
        proc = run_cli("radius", "--family", "rmn", "--m", "1", "--N", "1")
        # sqrt(5) - 2 is printed as its repr, at most 17 significant digits,
        # which parses back to the same binary64
        payload = payload_of(proc)
        assert "0.2360679774997" in proc.stdout
        assert payload["radius_r"] == pytest.approx(5 ** 0.5 - 2, abs=1e-13)

    def test_an_integral_float_is_read_back_as_a_float(self):
        # formerly "bracket_lo": 0, which a JSON reader takes for an int
        code, out, _ = main_in_process(["radius", "--family", "classical", "--n", "2"])
        assert code == 0
        assert type(json.loads(out)["payload"]["bracket_lo"]) is float


class TestTableCommand:
    def test_limits_table_csv(self):
        proc = run_cli("table", "--name", "thmC-limits", "--N-max", "2")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "N,limit_x,residual"
        assert len(lines) == 3
        assert lines[1].startswith("1,0.333333333333")
        assert lines[2].startswith("2,0.5")
        assert proc.stdout.endswith("\n")
        assert "\r" not in proc.stdout

    def test_sweep_table_increasing(self):
        proc = run_cli("table", "--name", "thm2.2-sweepN", "--n", "2",
                       "--m", "1", "--N-max", "6")
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        xs = [float(row[2]) for row in rows]
        assert xs == sorted(xs)

    def test_piecewise_table_branches(self):
        proc = run_cli("table", "--name", "thmF-piecewise", "--n", "1",
                       "--t-steps", "10")
        lines = proc.stdout.splitlines()
        by_t = {float(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert by_t[0.6][3] == "clamped"
        assert float(by_t[0.6][2]) == pytest.approx(1.0 / 3.0)
        assert by_t[0.5][3] == "cubic"

    def test_json_format(self):
        proc = run_cli("table", "--name", "thmC-limits", "--N-max", "3",
                       "--format", "json")
        payload = payload_of(proc)
        assert payload["columns"] == ["N", "limit_x", "residual"]
        assert len(payload["rows"]) == 3

    def test_unknown_table_usage_error(self):
        proc = run_cli("table", "--name", "bogus")
        assert proc.returncode == 2

    def test_nonpositive_counts_usage_error(self):
        for args in (("--name", "thm2.3-grid", "--t-steps", "0"),
                     ("--name", "thmC-limits", "--N-max", "0")):
            proc = run_cli("table", *args)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert f"{args[2]} must be >= 1" in proc.stderr

    def test_zero_parameter_is_not_replaced_by_default(self):
        for args in (("--name", "thm2.2-sweepN", "--m", "0"),
                     ("--name", "thm2.2-sweepM", "--N", "0"),
                     ("--name", "thm2.3-grid", "--m", "0")):
            proc = run_cli("table", *args)
            assert proc.returncode == 2
            assert proc.stdout == ""

    def test_empty_m_list_usage_error(self):
        proc = run_cli("table", "--name", "thm2.2-sweepM", "--m-list", "")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "m_list must not be empty" in proc.stderr


class TestVerifyCommand:
    def test_classical_passes(self):
        proc = run_cli("verify", "--family", "classical", "--n", "2",
                       "--samples", "25", "--seed", "7")
        assert proc.returncode == 0
        payload = payload_of(proc)
        assert payload["passed"] is True
        suites = {s["suite"] for s in payload["suites"]}
        assert suites == {"holds-below", "sharpness-above"}

    def test_byte_identical_reports(self):
        args = ("verify", "--family", "classical", "--n", "2",
                "--samples", "25", "--seed", "7")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.stdout.encode() == second.stdout.encode()

    def test_sharpness_alias_reports_witness(self):
        proc = run_cli("sharpness", "--family", "rmnn", "--m", "2",
                       "--n", "1", "--N", "2")
        assert proc.returncode == 0
        payload = payload_of(proc)
        (suite,) = payload["suites"]
        assert suite["witness_a"] is not None

    def test_zero_samples_usage_error(self):
        proc = run_cli("verify", "--family", "classical", "--samples", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "samples must be >= 1" in proc.stderr

    def test_nan_margin_usage_error(self):
        proc = run_cli("verify", "--family", "classical", "--margin-above", "nan")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "margin_above must be positive" in proc.stderr

    def test_nonpositive_k_cap_usage_error(self):
        for value in ("0", "-3"):
            proc = run_cli("verify", "--family", "classical", "--k-cap", value)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert f"k_cap must be >= 1, got {value}" in proc.stderr

    def test_area_sharpness_fails_with_exit_one(self):
        proc = run_cli("verify", "--family", "area", "--n", "1", "--t", "0.4",
                       "--samples", "5", "--sharpness")
        assert proc.returncode == 1
        payload = payload_of(proc)
        assert payload["passed"] is False


class TestExpandCommand:
    def test_extremal_a_zero_two_vars(self):
        proc = run_cli("expand", "--family", "extremal", "--a", "0",
                       "--n", "2", "--K", "2")
        payload = payload_of(proc)
        assert payload["coefficients"] == [
            ["0 0", 0, 0], ["1 0", -1, 0], ["0 1", -1, 0]]

    def test_extremal_cubic_coefficient(self):
        proc = run_cli("expand", "--family", "extremal", "--a", "0.5",
                       "--n", "1", "--K", "3")
        payload = payload_of(proc)
        assert payload["coefficients"][-1] == ["3", -0.1875, 0.0]

    def test_sample_reproducible_byte_identically(self):
        args = ("expand", "--family", "blaschke-sample", "--seed", "1",
                "--n", "2", "--factors", "2", "--K", "5")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_csv_format(self):
        proc = run_cli("expand", "--family", "extremal", "--a", "0.5",
                       "--n", "1", "--K", "2", "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "alpha,re,im"
        assert len(lines) == 4


class TestLimitsCommand:
    def test_n_sweep(self):
        proc = run_cli("limits", "--m", "1", "--n", "2",
                       "--N-list", "1,2,5,10")
        payload = payload_of(proc)
        assert payload["axis"] == "N"
        assert payload["strictly_increasing"] is True

    def test_m_sweep_reports_gap(self):
        proc = run_cli("limits", "--n", "1", "--N", "1",
                       "--m-list", "1,2,5,20,100")
        payload = payload_of(proc)
        assert payload["limit_x"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(payload["final_gap_x"]) < 1e-3

    def test_empty_n_list_usage_error(self):
        proc = run_cli("limits", "--N-list", "")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "N_list must not be empty" in proc.stderr

    def test_blank_m_list_usage_error(self):
        proc = run_cli("limits", "--m-list", " , ")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "m_list must not be empty" in proc.stderr

    def test_requires_exactly_one_axis(self):
        assert run_cli("limits").returncode == 2
        assert run_cli("limits", "--N-list", "1,2", "--m-list", "1,2").returncode == 2


class TestFamilyRegistry:
    FLAGS = {"n": "--n", "m": "--m", "N": "--N", "p": "--p", "t": "--t",
             "lam": "--lambda"}
    VALUES = {"n": "2", "m": "2", "N": "3", "p": "1", "t": "0.4", "lam": "0.7"}
    DEFAULTED = {"n", "p"}  # the CLI gives these flags a default

    def test_every_family_class_is_registered(self):
        # every proper subclass of RadiusFamily, inherited poly included
        classes = {cls for cls in vars(radii).values()
                   if isinstance(cls, type) and issubclass(cls, radii.RadiusFamily)
                   and cls is not radii.RadiusFamily}
        assert classes == set(radii.FAMILIES.values())

    def test_family_choices_are_registered_names(self, capsys):
        expected = ["classical", "rogosinski", "rmn", "rmnn", "an", "convext",
                    "convexmnt", "euler", "area"]
        assert list(radii.FAMILIES) == expected
        with pytest.raises(SystemExit):
            cli.main(["radius", "--help"])
        assert "{" + ",".join(expected) + "}" in capsys.readouterr().out

    def test_each_missing_required_field_is_a_usage_error(self, capsys):
        for name, cls in radii.FAMILIES.items():
            fields = cls.__match_args__
            required = [f for f in fields if f not in self.DEFAULTED]
            for missing in required:
                argv = ["radius", "--family", name]
                for f in fields:
                    if f != missing:
                        argv += [self.FLAGS[f], self.VALUES[f]]
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv)
                assert exc.value.code == 2
                assert f"requires {self.FLAGS[missing]}" in capsys.readouterr().err
            if required:
                # with every flag missing, the first field in order is named
                with pytest.raises(SystemExit):
                    cli.main(["radius", "--family", name])
                assert f"requires {self.FLAGS[required[0]]}" in capsys.readouterr().err


def main_in_process(argv):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestErrorPaths:
    @pytest.mark.parametrize("argv", [
        ["radius", "--family", "rmn", "--m", "1"],
        ["radius", "--family", "area", "--n", "1", "--t", "1.5"],
        ["table", "--name", "thm2.3-grid", "--t-steps", "0"],
        ["verify", "--family", "classical", "--samples", "0"],
        ["verify", "--family", "classical", "--n", "1", "--samples", "2",
         "--margin-above", "1e300"],
        ["sharpness", "--family", "classical", "--factors", "-1"],
        ["expand", "--family", "extremal", "--a", "1.5"],
        ["limits"],
    ], ids=" ".join)
    def test_post_parse_usage_error_shows_the_subcommand_usage(self, argv):
        code, out, err = main_in_process(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: polybohr {argv[0]} ")
        assert f"polybohr {argv[0]}: error: " in err

    @pytest.mark.parametrize("argv", [
        ["radius", "--family", "rmn", "--m", "2", "--N", "3", "--n", "3"],
        ["radius", "--family", "rmn", "--m", "2", "--N", "3", "--n", "1"],
        ["radius", "--family", "classical", "--n", "2", "--p", "2"],
        ["radius", "--family", "convext", "--t", "0.5", "--m", "2"],
        ["radius", "--family", "rogosinski", "--N", "2", "--n", "2"],
        ["radius", "--family", "euler", "--n", "1", "--lambda", "0.5", "--t", "0.4"],
        ["radius", "--family", "area", "--n", "1", "--t", "0.4", "--lambda", "2"],
        ["verify", "--family", "rmnn", "--m", "2", "--n", "1", "--N", "2", "--p", "1"],
        ["sharpness", "--family", "an", "--n", "2", "--N", "3", "--m", "2"],
    ], ids=" ".join)
    def test_a_flag_the_family_does_not_take_is_a_usage_error(self, argv):
        # Formerly dropped: rmn with --n 3 printed the n = 1 radius and
        # echoed "n": 3.  The flag it does not take comes last.
        code, out, err = main_in_process(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: polybohr {argv[0]} ")
        assert err.endswith(f"error: family {argv[2]!r} does not take {argv[-2]}\n")

    UNREAD = [
        (["table", "--name", "thmC-limits", "--n", "3"],
         "table 'thmC-limits' does not take --n"),
        (["table", "--name", "thm2.2-sweepN", "--m", "2", "--N", "5", "--N-max", "2"],
         "table 'thm2.2-sweepN' does not take --N"),
        (["table", "--name", "thm2.2-sweepM", "--n", "1", "--t-steps", "4"],
         "table 'thm2.2-sweepM' does not take --t-steps"),
        (["table", "--name", "thmF-piecewise", "--n", "2", "--m-list", "1,2"],
         "table 'thmF-piecewise' does not take --m-list"),
        (["table", "--name", "thm2.3-grid", "--m", "2", "--N-max", "3"],
         "table 'thm2.3-grid' does not take --N-max"),
        (["limits", "--m", "2", "--n", "1", "--N", "7", "--N-list", "1,2"],
         "limits --N-list does not take --N"),
        (["limits", "--m", "3", "--n", "1", "--m-list", "1,2"],
         "limits --m-list does not take --m"),
        (["expand", "--family", "extremal", "--n", "2", "--seed", "9", "--factors", "3"],
         "family 'extremal' does not take --seed"),
        (["expand", "--family", "blaschke-sample", "--a", "0.7"],
         "family 'blaschke-sample' does not take --a"),
        # the axis error comes first
        (["limits", "--N", "7", "--N-list", "1", "--m-list", "1"],
         "limits needs exactly one of --N-list or --m-list"),
    ]

    @pytest.mark.parametrize("argv,error", UNREAD, ids=[" ".join(a) for a, _ in UNREAD])
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, argv, error):
        # Formerly dropped: thmC-limits with --n 3 solved AN(n=1, N) and
        # echoed "n": 3.
        code, out, err = main_in_process(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: polybohr {argv[0]} ")
        assert err.endswith(f"error: {error}\n")

    @pytest.mark.parametrize("margin", ["1", "1e300", "inf"])
    def test_margin_above_of_one_or_more_is_a_usage_error(self, margin):
        # Formerly an OverflowError record: the radius left the unit polydisc.
        argv = ["verify", "--family", "classical", "--n", "1", "--samples", "2",
                "--margin-above", margin]
        code, out, err = main_in_process(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: polybohr verify ")
        assert err.endswith(
            f"error: margin_above must be below 1, got {float(margin)}\n")

    @pytest.mark.parametrize("sharpness", [[], ["--sharpness"]], ids=["both", "sharpness"])
    def test_sharpness_radius_outside_the_polydisc_is_a_usage_error(self, sharpness,
                                                                     monkeypatch):
        # r = 1/3 + 0.9 lies outside D^1, so neither suite builds a series
        def refuse(config):
            raise AssertionError("the hold-below suite ran")

        monkeypatch.setattr(cli, "check_holds_below", refuse)
        argv = ["verify", "--family", "classical", "--n", "1", "--samples", "2",
                "--margin-above", "0.9"] + sharpness
        code, out, err = main_in_process(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: polybohr verify ")
        assert err.endswith("= 1.2333333333333334 is not inside the unit polydisc\n")

    @pytest.mark.parametrize("argv", [
        ["radius", "--family", "convexmnt", "--m", "1000", "--n", "3", "--t", "0.5"],
        ["table", "--name", "thm2.3-grid", "--m", "700", "--n", "3", "--t-steps", "2"],
    ], ids=" ".join)
    def test_overflow_is_an_error_record(self, argv):
        code, out, err = main_in_process(argv)
        assert (code, err) == (1, "")
        record = json.loads(out)
        assert record["command"] == "error"
        assert record["args"] == {"command": argv[0]}
        assert record["payload"]["error"] == "OverflowError"

    @pytest.mark.parametrize("sharpness", [[], ["--sharpness"]], ids=["both", "sharpness"])
    def test_negative_factor_count_is_a_usage_error(self, sharpness):
        argv = ["verify", "--family", "classical", "--samples", "2", "--factors", "-1"]
        code, out, err = main_in_process(argv + sharpness)
        assert (code, out) == (2, "")
        assert err.endswith("error: factor count must be >= 0, got -1\n")


class TestSharedParser:
    SEQUENCE = (["radius", "--family", "nonsense"],
                ["--help"],
                ["radius", "--family", "classical", "--n", "2"])

    def test_import_builds_no_parser(self):
        code = ("import polybohr.cli as cli; "
                "print(cli.build_parser.cache_info().misses)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_many_calls_build_one_parser(self):
        cli.build_parser.cache_clear()
        calls = (list(self.SEQUENCE)
                 + [["radius", "--family", "euler", "--lambda", "0.25"],
                    ["limits", "--N-list", "1,2"],
                    ["expand", "--family", "extremal", "--n", "2", "--K", "2"],
                    ["table", "--name", "thmC-limits", "--N-max", "0"]])
        codes = [main_in_process(calls[i % len(calls)])[0] for i in range(50)]
        assert set(codes) == {0, 2}
        assert cli.build_parser.cache_info().misses == 1

    def test_served_parser_prints_what_a_fresh_one_prints(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cli.build_parser.cache_clear()
        shared = [main_in_process(argv) for argv in self.SEQUENCE]
        fresh = []
        for argv in self.SEQUENCE:
            cli.build_parser.cache_clear()
            fresh.append(main_in_process(argv))
        assert [code for code, _, _ in shared] == [2, 0, 0]
        assert shared == fresh

    def test_usage_wraps_to_the_width_at_each_call(self, monkeypatch):
        argv = ["radius", "--family", "nonsense"]
        monkeypatch.setenv("COLUMNS", "200")
        wide = main_in_process(argv)[2]
        monkeypatch.setenv("COLUMNS", "40")
        narrow = main_in_process(argv)[2]
        assert cli.build_parser.cache_info().currsize == 1
        assert len(wide.splitlines()) == 2
        assert len(narrow.splitlines()) > 2

    @staticmethod
    def spy(monkeypatch, parser, method):
        """The argument vectors later passed to ``parser.<method>``."""
        calls = []
        real = getattr(parser, method)

        def record(args, *rest):
            calls.append(list(args))
            return real(args, *rest)

        monkeypatch.setattr(parser, method, record)
        return calls

    def test_a_command_is_parsed_once_by_its_own_parser(self, monkeypatch):
        parser = cli.build_parser()
        top = self.spy(monkeypatch, parser, "parse_args")
        sub = self.spy(monkeypatch, parser.commands["radius"], "parse_known_args")
        assert main_in_process(["radius", "--family", "classical", "--n", "2"])[0] == 0
        assert sub == [["--family", "classical", "--n", "2"]]
        assert top == []

    @pytest.mark.parametrize("argv,code", [
        ([], 2), (["nosuch"], 2), (["--help"], 0),
        (["radius", "--family", "classical", "--bogus"], 2)])
    def test_other_inputs_go_to_the_top_level_parser(self, argv, code, monkeypatch):
        top = self.spy(monkeypatch, cli.build_parser(), "parse_args")
        assert main_in_process(argv)[0] == code
        assert top == [argv]

    def test_a_cleared_cache_gives_the_dispatch_a_fresh_table(self, monkeypatch):
        cli.build_parser.cache_clear()
        old = cli.build_parser()
        cli.build_parser.cache_clear()
        new = cli.build_parser()
        assert new.commands is not old.commands
        stale = self.spy(monkeypatch, old.commands["radius"], "parse_known_args")
        fresh = self.spy(monkeypatch, new.commands["radius"], "parse_known_args")
        assert main_in_process(["radius", "--family", "classical"])[0] == 0
        assert (stale, fresh) == ([], [["--family", "classical"]])


def test_entry_point_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("radius", "table", "verify", "sharpness", "expand", "limits"):
        assert sub in proc.stdout

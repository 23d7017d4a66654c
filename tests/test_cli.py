import concurrent.futures
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import pytest

from stringcasimir import DomainError, EnergyResult, StringConfig, cli
from stringcasimir.cli import RunConfig, compare_methods, dispatch, main, parse_range, parse_value


class TestParsing:
    def test_pi_literals(self):
        assert parse_value("pi") == math.pi
        assert parse_value("2pi") == 2 * math.pi
        assert parse_value("0.5pi") == 0.5 * math.pi
        assert parse_value("pi/4") == math.pi / 4
        assert parse_value("1.5") == 1.5
        assert parse_value(2) == 2.0

    def test_range_inclusive_endpoints(self):
        got = parse_range("0:0.9:0.1")
        assert len(got) == 10
        assert got[0] == 0.0
        assert got[-1] == pytest.approx(0.9)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            parse_range("0:1")
        with pytest.raises(DomainError):
            parse_range("0:1:-0.1")

    @pytest.mark.parametrize("text", ["0:1:1e-12", "0:inf:0.1", "nan:1:0.1", "1:0:0.1"])
    def test_range_counted_before_it_is_built(self, text):
        with pytest.raises(DomainError):
            parse_range(text)

    @pytest.mark.parametrize("value", ["abc", "", None, True, [2]])
    def test_not_a_number(self, value):
        with pytest.raises(DomainError):
            parse_value(value)


class TestRunConfig:
    def test_unknown_command(self):
        with pytest.raises(DomainError):
            RunConfig(command="zap")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DomainError):
            RunConfig(command="energy", parameters={"s": 2, "bogus": 1})

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            RunConfig(command="energy", output_format="xml")


class TestDispatch:
    def test_energy_with_cross_check_row(self, tmp_path):
        out = tmp_path / "e.csv"
        cfg = RunConfig(
            command="energy",
            parameters={"s": 2.0, "x": 0.0, "L": math.pi},
            output_path=str(out),
        )
        assert dispatch(cfg) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,x,L,value,method,abs_error_estimate"
        assert len(lines) == 3
        contour = lines[1].split(",")
        analytic = lines[2].split(",")
        assert contour[4] == "contour"
        assert analytic[4] == "analytic-limit"
        assert float(contour[3]) == pytest.approx(-1 / 48, abs=1e-9)
        assert float(analytic[3]) == pytest.approx(-1 / 48, rel=1e-15)

    def test_energy_n(self, tmp_path):
        out = tmp_path / "n.csv"
        cfg = RunConfig(
            command="energy-n",
            parameters={"N": 2, "x": 0.0, "L": math.pi},
            output_path=str(out),
        )
        assert dispatch(cfg) == 0
        rows = out.read_text().strip().splitlines()
        assert float(rows[1].split(",")[3]) == pytest.approx(-0.5, abs=1e-9)

    def test_scan_row_count_and_order(self, tmp_path):
        out = tmp_path / "scan.csv"
        cfg = RunConfig(
            command="scan",
            parameters={"command": "energy", "s": 2.0, "x": "0.1:0.9:0.1", "L": math.pi},
            output_path=str(out),
        )
        assert dispatch(cfg) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10  # header + 9 grid points
        xs = [float(line.split(",")[1]) for line in lines[1:]]
        assert xs == sorted(xs)

    def test_json_round_trip_bit_exact(self, tmp_path):
        out = tmp_path / "e.json"
        cfg = RunConfig(
            command="energy",
            parameters={"s": 2.0, "x": 0.3, "L": math.pi},
            output_path=str(out),
            output_format="json",
        )
        dispatch(cfg)
        parsed = json.loads(out.read_text())
        row = parsed["results"][0]
        from stringcasimir import casimir_two_piece

        direct = casimir_two_piece(StringConfig(2.0, 0.3, math.pi))
        assert row["value"] == direct.value  # bit-exact through JSON
        assert row["abs_error_estimate"] == direct.abs_error_estimate

    def test_deterministic_output(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = RunConfig(
                command="spectrum",
                parameters={"s": 2.0, "x": 0.0, "L": math.pi, "omega_max": 10.0},
                output_path=str(out),
            )
            dispatch(cfg)
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]


class TestCompareMethods:
    def test_equal_pieces_agree_at_zero(self):
        report = compare_methods(StringConfig(1, 0.5, math.pi))
        assert abs(report["contour_value"]) < 1e-10
        assert abs(report["oracle_value"]) < 1e-6
        assert report["agree"]

    @pytest.mark.parametrize("s, x, method", [("1", "0.5", "analytic-limit"),
                                              ("2", "1", "analytic-limit"),
                                              ("2", "0.3", "contour")])
    def test_contour_row_names_the_route_taken(self, s, x, method, capsys):
        # the row said "contour" where casimir_two_piece returned its analytic limit
        assert compare_methods(StringConfig(float(s), float(x)))["contour_method"] == method
        assert main(["oracle", "--s", s, "--x", x]) == 0
        oracle_row = capsys.readouterr().out.splitlines()[1].split(",")
        assert main(["energy", "--s", s, "--x", x]) == 0
        energy_row = capsys.readouterr().out.splitlines()[1].split(",")
        assert oracle_row[4] == energy_row[4] == method

    def test_decoupled_anchor(self):
        report = compare_methods(StringConfig(2, 0.0, math.pi))
        assert report["abs_difference"] < 1e-4
        assert report["agree"]

    def test_zero_oracle_disagrees_at_large_length(self, monkeypatch):
        # E = -1.84e-5 at L = 1e3; an absolute 1e-4 in the tolerance let an
        # oracle value of 0 agree with it
        zero = EnergyResult(0.0, "cutoff-oracle", 0.0)
        monkeypatch.setattr(cli.cutoff, "casimir_by_cutoff",
                            lambda cfg, epsilons=None: SimpleNamespace(as_energy_result=lambda: zero))
        assert not compare_methods(StringConfig(2, 0.3, 1e3))["agree"]


class TestMain:
    def test_energy_exit_zero(self, capsys):
        assert main(["energy", "--s", "2", "--x", "0", "--L", "pi"]) == 0
        out = capsys.readouterr().out
        assert "contour" in out and "analytic-limit" in out

    def test_hagedorn_pi_literal(self, capsys):
        assert main(["hagedorn", "--s", "1", "--T-II", "pi"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[2]) == pytest.approx(4 * math.sqrt(2), rel=1e-12)

    def test_free_energy_on_the_unit_circle(self, capsys):
        # tau_1 nodes that reduce onto |z| = 1 used to end in a domain error
        argv = ["free-energy", "--s", "3", "--T-II", "3.141592653589793", "--beta", "9",
                "--tau2-max", "0.5"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip().splitlines()[1].endswith(",converged")

    def test_free_energy_derivatives_at_huge_beta(self, capsys):
        # S and the residual printed nan,nan once beta^2 overflowed
        argv = ["free-energy", "--s", "2", "--T-II", "3", "--beta", "1e308", "--derivatives"]
        assert main(argv) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert [float(v) for v in row[5:7]] == [0.0, 0.0]

    def test_domain_error_exit_one(self, capsys):
        assert main(["energy", "--s", "0", "--x", "0.5"]) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "domain"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"parameters": {"s": 2.0, "x": 0.5, "L": math.pi}}))
        assert main(["energy", "--config", str(cfg_file), "--x", "0"]) == 0
        out = capsys.readouterr().out
        assert "analytic-limit" in out  # x overridden to 0 adds the cross-check row

    @pytest.mark.parametrize("fmt, want", [("csv", ""), ("json", {"results": []})])
    def test_no_rows_exit_zero(self, fmt, want, capsys):
        # no mode of the two-piece string lies below omega_max = 0.5
        assert main(["spectrum", "--s", "2", "--x", "0.3", "--omega-max", "0.5", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert (json.loads(out) if fmt == "json" else out) == want

    def test_modulus_integral_not_representable_exit_two(self, capsys):
        argv = ["free-energy", "--s", "5", "--T-II", "1", "--beta", "25", "--tau2-max", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.err)
        assert captured.out == "" and record["error"] == "numerical"
        assert "modulus integral not representable" in record["message"]

    def test_numerical_error_exit_two(self, capsys):
        # damping grid too coarse for a quadratic fit: extrapolation unstable (its largest
        # epsilon at 0.6 of the shorter piece, the most a caller's grid may take)
        code = main(["oracle", "--s", "2", "--x", "0", "--L", "pi",
                     "--epsilons", "0.6,0.4,0.25,0.15"])
        err = capsys.readouterr().err
        if code == 2:
            assert json.loads(err)["error"] == "numerical"
        else:
            assert code == 0  # acceptable: the coarse grid happened to fit


class TestInputContract:
    """Bad input exits 1 with a JSON record: never a traceback, never a
    silently truncated value."""

    @pytest.mark.parametrize("argv", [
        ["energy", "--s", "abc"],
        ["energy", "--config", "missing.json"],
        ["energy", "--config", "list.json"],
        ["energy", "--config", "broken.json"],
        ["energy", "--config", "nested.json"],
        ["energy-n", "--N", "2.7"],
        ["hagedorn", "--s", "1.5"],
        ["scan", "--command", "hagedorn", "--s", "1:2:0.5"],
        ["scan", "--command", "energy", "--s", "2", "--x", "0:1:1e-12"],
        ["scan", "--command", "energy", "--s", "2", "--x", "0:inf:0.1"],
        ["scan", "--command", "energy", "--s", "2", "--x", "0:0.2:0.1", "--jobs", "0"],
        ["scan", "--command", "energy", "--s", "2", "--x", "0:0.2:0.1", "--jobs", "1.5"],
        ["thermal", "--s", "2", "--x", "0.3", "--T", "1e-320"],
        ["thermal", "--s", "2", "--x", "0.3", "--T", "1e308"],
        ["energy", "--s", "1e308", "--x", "0.3"],
        ["energy-n", "--N", "2", "--x", "0.3", "--L", "1e-320"],
        ["free-energy", "--tau2-max", "0"],
        ["free-energy", "--tau2-max", "nan"],
        ["free-energy", "--T-II", "inf"],
        ["free-energy", "--beta", "inf"],
        ["free-energy", "--derivatives", "--beta", "-17"],
        ["hagedorn", "--T-II", "inf"],
        ["scan", "--command", "free-energy", "--tau2-max", "0:1:0.5"],
        ["zap"],
        ["energy", "--bogus", "1"],
        ["energy", "--format", "xml"],
        ["energy", "--s"],
        ["scan", "--command", "energy", "--s", "2", "--x", "0.3", "--N", "0:3:1"],
        ["scan", "--command", "hagedorn", "--s", "1", "--beta", "17", "--T-II", "1:2:1"],
        ["energy", "--s", "2", "--x", "0.3", "--jobs", "4"],
        ["scan", "--command", "oracle", "--s", "2", "--x", "0.3", "--epsilons", "0.1:0.2:0.1"],
        ["scan", "--config", "derivatives.json"],
        ["scan", "--config", "jobs.json"],
        ["energy", "--s", "2", "--x", "0.3", "--L", "pi/0"],
        ["spectrum", "--s", "2", "--x", "0.3", "--omega-max", "1e9"],
        ["scan", "--command", "energy", "--s", "2", "--x", "0.3"],
        ["scan", "--command", "energy", "--s", "1:2:1", "--x", "0:0.2:0.1"],
    ])
    def test_exit_one_with_record(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "broken.json").write_text("{")
        (tmp_path / "nested.json").write_text(json.dumps({"parameters": {"s": [2]}}))
        (tmp_path / "derivatives.json").write_text(json.dumps(
            {"parameters": {"command": "free-energy", "s": 1, "beta": 17, "derivatives": "0:1:1"}}))
        (tmp_path / "jobs.json").write_text(json.dumps(
            {"parameters": {"command": "energy", "s": 2, "x": "0:0.2:0.1", "jobs": 0}}))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "domain"

    def test_oracle_past_the_float_range_of_its_contrast(self, capsys):
        # the default grid's float-range check divided by ratio^2 = 0: a traceback, not a record
        assert main(["oracle", "--s", "1e200", "--x", "0.3"]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.err)
        assert captured.out == "" and record["error"] == "domain"
        assert record["message"].startswith("length_ratio=1e+200 is past the default damping grid")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--scan-command" in capsys.readouterr().out

    def test_config_values_parse_like_flags(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"parameters": {"s": 2, "x": "0.3", "L": "pi"}}))
        assert main(["energy", "--config", str(cfg_file), "--format", "json"]) == 0
        from_file = capsys.readouterr().out
        assert main(["energy", "--s", "2", "--x", "0.3", "--format", "json"]) == 0
        assert from_file == capsys.readouterr().out
        assert json.loads(from_file)["results"][0]["s"] == 2.0


class TestOutputPath:
    """An output that cannot be written is a domain error: exit 1, a JSON
    record on stderr and nothing on stdout."""

    def _exits_one(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "domain"

    def test_unwritable_flag(self, tmp_path, capsys):
        for path in (tmp_path, tmp_path / "missing" / "out.csv"):
            self._exits_one(["energy", "--s", "2", "--x", "0.3", "--output", str(path)], capsys)

    @pytest.mark.parametrize("path", ["dir", 5, 1, True, ["out.csv"]])
    def test_bad_config_path(self, path, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        (tmp_path / "run.json").write_text(json.dumps({"output": {"path": path}}))
        self._exits_one(["energy", "--s", "2", "--x", "0.3", "--config", "run.json"], capsys)

    def test_run_config_rejects_a_descriptor(self):
        with pytest.raises(DomainError):
            RunConfig(command="energy", parameters={"s": 2}, output_path=1)


class TestFlagOverridesConfig:
    """A flag that is given wins over the config file; the config file's
    value stands when the flag is absent."""

    @pytest.mark.parametrize("config, flag, want", [
        ("json", "csv", "csv"),
        ("csv", "json", "json"),
        ("json", None, "json"),
    ])
    def test_format(self, config, flag, want, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"parameters": {"s": 2, "x": 0.3}, "output": {"format": config}}))
        argv = ["energy", "--config", str(cfg_file)] + (["--format", flag] if flag else [])
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("{") == (want == "json")

    @pytest.mark.parametrize("flag, want", [("flag.csv", "flag.csv"), (None, "config.csv"), ("", None)])
    def test_output_path(self, flag, want, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps(
            {"parameters": {"s": 2, "x": 0.3}, "output": {"path": "config.csv"}}))
        argv = ["energy", "--config", "run.json"] + ([] if flag is None else ["--output", flag])
        assert main(argv) == 0
        written = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert written == ([want] if want else [])
        assert (capsys.readouterr().out == "") == bool(want)


# Values of every key of each command, as a config file gives them; the flag
# route passes them as text
_SAMPLES = {
    "energy": {"s": 2, "x": 0.3, "L": "pi"},
    "energy-n": {"N": 2, "x": 0.3, "L": 2},
    "spectrum": {"s": 2, "x": 0.3, "L": "pi", "omega_max": 5},
    "thermal": {"s": 2, "x": 0.3, "L": "pi", "T": 0.5},
    "free-energy": {"s": 1, "T_II": "pi", "beta": 17, "tau2_max": 1, "derivatives": True},
    "hagedorn": {"s": 2, "T_II": "pi/2"},
    "oracle": {"s": 2, "x": 0.3, "L": "pi", "epsilons": [0.2, 0.1, 0.05, 0.02]},
    "scan": {"command": "hagedorn", "s": "1:3:1", "T_II": 2, "jobs": 1},
}


_EVERY_KEY = {key: parse for _, keys in cli._TABLE.values() for key, (parse, _) in keys.items()}


def _keys(command):
    """The keys of ``command``; a scan's are those of a hagedorn scan."""
    keys = set(cli._TABLE[command][1])
    return keys | set(cli._TABLE["hagedorn"][1]) if command == "scan" else keys


def _flag(key, value):
    flag = ["--" + key.replace("_", "-")]
    if _EVERY_KEY[key] is cli._boolean:
        return flag if value else []
    return flag + [",".join(map(str, value)) if isinstance(value, list) else str(value)]


# every command runs on its defaults; a scan still needs a command and a range
_ON_DEFAULTS = {command: [command] for command in cli._TABLE}
_ON_DEFAULTS["scan"] = ["scan", "--command", "hagedorn", "--s", "1:2:1"]


class TestCommandTable:
    """The contract every command of the table keeps."""

    @pytest.mark.parametrize("command", list(cli._TABLE))
    def test_runs_on_its_defaults(self, command, capsys):
        assert main(_ON_DEFAULTS[command]) == 0
        assert len(capsys.readouterr().out.splitlines()) >= 2

    @pytest.mark.parametrize("command", list(cli._TABLE))
    def test_rejects_the_keys_of_other_commands(self, command, capsys):
        for key in sorted(set(_EVERY_KEY) - _keys(command)):
            assert main(_ON_DEFAULTS[command] + _flag(key, "1")) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err) == {
                "error": "domain", "message": f"unknown parameters for {command}: ['{key}']"}

    @pytest.mark.parametrize("command", list(cli._TABLE))
    def test_config_route_matches_flags(self, command, tmp_path, capsys):
        sample = _SAMPLES[command]
        assert set(sample) == _keys(command)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"parameters": sample}))
        assert main([command, "--config", str(cfg_file), "--format", "json"]) == 0
        from_file = capsys.readouterr().out
        argv = [command, "--format", "json"]
        for key, value in sample.items():
            argv += _flag(key, value)
        assert main(argv) == 0
        assert capsys.readouterr().out == from_file


class TestScanKeys:
    def test_scan_takes_its_command_keys(self):
        for command, (_, keys) in cli._TABLE.items():
            if command == "scan":
                continue
            for key in _EVERY_KEY:
                params = {key: 1, "command": command}
                if key in keys or key in cli._TABLE["scan"][1]:
                    RunConfig(command="scan", parameters=params)
                else:
                    with pytest.raises(DomainError, match=f"unknown parameters for scan: \\['{key}'\\]"):
                        RunConfig(command="scan", parameters=params)

    @pytest.mark.parametrize("command", [None, "scan", "zap", ["energy"]])
    def test_scan_needs_a_concrete_command(self, command):
        with pytest.raises(DomainError, match="scan needs a concrete command"):
            RunConfig(command="scan", parameters={"command": command})

    def test_oracle_scan_with_epsilons(self, capsys):
        argv = ["scan", "--command", "oracle", "--s", "2", "--x", "0.3:0.3:0.1",
                "--epsilons", "0.2,0.1,0.05,0.02"]
        assert main(argv) == 0
        methods = [row.split(",")[4] for row in capsys.readouterr().out.splitlines()[1:]]
        assert methods == ["contour", "cutoff-oracle", "difference"]

    def test_free_energy_scan_with_modulus_keys(self):
        RunConfig(command="scan", parameters={"command": "free-energy", "beta": "17:18:1",
                                              "tau2_max": 1.0, "derivatives": True})


class _Executor:
    """Stand-in for ProcessPoolExecutor that records its size and maps serially."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, cpus, sizes", [
    (64, 8, [3]),  # no more workers than points
    (2, 8, [2]),
    (64, 2, [2]),  # no more workers than cores
    (4, None, []),  # unknown core count: serial
    (1, 8, []),
])
def test_scan_worker_count(monkeypatch, capsys, jobs, cpus, sizes):
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _Executor(made, max_workers))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = ["scan", "--command", "hagedorn", "--s", "1:3:1", "--jobs", str(jobs)]
    assert main(argv) == 0
    assert made == sizes
    assert len(capsys.readouterr().out.splitlines()) == 4


_NO_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, BlockScipy())
from stringcasimir.cli import main

for argv in ARGVS:
    code = main(argv)
    if code:
        sys.exit(f"{argv} exited {code}")
"""


def test_every_command_runs_without_scipy():
    argvs = [
        ["energy", "--s", "2", "--x", "0.3"],
        ["energy-n", "--N", "2", "--x", "0.3"],
        ["spectrum", "--s", "2", "--x", "0.3", "--omega-max", "5"],
        ["thermal", "--s", "2", "--x", "0.3", "--T", "0.5"],
        ["free-energy", "--s", "1", "--beta", "17"],
        ["hagedorn", "--s", "1"],
        ["oracle", "--s", "2", "--x", "0.3"],
        ["scan", "--command", "energy", "--s", "2", "--x", "0.1:0.3:0.1"],
    ]
    code = _NO_SCIPY.replace("ARGVS", repr(argvs))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": ":".join(sys.path)})
    assert out.returncode == 0, out.stderr


def test_cli_import_leaves_out_the_process_pool():
    code = ("import sys, stringcasimir.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": ":".join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_cli_import_footprint():
    # start-up time is module imports: past numpy, the CLI may load only these standard
    # modules, their submodules and C accelerators (_csv, _json), and the package itself
    allowed = {"argparse", "cmath", "copy", "csv", "dataclasses", "gettext", "json", "stringcasimir"}
    code = ("import sys, numpy; before = set(sys.modules); import stringcasimir.cli; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": ":".join(sys.path)})
    loaded = out.stdout.split()
    assert "stringcasimir.cli" in loaded
    assert [m for m in loaded if m.split(".")[0].lstrip("_") not in allowed] == []

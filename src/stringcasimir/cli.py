"""Command-line interface: compute, sweep, and serialize to CSV/JSON.

Commands map one-to-one onto library operations:

    energy       two-piece zero-temperature Casimir energy
    energy-n     2N-piece zero-temperature Casimir energy
    spectrum     eigenfrequencies with multiplicities
    thermal      finite-temperature Matsubara energy
    free-energy  one-loop quantized-string free energy
    hagedorn     critical inverse temperature
    oracle       contour vs cutoff-regularization comparison
    scan         sweep one parameter of another command over start:stop:step

One table, _TABLE, gives each command's row builder and its keys with their
parsers and defaults; the flags, key checks and value parsing derive from it.

Numeric flags accept pi-literals ("pi", "2pi", "pi/4", "0.5pi").  Output
is deterministic (17 significant digits, no timestamps); exit status is 0
on success, 1 on domain errors and bad flags, 2 on numerical failures,
with a JSON error record on stderr.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

from . import cutoff, energy, quantum, spectrum, thermal
from .core import NPieceConfig, StringConfig
from .errors import DomainError, StringCasimirError

__all__ = ["RunConfig", "dispatch", "compare_methods", "main"]

_MAX_POINTS = 10**5

_PI_RE = re.compile(r"^\s*(\d+(?:\.\d*)?|\.\d+)?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?|\.\d+))?\s*$")


def parse_value(text):
    """Float parser accepting pi-literals like 'pi', '2pi', 'pi/4'."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return float(text)
    if isinstance(text, str):
        m = _PI_RE.match(text)
        if m:
            mult = float(m.group(1)) if m.group(1) else 1.0
            div = float(m.group(2)) if m.group(2) else 1.0
            if div == 0.0:
                raise DomainError(f"division by zero: {text!r}")
            return mult * math.pi / div
        try:
            return float(text)
        except ValueError:
            pass
    raise DomainError(f"not a number: {text!r}")


def parse_range(text):
    """Inclusive start:stop:step grid (endpoints within half a step) of at
    most _MAX_POINTS points."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (parse_value(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError(f"range must be finite, got {text!r}")
    if step <= 0:
        raise DomainError("range step must be positive")
    if stop < start:
        raise DomainError(f"range stop must not lie below its start, got {text!r}")
    if not (stop - start) / step < _MAX_POINTS - 0.5:
        raise DomainError(f"range has more than {_MAX_POINTS} points, got {text!r}")
    values = []
    v = start
    while v <= stop + 0.5 * step:
        values.append(v)
        v = start + len(values) * step
    return values


def _real(key, value):
    return parse_value(value)


def _integer(key, value):
    v = parse_value(value)
    if not v.is_integer():
        raise DomainError(f"{key} must be an integer, got {value!r}")
    return int(v)


def _boolean(key, value):
    if not isinstance(value, bool):
        raise DomainError(f"{key} must be true or false, got {value!r}")
    return value


def _reals(key, value):
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, list):
        raise DomainError(f"{key} must be a list of numbers, got {value!r}")
    return [parse_value(e) for e in items]


def _scanned_command(key, value):
    if value == "scan" or value not in _COMMANDS:
        raise DomainError(f"scan needs a concrete command, got {value!r}")
    return value


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    output_path: str = ""
    output_format: str = "csv"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if not isinstance(self.output_path, (str, os.PathLike)):
            raise DomainError(f"output path must be a string, got {self.output_path!r}")
        if self.output_format not in ("csv", "json"):
            raise DomainError(f"unknown format {self.output_format!r}")
        keys = _TABLE[self.command][1]
        if self.command == "scan":
            inner = _scanned_command("command", self.parameters.get("command"))
            keys = {**_TABLE[inner][1], **keys}
        unknown = set(self.parameters) - set(keys)
        if unknown:
            raise DomainError(f"unknown parameters for {self.command}: {sorted(unknown)}")


def _values(keys, params):
    """``params`` read by the parsers of ``keys``; a key it lacks takes its default."""
    return {key: parse(key, params[key]) if key in params else default
            for key, (parse, default) in keys.items()}


def _two_piece(p):
    cfg = StringConfig(length_ratio=p["s"], tension_ratio=p["x"], total_length=p["L"])
    return cfg, {"s": cfg.length_ratio, "x": cfg.tension_ratio, "L": cfg.total_length}


def compare_methods(cfg, epsilons=None):
    """Contour vs cutoff-oracle report for one configuration, with the contour's route."""
    contour = energy.casimir_two_piece(cfg)
    oracle = cutoff.casimir_by_cutoff(cfg, epsilons=epsilons).as_energy_result()
    difference = abs(contour.value - oracle.value)
    return {
        "contour_value": contour.value,
        "contour_method": contour.method,
        "contour_error": contour.abs_error_estimate,
        "oracle_value": oracle.value,
        "oracle_error": oracle.abs_error_estimate,
        "abs_difference": difference,
        "agree": bool(difference <= contour.abs_error_estimate + oracle.abs_error_estimate),
    }


def _result_rows(inputs, result, closed_form=None):
    """The row of ``result`` and, at x = 0, the closed-form cross-check row."""
    results = (result, closed_form()) if closed_form and inputs["x"] == 0.0 else (result,)
    return [{**inputs, "value": r.value, "method": r.method, "abs_error_estimate": r.abs_error_estimate}
            for r in results]


def _two_piece_rows(p):
    cfg, inputs = _two_piece(p)
    return _result_rows(inputs, energy.casimir_two_piece(cfg),
                        lambda: energy.casimir_two_piece_x0(cfg.length_ratio, cfg.total_length))


def _2n_rows(p):
    cfg = NPieceConfig(piece_pairs=p["N"], tension_ratio=p["x"], total_length=p["L"])
    inputs = {"N": cfg.piece_pairs, "x": cfg.tension_ratio, "L": cfg.total_length}
    return _result_rows(inputs, energy.casimir_2n(cfg),
                        lambda: energy.casimir_2n_x0(cfg.piece_pairs, cfg.total_length))


def _spectrum_rows(p):
    cfg, inputs = _two_piece(p)
    spec = spectrum.find_spectrum(cfg, p["omega_max"])
    return [{**inputs, "omega": w, "multiplicity": m} for w, m in spec.entries]


def _thermal_rows(p):
    cfg, inputs = _two_piece(p)
    th = thermal.ThermalConfig(temperature=p["T"])
    r = thermal.casimir_two_piece_thermal(cfg, th)
    return _result_rows({**inputs, "T": th.temperature}, r)


def _free_energy_rows(p):
    cfg = quantum.QuantumStringConfig(s=p["s"], tension_ii=p["T_II"])
    beta = 3.0 * quantum.hagedorn_beta(cfg) if p["beta"] is None else p["beta"]
    r = (quantum.thermo_derivatives if p["derivatives"] else quantum.free_energy)(
        cfg, beta, tau2_max=p["tau2_max"])
    derived = ("internal_energy", "entropy", "identity_residual") if p["derivatives"] else ()
    return [{"s": cfg.s, "T_II": cfg.tension_ii, "beta": beta,
             **{k: getattr(r, k) for k in ("free_energy", *derived, "convergence_flag")}}]


def _hagedorn_rows(p):
    cfg = quantum.QuantumStringConfig(s=p["s"], tension_ii=p["T_II"])
    bc = quantum.hagedorn_beta(cfg)
    return [{"s": cfg.s, "T_II": cfg.tension_ii, "beta_c": bc, "T_c": 1.0 / bc}]


def _oracle_rows(p):
    cfg, inputs = _two_piece(p)
    report = compare_methods(cfg, epsilons=p["epsilons"])
    return [
        {**inputs, "value": report["contour_value"], "method": report["contour_method"],
         "abs_error_estimate": report["contour_error"]},
        {**inputs, "value": report["oracle_value"], "method": "cutoff-oracle",
         "abs_error_estimate": report["oracle_error"]},
        {**inputs, "value": report["abs_difference"],
         "method": "difference" if report["agree"] else "difference-DISAGREES",
         "abs_error_estimate": 0.0},
    ]


def _scan_rows(params):
    """The scanned command's rows at each point of its swept key, in order."""
    own = _values(_TABLE["scan"][1], params)
    build, keys = _TABLE[own["command"]]
    swept = [k for k in keys if isinstance(params.get(k), str) and ":" in params[k]]
    fixed = _values({k: spec for k, spec in keys.items() if k not in swept}, params)
    if len(swept) != 1:
        raise DomainError("scan requires exactly one start:stop:step parameter")
    key = swept[0]
    tasks = [{**fixed, key: keys[key][0](key, v)} for v in parse_range(params[key])]
    if own["jobs"] < 1:
        raise DomainError(f"jobs must be at least 1, got {own['jobs']}")
    # the fork start method starts every worker at once, so cap them
    workers = min(own["jobs"], len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(build, tasks))
    else:
        chunks = map(build, tasks)
    return [row for chunk in chunks for row in chunk]


_STRING = {"s": (_real, 1.0), "x": (_real, 1.0), "L": (_real, math.pi)}
_QUANTUM = {"s": (_integer, 1), "T_II": (_real, math.pi)}

# Each command's row builder and keys, each key with its parser and default.
# The builder works out a default of None only when it is used: cutoff's own
# damping grid, or three times the Hagedorn beta.
_TABLE = {
    "energy": (_two_piece_rows, _STRING),
    "energy-n": (_2n_rows, {"N": (_integer, 1), "x": (_real, 1.0), "L": (_real, math.pi)}),
    "spectrum": (_spectrum_rows, {**_STRING, "omega_max": (_real, 10.0)}),
    "thermal": (_thermal_rows, {**_STRING, "T": (_real, 1.0)}),
    "free-energy": (_free_energy_rows, {**_QUANTUM, "beta": (_real, None), "tau2_max": (_real, 1.0),
                                        "derivatives": (_boolean, False)}),
    "hagedorn": (_hagedorn_rows, _QUANTUM),
    "oracle": (_oracle_rows, {**_STRING, "epsilons": (_reals, None)}),
    # a scan also takes the keys of the command it scans
    "scan": (_scan_rows, {"command": (_scanned_command, None), "jobs": (_integer, 1)}),
}
_COMMANDS = tuple(_TABLE)


def _serialize(rows, fmt):
    if fmt == "json":
        return json.dumps({"results": rows}, indent=2, allow_nan=True) + "\n"
    if not rows:
        return ""
    fields = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        values = (row.get(k, "") for k in fields)
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in values])
    return buf.getvalue()


def dispatch(cfg):
    """Run a RunConfig: compute, serialize, write.  Returns the exit code."""
    build, keys = _TABLE[cfg.command]
    # a scan reads its own values: its swept key holds a range
    rows = build(cfg.parameters if cfg.command == "scan" else _values(keys, cfg.parameters))
    text = _serialize(rows, cfg.output_format)
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write output {cfg.output_path!r}: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0


# The help text of each parameter flag, in the order --help lists them
_HELP = {
    "s": "length ratio (or integer branch ratio)",
    "x": "tension ratio in [0, 1]",
    "L": "total string length (default pi)",
    "N": "piece pairs for the 2N string",
    "T": "temperature",
    "T_II": "companion tension for the quantum string",
    "beta": "inverse temperature",
    "tau2_max": "upper modulus cutoff",
    "derivatives": "also report U, S and the identity residual",
    "omega_max": "spectrum ceiling",
    "epsilons": "comma-separated damping parameters",
    "command": "command to sweep when using scan",
    "jobs": "scan worker processes",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad flag is a domain error, as a bad value is."""
        raise DomainError(message)


def _build_parser():
    parser = _Parser(
        prog="stringcasimir",
        description="Casimir energies and thermodynamics of piecewise uniform closed strings",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON run-configuration file (flags override it)")
    switches = {k for _, keys in _TABLE.values() for k, (parse, _) in keys.items() if parse is _boolean}
    for key, text in _HELP.items():
        flags = ["--" + key.replace("_", "-")]
        if key == "command":  # the positional argument holds the command run
            flags.append("--scan-command")
        kind = {"action": "store_true", "default": None} if key in switches else {}
        parser.add_argument(*flags, dest="scan_command" if key == "command" else key, help=text, **kind)
    parser.add_argument("--output", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"))
    return parser


def _read_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from None
    if not (isinstance(raw, dict) and isinstance(raw.get("parameters", {}), dict)
            and isinstance(raw.get("output", {}), dict)):
        raise DomainError("config must be a JSON object whose 'parameters' and 'output' are objects")
    return raw


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        raw = _read_config(args.config) if args.config else {}
        params, output = raw.get("parameters", {}), raw.get("output", {})
        flags = dict(vars(args), command=args.scan_command)
        params.update((k, flags[k]) for k in _HELP if flags[k] is not None)
        cfg = RunConfig(
            command=args.command, parameters=params,
            output_path=output.get("path", "") if args.output is None else args.output,
            output_format=output.get("format", "csv") if args.format is None else args.format,
        )
        return dispatch(cfg)
    except StringCasimirError as exc:
        domain = isinstance(exc, DomainError)
        json.dump({"error": "domain" if domain else "numerical", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1 if domain else 2


if __name__ == "__main__":
    sys.exit(main())

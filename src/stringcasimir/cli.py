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

Numeric flags accept pi-literals ("pi", "2pi", "pi/4", "0.5pi").  Output
is deterministic (17 significant digits, no timestamps); exit status is 0
on success, 1 on domain errors, 2 on numerical failures, with a JSON error
record on stderr.
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

_COMMANDS = ("energy", "energy-n", "spectrum", "thermal", "free-energy", "hagedorn", "oracle", "scan")

_ALLOWED_KEYS = {
    "energy": {"s", "x", "L"},
    "energy-n": {"N", "x", "L"},
    "spectrum": {"s", "x", "L", "omega_max"},
    "thermal": {"s", "x", "L", "T"},
    "free-energy": {"s", "T_II", "beta", "tau2_max", "derivatives"},
    "hagedorn": {"s", "T_II"},
    "oracle": {"s", "x", "L", "epsilons"},
}
_SCAN_KEYS = {"command", "jobs"}.union(*_ALLOWED_KEYS.values())
_ALLOWED_KEYS["scan"] = _SCAN_KEYS
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
        unknown = set(self.parameters) - _ALLOWED_KEYS[self.command]
        if unknown:
            raise DomainError(f"unknown parameters for {self.command}: {sorted(unknown)}")


def _number(command, key, value):
    """One numeric parameter of ``command``: an int for its integer keys."""
    v = parse_value(value)
    if key in ("N", "jobs") or (key == "s" and command in ("free-energy", "hagedorn")):
        if not v.is_integer():
            raise DomainError(f"{key} must be an integer, got {value!r}")
        return int(v)
    return v


def _parse_params(command, params):
    """Flag and config-file values as the runners take them.  A scan's one
    start:stop:step string is kept, to be expanded by parse_range."""
    inner = params.get("command") if command == "scan" else command
    if inner not in tuple(_RUNNERS):
        raise DomainError(f"scan needs a concrete command, got {inner!r}")
    out = {}
    for key, value in params.items():
        if key == "command" or (command == "scan" and isinstance(value, str) and ":" in value):
            out[key] = value
        elif key == "derivatives":
            if not isinstance(value, bool):
                raise DomainError(f"derivatives must be true or false, got {value!r}")
            out[key] = value
        elif key == "epsilons":
            items = value.split(",") if isinstance(value, str) else value
            if not isinstance(items, list):
                raise DomainError(f"epsilons must be a list of numbers, got {value!r}")
            out[key] = [parse_value(e) for e in items]
        else:
            out[key] = _number(inner, key, value)
    return out


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _string_cfg(p):
    return StringConfig(
        length_ratio=p.get("s", 1.0), tension_ratio=p.get("x", 1.0),
        total_length=p.get("L", math.pi),
    )


def compare_methods(cfg, epsilons=None):
    """Contour vs cutoff-oracle report for one configuration."""
    contour = energy.casimir_two_piece(cfg)
    oracle = cutoff.casimir_by_cutoff(cfg, epsilons=epsilons).as_energy_result()
    difference = abs(contour.value - oracle.value)
    combined = contour.abs_error_estimate + oracle.abs_error_estimate + 1e-4
    return {
        "contour_value": contour.value,
        "contour_error": contour.abs_error_estimate,
        "oracle_value": oracle.value,
        "oracle_error": oracle.abs_error_estimate,
        "abs_difference": difference,
        "agree": bool(difference <= combined),
    }


def _run_energy(p):
    cfg = _string_cfg(p)
    rows = []
    r = energy.casimir_two_piece(cfg)
    base = {"s": cfg.length_ratio, "x": cfg.tension_ratio, "L": cfg.total_length}
    rows.append({**base, "value": r.value, "method": r.method,
                 "abs_error_estimate": r.abs_error_estimate})
    if cfg.tension_ratio == 0.0:
        r0 = energy.casimir_two_piece_x0(cfg.length_ratio, cfg.total_length)
        rows.append({**base, "value": r0.value, "method": r0.method,
                     "abs_error_estimate": r0.abs_error_estimate})
    return rows


def _run_energy_n(p):
    cfg = NPieceConfig(piece_pairs=p.get("N", 1), tension_ratio=p.get("x", 1.0),
                       total_length=p.get("L", math.pi))
    rows = []
    r = energy.casimir_2n(cfg)
    base = {"N": cfg.piece_pairs, "x": cfg.tension_ratio, "L": cfg.total_length}
    rows.append({**base, "value": r.value, "method": r.method,
                 "abs_error_estimate": r.abs_error_estimate})
    if cfg.tension_ratio == 0.0:
        r0 = energy.casimir_2n_x0(cfg.piece_pairs, cfg.total_length)
        rows.append({**base, "value": r0.value, "method": r0.method,
                     "abs_error_estimate": r0.abs_error_estimate})
    return rows


def _run_spectrum(p):
    cfg = _string_cfg(p)
    spec = spectrum.find_spectrum(cfg, p.get("omega_max", 10.0))
    base = {"s": cfg.length_ratio, "x": cfg.tension_ratio, "L": cfg.total_length}
    return [{**base, "omega": w, "multiplicity": m} for w, m in spec.entries]


def _run_thermal(p):
    cfg = _string_cfg(p)
    th = thermal.ThermalConfig(temperature=p.get("T", 1.0))
    r = thermal.casimir_two_piece_thermal(cfg, th)
    return [{"s": cfg.length_ratio, "x": cfg.tension_ratio, "L": cfg.total_length,
             "T": th.temperature, "value": r.value, "method": r.method,
             "abs_error_estimate": r.abs_error_estimate}]


def _run_free_energy(p):
    cfg = quantum.QuantumStringConfig(s=p.get("s", 1), tension_ii=p.get("T_II", math.pi))
    beta = p.get("beta", 3.0 * quantum.hagedorn_beta(cfg))
    tau2_max = p.get("tau2_max", 1.0)
    if p.get("derivatives"):
        r = quantum.thermo_derivatives(cfg, beta, tau2_max=tau2_max)
        return [{"s": cfg.s, "T_II": cfg.tension_ii, "beta": beta,
                 "free_energy": r.free_energy, "internal_energy": r.internal_energy,
                 "entropy": r.entropy, "identity_residual": r.identity_residual,
                 "convergence_flag": r.convergence_flag}]
    r = quantum.free_energy(cfg, beta, tau2_max=tau2_max)
    return [{"s": cfg.s, "T_II": cfg.tension_ii, "beta": beta,
             "free_energy": r.free_energy, "convergence_flag": r.convergence_flag}]


def _run_hagedorn(p):
    cfg = quantum.QuantumStringConfig(s=p.get("s", 1), tension_ii=p.get("T_II", math.pi))
    bc = quantum.hagedorn_beta(cfg)
    return [{"s": cfg.s, "T_II": cfg.tension_ii, "beta_c": bc, "T_c": 1.0 / bc}]


def _run_oracle(p):
    cfg = _string_cfg(p)
    report = compare_methods(cfg, epsilons=p.get("epsilons"))
    base = {"s": cfg.length_ratio, "x": cfg.tension_ratio, "L": cfg.total_length}
    return [
        {**base, "value": report["contour_value"], "method": "contour",
         "abs_error_estimate": report["contour_error"]},
        {**base, "value": report["oracle_value"], "method": "cutoff-oracle",
         "abs_error_estimate": report["oracle_error"]},
        {**base, "value": report["abs_difference"],
         "method": "difference" if report["agree"] else "difference-DISAGREES",
         "abs_error_estimate": 0.0},
    ]


_RUNNERS = {
    "energy": _run_energy,
    "energy-n": _run_energy_n,
    "spectrum": _run_spectrum,
    "thermal": _run_thermal,
    "free-energy": _run_free_energy,
    "hagedorn": _run_hagedorn,
    "oracle": _run_oracle,
}


def _scan_worker(args):
    index, command, params = args
    return index, _RUNNERS[command](params)


def _run_scan(p):
    command = p["command"]
    swept = [(k, v) for k, v in p.items() if isinstance(v, str) and ":" in v]
    if len(swept) != 1:
        raise DomainError("scan requires exactly one start:stop:step parameter")
    key, rng = swept[0]
    values = [_number(command, key, v) for v in parse_range(rng)]
    fixed = {k: v for k, v in p.items() if k not in ("command", "jobs", key)}
    jobs = p.get("jobs", 1)
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    tasks = [(i, command, {**fixed, key: v}) for i, v in enumerate(values)]
    # the fork start method starts every worker at once, so cap them
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            indexed = list(pool.map(_scan_worker, tasks))
    else:
        indexed = [_scan_worker(t) for t in tasks]
    indexed.sort(key=lambda pair: pair[0])
    rows = []
    for _, chunk in indexed:
        rows.extend(chunk)
    return rows


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
        writer.writerow([_fmt(row.get(k, "")) for k in fields])
    return buf.getvalue()


def dispatch(cfg):
    """Run a RunConfig: compute, serialize, write.  Returns the exit code."""
    params = _parse_params(cfg.command, cfg.parameters)
    if cfg.command == "scan":
        rows = _run_scan(params)
    else:
        rows = _RUNNERS[cfg.command](params)
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stringcasimir",
        description="Casimir energies and thermodynamics of piecewise uniform closed strings",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON run-configuration file (flags override it)")
    parser.add_argument("--s", help="length ratio (or integer branch ratio)")
    parser.add_argument("--x", help="tension ratio in [0, 1]")
    parser.add_argument("--L", help="total string length (default pi)")
    parser.add_argument("--N", help="piece pairs for the 2N string")
    parser.add_argument("--T", help="temperature")
    parser.add_argument("--T-II", dest="T_II", help="companion tension for the quantum string")
    parser.add_argument("--beta", help="inverse temperature")
    parser.add_argument("--tau2-max", dest="tau2_max", help="upper modulus cutoff")
    parser.add_argument("--derivatives", action="store_true",
                        help="also report U, S and the identity residual")
    parser.add_argument("--omega-max", dest="omega_max", help="spectrum ceiling")
    parser.add_argument("--epsilons", help="comma-separated damping parameters")
    parser.add_argument("--command", "--scan-command", dest="scan_command",
                        help="command to sweep when using scan")
    parser.add_argument("--jobs", default=1, help="scan worker processes")
    parser.add_argument("--output", default="", help="output file (default stdout)")
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    return parser


def _params_from_args(args):
    """The parameter flags given, as raw strings; --command and --jobs
    only for scan."""
    flags = dict(vars(args), command=args.scan_command)
    keys = _SCAN_KEYS if args.command == "scan" else _SCAN_KEYS - {"command", "jobs"}
    return {k: flags[k] for k in keys if flags[k] is not None and flags[k] is not False}


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
    args = _build_parser().parse_args(argv)
    try:
        params = {}
        output_path, output_format = args.output, args.format
        if args.config:
            raw = _read_config(args.config)
            params.update(raw.get("parameters", {}))
            output = raw.get("output", {})
            output_path = args.output or output.get("path", "")
            if args.format == "csv" and "format" in output:
                output_format = output["format"]
        params.update(_params_from_args(args))
        cfg = RunConfig(command=args.command, parameters=params,
                        output_path=output_path, output_format=output_format)
        return dispatch(cfg)
    except DomainError as exc:
        json.dump({"error": "domain", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except StringCasimirError as exc:
        json.dump({"error": "numerical", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: config handling, subcommand dispatch, dataset export.

Configuration is a flat ``key = value`` file (``#`` starts a comment) whose
keys match the RunConfig fields below; command-line flags override file
values, which override the library's defaults (DetectorConfig, GridSpec,
the sweeps' pulse rate and attenuation). --config alone names the file,
which is read as UTF-8. A file may hold any key; a subcommand takes
unabbreviated flags for exactly the keys it reads (_COMMANDS), and
refuses those its attack or protocol ignores (_ignored_keys).

Each row is vars(record) of the record the library returns (SweepRow,
MuOptimum, DistancePoint, MinSrpResult; the attack row spreads AttackPoint):
its fields in declaration order. render_rows takes a header and value
tuples, each row's values or the --trace-out scan's (b, i_e) pairs, and
writes CSV (default; lowercase-e scientific notation) or JSON (an array of
row objects with the same field names, in ``json.dumps(indent=2)``'s layout,
written directly). Output for a given config and seed is byte-identical
between runs, and help is wrapped at 80 columns whatever the terminal.
The parser, every command's, is built by the first build_parser call and
serves every later main call in the process: parsing leaves it unchanged.
Exit codes: 0 on success, 1 on validation errors, 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .attack import maximize_eve_information, scan_information
from .discrimination import (build_povm, outcome_probabilities, overlap,
                             povm_probabilities_fock, span_states)
from .physics import DetectorConfig, Protocol, SetupConfig
from .rates import DecoyConfig, bb84_secret_rate
from .simulation import AttackKind, DoubleClickPolicy, SimConfig, simulate
from .sweeps import (
    DEFAULT_FIBER_INDEX,
    DEFAULT_PULSE_RATE_HZ,
    DEFAULT_T_DB,
    GridSpec,
    evaluate_sr_point,
    min_srp_photons,
    optimize_mu,
    rate_row,
    rate_vs_distance,
    rate_vs_t,
    row_flags,
    sweep_mu_t,
    train_capacity,
)

_DETECTOR = DetectorConfig()
_GRID = GridSpec()
_DECOY = DecoyConfig()

# RunConfig keys by what reads them: the only record of which key feeds which command.
_SETUP_KEYS = ("protocol", "mu", "t_db", "length_km", "pulse_rate_hz")
_MONITOR_KEYS = ("nep", "tau_s", "lambda_m")  # the SRP monitor's photon uncertainty
_DETECTOR_KEYS = ("eta", "p_dc", "p_opt", *_MONITOR_KEYS, "f_ec")
_DECOY_KEYS = ("nu1_ratio", "nu2_ratio", "p_mu")
_MU_AXIS = ("mu_lo", "mu_hi", "mu_points")
_T_AXIS = ("t_lo", "t_hi", "t_points")
_L_AXIS = ("l_lo", "l_hi", "l_points")
_SIMULATOR_KEYS = ("n_pulses", "seed", "attack", "double_click")
_CHANNEL_KEYS = ("mu", "t_db", "length_km", "eta", *_MONITOR_KEYS)  # fix mu' and delta
_SWEEP_KEYS = ("protocol", "length_km", "pulse_rate_hz", *_DETECTOR_KEYS)  # rates at one L
# Read only through the reference pulse's delta: simulate reads these only under
# the soft-filter attack, whose optimum depends on delta, and BB84 rates never.
_DELTA_KEYS = ("t_db", *_MONITOR_KEYS)


@dataclass(frozen=True)
class RunConfig:
    """Flat merged view of every tunable; field names double as config keys."""

    # protocol / setup
    protocol: str = "b92-sr"
    mu: float = 0.3
    t_db: float = DEFAULT_T_DB
    length_km: float = 10.0
    pulse_rate_hz: float = DEFAULT_PULSE_RATE_HZ
    # detector
    eta: float = _DETECTOR.eta
    p_dc: float = _DETECTOR.p_dc
    p_opt: float = _DETECTOR.p_opt
    nep: float = _DETECTOR.nep
    tau_s: float = _DETECTOR.tau_s
    lambda_m: float = _DETECTOR.lambda_m
    f_ec: float = _DETECTOR.f_ec
    # decoy-state baseline
    nu1_ratio: float = _DECOY.nu1_ratio
    nu2_ratio: float = _DECOY.nu2_ratio
    p_mu: float = _DECOY.p_mu
    # sweep grids
    mu_lo: float = _GRID.mu_range[0]
    mu_hi: float = _GRID.mu_range[1]
    mu_points: int = _GRID.mu_range[2]
    t_lo: float = _GRID.t_range_db[0]
    t_hi: float = _GRID.t_range_db[1]
    t_points: int = _GRID.t_range_db[2]
    l_lo: float = _GRID.l_range_km[0]
    l_hi: float = _GRID.l_range_km[1]
    l_points: int = _GRID.l_range_km[2]
    # simulation
    n_pulses: int = 1_000_000
    seed: int = 12345
    attack: str = "none"
    double_click: str = "discard"
    # output
    format: str = "csv"

    def _values(self, keys) -> dict:
        return {key: getattr(self, key) for key in keys}

    def setup(self) -> SetupConfig:
        return SetupConfig(**self._values(_SETUP_KEYS))

    def detector(self) -> DetectorConfig:
        return DetectorConfig(**self._values(_DETECTOR_KEYS))

    def grid(self) -> GridSpec:
        return GridSpec(mu_range=(self.mu_lo, self.mu_hi, self.mu_points),
                        t_range_db=(self.t_lo, self.t_hi, self.t_points),
                        l_range_km=(self.l_lo, self.l_hi, self.l_points))

    def decoy(self) -> DecoyConfig:
        return DecoyConfig(**self._values(_DECOY_KEYS))

    def validate(self) -> "RunConfig":
        """Re-run every domain validation on the merged values."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        self.setup()
        self.detector()
        self.grid()
        self.decoy()
        AttackKind(self.attack)
        SimConfig(n_pulses=self.n_pulses, seed=self.seed, double_click=self.double_click)
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        return self


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_PARSE = {"int": int, "float": float}  # a field's type -> its parser; str otherwise


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` lines; unknown keys are rejected by name."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{source}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _PARSE.get(_FIELD_TYPES[key], str)(raw)
        except ValueError:
            raise ValueError(f"{source}:{lineno}: bad value for {key!r}: {raw!r}") from None
    return values


def dump_config(config: RunConfig) -> str:
    """Render a config file that re-parses to an identical RunConfig."""
    lines = []
    for field in dataclasses.fields(RunConfig):
        value = getattr(config, field.name)
        rendered = format(value, ".17g") if isinstance(value, float) else str(value)
        lines.append(f"{field.name} = {rendered}")
    return "\n".join(lines) + "\n"


def load_run_config(config_path: Optional[str], overrides: dict) -> RunConfig:
    values = {}
    if config_path:
        values.update(parse_config_text(Path(config_path).read_text(encoding="utf-8"),
                                        source=config_path))
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values).validate()


# ---------------------------------------------------------------------------
# output rendering

def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (tuple, list)):
        return ";".join(str(v) for v in value)
    return str(value)


def _json_cell(value, nested: bool = False) -> str:
    """A row value as ``json.dumps(indent=2)`` writes it, but nan and ±inf as
    null; a tuple is a list of scalars, one level deeper."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, (tuple, list)) and not nested:
        items = ",\n      ".join([_json_cell(v, nested=True) for v in value])
        return f"[\n      {items}\n    ]" if value else "[]"
    return json.dumps(value)  # without indent, json stays in C and refuses what it cannot write


# The float reprs json.dumps writes as null; every other cell maps to itself.
_JSON_NULLS = dict.fromkeys(("nan", "inf", "-inf"), "null")


def _render_column(column: Sequence, fmt: str) -> list[str]:
    """One column's cells. A column of exact floats is formatted in one C-level
    pass: "%.12g" % v is format(v, ".12g"), and a JSON cell is the float's repr
    with nan and ±inf then patched to null. Any other column goes cell by cell."""
    if set(map(type, column)) != {float}:
        return list(map(_json_cell if fmt == "json" else _csv_cell, column))
    if fmt != "json":
        return list(map("%.12g".__mod__, column))
    cells = list(map(float.__repr__, column))
    if not all(map(math.isfinite, column)):
        cells = list(map(_JSON_NULLS.get, cells, cells))
    return cells


def render_rows(fieldnames: Sequence[str], rows: Sequence[tuple], fmt: str) -> str:
    """A table of value tuples, each in ``fieldnames`` order."""
    if fmt == "json" and not rows:
        return "[]\n"
    columns = [_render_column(column, fmt) for column in zip(*rows)]
    if fmt == "json":
        # One row object, as json.dumps(indent=2) lays it out, with a %s per cell.
        template = "  {" + ",".join(["\n    " + json.dumps(k).replace("%", "%%") + ": %s"
                                     for k in fieldnames]) + "\n  }"
        return "[\n" + ",\n".join(map(template.__mod__, zip(*columns))) + "\n]\n"
    return "\n".join([",".join(fieldnames), *map(",".join, zip(*columns))]) + "\n"


def _emit(text: str, out: Optional[str]):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns its rows, whose keys are the columns

def _refuse_flags(args, keys, why: str):
    """Refuse the flags given for ``keys``, which have no effect, in one error."""
    given = ["--" + key.replace("_", "-") for key in _FIELD_TYPES
             if key in keys and getattr(args, key, None) is not None]
    if given:
        raise ValueError(f"{' '.join(given)}: no effect with {why}")


def _ignored_keys(protocol: Protocol) -> set[str]:
    """The keys a protocol's rate ignores: delta's without a reference pulse, the
    decoy keys but for decoy-BB84. rate and optimize-mu still read t_db, which
    their rows echo."""
    keys = set() if protocol.uses_reference_pulse else set(_DELTA_KEYS)
    return keys if protocol is Protocol.BB84_DECOY else keys | set(_DECOY_KEYS)


def _checked_protocol(config: RunConfig, args) -> Protocol:
    """The config's protocol, once the flags its rate ignores are refused."""
    protocol = Protocol(config.protocol)
    _refuse_flags(args, _ignored_keys(protocol) - {"t_db"}, f"protocol {protocol.value}")
    return protocol


def _cmd_rate(config: RunConfig, args) -> list[dict]:
    protocol = _checked_protocol(config, args)
    setup, detector = config.setup(), config.detector()
    if protocol.uses_reference_pulse:
        return [vars(evaluate_sr_point(setup, detector))]
    return [vars(rate_row(setup, bb84_secret_rate(setup, detector, config.decoy())))]


def _cmd_attack(config: RunConfig, args) -> list[dict]:
    setup, detector = config.setup(), config.detector()
    solution = maximize_eve_information(setup, detector)
    if args.trace_out is not None:
        Path(args.trace_out).write_text(
            render_rows(("b", "i_e"), scan_information(setup, detector), config.format))
    return [{"mu": setup.mu, "t_db": setup.t_db, "length_km": setup.length_km,
             "delta": solution.channel.delta, "b_min": solution.b_min, "b_max": solution.b_max,
             **vars(solution.best), "flags": row_flags(solution, clamped=False)}]


def _cmd_sweep_mu_t(config: RunConfig, args) -> list[dict]:
    rows = sweep_mu_t(config.length_km, config.grid(), config.detector(),
                      protocol=Protocol(config.protocol),
                      pulse_rate_hz=config.pulse_rate_hz)
    return list(map(vars, rows))


def _cmd_optimize_mu(config: RunConfig, args) -> list[dict]:
    return [vars(optimize_mu(config.length_km, config.t_db, config.detector(),
                             protocol=_checked_protocol(config, args),
                             pulse_rate_hz=config.pulse_rate_hz,
                             mu_range=config.grid().mu_range, decoy=config.decoy()))]


def _cmd_rate_vs_t(config: RunConfig, args) -> list[dict]:
    curve = rate_vs_t(config.length_km, config.mu, config.grid().t_values(),
                      config.detector(), protocol=Protocol(config.protocol),
                      pulse_rate_hz=config.pulse_rate_hz)
    print(f"t_sat_db = {curve.t_sat_db}  onset_t_db = {curve.onset_t_db}"
          f"  onset_nu = {curve.onset_nu}", file=sys.stderr)
    return list(map(vars, curve.rows))


def _cmd_rate_vs_distance(config: RunConfig, args) -> list[dict]:
    protocols = [Protocol(p.strip()) for p in args.protocols.split(",") if p.strip()]
    if protocols:  # rate_vs_distance refuses an empty list
        ignored = set.intersection(*map(_ignored_keys, protocols))
        _refuse_flags(args, ignored, "protocols " + ",".join(p.value for p in protocols))
    comparison = rate_vs_distance(protocols, config.detector(),
                                  config.grid().l_values(), t_db=config.t_db,
                                  pulse_rate_hz=config.pulse_rate_hz,
                                  mu_range=config.grid().mu_range, decoy=config.decoy())
    print(f"crossover_km = {comparison.crossover_km}", file=sys.stderr)
    return list(map(vars, comparison.rows))


def _cmd_min_srp(config: RunConfig, args) -> list[dict]:
    return [vars(min_srp_photons(config.length_km, config.detector(),
                                 t_grid=config.grid().t_values(), criterion=args.criterion,
                                 protocol=Protocol(config.protocol),
                                 pulse_rate_hz=config.pulse_rate_hz,
                                 mu_bounds=(config.mu_lo, config.mu_hi)))]


def _cmd_simulate(config: RunConfig, args) -> list[dict]:
    kind = AttackKind(config.attack)
    if kind is not AttackKind.SOFT_FILTER:
        _refuse_flags(args, _DELTA_KEYS,
                      f"attack {kind.value}, only with {AttackKind.SOFT_FILTER.value}")
    sim = SimConfig(n_pulses=config.n_pulses, seed=config.seed, attack=kind,
                    double_click=config.double_click)
    result = simulate(config.setup(), config.detector(), sim)
    return [{
        "n_pulses": result.n_pulses, "seed": config.seed, "attack": kind.value,
        "double_click": DoubleClickPolicy(config.double_click).value,
        "conclusive_count": result.conclusive_count, "error_count": result.error_count,
        "qber_hat": result.qber_hat, "rate_hat": result.rate_hat,
        "qber_ci_lo": result.qber_ci[0], "qber_ci_hi": result.qber_ci[1],
        "rate_ci_lo": result.rate_ci[0], "rate_ci_hi": result.rate_ci[1],
    }]


def _cmd_povm_check(config: RunConfig, args) -> list[dict]:
    mu = config.mu
    cos_gamma = overlap(mu)
    if cos_gamma == 1.0:
        raise ValueError(f"mu={mu} is too small: the overlap exp(-2*mu) rounds to 1")
    povm = build_povm(cos_gamma)
    p0, p1 = (outcome_probabilities(povm, psi) for psi in span_states(cos_gamma))
    fock = povm_probabilities_fock(mu)
    return [{
        "mu": mu, "cos_gamma": cos_gamma,
        "completeness_residual": povm.completeness_residual(),
        "min_eigenvalue": povm.min_eigenvalue(),
        "p_ok_0": p0[0], "p_cross_0": p0[1], "p_inc_0": p0[2],
        "p_ok_1": p1[1], "p_cross_1": p1[0], "p_inc_1": p1[2],
        "fock_p_ok_0": fock["ok"], "fock_p_cross_0": fock["cross"],
        "fock_p_inc_0": fock["inc"],
    }]


def _cmd_train_capacity(config: RunConfig, args) -> list[dict]:
    count = train_capacity(args.storage_km, config.pulse_rate_hz, n_fib=args.n_fib)
    return [{"storage_km": args.storage_km, "pulse_rate_hz": config.pulse_rate_hz,
             "n_fib": args.n_fib, "capacity": count}]


# Each command's handler and the RunConfig keys it reads, which are its flags.
_COMMANDS = {
    "rate": (_cmd_rate, _SETUP_KEYS + _DETECTOR_KEYS + _DECOY_KEYS),
    "attack": (_cmd_attack, _CHANNEL_KEYS),
    "sweep-mu-t": (_cmd_sweep_mu_t, _SWEEP_KEYS + _MU_AXIS + _T_AXIS),
    "optimize-mu": (_cmd_optimize_mu, _SWEEP_KEYS + ("t_db",) + _DECOY_KEYS + _MU_AXIS),
    "rate-vs-t": (_cmd_rate_vs_t, _SWEEP_KEYS + ("mu",) + _T_AXIS),
    "rate-vs-distance": (_cmd_rate_vs_distance, ("t_db", "pulse_rate_hz") + _DETECTOR_KEYS
                         + _DECOY_KEYS + _MU_AXIS + _L_AXIS),
    # The floored mu search of min-srp reads only the ends of the mu axis.
    "min-srp": (_cmd_min_srp, _SWEEP_KEYS + ("mu_lo", "mu_hi") + _T_AXIS),
    "simulate": (_cmd_simulate, _CHANNEL_KEYS + ("p_dc", "p_opt") + _SIMULATOR_KEYS),
    "povm-check": (_cmd_povm_check, ("mu",)),
    "train-capacity": (_cmd_train_capacity, ()),  # pulse_rate_hz, spelled --rate-hz
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def _get_formatter(self):
        # The width COLUMNS=80 gives, fixed: help and usage bytes do not depend on the terminal.
        return self.formatter_class(prog=self.prog, width=78)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_override_flags(parser: argparse.ArgumentParser, keys: Sequence[str]):
    """--config, --out, --dump-config, --format and one flag per key, in RunConfig order."""
    parser.add_argument("--config", help="config file path")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the merged configuration and exit")
    for key, kind in _FIELD_TYPES.items():
        if key in keys or key == "format":
            parser.add_argument("--" + key.replace("_", "-"), dest=key,
                                type=_PARSE.get(kind))


def build_parser() -> argparse.ArgumentParser:
    """The srqkd parser with every command's subparser, built on the first call
    and shared by every later one, so callers must not change it. Parsing leaves
    it unchanged; building it costs more than a quick command takes to run. A
    plain function over the cached _parser, so a tracer counts each call."""
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="srqkd", description=__doc__.splitlines()[0],
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)  # one spelling per flag
        _add_override_flags(p, keys)
        if name == "attack":
            p.add_argument("--trace-out", help="write the (b, i_e) scan to this file")
        elif name == "rate-vs-distance":
            p.add_argument("--protocols", default="b92-sr,bb84-standard,bb84-decoy",
                           help="comma-separated protocol list")
        elif name == "min-srp":
            p.add_argument("--criterion", default="positive-rate",
                           choices=("positive-rate", "0.99-of-max"))
        elif name == "train-capacity":
            p.add_argument("--storage-km", type=float, required=True,
                           help="storage-line fiber length in km")
            p.add_argument("--rate-hz", dest="pulse_rate_hz", type=float, metavar="RATE_HZ",
                           help="pulse repetition rate in Hz (config key pulse_rate_hz)")
            p.add_argument("--n-fib", type=float, default=DEFAULT_FIBER_INDEX,
                           help="fiber group refractive index")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    try:
        config = load_run_config(args.config, overrides)
        if args.dump_config:
            _emit(dump_config(config), args.out)
            return 0
        rows = _COMMANDS[args.command][0](config, args)
        for row in rows:
            for value in row.values():
                if isinstance(value, float) and math.isinf(value):
                    raise ArithmeticError(f"non-finite value in output: {row}")
        if args.command == "train-capacity" and config.format == "csv" and not args.out:
            # the common interactive use: just answer with the number
            sys.stdout.write(f"{rows[0]['capacity']}\n")
            return 0
        _emit(render_rows(tuple(rows[0]), [tuple(row.values()) for row in rows],
                          config.format), args.out)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: exit codes, schemas, config handling, determinism."""

import argparse
import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import srqkd
from srqkd import DecoyConfig, DetectorConfig, GridSpec, cli
from srqkd.cli import RunConfig, load_run_config, main, parse_config_text
from srqkd.sweeps import DEFAULT_PULSE_RATE_HZ, DEFAULT_T_DB

SWEEP_HEADER = "mu,t_db,length_km,delta,qber,i_e,r_sec_per_pulse,r_sec_hz,flags"

# Small grids so CLI round-trips stay fast; values don't matter, shapes do.
# min-srp reads only the ends of the mu axis.
FAST_MU = ["--mu-lo", "0.1", "--mu-hi", "0.6"]
FAST_T = ["--t-lo", "55", "--t-hi", "75", "--t-points", "3"]


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("SRQKD_CONFIG", raising=False)


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_csv_schema(capsys):
    code, out, _ = _run(["rate", "--mu", "0.3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.3
    assert 0.0 < float(cells[7])  # positive secret rate at the reference point


def test_rate_bb84_has_no_monitor_delta(capsys, tmp_path):
    code, out, _ = _run(["rate", "--protocol", "bb84-decoy", "--mu", "0.3"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "nan"  # no reference pulse, no monitoring precision
    # JSON renders the same missing value as null.
    out_file = tmp_path / "rate.json"
    assert main(["rate", "--protocol", "bb84-decoy", "--mu", "0.3",
                 "--format", "json", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload[0]["delta"] is None
    assert payload[0]["r_sec_hz"] > 0.0


def test_simulate_rejects_more_pulses_than_int64(capsys, address_space_cap):
    code, out, err = _run(["simulate", "--n-pulses", "99999999999999999999"], capsys)
    assert code == 1
    assert out == ""
    assert "n_pulses must be in [1, 9223372036854775807]" in err


def test_dump_config_rejects_what_simulate_rejects(capsys):
    # --dump-config must not write a config that simulate then refuses.
    argv = ["simulate", "--n-pulses", "99999999999999999999"]
    assert _run(argv + ["--dump-config"], capsys) == _run(argv, capsys)


def test_repeated_runs_are_byte_identical(tmp_path):
    args = ["simulate", "--n-pulses", "200000", "--seed", "31415"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dump_config_round_trip(capsys, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    code, out, _ = _run(["rate", "--mu", "0.42", "--t-db", "70", "--dump-config"], capsys)
    assert code == 0
    cfg_file.write_text(out)
    code2, out2, _ = _run(["rate", "--config", str(cfg_file), "--dump-config"], capsys)
    assert code2 == 0
    assert out2 == out
    reparsed = RunConfig(**parse_config_text(out))
    assert reparsed.mu == 0.42 and reparsed.t_db == 70.0


def test_env_var_names_config(capsys, tmp_path, monkeypatch):
    cfg_file = tmp_path / "env.cfg"
    cfg_file.write_text("mu = 0.17\nlength_km = 33\n")
    monkeypatch.setenv("SRQKD_CONFIG", str(cfg_file))
    code, out, _ = _run(["rate", "--dump-config"], capsys)
    assert code == 0
    assert "mu = 0.17" in out
    assert "length_km = 33" in out
    # Explicit flags still win over the environment config.
    code, out, _ = _run(["rate", "--mu", "0.5", "--dump-config"], capsys)
    assert "mu = 0.5\n" in out


def test_run_config_defaults_are_the_library_defaults():
    config = RunConfig()
    assert config.detector() == DetectorConfig()
    assert config.grid() == GridSpec()
    assert (config.pulse_rate_hz, config.t_db) == (DEFAULT_PULSE_RATE_HZ, DEFAULT_T_DB)
    assert config.decoy() == DecoyConfig()


def test_unknown_config_key_is_named(capsys, tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    # mu_scale is no key: the mu axis is always log-spaced.
    for command, key in (("rate", "bogus"), ("optimize-mu", "mu_scale")):
        cfg_file.write_text(f"mu = 0.3\n{key} = 7\n")
        code, _, err = _run([command, "--config", str(cfg_file)], capsys)
        assert code == 1
        assert err == f"error: {cfg_file}:2: unknown config key {key!r}\n"


def test_config_comments_and_bad_values(tmp_path):
    values = parse_config_text("# full-line comment\nmu = 0.25  # inline\n\nseed = 7\n")
    assert values == {"mu": 0.25, "seed": 7}
    with pytest.raises(ValueError, match="bad value"):
        parse_config_text("mu = lots\n")
    with pytest.raises(ValueError, match="bad value"):
        parse_config_text("mu_points = inf\n")
    with pytest.raises(ValueError, match="bad value"):
        parse_config_text("mu_points = 5.9\n")  # as --mu-points 5.9 is refused
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("mu 0.3\n")
    cfg = load_run_config(None, {"mu": 0.5, "t_db": None})
    assert cfg.mu == 0.5 and cfg.t_db == RunConfig().t_db


def test_config_seed_is_exact(capsys, tmp_path):
    # A seed past 2**53 reads from a file as it does through --seed.
    seed = "12345678901234567891"
    cfg_file = tmp_path / "seed.cfg"
    cfg_file.write_text(f"seed = {seed}\n")
    assert parse_config_text(cfg_file.read_text()) == {"seed": int(seed)}
    from_file = _run(["simulate", "--config", str(cfg_file), "--dump-config"], capsys)
    assert from_file == _run(["simulate", "--seed", seed, "--dump-config"], capsys)
    assert f"seed = {seed}\n" in from_file[1]


# One valid value other than the default for each RunConfig key; a base config
# on small grids keeps each run short. Each command runs from one or more base
# configs: a key it reads changes its output on at least one of them. The
# commands that dispatch on protocol run from one base per protocol.
_KEY_BASE = {"mu_points": "4", "t_lo": "40", "t_hi": "80", "t_points": "2",
             "l_hi": "40", "l_points": "2", "n_pulses": "1000000000",
             "format": "json"}
_KEY_OTHER = {
    "protocol": "bb84-sr", "mu": "0.35", "t_db": "60", "length_km": "20",
    "pulse_rate_hz": "1e7", "eta": "0.25", "p_dc": "3e-5", "p_opt": "0.03", "nep": "3e-11",
    "tau_s": "4e-9", "lambda_m": "1.3e-6", "f_ec": "1.1", "nu1_ratio": "0.2",
    "nu2_ratio": "0.02", "p_mu": "0.6", "mu_lo": "0.05", "mu_hi": "0.8", "mu_points": "5",
    "t_lo": "55", "t_hi": "85", "t_points": "3", "l_lo": "5",
    "l_hi": "30", "l_points": "3", "n_pulses": "2000000000", "seed": "7", "attack": "beam-split",
    "double_click": "random-bit", "format": "csv",
}
# A base protocol's other value: the other SR protocol, or the other BB84 baseline.
_OTHER_PROTOCOL = {"b92-sr": "bb84-sr", "bb84-sr": "b92-sr",
                   "bb84-standard": "bb84-decoy", "bb84-decoy": "bb84-standard"}
_PER_PROTOCOL = [((), {"protocol": protocol}) for protocol in _OTHER_PROTOCOL]
# Each command's runs: (its argv after the config, its base config).
_KEY_RUNS = {
    "rate": _PER_PROTOCOL,
    "attack": [((), {})],
    "sweep-mu-t": [((), {})],
    "optimize-mu": _PER_PROTOCOL,
    "rate-vs-t": [((), {})],
    "rate-vs-distance": [(("--protocols", protocols), {}) for protocols in (
        *_OTHER_PROTOCOL, "bb84-standard,bb84-decoy", "b92-sr,bb84-decoy")],
    "min-srp": [((), {})],
    "simulate": [((), {"attack": "soft-filter"}), ((), {"attack": "none"})],
    "povm-check": [((), {})],
    "train-capacity": [(("--storage-km", "10"), {})],
}


def _key_flags(command):
    """The RunConfig keys that command takes as flags, with their spellings."""
    from srqkd import cli

    (sub,) = [a for a in cli.build_parser(command)._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {action.dest: action.option_strings for action in sub.choices[command]._actions
            if action.dest in _KEY_OTHER}


@pytest.mark.parametrize("command", sorted(_KEY_RUNS))
def test_flags_are_the_keys_each_command_reads(tmp_path, command):
    # A command takes a flag for each key it reads, and refuses a flag whose
    # key leaves the output of that run unchanged (simulate's other attacks,
    # a protocol's ignored keys). A config file may hold any key.
    assert sorted(_KEY_OTHER) == sorted(f.name for f in dataclasses.fields(RunConfig))
    flags = _key_flags(command)
    cfg_file = tmp_path / "run.cfg"

    def run(values, *extra):
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        return _run_captured([command, "--config", str(cfg_file), *argv, *extra])

    read = set()
    for argv, base in _KEY_RUNS[command]:
        base = {**_KEY_BASE, **base}
        before = run(base)
        assert before[0] == 0, before
        for key, other in _KEY_OTHER.items():
            if key == "protocol" and key in base:
                other = _OTHER_PROTOCOL[base[key]]
            changed = run({**base, key: other})
            if changed != before:
                read.add(key)
            if key not in flags:
                continue
            code, out, err = flag_run = run(base, flags[key][0], other)
            if changed == before:
                assert (code, out) == (1, "") and err.startswith(
                    f"error: {flags[key][0]}: no effect with "), (argv, base, key, err)
            else:
                assert flag_run == changed, (argv, base, key)
    assert set(flags) == read
    spelled = {"pulse_rate_hz": ["--rate-hz"]} if command == "train-capacity" else {}
    assert flags == {key: spelled.get(key, ["--" + key.replace("_", "-")]) for key in flags}


@pytest.mark.parametrize("attack", ["none", "beam-split"])
def test_simulate_refuses_flags_its_attack_does_not_read(capsys, tmp_path, attack):
    # t_db and the monitor keys fix delta, which only the soft-filter optimum
    # reads: from a config file they leave the output as it is, and as flags
    # they are refused by name.
    base = ["simulate", "--attack", attack, "--n-pulses", "100000"]
    code, out, err = _run(base, capsys)
    assert (code, err) == (0, "")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("t_db = 50\nnep = 1e-11\ntau_s = 1e-9\nlambda_m = 1.3e-6\n")
    assert _run(base + ["--config", str(cfg_file)], capsys) == (0, out, "")
    for flag, value in (("--t-db", "50"), ("--nep", "1e-11"), ("--tau-s", "1e-9"),
                        ("--lambda-m", "1.3e-6")):
        assert _run(base + [flag, value], capsys) == (
            1, "", f"error: {flag}: no effect with attack {attack}, only with soft-filter\n")
    code, out, err = _run(["simulate", "--attack", "soft-filter", "--n-pulses", "100000",
                           "--t-db", "50", "--nep", "1e-11"], capsys)
    assert (code, err) == (0, "") and out


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["rate", "--does-not-exist", "1"])
    assert excinfo.value.code == 1


def test_invalid_value_exits_1(capsys):
    code, _, err = _run(["rate", "--mu", "-0.3"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["rate", "--t-db", "nan"], id="--t-db-nan"),
    pytest.param(["rate", "--length-km", "inf"], id="--length-km-inf"),
    pytest.param(["train-capacity", "--storage-km", "inf"], id="train-capacity--storage-km-inf"),
    pytest.param(["train-capacity", "--storage-km", "nan"], id="train-capacity--storage-km-nan"),
    pytest.param(["train-capacity", "--storage-km", "10", "--rate-hz", "inf"],
                 id="train-capacity--rate-hz-inf"),
    pytest.param(["train-capacity", "--storage-km", "10", "--n-fib", "inf"],
                 id="train-capacity--n-fib-inf"),
])
def test_non_finite_value_exits_1(capsys, argv):
    code, out, err = _run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, error", [
    # The scan's resolution is fixed: argparse rejects the flag.
    pytest.param(["attack", "--b-points", value],
                 f"srqkd: error: unrecognized arguments: --b-points {value}",
                 id=f"--b-points-{value}")
    for value in ("0", "-5", "1", "1000000000000")
] + [
    # min-srp has one mu policy, optimized at each t: argparse rejects
    # --mu-policy and --fixed-mu (a fixed mu's thresholds come from rate-vs-t).
    pytest.param(["min-srp", "--mu-policy", "fixed", "--fixed-mu", "0.3"],
                 "srqkd: error: unrecognized arguments: --mu-policy fixed --fixed-mu 0.3",
                 id="--mu-policy-fixed"),
    # The mu axis is always log-spaced: argparse rejects --mu-scale.
    pytest.param(["optimize-mu", "--mu-scale", "linear"],
                 "srqkd: error: unrecognized arguments: --mu-scale linear",
                 id="--mu-scale-linear"),
] + [
    # No flag is abbreviated: --m is not --mu, nor --len --length-km.
    pytest.param([command, flag, value], f"srqkd: error: unrecognized arguments: {flag} {value}",
                 id=f"{command}{flag}-{value}")
    for command, flag, value in (("rate", "--m", "0.2"), ("attack", "--len", "20"))
] + [
    pytest.param(["min-srp", "--fixed-mu", value],
                 f"srqkd: error: unrecognized arguments: --fixed-mu {value}",
                 id=f"--fixed-mu-{value}")
    for value in ("-1", "0", "nan")
] + [
    pytest.param([command, f"--{axis}-points", "1000000000000"],
                 f"error: {axis} range needs at most 1000000 points",
                 id=f"{command}--{axis}-points-1000000000000")
    for command, axis in (("optimize-mu", "mu"), ("min-srp", "t"), ("sweep-mu-t", "mu"),
                          ("rate-vs-t", "t"), ("rate-vs-distance", "l"))
])
def test_bad_search_setting_exits_1(address_space_cap, argv, error):
    # Under the cap, a grid of 10**12 points fails with MemoryError if it is
    # not refused first.
    code, out, err = _run_captured(argv)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith(error)


@pytest.mark.parametrize("protocols, names", [
    (",", "[]"),
    ("b92-sr,b92-sr", "['b92-sr', 'b92-sr']"),
    ("b92-sr,bb84-decoy,b92-sr", "['b92-sr', 'bb84-decoy', 'b92-sr']"),
], ids=["empty", "repeated", "repeated-apart"])
def test_bad_protocol_list_exits_1(capsys, protocols, names):
    code, out, err = _run(["rate-vs-distance", "--protocols", protocols,
                           "--l-points", "2", "--mu-points", "5"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: protocols must be a non-empty list without repeats, got {names}\n"


def test_empty_argv_names_missing_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    assert "the following arguments are required: command" in capsys.readouterr().err


def test_parser_for_one_command(capsys, monkeypatch):
    from srqkd import cli

    one, full = cli.build_parser("rate"), cli.build_parser()
    (sub,) = [a for a in one._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["rate"]
    assert one.format_usage() == full.format_usage()
    # main builds the parser once, for the command it was given.
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or full)
    assert main(["rate", "--dump-config"]) == 0
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert built == ["rate", None]


def test_deep_grey_rate_exits_0(capsys):
    # The b-grid used to score the unitarity bound b_min as feasible here,
    # and the maximizer then raised on it.
    code, out, _ = _run(["rate", "--mu", "0.509703", "--t-db", "40.9804",
                         "--length-km", "5"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",grey-region;clamped")


@pytest.mark.parametrize("argv", [
    ["rate", "--t-db", "20"],  # p rounds to 1
    ["attack", "--t-db", "20"],
    ["rate", "--t-db", "5"],  # exp(2*eta*mu'*delta) overflows
    ["attack", "--t-db", "5"],
])
def test_deep_grey_low_attenuation_exits_0(capsys, argv):
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    assert out.strip().splitlines()[1].endswith(",grey-region;attack-infeasible")


@pytest.mark.parametrize("command", ["rate", "attack"])
def test_large_signal_intensity_exits_0(capsys, command):
    # math.expm1 in the b-interval overflowed here ("math range error", exit 2).
    code, out, err = _run([command, "--mu", "1000"], capsys)
    assert code == 0, err
    assert len(out.strip().splitlines()) == 2
    code, _, err = _run([command, "--mu", "1e300"], capsys)
    assert code in (0, 1), err


@pytest.mark.parametrize("argv", [("rate",), ("attack",), ("rate", "--eta", "1"),
                                  ("attack", "--eta", "1")], ids=" ".join)
def test_overflowing_fail_weight_exits_0(capsys, argv):
    # p rounds to 1, so the fail branch weighs 1 - p = 0, but its click weight
    # w_f = -expm1(-2*eta*mu'(1 - delta)) overflowed ("math range error", exit 2).
    code, out, err = _run([*argv, "--mu", "20000", "--length-km", "100", "--t-db", "0"],
                          capsys)
    assert code == 0, err
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["i_e"] == "1"
    assert cells["flags"] == {"rate": "grey-region;clamped", "attack": "grey-region"}[argv[0]]


def _overflowing_handler(config, args):
    raise OverflowError("math range error")


@pytest.mark.parametrize("handler, message", [
    (lambda config, args: [{"mu": config.mu, "r_sec_hz": math.inf}],
     "non-finite value in output"),
    (_overflowing_handler, "math range error"),
], ids=["inf-row", "overflow"])
def test_numerical_failure_exits_2(capsys, monkeypatch, handler, message):
    # No input is known to reach exit 2, so a fake handler stands in for a
    # command whose result is not finite: nothing goes to stdout.
    monkeypatch.setitem(cli._COMMANDS, "rate", (handler, cli._COMMANDS["rate"][1]))
    code, out, err = _run(["rate"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"numerical failure: {message}"), err


@pytest.mark.parametrize("protocol", ["bb84-decoy", "bb84-standard"])
@pytest.mark.parametrize("command", ["sweep-mu-t", "rate-vs-t"])
def test_sr_sweep_of_bb84_exits_1(capsys, command, protocol):
    code, out, err = _run([command, "--protocol", protocol], capsys)
    assert code == 1
    assert out == ""
    assert f"needs an SR protocol, got {protocol}" in err


@pytest.mark.parametrize("argv", [
    ("rate", "--length-km", "16300"),
    ("rate", "--t-db", "4000"),
    ("attack", "--t-db", "4000"),
    ("simulate", "--length-km", "16300"),
    ("min-srp", "--t-hi", "4000", "--t-points", "3"),
    ("rate-vs-distance", "--l-hi", "1e6", "--l-points", "3", "--mu-points", "5"),
], ids=" ".join)
def test_reference_pulse_out_of_range_exits_1(capsys, argv):
    # The SRP at Bob leaves float range: T(L) underflows, or 10**(t/10) overflows.
    code, out, err = _run(list(argv), capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: the reference pulse at Bob") and "length_km=" in err


@pytest.mark.parametrize("argv", [
    ("rate", "--length-km", "15600"),
    ("optimize-mu", "--length-km", "15600"),
    ("rate-vs-t", "--length-km", "15600", "--t-points", "3"),
    ("min-srp", "--length-km", "15600", "--t-points", "11"),
], ids=" ".join)
def test_delta_overflow_at_unit_mu_names_t_and_l(capsys, argv):
    # From about 15 550 km the SRP at Bob is still a float, but delta(mu=1)
    # overflows: the fiber is the cause, so the refusal names t_db and
    # length_km, not mu.
    code, out, err = _run(list(argv), capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: delta at mu=1 overflows") and "length_km=15600.0" in err
    # Where delta(1) is finite the grey row still prints.
    code, out, err = _run(["rate", "--length-km", "15600", "--t-db", "90", "--mu", "1"], capsys)
    assert code == 0, err
    assert out.splitlines()[1].endswith(",grey-region;clamped")


def test_min_srp_without_positive_rate_is_a_row(capsys):
    # No positive rate in the scan is a result, as optimize-mu's found=false
    # row is: exit 0, with no threshold (nan in CSV, null in JSON).
    argv = ["min-srp", "--p-opt", "0.5"] + FAST_MU + FAST_T
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "10,positive-rate,nan,nan,nan,0"
    code, out, _ = _run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == [{"length_km": 10.0, "criterion": "positive-rate",
                                "nu_threshold": None, "mu_at": None, "t_db_at": None,
                                "r_sec_hz": 0.0}]


def test_min_srp_row_schema(capsys):
    code, out, _ = _run(["min-srp"] + FAST_MU + FAST_T, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "length_km,criterion,nu_threshold,mu_at,t_db_at,r_sec_hz"
    cells = lines[1].split(",")
    assert cells[1] == "positive-rate"
    nu, mu_at, t_at = float(cells[2]), float(cells[3]), float(cells[4])
    assert nu == pytest.approx(mu_at * 10 ** (t_at / 10.0), rel=1e-10)


def test_optimize_mu_json(capsys):
    code, out, _ = _run(["optimize-mu", "--format", "json"] + FAST_MU + ["--mu-points", "7"],
                        capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    row = payload[0]
    assert row["found"] is True
    assert 0.1 <= row["mu_opt"] <= 0.6
    assert row["per_pulse"] == pytest.approx(row["r_sec_hz"] / 5e6, rel=1e-12)


def test_sweep_row_count(capsys):
    code, out, _ = _run(["sweep-mu-t", "--mu-points", "2", "--t-points", "3",
                         "--mu-lo", "0.2", "--mu-hi", "0.4",
                         "--t-lo", "60", "--t-hi", "70"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 2 * 3


@pytest.mark.parametrize("protocol", ["bb84-standard", "bb84-decoy"])
def test_optimize_mu_bb84_matches_rate_vs_distance_row(capsys, protocol):
    # Only decoy-BB84 takes the decoy keys as flags.
    grid = ["--mu-points", "11", "--format", "json"]
    if protocol == "bb84-decoy":
        grid += ["--nu1-ratio", "0.1", "--p-mu", "0.9"]
    code, out, _ = _run(["optimize-mu", "--protocol", protocol, "--length-km", "20"] + grid,
                        capsys)
    assert code == 0
    (opt,) = json.loads(out)
    code, out, _ = _run(["rate-vs-distance", "--protocols", protocol, "--l-lo", "20",
                         "--l-hi", "40", "--l-points", "2"] + grid, capsys)
    assert code == 0
    row = json.loads(out)[0]
    assert opt["found"] is True
    assert (opt["mu_opt"], opt["r_sec_hz"], opt["per_pulse"]) == (
        row["mu"], row["r_sec_hz"], row["per_pulse"])


def test_rate_vs_distance_stderr_crossover(capsys):
    code, out, err = _run(["rate-vs-distance", "--protocols", "b92-sr,bb84-decoy",
                           "--l-lo", "50", "--l-hi", "80", "--l-points", "2",
                           "--mu-lo", "0.05", "--mu-hi", "1.0", "--mu-points", "13"],
                          capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "protocol,length_km,mu,r_sec_hz,per_pulse"
    assert len(lines) == 1 + 2 * 2
    assert "crossover_km = " in err


def test_attack_trace_out(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = _run(["attack", "--trace-out", str(trace)], capsys)
    assert code == 0
    header = out.strip().splitlines()[0].split(",")
    for needed in ("b", "p", "a", "i_e", "b_min", "b_max", "flags"):
        assert needed in header
    trace_lines = trace.read_text().strip().splitlines()
    assert trace_lines[0] == "b,i_e"
    assert len(trace_lines) == 1 + 2000


@pytest.mark.parametrize("fmt, empty", [("csv", "b,i_e\n"), ("json", "[]\n")])
def test_attack_trace_out_empty_interval(capsys, tmp_path, fmt, empty):
    # An empty b-interval has no scan: the trace holds no rows.
    trace = tmp_path / f"trace.{fmt}"
    code, out, err = _run(["attack", "--mu", "0.01", "--t-db", "40", "--length-km", "30",
                           "--format", fmt, "--trace-out", str(trace)], capsys)
    assert code == 0, err
    assert "attack-infeasible" in out
    assert trace.read_text() == empty


# SHA-256 of `attack --trace-out` files: every byte of the 2000-row scan, where
# the corpus holds no trace and the benchmark samples every 100th row.
_TRACE_SETUPS = {
    "default": (),
    "unitarity-bound": ("--mu", "0.509703", "--t-db", "40.9804", "--length-km", "5"),
    "empty": ("--mu", "0.01", "--t-db", "40", "--length-km", "30"),
    # q underflows to 0 and expm1 overflows over the lower part of the interval.
    "deep-grey": ("--mu", "20000", "--length-km", "100", "--t-db", "0"),
}
_TRACE_DIGESTS = {
    ("default", "csv"): "5ec45fa75ea71cf394eda69536b60689de870b3d82315e310ad5fec478c24104",
    ("default", "json"): "907f5c30aed23c974b3db64c016bca189f0994ae2510845e42b23b56b9a813d7",
    ("unitarity-bound", "csv"):
        "7c2e7ddfb8aeca4ed9001cde744c6c7270b8fad7e15105a814361f2931ddc7d2",
    ("unitarity-bound", "json"):
        "99bcdf949b50abb0a36a4fd329fbe080f866b464fbd21d723b7dc5f5b98e5c03",
    ("empty", "csv"): "abcb1063946ae465867ad090f9c7fd9170d5398cc97250f2913f80ce95f52642",
    ("empty", "json"): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    ("deep-grey", "csv"): "631402e83958bb81ff80db5207923e8f911be005b63f46f1cb77bffb9e8c95a7",
    ("deep-grey", "json"): "6c552f06cdc5eaa48dd9b05c90598310f926a90694a1f3f78bc0719c0a82fcde",
}


@pytest.mark.parametrize("setup, fmt", sorted(_TRACE_DIGESTS), ids=str)
def test_attack_trace_out_bytes(capsys, tmp_path, setup, fmt):
    trace = tmp_path / f"trace.{fmt}"
    code, _, err = _run(["attack", *_TRACE_SETUPS[setup], "--format", fmt,
                         "--trace-out", str(trace)], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == _TRACE_DIGESTS[setup, fmt]


# The renderer against json.dumps(indent=2) and format(v, ".12g"), its oracles.
_RENDER_FLOATS = (st.floats()
                  | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
                  | st.floats().map(np.float64))
_RENDER_TEXT = st.text(st.sampled_from('ab"\\\n\t/\x00éΔ€𝄞') | st.characters(), max_size=5)
_RENDER_VALUES = (_RENDER_FLOATS | st.integers() | st.booleans() | _RENDER_TEXT
                  | st.lists(_RENDER_TEXT, max_size=2).map(tuple))


@st.composite
def _render_rows(draw):
    names = draw(st.lists(_RENDER_TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({k: _RENDER_VALUES for k in names}),
                         max_size=3))
    return rows, names


def _oracle_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return list(value) if isinstance(value, tuple) else value


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=_render_rows())
def test_render_rows_matches_its_oracles(case):
    rows, names = case
    payload = [{k: _oracle_cell(row[k]) for k in names} for row in rows]
    assert cli.render_rows(rows, names, "json") == json.dumps(payload, indent=2) + "\n"
    csv = [",".join(names)] + [",".join(cli._csv_cell(row[k]) for k in names) for row in rows]
    assert cli.render_rows(rows, names, "csv") == "\n".join(csv) + "\n"
    for value in (v for row in rows for v in row.values() if isinstance(v, float)):
        assert "%.12g" % value == format(value, ".12g")


def test_render_rows_refuses_what_json_refuses():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.render_rows([{"x": object()}], ("x",), "json")


def test_povm_check_row(capsys):
    # At mu = 1e-12 the Fock tail bound alone would keep a single dimension.
    for mu in ("0.25", "1e-12"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = _run(["povm-check", "--mu", mu], capsys)
        assert code == 0
        assert caught == []
        header, row = out.strip().splitlines()
        values = {k: float(v) for k, v in zip(header.split(","), row.split(","))}
        assert abs(values["completeness_residual"]) < 1e-12
        if mu == "0.25":
            assert values["p_ok_0"] == pytest.approx(1.0 - math.exp(-0.5), rel=1e-10)
        for outcome in ("ok", "cross", "inc"):
            fock = values[f"fock_p_{outcome}_0"]
            assert math.isfinite(fock)
            assert fock == pytest.approx(values[f"p_{outcome}_0"], abs=1e-9)


def test_train_capacity_stdout_and_csv(capsys, tmp_path):
    code, out, _ = _run(["train-capacity", "--storage-km", "10"], capsys)
    assert code == 0
    assert out.strip() == "245"
    out_file = tmp_path / "train.csv"
    assert main(["train-capacity", "--storage-km", "20", "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "storage_km,pulse_rate_hz,n_fib,capacity"
    assert lines[1].endswith(",490")


TRAIN_CAPACITY_ARGV = ["train-capacity", "--storage-km", "10"]


def _assert_prints_245(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "245"


def _child_env():
    # A child process must import the same srqkd as this one, installed or not.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(srqkd.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def test_console_entry_point():
    # What an installed `srqkd` script runs: the [project.scripts] target, loaded
    # the way installers resolve it and called with no arguments in its own process.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["srqkd"]
    assert target == "srqkd.cli:main"
    script = ("import sys; from importlib.metadata import EntryPoint; "
              f"sys.exit(EntryPoint('srqkd', {target!r}, 'console_scripts').load()())")
    proc = subprocess.run([sys.executable, "-c", script, *TRAIN_CAPACITY_ARGV],
                          capture_output=True, text=True, env=_child_env())
    _assert_prints_245(proc)


def test_runtime_imports_no_scipy():
    # NumPy is the only runtime dependency; SciPy is a test-only oracle.
    script = ("import sys, srqkd, srqkd.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Every command but simulate, each with small grids; attack without --trace-out.
_PLAIN_PYTHON_ARGV = [
    ["rate"], ["rate", "--protocol", "bb84-decoy"], ["attack"], ["povm-check"],
    ["sweep-mu-t", "--mu-points", "2", "--t-points", "2"],
    ["optimize-mu", "--mu-points", "5"], ["rate-vs-t", "--t-points", "3"],
    ["rate-vs-distance", "--l-points", "2", "--mu-points", "5"],
    ["min-srp", "--t-points", "3"],
    ["train-capacity", "--storage-km", "10"],
]


def _numpy_loaded_after(argvs) -> list[bool]:
    """Whether numpy is in sys.modules after each run, in one fresh interpreter."""
    script = f"""
import contextlib, io, sys
import srqkd, srqkd.cli
loaded = ["numpy" in sys.modules]
for argv in {list(argvs)!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert srqkd.cli.main(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(loaded)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_numpy_loads_only_for_simulate_and_the_trace(tmp_path):
    # Importing the package and running any other command leaves NumPy
    # unloaded; simulate and attack --trace-out load it.
    assert _numpy_loaded_after(_PLAIN_PYTHON_ARGV) == [False] * (1 + len(_PLAIN_PYTHON_ARGV))
    assert _numpy_loaded_after([["simulate", "--n-pulses", "1000"]]) == [False, True]
    trace = ["attack", "--trace-out", str(tmp_path / "trace.csv")]
    assert _numpy_loaded_after([trace]) == [False, True]


@pytest.mark.skipif(shutil.which("srqkd") is None, reason="no srqkd script on PATH")
def test_installed_console_script():
    proc = subprocess.run(["srqkd", *TRAIN_CAPACITY_ARGV], capture_output=True, text=True)
    _assert_prints_245(proc)


@pytest.mark.parametrize("argv, edge, reason", [
    # exp(-2*mu) rounds to 1 below about 2.776e-17.
    (("povm-check", "--mu", "2e-17"), ("povm-check", "--mu", "2.78e-17"), "rounds to 1"),
    # delta = delta(mu=1)/mu overflows; 1e-310 still gives a row.
    (("rate", "--mu", "1e-320"), ("rate", "--mu", "1e-310"), "delta overflows"),
    (("attack", "--mu", "1e-320"), ("attack", "--mu", "1e-310"), "delta overflows"),
], ids=["povm-check", "rate", "attack"])
def test_tiny_mu_refusal_names_mu(capsys, argv, edge, reason):
    code, out, err = _run(list(argv), capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"mu={argv[-1]}" in err and reason in err
    code, out, _ = _run(list(edge), capsys)
    assert code == 0 and len(out.splitlines()) == 2


# ---------------------------------------------------------------------------
# Contract fuzz: whatever values a command's own flags get, it exits 0, 1 or
# 2, writes no traceback, and repeats byte for byte.

# Every axis of a command cut to 3 points; drawn flags come later and win.
_FUZZ_BASE = {name: [f"--{key.replace('_', '-')}=3" for key in ("mu_points", "t_points",
                                                                 "l_points") if key in keys]
              for name, (_, keys) in cli._COMMANDS.items()}
_FUZZ_BASE["train-capacity"] = ["--storage-km=10"]
# Flags of a command that are no RunConfig key; they take floats.
_FUZZ_EXTRA = {"train-capacity": ("storage_km", "n_fib")}
_FUZZ_WORDS = {"protocol": [p.value for p in srqkd.Protocol],
               "attack": [a.value for a in srqkd.AttackKind],
               "double_click": [d.value for d in srqkd.DoubleClickPolicy],
               "format": ["csv", "json"]}
# Huge, zero, negative, the smallest subnormal, nan, inf and non-numeric.
_FUZZ_ODD = ("1e300", "0", "-1", "5e-324", "nan", "inf", "x")


def _fuzz_value(key: str):
    if key in _FUZZ_WORDS:
        usual = st.sampled_from(_FUZZ_WORDS[key])
    elif key.endswith("_points"):
        usual = st.integers(-1, 5).map(str)  # at most 5 points on any axis
    elif key == "n_pulses":
        usual = st.integers(-1, 10**6).map(str)
    elif key == "seed":
        usual = st.integers(-1, 2**64).map(str)
    else:
        usual = st.floats(0.0, 100.0, exclude_min=True).map(repr)
    return usual | st.sampled_from(_FUZZ_ODD)


@st.composite
def _fuzz_argv(draw) -> list[str]:
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    keys = cli._COMMANDS[name][1] + ("format",) + _FUZZ_EXTRA.get(name, ())
    argv = [name, *_FUZZ_BASE[name]]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        argv.append(f"--{key.replace('_', '-')}={draw(_fuzz_value(key))}")
    return argv


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_fuzz_argv())
def test_cli_contract_fuzz(address_space_cap, argv):
    first = _run_captured(argv)
    assert first[0] in (0, 1, 2), (argv, first)
    assert "Traceback" not in first[2], (argv, first)
    assert _run_captured(argv) == first, argv


# ---------------------------------------------------------------------------
# Golden CLI corpus: exit code, stdout and stderr of a fixed set of runs,
# compared byte for byte. A change that shifts numbers on purpose
# regenerates it with `PYTHONPATH=src python tests/test_cli.py`.

GOLDEN_CORPUS = Path(__file__).resolve().parent / "golden" / "cli_corpus.json"

_CORPUS_POINTS = (
    ("--mu", "0.3", "--t-db", "65", "--length-km", "10"),
    ("--mu", "0.05", "--t-db", "75", "--length-km", "25"),
    ("--mu", "0.5", "--t-db", "55", "--length-km", "0"),
    ("--mu", "0.2", "--t-db", "86", "--length-km", "0"),
    ("--mu", "0.509703", "--t-db", "40.9804", "--length-km", "5"),  # deep grey
    ("--mu", "0.01", "--t-db", "40", "--length-km", "30"),  # empty b-interval
)
# Deep grey at low SRP attenuation: p rounds to 1 at 20 dB, exp overflows at 5 dB.
_DEEP_GREY = (("rate", "--t-db", "20"), ("attack", "--t-db", "20"),
              ("rate", "--t-db", "5"), ("attack", "--t-db", "5"))
_DECOY_KEYS = ("--nu1-ratio", "0.1", "--p-mu", "0.9")
_MIN_SRP_GRID = ("--t-lo", "50", "--t-hi", "80", "--t-points", "6")


def _corpus_commands() -> list[tuple[str, ...]]:
    commands = [("rate", "--protocol", protocol, "--length-km", length)
                for protocol in ("b92-sr", "bb84-sr", "bb84-standard", "bb84-decoy")
                for length in ("0", "10", "37", "80")]
    commands += [(name,) + point for point in _CORPUS_POINTS for name in ("rate", "attack")]
    # --b-points is no option: argparse rejects it.
    commands += [("attack", "--b-points", "1"), ("attack", "--b-points", "7"),
                 ("attack", "--b-points", "1000000000000")]
    commands += list(_DEEP_GREY)
    commands += [("optimize-mu", "--protocol", p)
                 for p in ("b92-sr", "bb84-sr", "bb84-standard", "bb84-decoy")]
    commands += [("optimize-mu", "--protocol", "bb84-decoy") + _DECOY_KEYS,
                 ("rate-vs-distance", "--protocols", "bb84-decoy", "--l-points", "3",
                  "--l-hi", "40", "--mu-points", "11") + _DECOY_KEYS,
                 ("min-srp", "--protocol", "bb84-decoy") + _MIN_SRP_GRID]
    commands += [
        ("rate-vs-t", "--t-points", "41"),
        ("rate-vs-distance", "--l-points", "13", "--mu-points", "21"),
        ("sweep-mu-t", "--mu-points", "9", "--t-points", "9"),
        ("simulate", "--attack", "soft-filter", "--n-pulses", "100000"),
        ("simulate", "--attack", "beam-split", "--n-pulses", "100000"),
        ("simulate", "--attack", "none", "--n-pulses", "100000"),
        ("simulate", "--double-click", "random-bit", "--n-pulses", "100000"),
        ("simulate", "--n-pulses", "1000000000000"),
        ("simulate", "--n-pulses", "99999999999999999999"),
        ("simulate", "--n-pulses", "99999999999999999999", "--dump-config"),
        ("povm-check",),
        ("train-capacity", "--storage-km", "10"),
        ("min-srp", "--p-opt", "0.5") + _MIN_SRP_GRID,
    ]
    commands += [("min-srp", "--criterion", criterion) + _MIN_SRP_GRID
                 for criterion in ("positive-rate", "0.99-of-max")]
    # The thresholds at a fixed mu: onset_nu, and mu*10^(t_sat_db/10).
    commands += [("rate-vs-t", "--mu", "0.3") + _MIN_SRP_GRID]
    commands += [(name, "--mu", mu) for mu in ("1000", "1e300") for name in ("rate", "attack")]
    commands += [("rate-vs-distance", "--protocols", ","),
                 ("rate-vs-distance", "--protocols", "b92-sr,b92-sr", "--l-points", "2",
                  "--mu-points", "5")]
    # Decoy bounds at a mu whose square underflows.
    commands += [("rate", "--protocol", "bb84-decoy", "--mu", "1e-300"),
                 ("optimize-mu", "--protocol", "bb84-decoy", "--mu-lo", "1e-200",
                  "--mu-points", "5")]
    # No gain at all: the rate is +0, not -0.
    commands += [("rate", "--protocol", protocol, "--mu", "5e-324", "--p-dc", "0")
                 for protocol in ("bb84-standard", "bb84-decoy")]
    # Halving a subnormal click rounds up: the QBER model reads 2/3, capped at 1/2.
    commands += [("simulate", "--mu", "1.5e-323", "--p-opt", "0.5", "--p-dc", "0",
                  "--eta", "0.5", "--length-km", "0", "--n-pulses", "1000")]
    commands += [argv + ("--format", "json") for argv in commands]
    # A positive rate that underflows to 0 at a subnormal pulse rate: a zero
    # r_sec_hz beside the exact per-pulse rate, not a refusal. The searches
    # score per-pulse rates, so they find the mu they find at 5e6 Hz.
    commands += [("rate", "--pulse-rate-hz", "4e-323"),
                 ("optimize-mu", "--pulse-rate-hz", "1e-322"),
                 ("optimize-mu", "--protocol", "bb84-decoy", "--pulse-rate-hz", "1e-322")]
    # A grid too large to lay out, refused before any array is made; a sweep
    # of more points than the cap, refused before any rate is computed; a
    # grid too small and an f_ec below 1, refused by validation.
    commands += [("optimize-mu", "--mu-points", "1000000000000"),
                 ("sweep-mu-t", "--mu-points", "1000", "--t-points", "1001"),
                 ("min-srp", "--t-points", "2494"),
                 ("optimize-mu", "--mu-points", "1"), ("rate", "--f-ec", "0.5")]
    # Finite inputs whose train capacity is in float range although the float
    # expression storage_km*1e3*n_fib*f/c overflows: the exact floor.
    commands += [("train-capacity", "--storage-km", "1e300", "--rate-hz", "1e10")]
    # simulate reads t_db and the monitor keys only under the soft-filter
    # attack; the other attacks refuse them as flags.
    commands += [("simulate", "--attack", "none", "--t-db", "50", "--nep", "1e-11"),
                 ("simulate", "--attack", "beam-split", "--tau-s", "1e-9",
                  "--lambda-m", "1.3e-6")]
    # rate, optimize-mu and rate-vs-distance refuse as flags the keys that
    # every protocol they rate ignores.
    commands += [("rate", "--nu1-ratio", "0.1"),
                 ("rate", "--protocol", "bb84-standard", "--nep", "1e-11"),
                 ("rate-vs-distance", "--protocols", "bb84-decoy", "--t-db", "70")]
    # A mu too small for the command, refused by name, and the nearest that is not.
    commands += [("povm-check", "--mu", "2e-17"), ("povm-check", "--mu", "2.78e-17"),
                 ("rate", "--mu", "1e-320"), ("rate", "--mu", "1e-310"),
                 ("attack", "--mu", "1e-320"), ("attack", "--mu", "1e-310")]
    # The reference pulse at Bob out of float range, refused by name, and a
    # BB84 row there, which has no reference pulse; decoy bounds past exp's
    # range; delta(mu=1) overflowing at 15 600 km, refused by name, and a grey
    # row there where it is finite; and --mu-scale, which is no option (mu is
    # always log-spaced).
    commands += [("rate", "--length-km", "16300"), ("rate", "--t-db", "4000"),
                 ("rate", "--protocol", "bb84-decoy", "--length-km", "20000"),
                 ("min-srp", "--t-hi", "4000", "--t-points", "3"),
                 ("rate", "--protocol", "bb84-decoy", "--mu", "710"),
                 ("rate", "--length-km", "15600"), ("optimize-mu", "--length-km", "15600"),
                 ("rate-vs-t", "--length-km", "15600", "--t-points", "3"),
                 ("min-srp", "--length-km", "15600", "--t-points", "11"),
                 ("rate", "--length-km", "15600", "--t-db", "90", "--mu", "1"),
                 ("optimize-mu", "--protocol", "bb84-decoy", "--mu-hi", "1000",
                  "--mu-points", "5"),
                 ("optimize-mu", "--mu-scale", "linear")]
    # The config format; the Fock cross-check at a mu whose tail bound keeps one
    # dimension; and --mu-policy and --fixed-mu, which are no options (min-srp
    # optimizes mu at each t; rate-vs-t holds it fixed).
    commands += [("rate", "--dump-config"), ("povm-check", "--mu", "1e-12"),
                 ("min-srp", "--mu-policy", "fixed", "--fixed-mu", "0.3"),
                 ("min-srp", "--fixed-mu", "0.3")]
    # argparse's own output: help, usage lines and usage errors.
    return commands + [
        ("-h",), ("bogus",), ("rate", "-h"), ("train-capacity", "-h"),
        ("rate", "--bogus", "1"), ("rate", "0.3"), ("rate", "--mu", "x"),
        ("min-srp", "--criterion", "z"), ("train-capacity",), ("rate", "--m", "0.2"),
        # No abbreviations, and no flag for a key the command does not read.
        ("attack", "--len", "20"), ("povm-check", "--eta", "0.9"),
        ("min-srp", "--mu-points", "21"),
        ("train-capacity", "--storage-km", "10", "--pulse-rate-hz", "1e7"),
    ]


def _run_captured(argv) -> list:
    # argparse leaves main by SystemExit.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def test_golden_cli_corpus(address_space_cap):
    corpus = json.loads(GOLDEN_CORPUS.read_text(encoding="utf-8"))
    keys = [" ".join(argv) for argv in _corpus_commands()]
    assert sorted(corpus) == sorted(keys)
    runs = {key: _run_captured(key.split(" ")) for key in keys}
    changed = [f"{key}: {_corpus_change(corpus[key], run)}"
               for key, run in runs.items() if run != corpus[key]]
    assert not changed, (f"{len(changed)} runs differ from {GOLDEN_CORPUS.name}:\n"
                         + "\n".join(changed))


@pytest.mark.parametrize("columns", ["40", "200"])
def test_help_does_not_depend_on_the_terminal(monkeypatch, columns):
    # argparse wraps to $COLUMNS unless given a width; the corpus holds the bytes.
    corpus = json.loads(GOLDEN_CORPUS.read_text(encoding="utf-8"))
    monkeypatch.setenv("COLUMNS", columns)
    assert _run_captured(["rate", "--help"]) == corpus["rate -h"]
    assert _run_captured(["rate", "--bogus", "1"]) == corpus["rate --bogus 1"]


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


_JSON_KEY = re.compile(r'"([^"]+)":')


def _field_at(lines: list[str], row: int, pos: int) -> str:
    """The field of the number at lines[row][pos]: its JSON key, its CSV
    header cell, or else the text before it on its line."""
    before = lines[row][:pos]
    keys = _JSON_KEY.findall(before)
    if keys:
        return keys[-1]
    header = lines[0].split(",")
    if row > 0 and len(header) > 1:
        return header[min(before.count(","), len(header) - 1)]
    return before.strip(" =:") or f"line {row + 1}"


def _corpus_change(old: list, new: list) -> str:
    """How a corpus entry moved: its largest relative numeric shift and the
    field it is in, or a flag.

    An exit code that differs, or stdout/stderr that differ anywhere but in
    their numbers, is flagged instead of measured.
    """
    if old[0] != new[0]:
        return f"EXIT CODE {old[0]} -> {new[0]}"
    shift, field = 0.0, None
    for before, after in zip(old[1:], new[1:]):
        if _NUMBER.split(before) != _NUMBER.split(after):
            return "TEXT CHANGED"
        lines = after.splitlines()
        for row, (line_x, line_y) in enumerate(zip(before.splitlines(), lines)):
            for x, y in zip(_NUMBER.finditer(line_x), _NUMBER.finditer(line_y)):
                a, b = float(x.group()), float(y.group())
                if a != b and abs(a - b) / max(abs(a), abs(b)) > shift:
                    shift = abs(a - b) / max(abs(a), abs(b))
                    field = _field_at(lines, row, y.start())
    return f"max rel shift {shift:.3g}" + (f" in {field}" if field else "")


def test_corpus_change_names_the_field():
    csv = "mu,b,i_e\n0.3,{},1\n"
    assert _corpus_change([0, csv.format(0.5), ""], [0, csv.format(0.9), ""]) == \
        "max rel shift 0.444 in b"
    doc = '[\n  {{\n    "b": 0.5,\n    "i_e": {}\n  }}\n]\n'
    assert _corpus_change([0, doc.format(0.25), ""], [0, doc.format(0.5), ""]) == \
        "max rel shift 0.5 in i_e"
    assert _corpus_change([0, "", "crossover_km = 68.4\n"], [0, "", "crossover_km = 70\n"]) \
        == "max rel shift 0.0229 in crossover_km"
    assert _corpus_change([0, "mu\n0.30\n", ""], [0, "mu\n0.3\n", ""]) == "max rel shift 0"
    assert _corpus_change([0, "a 1\n", ""], [0, "b 1\n", ""]) == "TEXT CHANGED"
    assert _corpus_change([0, "", ""], [1, "", ""]) == "EXIT CODE 0 -> 1"


def write_golden_corpus() -> None:
    """Rewrite the corpus and print how each entry that changed moved.

    A new key whose entry equals a removed key's is reported as a rename.
    """
    os.environ.pop("SRQKD_CONFIG", None)
    old = (json.loads(GOLDEN_CORPUS.read_text(encoding="utf-8"))
           if GOLDEN_CORPUS.exists() else {})
    corpus = {" ".join(argv): _run_captured(argv) for argv in _corpus_commands()}
    removed = sorted(old.keys() - corpus.keys())
    for key, entry in corpus.items():
        if key not in old:
            renamed = next((k for k in removed if old[k] == entry), None)
            if renamed is None:
                print(f"{key}: new")
            else:
                removed.remove(renamed)
                print(f"{renamed} -> {key}: same bytes")
        elif entry != old[key]:
            print(f"{key}: {_corpus_change(old[key], entry)}")
    for key in removed:
        print(f"{key}: removed")
    GOLDEN_CORPUS.parent.mkdir(exist_ok=True)
    GOLDEN_CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden_corpus()

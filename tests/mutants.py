"""The mutation catalogue: one deliberate defect per guard, and the tests that catch it.

Each mutant replaces the exact text ``old``, which occurs once in ``file``,
with ``new``. Its ``killers`` are the test ids expected to fail on it.
``tests/run_mutants.py`` applies the mutants one at a time to a copy of the
repository and runs them; ``tests/test_package.py`` checks, without running
any, that each ``old`` text is still there exactly once.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "id file old new killers")

MUTANTS = (
    # The mu search scores and bounds per-pulse rates, so no mu depends on f.
    Mutant("objective-scores-hz", "src/srqkd/sweeps.py",
           "return secret_rate(setup_at(y), detector, decoy=decoy).per_pulse",
           "return secret_rate(setup_at(y), detector, decoy=decoy).r_sec",
           ("tests/test_sweeps.py::test_optimize_mu_does_not_depend_on_the_pulse_rate",)),
    Mutant("per-pulse-through-hz", "src/srqkd/rates.py",
           "per_pulse=per_pulse,",
           "per_pulse=per_pulse * pulse_rate_hz / pulse_rate_hz,",
           ("tests/test_rates.py::test_underflowing_rate_is_zero_not_refused",
            "tests/test_sweeps.py::test_optimize_mu_does_not_depend_on_the_pulse_rate")),
    Mutant("sr-raw-rate-in-hz", "src/srqkd/rates.py",
           "    raw = setup.protocol.sifting_factor * conclusive\n"
           "    i_ab = 1.0 - detector.f_ec * binary_entropy(channel.qber)\n"
           "    return _breakdown(raw, channel.qber, i_ab, i_e, setup.pulse_rate_hz)\n",
           "    raw = setup.protocol.sifting_factor * conclusive * setup.pulse_rate_hz\n"
           "    i_ab = 1.0 - detector.f_ec * binary_entropy(channel.qber)\n"
           "    return _breakdown(raw, channel.qber, i_ab, i_e, 1.0)\n",
           ("tests/test_package.py::test_pulse_rate_enters_the_rate_chain_once",)),
    # attack_point builds no point at an infeasible b.
    Mutant("infeasible-b-accepted", "src/srqkd/attack.py",
           '    if not math.isfinite(i_e):\n        raise ValueError(f"b={b} infeasible:',
           '    if False:\n        raise ValueError(f"b={b} infeasible:',
           ("tests/test_attack.py::test_attack_point_refuses_an_infeasible_b",)),
    # A non-finite output is a numerical failure, exit 2.
    Mutant("inf-row-printed", "src/srqkd/cli.py",
           "if isinstance(value, float) and math.isinf(value):",
           "if False:",
           ("tests/test_cli.py::test_numerical_failure_exits_2[inf-row]",)),
    Mutant("numerical-failure-exits-1", "src/srqkd/cli.py",
           '        print(f"numerical failure: {exc}", file=sys.stderr)\n        return 2\n',
           '        print(f"numerical failure: {exc}", file=sys.stderr)\n        return 1\n',
           ("tests/test_cli.py::test_numerical_failure_exits_2",)),
    # A bound that ties the best stops the grid only after the first best index.
    Mutant("equal-bound-stops-grid", "src/srqkd/optimize.py",
           "if -keys[i] < best or (-keys[i] == best and i > k):",
           "if -keys[i] <= best:",
           ("tests/test_optimize.py::test_grid_bound_changes_nothing",)),
    Mutant("wider-eps-clamp", "src/srqkd/attack.py",
           "_EPS_CLAMP = 1e-12",
           "_EPS_CLAMP = 1e-8",
           ("tests/test_attack.py::test_attack_point_refuses_out_of_range_fields",)),
    Mutant("looser-golden-rel", "src/srqkd/optimize.py",
           "GOLDEN_REL = 1e-8",
           "GOLDEN_REL = 1e-5",
           ("tests/test_attack.py::test_plateau_tie_rule",)),
    # simulate samples Eve's optimum for the setup it is given.
    Mutant("simulate-fixed-point", "src/srqkd/simulation.py",
           "point = maximize_eve_information(setup, detector).best",
           "point = maximize_eve_information(SetupConfig(setup.protocol, 0.3, 65.0, 10.0, 5e6),"
           " detector).best",
           ("tests/test_simulation.py::test_soft_filter_samples_eves_optimum_for_its_setup",
            "tests/test_simulation.py::test_matches_per_pulse_reference")),
    # Each protocol refuses the flags its rate ignores.
    Mutant("rate-takes-ignored-flags", "src/srqkd/cli.py",
           '    _refuse_flags(args, ignored, f"protocol {protocol.value}")\n'
           "    setup, detector = config.setup(), config.detector()\n",
           "    setup, detector = config.setup(), config.detector()\n",
           ("tests/test_cli.py::test_flags_are_the_keys_each_command_reads[rate]",)),
    Mutant("distance-refuses-read-flags", "src/srqkd/cli.py",
           "ignored = set.intersection(", "ignored = set.union(",
           ("tests/test_cli.py::test_flags_are_the_keys_each_command_reads[rate-vs-distance]",)),
)

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
    # The rate chain works per pulse: rates never reads f, and the mu search
    # and the sweep summaries compare per-pulse rates, so none depends on f.
    Mutant("objective-scores-hz", "src/srqkd/sweeps.py",
           "return secret_rate(setup_at(y), detector, decoy=decoy).per_pulse",
           "return secret_rate(setup_at(y), detector, decoy=decoy).per_pulse * pulse_rate_hz",
           ("tests/test_sweeps.py::test_optimize_mu_does_not_depend_on_the_pulse_rate",)),
    Mutant("per-pulse-through-hz", "src/srqkd/sweeps.py",
           "r_sec_per_pulse=breakdown.per_pulse,",
           "r_sec_per_pulse=breakdown.per_pulse * setup.pulse_rate_hz / setup.pulse_rate_hz,",
           ("tests/test_rates.py::test_underflowing_rate_is_zero_not_refused",
            "tests/test_package.py::test_pulse_rate_enters_the_rate_chain_once")),
    Mutant("bb84-raw-rate-in-hz", "src/srqkd/rates.py",
           "return _breakdown(raw, yields.e_mu, i_ab, i_e)",
           "return _breakdown(raw * setup.pulse_rate_hz, yields.e_mu, i_ab, i_e)",
           ("tests/test_package.py::test_pulse_rate_enters_the_rate_chain_once",)),
    Mutant("t-sat-reads-hz", "src/srqkd/sweeps.py",
           "ok = [(row.t_db, row.r_sec_per_pulse) for row in rows",
           "ok = [(row.t_db, row.r_sec_hz) for row in rows",
           ("tests/test_sweeps.py::test_sweep_summaries_do_not_depend_on_the_pulse_rate",)),
    Mutant("min-srp-keeps-positive-hz", "src/srqkd/sweeps.py",
           "        if opt.found:\n            candidates.append(",
           "        if opt.r_sec_hz > 0.0:\n            candidates.append(",
           ("tests/test_sweeps.py::test_sweep_summaries_do_not_depend_on_the_pulse_rate",)),
    Mutant("crossover-reads-hz", "src/srqkd/sweeps.py",
           "by_protocol[protocol].append(opt.per_pulse)",
           "by_protocol[protocol].append(opt.r_sec_hz)",
           ("tests/test_sweeps.py::test_sweep_summaries_do_not_depend_on_the_pulse_rate",)),
    # A sweep of more points than the cap is refused before any rate, and
    # min-srp counts the fallback grid each of its searches may rate.
    Mutant("grid-cap-dropped", "src/srqkd/sweeps.py",
           "    if points > MAX_GRID_POINTS:\n        raise ValueError(f\"{caller} would rate",
           "    if False:\n        raise ValueError(f\"{caller} would rate",
           ("tests/test_sweeps.py::test_sweeps_refuse_a_grid_over_the_cap",)),
    Mutant("min-srp-cap-counts-t-only", "src/srqkd/sweeps.py",
           '_check_grid("min_srp_photons", len(t_grid) * MAX_FALLBACK_POINTS)',
           '_check_grid("min_srp_photons", len(t_grid))',
           ("tests/test_sweeps.py::test_sweeps_refuse_a_grid_over_the_cap",)),
    # The mu search's upper bounds: each at or above the rate it bounds, and
    # a nan bound rated first, like no bound at all.
    Mutant("empty-interval-edge-bound-zero", "src/srqkd/attack.py",
           "        return beam_splitting_information(terms.mu, terms.channel.mu_prime), "
           "terms.channel\n    information = _objective(terms)",
           "        return 0.0, terms.channel\n    information = _objective(terms)",
           ("tests/test_attack.py::test_edge_information_bounds_the_optimum",)),
    Mutant("nan-bound-rated-last", "src/srqkd/optimize.py",
           "else [-v if v == v else -math.inf for v",
           "else [-v if v == v else math.inf for v",
           ("tests/test_optimize.py::test_grid_bound_changes_nothing",)),
    Mutant("bb84-bound-without-p-mu", "src/srqkd/rates.py",
           "raw, i_ab, i_e = _gllp(q_mu, e_mu, q1, 1.0, p_mu, detector)",
           "raw, i_ab, i_e = _gllp(q_mu, e_mu, q1, 1.0, 1.0, detector)",
           ("tests/test_rates.py::"
            "test_bb84_rate_bound_is_the_rate_with_error_free_single_photons",)),
    # The decoy bounds work out T(L) once for their three intensities.
    Mutant("decoy-transmittance-thrice", "src/srqkd/rates.py",
           "    q_n1, e_n1 = _gain_error(nu1, detector, trans)\n"
           "    q_n2, e_n2 = _gain_error(nu2, detector, trans)\n",
           "    q_n1, e_n1 = _gain_error(nu1, detector, transmittance(length_km))\n"
           "    q_n2, e_n2 = _gain_error(nu2, detector, transmittance(length_km))\n",
           ("tests/test_rates.py::test_decoy_bounds_work_out_the_transmittance_once",)),
    # One compiled objective per setup: the terms' floats read once, and no
    # Python call per b.
    Mutant("objective-mu-min-as-mu-max", "src/srqkd/attack.py",
           "terms.mu, terms.q, terms.mu_max, terms.mu_min",
           "terms.mu, terms.q, terms.mu_max, terms.mu_max",
           ("tests/test_attack.py::test_objective_is_the_holevo_chi_composition",)),
    Mutant("success-branch-takes-inf", "src/srqkd/attack.py",
           "        if not eps_s < inf:\n            raise ValueError(",
           "        if False:\n            raise ValueError(",
           ("tests/test_attack.py::test_inline_chi_is_holevo_chi_at_edge_intensities",)),
    Mutant("objective-wrapped-per-b", "src/srqkd/attack.py",
           "grid_then_golden_max(_objective(terms), (terms.b_min, terms.b_max))",
           "grid_then_golden_max(lambda b: _objective(terms)(b),"
           " (terms.b_min, terms.b_max))",
           ("tests/test_package.py::test_attack_objective_makes_no_python_call_per_b",)),
    # One channel per SR rating: the rate reads the attack's channel.
    Mutant("sr-point-derives-twice", "src/srqkd/sweeps.py",
           "    breakdown = sr_secret_rate(setup.protocol, solution.channel, detector,",
           "    from .physics import derive_channel\n"
           "    breakdown = sr_secret_rate(setup.protocol, derive_channel(setup, detector),"
           " detector,",
           ("tests/test_optimize.py::test_each_sr_rating_derives_its_channel_once",)),
    Mutant("sr-bound-derives-twice", "src/srqkd/sweeps.py",
           "i_e, channel = edge_information(setup_at(y), detector)",
           "i_e, _ = edge_information(setup_at(y), detector)\n"
           "                from .physics import derive_channel\n"
           "                channel = derive_channel(setup_at(y), detector)",
           ("tests/test_optimize.py::test_each_sr_rating_derives_its_channel_once",)),
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

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
           "raw, i_ab, i_e = _gllp(q_mu, e_mu, q1, 1.0 - binary_entropy(e1), p_mu, detector)",
           "raw, i_ab, i_e = _gllp(q_mu, e_mu, q1, 1.0 - binary_entropy(e1), 1.0, detector)",
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
    # attack_point takes b up to 1e-12 past either end, inclusive, and builds
    # no point at an infeasible b.
    Mutant("b-min-tolerance-exclusive", "src/srqkd/attack.py",
           "if not terms.b_min - 1e-12 <= b <= terms.b_max + 1e-12:",
           "if not terms.b_min - 1e-12 < b <= terms.b_max + 1e-12:",
           ("tests/test_attack.py::test_attack_point_takes_b_up_to_its_tolerance",)),
    Mutant("b-max-tolerance-exclusive", "src/srqkd/attack.py",
           "if not terms.b_min - 1e-12 <= b <= terms.b_max + 1e-12:",
           "if not terms.b_min - 1e-12 <= b < terms.b_max + 1e-12:",
           ("tests/test_attack.py::test_attack_point_takes_b_up_to_its_tolerance",)),
    Mutant("infeasible-b-accepted", "src/srqkd/attack.py",
           '    if not math.isfinite(i_e):\n        raise ValueError(f"b={b} infeasible:',
           '    if False:\n        raise ValueError(f"b={b} infeasible:',
           ("tests/test_attack.py::test_attack_point_refuses_an_infeasible_b",)),
    # An all-float column is rendered in one pass, with the per-cell bytes:
    # nan and +-inf as JSON null, and "%.12g" in CSV.
    Mutant("render-column-null-patch-dropped", "src/srqkd/cli.py",
           "    if not all(map(math.isfinite, column)):\n",
           "    if False:\n",
           ("tests/test_cli.py::test_render_rows_long_columns_match_their_oracles",)),
    Mutant("render-csv-column-repr", "src/srqkd/cli.py",
           'return list(map("%.12g".__mod__, column))',
           "return list(map(float.__repr__, column))",
           ("tests/test_cli.py::test_render_rows_long_columns_match_their_oracles",)),
    # A table is a header and value tuples: the trace scan goes in as it is
    # returned, and a record's row is vars(record), its fields in order.
    Mutant("trace-row-dicts", "src/srqkd/cli.py",
           'render_rows(("b", "i_e"), scan_information(setup, detector), config.format)',
           'render_rows(("b", "i_e"), [tuple({"b": b, "i_e": v}.values())\n'
           "                                      for b, v in scan_information(setup, detector)],"
           " config.format)",
           ("tests/test_package.py::test_trace_scan_goes_to_the_renderer_as_it_is",)),
    Mutant("attack-point-slots", "src/srqkd/attack.py",
           "@dataclass(frozen=True)\nclass AttackPoint:",
           "@dataclass(frozen=True, slots=True)\nclass AttackPoint:",
           ("tests/test_cli.py::test_printed_records_are_their_fields_in_declaration_order",)),
    Mutant("sweep-row-extra-attribute", "src/srqkd/sweeps.py",
           '            raise ValueError("grey-region flag inconsistent with delta")\n',
           '            raise ValueError("grey-region flag inconsistent with delta")\n'
           '        object.__setattr__(self, "grey", FLAG_GREY in self.flags)\n',
           ("tests/test_cli.py::test_printed_records_are_their_fields_in_declaration_order",)),
    # One parser per process, built on first use, with one spelling per flag
    # at the top level too.
    Mutant("parser-built-per-call", "src/srqkd/cli.py",
           "@functools.cache\ndef _parser()", "def _parser()",
           ("tests/test_cli.py::test_one_parser_serves_every_call",)),
    Mutant("top-level-abbreviations", "src/srqkd/cli.py",
           "description=__doc__.splitlines()[0],\n                     allow_abbrev=False)",
           "description=__doc__.splitlines()[0])",
           ("tests/test_cli.py::test_golden_cli_corpus",)),
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
           "    protocol = _checked_protocol(config, args)\n"
           "    setup, detector = config.setup(), config.detector()\n",
           "    protocol = Protocol(config.protocol)\n"
           "    setup, detector = config.setup(), config.detector()\n",
           ("tests/test_cli.py::test_flags_are_the_keys_each_command_reads[rate]",)),
    Mutant("distance-refuses-read-flags", "src/srqkd/cli.py",
           "ignored = set.intersection(", "ignored = set.union(",
           ("tests/test_cli.py::test_flags_are_the_keys_each_command_reads[rate-vs-distance]",)),
    # --config is the one source of a config file, read as UTF-8 in any locale.
    Mutant("config-path-from-environment", "src/srqkd/cli.py",
           "    values = {}\n    if config_path:\n",
           "    values = {}\n"
           "    config_path = config_path or __import__('os').environ.get('SRQKD_CONFIG')\n"
           "    if config_path:\n",
           ("tests/test_cli.py::test_environment_names_no_config",
            "tests/test_package.py::test_no_module_reads_the_environment")),
    Mutant("config-read-in-locale-encoding", "src/srqkd/cli.py",
           'Path(config_path).read_text(encoding="utf-8")', "Path(config_path).read_text()",
           ("tests/test_cli.py::test_config_file_is_utf8_whatever_the_locale",)),
    # Bob's conclusive probability is derived with the channel, and read from it.
    Mutant("conclusive-half-exponent", "src/srqkd/physics.py",
           "conclusive=-math.expm1(-2.0 * detector.eta * mu_prime),",
           "conclusive=-math.expm1(-1.0 * detector.eta * mu_prime),",
           ("tests/test_physics.py::test_derive_channel_consistency",)),
    Mutant("sr-rate-derives-conclusive", "src/srqkd/rates.py",
           "raw = protocol.sifting_factor * channel.conclusive",
           "raw = protocol.sifting_factor * -math.expm1(-2.0 * detector.eta * channel.mu_prime)",
           ("tests/test_package.py::test_each_input_has_one_source",)),
    Mutant("objective-conclusive-no-eta", "src/srqkd/attack.py",
           "conclusive, success, fail = terms.channel.conclusive, terms.success, terms.fail",
           "conclusive, success, fail = (-math.expm1(-2.0 * terms.channel.mu_prime),"
           " terms.success, terms.fail)",
           ("tests/test_attack.py::test_objective_is_the_holevo_chi_composition",)),
    # The grid's bound rule (PR 27 and PR 28 prose): stop only at a bound
    # below the best, or equal to it after the first best index; ties go to
    # the lower index; an unscored point counts as -inf, not as a zero rate.
    Mutant("strict-stop-only", "src/srqkd/optimize.py",
           "if -keys[i] < best or (-keys[i] == best and i > k):",
           "if -keys[i] < best:",
           ("tests/test_optimize.py::test_grid_bound_changes_nothing",)),
    Mutant("grid-ties-to-later-index", "src/srqkd/optimize.py",
           "if v > best or (v == best and i < k):",
           "if v >= best:",
           ("tests/test_optimize.py::test_grid_bound_changes_nothing",)),
    Mutant("unscored-points-scored-zero", "src/srqkd/optimize.py",
           "k, best = 0, -math.inf",
           "k, best = 0, 0.0",
           ("tests/test_optimize.py::test_grid_bound_changes_nothing",
            "tests/test_optimize.py::test_grid_then_golden_no_finite_cell",
            "tests/test_optimize.py::test_grid_then_golden_interior")),
    # Eve's edge bound is the better finite edge, never above her optimum.
    Mutant("both-infeasible-edge-bound-one", "src/srqkd/attack.py",
           "return (i_e if i_e > -math.inf else 0.0), terms.channel",
           "return (i_e if i_e > -math.inf else 1.0), terms.channel",
           ("tests/test_attack.py::test_edge_information_bounds_the_optimum",)),
    Mutant("edge-bound-b-min-only", "src/srqkd/attack.py",
           "i_e = max(information(terms.b_min), information(terms.b_max))",
           "i_e = information(terms.b_min)",
           ("tests/test_attack.py::test_edge_information_bounds_the_optimum",)),
    Mutant("edge-bound-raised", "src/srqkd/attack.py",
           "i_e = max(information(terms.b_min), information(terms.b_max))",
           "i_e = max(information(terms.b_min), information(terms.b_max)) + 1e-3",
           ("tests/test_attack.py::test_edge_information_bounds_the_optimum",
            "tests/test_metamorphic.py::test_optimize_mu_beats_its_grid")),
    # Every mu grid is bounded, the fallback grid too, and a BB84 bound is
    # its rate, H(E1) included: neither H(E_mu) nor 0.1% low.
    Mutant("mu-grid-unbounded", "src/srqkd/sweeps.py",
           "        y_best, r_best = grid_then_golden_max(objective, ys, rate_bound)\n"
           "        if r_best",
           "        y_best, r_best = grid_then_golden_max(objective, ys)\n        if r_best",
           ("tests/test_package.py::test_one_rule_for_unimodal_searches",
            "tests/test_optimize.py::test_optimize_mu_scores_each_mu_once")),
    Mutant("fallback-grid-unbounded", "src/srqkd/sweeps.py",
           "  # same ends, so the same mu_at\n"
           "            y_best, r_best = grid_then_golden_max(objective, ys, rate_bound)",
           "  # same ends, so the same mu_at\n"
           "            y_best, r_best = grid_then_golden_max(objective, ys)",
           ("tests/test_package.py::test_one_rule_for_unimodal_searches",
            "tests/test_metamorphic.py::test_optimize_mu_beats_its_grid")),
    Mutant("bb84-bound-dropped", "src/srqkd/sweeps.py",
           "return bb84_rate_bound(protocol, mu_at(y), length_km, detector, decoy)",
           "return math.nan",
           ("tests/test_optimize.py::test_optimize_mu_scores_each_mu_once",
            "tests/test_metamorphic.py::test_optimize_mu_beats_its_grid")),
    Mutant("bb84-bound-with-e-mu", "src/srqkd/rates.py",
           "raw, i_ab, i_e = _gllp(q_mu, e_mu, q1, 1.0 - binary_entropy(e1), p_mu, detector)",
           "raw, i_ab, i_e = _gllp(q_mu, e_mu, q1, 1.0 - binary_entropy(e_mu), p_mu, detector)",
           ("tests/test_rates.py::"
            "test_bb84_rate_bound_is_the_rate_with_error_free_single_photons",)),
    Mutant("bb84-bound-without-h-e1", "src/srqkd/rates.py",
           "raw, i_ab, i_e = _gllp(q_mu, e_mu, q1, 1.0 - binary_entropy(e1), p_mu, detector)",
           "raw, i_ab, i_e = _gllp(q_mu, e_mu, q1, 1.0, p_mu, detector)",
           ("tests/test_rates.py::"
            "test_bb84_rate_bound_is_the_rate_with_error_free_single_photons",)),
    Mutant("bb84-bound-low", "src/srqkd/rates.py",
           "return unclamped if unclamped > 0.0 else 0.0  # +0.0, as _breakdown clamps",
           "return unclamped * 0.999 if unclamped > 0.0 else 0.0",
           ("tests/test_rates.py::"
            "test_bb84_rate_bound_is_the_rate_with_error_free_single_photons",)),
    # The mu search checks its setup once, at its lowest mu, before any bound.
    Mutant("mu-search-setup-unchecked", "src/srqkd/sweeps.py",
           "        protocol = SetupConfig(protocol=protocol, mu=lo, t_db=t_db,"
           " length_km=length_km,\n"
           "                               pulse_rate_hz=pulse_rate_hz).protocol\n",
           "        protocol = Protocol(protocol)\n",
           ("tests/test_optimize.py::test_optimize_mu_bound_changes_nothing",)),
)

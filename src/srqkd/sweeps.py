"""Parameter sweeps and derived scalar results.

Produces the datasets behind the headline numbers: (mu, t) rate grids,
mu-optimization at fixed t, rate saturation in t, the protocol comparison
versus distance with its crossover point, the minimum usable reference-pulse
intensity, and the fiber storage-line pulse capacity. Everything here is a
thin deterministic layer over the physics/attack/rate modules: every row can
be reproduced by calling those modules directly with the row's inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .attack import AttackSolution, edge_information, maximize_eve_information
from .optimize import grid_then_golden_max
from .physics import (
    SPEED_OF_LIGHT,
    DetectorConfig,
    Protocol,
    SetupConfig,
    grey_region_mu_floor,
    monitoring_unacceptable,
)
from .rates import DecoyConfig, RateBreakdown, bb84_rate_bound, bb84_secret_rate, sr_secret_rate

DEFAULT_PULSE_RATE_HZ = 5e6
DEFAULT_T_DB = 65.0
DEFAULT_FIBER_INDEX = 1.47

FLAG_GREY = "grey-region"
FLAG_CLAMPED = "clamped"
FLAG_INFEASIBLE = "attack-infeasible"
# Most points on any sweep axis, and in any sweep's grid: a larger axis is
# refused before laying it out fails with a MemoryError, a larger grid
# before a run that could not finish starts.
MAX_GRID_POINTS = 10**6
# Most mu a floored search rates: its zero-rate fallback grid, 40 points per
# decade, capped here.
MAX_FALLBACK_POINTS = 401


def _check_axis(name: str, lo: float, hi: float, points: int, log: bool) -> None:
    # The one range rule, run where a range enters: GridSpec and optimize_mu.
    # It builds no list: RunConfig.validate runs it on every CLI call.
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} range needs finite ends, got ({lo}, {hi})")
    if not lo < hi:
        raise ValueError(f"{name} range needs lo < hi")
    if points < 2:
        raise ValueError(f"{name} range needs at least 2 points")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{name} range needs at most {MAX_GRID_POINTS} points")
    if log and not lo > 0:
        raise ValueError(f"{name} range needs lo > 0 on its log scale")


def _check_grid(caller: str, points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{caller} would rate {points} points, over the cap of {MAX_GRID_POINTS}")


def _log_axis(lo: float, hi: float,
              points: int) -> tuple[list[float], Callable[[float], float]]:
    """The log10 axis from lo to hi, and its map back from log10, both ends exact."""
    ys = _axis(math.log10(lo), math.log10(hi), points)

    def value_at(y: float) -> float:
        return lo if y == ys[0] else hi if y == ys[-1] else 10.0 ** y

    return ys, value_at


def _axis(lo: float, hi: float, points: int, log: bool = False) -> list[float]:
    """points values from lo to hi, evenly spaced (in log10 when log), both ends exact.

    The range was checked where it entered; the linear points are
    np.linspace's bit for bit, the log points within 1 ulp of np.logspace's.
    """
    if log:
        ys, value_at = _log_axis(lo, hi, points)
        return [value_at(y) for y in ys]
    step = (hi - lo) / (points - 1)
    return [i * step + lo for i in range(points - 1)] + [hi]


@dataclass(frozen=True)
class GridSpec:
    """Sweep axes as (lo, hi, points); mu is log-spaced because rates span decades."""

    mu_range: tuple[float, float, int] = (0.01, 1.0, 81)
    t_range_db: tuple[float, float, int] = (40.0, 90.0, 101)
    l_range_km: tuple[float, float, int] = (0.0, 120.0, 61)

    def __post_init__(self):
        for name, axis, log in (("mu", self.mu_range, True), ("t", self.t_range_db, False),
                                ("l", self.l_range_km, False)):
            _check_axis(name, *axis, log)

    def mu_values(self) -> list[float]:
        return _axis(*self.mu_range, log=True)

    def t_values(self) -> list[float]:
        return _axis(*self.t_range_db)

    def l_values(self) -> list[float]:
        return _axis(*self.l_range_km)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated setup; flags mark suspect points instead of masking them."""

    mu: float
    t_db: float
    length_km: float
    delta: float
    qber: float
    i_e: float
    r_sec_per_pulse: float
    r_sec_hz: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if (FLAG_GREY in self.flags) != monitoring_unacceptable(self.delta):
            raise ValueError("grey-region flag inconsistent with delta")


@dataclass(frozen=True)
class MuOptimum:
    length_km: float
    t_db: float
    mu_opt: float
    r_sec_hz: float
    per_pulse: float
    found: bool


@dataclass(frozen=True)
class TSaturation:
    """Rate-vs-attenuation curve with its saturation and positive-rate onsets."""

    rows: list[SweepRow]
    t_sat_db: Optional[float]
    onset_t_db: Optional[float]
    onset_nu: Optional[float]


@dataclass(frozen=True)
class DistancePoint:
    protocol: str
    length_km: float
    mu: float
    r_sec_hz: float
    per_pulse: float


@dataclass(frozen=True)
class DistanceComparison:
    rows: list[DistancePoint]
    crossover_km: Optional[float]


@dataclass(frozen=True)
class MinSrpResult:
    length_km: float
    criterion: str
    nu_threshold: float
    mu_at: float
    t_db_at: float
    r_sec_hz: float


def _sr_protocol(protocol: Protocol, caller: str) -> Protocol:
    # Checked before any attack maximization, which only SR protocols need.
    protocol = Protocol(protocol)
    if not protocol.uses_reference_pulse:
        raise ValueError(f"{caller} needs an SR protocol, got {protocol.value}")
    return protocol


def row_flags(solution: Optional[AttackSolution], clamped: bool) -> tuple[str, ...]:
    """A row's flags, in the one canonical order that keeps output byte-stable.

    solution is the attack behind the row; BB84 baselines have none.
    """
    flags = ((FLAG_GREY, solution is not None
              and monitoring_unacceptable(solution.channel.delta)),
             (FLAG_CLAMPED, clamped),
             (FLAG_INFEASIBLE, solution is not None and solution.interval_empty))
    return tuple(name for name, raised in flags if raised)


def rate_row(setup: SetupConfig, breakdown: RateBreakdown,
             solution: Optional[AttackSolution] = None) -> SweepRow:
    """A rated setup's row, r_sec_hz = per_pulse*f; without an attack solution delta is nan."""
    return SweepRow(
        mu=setup.mu, t_db=setup.t_db, length_km=setup.length_km,
        delta=math.nan if solution is None else solution.channel.delta,
        qber=breakdown.qber, i_e=breakdown.i_e,
        r_sec_per_pulse=breakdown.per_pulse,
        r_sec_hz=breakdown.per_pulse * setup.pulse_rate_hz,
        flags=row_flags(solution, clamped=breakdown.unclamped < 0.0),
    )


def evaluate_sr_point(setup: SetupConfig, detector: DetectorConfig) -> SweepRow:
    """Full evaluation of one SR setup: attack maximization plus rate assembly.

    The rate reads the channel the attack was solved for, so the setup's
    channel is derived once.
    """
    solution = maximize_eve_information(setup, detector)
    breakdown = sr_secret_rate(setup.protocol, solution.channel, detector, solution.best.i_e)
    return rate_row(setup, breakdown, solution)


def secret_rate(setup: SetupConfig, detector: DetectorConfig,
                decoy: DecoyConfig = DecoyConfig()) -> RateBreakdown:
    """Rate of any protocol: SR setups under the optimal attack, BB84 by GLLP."""
    if setup.protocol.uses_reference_pulse:
        solution = maximize_eve_information(setup, detector)
        return sr_secret_rate(setup.protocol, solution.channel, detector, solution.best.i_e)
    return bb84_secret_rate(setup, detector, decoy)


def sweep_mu_t(length_km: float, grid: GridSpec, detector: DetectorConfig,
               protocol: Protocol = Protocol.B92_SR,
               pulse_rate_hz: float = DEFAULT_PULSE_RATE_HZ) -> list[SweepRow]:
    """Rate grid over (mu, t) at fixed distance; row order is mu-major."""
    protocol = _sr_protocol(protocol, "sweep_mu_t")
    _check_grid("sweep_mu_t", grid.mu_range[2] * grid.t_range_db[2])
    t_grid = grid.t_values()
    return [row for mu in grid.mu_values() for row in
            rate_vs_t(length_km, mu, t_grid, detector, protocol, pulse_rate_hz).rows]


def optimize_mu(length_km: float, t_db: float, detector: DetectorConfig,
                protocol: Protocol = Protocol.B92_SR,
                pulse_rate_hz: float = DEFAULT_PULSE_RATE_HZ,
                mu_range: tuple[float, float] | tuple[float, float, int] = GridSpec().mu_range,
                mu_floor: Optional[float] = None,
                decoy: DecoyConfig = DecoyConfig()) -> MuOptimum:
    """Maximize the secret rate over mu at fixed (t, L).

    Serves every protocol; the BB84 baselines ignore t_db, and decoy-BB84
    sets its decoys by decoy's ratios to each mu. The search scores and
    bounds per-pulse rates, so mu_opt, found and per_pulse do not depend on
    pulse_rate_hz, which only scales the result: r_sec_hz = per_pulse*f, the
    product rate_row forms at mu_opt. The search runs in y = log10
    mu: it rates a grid, then one Brent search refines its best point
    (optimize.grid_then_golden_max), rating each grid mu at most once and
    the range's ends exactly. Without mu_floor the grid is the log grid of
    mu_range = (lo, hi, points): below the grey floor the rate can have two
    peaks, which the grid tells apart. Every grid mu's rate is first bounded
    from above: for an SR protocol by the rate at Eve's better b edge
    (attack.edge_information, which her maximum never falls below), for a
    BB84 baseline by its rate with error-free single photons
    (rates.bb84_rate_bound). A mu whose bound is below the best rate so far,
    or ties it above the best mu, is not rated: the result is bit for bit
    that of rating every grid mu. Where every bound is 0, the grid's lowest
    mu is the only grid mu rated.

    mu_floor restricts the search from below, to stay out of the
    grey-monitoring region. Above the floor the rate has one peak, so the
    grid of a floored search is its two ends, max(lo, mu_floor) and hi, and
    mu_range may be the pair (lo, hi). Where that search finds no positive
    rate, a log grid of 40 points per decade (2 to 401 points) over the
    same ends is searched once more: on a stretch of zero rates every
    comparison is a tie, and Brent's search can walk away from a positive
    stretch that lies between its grid points. A floor at hi rates that
    one mu; a floor above the range, or an all-zero rate, gives
    found=False and an undefined mu_opt. _check_axis checks the range
    before the floor is applied; a nan floor is refused.
    """
    lo, hi = mu_range[0], mu_range[1]
    points = 2
    if mu_floor is None:
        if len(mu_range) != 3:
            raise ValueError("an unfloored mu search needs mu_range = (lo, hi, points)")
        points = mu_range[2]
    elif math.isnan(mu_floor):
        raise ValueError("mu_floor must not be nan")
    _check_axis("mu", lo, hi, points, log=True)
    if mu_floor is not None:
        lo = max(lo, mu_floor)

    r_best = 0.0  # a floor above the range leaves nothing to rate
    if lo <= hi:
        ys, mu_at = _log_axis(lo, hi, points)
        # Refuses a bad protocol, t_db, length_km or pulse_rate_hz before any
        # bound reads them; every other mu of the search is a finite mu > 0.
        protocol = SetupConfig(protocol=protocol, mu=lo, t_db=t_db, length_km=length_km,
                               pulse_rate_hz=pulse_rate_hz).protocol

        def setup_at(y: float) -> SetupConfig:
            return SetupConfig(protocol=protocol, mu=mu_at(y), t_db=t_db,
                               length_km=length_km, pulse_rate_hz=pulse_rate_hz)

        def objective(y: float) -> float:
            return secret_rate(setup_at(y), detector, decoy=decoy).per_pulse

        def rate_bound(y: float) -> float:
            if protocol.uses_reference_pulse:
                i_e, channel = edge_information(setup_at(y), detector)
                return sr_secret_rate(protocol, channel, detector, i_e).per_pulse
            return bb84_rate_bound(protocol, mu_at(y), length_km, detector, decoy)

        y_best, r_best = grid_then_golden_max(objective, ys, rate_bound)
        if r_best <= 0.0 and mu_floor is not None and lo < hi:
            points = min(MAX_FALLBACK_POINTS, max(2, math.ceil(40.0 * (ys[-1] - ys[0])) + 1))
            ys = _log_axis(lo, hi, points)[0]  # same ends, so the same mu_at
            y_best, r_best = grid_then_golden_max(objective, ys, rate_bound)
    if r_best <= 0.0:
        return MuOptimum(length_km=length_km, t_db=t_db, mu_opt=math.nan,
                         r_sec_hz=0.0, per_pulse=0.0, found=False)
    return MuOptimum(length_km=length_km, t_db=t_db, mu_opt=mu_at(y_best),
                     r_sec_hz=r_best * pulse_rate_hz, per_pulse=r_best, found=True)


def rate_vs_t(length_km: float, mu: float, t_grid: Sequence[float],
              detector: DetectorConfig, protocol: Protocol = Protocol.B92_SR,
              pulse_rate_hz: float = DEFAULT_PULSE_RATE_HZ) -> TSaturation:
    """Rate versus SRP attenuation at fixed mu, with its reference-pulse thresholds.

    Reports the saturation onset t_sat_db (smallest t whose rate is within
    1% of the rate at the top of the grid; there nu = mu*10^(t_sat_db/10))
    and the positive-rate onset with its intensity onset_nu = mu*10^(t/10).
    Both compare per-pulse rates, so neither depends on pulse_rate_hz, and
    both are computed over rows with acceptable monitoring only: in the
    grey region the rate formula can stay positive (the attack degenerates
    to beam splitting), but the monitor cannot vouch for the reference pulse
    there, so those rows are returned flagged and skipped for the summaries.
    """
    protocol = _sr_protocol(protocol, "rate_vs_t")
    rows = []
    for t_db in map(float, t_grid):
        setup = SetupConfig(protocol=protocol, mu=mu, t_db=t_db,
                            length_km=length_km, pulse_rate_hz=pulse_rate_hz)
        rows.append(evaluate_sr_point(setup, detector))

    ok = [(row.t_db, row.r_sec_per_pulse) for row in rows if FLAG_GREY not in row.flags]
    t_sat = None
    if ok and ok[-1][1] > 0.0:
        t_sat = next(t_db for t_db, rate in ok if rate >= 0.99 * ok[-1][1])
    onset_t = next((t_db for t_db, rate in ok if rate > 0.0), None)
    onset_nu = None if onset_t is None else mu * 10.0 ** (onset_t / 10.0)
    return TSaturation(rows=rows, t_sat_db=t_sat, onset_t_db=onset_t, onset_nu=onset_nu)


def rate_vs_distance(protocols: Sequence[Protocol], detector: DetectorConfig,
                     l_grid: Sequence[float], t_db: float = DEFAULT_T_DB,
                     pulse_rate_hz: float = DEFAULT_PULSE_RATE_HZ,
                     mu_range: tuple[float, float, int] = GridSpec().mu_range,
                     decoy: DecoyConfig = DecoyConfig()) -> DistanceComparison:
    """Per-protocol rate curves vs distance, mu optimized at every point.

    SR protocols run at the given SRP attenuation; BB84 baselines have no
    reference pulse, and decoy-BB84 takes its decoy ratios from decoy. The
    crossover is where the B92-SR and decoy-BB84 curves intersect,
    interpolated linearly in log-rate between the per-pulse rates at grid
    points. protocols must be non-empty and hold each protocol at most once.
    """
    protocols = [Protocol(p) for p in protocols]
    if not protocols or len(set(protocols)) < len(protocols):
        raise ValueError("protocols must be a non-empty list without repeats, got "
                         f"{[p.value for p in protocols]}")
    _check_grid("rate_vs_distance", len(l_grid) * mu_range[2] * len(protocols))
    rows = []
    by_protocol: dict[Protocol, list[float]] = {p: [] for p in protocols}
    for length_km in map(float, l_grid):
        for protocol in protocols:
            opt = optimize_mu(length_km, t_db, detector, protocol=protocol,
                              pulse_rate_hz=pulse_rate_hz, mu_range=mu_range, decoy=decoy)
            rows.append(DistancePoint(protocol=protocol.value, length_km=length_km,
                                      mu=opt.mu_opt, r_sec_hz=opt.r_sec_hz,
                                      per_pulse=opt.per_pulse))
            by_protocol[protocol].append(opt.per_pulse)

    crossover = None
    if Protocol.B92_SR in by_protocol and Protocol.BB84_DECOY in by_protocol:
        crossover = crossover_distance(l_grid, by_protocol[Protocol.B92_SR],
                                       by_protocol[Protocol.BB84_DECOY])
    return DistanceComparison(rows=rows, crossover_km=crossover)


def crossover_distance(lengths: Sequence[float], rates_a: Sequence[float],
                       rates_b: Sequence[float]) -> Optional[float]:
    """First distance where two positive rate curves cross, log-interpolated.

    Swapping the curves flips the sign of the gap but returns the same
    distance. None when the curves never cross where both are positive.
    The three sequences must have the same length.
    """
    # (length, log-rate gap) at each point, gap None where a rate is <= 0.
    points = [(float(length), math.log(a) - math.log(b) if a > 0.0 and b > 0.0 else None)
              for length, a, b in zip(lengths, rates_a, rates_b, strict=True)]
    for (l0, g0), (l1, g1) in zip(points, points[1:]):
        if g0 is None or g1 is None:
            continue
        if g0 == 0.0:
            return l0
        if g0 * g1 < 0.0:
            return l0 + g0 / (g0 - g1) * (l1 - l0)
    if points and points[-1][1] == 0.0:
        return points[-1][0]
    return None


def min_srp_photons(length_km: float, detector: DetectorConfig,
                    t_grid: Optional[Sequence[float]] = None,
                    criterion: str = "positive-rate",
                    protocol: Protocol = Protocol.B92_SR,
                    pulse_rate_hz: float = DEFAULT_PULSE_RATE_HZ,
                    mu_bounds: tuple[float, float] = GridSpec().mu_range[:2],
                    ) -> MinSrpResult:
    """Smallest usable reference-pulse intensity nu = mu*10^(t/10).

    Scans the attenuation grid, keeping only points with acceptable
    monitoring (delta <= 0.5): with delta beyond that bound the SRP monitor
    cannot vouch for the reference pulse at all, so such operating points
    do not count as secure even if the rate formula stays positive.

    At each t mu is optimized within mu_bounds = (lo, hi) above the grey
    floor (optimize_mu with mu_floor), so a t whose floor lies above hi is
    skipped. criterion "positive-rate" returns the smallest nu with
    r_sec > 0; "0.99-of-max" the smallest nu whose per-pulse rate is within
    1% of the scan maximum (the intensity needed to stop paying rate for
    dimming the SRP). Neither depends on pulse_rate_hz. A scan with no
    positive rate gives nu_threshold, mu_at and t_db_at nan and r_sec_hz 0.
    The thresholds at a fixed mu come from rate_vs_t. A t grid is refused
    before any search when its points times the largest grid a floored
    search can rate (MAX_FALLBACK_POINTS) exceed MAX_GRID_POINTS.
    """
    if criterion not in ("positive-rate", "0.99-of-max"):
        raise ValueError(f"unknown criterion {criterion!r}")
    protocol = _sr_protocol(protocol, "min_srp_photons")
    if t_grid is None:
        t_grid = GridSpec().t_values()
    _check_grid("min_srp_photons", len(t_grid) * MAX_FALLBACK_POINTS)

    candidates = []  # (nu, MuOptimum) of each found optimum
    for t_db in map(float, t_grid):
        opt = optimize_mu(length_km, t_db, detector, protocol=protocol,
                          pulse_rate_hz=pulse_rate_hz, mu_range=mu_bounds,
                          mu_floor=grey_region_mu_floor(length_km, t_db, detector))
        if opt.found:
            candidates.append((opt.mu_opt * 10.0 ** (t_db / 10.0), opt))

    if not candidates:
        return MinSrpResult(length_km=length_km, criterion=criterion, nu_threshold=math.nan,
                            mu_at=math.nan, t_db_at=math.nan, r_sec_hz=0.0)
    if criterion == "0.99-of-max":
        r_max = max(opt.per_pulse for _, opt in candidates)
        candidates = [c for c in candidates if c[1].per_pulse >= 0.99 * r_max]
    nu, best = min(candidates, key=lambda c: c[0])
    return MinSrpResult(length_km=length_km, criterion=criterion, nu_threshold=nu,
                        mu_at=best.mu_opt, t_db_at=best.t_db, r_sec_hz=best.r_sec_hz)


def train_capacity(storage_km: float, pulse_rate_hz: float,
                   n_fib: float = DEFAULT_FIBER_INDEX) -> int:
    """Pulses that fit in a fiber storage line: floor(l*n_fib*f/c)."""
    for name, value in (("storage_km", storage_km), ("pulse_rate_hz", pulse_rate_hz),
                        ("n_fib", n_fib)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if storage_km < 0:
        raise ValueError(f"storage_km must be >= 0, got {storage_km}")
    if pulse_rate_hz <= 0 or n_fib <= 0:
        raise ValueError("pulse_rate_hz and n_fib must be > 0")
    # The exact floor, from each float's integer ratio: storage_km * 1e3 may
    # overflow a float (1e306 km) where the capacity does not.
    den, num = SPEED_OF_LIGHT.as_integer_ratio()  # num/den = 1/c
    for value in (storage_km, 1e3, n_fib, pulse_rate_hz):
        n, d = float(value).as_integer_ratio()
        num, den = num * n, den * d
    capacity = num // den
    if capacity > sys.float_info.max:
        raise ValueError(f"the capacity storage_km*1e3*n_fib*pulse_rate_hz/c overflows "
                         f"a float at storage_km={storage_km}, "
                         f"pulse_rate_hz={pulse_rate_hz}, n_fib={n_fib}")
    return capacity

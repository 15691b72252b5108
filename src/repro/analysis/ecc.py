"""Array-scale reliability: pfail -> BER -> ECC residual FIT -> scrub.

The paper's estimator ends at a per-cell failure probability; a system
architect needs the per-array consequence.  This module carries the
chain the rest of the way::

    pfail(cell) x capacity x word organisation
        -> raw bit error rate
        -> residual uncorrectable error rate per ECC scheme
        -> FIT, scrub-interval trade-off, decision

Model summary (derivations and assumptions in ``docs/ARRAY.md``):

* Soft errors arrive per bit as a Poisson process whose rate comes from
  a technology-node FIT/Mbit baseline times an environment flux
  multiplier (``FIT_PER_MBIT`` / ``ENV_FLUX_MULTIPLIER``, after the
  SNIPPETS exemplar).
* RTN-induced cell failures are Bernoulli(``cell_pfail``) per bit and
  are re-drawn each scrub window: a scrub period is assumed long
  against the RTN correlation time, so occupancy decorrelates between
  windows (stationary re-roll).
* A word is lost when the error pattern at scrub time defeats its ECC
  scheme; windows are independent, so the loss rate per word is
  ``P_unc(q(T)) / T`` with ``q(T)`` the combined per-bit error
  probability over one window of ``T`` hours.
* Everything is evaluated in log space -- no silent 0.0/1.0 saturation
  down to ``cell_pfail`` ~ 1e-15 on multi-gigabit geometries, so the
  functions are safe on estimator confidence bounds.

The caveat that matters for policy: for detection-only schemes, and for
any scheme once the static (RTN) term dominates, scrubbing *faster*
does not reduce the loss rate -- each scrub is one more independent
read-out of a marginal array.  The decision search is therefore a grid
search, never a bisection over the scrub period.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from repro.analysis.tables import format_table

SCHEMA_VERSION = 1

HOURS_PER_YEAR = 365 * 24
#: Decimal convention (1 Mbit = 1e6 bits), matching the FIT/Mbit table.
BITS_PER_MBIT = 1_000_000

#: Soft-error FIT per Mbit by technology node (SNIPPETS exemplar 1).
FIT_PER_MBIT = {"28nm": 74.0, "16nm": 5.0, "7nm": 0.4}

#: Neutron/proton flux multiplier by operating environment relative to
#: New-York-City sea level (SNIPPETS exemplar 2).
ENV_FLUX_MULTIPLIER = {
    "sea-level": 1.0,
    "avionics": 300.0,
    "space": 50_000.0,
}

#: Single-event upset pattern mix (SNIPPETS exemplar 3): fraction of
#: raw upset events arriving as each spatial pattern.
ERROR_DISTRIBUTION = {
    "single": 0.85,
    "double_adjacent": 0.12,
    "triple_adjacent": 0.02,
    "random_double": 0.01,
}

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)
# Below this, linear-space binomial tails lose their mantissa and the
# log-space series takes over.
_LINEAR_SF_FLOOR = 1e-250


# ---------------------------------------------------------------------------
# log-space primitives
# ---------------------------------------------------------------------------

def log1mexp(x: float) -> float:
    """``log(1 - exp(x))`` for ``x <= 0``, accurate over the full range.

    Uses the classic two-branch split at ``-ln 2`` (Maechler 2012):
    ``log(-expm1(x))`` near zero, ``log1p(-exp(x))`` far from it.
    """
    if x > 0.0:
        raise ValueError(f"log1mexp needs x <= 0, got {x}")
    # exact boundary of the domain, not a tolerance question
    if x == 0.0:  # repro: allow-float-eq
        return -math.inf
    if x > -_LN2:
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def _log_binom_pmf(j: int, n: int, log_p: float, log_q: float) -> float:
    from scipy.special import gammaln

    coeff = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
    return float(coeff + j * log_p + (n - j) * log_q)


def log_binom_sf(k: int, n: int, p: float) -> float:
    """``log P(Binomial(n, p) > k)``, stable down to ~1e-300.

    Delegates to scipy's linear-space survival function while it still
    has a mantissa, then switches to an incremental log-space series:
    in the deep tail the mode ``n*p`` is far below ``k + 1``, so the
    pmf terms decay geometrically and the sum converges in a handful
    of terms.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = int(k)
    if k < 0:
        return 0.0
    if k >= n:
        return -math.inf
    # exact degenerate endpoints (log would be -inf/0 regardless)
    if p == 0.0:  # repro: allow-float-eq
        return -math.inf
    if p == 1.0:  # repro: allow-float-eq
        return 0.0
    # scipy.stats costs ~1.2 s to import: load it here, not with the
    # package, so processes that never reach the ECC layer skip it
    from scipy.stats import binom

    linear = float(binom.sf(k, n, p))
    if linear > _LINEAR_SF_FLOOR:
        return math.log(linear)
    log_p = math.log(p)
    log_q = math.log1p(-p)
    j = k + 1
    log_term = _log_binom_pmf(j, n, log_p, log_q)
    first = log_term
    total = -math.inf
    while True:
        total = float(np.logaddexp(total, log_term))
        if j >= n or log_term < first - 45.0:
            return total
        j += 1
        log_term += math.log((n - j + 1) / j) + log_p - log_q


def log10_from_log(log_value: float) -> float:
    """Convert a natural-log probability to log10 (for reporting)."""
    return log_value / _LN10


# ---------------------------------------------------------------------------
# ECC schemes
# ---------------------------------------------------------------------------

def hamming_check_bits(data_bits: int) -> int:
    """Smallest ``r`` with ``2**r >= data_bits + r + 1`` (Hamming SEC)."""
    if data_bits < 1:
        raise ValueError(f"data_bits must be >= 1, got {data_bits}")
    r = 1
    while 2 ** r < data_bits + r + 1:
        r += 1
    return r


@dataclass(frozen=True)
class EccScheme:
    """One word-level protection scheme.

    ``correctable_bits`` is the number of *arbitrary* bit errors the
    scheme corrects; ``burst_correctable`` additionally corrects runs
    of adjacent upsets up to that length (TAEC).  Burst schemes assume
    ``correctable_bits == 1`` (single random + short adjacent bursts),
    which is the published TAEC construction.
    """

    name: str
    correctable_bits: int
    burst_correctable: int = 0
    detectable_bits: int = 0

    def __post_init__(self) -> None:
        if self.correctable_bits < 0:
            raise ValueError("correctable_bits must be >= 0")
        if self.burst_correctable not in (0, 2, 3):
            raise ValueError("burst_correctable must be 0, 2 or 3")
        if self.burst_correctable and self.correctable_bits != 1:
            raise ValueError(
                "burst schemes assume correctable_bits == 1")

    def check_bits(self, data_bits: int) -> int:
        """Check bits stored alongside ``data_bits`` data bits."""
        if self.name == "none":
            return 0
        if self.name == "parity":
            return 1
        r = hamming_check_bits(data_bits)
        if self.name == "secded":
            return r + 1
        if self.name == "taec":
            # SEC-DED parity tree + interleaved adjacent-run decoder
            return r + 2
        if self.name == "dec":
            # BCH-style double-error correction: 2 * r + 1
            return 2 * r + 1
        raise ValueError(f"unknown scheme {self.name!r}")

    def word_bits(self, data_bits: int) -> int:
        return data_bits + self.check_bits(data_bits)


SCHEMES: dict[str, EccScheme] = {
    "none": EccScheme("none", correctable_bits=0),
    "parity": EccScheme("parity", correctable_bits=0, detectable_bits=1),
    "secded": EccScheme("secded", correctable_bits=1, detectable_bits=2),
    "taec": EccScheme("taec", correctable_bits=1, burst_correctable=3,
                      detectable_bits=2),
    "dec": EccScheme("dec", correctable_bits=2),
}

DEFAULT_SCHEMES = ("none", "parity", "secded", "taec", "dec")


def get_scheme(name: str) -> EccScheme:
    try:
        return SCHEMES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEMES))
        raise ValueError(
            f"unknown ECC scheme {name!r} (known: {known})") from None


def log_word_uncorrectable(scheme: EccScheme, word_bits: int,
                           bit_error_probability: float) -> float:
    """``log P(the error pattern in one word defeats the scheme)``.

    Bit errors are i.i.d. Bernoulli(``bit_error_probability``).  For
    counting schemes the word is lost when more than
    ``correctable_bits`` bits err.  For TAEC, patterns of j in {2, 3}
    errors forming one adjacent run are additionally corrected, so the
    uncorrectable mass is a sum of positive terms (no cancellation)::

        j in 2..burst :  (C(n, j) - (n - j + 1)) p^j q^(n-j)
        j  > burst    :  full binomial tail
    """
    n = word_bits
    if n < 4:
        raise ValueError(f"word_bits must be >= 4, got {n}")
    p = bit_error_probability
    if scheme.burst_correctable == 0:
        return log_binom_sf(scheme.correctable_bits, n, p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0:  # repro: allow-float-eq
        return -math.inf
    parts = [log_binom_sf(scheme.burst_correctable, n, p)]
    if p < 1.0:
        log_p = math.log(p)
        log_q = math.log1p(-p)
        for j in range(2, scheme.burst_correctable + 1):
            non_run = math.comb(n, j) - (n - j + 1)
            if non_run > 0:
                parts.append(math.log(non_run) + j * log_p
                             + (n - j) * log_q)
    # the exact mass is < 1, but near p = 0.5 the logaddexp sum can
    # round ~1e-17 above 0, which would poison log1mexp downstream
    return min(float(np.logaddexp.reduce(parts)), 0.0)


def log_array_uncorrectable(scheme: EccScheme, words: int, word_bits: int,
                            bit_error_probability: float) -> float:
    """``log P(any of ``words`` words is uncorrectable)``."""
    if words < 1:
        raise ValueError(f"words must be >= 1, got {words}")
    log_word = log_word_uncorrectable(scheme, word_bits,
                                      bit_error_probability)
    log_survival = words * log1mexp(log_word)
    return log1mexp(log_survival)


def array_yield_for_scheme(scheme: EccScheme, words: int, word_bits: int,
                           cell_pfail: float) -> float:
    """Static array yield (all words correctable) under ``scheme``."""
    log_word = log_word_uncorrectable(scheme, word_bits, cell_pfail)
    return float(math.exp(words * log1mexp(log_word)))


# ---------------------------------------------------------------------------
# FIT chain (soft errors)
# ---------------------------------------------------------------------------

def _lookup(table: dict[str, float], key: str, what: str) -> float:
    try:
        return table[key]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(
            f"unknown {what} {key!r} (known: {known})") from None


def raw_fit(capacity_mbit: float, node: str,
            environment: str = "sea-level") -> float:
    """Unprotected soft-error FIT for the whole array."""
    if capacity_mbit <= 0:
        raise ValueError("capacity_mbit must be > 0")
    per_mbit = _lookup(FIT_PER_MBIT, node, "technology node")
    flux = _lookup(ENV_FLUX_MULTIPLIER, environment, "environment")
    return per_mbit * flux * capacity_mbit


def bit_upset_rate(node: str, environment: str = "sea-level") -> float:
    """Per-bit soft-upset rate in events per bit-hour."""
    return raw_fit(1.0, node, environment) / 1e9 / BITS_PER_MBIT


def annual_error_count(capacity_mbit: float, node: str,
                       environment: str = "sea-level") -> float:
    """Expected raw upsets per year for the whole array."""
    return raw_fit(capacity_mbit, node, environment) \
        * HOURS_PER_YEAR / 1e9


def max_capacity_under_fit(fit_limit: float, node: str,
                           environment: str = "sea-level") -> float:
    """Largest unprotected capacity (Mbit) meeting ``fit_limit``."""
    if fit_limit <= 0:
        raise ValueError("fit_limit must be > 0")
    return fit_limit / (_lookup(FIT_PER_MBIT, node, "technology node")
                        * _lookup(ENV_FLUX_MULTIPLIER, environment,
                                  "environment"))


def soft_error_probability(rate_per_hour: float, hours: float) -> float:
    """``P(at least one upset)`` over ``hours`` at a Poisson rate."""
    if rate_per_hour < 0 or hours < 0:
        raise ValueError("rate and hours must be >= 0")
    return float(-np.expm1(-rate_per_hour * hours))


def pattern_correctable(scheme: EccScheme, pattern: str) -> bool:
    """Whether an upset *pattern* (exemplar taxonomy) is corrected."""
    if pattern == "single":
        return scheme.correctable_bits >= 1
    if pattern == "double_adjacent":
        return scheme.correctable_bits >= 2 \
            or scheme.burst_correctable >= 2
    if pattern == "triple_adjacent":
        return scheme.correctable_bits >= 3 \
            or scheme.burst_correctable >= 3
    if pattern == "random_double":
        return scheme.correctable_bits >= 2
    raise ValueError(f"unknown upset pattern {pattern!r}")


def residual_error_fraction(
        scheme_name: str,
        distribution: dict[str, float] | None = None) -> float:
    """Fraction of raw upset events a scheme fails to correct.

    This is the exemplar's per-event accounting (each upset event is
    one spatial pattern); the word-level binomial model above is the
    exact treatment.  Kept for golden-table cross-checks.
    """
    scheme = get_scheme(scheme_name)
    dist = ERROR_DISTRIBUTION if distribution is None else distribution
    return sum(weight for pattern, weight in dist.items()
               if not pattern_correctable(scheme, pattern))


# ---------------------------------------------------------------------------
# scrub model
# ---------------------------------------------------------------------------

def combined_bit_error_probability(cell_pfail: float,
                                   upset_rate_per_hour: float,
                                   scrub_hours: float) -> float:
    """``P(a bit reads wrong at the end of one scrub window)``.

    Independent OR of the static RTN term (re-rolled per window) and
    at least one Poisson soft upset during the window::

        1 - q = (1 - pfail) * exp(-rate * T)
    """
    if not 0.0 <= cell_pfail <= 1.0:
        raise ValueError(
            f"probability must lie in [0, 1], got {cell_pfail}")
    if upset_rate_per_hour < 0 or scrub_hours <= 0:
        raise ValueError("rate must be >= 0 and scrub_hours > 0")
    log_ok = math.log1p(-cell_pfail) \
        - upset_rate_per_hour * scrub_hours if cell_pfail < 1.0 \
        else -math.inf
    return float(-np.expm1(log_ok))


def log_residual_rate_per_word(scheme: EccScheme, word_bits: int,
                               cell_pfail: float,
                               upset_rate_per_hour: float,
                               scrub_hours: float) -> float:
    """``log`` of uncorrectable-loss events per word per hour."""
    q = combined_bit_error_probability(cell_pfail, upset_rate_per_hour,
                                       scrub_hours)
    return log_word_uncorrectable(scheme, word_bits, q) \
        - math.log(scrub_hours)


def residual_fit(scheme: EccScheme, words: int, word_bits: int,
                 cell_pfail: float, upset_rate_per_hour: float,
                 scrub_hours: float) -> float:
    """Residual uncorrectable FIT for the whole array at one scrub
    period (1 FIT = one loss event per 1e9 device-hours)."""
    log_rate = log_residual_rate_per_word(
        scheme, word_bits, cell_pfail, upset_rate_per_hour, scrub_hours)
    return float(math.exp(log_rate + math.log(words) + 9.0 * _LN10))


def required_cell_pfail_for_policy(
        scheme: EccScheme, words: int, word_bits: int,
        upset_rate_per_hour: float, scrub_hours: float,
        fit_target: float, *,
        floor: float = 1e-18, ceiling: float = 0.5) -> float:
    """Largest ``cell_pfail`` for which the policy meets the target.

    The residual FIT is monotone increasing in ``cell_pfail`` (the
    combined bit error probability is, and the binomial tail is), so a
    bisection on ``log10 pfail`` is exact.  Returns 0.0 when even the
    soft-error floor alone busts the target, and ``ceiling`` when the
    target is met everywhere.
    """
    if fit_target <= 0:
        raise ValueError("fit_target must be > 0")

    def meets(p: float) -> bool:
        return residual_fit(scheme, words, word_bits, p,
                            upset_rate_per_hour,
                            scrub_hours) <= fit_target

    if not meets(floor):
        return 0.0
    if meets(ceiling):
        return ceiling
    lo, hi = math.log10(floor), math.log10(ceiling)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if meets(10.0 ** mid):
            lo = mid
        else:
            hi = mid
    return 10.0 ** lo


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CAPACITY_SUFFIXES = {"kb": 1e-3, "mb": 1.0, "gb": 1e3, "tb": 1e6}


def parse_capacity(text: str | float) -> float:
    """Parse a capacity like ``"128Gb"`` / ``"64Mb"`` into Mbit.

    Decimal multipliers (1 Gb = 1000 Mb = 1e9 bits), matching the
    FIT/Mbit convention.  A bare number is taken as Mbit.
    """
    if isinstance(text, (int, float)):
        return float(text)
    cleaned = text.strip().lower().replace(" ", "")
    for suffix in ("bits", "bit"):
        if cleaned.endswith(suffix):
            cleaned = cleaned[:-len(suffix)] + "b"
            break
    for suffix, scale in _CAPACITY_SUFFIXES.items():
        if cleaned.endswith(suffix):
            return float(cleaned[:-len(suffix)]) * scale
    return float(cleaned)


def format_capacity(capacity_mbit: float) -> str:
    if capacity_mbit >= 1e6:
        return f"{capacity_mbit / 1e6:g} Tb"
    if capacity_mbit >= 1e3:
        return f"{capacity_mbit / 1e3:g} Gb"
    return f"{capacity_mbit:g} Mb"


DEFAULT_SCRUB_HOURS = (0.25, 1.0, 4.0, 24.0, 168.0, 720.0)


@dataclass(frozen=True)
class ArrayConfig:
    """The array-reliability question being asked.

    Every field is part of the result identity (service fingerprints
    hash all of them; see ``FINGERPRINT_CONTRACTS``).  Sequence fields
    are canonicalised to tuples so a JSON round trip cannot change the
    fingerprint.
    """

    capacity_mbit: float = 128_000.0
    data_bits: int = 64
    node: str = "16nm"
    environment: str = "sea-level"
    fit_target: float = 10.0
    scrub_hours: tuple[float, ...] = DEFAULT_SCRUB_HOURS
    schemes: tuple[str, ...] = DEFAULT_SCHEMES

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "capacity_mbit", float(self.capacity_mbit))
        object.__setattr__(
            self, "fit_target", float(self.fit_target))
        object.__setattr__(
            self, "scrub_hours",
            tuple(float(h) for h in self.scrub_hours))
        object.__setattr__(
            self, "schemes", tuple(str(s) for s in self.schemes))
        if self.capacity_mbit <= 0:
            raise ValueError("capacity_mbit must be > 0")
        if self.data_bits < 4:
            raise ValueError("data_bits must be >= 4")
        if self.fit_target <= 0:
            raise ValueError("fit_target must be > 0")
        _lookup(FIT_PER_MBIT, self.node, "technology node")
        _lookup(ENV_FLUX_MULTIPLIER, self.environment, "environment")
        if not self.scrub_hours:
            raise ValueError("scrub_hours must not be empty")
        if any(h <= 0 for h in self.scrub_hours):
            raise ValueError("scrub periods must be > 0 hours")
        if list(self.scrub_hours) != sorted(set(self.scrub_hours)):
            raise ValueError(
                "scrub_hours must be strictly increasing")
        if not self.schemes:
            raise ValueError("schemes must not be empty")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("duplicate scheme names")
        for name in self.schemes:
            get_scheme(name)

    @property
    def capacity_bits(self) -> int:
        return int(round(self.capacity_mbit * BITS_PER_MBIT))

    @property
    def words(self) -> int:
        """Number of protected words holding ``capacity_bits`` of
        data (check bits are extra cells, not capacity)."""
        return max(-(-self.capacity_bits // self.data_bits), 1)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ArrayConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown array config field(s): {', '.join(unknown)}")
        return cls(**payload)

    def with_(self, **changes) -> "ArrayConfig":
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScrubPoint:
    """Residual FIT of one (scheme, scrub period) cell."""

    scrub_hours: float
    bit_error_probability: float
    residual_fit: float
    log10_residual_fit: float
    meets_target: bool


@dataclass(frozen=True)
class SchemeResult:
    """Static yield and scrub curve for one ECC scheme."""

    name: str
    word_bits: int
    check_bits: int
    overhead_percent: float
    words: int
    log10_array_failure: float
    array_failure: float
    array_yield: float
    scrub: tuple[ScrubPoint, ...]

    def best_point(self) -> ScrubPoint | None:
        """Longest scrub period (cheapest policy) meeting the target."""
        for point in reversed(self.scrub):
            if point.meets_target:
                return point
        return None


@dataclass(frozen=True)
class ArrayDecision:
    """The headline answer: cheapest (scheme, scrub) meeting target."""

    feasible: bool
    scheme: str | None
    scrub_hours: float | None
    residual_fit: float | None
    fit_margin: float | None
    required_cell_pfail: float
    robust_at_upper_bound: bool | None


@dataclass(frozen=True)
class ArrayReport:
    """Everything ``analyze_array`` knows, ready for text/JSON."""

    config: ArrayConfig
    cell_pfail: float
    cell_pfail_upper: float | None
    raw_fit: float
    annual_errors: float
    bit_upset_rate_per_hour: float
    max_unprotected_mbit: float
    schemes: tuple[SchemeResult, ...]
    decision: ArrayDecision

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["schema_version"] = SCHEMA_VERSION
        return payload

    def render_text(self) -> str:
        cfg = self.config
        lines = [
            f"array: {format_capacity(cfg.capacity_mbit)} "
            f"({cfg.data_bits}-bit words), node {cfg.node}, "
            f"{cfg.environment}",
            f"cell pfail: {self.cell_pfail:.3e}"
            + (f" (upper bound {self.cell_pfail_upper:.3e})"
               if self.cell_pfail_upper is not None else ""),
            f"raw soft-error FIT: {self.raw_fit:.4g} "
            f"({self.annual_errors:.4g} upsets/year); "
            f"max unprotected capacity at "
            f"{cfg.fit_target:g} FIT: "
            f"{format_capacity(self.max_unprotected_mbit)}",
            "",
        ]
        yield_rows = []
        for res in self.schemes:
            yield_rows.append([
                res.name, str(res.word_bits), str(res.check_bits),
                f"{res.overhead_percent:.1f}%",
                f"{res.array_failure:.4g}",
                f"{res.log10_array_failure:+.2f}",
            ])
        lines.append(format_table(
            ["scheme", "word", "check", "overhead",
             "P(array fail)", "log10"],
            yield_rows, title="static yield (RTN only)"))
        lines.append("")
        scrub_rows = []
        for hours in cfg.scrub_hours:
            row = [f"{hours:g}"]
            for res in self.schemes:
                point = next(p for p in res.scrub
                             if p.scrub_hours == hours)
                mark = " *" if point.meets_target else ""
                row.append(f"{point.residual_fit:.3g}{mark}")
            scrub_rows.append(row)
        lines.append(format_table(
            ["scrub [h]"] + [res.name for res in self.schemes],
            scrub_rows,
            title=f"residual FIT vs scrub period "
                  f"(* meets {cfg.fit_target:g} FIT)"))
        lines.append("")
        d = self.decision
        if d.feasible:
            lines.append(
                f"decision: {d.scheme} with scrub every "
                f"{d.scrub_hours:g} h -> {d.residual_fit:.3g} FIT "
                f"(margin {d.fit_margin:.3g}x)")
            if d.robust_at_upper_bound is not None:
                verdict = "holds" if d.robust_at_upper_bound \
                    else "DOES NOT hold"
                lines.append(
                    f"  at the pfail upper bound the decision "
                    f"{verdict}")
        else:
            lines.append(
                f"decision: no scheme x scrub combination meets "
                f"{cfg.fit_target:g} FIT at pfail "
                f"{self.cell_pfail:.3e}")
        lines.append(
            f"  required cell pfail for the best policy: "
            f"<= {d.required_cell_pfail:.3e}")
        return "\n".join(lines)


def _scheme_result(cfg: ArrayConfig, scheme: EccScheme,
                   cell_pfail: float, rate: float) -> SchemeResult:
    word_bits = scheme.word_bits(cfg.data_bits)
    check = scheme.check_bits(cfg.data_bits)
    words = cfg.words
    log_fail = log_array_uncorrectable(scheme, words, word_bits,
                                       cell_pfail)
    points = []
    for hours in cfg.scrub_hours:
        q = combined_bit_error_probability(cell_pfail, rate, hours)
        fit = residual_fit(scheme, words, word_bits, cell_pfail,
                           rate, hours)
        log_rate = log_residual_rate_per_word(
            scheme, word_bits, cell_pfail, rate, hours)
        log10_fit = log10_from_log(log_rate) + math.log10(words) + 9.0 \
            if words > 0 else -math.inf
        points.append(ScrubPoint(
            scrub_hours=hours,
            bit_error_probability=q,
            residual_fit=fit,
            log10_residual_fit=log10_fit,
            meets_target=fit <= cfg.fit_target,
        ))
    return SchemeResult(
        name=scheme.name,
        word_bits=word_bits,
        check_bits=check,
        overhead_percent=100.0 * check / cfg.data_bits,
        words=words,
        log10_array_failure=log10_from_log(log_fail),
        array_failure=float(math.exp(log_fail)),
        array_yield=float(math.exp(
            words * log1mexp(log_word_uncorrectable(
                scheme, word_bits, cell_pfail)))),
        scrub=tuple(points),
    )


def _decide(cfg: ArrayConfig, results: tuple[SchemeResult, ...],
            cell_pfail_upper: float | None,
            rate: float) -> ArrayDecision:
    ordered = sorted(results, key=lambda r: (r.check_bits, r.name))
    chosen: tuple[SchemeResult, ScrubPoint] | None = None
    for res in ordered:
        point = res.best_point()
        if point is not None:
            chosen = (res, point)
            break
    if chosen is None:
        # infeasible: report the pfail the *strongest* scheme at the
        # *shortest* scrub period would need
        strongest = max(results, key=lambda r: (
            get_scheme(r.name).correctable_bits,
            get_scheme(r.name).burst_correctable))
        scheme = get_scheme(strongest.name)
        required = required_cell_pfail_for_policy(
            scheme, strongest.words, strongest.word_bits, rate,
            min(cfg.scrub_hours), cfg.fit_target)
        return ArrayDecision(
            feasible=False, scheme=None, scrub_hours=None,
            residual_fit=None, fit_margin=None,
            required_cell_pfail=required,
            robust_at_upper_bound=None)
    res, point = chosen
    scheme = get_scheme(res.name)
    required = required_cell_pfail_for_policy(
        scheme, res.words, res.word_bits, rate, point.scrub_hours,
        cfg.fit_target)
    robust: bool | None = None
    if cell_pfail_upper is not None:
        upper_fit = residual_fit(scheme, res.words, res.word_bits,
                                 cell_pfail_upper, rate,
                                 point.scrub_hours)
        robust = upper_fit <= cfg.fit_target
    margin = cfg.fit_target / point.residual_fit \
        if point.residual_fit > 0 else math.inf
    return ArrayDecision(
        feasible=True, scheme=res.name,
        scrub_hours=point.scrub_hours,
        residual_fit=point.residual_fit, fit_margin=margin,
        required_cell_pfail=required, robust_at_upper_bound=robust)


def analyze_array(config: ArrayConfig, cell_pfail: float,
                  cell_pfail_upper: float | None = None) -> ArrayReport:
    """Run the full chain and answer the decision question.

    ``cell_pfail_upper`` (typically ``pfail + ci_halfwidth`` from an
    estimator run) marks the decision as robust only when it still
    holds at the bound.
    """
    if not 0.0 <= cell_pfail <= 0.5:
        raise ValueError(
            f"cell_pfail must lie in [0, 0.5], got {cell_pfail}")
    if cell_pfail_upper is not None:
        if not cell_pfail <= cell_pfail_upper <= 1.0:
            raise ValueError(
                "cell_pfail_upper must lie in [cell_pfail, 1]")
        cell_pfail_upper = float(min(cell_pfail_upper, 0.5))
    rate = bit_upset_rate(config.node, config.environment)
    results = tuple(
        _scheme_result(config, get_scheme(name), cell_pfail, rate)
        for name in config.schemes)
    decision = _decide(config, results, cell_pfail_upper, rate)
    return ArrayReport(
        config=config,
        cell_pfail=float(cell_pfail),
        cell_pfail_upper=cell_pfail_upper,
        raw_fit=raw_fit(config.capacity_mbit, config.node,
                        config.environment),
        annual_errors=annual_error_count(
            config.capacity_mbit, config.node, config.environment),
        bit_upset_rate_per_hour=rate,
        max_unprotected_mbit=max_capacity_under_fit(
            config.fit_target, config.node, config.environment),
        schemes=results,
        decision=decision,
    )

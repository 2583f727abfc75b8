"""Declarative simulation specs: jobs that exist as *data*.

The ROADMAP north star — serve heavy traffic, shard/queue/cache work
across backends — requires a run to be describable without holding any
live solver object: a :class:`SimulationSpec` is a frozen, validated,
JSON-serialisable description of one job (which engine kind, which link,
which devices, which stimulus or scenario batch, which engine options)
that can be hashed for result caching, shipped to a worker process, and
replayed bit-identically.

The spec layer deliberately reuses the existing on-disk contracts instead
of inventing new ones: embedded device models use the JSON schema of
:mod:`repro.macromodel.serialization`, sweep scenarios mirror
:class:`repro.sweep.scenario.Scenario`, and the link block mirrors
:class:`repro.core.cosim.LinkDescription`.

Round-trip contract
-------------------
``spec_from_dict(spec.to_dict()) == spec`` holds exactly for every valid
spec (numbers survive JSON because Python round-trips floats through
``repr``), and :meth:`SimulationSpec.content_hash` is a stable SHA-256 of
the canonical JSON encoding — equal across processes, machines and dict
orderings, so it can key a shared result cache.

``from_dict`` validates *strictly*: unknown keys, unknown kinds and
malformed blocks raise ``ValueError`` with the offending path, in the
spirit of versioned, normalised request contracts.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import hashlib
import json
import math
import typing
from typing import Any, Callable, Mapping, Optional, Tuple

__all__ = [
    "FORMAT_VERSION",
    "ENGINE_KINDS",
    "DISTRIBUTION_KINDS",
    "StimulusSpec",
    "DeviceSpec",
    "LinkSpec",
    "StructureSpec",
    "ScenarioSpec",
    "DistributionSpec",
    "StatsSpec",
    "EngineOptions",
    "SimulationSpec",
    "spec_from_dict",
    "load_spec",
]

#: bump when the spec schema changes incompatibly
FORMAT_VERSION = 1

#: the engine kinds a spec may request (see :mod:`repro.api.engines`)
ENGINE_KINDS = ("circuit", "fdtd1d", "fdtd3d", "sweep")

#: the parameter-distribution kinds a ``stats`` block may declare
#: (see :class:`DistributionSpec` and :mod:`repro.sweep.montecarlo`)
DISTRIBUTION_KINDS = ("uniform", "normal", "choice", "pattern")

#: default time step of the SPICE-class engines and sweeps when
#: ``engine.dt`` is null — the single source for the adapters
#: (:mod:`repro.api.engines`) and the estimates of :meth:`SimulationSpec.resolved_dt`
DEFAULT_DT = 5e-12


# ---------------------------------------------------------------------------
# strict coercion and the field-driven codec
# ---------------------------------------------------------------------------

def _require_mapping(data: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(data, collections.abc.Mapping):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")
    return data


def _as_float(value: Any, where: str) -> float:
    """Strict numeric conversion: malformed values raise ValueError, not TypeError.

    ``json.loads`` accepts ``NaN``, ``Infinity`` and integers beyond the
    float range; no spec quantity is meaningful there, so they are
    rejected too.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return number


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a string, got {value!r}")
    return value


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{where}: expected true/false, got {value!r}")
    return value


def _as_array(value: Any, where: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where}: expected a JSON array, got {type(value).__name__}")
    return value


_SCALAR_COERCERS = {float: _as_float, int: _as_int, str: _as_str, bool: _as_bool}


def _codec(tp) -> tuple:
    """The ``(coerce(value, where), encode(value))`` pair of a declared field type.

    ``Optional``, ``Tuple[X, ...]`` and ``Mapping[str, X]`` compose the
    codec of ``X``; a spec block decodes through its own ``from_dict``;
    ``Any`` passes through unchanged.  Scalars encode as themselves
    (``encode`` is ``None``).
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]
        coerce, encode = _codec(args[0])
        return (
            lambda v, where: None if v is None else coerce(v, where),
            encode and (lambda v: None if v is None else encode(v)),
        )
    if origin is tuple:
        coerce, encode = _codec(args[0])
        encode = encode or (lambda x: x)
        return (
            lambda v, where: tuple(
                coerce(x, f"{where}[{k}]") for k, x in enumerate(_as_array(v, where))
            ),
            lambda v: [encode(x) for x in v],
        )
    if origin is collections.abc.Mapping:
        coerce, encode = _codec(args[1])
        encode = encode or (lambda x: x)
        return (
            lambda v, where: {
                str(k): coerce(x, f"{where}[{k!r}]")
                for k, x in _require_mapping(v, where).items()
            },
            lambda v: {k: encode(x) for k, x in v.items()},
        )
    if isinstance(tp, type) and issubclass(tp, _Block):
        return (
            lambda v, where: v if isinstance(v, tp) else tp.from_dict(v, where),
            lambda v: v.to_dict(),
        )
    return _SCALAR_COERCERS.get(tp, lambda v, where: v), None


#: field metadata: leave the key out of ``to_dict`` while the value is
#: unset (``None`` or empty), so adding an optional field never moves the
#: content hash of a spec that does not use it
_OMIT_UNSET = {"omit_unset": True}


def _path(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


class _Field(typing.NamedTuple):
    name: str
    path: str  # error path on construction, e.g. "link.z0"
    coerce: Callable[[Any, str], Any]
    encode: Optional[Callable[[Any], Any]]  # None: the value is its own JSON
    required: bool
    omit_unset: bool


@functools.cache
def _fields(cls) -> Tuple[_Field, ...]:
    """The codec of every field of a spec block, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple(
        _Field(
            f.name,
            _path(cls._where, f.name),
            *_codec(hints[f.name]),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
            f.metadata.get("omit_unset", False),
        )
        for f in dataclasses.fields(cls)
    )


@functools.cache
def _keys(cls) -> frozenset:
    """Every key ``from_dict`` accepts for a block."""
    return frozenset(cls._header).union(field.name for field in _fields(cls))


class _Block:
    """Base of the spec dataclasses: one type-driven coercion and JSON codec.

    Every field is coerced by the strict coercer its declared type selects,
    on construction and on decoding alike, so the two paths accept exactly
    the same values.  ``to_dict`` writes the fields in declaration order
    and ``from_dict`` rejects unknown keys, applies the dataclass defaults
    and names the offending path in every error.  Checks beyond the field
    types live in each block's :meth:`_validate`.
    """

    #: error-path prefix of the block's fields (``"link"`` -> ``link.z0``)
    _where = ""
    #: constant keys written first by ``to_dict`` and required by ``from_dict``
    _header: Mapping[str, Any] = {}

    def __post_init__(self):
        for field in _fields(type(self)):
            object.__setattr__(self, field.name, field.coerce(getattr(self, field.name), field.path))
        self._validate()

    def _validate(self) -> None:
        """Block-specific checks: ranges, enumerations, cross-field rules."""

    def to_dict(self) -> dict:
        """The strict JSON form of this block (``from_dict`` inverts it)."""
        doc = dict(self._header)
        for field in _fields(type(self)):
            value = getattr(self, field.name)
            if not (field.omit_unset and (value is None or value == ())):
                doc[field.name] = value if field.encode is None else field.encode(value)
        return doc

    @classmethod
    def from_dict(cls, data: Any, where: Optional[str] = None):
        """Rebuild a block from its ``to_dict`` form (strict)."""
        where = cls._where if where is None else where
        label = where or "spec"
        data = _require_mapping(data, label)
        allowed = _keys(cls)
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ValueError(f"{label}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")
        for key, expected in cls._header.items():
            if data.get(key) != expected:
                raise ValueError(
                    f"unsupported {label} {key} {data.get(key)!r} (this build reads {expected})"
                )
        kwargs = {}
        for field in _fields(cls):
            if field.name in data:
                path = field.path if where == cls._where else _path(where, field.name)
                kwargs[field.name] = field.coerce(data[field.name], path)
            elif field.required:
                raise ValueError(f"{label}: missing required key {field.name!r}")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            if where == cls._where:  # the block's own checks already name it
                raise
            raise ValueError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# spec blocks
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StimulusSpec(_Block):
    """The logic stimulus driven into the link.

    Attributes
    ----------
    bit_pattern:
        Logic pattern forced by the driver (the paper uses ``"010"``).
        Sweep scenarios may override it per scenario.
    bit_time:
        Bit duration (seconds).
    edge_time:
        Stimulus edge time (seconds); used by the linear-link sweep family
        (RBF drivers take their edges from the identified model).
    """

    bit_pattern: str = "010"
    bit_time: float = 2e-9
    edge_time: float = 1e-10

    _where = "stimulus"

    def _validate(self):
        if not self.bit_pattern or set(self.bit_pattern) - {"0", "1"}:
            raise ValueError(f"bit_pattern must be a non-empty 0/1 string, got {self.bit_pattern!r}")
        if self.bit_time <= 0 or self.edge_time <= 0:
            raise ValueError("bit_time and edge_time must be positive")


@functools.cache
def _device_param_coercers() -> dict:
    from repro.macromodel.library import ReferenceDeviceParameters

    hints = typing.get_type_hints(ReferenceDeviceParameters)
    return {
        f.name: _codec(hints[f.name])[0] for f in dataclasses.fields(ReferenceDeviceParameters)
    }


@dataclasses.dataclass(frozen=True)
class DeviceSpec(_Block):
    """Where the driver/receiver macromodels of a job come from.

    Attributes
    ----------
    source:
        ``"library"`` — the fast analytic reference models
        (:func:`repro.macromodel.library.make_reference_driver_macromodel`);
        ``"identified"`` — the full identification workflow from the
        transistor-level devices;
        ``"inline"`` — models embedded in the spec itself using the JSON
        schema of :mod:`repro.macromodel.serialization` (the fully
        self-contained, worker-shippable form).  Every source is fitted
        once per machine and then served by the model cache of
        :mod:`repro.api.models`, keyed by this block's content.
    n_centers:
        Gaussian centre count for library/identified sources; ``None``
        keeps each source's own defaults.  An explicit count pins the
        driver submodels and gives the receiver protection submodels half
        of it (min 30), mirroring the identified workflow's convention.
    seed:
        Identification seed (the receiver uses ``seed + 10`` for the
        library source, matching the library defaults at ``seed=0``).
    params:
        Overrides of :class:`~repro.macromodel.library.ReferenceDeviceParameters`
        fields (e.g. ``{"vdd": 2.5}``); keys are validated.
    driver, receiver:
        Embedded macromodel dictionaries (``source="inline"`` only).
    """

    source: str = "library"
    n_centers: Optional[int] = None
    seed: int = 0
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    driver: Optional[Mapping[str, Any]] = None
    receiver: Optional[Mapping[str, Any]] = None

    _where = "devices"

    def _validate(self):
        if self.source not in ("library", "identified", "inline"):
            raise ValueError(
                f"devices.source must be 'library', 'identified' or 'inline', got {self.source!r}"
            )
        if self.n_centers is not None and self.n_centers < 1:
            raise ValueError("devices.n_centers must be positive")
        # each override takes the type of its ReferenceDeviceParameters field
        known = _device_param_coercers()
        for key in self.params:
            if key not in known:
                raise ValueError(
                    f"devices.params: unknown device parameter {key!r}; "
                    f"known: {sorted(known)}"
                )
        object.__setattr__(self, "params", {
            key: known[key](value, f"devices.params.{key}")
            for key, value in self.params.items()
        })
        if self.source == "inline":
            if self.driver is None and self.receiver is None:
                raise ValueError("devices.source='inline' needs a driver and/or receiver model")
        elif self.driver is not None or self.receiver is not None:
            raise ValueError("embedded driver/receiver models require devices.source='inline'")
        if self.driver is not None:
            object.__setattr__(self, "driver", _freeze_json(self.driver, "devices.driver"))
        if self.receiver is not None:
            object.__setattr__(self, "receiver", _freeze_json(self.receiver, "devices.receiver"))


def _freeze_json(data: Any, where: str) -> Any:
    """Normalise an embedded JSON blob (and verify it *is* JSON)."""
    try:
        return json.loads(json.dumps(data))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: not JSON-serialisable: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class LinkSpec(_Block):
    """The driver → interconnect → load validation link.

    Mirrors :class:`repro.core.cosim.LinkDescription` (the stimulus and
    duration live in their own spec blocks).  ``source_resistance`` is
    used by the linear sweep family only; the 3-D FDTD engine takes its
    interconnect from the structure block and ignores ``z0``/``delay``.
    ``segments`` discretises the circuit-engine interconnect into an
    LC ladder (0 keeps the ideal line; ``N > 0`` adds ~2N MNA unknowns —
    the system-scale workload of ``engine.sparse_mna``).
    """

    z0: float = 131.0
    delay: float = 0.4e-9
    load: str = "rc"
    load_resistance: float = 500.0
    load_capacitance: float = 1e-12
    source_resistance: float = 50.0
    segments: int = 0

    _where = "link"

    def _validate(self):
        if self.load not in ("rc", "receiver"):
            raise ValueError(f"link.load must be 'rc' or 'receiver', got {self.load!r}")
        for name in ("z0", "delay", "load_resistance", "source_resistance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"link.{name} must be positive")
        if self.load_capacitance < 0:
            raise ValueError("link.load_capacitance must be non-negative")
        if self.segments < 0:
            raise ValueError("link.segments must be non-negative")


@dataclasses.dataclass(frozen=True)
class StructureSpec(_Block):
    """The discretised 3-D structure of an ``fdtd3d`` job.

    Attributes
    ----------
    name:
        Structure family; currently only ``"validation_line"`` (the
        paper's Figure 3 stacked-strip line).
    scale:
        Length scale in ``(0, 1]``; 1.0 is the paper's 160-cell line
        (same cross-section, shorter delay when scaled down).
    """

    name: str = "validation_line"
    scale: float = 1.0

    _where = "structure"

    def _validate(self):
        if self.name != "validation_line":
            raise ValueError(
                f"structure.name must be 'validation_line', got {self.name!r}"
            )
        if not 0 < self.scale <= 1:
            raise ValueError("structure.scale must lie in (0, 1]")


@dataclasses.dataclass(frozen=True)
class ScenarioSpec(_Block):
    """One scenario of a ``sweep`` job (mirrors :class:`repro.sweep.scenario.Scenario`)."""

    name: str
    bit_pattern: Optional[str] = None
    drive_strength: float = 1.0
    corner: Mapping[str, float] = dataclasses.field(default_factory=dict)
    device: Optional[str] = None
    static_group: Optional[str] = None

    _where = "scenario"

    def _validate(self):
        if not self.name:
            raise ValueError(f"scenario name must be a non-empty string, got {self.name!r}")
        if self.bit_pattern is not None and (
            not self.bit_pattern or set(self.bit_pattern) - {"0", "1"}
        ):
            raise ValueError(
                f"scenario {self.name!r}: bit_pattern must be a 0/1 string or null"
            )

    def to_scenario(self):
        """The runtime :class:`~repro.sweep.scenario.Scenario` of this block."""
        from repro.sweep.scenario import Scenario

        return Scenario(
            name=self.name,
            bit_pattern=self.bit_pattern,
            drive_strength=self.drive_strength,
            corner=dict(self.corner),
            device=self.device,
            static_group=self.static_group,
        )


@dataclasses.dataclass(frozen=True)
class DistributionSpec(_Block):
    """One sampled parameter distribution of a ``stats`` block.

    The distribution grammar of Monte Carlo statistical SI
    (:mod:`repro.sweep.montecarlo`).  Numeric kinds target corner values
    and drive strengths; ``pattern`` targets random bit patterns.

    Attributes
    ----------
    kind:
        ``"uniform"`` (``low``/``high``), ``"normal"`` (``mean``/``std``,
        optional ``low``/``high`` clip bounds), ``"choice"`` (finite
        ``values``, optional ``weights``) or ``"pattern"`` (a random 0/1
        string of ``bits`` bits).
    low, high:
        Range of a uniform distribution, or clip bounds of a normal one.
    mean, std:
        Centre and width of a normal distribution (``std`` > 0).
    values:
        The support of a choice distribution: numbers for numeric
        targets, 0/1 strings when targeting ``bit_pattern``.
    weights:
        Optional relative weights of ``values`` (same length, > 0);
        empty means equiprobable.
    bits:
        Length of a random ``pattern`` draw (>= 1).
    """

    kind: str
    low: Optional[float] = dataclasses.field(default=None, metadata=_OMIT_UNSET)
    high: Optional[float] = dataclasses.field(default=None, metadata=_OMIT_UNSET)
    mean: Optional[float] = dataclasses.field(default=None, metadata=_OMIT_UNSET)
    std: Optional[float] = dataclasses.field(default=None, metadata=_OMIT_UNSET)
    values: Tuple[Any, ...] = dataclasses.field(default=(), metadata=_OMIT_UNSET)
    weights: Tuple[float, ...] = dataclasses.field(default=(), metadata=_OMIT_UNSET)
    bits: Optional[int] = dataclasses.field(default=None, metadata=_OMIT_UNSET)

    _where = "distribution"

    def _validate(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(
                f"distribution kind must be one of {DISTRIBUTION_KINDS}, got {self.kind!r}"
            )
        if self.kind == "uniform":
            if self.low is None or self.high is None:
                raise ValueError("uniform distribution needs low and high")
            if not self.low < self.high:
                raise ValueError(
                    f"uniform distribution needs low < high, got [{self.low}, {self.high}]"
                )
        elif self.kind == "normal":
            if self.mean is None or self.std is None:
                raise ValueError("normal distribution needs mean and std")
            if self.std <= 0:
                raise ValueError("normal distribution needs std > 0")
            if self.low is not None and self.high is not None \
                    and not self.low < self.high:
                raise ValueError("normal clip bounds need low < high")
        elif self.kind == "choice":
            if not self.values:
                raise ValueError("choice distribution needs a non-empty values list")
            numeric = [
                not isinstance(v, bool) and isinstance(v, (int, float))
                for v in self.values
            ]
            stringy = [
                isinstance(v, str) and v != "" and not set(v) - {"0", "1"}
                for v in self.values
            ]
            if all(numeric):
                object.__setattr__(self, "values", tuple(
                    _as_float(v, f"distribution.values[{k}]") for k, v in enumerate(self.values)
                ))
            elif not all(stringy):
                raise ValueError(
                    "choice values must be all numbers or all 0/1 pattern strings, "
                    f"got {list(self.values)!r}"
                )
            if self.weights:
                if len(self.weights) != len(self.values):
                    raise ValueError(
                        f"choice weights ({len(self.weights)}) must match values "
                        f"({len(self.values)})"
                    )
                if any(w <= 0 for w in self.weights):
                    raise ValueError("choice weights must be positive")
        else:  # pattern
            if self.bits is None:
                raise ValueError("pattern distribution needs bits")
            if self.bits < 1:
                raise ValueError("pattern distribution needs bits >= 1")

    @property
    def is_numeric(self) -> bool:
        """Whether draws are numbers (vs 0/1 pattern strings)."""
        if self.kind == "pattern":
            return False
        if self.kind == "choice":
            return not self.values or isinstance(self.values[0], float)
        return True


#: the scenario dimensions a stats distribution may target besides
#: ``corner.<parameter>``
_STATS_DIRECT_TARGETS = ("bit_pattern", "drive_strength")


@dataclasses.dataclass(frozen=True)
class StatsSpec(_Block):
    """Monte Carlo statistical-exploration block of a ``sweep`` job.

    Instead of enumerating scenarios by hand, a ``stats`` block *samples*
    them: ``samples`` scenarios are drawn deterministically from ``seed``
    out of the declared parameter ``distributions`` and fed through the
    ordinary (sharded) sweep engine — the generated batch replaces the
    ``scenarios`` array, which must be empty.  RHS-only dimensions
    (``bit_pattern``, ``drive_strength``) never split a corner group, so
    sampling composes with one-factorization-per-group and shard fan-out
    for free; corner draws are limited to ``corner_groups`` distinct
    values so the factorization sharing survives continuous
    distributions.  See :mod:`repro.sweep.montecarlo` and
    ``docs/job-spec.md``.

    Attributes
    ----------
    samples:
        Number of scenarios to generate (>= 1).
    seed:
        RNG seed; the same seed regenerates bit-identical scenarios (and
        therefore the same waveforms and the same ``content_hash`` —
        reruns hit the result store instead of solving).
    distributions:
        Mapping of target -> :class:`DistributionSpec`.  Targets:
        ``"corner.<parameter>"`` (static-affecting corner values, e.g.
        ``corner.load_resistance``, ``corner.delay`` for launch-timing
        skew), ``"drive_strength"`` (linear family only) and
        ``"bit_pattern"`` (``pattern`` or 0/1-string ``choice`` kinds).
    corner_groups:
        Number of distinct corner draws shared across the batch (each
        scenario is assigned one round-robin).  ``null`` gives every
        scenario its own draw — one factorization per scenario, which
        defeats the sweep engine's sharing for continuous distributions.
    node, low, high, t_start:
        Eye-measurement parameters of the statistical outputs: the
        recorded node to fold and the logic thresholds / first bit
        boundary passed to :func:`repro.sweep.report.eye_report`.
    bins:
        Histogram bin count of the distribution summaries.
    refine_rounds:
        Adaptive worst-case refinement rounds (0 disables): each round
        resamples ``refine_samples`` scenarios from distributions
        re-centred on the emerging worst corner and shrunk by
        ``refine_shrink``, strictly tightening the worst-case estimate.
    refine_samples:
        Scenarios per refinement round (>= 1).
    refine_shrink:
        Multiplicative width shrink per refinement round, in ``(0, 1]``.
    """

    samples: int
    seed: int = 0
    distributions: Mapping[str, DistributionSpec] = dataclasses.field(default_factory=dict)
    corner_groups: Optional[int] = None
    node: str = "far"
    low: float = 0.0
    high: float = 1.8
    t_start: float = 0.0
    bins: int = 20
    refine_rounds: int = 0
    refine_samples: int = 16
    refine_shrink: float = 0.5

    _where = "stats"

    def _validate(self):
        if self.samples < 1:
            raise ValueError("stats.samples must be at least 1")
        if not self.distributions:
            raise ValueError("stats.distributions must be a non-empty object")
        for target, dist in self.distributions.items():
            where = f"stats.distributions[{target!r}]"
            if target == "bit_pattern":
                if dist.is_numeric:
                    raise ValueError(
                        f"{where}: bit_pattern needs a 'pattern' kind or a choice "
                        f"of 0/1 strings, got numeric {dist.kind!r}"
                    )
            elif target == "drive_strength" or target.startswith("corner."):
                if not dist.is_numeric:
                    raise ValueError(
                        f"{where}: {target} needs a numeric distribution, "
                        f"got {dist.kind!r}"
                    )
                if target.startswith("corner.") and not target[len("corner."):]:
                    raise ValueError(f"{where}: empty corner parameter name")
            else:
                raise ValueError(
                    f"stats.distributions: unknown target {target!r}; expected "
                    f"'corner.<parameter>' or one of {list(_STATS_DIRECT_TARGETS)}"
                )
        # stored in target order, the order to_dict writes them in
        object.__setattr__(self, "distributions", dict(sorted(self.distributions.items())))
        if self.corner_groups is not None and self.corner_groups < 1:
            raise ValueError("stats.corner_groups must be at least 1 (or null)")
        if not self.node:
            raise ValueError(f"stats.node must be a non-empty string, got {self.node!r}")
        if not self.low < self.high:
            raise ValueError("stats logic thresholds need low < high")
        if self.t_start < 0:
            raise ValueError("stats.t_start must be non-negative")
        if self.bins < 2:
            raise ValueError("stats.bins must be at least 2")
        if self.refine_rounds < 0:
            raise ValueError("stats.refine_rounds must be non-negative")
        if self.refine_samples < 1:
            raise ValueError("stats.refine_samples must be at least 1")
        if not 0 < self.refine_shrink <= 1:
            raise ValueError("stats.refine_shrink must lie in (0, 1]")

    def corner_targets(self) -> dict:
        """The ``corner.<name>`` distributions, keyed by bare parameter name."""
        return {
            target[len("corner."):]: dist
            for target, dist in self.distributions.items()
            if target.startswith("corner.")
        }


@dataclasses.dataclass(frozen=True)
class EngineOptions(_Block):
    """Engine tuning knobs shared by every kind (irrelevant ones are ignored).

    Attributes
    ----------
    dt:
        Time step of the SPICE-class engines and sweeps (``None`` = the
        engine default, 5 ps).  The FDTD engines derive their own step
        (``delay / n_cells`` and the 3-D Courant limit respectively).
    fast:
        Fast-path selection forwarded to :func:`repro.perf.use_fastpath`
        for the duration of the run; ``None`` follows the process default.
    n_cells:
        Spatial cells of the 1-D FDTD line.
    variant:
        Circuit-kind device variant: ``"rbf"`` (macromodels, the paper's
        "SPICE (RBF model)" engine) or ``"transistor"`` (the
        transistor-level reference engine).
    sweep_family:
        Sweep-kind testbench family: ``"linear"`` (Thevenin driver + RC
        load, shared-LU block-solve path) or ``"rbf"`` (macromodel link,
        batched Gaussian path).
    sparse_mna:
        Route the circuit/sweep MNA solves through the sparse-CSC backend
        (:class:`repro.perf.backends.SparseBackend`): true sparse assembly
        with a cached sparsity pattern and ``splu`` factorization reuse,
        for netlists beyond a few hundred unknowns (see ``link.segments``).
        ``false`` keeps the automatic choice (dense at paper scale).
        Ignored by the field engines.
    batch_prepare:
        Fold the per-step RBF regressor preparation of all lockstep sweep
        scenarios in one stacked pass per step
        (:class:`repro.perf.rbf_fast.BatchedPrepare`).  Sweep kind only;
        ignored elsewhere.
    max_retries:
        Step retries of the SPICE-class engines' resilience layer
        (:class:`repro.resilience.RetryPolicy`): a failing time step is
        rewound and re-attempted up to this many times (re-run, then local
        dt-halving with boosted damping) before the failure surfaces.
        ``0`` (default) disables retrying.  Ignored by the field engines.
    on_nonconvergence:
        Policy for a step that exhausts its Newton iterations after any
        retries: ``"raise"`` (default — the job fails with a typed
        non-convergence error), ``"warn"`` or ``"ignore"`` (commit the
        step, counted in ``Result.perf_stats["health"]``).
    workers:
        Worker-process count of a sharded sweep
        (:mod:`repro.sweep.shard`): the scenario batch is partitioned
        into corner-group-atomic shards and fanned out over a process
        pool, merging to bit-identical waveforms.  ``None`` (default)
        reads ``REPRO_SWEEP_WORKERS`` and falls back to 1 (single
        process, no pool); must be ≥ 1 when set.  Sweep kind only;
        ignored elsewhere.
    shards:
        Shard count of a sharded sweep; ``None`` (default) uses the
        worker count.  Always capped by the number of corner groups —
        a corner group is never split across shards (that would break
        the one-factorization-per-group invariant *and* bit-identical
        merging).  Must be ≥ 1 when set.  Sweep kind only.
    warm_start:
        Warm-start MNA assembly from the topology-keyed plan cache
        (:mod:`repro.perf.plan_store`): bank-compaction grouping and the
        sparse solver's symbolic setup are adopted from a persisted
        :class:`~repro.perf.plan.AssemblyPlan` keyed by
        :meth:`SimulationSpec.topology_hash`, validated against the live
        system before use (mismatch falls back to cold setup, so results
        are always bit-identical to a cold run).  ``None`` (default)
        follows the ``REPRO_PLAN_CACHE`` environment toggle (off unless
        set).  SPICE-class kinds only; ignored by the field engines.
    """

    dt: Optional[float] = None
    fast: Optional[bool] = None
    n_cells: int = 100
    variant: str = "rbf"
    sweep_family: str = "rbf"
    sparse_mna: bool = False
    batch_prepare: bool = False
    max_retries: int = 0
    on_nonconvergence: str = "raise"
    workers: Optional[int] = None
    shards: Optional[int] = None
    warm_start: Optional[bool] = None

    _where = "engine"

    def _validate(self):
        if self.dt is not None and self.dt <= 0:
            raise ValueError("engine.dt must be positive (or null)")
        if self.n_cells < 4:
            raise ValueError("engine.n_cells must be at least 4")
        if self.variant not in ("rbf", "transistor"):
            raise ValueError(
                f"engine.variant must be 'rbf' or 'transistor', got {self.variant!r}"
            )
        if self.sweep_family not in ("linear", "rbf"):
            raise ValueError(
                f"engine.sweep_family must be 'linear' or 'rbf', got {self.sweep_family!r}"
            )
        if self.max_retries < 0:
            raise ValueError("engine.max_retries must be non-negative")
        if self.on_nonconvergence not in ("raise", "warn", "ignore"):
            raise ValueError(
                f"engine.on_nonconvergence must be 'raise', 'warn' or 'ignore', "
                f"got {self.on_nonconvergence!r}"
            )
        for name in ("workers", "shards"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"engine.{name} must be at least 1 (or null), got {value}")


# ---------------------------------------------------------------------------
# the spec itself
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SimulationSpec(_Block):
    """A complete, serialisable description of one simulation job.

    A spec is *data*: frozen, strictly validated at construction, exact
    under the JSON round-trip (``spec_from_dict(spec.to_dict()) == spec``)
    and stably hashed by :meth:`content_hash` — which is how the service
    daemon (:mod:`repro.service`) deduplicates identical jobs across
    clients and restarts.  ``docs/job-spec.md`` documents every block and
    field; ``examples/jobs/`` holds runnable fixtures for all four kinds.

    Attributes
    ----------
    kind:
        Engine kind: ``"circuit"``, ``"fdtd1d"``, ``"fdtd3d"`` or
        ``"sweep"`` (see :func:`repro.api.engines.list_engines`).
    duration:
        Simulated time span (seconds).
    stimulus, devices, link, structure, engine:
        The spec blocks (see their classes).  ``structure`` matters only
        for ``fdtd3d``; ``scenarios`` only (and mandatorily) for
        ``sweep``.
    scenarios:
        The scenario batch of a sweep job.
    stats:
        Monte Carlo statistical-exploration block (``sweep`` kind only):
        the scenario batch is *generated* — sampled deterministically
        from the declared parameter distributions — instead of being
        written out.  Mutually exclusive with ``scenarios``.  Part of
        :meth:`content_hash` (a different seed or sample count is a
        different job) but not of :meth:`topology_hash` (sampling never
        moves an MNA stamp).
    label:
        Free-form human label (part of the content hash).
    """

    kind: str
    label: str = ""
    duration: float = 5e-9
    stimulus: StimulusSpec = dataclasses.field(default_factory=StimulusSpec)
    devices: DeviceSpec = dataclasses.field(default_factory=DeviceSpec)
    link: LinkSpec = dataclasses.field(default_factory=LinkSpec)
    structure: StructureSpec = dataclasses.field(default_factory=StructureSpec)
    scenarios: Tuple[ScenarioSpec, ...] = ()
    engine: EngineOptions = dataclasses.field(default_factory=EngineOptions)
    # absent from to_dict when unset, so the content hashes (and cached
    # results) of non-statistical jobs do not depend on the Monte Carlo layer
    stats: Optional[StatsSpec] = dataclasses.field(default=None, metadata=_OMIT_UNSET)

    _header = {"format_version": FORMAT_VERSION}

    def _validate(self):
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {ENGINE_KINDS}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.kind == "sweep":
            if self.stats is not None:
                if self.scenarios:
                    raise ValueError(
                        "a stats block generates the scenario batch; scenarios "
                        "must be empty when stats is set"
                    )
                if self.engine.sweep_family == "rbf" \
                        and "drive_strength" in self.stats.distributions:
                    raise ValueError(
                        "rbf sweep stats cannot sample drive_strength (the "
                        "identified driver fixes the drive)"
                    )
            elif not self.scenarios:
                raise ValueError("a sweep spec needs at least one scenario (or a stats block)")
            names = [sc.name for sc in self.scenarios]
            if len(set(names)) != len(names):
                raise ValueError(f"scenario names must be unique, got {names}")
            if self.engine.sweep_family == "rbf":
                bad = [sc.name for sc in self.scenarios if sc.drive_strength != 1.0]
                if bad:
                    raise ValueError(
                        f"rbf sweep scenarios cannot set drive_strength (the identified "
                        f"driver fixes the drive): {bad}"
                    )
            elif self.link.load == "receiver":
                raise ValueError(
                    "the linear sweep family has no receiver macromodel; use "
                    "link.load='rc' or engine.sweep_family='rbf'"
                )
        elif self.scenarios:
            raise ValueError(f"scenarios are only valid for kind='sweep', not {self.kind!r}")
        elif self.stats is not None:
            raise ValueError(f"a stats block is only valid for kind='sweep', not {self.kind!r}")
        if self.kind == "circuit" and self.engine.variant == "transistor" \
                and self.devices.source == "inline":
            raise ValueError("the transistor-level variant does not use inline macromodels")

    # -- serialisation -----------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON document (what a job file contains)."""
        return json.dumps(self.to_dict(), indent=indent)

    def content_hash(self) -> str:
        """Stable SHA-256 of the canonical JSON encoding.

        Equal for equal specs regardless of process, machine or the key
        order of the dictionaries they were built from — the cache key of
        a job's results.  The service's content-addressed store
        (:class:`repro.service.store.ResultStore`) is keyed by it, so two
        submissions of the same spec perform exactly one solve.  Note
        that ``label`` is part of the spec and therefore of the hash:
        relabelling a job creates a new cache entry.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    #: engine options that never change the assembled MNA topology —
    #: stimulus-shaping, scheduling and policy knobs excluded from
    #: :meth:`topology_hash` so a sharded worker fleet (``workers`` pinned
    #: to 1 in sub-specs), reruns at a different ``dt`` and retry-policy
    #: variants of the same system all share one assembly plan.
    _TOPOLOGY_NEUTRAL_ENGINE_KEYS = (
        "dt", "fast", "batch_prepare", "max_retries", "on_nonconvergence",
        "workers", "shards", "warm_start",
    )

    def topology_hash(self) -> str:
        """Stable SHA-256 of the *topology-defining* spec blocks only.

        Sibling of :meth:`content_hash`, but stimulus-invariant: scenarios
        only vary the right-hand side (corners, drive strengths and bit
        patterns never move an MNA stamp), so the hash covers the
        ``devices``/``link``/``structure`` blocks plus the engine options
        that select the assembled system (variant, sweep family, sparse
        backend) — excluding ``stimulus``, ``scenarios``, ``stats``
        (sampled dimensions are stimulus/corner values, never new
        stamps), ``label``, ``duration`` and the scheduling/policy knobs
        listed in ``_TOPOLOGY_NEUTRAL_ENGINE_KEYS``.  It keys the cross-job
        :class:`~repro.perf.plan_store.PlanStore`: every worker of a
        sharded sweep, every Monte Carlo variation and every
        near-duplicate service job of the same system resolves to the
        same :class:`~repro.perf.plan.AssemblyPlan`.  A collision is
        harmless (plans are re-validated against the live system before
        adoption); a miss only costs one cold setup.
        """
        engine = self.engine.to_dict()
        for key in self._TOPOLOGY_NEUTRAL_ENGINE_KEYS:
            engine.pop(key, None)
        doc = {
            "topology_version": FORMAT_VERSION,
            "devices": self.devices.to_dict(),
            "link": self.link.to_dict(),
            "structure": self.structure.to_dict(),
            "engine": engine,
        }
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def save(self, path: str) -> None:
        """Write the spec as a JSON job file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    # -- derived -----------------------------------------------------------
    def resolved_dt(self) -> float:
        """The time step the engine will actually use (best effort for FDTD)."""
        if self.kind == "fdtd1d":
            return self.link.delay / self.engine.n_cells
        if self.kind == "fdtd3d":
            from repro.fdtd.courant import courant_time_step
            from repro.structures.validation_line import ValidationLineStructure

            return courant_time_step(
                ValidationLineStructure.scaled(self.structure.scale).mesh_size
            )
        return self.engine.dt if self.engine.dt is not None else DEFAULT_DT

    def quickened(self) -> "SimulationSpec":
        """A cheap smoke-run variant of this spec (the CLI's ``--quick``).

        Caps the simulated span at two bit times (at least 50 steps) and
        shrinks a 3-D structure to the smallest supported scale.  Meant
        for CI smoke tests — the waveforms are shorter, not different.
        """
        duration = min(self.duration, max(2.0 * self.stimulus.bit_time,
                                          50.0 * self.resolved_dt()))
        changes: dict = {"duration": duration}
        if self.kind == "fdtd3d" and self.structure.scale > 0.125:
            changes["structure"] = dataclasses.replace(self.structure, scale=0.125)
        if self.stats is not None:
            # A Monte Carlo smoke keeps the generator but caps the batch.
            changes["stats"] = dataclasses.replace(
                self.stats,
                samples=min(self.stats.samples, 8),
                refine_rounds=min(self.stats.refine_rounds, 1),
                refine_samples=min(self.stats.refine_samples, 4),
            )
        return dataclasses.replace(self, **changes)


def spec_from_dict(data: Any) -> SimulationSpec:
    """Rebuild a :class:`SimulationSpec` from its ``to_dict`` form (strict)."""
    return SimulationSpec.from_dict(data)


def load_spec(path: str) -> SimulationSpec:
    """Read and validate a JSON job file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return spec_from_dict(data)

"""Run configuration: defaults, INI-style parsing and provenance echo.

The config file is a plain-text key-value format with sections ([run],
[trajectory], [noise], [init], and one [sensor.<id>] section per direction
sensor).  Every run writes back a fully resolved copy (:func:`config_text`)
next to its outputs so results stay reproducible.  This module imports no
other module of the package.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


FILTER_CHOICES = ("eqf", "iekf", "both")
RESIDUAL_CHOICES = ("subtract",)     # the filter's one output residual and one
MD_CHOICES = ("analytic",)           # discrete process noise (see eqf._check_modes)
SENSOR_KINDS = ("fixed", "gnss")


@dataclass
class SensorConfig:
    """One direction sensor of the simulated platform.

    kind "fixed": body-frame measurement of a fixed known inertial direction
    (magnetometer-like), with noise sigma_y.  kind "gnss": inertial direction
    of a known body-frame baseline, reconstructed from two noisy receiver
    positions and delivered as a time-varying reference alongside each
    measurement; its noise follows from pos_std and baseline, and sigma_y is
    not used (see filter_sigma_y).
    """

    sensor_id: str
    kind: str = "fixed"
    calibrated: bool = False
    sigma_y: float = 0.1
    rate: float = 100.0
    dropout: float = 0.0
    jitter: float = 0.0
    reference: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    body_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    baseline: float = 1.0
    pos_std: float = 0.1

    @property
    def filter_sigma_y(self) -> float:
        """The per-axis direction noise the filters assume: sigma_y for a fixed
        sensor; for a gnss sensor, the angle that two receivers with position
        noise pos_std per axis subtend across the baseline,
        sqrt(2) pos_std / baseline."""
        if self.kind == "gnss":
            return math.sqrt(2.0) * self.pos_std / self.baseline
        return self.sigma_y


@dataclass
class RunConfig:
    """Everything needed to reproduce a simulation + filtering run."""

    seed: int = 0
    duration: float = 70.0
    filter: str = "both"
    residual_mode: str = "subtract"
    md_mode: str = "analytic"

    gyro_rate: float = 200.0
    traj_rate: float = 200.0
    amp_min: float = 0.2
    amp_max: float = 0.8
    freq_min: float = 0.1
    freq_max: float = 0.5

    sigma_w: float = 8.73e-4
    sigma_bw: float = 1.75e-5
    sigma_kappa: float = 1e-4

    att_err_deg: float = 10.0
    cal_err_deg: float = 20.0
    bias_init_std: float = 0.02
    sigma0_att_deg: float = 20.0
    sigma0_bias: float = 0.05
    sigma0_cal_deg: float = 30.0

    sensors: list[SensorConfig] = field(default_factory=list)

    @property
    def n_cal(self) -> int:
        return sum(1 for s in self.sensors if s.calibrated)


def default_config(seed: int = 0) -> RunConfig:
    """Two-sensor scenario: calibrated magnetometer-like sensor at 100 Hz and
    an uncalibrated dual-receiver baseline direction at 20 Hz."""
    mag = SensorConfig(
        sensor_id="mag", kind="fixed", calibrated=True, sigma_y=0.2, rate=100.0,
        reference=np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0),
    )
    gnss = SensorConfig(
        sensor_id="gnss", kind="gnss", calibrated=False, rate=20.0,
        body_axis=np.array([0.0, 1.0, 0.0]), baseline=1.0, pos_std=0.1,
    )
    return validate_config(RunConfig(seed=seed, sensors=[mag, gnss]))


def validate_config(cfg: RunConfig) -> RunConfig:
    tables = [(section, schema, cfg) for section, schema in _SECTIONS.items()]
    tables += [(f"sensor.{s.sensor_id}", _SENSOR_KEYS, s) for s in cfg.sensors]
    for section, schema, target in tables:
        for key, (attr, kind) in schema.items():
            value = getattr(target, attr)
            if kind in (float, np.ndarray) and not np.all(np.isfinite(value)):
                raise ConfigError(f"[{section}] {key} must be finite")
            if attr in _SQUARED and math.isinf(float(value) * float(value)):
                raise ConfigError(f"[{section}] {key} = {value!r} is too large: "
                                  f"its square overflows")
    if cfg.filter not in FILTER_CHOICES:
        raise ConfigError(f"[run] filter must be one of {FILTER_CHOICES}, got {cfg.filter!r}")
    if cfg.residual_mode not in RESIDUAL_CHOICES:
        raise ConfigError(f"[run] residual_mode must be one of {RESIDUAL_CHOICES}")
    if cfg.md_mode not in MD_CHOICES:
        raise ConfigError(f"[run] md_mode must be one of {MD_CHOICES}")
    if cfg.seed < 0:
        raise ConfigError("[run] seed must be non-negative")
    if cfg.duration <= 0.0:
        raise ConfigError("[run] duration must be positive")
    if cfg.gyro_rate <= 0.0 or cfg.traj_rate <= 0.0:
        raise ConfigError("rates must be positive")
    if not _divides(cfg.traj_rate, cfg.gyro_rate):
        raise ConfigError("[trajectory] rate must be an integer multiple of the gyro rate")
    if not cfg.sensors:
        raise ConfigError("at least one [sensor.<id>] section is required")
    seen: set[str] = set()
    calibrated_done = False
    for s in cfg.sensors:
        if s.sensor_id in seen:
            raise ConfigError(f"duplicate sensor id {s.sensor_id!r}")
        seen.add(s.sensor_id)
        if s.kind not in SENSOR_KINDS:
            raise ConfigError(f"[sensor.{s.sensor_id}] kind must be one of {SENSOR_KINDS}")
        if not s.calibrated:
            calibrated_done = True
        elif calibrated_done:
            raise ConfigError("calibrated sensors must be listed before uncalibrated ones")
        if s.rate <= 0.0 or not _divides(cfg.traj_rate, s.rate):
            raise ConfigError(
                f"[sensor.{s.sensor_id}] rate must positively divide the trajectory rate")
        if not 0.0 <= s.dropout <= 1.0:
            raise ConfigError(f"[sensor.{s.sensor_id}] dropout must lie in [0, 1]")
        if s.jitter < 0.0:
            raise ConfigError(f"[sensor.{s.sensor_id}] jitter must be non-negative")
        if s.sigma_y < 0.0:
            raise ConfigError(f"[sensor.{s.sensor_id}] sigma_y must be non-negative")
        norm = float(np.linalg.norm(s.reference))
        if s.kind == "fixed":
            if norm < 1e-9:
                raise ConfigError(f"[sensor.{s.sensor_id}] reference must be nonzero")
            if abs(norm - 1.0) > 1e-12:   # keep echoed configs bit-stable
                s.reference = s.reference / norm
        else:
            bnorm = float(np.linalg.norm(s.body_axis))
            if bnorm < 1e-9:
                raise ConfigError(f"[sensor.{s.sensor_id}] body_axis must be nonzero")
            if abs(bnorm - 1.0) > 1e-12:
                s.body_axis = s.body_axis / bnorm
            if s.baseline <= 0.0:
                raise ConfigError(f"[sensor.{s.sensor_id}] baseline must be positive")
            if s.pos_std < 0.0:
                raise ConfigError(f"[sensor.{s.sensor_id}] pos_std must be non-negative")
            sigma_y = s.filter_sigma_y
            if math.isinf(sigma_y * sigma_y):
                raise ConfigError(
                    f"[sensor.{s.sensor_id}] pos_std = {s.pos_std!r} over baseline = "
                    f"{s.baseline!r} gives sigma_y = {sigma_y!r} (sqrt(2) pos_std / "
                    f"baseline), too large: its square overflows")
    if min(cfg.sigma_w, cfg.sigma_bw, cfg.sigma_kappa) < 0.0:
        raise ConfigError("[noise] densities must be non-negative")
    return cfg


def _divides(high: float, low: float) -> bool:
    ratio = high / low
    return abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1


# The config schema, written once: section -> key -> (attribute, type).  It
# drives the key check, the parsing and the echo; the echo keeps this order.
_SECTIONS = {
    "run": {"seed": ("seed", int), "duration": ("duration", float),
            "filter": ("filter", str), "residual_mode": ("residual_mode", str),
            "md_mode": ("md_mode", str), "gyro_rate": ("gyro_rate", float)},
    "trajectory": {"rate": ("traj_rate", float), "amp_min": ("amp_min", float),
                   "amp_max": ("amp_max", float), "freq_min": ("freq_min", float),
                   "freq_max": ("freq_max", float)},
    "noise": {"sigma_w": ("sigma_w", float), "sigma_bw": ("sigma_bw", float),
              "sigma_kappa": ("sigma_kappa", float)},
    "init": {"att_err_deg": ("att_err_deg", float), "cal_err_deg": ("cal_err_deg", float),
             "bias_init_std": ("bias_init_std", float),
             "sigma0_att_deg": ("sigma0_att_deg", float),
             "sigma0_bias": ("sigma0_bias", float),
             "sigma0_cal_deg": ("sigma0_cal_deg", float)},
}
_SENSOR_KEYS = {
    "kind": ("kind", str), "calibrated": ("calibrated", bool),
    "sigma_y": ("sigma_y", float), "rate": ("rate", float),
    "dropout": ("dropout", float), "jitter": ("jitter", float),
    "reference": ("reference", np.ndarray), "body_axis": ("body_axis", np.ndarray),
    "baseline": ("baseline", float), "pos_std": ("pos_std", float),
}
# Attributes that a filter squares into a variance: a finite value whose square
# overflows is rejected as well.
_SQUARED = {"sigma_w", "sigma_bw", "sigma_kappa", "sigma0_att_deg", "sigma0_bias",
            "sigma0_cal_deg", "sigma_y"}
# Keys that only one sensor kind uses; the echo leaves out the other kind's.
# The other kind's keys still parse and are validated, but nothing reads them.
_KIND_ONLY = {"sigma_y": "fixed", "reference": "fixed", "body_axis": "gnss",
              "baseline": "gnss", "pos_std": "gnss"}


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file, filling every unset key with its default."""
    parser = configparser.ConfigParser()
    cfg = RunConfig()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        _apply_sections(parser, cfg)
    except ConfigError:
        raise
    except (ValueError, configparser.Error) as exc:
        # configparser's messages span lines; the CLI prints one
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
    return validate_config(cfg)


def _apply_sections(parser: configparser.ConfigParser, cfg: RunConfig) -> None:
    for section in parser.sections():
        items = parser[section]
        if section in _SECTIONS:
            target, schema = cfg, _SECTIONS[section]
        elif section.startswith("sensor."):
            target, schema = SensorConfig(sensor_id=section.split(".", 1)[1]), _SENSOR_KEYS
            cfg.sensors.append(target)
        else:
            raise ConfigError(f"unknown config section [{section}]")
        for key in items:
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        for key, (attr, kind) in schema.items():
            if key in items:
                setattr(target, attr, _parse_value(section, items, key, kind))


def _parse_value(section: str, items: configparser.SectionProxy, key: str, kind: type):
    if kind is not np.ndarray:
        getters = {bool: items.getboolean, int: items.getint, float: items.getfloat}
        return getters.get(kind, items.get)(key)
    raw = items[key]
    parts = raw.replace(",", " ").split()
    if len(parts) != 3:
        raise ConfigError(f"[{section}] {key} needs three components, got {raw!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _format_value(value, kind: type) -> str:
    if kind is np.ndarray:
        return " ".join(f"{x:.17g}" for x in value)
    if kind is bool:
        return str(value).lower()
    return repr(value) if kind is float else str(value)


def config_text(cfg: RunConfig) -> str:
    """The fully resolved configuration (all defaults expanded) as INI text."""
    parser = configparser.ConfigParser()
    for section, schema in _SECTIONS.items():
        parser[section] = {key: _format_value(getattr(cfg, attr), kind)
                           for key, (attr, kind) in schema.items()}
    for s in cfg.sensors:
        parser[f"sensor.{s.sensor_id}"] = {
            key: _format_value(getattr(s, attr), kind)
            for key, (attr, kind) in _SENSOR_KEYS.items()
            if _KIND_ONLY.get(key, s.kind) == s.kind}
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    return replace(cfg, seed=seed)

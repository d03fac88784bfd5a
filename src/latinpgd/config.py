"""Sectioned key=value run configuration with named scenario presets.

The grammar is deliberately small.  A config file is plain text; ``#``
starts a comment anywhere on a line; blank lines are ignored; ``[name]``
opens a section and ``key = value`` lines fill it:

    [mesh]
    d1 = 8.0        # beam length (m)
    nx = 16         # elements along the length

    [load]
    amplitudes  = 0.0138          # metres, one entry per sine component
    frequencies = 3.0             # Hz, matching list
    T = 2.0                       # time horizon (s)

Sections and keys are a closed set: anything unknown raises immediately
with the offending line number, so typos cannot silently fall back to a
default.  Values are typed per key (float, int, boolean ``on``/``off``,
string, or a comma-separated float list).

A preset is a complete, runnable configuration; a config file may either
stand alone (every mandatory section present) or overlay a preset,
overriding only the keys it names.  `canonical` serializes a configuration
in a fixed order so that runs can be identified by a stable hash.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .material import MaterialParams, reference_concrete
from .mesh import generate_box_mesh
from .newmark import LoadCase
from .timegrid import TimeGrid


@dataclass(frozen=True)
class MeshConfig:
    """Box dimensions (m) and element counts of the hexahedral grid."""

    d1: float
    d2: float
    d3: float
    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for name in ("d1", "d2", "d3"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be positive, got %g" % (name, getattr(self, name)))
        for name in ("nx", "ny", "nz"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %d" % (name, getattr(self, name)))

    def build(self):
        return generate_box_mesh(self.d1, self.d2, self.d3, self.nx, self.ny, self.nz)


@dataclass(frozen=True)
class LoadConfig:
    """Support-motion sine components and the time horizon."""

    amplitudes: tuple
    frequencies: tuple
    T: float

    def __post_init__(self):
        if len(self.amplitudes) != len(self.frequencies) or not self.amplitudes:
            raise ValueError("amplitudes and frequencies must be non-empty matching lists")
        if self.T <= 0.0:
            raise ValueError("time horizon T must be positive, got %g" % self.T)

    def build(self):
        return LoadCase(np.array(self.amplitudes), np.array(self.frequencies))


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and iteration controls shared by the two solvers.

    This class is the one home of the solver defaults: `latin.run_latin`
    takes every control as a keyword without a default, and the CLI passes
    them from here.

    N_T is the number of temporal finite elements of the weak time solver;
    the incremental reference marches the same horizon on the grid's step
    nodes (`TimeGrid.step_times`, two steps per element) so both
    discretizations resolve the time axis comparably.
    """

    N_T: int
    xi_stop: float          # LATIN indicator threshold, as a fraction
    zeta_stop: float        # enrichment fixed-point stagnation threshold
    omega: float = 0.4      # relaxation of each new mode
    max_modes: int = 150
    seed: int = 0
    damping: bool = True
    newmark_tol: float = 1e-4

    def __post_init__(self):
        if self.N_T < 1:
            raise ValueError("N_T must be at least 1, got %d" % self.N_T)
        for name in ("xi_stop", "zeta_stop", "newmark_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be positive, got %g" % (name, getattr(self, name)))
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("omega must lie in (0, 1], got %g" % self.omega)
        if self.max_modes < 1:
            raise ValueError("max_modes must be at least 1, got %d" % self.max_modes)

    def build_grid(self, T):
        return TimeGrid(T, self.N_T)

    def newmark_times(self, T):
        return self.build_grid(T).step_times


@dataclass(frozen=True)
class OutputConfig:
    """Where and what to write."""

    directory: str = "out"
    vtk: bool = False
    snapshots: tuple = ()


@dataclass(frozen=True)
class RunConfig:
    """One fully specified run: mesh, material, load, solver, output."""

    mesh: MeshConfig
    material: MaterialParams
    load: LoadConfig
    solver: SolverConfig
    output: OutputConfig


# Section -> the RunConfig part it builds, in canonical order.
_SECTION_CLASSES = {"mesh": MeshConfig, "material": MaterialParams,
                    "load": LoadConfig, "solver": SolverConfig,
                    "output": OutputConfig}

_MANDATORY_SECTIONS = ("mesh", "material", "load", "solver")


# Value readers by field annotation; they document the value grammar.

def _read_float(text):
    return float(text)


def _read_int(text):
    value = float(text)
    if value != int(value):
        raise ValueError("expected an integer, got %r" % text)
    return int(value)


def _read_bool(text):
    lowered = text.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError("expected on/off, got %r" % text)


def _read_str(text):
    return text.strip()


def _read_float_list(text):
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(piece) for piece in items)


def _read_optional_float_list(text):
    """Like `_read_float_list`, but an empty value is the empty tuple."""
    return _read_float_list(text) if text.strip() else ()


_READERS = {float: _read_float, int: _read_int, bool: _read_bool, str: _read_str}


def _reader(field):
    """Reader of a section field: by its annotation, a tuple as a float list.

    A list may be empty exactly when its default is the empty tuple.
    """
    if field.type is tuple:
        return _read_optional_float_list if field.default == () else _read_float_list
    return _READERS[field.type]


# Typed key registry: section -> key -> reader, in field order, which is
# also the canonical order.
_SCHEMA = {name: {field.name: _reader(field) for field in fields(cls)}
           for name, cls in _SECTION_CLASSES.items()}


def read_sections(path):
    """Parse a config file into {section: {key: typed value}}.

    Raises ValueError with ``path:line:`` context on any malformed line,
    unknown section, unknown key, duplicate key, or unreadable value.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    sections = {}
    current = None
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = "%s:%d" % (path, number)
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ValueError("%s: unknown section [%s]" % (where, current))
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ValueError("%s: expected 'key = value' or '[section]', got %r"
                             % (where, line))
        if current is None:
            raise ValueError("%s: key outside of any [section]" % where)
        key, _, value = line.partition("=")
        key = key.strip()
        schema = _SCHEMA[current]
        if key not in schema:
            raise ValueError("%s: unknown key %r in [%s]" % (where, key, current))
        if key in sections[current]:
            raise ValueError("%s: duplicate key %r in [%s]" % (where, key, current))
        try:
            sections[current][key] = schema[key](value.strip())
        except ValueError as exc:
            raise ValueError("%s: bad value for %s: %s" % (where, key, exc)) from None
    return sections


def _build(sections):
    missing = [name for name in _MANDATORY_SECTIONS if name not in sections]
    if missing:
        raise ValueError("config is missing mandatory sections: %s"
                         % ", ".join("[%s]" % name for name in missing))
    parts = {}
    for name, cls in _SECTION_CLASSES.items():
        try:
            parts[name] = cls(**sections.get(name, {}))
        except TypeError as exc:
            raise ValueError("section [%s] is incomplete: %s" % (name, exc)) from None
    return RunConfig(**parts)


def _section_fields(config, name):
    part = getattr(config, name)
    return {key: getattr(part, key) for key in _SCHEMA[name]}


def _overlay(config, sections):
    for name, body in sections.items():
        merged = _section_fields(config, name)
        merged.update(body)
        config = replace(config, **{name: _SECTION_CLASSES[name](**merged)})
    return config


def parse_config(path, base=None):
    """Read a config file; with `base`, overlay it on that configuration.

    Without a base the file must define every mandatory section; with one,
    any subset of sections/keys overrides the base values.
    """
    sections = read_sections(path)
    if base is None:
        return _build(sections)
    return _overlay(base, sections)


def canonical(config):
    """Deterministic text form of a configuration, for hashing and provenance."""
    lines = []
    for name in _SECTION_CLASSES:
        lines.append("[%s]" % name)
        for key, value in _section_fields(config, name).items():
            if isinstance(value, tuple):
                rendered = ", ".join("%.17g" % item for item in value)
            elif isinstance(value, bool):
                rendered = "on" if value else "off"
            elif isinstance(value, float):
                rendered = "%.17g" % value
            else:
                rendered = str(value)
            lines.append("%s = %s" % (key, rendered))
        lines.append("")
    return "\n".join(lines)


# Scenario presets.  The beam geometry, Table-like material constants and
# forcing frequencies follow the bending-beam studies; the amplitudes are
# calibrated (swept so the incremental reference peaks near max damage 0.42
# at the monitored point on the preset mesh) because the source experiments
# report signal shapes without magnitudes.

_BEAM = dict(d1=8.0, d2=0.3, d3=0.3)

# Amplitude of the elastic preset sits below the damage-activation strain
# (8.44e-5 in the weakest direction), so the response stays linear.
ELASTIC_AMPLITUDE = 7.0e-5

# Calibrated mono-sine amplitude: see the calibrate subcommand.
MONO_SINE_AMPLITUDE = 0.0138
MONO_SINE_MESH = dict(nx=16, ny=2, nz=2)
MONO_SINE_NT = 400

# Calibrated multi-sine amplitude, equal across the four components.
MULTI_SINE_AMPLITUDE = 0.0060


def preset(name):
    """Return the named scenario preset as a complete RunConfig."""
    if name == "elastic":
        return RunConfig(
            MeshConfig(nx=16, ny=2, nz=2, **_BEAM),
            reference_concrete(),
            LoadConfig((ELASTIC_AMPLITUDE,), (3.0,), 2.0),
            SolverConfig(N_T=100, xi_stop=5e-4, zeta_stop=1e-3),
            OutputConfig())
    if name == "mono_sine":
        return RunConfig(
            MeshConfig(**MONO_SINE_MESH, **_BEAM),
            reference_concrete(),
            LoadConfig((MONO_SINE_AMPLITUDE,), (3.0,), 2.0),
            SolverConfig(N_T=MONO_SINE_NT, xi_stop=5e-4, zeta_stop=1e-3),
            OutputConfig())
    if name == "multi_sine":
        return RunConfig(
            MeshConfig(**MONO_SINE_MESH, **_BEAM),
            reference_concrete(),
            LoadConfig((MULTI_SINE_AMPLITUDE,) * 4, (1.0, 2.3, 3.6, 5.0), 2.0),
            SolverConfig(N_T=MONO_SINE_NT, xi_stop=4e-3, zeta_stop=1e-3),
            OutputConfig())
    raise ValueError("unknown preset %r; available: elastic, mono_sine, multi_sine"
                     % name)

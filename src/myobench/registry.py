"""Named feature descriptors shared by the benchmark, pipeline, and CLI.

A descriptor is a feature name plus concrete parameters. ``extract``
evaluates a list of descriptors on a window or a (windows, samples) matrix
and returns one row per window: one column per scalar feature, one per
bin/coefficient/segment-difference for vector features. For
percentage-error benchmarking a vector feature is reduced to one scalar, by
default the component the robustness study singles out: histogram bin 2 (of
the 3-bin histogram) and AR coefficient a_1. Components are numbered from 1.

Descriptor strings use ``name:key=value:key=value``, e.g. ``wamp:threshold=20``
or ``ar:order=2``; feature lists are comma separated.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import freq_features as ff
from . import time_features as tf
from .signals import amplitude_spectrum

# name -> default params; ints where the feature needs counts/orders
_FAMILIES: dict[str, dict] = {
    "iemg": {},
    "mav": {},
    "mmav1": {},
    "mmav2": {},
    "mavslp": {"segments": tf.DEFAULT_MAVSLP_SEGMENTS},
    "ssi": {},
    "var": {},
    "rms": {},
    "wl": {},
    "zc": {"threshold": tf.DEFAULT_ZC_THRESHOLD},
    "ssc": {"threshold": tf.DEFAULT_SSC_THRESHOLD},
    "wamp": {"threshold": tf.DEFAULT_WAMP_THRESHOLD},
    "hemg": {"bins": tf.DEFAULT_HEMG_BINS, "limit": None},
    "ar": {"order": 1},
    "mnf": {"dc": 1},
    "mdf": {"dc": 1},
    "mmnf": {"dc": 1},
    "mmdf": {"dc": 1},
}


class _Intermediates:
    """The rows of one `extract` call and what several kernels share.

    Each shared array is computed on first use and then reused.
    """

    def __init__(self, rows, rate: float):
        self.rows, self.rate = rows, rate

    @functools.cached_property
    def diff(self):
        return tf._diff(tf._window(self.rows, min_len=2))

    @functools.cached_property
    def abs_diff(self):
        return np.abs(self.diff)

    @functools.cached_property
    def spectrum(self):
        return amplitude_spectrum(self.rows, self.rate)

    @functools.cached_property
    def powers(self):
        return self.spectrum.amplitudes ** 2


def _on_rows(kernel):
    return lambda shared, **params: kernel(shared.rows, **params)


def _ssc(shared, threshold):
    tf._window(shared.rows, min_len=3)
    return tf._ssc(shared.diff, threshold)


def _moment(moment, by_power: bool):
    def kernel(shared, dc):
        weights = shared.powers if by_power else shared.spectrum.amplitudes
        return moment(shared.spectrum.freqs, weights, bool(dc))
    return kernel


# name -> kernel over an _Intermediates, called with the descriptor's
# parameters as keywords; it gives one result per row
_KERNELS = {name: _on_rows(getattr(tf, name)) for name in (
    "iemg", "mav", "mmav1", "mmav2", "mavslp", "ssi", "var", "rms", "hemg")}
_KERNELS.update(
    wl=lambda shared: tf._wl(shared.abs_diff),
    zc=lambda shared, threshold: tf._zc(shared.rows, shared.abs_diff, threshold),
    ssc=_ssc,
    wamp=lambda shared, threshold: tf._wamp(shared.abs_diff, threshold),
    ar=lambda shared, order: ff.levinson_durbin(shared.rows, order)[0],
    mnf=_moment(ff._centroid, by_power=True),
    mdf=_moment(ff._median_bin, by_power=True),
    mmnf=_moment(ff._centroid, by_power=False),
    mmdf=_moment(ff._median_bin, by_power=False),
)

_INT_PARAMS = {"segments", "bins", "order", "dc"}
_DEFAULT_SCALAR_COMPONENT = {"hemg": 2, "ar": 1, "mavslp": 1}

FEATURE_NAMES = tuple(_FAMILIES)

# Feature-set shorthands used in the recognition experiments.
FEATURE_SETS = {
    "hudgins": "mav,wl,zc,ssc",
    "oskoei": "rms,ar:order=2",
    "robust": "hemg,wamp,mmnf",
}


@dataclass(frozen=True)
class FeatureDescriptor:
    """One named feature with pinned parameters.

    ``scalar_component`` picks the 1-based component used when a single value
    is needed (percentage error).
    """

    name: str
    params: tuple[tuple[str, float], ...] = ()
    scalar_component: int = 1

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def label(self) -> str:
        shown = [(k, v) for k, v in self.params if v != _FAMILIES[self.name].get(k)]
        if not shown:
            return self.name
        return self.name + "(" + ",".join(f"{k}={v:g}" for k, v in shown) + ")"

    @property
    def param_text(self) -> str:
        return ";".join(f"{k}={'auto' if v is None else format(v, 'g')}"
                        for k, v in self.params)

    def needs_resolution(self) -> bool:
        """True while a data-dependent parameter (hemg limit) is still unset."""
        return self.name == "hemg" and self.param_dict.get("limit") is None

    def resolved(self, hemg_limit: float) -> "FeatureDescriptor":
        """Fill the histogram range from the clean data it will describe."""
        if not self.needs_resolution():
            return self
        params = self.param_dict
        params["limit"] = float(hemg_limit)
        return replace(self, params=tuple(sorted(params.items())))

    def component_count(self) -> int:
        p = self.param_dict
        if self.name == "hemg":
            return int(p["bins"])
        if self.name == "ar":
            return int(p["order"])
        if self.name == "mavslp":
            return int(p["segments"]) - 1
        return 1

    def component_names(self) -> list[str]:
        count = self.component_count()
        if count == 1:
            return [self.label]
        return [f"{self.label}[{i + 1}]" for i in range(count)]

    def compute(self, window: np.ndarray, rate: float) -> np.ndarray:
        """Evaluate the feature on one window; always returns a 1-D array."""
        return extract([self], window, rate)[0]

    def scalarize(self, values: np.ndarray):
        """The scalar component of a value vector, or of each row of a matrix."""
        idx = self.scalar_component - 1
        if not 0 <= idx < values.shape[-1]:
            raise ValueError(
                f"{self.label}: scalar component {self.scalar_component} out of "
                f"range for {values.shape[-1]} components"
            )
        return values[..., idx]


def extract(descriptors, windows, rate: float) -> np.ndarray:
    """Evaluate descriptors on a window or a (windows, samples) matrix.

    Returns a (windows, columns) float matrix (one row for a 1-D window).
    Columns follow the descriptor order, a vector feature contributing one
    column per component. Intermediates are computed once per call and
    shared: the sample differences by wl, zc, ssc and wamp, the spectrum and
    its square by the spectral moments.
    """
    x = np.asarray(windows, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("need a 1-D window or a (windows, samples) matrix")
    rows = x[np.newaxis] if x.ndim == 1 else x
    shared = _Intermediates(rows, rate)
    columns = []
    for desc in descriptors:
        if desc.needs_resolution():
            raise ValueError("hemg descriptor used before its range was resolved")
        value = _KERNELS[desc.name](shared, **desc.param_dict)
        columns.append(np.asarray(value, dtype=float).reshape(rows.shape[0], -1))
    return np.hstack(columns)


def make_descriptor(name: str, params: dict | None = None) -> FeatureDescriptor:
    """Build a descriptor from a family name and parameter overrides."""
    if name not in _FAMILIES:
        raise ValueError(
            f"unknown feature {name!r}; valid names: {', '.join(FEATURE_NAMES)}"
        )
    merged = dict(_FAMILIES[name])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"feature {name!r} has no parameter {key!r}")
        merged[key] = int(value) if key in _INT_PARAMS else float(value)
    return FeatureDescriptor(
        name=name,
        params=tuple(sorted(merged.items(), key=lambda kv: kv[0])),
        scalar_component=_DEFAULT_SCALAR_COMPONENT.get(name, 1),
    )


def parse_feature(token: str) -> FeatureDescriptor:
    """Parse one ``name[:key=value...]`` token."""
    parts = token.strip().split(":")
    name = parts[0].strip().lower()
    params = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"malformed feature parameter {part!r} in {token!r}")
        key, _, raw = part.partition("=")
        try:
            params[key.strip()] = float(raw)
        except ValueError as exc:
            raise ValueError(f"non-numeric value for {key!r} in {token!r}") from exc
    return make_descriptor(name, params)


def parse_features(text: str) -> list[FeatureDescriptor]:
    """Parse a comma-separated feature list."""
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty feature list")
    return [parse_feature(t) for t in tokens]


def feature_set(name_or_spec: str) -> tuple[str, list[FeatureDescriptor]]:
    """Resolve a set alias (hudgins/oskoei/robust) or ``name=feat+feat`` spec."""
    text = name_or_spec.strip()
    if "=" in text and ":" not in text.split("=")[0]:
        set_name, _, body = text.partition("=")
        return set_name.strip(), parse_features(body.replace("+", ","))
    if text.lower() in FEATURE_SETS:
        return text.lower(), parse_features(FEATURE_SETS[text.lower()])
    raise ValueError(
        f"unknown feature set {text!r}; aliases: {', '.join(FEATURE_SETS)} "
        "(or define one as name=feat+feat)"
    )


def default_panel() -> list[FeatureDescriptor]:
    """The representative robustness panel the benchmark runs by default."""
    return parse_features("rms,zc,wamp,ssc,hemg,ar,mnf,mdf,mmnf,mmdf")


def resolve_hemg_limit(descriptors, signals) -> list[FeatureDescriptor]:
    """Pin unresolved histogram ranges to the peak |amplitude| of clean data.

    ``signals`` is an iterable of 1-D sample arrays (the clean material the
    descriptors will be applied to, e.g. the training split).
    """
    if not any(d.needs_resolution() for d in descriptors):
        return list(descriptors)
    peak = 0.0
    for samples in signals:
        arr = np.asarray(samples, dtype=float)
        if arr.size:
            peak = max(peak, float(np.max(np.abs(arr))))
    if peak <= 0:
        raise ValueError("cannot resolve hemg range: clean data is all zero")
    return [d.resolved(peak) for d in descriptors]

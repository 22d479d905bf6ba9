"""Named feature descriptors shared by the benchmark, pipeline, and CLI.

A descriptor is a feature name plus concrete parameters. Two entry points
evaluate a list of descriptors and return one row per window: one column
per scalar feature, one per bin/coefficient/segment-difference for vector
features. ``extract`` takes a window or a (windows, samples) matrix, each row
one window (the robustness grid's clean and noisy copies). ``extract_segments``
takes one channel signal and a segmentation, and gives exactly what
``extract`` gives on that signal's windows. Both run the same kernels in the
same loop over an ``_Intermediates``, which computes each elementwise
intermediate (|x|, x^2, the differences, the event masks, the HEMG bin
index) once over its source and hands each kernel its windows of it: over a
signal whose windows overlap, every sample is transformed once, not once per
window that holds it.

Equal-length signals can be extracted as one stack. A kernel pass has a
fixed cost (dispatch, small temporaries) that dwarfs its work on one 3 s
channel, so the recognition pipeline stacks short channels into blocks (see
`recognition.extract_window_set`) and extracts each block in one pass.
``extract_segments`` runs the same code on a stack of one signal, and each
row of a stack gets the values it would get alone, bit for bit.

For percentage-error benchmarking a vector feature is reduced to one
scalar, by default the component the robustness study singles out:
histogram bin 2 (of the 3-bin histogram) and AR coefficient a_1. Components
are numbered from 1.

Descriptor strings use ``name:key=value:key=value``, e.g. ``wamp:threshold=20``
or ``ar:order=2``; feature lists are comma separated.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import freq_features as ff
from . import time_features as tf
from .signals import SegmentationConfig, amplitude_spectrum, segment_offsets

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
    """The windows of one extraction and the arrays several kernels share.

    ``source`` is either a (windows, samples) matrix, one window per row
    (``slide`` is None: the windowing is the identity), or a (signals, span)
    stack of equal-length signals that each hold ``count`` windows of
    ``width`` samples every ``slide``; trailing samples that do not fill a
    window are not part of the span. One signal is a stack of one. Every
    elementwise intermediate is computed once over the source: those that
    several families read (|x|, x^2, the differences and their magnitudes)
    on first use, kept until no later descriptor reads them; the event masks
    and the HEMG bin index, which depend on a descriptor's parameters, by
    its kernel. `windows` gives a kernel each window's part of one as a
    (signals, count, width) view, and `counts` counts a mask's events per
    (signal, window), so a sample that several windows hold is transformed
    once. Kernels reduce the last axis, so each window is reduced in the same
    order whether its signal is extracted alone or in a stack.
    """

    def __init__(self, source, width: int, slide: int | None, rate: float):
        self.source, self.width, self.slide, self.rate = source, width, slide, rate
        if slide is None:
            self.count = self.total = source.shape[0]
        else:
            self.count = (source.shape[-1] - width) // slide + 1
            self.total = source.shape[0] * self.count  # windows over every signal
            self.starts = np.arange(self.count) * slide

    def _width_of(self, values):
        # an intermediate k samples shorter than the source (differences: 1)
        # has width - k values per window
        return self.width - (self.source.shape[-1] - values.shape[-1])

    def windows(self, values):
        """Each signal's windows of an intermediate over the source, as a view."""
        if self.slide is None:
            return values
        step = values.strides[-1]
        return as_strided(values, values.shape[:-1] + (self.count, self._width_of(values)),
                          values.strides[:-1] + (self.slide * step, step), writeable=False)

    def counts(self, events):
        """Each window's count of a boolean mask over the source (samples last).

        Over a stack, a window's count is the number of events before its
        end minus the number before its start, both found by binary search in
        the sorted positions of every event, so each sample is read once
        however many windows hold it. The windows' counts replace the
        samples axis.
        """
        if self.slide is None:
            return np.count_nonzero(events, axis=-1)
        n = events.shape[-1]
        starts = np.arange(0, events.size, n)[:, np.newaxis] + self.starts
        positions = np.flatnonzero(events)
        totals = (np.searchsorted(positions, starts + self._width_of(events))
                  - np.searchsorted(positions, starts))
        return totals.reshape(events.shape[:-1] + (self.count,))

    def bin_counts(self, idx, bins: int):
        """Each window's sample count per bin, from every sample's bin index."""
        if self.slide is None:
            return tf._bin_counts(idx, bins)
        return np.swapaxes(self.counts(tf._bin_events(idx, bins)), -1, -2)

    @functools.cached_property
    def rows(self):
        """Every window as a row of a (windows, width) matrix, signal by signal."""
        return self.windows(self.source).reshape(self.total, self.width)

    @functools.cached_property
    def abs(self):
        return np.abs(self.source)

    @functools.cached_property
    def squares(self):
        return self.source * self.source

    @functools.cached_property
    def diff(self):
        return tf._diff(self.source)

    @functools.cached_property
    def abs_diff(self):
        return np.abs(self.diff)

    @functools.cached_property
    def spectrum(self):
        """The (freqs, amplitudes) pair of every window row."""
        return amplitude_spectrum(self.rows, self.rate)

    @functools.cached_property
    def powers(self):
        return self.spectrum[1] ** 2


def _moment(moment, by_power: bool):
    def kernel(shared, dc):
        freqs, amplitudes = shared.spectrum
        return moment(freqs, shared.powers if by_power else amplitudes, dc)
    return kernel


# name -> kernel over an _Intermediates, called with the descriptor's
# parameters as keywords; it gives one result per window. The time-domain
# kernels reduce windows of the shared intermediates; the spectral moments
# and AR read the window rows.
_KERNELS = dict(
    iemg=lambda shared: np.sum(shared.windows(shared.abs), axis=-1),
    mav=lambda shared: np.mean(shared.windows(shared.abs), axis=-1),
    mmav1=lambda shared: tf._mmav1(shared.windows(shared.abs)),
    mmav2=lambda shared: tf._mmav2(shared.windows(shared.abs)),
    mavslp=lambda shared, segments: tf._mavslp(shared.windows(shared.abs), segments),
    ssi=lambda shared: np.sum(shared.windows(shared.squares), axis=-1),
    var=lambda shared: np.sum(shared.windows(shared.squares), axis=-1) / (shared.width - 1),
    rms=lambda shared: np.sqrt(np.mean(shared.windows(shared.squares), axis=-1)),
    wl=lambda shared: np.sum(shared.windows(shared.abs_diff), axis=-1),
    # event counters: zc gates sign changes by |d_n| >= threshold, wamp counts
    # those jumps alone, ssc counts turns whose curvature product clears it
    zc=lambda shared, threshold: shared.counts(
        tf._crossings(shared.source) & (shared.abs_diff >= threshold)),
    ssc=lambda shared, threshold: shared.counts(
        tf._slope_products(shared.diff) <= -threshold),
    wamp=lambda shared, threshold: shared.counts(shared.abs_diff >= threshold),
    hemg=lambda shared, bins, limit: shared.bin_counts(
        tf._hemg_bins(shared.source, bins, limit), int(bins)),
    ar=lambda shared, order: ff.levinson_durbin(shared.rows, order),
    mnf=_moment(ff._centroid, by_power=True),
    mdf=_moment(ff._median_bin, by_power=True),
    mmnf=_moment(ff._centroid, by_power=False),
    mmdf=_moment(ff._median_bin, by_power=False),
)

# family -> the cached intermediates its kernel reads
_READS = (dict.fromkeys(("iemg", "mav", "mmav1", "mmav2", "mavslp"), ("abs",))
          | dict.fromkeys(("ssi", "var", "rms"), ("squares",))
          | dict.fromkeys(("wl", "zc", "wamp"), ("diff", "abs_diff")) | {"ssc": ("diff",)}
          | dict.fromkeys(("mnf", "mdf"), ("spectrum", "powers"))
          | dict.fromkeys(("mmnf", "mmdf"), ("spectrum",)))

_COUNTS = {"segments", "bins", "order"}
_INT_PARAMS = _COUNTS | {"dc"}
# parameter -> (its valid values, as a test and as words). FeatureDescriptor
# checks them when it is built, so every kernel takes its parameters as valid.
_DOMAINS = {
    "segments": (lambda v: v >= 2, "at least 2"),
    "bins": (lambda v: v >= 1, "at least 1"),
    "order": (lambda v: v >= 1, "at least 1"),
    "dc": (lambda v: v in (0, 1), "0 or 1"),
    "threshold": (lambda v: v >= 0, "non-negative"),  # NaN fails too
    "limit": (lambda v: 0 < v < math.inf, "positive and finite"),
}
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
    is needed (percentage error). Every parameter is checked when the
    descriptor is built, however it is built: ``segments``, ``bins`` and
    ``order`` must be whole numbers, at least 2, 1 and 1; ``dc`` 0 or 1;
    ``threshold`` non-negative; ``limit`` positive and finite, or None until
    it is resolved from the data. Any other value is a ValueError naming
    ``name:key=value``; so is a parameter the family lacks, or one it needs
    that is missing.
    """

    name: str
    params: tuple[tuple[str, float], ...] = ()
    scalar_component: int = 1

    def __post_init__(self):
        if self.name not in _FAMILIES:
            raise ValueError(
                f"unknown feature {self.name!r}; valid names: {', '.join(FEATURE_NAMES)}"
            )
        for key, value in self.params:
            if key not in _FAMILIES[self.name]:
                raise ValueError(f"feature {self.name!r} has no parameter {key!r}")
            if value is None and key == "limit":  # hemg's range, resolved later
                continue
            where = f"{self.name}:{key}={value:g}: {key} must be"
            if key in _COUNTS and not float(value).is_integer():  # also rejects inf and nan
                raise ValueError(f"{where} a whole number")
            valid, must_be = _DOMAINS[key]
            if not valid(value):
                raise ValueError(f"{where} {must_be}")
        needs = sorted(_FAMILIES[self.name])
        if len(dict(self.params)) != len(needs):  # no key is unknown, so one is missing
            raise ValueError(f"feature {self.name!r} needs parameters {needs}")

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


def extract(descriptors, windows, rate: float) -> np.ndarray:
    """Evaluate descriptors on a window or a (windows, samples) matrix.

    Returns a (windows, columns) float matrix (one row for a 1-D window).
    Columns follow the descriptor order, a vector feature contributing one
    column per component. Each intermediate is computed once per call and
    shared by every kernel that reads it: |x| by the MAV family, x^2 by ssi,
    var and rms, the sample differences by wl, zc, ssc and wamp, the
    spectrum and its square by the spectral moments.
    """
    x = np.asarray(windows, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("need a 1-D window or a (windows, samples) matrix")
    rows = x[np.newaxis] if x.ndim == 1 else x
    return _columns(descriptors, _Intermediates(rows, rows.shape[-1], None, rate))


def extract_segments(descriptors, samples, rate: float, cfg: SegmentationConfig) -> np.ndarray:
    """``extract(descriptors, segment(samples, rate, cfg), rate)``, bit for bit.

    The elementwise intermediates are computed once over the samples the
    windows cover, not once per overlapping window: each window sums the
    same values in the same order, and each count comes from the positions
    of the events. Samples after the last whole window are never read.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("extract_segments needs a 1-D sample array")
    return _extract_stack(descriptors, x[np.newaxis], rate, cfg)[0]


def _extract_stack(descriptors, signals, rate: float, cfg: SegmentationConfig) -> np.ndarray:
    """`extract_segments` of every row of a (signals, samples) stack, bit for bit.

    Returns a (signals, windows, columns) array. One pass of each kernel
    covers the whole stack, so its fixed cost is paid once per stack rather
    than once per signal.
    """
    offsets = segment_offsets(signals.shape[1], rate, cfg)  # raises when too short
    width = cfg.window_samples(rate)
    shared = _Intermediates(signals[:, :offsets[-1] + width], width, cfg.slide_samples(rate),
                            rate)
    return _columns(descriptors, shared).reshape(len(signals), offsets.size, -1)


def _columns(descriptors, shared: _Intermediates) -> np.ndarray:
    # Each cached array is dropped after the last descriptor that reads it, so
    # few are alive at once and the allocator reuses their memory instead of
    # returning it to the system and faulting it in again on the next call. A
    # wrong entry in _READS only costs a recomputation.
    last_reader = {}
    for i, desc in enumerate(descriptors):
        last_reader.update(dict.fromkeys(_READS.get(desc.name, ()), i))
    columns = []
    for i, desc in enumerate(descriptors):
        if desc.needs_resolution():
            raise ValueError("hemg descriptor used before its range was resolved")
        min_len = tf._MIN_SAMPLES.get(desc.name, 0)  # the spectral kernels check their own
        if shared.width < min_len:
            raise ValueError(
                f"need a 1-D window or (windows, samples) matrix of at least {min_len} samples")
        value = np.asarray(_KERNELS[desc.name](shared, **desc.param_dict), dtype=float)
        columns.append(value.reshape(shared.total, desc.component_count()))
        for name in _READS.get(desc.name, ()):
            if last_reader[name] == i:
                vars(shared).pop(name, None)
    return np.hstack(columns)


def make_descriptor(name: str, params: dict | None = None) -> FeatureDescriptor:
    """Build a descriptor from a family name and parameter overrides.

    Each override is taken as a float, and a whole-numbered count or ``dc``
    as an int; `FeatureDescriptor` checks every value.
    """
    merged = dict(_FAMILIES.get(name, {}))
    for key, value in (params or {}).items():
        value = float(value)
        merged[key] = int(value) if key in _INT_PARAMS and value.is_integer() else value
    return FeatureDescriptor(
        name=name,
        params=tuple(sorted(merged.items())),
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


def resolve_hemg_peak(descriptors, peak: float) -> list[FeatureDescriptor]:
    """Pin unresolved histogram ranges to a known peak |amplitude| of clean data."""
    if not any(d.needs_resolution() for d in descriptors):
        return list(descriptors)
    if peak <= 0:
        raise ValueError("cannot resolve hemg range: clean data is all zero")
    if peak == math.inf:  # the histogram would reject the sample; do so first
        raise ValueError("hemg needs finite samples")
    return [d.resolved(peak) for d in descriptors]


def peak_amplitude(channels, train=None) -> np.ndarray:
    """The peak |amplitude| of clean data, as `resolve_hemg_peak` takes it.

    ``channels`` holds one (samples, channels) array per trial, or one 1-D
    array per record. Each channel's |x| max is taken, and the channel peaks
    are reduced with np.fmax, so a channel holding a NaN is skipped. The
    result has one peak per row of the (folds, trials) mask ``train``, over
    that fold's trials; without a mask, one peak over every trial.
    """
    peaks = np.array([np.atleast_1d(np.abs(c).max(axis=0, initial=0.0)) for c in channels])
    if train is None:
        train = np.ones((1, len(peaks)), dtype=bool)
    return np.fmax.reduce(np.where(train[:, :, np.newaxis], peaks, 0.0), axis=(1, 2),
                          initial=0.0)

"""Named feature descriptors shared by the benchmark, pipeline, and CLI.

Each feature family is defined once: one `_Family` record in `_FAMILIES`
holds its kernel, parameter defaults, the cached intermediates it reads, its
shortest window, its component count and scalar component, and whether it
counts events, and one public wrapper in `time_features` or `freq_features`
gives its values in the shape and type of a feature. Nothing else in the
package names a family.

A descriptor is a feature name plus concrete parameters. Two entry points
evaluate a list of descriptors and return one row per window: one column
per scalar feature, one per bin/coefficient/segment-difference for vector
features. ``extract`` takes a window or a (windows, samples) matrix, each row
one window. ``extract_segments`` takes one channel signal and a
segmentation, and gives exactly what ``extract`` gives on that signal's
windows. Every extraction is one `_columns` call, the only way to the
kernels: it takes a (signals, span) stack whose signals each hold ``count``
windows of ``width`` samples, one every ``slide`` (a window matrix is the
stack with one window per row, ``slide == width``), and runs every kernel
in one loop over the stack's ``_Intermediates``. That computes each
elementwise intermediate (|x|, x^2, the differences, the event masks, the
HEMG edge masks) once over the stack and hands each kernel its windows of
it, as views from `signals._windows`: over a signal whose windows overlap,
every sample is transformed once, not once per window that holds it, and an
event counter sums its mask over each window.

Equal-length signals are extracted as one stack. A kernel pass has a
fixed cost (dispatch, small temporaries) that dwarfs its work on one 3 s
channel, so the recognition pipeline stacks short channels into blocks (see
`recognition.extract_window_set`) and the robustness grid stacks records'
copy matrices (see `robustness.run_grid`), each under one budget,
``_BLOCK_SAMPLES``, and each block is one `_columns` call. Each row of a
stack gets the values it would get alone, bit for bit.

A window that a kernel cannot define does not stop the pass: an all-zero
window's AR fit, a spectrum with no mass. That window gets NaN in the
descriptor's columns and a fault code (see `_FAULTS`), and every other
window keeps its value. A window that holds a non-finite sample is
undefined for every descriptor: `_columns` checks the stack once, and such
a window gets NaN and one code, ``_NON_FINITE``, in every descriptor. So
one extraction of a block tells the robustness grid which (record,
descriptor) pairs to leave out and tells the recognition pipeline which
signal to name. ``extract`` and ``extract_segments`` raise the first faulty
descriptor's message instead: all 18 feature functions raise "window holds
a non-finite sample" for such a window.

For percentage-error benchmarking a vector feature is reduced to one
scalar, the component its record names, which the robustness study singles
out: histogram bin 2 (of the 3-bin histogram) and AR coefficient a_1.
Components are numbered from 1.

Descriptor strings use ``name:key=value:key=value``, e.g. ``wamp:threshold=20``
or ``ar:order=2``; feature lists are comma separated.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import freq_features as ff
from . import time_features as tf
from .signals import SegmentationConfig, _windows, amplitude_spectrum, segment_offsets


class _Intermediates:
    """The windows of one extraction and the arrays several kernels share.

    ``source`` is a (signals, span) stack of equal-length signals that each
    hold ``count`` windows of ``width`` samples, one every ``slide``;
    trailing samples that do not fill a window are not part of the span. One
    signal is a stack of one, and a window matrix is the stack whose rows
    each hold one window (``slide == width``). Every elementwise
    intermediate is computed once over the source: those that several
    families read (|x|, x^2, the differences and their magnitudes) on first
    use, kept until no later descriptor reads them; the event masks and the
    HEMG edge masks, which depend on a descriptor's parameters, by its
    kernel. `windows` gives a kernel each window's part of one as a
    (signals, count, width) view, so a sample that several windows hold is
    transformed once. Kernels reduce the last axis, so each window is
    reduced in the same order whether its signal is extracted alone or in a
    stack.
    """

    def __init__(self, source, width: int, slide: int, rate: float):
        if source.strides[-1] != source.itemsize:  # numpy would sum a window's samples
            source = np.ascontiguousarray(source)  # in another order than the window alone
        self.source, self.width, self.slide, self.rate = source, width, slide, rate
        # windows over every signal: each holds count = (span - width) // slide + 1
        self.total = source.shape[0] * ((source.shape[-1] - width) // slide + 1)

    def windows(self, values):
        """Each signal's windows of an intermediate over the source, as a view;
        one k samples shorter than the source (differences: 1) has width - k
        values per window."""
        return _windows(values, self.width - (self.source.shape[-1] - values.shape[-1]),
                        self.slide)

    def counts(self, events):
        """Each window's count of a boolean mask over the source: its sum over
        the window's samples, which replace the samples axis."""
        return self.windows(events.view(np.uint8)).sum(axis=-1, dtype=np.int32)

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


@dataclass(frozen=True)
class _Family:
    """Everything the package decides per feature family, in one record.

    ``kernel`` takes an `_Intermediates` and the parameters as keywords and
    gives one result per window, or, if it can leave a window undefined, a
    pair of those results and each window's fault code (see `_FAULTS`).
    ``params`` holds the defaults (ints where the feature needs counts or
    orders); a None default is resolved from the data, as hemg's ``limit``
    is. ``reads`` names the cached intermediates the kernel reads,
    ``min_samples`` the shortest window it takes (0: its parameters bound
    the length, as AR's order does, or the kernel checks it, as the spectral
    moments do; see `_check_width`), ``size`` the component count from the
    parameters (None: one scalar), ``scalar`` the 1-based component
    percentage error uses, and ``counts`` whether the values are integer
    counts.
    """

    kernel: Callable
    params: dict
    reads: tuple[str, ...] = ()
    min_samples: int = 0
    size: Callable[[dict], int] | None = None
    scalar: int = 1
    counts: bool = False


_ABS, _SQUARES = ("abs",), ("squares",)
_DIFFS, _POWERS = ("diff", "abs_diff"), ("spectrum", "powers")

# The time-domain kernels reduce windows of the shared intermediates; the
# spectral moments and AR read the window rows. Event counters: zc gates sign
# changes by |d_n| >= threshold, wamp counts those jumps alone, ssc counts
# turns whose curvature product clears it.
_FAMILIES: dict[str, _Family] = {
    "iemg": _Family(lambda s: np.sum(s.windows(s.abs), axis=-1), {}, _ABS, 1),
    "mav": _Family(lambda s: np.mean(s.windows(s.abs), axis=-1), {}, _ABS, 1),
    "mmav1": _Family(lambda s: tf._mmav1(s.windows(s.abs)), {}, _ABS, 4),
    "mmav2": _Family(lambda s: tf._mmav2(s.windows(s.abs)), {}, _ABS, 4),
    "mavslp": _Family(lambda s, segments: tf._mavslp(s.windows(s.abs), segments),
                      {"segments": tf.DEFAULT_MAVSLP_SEGMENTS}, _ABS, 1,
                      size=lambda p: int(p["segments"]) - 1),
    "ssi": _Family(lambda s: np.sum(s.windows(s.squares), axis=-1), {}, _SQUARES, 1),
    "var": _Family(lambda s: np.sum(s.windows(s.squares), axis=-1) / (s.width - 1), {},
                   _SQUARES, 2),
    "rms": _Family(lambda s: np.sqrt(np.mean(s.windows(s.squares), axis=-1)), {}, _SQUARES, 1),
    "wl": _Family(lambda s: np.sum(s.windows(s.abs_diff), axis=-1), {}, _DIFFS, 2),
    "zc": _Family(lambda s, threshold: s.counts(tf._crossings(s.source)
                                                & (s.abs_diff >= threshold)),
                  {"threshold": tf.DEFAULT_ZC_THRESHOLD}, _DIFFS, 2, counts=True),
    "ssc": _Family(lambda s, threshold: s.counts(tf._slope_products(s.diff) <= -threshold),
                   {"threshold": tf.DEFAULT_SSC_THRESHOLD}, ("diff",), 3, counts=True),
    "wamp": _Family(lambda s, threshold: s.counts(s.abs_diff >= threshold),
                    {"threshold": tf.DEFAULT_WAMP_THRESHOLD}, _DIFFS, 2, counts=True),
    "hemg": _Family(tf._hemg, {"bins": tf.DEFAULT_HEMG_BINS, "limit": None}, (), 1,
                    size=lambda p: int(p["bins"]), scalar=2, counts=True),
    "ar": _Family(lambda s, order: ff.levinson_durbin(s.rows, order), {"order": 1},
                  size=lambda p: int(p["order"])),
    "mnf": _Family(lambda s, dc: ff._centroid(s.spectrum[0], s.powers, dc), {"dc": 1}, _POWERS),
    "mdf": _Family(lambda s, dc: ff._median_bin(s.spectrum[0], s.powers, dc), {"dc": 1}, _POWERS),
    "mmnf": _Family(lambda s, dc: ff._centroid(*s.spectrum, dc), {"dc": 1}, ("spectrum",)),
    "mmdf": _Family(lambda s, dc: ff._median_bin(*s.spectrum, dc), {"dc": 1}, ("spectrum",)),
}

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

# The code `_columns` gives a window that holds a non-finite sample, in
# every descriptor and over any code of its kernel.
_NON_FINITE = 1
# The message of each code a window that is not defined gets (0: the window
# is defined). Where one descriptor's windows have two codes, the higher one
# names the fault: an all-zero window's AR fit names its singular
# autocorrelation, not the collapsed prediction error that follows from it.
_FAULTS = {
    _NON_FINITE: "window holds a non-finite sample",
    ff._NO_MASS: "spectrum has no mass; mean/median frequency undefined",
    ff._COLLAPSED: "prediction error collapsed to zero; window is degenerate",
    ff._SINGULAR: "window is identically zero; autocorrelation is singular",
}

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

    Every parameter is converted and checked when the descriptor is built,
    however it is built: it must be a real number (``numbers.Real``, numpy
    scalars included, not a bool) that a float can hold, and ``segments``,
    ``bins`` and ``order`` whole numbers, at least 2, 1 and 1; ``dc`` 0 or 1;
    ``threshold`` non-negative; ``limit`` positive and finite, with a bin
    width ``2 * limit / bins`` that is positive and finite too (an error
    naming ``limit``). It is stored as a float, or as an int for a count or
    ``dc``. Only a parameter the family resolves from data (hemg's
    ``limit``) may be None until it is resolved. Any other value is a
    ValueError naming ``name:key``; so is a parameter the family lacks, one
    given twice, or one it needs that is missing.
    """

    name: str
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.name not in _FAMILIES:
            raise ValueError(
                f"unknown feature {self.name!r}; valid names: {', '.join(FEATURE_NAMES)}"
            )
        defaults = _FAMILIES[self.name].params
        keys = [key for key, _ in self.params]
        params = []
        for key, value in self.params:
            if key not in defaults:
                raise ValueError(f"feature {self.name!r} has no parameter {key!r}")
            if keys.count(key) > 1:
                raise ValueError(f"feature {self.name!r} has parameter {key!r} twice")
            if value is not None or defaults[key] is not None:  # else resolved from data
                value = self._number(key, value)
            params.append((key, value))
        object.__setattr__(self, "params", tuple(params))
        if len(keys) != len(defaults):  # no key is unknown or repeated, so one is missing
            raise ValueError(f"feature {self.name!r} needs parameters {sorted(defaults)}")
        values = dict(params)
        if values.get("limit") is not None:  # hemg's bin formula must stay finite and monotone
            width = 2.0 * values["limit"] / values["bins"]
            if not 0 < width < math.inf:
                raise ValueError(f"{self.name}:limit={values['limit']:g}: the bin width "
                                 f"2*limit/bins must be positive and finite, got {width:g}")

    def _number(self, key: str, value):
        """``value`` as the float, or the int for a count or ``dc``, that
        ``key`` is stored as, once it is checked against the key's domain."""
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{self.name}:{key}={value!r}: {key} must be a number")
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float, perhaps too long to print
            raise ValueError(f"{self.name}:{key}: {key} is too large for a float") from None
        where = f"{self.name}:{key}={number:g}: {key} must be"
        if key in _COUNTS and not number.is_integer():  # also rejects inf and nan
            raise ValueError(f"{where} a whole number")
        valid, must_be = _DOMAINS[key]
        if not valid(number):
            raise ValueError(f"{where} {must_be}")
        return int(number) if key in _INT_PARAMS else number

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def label(self) -> str:
        shown = [(k, v) for k, v in self.params if v != _FAMILIES[self.name].params.get(k)]
        if not shown:
            return self.name
        return self.name + "(" + ",".join(f"{k}={v:g}" for k, v in shown) + ")"

    @property
    def param_text(self) -> str:
        return ";".join(f"{k}={'auto' if v is None else format(v, 'g')}"
                        for k, v in self.params)

    @property
    def scalar_component(self) -> int:
        """The 1-based component used when one value is needed (percentage error)."""
        return _FAMILIES[self.name].scalar

    def needs_resolution(self) -> bool:
        """True while a parameter resolved from data (hemg's limit) is still unset."""
        return any(v is None for _, v in self.params)

    def resolved(self, peak: float) -> "FeatureDescriptor":
        """Fill the parameters resolved from data (the histogram range) with ``peak``."""
        if not self.needs_resolution():
            return self
        params = {k: float(peak) if v is None else v for k, v in self.params}
        return replace(self, params=tuple(sorted(params.items())))

    def component_count(self) -> int:
        size = _FAMILIES[self.name].size
        return 1 if size is None else size(self.param_dict)

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
    spectrum and its square by the spectral moments. A window that a
    descriptor cannot define, or that holds a non-finite sample, is a
    ValueError (see `_fault`).
    """
    x = np.asarray(windows, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("need a 1-D window or a (windows, samples) matrix")
    width = x.shape[-1]  # a 0-sample window is one window too; `_check_width` refuses it
    return _defined(*_columns(descriptors, np.atleast_2d(x), width, max(width, 1), rate))


def extract_segments(descriptors, samples, rate: float, cfg: SegmentationConfig) -> np.ndarray:
    """``extract(descriptors, segment(samples, rate, cfg), rate)``, bit for bit.

    The elementwise intermediates are computed once over the samples the
    windows cover, not once per overlapping window: each window sums the
    same values in the same order, and each count is a sum over the same
    window of the event mask. Samples after the last whole window are never
    read.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("extract_segments needs a 1-D sample array")
    offsets = segment_offsets(x.size, rate, cfg)  # raises when too short
    width = cfg.window_samples(rate)
    return _defined(*_columns(descriptors, x[np.newaxis, :offsets[-1] + width], width,
                              cfg.slide_samples(rate), rate))


# The most window samples (windows x width) that one stacked extraction
# covers: enough that a kernel's fixed cost is shared by a few short signals
# or robustness records, few enough that a block's intermediates (each at
# most this many floats, 512 KiB) keep the process's peak memory within
# about 1 MB of extracting one at a time.
_BLOCK_SAMPLES = 2 ** 16


def _blocks(sizes) -> list[range]:
    """Consecutive index ranges over items of ``sizes`` window samples each.

    A range holds items of one size (one window count, so they stack) and
    at most ``_BLOCK_SAMPLES`` window samples in all; an item over the
    budget forms a range of its own.
    """
    blocks: list[range] = []
    for i, size in enumerate(sizes):
        if blocks and sizes[i - 1] == size and (len(blocks[-1]) + 1) * size <= _BLOCK_SAMPLES:
            blocks[-1] = range(blocks[-1].start, i + 1)
        else:
            blocks.append(range(i, i + 1))
    return blocks


def _check_width(descriptors, width: int) -> None:
    """Refuse, in descriptor order, a descriptor that cannot be extracted from
    windows of ``width`` samples, whatever their values: one whose range is
    unresolved, one whose family needs a longer window, one whose
    ``segments`` do not split the window evenly, or one whose ``order``
    needs more samples than the window holds."""
    for desc in descriptors:
        params, least = desc.param_dict, _FAMILIES[desc.name].min_samples
        if desc.needs_resolution():
            raise ValueError(f"{desc.name} descriptor used before its range was resolved")
        if width < least:
            raise ValueError("need a 1-D window or (windows, samples) matrix of at least "
                             f"{least} samples")
        if width % params.get("segments", 1):
            raise ValueError(f"window of {width} samples does not divide into "
                             f"{params['segments']} equal segments")
        if params.get("order", 0) >= width:
            raise ValueError(f"AR order {params['order']} needs more than {width} samples")


def _fault(codes) -> str | None:
    """The message of the first descriptor, in order, that leaves a window
    undefined, from its highest code over the windows, or None if none does.
    ``codes`` holds one fault code per (window, descriptor), descriptors last."""
    worst = codes.reshape(-1, codes.shape[-1]).max(axis=0, initial=0).tolist()
    return next((_FAULTS[code] for code in worst if code), None)


def _defined(values, codes):
    """``values`` if every window is defined, else `_fault`'s ValueError."""
    if message := _fault(codes):
        raise ValueError(message)
    return values


def _columns(descriptors, stack, width: int, slide: int, rate: float):
    """The (windows, columns) values of the descriptors over the windows of a
    (signals, span) stack, ``width`` samples every ``slide`` (see
    `_Intermediates`), signal by signal, and one fault code per (window,
    descriptor). Every kernel computes every window, and a window it cannot
    define gets NaN in each of the descriptor's columns and a nonzero code.
    A window that holds a non-finite sample gets NaN in every column and
    ``_NON_FINITE`` in every descriptor; the kernels see such a sample as 0,
    so no other window changes. This is the one way the package reaches the
    kernels; its callers give it a stack cut to the span of its windows."""
    # Each cached array is dropped after the last descriptor that reads it, so
    # few are alive at once and the allocator reuses their memory instead of
    # returning it to the system and faulting it in again on the next call. A
    # missing name in a family's ``reads`` only costs a recomputation.
    families = [_FAMILIES[desc.name] for desc in descriptors]
    last_reader = {}
    for i, family in enumerate(families):
        last_reader.update(dict.fromkeys(family.reads, i))
    _check_width(descriptors, width)
    non_finite = None
    if not np.isfinite(stack).all():  # zeroed, so that no kernel warns on them
        non_finite = ~np.isfinite(stack)
        stack = np.where(non_finite, 0.0, stack)
    shared = _Intermediates(stack, width, slide, rate)
    columns, codes = [], np.zeros((shared.total, len(descriptors)), dtype=np.int8)
    for i, (desc, family) in enumerate(zip(descriptors, families)):
        value = family.kernel(shared, **desc.param_dict)
        if isinstance(value, tuple):  # its values and each window's fault code
            value, codes[:, i] = value
        value = np.asarray(value, dtype=float)
        columns.append(value.reshape(shared.total, desc.component_count()))
        for name in family.reads:
            if last_reader[name] == i:
                vars(shared).pop(name, None)
    if non_finite is not None:  # the windows that hold one are undefined in every descriptor
        codes[shared.counts(non_finite).reshape(-1) > 0] = _NON_FINITE
    values = np.hstack(columns)
    if codes.any():  # NaN in every column of a descriptor's undefined windows
        values[np.repeat(codes > 0, [c.shape[1] for c in columns], axis=1)] = np.nan
    return values, codes


def make_descriptor(name: str, params: dict | None = None) -> FeatureDescriptor:
    """Build a descriptor from a family name and parameter overrides, merged
    over the family's defaults; `FeatureDescriptor` converts and checks every
    value, so a string or a bool is refused rather than converted."""
    merged = dict(_FAMILIES[name].params if name in _FAMILIES else {})
    merged.update(params or {})
    return FeatureDescriptor(name, tuple(sorted(merged.items())))


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

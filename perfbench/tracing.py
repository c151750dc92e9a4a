"""In-memory span tracing by wrapping library functions from outside.

The layers call each other through module attributes (``bounds`` calls
``lambda_threshold`` and ``counting_function`` through its own globals, the
CLI through the names it imports), so replacing those attributes with
timing wrappers traces every layer boundary without touching the library.
A name that no longer exists is recorded as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager

# Span record fields.
NAME, START, END, PARENT, REQUEST, OK, NOTE = range(7)

LAYERS = ("cli", "bounds", "dirichlet", "modelspectra", "groups", "weyl", "bench")


def _threshold_key(args, kwargs):
    """(n, kappa, r) of a lambda_threshold call, the key its cache would use."""
    try:
        if len(args) >= 3:
            n, kappa, r = args[:3]
        else:
            n, kappa, r = kwargs["n"], kwargs["kappa"], kwargs["r"]
        return (int(n), float(kappa), float(r))
    except (KeyError, TypeError, ValueError):
        return None


def _spectrum_note(result):
    """(distinct eigenvalues, eigenvalues with multiplicity) of a built spectrum."""
    try:
        return (len(result.entries), int(result.total_count))
    except AttributeError:
        return None


# (module, attribute, span name, key-of-arguments). Calls made through
# orbispec.bounds globals.
BOUNDS_TARGETS = (
    ("orbispec.bounds", "lambda_threshold", "dirichlet.lambda_threshold", _threshold_key),
    ("orbispec.bounds", "counting_function", "modelspectra.counting_function", None),
    ("orbispec.bounds", "diameter_bound", "bounds.diameter_bound", None),
    ("orbispec.bounds", "best_diameter_bound", "bounds.best_diameter_bound", None),
    ("orbispec.bounds", "isotropy_order_cap", "bounds.isotropy_order_cap", None),
    ("orbispec.bounds", "alpha_constant", "bounds.alpha_constant", None),
    ("orbispec.bounds", "ell_constant", "bounds.ell_constant", None),
    ("orbispec.bounds", "r_constant", "bounds.r_constant", None),
    ("orbispec.bounds", "singular_point_cap", "bounds.singular_point_cap", None),
    ("orbispec.bounds", "estimate_dimension", "weyl.estimate_dimension", None),
    ("orbispec.bounds", "estimate_volume", "weyl.estimate_volume", None),
    ("orbispec.bounds", "spectrum_content_id", "bounds.spectrum_content_id", None),
    ("orbispec.bounds", "spectral_isotropy_bound", "bounds.spectral_isotropy_bound", None),
    (
        "orbispec.bounds",
        "spectral_singular_point_bound",
        "bounds.spectral_singular_point_bound",
        None,
    ),
    ("orbispec.modelspectra", "_character_table", "groups.character_table", None),
)

# Pipeline names orbispec.cli imports; the CLI calls them through its own globals.
CLI_TARGETS = tuple(
    ("orbispec.cli", attr, f"{layer}.{attr}", None)
    for attr, layer in (
        ("best_diameter_bound", "bounds"),
        ("default_r_grid", "bounds"),
        ("diameter_bound", "bounds"),
        ("isotropy_order_cap", "bounds"),
        ("singular_point_cap", "bounds"),
        ("alpha_constant", "bounds"),
        ("ell_constant", "bounds"),
        ("r_constant", "bounds"),
        ("spectral_isotropy_bound", "bounds"),
        ("spectral_singular_point_bound", "bounds"),
        ("isotropy_type_enumeration", "bounds"),
        ("lowest_dirichlet_eigenvalue", "dirichlet"),
        ("estimate_dimension", "weyl"),
        ("weyl_fit", "weyl"),
        ("model_catalog", "modelspectra"),
        ("catalog_model", "modelspectra"),
    )
)


class Tracer:
    """Records nested spans in memory: name, start, end, parent, request id, ok, note."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, note=None) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, True, note]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        except BaseException:
            rec[OK] = False
            raise
        finally:
            self._close(rec)

    def wrap(self, fn, name, key_of=None, note_of=None):
        """fn with a span around each call; name may be a callable of the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            rec = self._open(label, key_of(args, kwargs) if key_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[OK] = False
                raise
            finally:
                self._close(rec)
            if note_of is not None:
                rec[NOTE] = note_of(result)
            return result

        return traced

    def patch(self, owner, attr: str, name, key_of=None, note_of=None) -> bool:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(label)
            return False
        setattr(owner, attr, self.wrap(original, name, key_of, note_of))
        self._patches.append((owner, attr, original))
        return True

    def install(self, targets) -> None:
        for module_name, attr, name, key_of in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self.patch(module, attr, name, key_of)

    def install_spectrum(self) -> None:
        """Spectrum construction, one span name per catalog kind."""
        modelspectra = importlib.import_module("orbispec.modelspectra")
        owner = getattr(modelspectra, "ModelOrbifold", None)
        if owner is None:
            self.absent.append("orbispec.modelspectra.ModelOrbifold")
            return
        self.patch(
            owner,
            "spectrum",
            lambda args: f"modelspectra.spectrum.{getattr(args[0], 'kind', 'unknown')}",
            note_of=_spectrum_note,
        )

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def span_overhead_s(calls: int = 5000) -> float:
    """Cost one traced call adds, from wrapping a no-op in a throwaway tracer."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration")
    best_direct = best_traced = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best_direct = min(best_direct, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(0.0, (best_traced - best_direct) / calls)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def fresh_thresholds(spans: list[list]) -> dict[int, bool]:
    """lambda_threshold span index -> whether its key is new to the whole trace so far."""
    seen: set = set()
    fresh = {}
    for i, s in enumerate(spans):
        if s[NAME] == "dirichlet.lambda_threshold":
            key = s[NOTE]
            fresh[i] = key is None or key not in seen
            seen.add(key)
    return fresh


def _searched_radii(spans: list[list], idx: list[int]) -> list[int]:
    """diameter_bound spans made by a best_diameter_bound search."""
    search = {i for i in idx if spans[i][NAME] == "bounds.best_diameter_bound"}
    return [i for i in idx if spans[i][NAME] == "bounds.diameter_bound" and spans[i][PARENT] in search]


def request_counts(spans: list[list], fresh: dict[int, bool], request_id) -> dict:
    """Exact counts of one request: threshold calls and new keys, radii tried and admissible."""
    mine = [i for i, s in enumerate(spans) if s[REQUEST] == request_id]
    calls = [i for i in mine if i in fresh]
    tried = _searched_radii(spans, mine)
    return {
        "threshold_calls": len(calls),
        "threshold_keys": sum(1 for i in calls if fresh[i]),
        "radii_tried": len(tried),
        "radii_admissible": sum(1 for i in tried if spans[i][OK]),
    }


def layer_metrics(tracer: Tracer, measured: list, span_cost_s: float) -> dict:
    """Per-layer metrics over the measured requests.

    measured: ids of the requests inside the timed window.  Layer times
    are seconds per request, threshold times medians per call (a key is
    "first" when no earlier span of the trace, set-up included, had it),
    spectrum and character-table times medians per call over the whole
    run, set-up included.
    """
    spans = tracer.spans
    own = self_times(spans)
    fresh = fresh_thresholds(spans)
    wanted = set(measured)
    nreq = max(1, len(measured))
    idx = [i for i, s in enumerate(spans) if s[REQUEST] in wanted]

    def total(names, values=None):
        vals = values if values is not None else [s[END] - s[START] for s in spans]
        return sum(vals[i] for i in idx if spans[i][NAME] in names)

    def count(names):
        return sum(1 for i in idx if spans[i][NAME] in names)

    def per_call_median(name):
        return _median([s[END] - s[START] for s in spans if s[NAME] == name])

    calls = [i for i in idx if i in fresh]
    first = [spans[i][END] - spans[i][START] for i in calls if fresh[i]]
    repeat = [spans[i][END] - spans[i][START] for i in calls if not fresh[i]]
    tried = _searched_radii(spans, idx)
    admissible = sum(1 for i in tried if spans[i][OK])

    roots = [i for i in idx if spans[i][PARENT] < 0]
    root_wall = sum(spans[i][END] - spans[i][START] for i in roots)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in idx:
        layer = layer_of(spans[i][NAME])
        layer_self[layer if layer in layer_self else "bench"] += own[i]
    cost = len(idx) * span_cost_s

    m = {
        "dirichlet.threshold_calls": len(calls) / nreq,
        "dirichlet.threshold_keys": len(first) / nreq,
        "dirichlet.reuse_share": 1.0 - len(first) / len(calls) if calls else 0.0,
        "dirichlet.threshold_first_s": _median(first),
        "dirichlet.threshold_repeat_s": _median(repeat),
        "dirichlet.self_s": layer_self["dirichlet"] / nreq,
        "bounds.diameter_s": total({"bounds.best_diameter_bound"}) / nreq,
        "bounds.diameter_self_s": total(
            {"bounds.best_diameter_bound", "bounds.diameter_bound"}, own
        ) / nreq,
        "bounds.radii_tried": len(tried) / nreq,
        "bounds.radii_admissible": admissible / nreq,
        "bounds.radius_yield": admissible / len(tried) if tried else 0.0,
        "bounds.isotropy_s": total({"bounds.isotropy_order_cap"}) / nreq,
        "bounds.alpha_s": total({"bounds.alpha_constant"}) / nreq,
        "bounds.ell_s": total({"bounds.ell_constant"}) / nreq,
        "bounds.r_sep_s": total({"bounds.r_constant"}) / nreq,
        "bounds.singular_s": total({"bounds.singular_point_cap"}) / nreq,
        "bounds.content_id_s": total({"bounds.spectrum_content_id"}) / nreq,
        "modelspectra.counting_calls": count({"modelspectra.counting_function"}) / nreq,
        "modelspectra.counting_s": total({"modelspectra.counting_function"}) / nreq,
        "groups.character_table_s": per_call_median("groups.character_table"),
        "weyl.fit_s": total(
            {"weyl.estimate_dimension", "weyl.estimate_volume", "weyl.weyl_fit"}
        ) / nreq,
        "cli.self_s": layer_self["cli"] / nreq,
        "trace.spans": len(idx) / nreq,
        "trace.absent_names": float(len(tracer.absent)),
        "trace.overhead_share": cost / (root_wall - cost) if root_wall > cost else 0.0,
    }
    for kind in ("flat_torus", "round_sphere", "sphere_quotient", "torus_quotient"):
        m[f"modelspectra.spectrum_s.{kind}"] = per_call_median(f"modelspectra.spectrum.{kind}")
    for layer in LAYERS:
        m[f"self_share.{layer}"] = layer_self[layer] / root_wall if root_wall > 0 else 0.0
    return m

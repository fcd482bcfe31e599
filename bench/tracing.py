"""Per-layer tracing of ellverify from outside the package.

:class:`Tracer` replaces the names other modules look up when they call into a
layer (``from .kernel import ell_gamma`` binds the name in the importing
module, so the wrapper has to go there) and restores them on exit.  A call is
counted and timed only when no call into the same layer is already open, so
the figures are for calls that enter a layer, not for the layer's own
internal calls.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import defaultdict

# Closed forms of ``special``: the public functions named like these.
_CLOSED_FORM_SUFFIXES = ("_rhs", "_series")


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("ellverify.") and module is not None
    ]


class Tracer:
    """Counts and times of calls at the package's layer boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.open = defaultdict(int)
        self.check = None
        self.draw_seconds = defaultdict(list)
        self.series_check_seconds = defaultdict(float)
        self.integrand = defaultdict(lambda: [0, 0.0])
        self.evaluations = 0
        self.error_max_rel = 0.0
        self.terms_out = 0
        self._undo = []

    # -- wrapping ---------------------------------------------------------------

    def timed(self, name, fn, layer=None, note=None):
        """``fn`` wrapped to count and time its calls under ``name``.

        ``note(args, result, seconds)`` runs after each counted call that returns.
        """
        layer = layer or name

        def traced(*args, **kwargs):
            if self.open[layer]:
                return fn(*args, **kwargs)
            self.open[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.open[layer] -= 1
                self.calls[name] += 1
                self.seconds[name] += elapsed
            if note is not None:
                note(args, result, elapsed)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, fn, wrapper, home):
        """Bind ``wrapper`` wherever a package module holds ``fn`` by name."""
        for module in _package_modules():
            if module.__name__ == fn.__module__ and not home:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- layers -----------------------------------------------------------------

    def install(self):
        import ellverify.bridge as bridge
        import ellverify.catalog as catalog
        import ellverify.conjectures as conjectures
        import ellverify.contour as contour
        import ellverify.kernel as kernel
        import ellverify.series as series
        import ellverify.special as special

        # kernel: only the names bound in other modules, so that the kernel's
        # own nested products run unwrapped
        for name in kernel.__all__:
            fn = getattr(kernel, name)
            if inspect.isfunction(fn) and fn.__module__ == kernel.__name__:
                self._replace(fn, self.timed(f"kernel.{name}", fn, layer="kernel"), home=False)

        self._replace(contour.integrate, self._traced_integrate(contour.integrate), home=False)
        self._replace(
            contour.pole_audit,
            self.timed("contour.pole_audit", contour.pole_audit),
            home=False,
        )

        for name, fn in vars(special).copy().items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == special.__name__
                and not name.startswith("_")
                and name.endswith(_CLOSED_FORM_SUFFIXES)
            ):
                wrapper = self.timed("special.closed_form", fn)
                self._replace(fn, wrapper, home=True)

        for name in ("J_mu_k2", "eval_conj_rhs"):
            fn = getattr(bridge, name, None)
            if fn is not None:
                self._replace(fn, self.timed(f"bridge.{name}", fn), home=True)

        self._install_catalog(catalog)

        run_series = conjectures.run_series_check

        def note_series(args, result, elapsed):
            self.series_check_seconds[args[0]] += elapsed

        self._replace(
            run_series,
            self.timed("conjectures.run_series_check", run_series, note=note_series),
            home=True,
        )

        def note_terms(args, result, elapsed):
            self.terms_out += len(getattr(result, "terms", ()))

        for name in ("truncated_product", "stabilized_product"):
            fn = getattr(series, name)
            wrapper = self.timed(f"series.{name}", fn, layer="series", note=note_terms)
            self._replace(fn, wrapper, home=True)
        cls = series.LaurentSeries
        for name, attrs in (("invert", ("invert",)), ("mul", ("__mul__", "__rmul__"))):
            fn = getattr(cls, attrs[0])
            wrapper = self.timed(f"series.{name}", fn, layer="series", note=note_terms)
            for attr in attrs:
                if getattr(cls, attr) is fn:
                    self._set(cls, attr, wrapper)

    def _traced_integrate(self, integrate):
        def note(args, result, elapsed):
            self.evaluations += getattr(result, "evaluations", 0)
            # relative to integrate's own stopping scale, max(1, |value|)
            scale = max(1.0, abs(complex(getattr(result, "value", 0))))
            self.error_max_rel = max(self.error_max_rel, getattr(result, "error", 0.0) / scale)

        timed = self.timed("contour.integrate", integrate, note=note)

        def traced_integrate(f, *args, **kwargs):
            tally = self.integrand[self.check]

            def integrand(t):
                start = time.perf_counter()
                try:
                    return f(t)
                finally:
                    tally[0] += 1
                    tally[1] += time.perf_counter() - start

            return timed(integrand, *args, **kwargs)

        return traced_integrate

    def _install_catalog(self, catalog):
        def note_draw(args, result, elapsed):
            self.draw_seconds[args[0]].append(elapsed)

        timed_run = self.timed("catalog.run_check", catalog.run_check, note=note_draw)

        def run_check(identity_id, *args, **kwargs):
            self.check = identity_id
            return timed_run(identity_id, *args, **kwargs)

        self._replace(catalog.run_check, run_check, home=True)
        self._replace(
            catalog.sample_params,
            self.timed("catalog.sample_params", catalog.sample_params),
            home=True,
        )

        get_entry = catalog.get_entry
        traced_entries = {}
        parts = (
            ("lhs", "catalog.lhs"),
            ("rhs", "catalog.rhs"),
            ("poles", "catalog.audit"),
            ("contour", "catalog.audit"),
        )

        def traced_get_entry(identity_id):
            if identity_id not in traced_entries:
                entry = get_entry(identity_id)
                if dataclasses.is_dataclass(entry):
                    changes = {
                        part: self.timed(name, getattr(entry, part))
                        for part, name in parts
                        if getattr(entry, part, None) is not None
                    }
                    entry = dataclasses.replace(entry, **changes)
                traced_entries[identity_id] = entry
            return traced_entries[identity_id]

        self._replace(get_entry, traced_get_entry, home=True)

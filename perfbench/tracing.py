"""Traced mode: spans around calls into tslattice's public functions.

The tracer wraps each public function of the program's modules from outside,
where it is looked up: ``from .x import y`` copies the reference, so every
module attribute that holds the function is replaced (for example
``tslattice.experiments.ts_step`` and ``tslattice.dynamics.ts_step``), and
attribute lookups such as ``_kernels.apply_1q`` see the wrapper of the
``tslattice._kernels`` module. A span's self time is its duration minus the
time its child spans cover. Spans stay in memory and are written out at the
end of the run.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

import numpy as np

# Module suffix -> layer name used in metric names.
LAYERS = {
    "cli": "cli",
    "experiments": "experiments",
    "dynamics": "dynamics",
    "spacetime": "spacetime",
    "quantum_core": "quantum_core",
    "_kernels": "kernels",
}

AMPLITUDE_BYTES = 16


def _layer_of(func) -> str | None:
    parts = (getattr(func, "__module__", None) or "").split(".")
    if parts[0] != "tslattice" or len(parts) < 2:
        return None
    return LAYERS.get(parts[1])


def _kernel_bytes(name, args):
    """16 bytes per amplitude read or written: gates read and write, expectations read."""
    size = args[0].size
    return (1 if name == "expect_1q" else 2) * AMPLITUDE_BYTES * size


class Tracer:
    """Installs and removes the wrappers; accumulates per-span figures."""

    def __init__(self):
        modules = [sys.modules["tslattice"]] + [sys.modules[f"tslattice.{m}"] for m in LAYERS]
        self.keys: list[tuple[str, str]] = []  # (layer, function name) per key id
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                layer = _layer_of(value)
                if layer is None:
                    continue
                wrapper = self._wrappers.get(id(value))
                if wrapper is None:
                    wrapper = self._wrap(value, layer)
                    self._wrappers[id(value)] = wrapper
                self._patches.append((module, attr, value))
        self.reset()

    def _wrap(self, func, layer):
        key = len(self.keys)
        self.keys.append((layer, func.__name__))
        is_step = (layer, func.__name__) == ("dynamics", "ts_step")
        is_expectation = (layer, func.__name__) == ("quantum_core", "expectation")
        moves_bytes = layer == "kernels" and func.__name__ in ("apply_1q", "apply_2q", "expect_1q")
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            calls = tracer.calls
            calls[key] += 1
            if is_step:
                tracer.open_steps += 1
            elif is_expectation and tracer.open_steps:
                tracer.expectations_in_steps += 1
            if moves_bytes:
                tracer.bytes_moved += _kernel_bytes(func.__name__, args)
            span = len(tracer.span_key)
            tracer.span_key.append(key)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if is_step:
                    tracer.open_steps -= 1
                tracer.span_times.extend((span, t0, t1))

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    def reset(self):
        """Forget the figures and spans of earlier repetitions."""
        n = len(self.keys)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.open_steps = 0
        self.expectations_in_steps = 0
        self.bytes_moved = 0
        self._stack: list[list] = []
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_times = array("d")  # (span index, start, end) in order of ending

    def exclude(self, seconds: float):
        """Keep ``seconds`` of benchmark work out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def install(self):
        for module, attr, value in self._patches:
            setattr(module, attr, self._wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in self._patches:
            setattr(module, attr, value)


    def layer_metrics(self, pairs_checked: int) -> dict[str, float]:
        """Per-layer figures of the repetition traced since the last reset.

        ``pairs_checked`` is the number of order-swap pairs the repetition's
        reports say were checked (0 when no integrability scan ran).
        """
        layer_self = {layer: 0.0 for layer in LAYERS.values()}
        for key, (layer, _) in enumerate(self.keys):
            layer_self[layer] += self.self_s[key]

        index = {k: i for i, k in enumerate(self.keys)}

        # A function the program no longer has did no work: it reads 0.
        def calls(layer, name):
            i = index.get((layer, name))
            return 0.0 if i is None else float(self.calls[i])

        def self_time(layer, name):
            i = index.get((layer, name))
            return 0.0 if i is None else self.self_s[i]

        steps = calls("dynamics", "ts_step")
        return {
            "cli.self_s": layer_self["cli"],
            "experiments.self_s": layer_self["experiments"],
            "experiments.steps_per_pair": steps / pairs_checked if pairs_checked else 0.0,
            "dynamics.self_s": layer_self["dynamics"],
            "dynamics.ts_step.calls": steps,
            "dynamics.ts_step.self_s": self_time("dynamics", "ts_step"),
            "dynamics.step_generator.self_s": self_time("dynamics", "step_generator"),
            "dynamics.free_field.calls": calls("dynamics", "free_field"),
            "dynamics.compose_map.self_s": self_time("dynamics", "compose_map"),
            "dynamics.expectations_per_step": self.expectations_in_steps / steps if steps else 0.0,
            "spacetime.self_s": layer_self["spacetime"],
            "spacetime.enabled_deformations.calls": calls("spacetime", "enabled_deformations"),
            "quantum_core.self_s": layer_self["quantum_core"],
            "quantum_core.expm_hermitian.calls": calls("quantum_core", "expm_hermitian"),
            "quantum_core.expm_hermitian.self_s": self_time("quantum_core", "expm_hermitian"),
            "quantum_core.expectation.calls": calls("quantum_core", "expectation"),
            "kernels.self_s": layer_self["kernels"],
            "kernels.apply_1q.calls": calls("kernels", "apply_1q"),
            "kernels.apply_2q.calls": calls("kernels", "apply_2q"),
            "kernels.expect_1q.calls": calls("kernels", "expect_1q"),
            "kernels.bytes_moved": float(self.bytes_moved),
        }

    def write_spans(self, path):
        """Spans of the last traced repetition: name table, key, parent, start, end."""
        names = np.array([f"{layer}.{name}" for layer, name in self.keys])
        times = np.frombuffer(self.span_times, dtype=np.float64).reshape(-1, 3)
        times = times[np.argsort(times[:, 0])]
        np.savez(
            path,
            names=names,
            key=np.frombuffer(self.span_key, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=times[:, 1],
            end=times[:, 2],
        )

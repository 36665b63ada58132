"""Per-layer call counts and self times, from wrappers installed outside.

Each traced function is replaced, as a method on its class or in every
gentorsion module namespace that imported it, by a wrapper that records a
span.  A span's self time is its duration minus the durations of the
traced spans it encloses, so calls between layers are attributed to the
layer that made them.  ``enumerate_reduced`` is a generator: it is counted
by the words it yields, and the time spent producing them stays with the
caller.
"""

import functools
import sys
import time

TRACED = {
    "words": ("is_conjugate", "cyclic_reduce", "CyclicWord.from_word", "Word.__mul__",
              "Word.__pow__", "enumerate_reduced"),
    "modular": ("to_matrix", "reversible", "parabolic_power", "gen3_torsion"),
    "braid3": ("normal_form", "CentralElement.__mul__", "conjugate_b3", "reversible_b3",
               "gen3_torsion_b3"),
    "seifert": ("SeifertGroup.mul", "SeifertGroup.element", "SeifertGroup.pow",
                "reversible_seifert", "gen_n_certificate"),
    "certificates": ("verify_certificate",),
    "cli": ("main",),
}
GENERATORS = ("words.enumerate_reduced",)


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self._pending: dict = {}
        self._stack: list = []

    def _span(self, name: str, fn):
        calls, pending, stack = self.calls, self._pending, self._stack
        calls[name] = 0
        pending[name] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t
                pending[name] += d - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += d

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                calls[name] += 1
                yield value

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "gentorsion"]
        for layer, attrs in TRACED.items():
            module = sys.modules.get(f"gentorsion.{layer}")
            if module is None:
                continue
            for attr in attrs:
                name = f"{layer}.{attr}"
                wrap = self._counted if name in GENERATORS else self._span
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, wrap(name, raw))
                    continue
                original = getattr(module, attr)
                wrapped = wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def fold(self, factor: float) -> None:
        """Add the last operation's self times, scaled by ``factor``."""
        for name, value in self._pending.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value * factor
            self._pending[name] = 0.0

    def reset_counts(self) -> None:
        for name in self.calls:
            self.calls[name] = 0
        self.self_s.clear()

    def per_round(self, rounds: int, ops_per_round: int) -> dict:
        out = {}
        for name in sorted(self.calls):
            if name in GENERATORS:
                out[f"{name}.yielded"] = self.calls[name] / rounds
                out[f"{name}.per_op"] = self.calls[name] / (rounds * ops_per_round)
            else:
                out[f"{name}.calls"] = self.calls[name] / rounds
                out[f"{name}.self_ms"] = self.self_s.get(name, 0.0) * 1e3 / rounds
        return out

"""Per-layer tracing of the intdensity modules, applied from outside.

`Tracer.install` replaces every public function and public method of the
six layer modules with a wrapper, at every module binding that refers to
it (`constructions`, `weakrep` and `cli` import functions by name, so
patching the defining module alone would miss their calls).
`Tracer.uninstall` puts the originals back.

Coarse entry points get a span: wall time, with the time of wrapped calls
made inside it subtracted, is the layer's self time.  Calls made once per
element of a loop (every `codes` function, `eval_sampler`, `SetStream.bit`,
...) are counted on every call but timed only on every SAMPLE_EVERY-th one.
A timed call is timed together with everything it calls, and that subtree
is scaled by SAMPLE_EVERY, so the untimed calls cost a counter increment
and the estimate stays unbiased.  Time of a layer's private helpers lands
in the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("codes", "streams", "samplers", "constructions", "weakrep", "cli")

SAMPLE_EVERY = 64

# Called once per element of a loop; every `codes` function is too.
PER_ELEMENT = {
    "eval_sampler",
    "SetStream.bit",
    "SetStream.contains",
    "FamilyRegistry.eval",
    "FamilyRegistry.steps",
    "SigmaMap.lookup",
}

# Only called from inside its own module, whose span already holds its time.
UNWRAPPED = {"splitmix64"}


def _targets(module):
    """(qualified name, owning class or None, attribute) of each public callable."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(func):
                    yield f"{name}.{attr}", obj, member
        elif callable(obj):
            yield name, None, obj


def _argument(func, name):
    """A reader of one named argument from a call's (args, kwargs)."""
    signature = inspect.signature(func)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = Counter()
        self._cells: dict[str, list[int]] = {}
        self._stack: list[list] = []  # [child seconds, weight] per open span
        self._untimed = 0
        self._patches = []
        self._inputs: dict[int, tuple] = {}  # id(sampler) -> (sampler, inputs seen)

    # -- installation ------------------------------------------------------

    def install(self, layers: dict, modules) -> None:
        """Wrap the public callables of `layers` (name -> module) and
        rebind them in every module of `modules`."""
        wrappers = {}
        for layer, module in layers.items():
            for qualname, owner, member in _targets(module):
                if qualname in UNWRAPPED:
                    continue
                func = getattr(member, "__func__", member)
                wrapper = self._wrap(func, layer, qualname)
                if owner is None:
                    wrappers[id(member)] = (member, wrapper)
                else:
                    kind = type(member) if func is not member else None
                    self._patch(owner, qualname.split(".", 1)[1],
                                kind(wrapper) if kind else wrapper)
        for module in modules:
            for name, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    self._patch(module, name, found[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, func, layer, qualname):
        cell = self._cells.setdefault(f"{layer}.{qualname}", [0])
        stack = self._stack
        timed = self._timed

        if layer == "codes" or qualname in PER_ELEMENT:
            note = self._note_eval if qualname == "eval_sampler" else None

            @functools.wraps(func)
            def per_element(*args, **kwargs):
                cell[0] += 1
                if note is not None:
                    note(args, kwargs)
                if self._untimed:
                    return func(*args, **kwargs)
                weight = stack[-1][1] if stack else 1
                if weight > 1:  # inside a sampled call: time everything
                    return timed(func, args, kwargs, layer, weight, 1)
                if cell[0] % SAMPLE_EVERY:
                    self._untimed += 1
                    try:
                        return func(*args, **kwargs)
                    finally:
                        self._untimed -= 1
                return timed(func, args, kwargs, layer, SAMPLE_EVERY, SAMPLE_EVERY)

            return per_element

        hook = self._hook(func, qualname)

        @functools.wraps(func)
        def span(*args, **kwargs):
            cell[0] += 1
            if self._untimed:
                result = func(*args, **kwargs)
            else:
                result = timed(func, args, kwargs, layer, stack[-1][1] if stack else 1, 1)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    def _timed(self, func, args, kwargs, layer, weight, scale):
        """Run func as a span; its parent's child time grows by scale x its wall time."""
        stack = self._stack
        frame = [0.0, weight]
        stack.append(frame)
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self.self_s[layer] += (elapsed - frame[0]) * weight
            if stack:
                stack[-1][0] += elapsed * scale

    # -- counters derived from arguments and results ------------------------

    def _note_eval(self, args, kwargs):
        if len(args) == 2:
            sampler, x = args
        else:
            sampler = args[0] if args else kwargs["sampler"]
            x = kwargs["x"]
        entry = self._inputs.get(id(sampler))
        if entry is None:
            entry = self._inputs[id(sampler)] = (sampler, set())
        entry[1].add(x)

    def _hook(self, func, qualname):
        counts = self.counts
        if qualname == "SetStream.prefix":
            length = _argument(func, "n")

            def prefix(args, kwargs, result):
                counts["streams.prefix.bits"] += length(args, kwargs)

            return prefix
        if qualname == "validate_weakrep":
            table = _argument(func, "table")

            def validate(args, kwargs, result):
                counts["weakrep.validate.triples"] += len(table(args, kwargs).triples)

            return validate
        if qualname == "p_bound":
            checkpoint = _argument(func, "n")

            def p_bound(args, kwargs, result):
                # strings sigma with 2^|sigma| < n^5: all lengths below L,
                # where L is the least length with 2^L >= n^5
                limit = checkpoint(args, kwargs) ** 5
                counts["weakrep.p_bound.strings"] += (1 << (limit - 1).bit_length()) - 1

            return p_bound
        if qualname == "build_prefix_tree":

            def tree(args, kwargs, result):
                widths = [len(level) for level in result.levels]
                for height in range(result.full_height + 1, result.depth + 1):
                    examined = 2 * widths[height - 1]
                    counts["constructions.tree.examined"] += examined
                    counts["constructions.tree.kept"] += widths[height]
                    # each examined child is tested against 2qh decoded strings
                    counts["constructions.tree.startswith_computed"] += (
                        examined * 2 * result.q * height)

            return tree
        return None

    # -- reading out ---------------------------------------------------------

    def end_job(self) -> None:
        """Fold the per-job distinct-input sets into a count and drop them."""
        self.counts["samplers.eval.distinct"] += sum(len(s) for _, s in self._inputs.values())
        self._inputs.clear()

    def calls(self, prefix: str) -> int:
        return sum(cell[0] for key, cell in self._cells.items() if key.startswith(prefix))

"""A-infinity algebras and strongly homotopy morphisms on finite
rational complexes.

An algebra is a complex (V, d) with operations mu_n : V^(x n) -> V of
degree n-2 for 2 <= n <= N; a morphism is a family f_n : V^(x n) -> W
of degree n-1.  Following Markl, such a structure is an action of a
cofibrant colored operad: an algebra of the minimal model of Ass
(ass-minimal), a morphism of its two-colored arrow version
(ass-arrow-minimal).  The stored differentials of those models are the
only definition of the coherence identities here: the residual in
arity n is the action's value on d(mu_n) (or d(f_n)) minus the
hom-complex differential of mu_n (or f_n), evaluated exactly by
operadcore.eval_element.  Composites are operadcore.partition_sum's
sums of two-level trees, evaluated by the same eval_element, so this
module holds unsuspended maps only.
"""

from __future__ import annotations

import functools
from typing import Mapping, Optional

from .exactlin import ChainComplex, GradedMap, tensor_power
from .operadcore import builtin_presentation, generator_residual, partition_sum


# ------------------------------------------------------------ structures


class AInfinityAlgebra:
    """Complex with higher products mu_n (n = 2..N); missing entries are
    zero maps."""

    def __init__(self, complex: ChainComplex, mu: Mapping[int, GradedMap],
                 N: int):
        if N < 2:
            raise ValueError("truncation order must be at least 2")
        self.complex = complex
        self.N = N
        self._mu = {}
        for n, m in dict(mu).items():
            n = int(n)
            if not 2 <= n <= N:
                raise ValueError(f"mu_{n} outside truncation 2..{N}")
            if m.degree != n - 2:
                raise ValueError(f"mu_{n} must have degree {n - 2}")
            expected = tensor_power(complex.space, n)
            if m.source != expected or m.target != complex.space:
                raise ValueError(f"mu_{n} has wrong source or target")
            self._mu[n] = m

    def mu(self, n: int) -> GradedMap:
        if n in self._mu:
            return self._mu[n]
        return GradedMap.zero(tensor_power(self.complex.space, n),
                              self.complex.space, n - 2)

    @property
    def space(self):
        return self.complex.space

    def is_strict(self) -> bool:
        return all(self.mu(n).is_zero() for n in range(3, self.N + 1))


class AInfinityMorphism:
    """Taylor coefficients f_n : V^(x n) -> W (n = 1..N) of a strongly
    homotopy morphism; missing entries are zero maps.  N is at least 1
    and at most the order of either algebra, whose missing operations
    are not zero but undefined."""

    def __init__(self, source: AInfinityAlgebra, target: AInfinityAlgebra,
                 f: Mapping[int, GradedMap], N: Optional[int] = None):
        self.source = source
        self.target = target
        top = min(source.N, target.N)
        self.N = top if N is None else N
        if self.N < 1:
            raise ValueError("truncation order must be at least 1")
        if self.N > top:
            raise ValueError(f"truncation order {N} exceeds the algebras' "
                             f"orders (at most {top})")
        self._f = {}
        for n, m in dict(f).items():
            n = int(n)
            if not 1 <= n <= self.N:
                raise ValueError(f"f_{n} outside truncation 1..{self.N}")
            if m.degree != n - 1:
                raise ValueError(f"f_{n} must have degree {n - 1}")
            expected = tensor_power(source.space, n)
            if m.source != expected or m.target != target.space:
                raise ValueError(f"f_{n} has wrong source or target")
            self._f[n] = m

    def f(self, n: int) -> GradedMap:
        if n in self._f:
            return self._f[n]
        return GradedMap.zero(tensor_power(self.source.space, n),
                              self.target.space, n - 1)

    def is_strict(self) -> bool:
        return all(self.f(n).is_zero() for n in range(2, self.N + 1))

    def truncated(self, N: int) -> AInfinityMorphism:
        """The morphism with its coefficients above arity N dropped:
        itself when N is its own order."""
        return self if N == self.N else AInfinityMorphism(
            self.source, self.target,
            {n: f for n, f in self._f.items() if n <= N}, N)


def underlying(m: AInfinityMorphism) -> GradedMap:
    """The chain map carried by a strongly homotopy morphism."""
    return m.f(1)


def identity_morphism(a: AInfinityAlgebra) -> AInfinityMorphism:
    return AInfinityMorphism(a, a, {1: GradedMap.identity(a.space)}, a.N)


# ------------------------------------------------------------ coherence


def an_residual(a: AInfinityAlgebra, n: int) -> GradedMap:
    """Stasheff residual in arity n: the value of d(mu_n) in the minimal
    model of Ass under the algebra's action, minus the hom-complex
    differential of mu_n; zero exactly when the identity holds."""
    if not 2 <= n <= a.N:
        raise ValueError(f"arity must be within 2..{a.N}")
    return generator_residual(*_action(a), f"mu{n}")


def check_An(a: AInfinityAlgebra, n: int) -> dict:
    res = an_residual(a, n)
    return {"n": n, "ok": res.is_zero(), "residual": res}


def check_all_An(a: AInfinityAlgebra) -> dict:
    entries = [check_An(a, n) for n in range(2, a.N + 1)]
    return {"ok": all(e["ok"] for e in entries), "entries": entries}


def fn_residual(m: AInfinityMorphism, n: int) -> GradedMap:
    """Morphism residual in arity n: the value of d(f_n) in the arrow
    model under the morphism's action, minus the hom-complex
    differential of f_n; n = 1 is the chain-map condition on f_1."""
    if not 1 <= n <= m.N:
        raise ValueError(f"arity must be within 1..{m.N}")
    return generator_residual(*_action(m), f"f{n}")


def check_Fn(m: AInfinityMorphism, n: int) -> dict:
    res = fn_residual(m, n)
    return {"n": n, "ok": res.is_zero(), "residual": res}


def check_all_Fn(m: AInfinityMorphism) -> dict:
    entries = [check_Fn(m, n) for n in range(1, m.N + 1)]
    return {"ok": all(e["ok"] for e in entries), "entries": entries}


# ------------------------------------------------------------ composition


def compose_morphisms(g: AInfinityMorphism,
                      f: AInfinityMorphism) -> AInfinityMorphism:
    """Composite strongly homotopy morphism: in arity n, the sum of
    g_k . (f_{r_1} x ... x f_{r_k}) over the compositions r of n, with
    no sign of its own in the suspended world, evaluated as two-level
    trees by operadcore.partition_sum.  f's target and g's source must
    be the same complex with the same operations up to the composite's
    order."""
    N = min(f.N, g.N)
    if f.target is not g.source and not (
            f.target.complex == g.source.complex
            and all(f.target.mu(n) == g.source.mu(n)
                    for n in range(2, N + 1))):
        raise ValueError("morphisms are not composable")
    U, V, W = f.source.space, f.target.space, g.target.space
    comps = {n: partition_sum(g.f, f.f, n, 1, U, V, W, n - 1)
             for n in range(1, N + 1)}
    return AInfinityMorphism(f.source, g.target, comps, N)


# ------------------------------------------------ bridge to operad actions


@functools.lru_cache(maxsize=16)
def _action(x):
    """The operad action of an algebra or a morphism, made once per
    structure (a bounded cache) and shared by its residuals."""
    if isinstance(x, AInfinityAlgebra):
        return action_from_structure(x)
    return morphism_action(x)


def action_from_structure(a: AInfinityAlgebra):
    """Operad action of the associativity minimal model determined by an
    algebra: (presentation, action dict, complexes dict)."""
    pres = builtin_presentation("ass-minimal", a.N)
    action = {f"mu{n}": a.mu(n) for n in range(2, a.N + 1)}
    return pres, action, {"v": a.complex}


def structure_from_action(action: Mapping[str, GradedMap],
                          complexes: Mapping[str, ChainComplex],
                          N: int) -> AInfinityAlgebra:
    mu = {n: action[f"mu{n}"] for n in range(2, N + 1)
          if f"mu{n}" in action}
    return AInfinityAlgebra(complexes["v"], mu, N)


def morphism_action(m: AInfinityMorphism):
    """Operad action of the two-colored arrow model determined by a
    morphism between algebras (truncated at the smaller order)."""
    N = m.N
    pres = builtin_presentation("ass-arrow-minimal", N)
    action = {}
    for n in range(2, N + 1):
        action[f"mu{n}"] = m.source.mu(n)
        action[f"nu{n}"] = m.target.mu(n)
    for n in range(1, N + 1):
        action[f"f{n}"] = m.f(n)
    return pres, action, {"v": m.source.complex, "w": m.target.complex}

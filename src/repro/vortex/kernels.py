"""Regularised smoothing kernels for the vortex particle method.

The Biot-Savart integral (paper Eq. 2) is regularised by convolving the
singular kernel ``K = grad G`` with a radially symmetric smoothing function
``zeta_sigma`` of core size ``sigma`` (paper Eqs. 3-4).  All kernels here are
normalised so that the induced velocity of a particle with vector charge
``alpha = omega * vol`` is::

    u(x)      = -(1/4pi) q(r/sigma) / r^3  (x - x_p) x alpha
    grad u(x) =  assembled from F(r) = q(rho)/r^3 and
                 G(r) = (rho q'(rho) - 3 q(rho)) / r^5

where ``q(rho) = integral_0^rho 4 pi s^2 zeta(s) ds`` and ``q -> 1`` for
``rho -> inf`` (far field equals the singular kernel, which is what makes
multipole acceleration valid).

A kernel of *order m* satisfies the moment conditions ``M0 = 1`` and
``M2 = ... = M_{m-2} = 0`` where ``M_k = integral |x|^k zeta(|x|) d^3x``;
the regularisation error of the velocity field is then ``O(sigma^m)``
(Cottet & Koumoutsakos 2000).  The paper uses the *sixth-order algebraic*
kernel of Speck's thesis [23]; we derive an equivalent kernel from scratch
(closed forms below, verified against numerical quadrature in the tests).

For the algebraic family every radial profile is a rational function of
``t = rho^2``, so the combinations that appear in force evaluation,

* ``q_over_rho3(t) = q(rho)/rho^3``  (regular at the origin), and
* ``w(t) = (rho q' - 3 q)/rho^5``    (regular at the origin),

have exact polynomial-over-power closed forms with *no* removable
singularities; force loops never need small-``r`` guards.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Tuple, Type

import numpy as np
from scipy.special import erf

__all__ = [
    "SmoothingKernel",
    "AlgebraicKernel",
    "SecondOrderAlgebraic",
    "FourthOrderAlgebraic",
    "SixthOrderAlgebraic",
    "GaussianKernel",
    "SingularKernel",
    "get_kernel",
    "available_kernels",
]

_FOUR_PI = 4.0 * np.pi


class SmoothingKernel(ABC):
    """Abstract radial smoothing kernel.

    Subclasses provide the dimensionless profiles; the generic methods
    :meth:`f_radial` and :meth:`g_radial` return the two radial factors the
    Biot-Savart evaluation needs, already scaled by the core size ``sigma``.
    """

    #: human-readable registry name
    name: str = "abstract"
    #: formal order of accuracy of the regularisation
    order: int = 0

    # -- dimensionless profiles -------------------------------------------
    @abstractmethod
    def q(self, rho: np.ndarray) -> np.ndarray:
        """Normalised circulation fraction inside radius ``rho``."""

    @abstractmethod
    def qprime(self, rho: np.ndarray) -> np.ndarray:
        """Derivative ``dq/drho = 4 pi rho^2 zeta(rho)``."""

    @abstractmethod
    def q_over_rho3(self, rho: np.ndarray) -> np.ndarray:
        """``q(rho)/rho^3`` evaluated without cancellation at rho ~ 0."""

    @abstractmethod
    def w(self, rho: np.ndarray) -> np.ndarray:
        """``(rho q'(rho) - 3 q(rho)) / rho^5``, regular at rho ~ 0."""

    def zeta(self, rho: np.ndarray) -> np.ndarray:
        """The smoothing function ``zeta(rho)`` itself (for diagnostics)."""
        rho = np.asarray(rho, dtype=np.float64)
        out = np.empty_like(rho)
        small = rho < 1e-8
        safe = np.where(small, 1.0, rho)
        out = self.qprime(safe) / (_FOUR_PI * safe**2)
        if np.any(small):
            # limit: qprime ~ 4 pi zeta(0) rho^2
            eps = 1e-4
            out = np.where(small, self.qprime(eps) / (_FOUR_PI * eps**2), out)
        return out

    # -- dimensional radial factors ---------------------------------------
    def f_radial(self, r: np.ndarray, sigma: float) -> np.ndarray:
        """``F(r) = q(r/sigma)/r^3`` (the velocity radial factor)."""
        rho = np.asarray(r, dtype=np.float64) / sigma
        return self.q_over_rho3(rho) / sigma**3

    def g_radial(self, r: np.ndarray, sigma: float) -> np.ndarray:
        """``G(r) = (rho q' - 3 q)/r^5`` (the gradient radial factor)."""
        rho = np.asarray(r, dtype=np.float64) / sigma
        return self.w(rho) / sigma**5

    def f_g_from_r2(
        self, r2: np.ndarray, sigma: float, gradient: bool = True
    ) -> Tuple[np.ndarray, "np.ndarray | None"]:
        """Both radial factors straight from *squared* distances.

        The batched near-field evaluator computes ``r^2`` anyway, and the
        algebraic family is rational in ``t = r^2/sigma^2``, so subclasses
        override this to skip the square root entirely (the generic
        fallback takes one).  Returns ``(F, G)``; ``G`` is None when
        ``gradient`` is False.
        """
        dist = np.sqrt(r2)
        f = self.f_radial(dist, sigma)
        g = self.g_radial(dist, sigma) if gradient else None
        return f, g

    def moment(self, k: int, rmax: float = 80.0, n: int = 200_001) -> float:
        """Numerical radial moment ``M_k = int |x|^k zeta d^3x`` (tests)."""
        rho = np.linspace(0.0, rmax, n)
        integrand = rho**k * self.qprime(rho)  # 4 pi rho^{2+k} zeta
        return float(np.trapezoid(integrand, rho))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(order={self.order})"


class AlgebraicKernel(SmoothingKernel):
    """Base class for the algebraic family ``zeta ~ P(t)/(t+1)^{D/2}``.

    Subclasses define, with ``t = rho^2``:

    * ``_A``: coefficients of ``A(t)`` where ``q'(rho) = rho^2 A(t)/(t+1)^{D/2}``
    * ``_P``: coefficients of ``P(t)`` where ``q(rho) = rho^3 P(t)/(t+1)^{(D-2)/2}``
    * ``_W``: coefficients of ``Wnum(t)`` where
      ``(rho q' - 3 q)/rho^5 = Wnum(t)/(t+1)^{D/2}``
    * ``_D``: the (odd) denominator exponent numerator.

    Coefficient arrays are low-order-first, consumed via Horner evaluation.
    """

    _A: Tuple[float, ...]
    _P: Tuple[float, ...]
    _W: Tuple[float, ...]
    _D: int

    @staticmethod
    def _horner(coeffs: Tuple[float, ...], t: np.ndarray) -> np.ndarray:
        acc = np.full_like(t, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc = acc * t + c
        return acc

    def q(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        t = rho * rho
        return rho**3 * self._horner(self._P, t) / (t + 1.0) ** ((self._D - 2) / 2.0)

    def qprime(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        t = rho * rho
        return t * self._horner(self._A, t) / (t + 1.0) ** (self._D / 2.0)

    def q_over_rho3(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        t = rho * rho
        return self._horner(self._P, t) / (t + 1.0) ** ((self._D - 2) / 2.0)

    def w(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        t = rho * rho
        return self._horner(self._W, t) / (t + 1.0) ** (self._D / 2.0)

    @staticmethod
    def _int_power(base: np.ndarray, n: int) -> np.ndarray:
        """``base**n`` by squaring — ~log2(n) multiplies, no np.power."""
        acc = None
        while True:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if not n:
                return acc
            base = base * base

    def f_g_from_r2(
        self, r2: np.ndarray, sigma: float, gradient: bool = True
    ) -> Tuple[np.ndarray, "np.ndarray | None"]:
        """Rational fast path: Horner numerators over ``(t+1)^{-k/2}``.

        The half-integer denominators are integer powers of
        ``1/sqrt(t+1)``; ``F`` and ``G`` share the whole power chain
        (``G``'s denominator is one factor of ``t+1`` deeper), so the
        pair costs one sqrt, one divide and a handful of multiplies —
        several times cheaper than two ``np.power`` calls with float
        exponents.
        """
        sig2 = sigma * sigma
        t = r2 * (1.0 / sig2)
        w = t + 1.0
        np.sqrt(w, out=w)
        inv = np.divide(1.0, w, out=w)
        fden = self._int_power(inv, self._D - 2)
        # fold the sigma scales into the (scalar) coefficients and run
        # Horner in place — no temporaries on the hot path
        inv_sig3 = 1.0 / (sigma * sig2)
        coeffs = self._P
        f = np.full_like(t, coeffs[-1] * inv_sig3)
        for c in coeffs[-2::-1]:
            f *= t
            f += c * inv_sig3
        f *= fden
        g = None
        if gradient:
            inv_sig5 = inv_sig3 / sig2
            coeffs = self._W
            g = np.full_like(t, coeffs[-1] * inv_sig5)
            for c in coeffs[-2::-1]:
                g *= t
                g += c * inv_sig5
            g *= fden
            g *= inv
            g *= inv
        return f, g


class SecondOrderAlgebraic(AlgebraicKernel):
    """``zeta = (3/4pi)(rho^2+1)^{-5/2}`` — the classic low-order kernel."""

    name = "algebraic2"
    order = 2
    _D = 5
    _A = (3.0,)
    _P = (1.0,)
    _W = (-3.0,)


class FourthOrderAlgebraic(AlgebraicKernel):
    """Fourth-order algebraic kernel (moments M0 = 1, M2 = 0).

    ``zeta = (1/4pi)(525/16 - (105/4) t)/(t+1)^{11/2}``.
    """

    name = "algebraic4"
    order = 4
    _D = 11
    _A = (525.0 / 16.0, -105.0 / 4.0)
    _P = (175.0 / 16.0, 63.0 / 8.0, 4.5, 1.0)
    _W = (-1323.0 / 16.0, -297.0 / 8.0, -16.5, -3.0)


class SixthOrderAlgebraic(AlgebraicKernel):
    """Sixth-order algebraic kernel (M0 = 1, M2 = M4 = 0) — paper default.

    ``zeta = (105/256pi)(35 - 56 t + 8 t^2)/(t+1)^{13/2}`` with the exact
    antiderivative ``q = rho^3 (1225/64 + (49/4) t + (99/8) t^2 + (11/2) t^3
    + t^4)/(t+1)^{11/2}``.
    """

    name = "algebraic6"
    order = 6
    _D = 13
    _A = (3675.0 / 64.0, -735.0 / 8.0, 105.0 / 8.0)
    _P = (1225.0 / 64.0, 49.0 / 4.0, 99.0 / 8.0, 5.5, 1.0)
    _W = (-11907.0 / 64.0, -243.0 / 4.0, -429.0 / 8.0, -19.5, -3.0)


class GaussianKernel(SmoothingKernel):
    """Second-order Gaussian: ``zeta = (2 pi)^{-3/2} exp(-rho^2/2)``."""

    name = "gaussian"
    order = 2
    #: below this rho, series expansions replace the closed forms
    _series_cut = 0.5

    _C = float(np.sqrt(2.0 / np.pi))

    def q(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        return erf(rho / np.sqrt(2.0)) - rho * self._C * np.exp(-0.5 * rho * rho)

    def qprime(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        return self._C * rho * rho * np.exp(-0.5 * rho * rho)

    def q_over_rho3(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        small = rho < self._series_cut
        safe = np.where(small, 1.0, rho)
        closed = self.q(safe) / safe**3
        # q/rho^3 = C * sum_k (-1)^k rho^{2k} / (2^k k! (2k+3))
        t = rho * rho
        series = self._C * (
            1.0 / 3.0
            - t / 10.0
            + t**2 / 56.0
            - t**3 / 432.0
            + t**4 / 4224.0
            - t**5 / 49920.0
            + t**6 / 691200.0
        )
        return np.where(small, series, closed)

    def w(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        small = rho < self._series_cut
        safe = np.where(small, 1.0, rho)
        closed = (safe * self.qprime(safe) - 3.0 * self.q(safe)) / safe**5
        # (rho q' - 3 q)/rho^5 = C * sum_k (-1)^k 2k rho^{2k-2}/(2^k k!(2k+3))
        t = rho * rho
        series = self._C * (
            -1.0 / 5.0
            + t / 14.0
            - t**2 / 72.0
            + t**3 / 528.0
            - t**4 / 4992.0
            + t**5 / 57600.0
        )
        return np.where(small, series, closed)


class SingularKernel(SmoothingKernel):
    """Unregularised kernel ``q = 1`` with optional Plummer softening.

    With ``softening = 0`` this is the raw Biot-Savart / Coulomb kernel;
    multipole far fields of every regularised kernel converge to it.  The
    "coarse-as-singular" limit is also what the tree code's multipole
    expansion actually computes for well-separated clusters.
    """

    name = "singular"
    order = 0

    def __init__(self, softening: float = 0.0) -> None:
        if softening < 0:
            raise ValueError(f"softening must be >= 0, got {softening}")
        self.softening = float(softening)

    def q(self, rho: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(rho, dtype=np.float64))

    def qprime(self, rho: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(rho, dtype=np.float64))

    def q_over_rho3(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        r2 = rho * rho + self.softening**2
        return 1.0 / (r2 * np.sqrt(r2))

    def w(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        r2 = rho * rho + self.softening**2
        return -3.0 / (r2 * r2 * np.sqrt(r2))

    def f_radial(self, r: np.ndarray, sigma: float) -> np.ndarray:
        # sigma is irrelevant for the singular kernel; pass rho = r directly
        return self.q_over_rho3(np.asarray(r, dtype=np.float64))

    def g_radial(self, r: np.ndarray, sigma: float) -> np.ndarray:
        return self.w(np.asarray(r, dtype=np.float64))

    def f_g_from_r2(
        self, r2: np.ndarray, sigma: float, gradient: bool = True
    ) -> Tuple[np.ndarray, "np.ndarray | None"]:
        s = r2 + self.softening**2
        f = 1.0 / (s * np.sqrt(s))
        g = -3.0 * f / s if gradient else None
        return f, g


_REGISTRY: Dict[str, Type[SmoothingKernel]] = {
    SecondOrderAlgebraic.name: SecondOrderAlgebraic,
    FourthOrderAlgebraic.name: FourthOrderAlgebraic,
    SixthOrderAlgebraic.name: SixthOrderAlgebraic,
    GaussianKernel.name: GaussianKernel,
    SingularKernel.name: SingularKernel,
}


def available_kernels() -> Tuple[str, ...]:
    """Names accepted by :func:`get_kernel`."""
    return tuple(sorted(_REGISTRY))


def get_kernel(name: str, **kwargs) -> SmoothingKernel:
    """Instantiate a kernel by registry name.

    >>> get_kernel("algebraic6").order
    6
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; available: {available_kernels()}"
        ) from None
    return cls(**kwargs)

"""Verification mathematics: characteristic polynomials and their coefficient
error, rank tests, closed-loop matrices, and a finite-difference Jacobian oracle.

Everything here is dense, small (n <= 8), and deliberately simple; the module
exists so the model and controller claims can be checked by independent
machinery rather than by the code that produced them.
"""

from __future__ import annotations

import numpy as np

from .control import DesignSpec, Gains
from .errors import DivergenceError, ValidationError
from .plant import DerivedParams

_MAX_DIM = 8


def char_poly(a) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first.

    Uses the Faddeev-LeVerrier trace recurrence, which needs no eigensolver,
    in integers: A is an integer matrix over 2**s (each float is m / 2**e),
    so coefficient k is an integer over 2**(s*k), rounded once.  In floats the
    recurrence cancels digits where the poles lie far apart (low gravity).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n > _MAX_DIM:
        raise ValidationError(f"matrix dimension {n} exceeds supported maximum {_MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    ratios = [[x.as_integer_ratio() for x in row] for row in a.tolist()]
    scale = max((den for row in ratios for _, den in row), default=1)  # 2**s
    num = [[top * (scale // den) for top, den in row] for row in ratios]  # A * 2**s
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[-1]
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in num]
        coeffs.append(-sum(m[i][i] for i in range(n)) // k)
    try:
        return np.array([c / scale**k for k, c in enumerate(coeffs)])  # int / int rounds correctly
    except OverflowError:
        raise ValidationError("characteristic polynomial coefficient overflows") from None


def controllability_matrix(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    blocks = [b]
    for _ in range(a.shape[0] - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def controllability_rank(a, b) -> int:
    """Rank of [B AB ... A^(n-1)B], singular values below 1e-9 * s_max dropped."""
    s = np.linalg.svd(controllability_matrix(a, b), compute_uv=False)
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-9 * s[0]))


def fd_jacobian(f, x0) -> np.ndarray:
    """Central-difference Jacobian of f at x0, with step 1e-6 scaled per component.

    Oracle for the analytic linearizations; only valid where f is smooth
    (disable Coulomb/drag friction before differentiating across zero wheel
    speed).
    """
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(f(x0), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise DivergenceError("non-finite function value at the expansion point")
    jac = np.empty((len(f0), len(x0)))
    for i in range(len(x0)):
        h = 1e-6 * max(1.0, abs(x0[i]))
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        fp, fm = np.asarray(f(xp), dtype=float), np.asarray(f(xm), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise DivergenceError(f"non-finite function value while differentiating component {i}")
        jac[:, i] = (fp - fm) / (2.0 * h)
    return jac


def closed_loop_matrix(gains: Gains, dp: DerivedParams) -> np.ndarray:
    """Linearized closed loop of the full regulator in (sigma_e, theta_w,
    omega_c, omega_w) coordinates about the upright reference.

    Row 3 is the regulator itself (omega_c_dot = u); row 4 is the wheel under
    the linearizing torque, omega_w_dot = -delta * sigma_e - gamma * u, the
    gravity reaction plus the gamma-amplified command.
    """
    g, k = dp.gamma, gains
    return np.array(
        [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [k.k_p, -k.k_pw, -k.k_d, -k.k_dw],
            [-(dp.delta + g * k.k_p), g * k.k_pw, g * k.k_d, g * k.k_dw],
        ]
    )


def design_poly(spec: DesignSpec) -> np.ndarray:
    """Coefficients of (s^2 + 2 zeta wn s + wn^2)(s + alpha zeta wn)^2."""
    z, wn, a = spec.zeta, spec.omega_n, spec.alpha
    quad = np.array([1.0, 2.0 * z * wn, wn**2])
    lin = np.array([1.0, a * z * wn])
    return np.convolve(np.convolve(quad, lin), lin)


def designed_poles(spec: DesignSpec) -> np.ndarray:
    """The four target poles: a complex pair and a repeated real wheel pole."""
    z, wn, a = spec.zeta, spec.omega_n, spec.alpha
    wd = wn * np.sqrt(1.0 - z**2)
    return np.array([-z * wn + 1j * wd, -z * wn - 1j * wd, -a * z * wn, -a * z * wn])


def coefficient_error(coeffs, target) -> float:
    """max|coeffs - target| / max|target|, with the modulus of a complex
    difference, so an imaginary residue counts.

    Every pole claim is checked by this metric: a polynomial identity holds
    coefficient by coefficient, where eigenvalues of (nearly) repeated poles
    are ill-conditioned.
    """
    coeffs, target = np.asarray(coeffs), np.asarray(target)
    if coeffs.shape != target.shape:
        raise ValidationError(f"coefficient shapes differ: {coeffs.shape} vs {target.shape}")
    return float(np.max(np.abs(coeffs - target)) / np.max(np.abs(target)))

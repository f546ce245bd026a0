"""Independent oracles for every benchmark operation.

Each ``check_*`` function takes one operation's inputs and what the program
produced, and returns ``(failures, stats)``: a list of human-readable
failure messages (empty when the result is correct) and a dict of accuracy
headroom figures.  Nothing here calls into ``shockdecay``; the formulas are
re-derived from the documented laws so that a wrong answer from the program
cannot also be the reference.  The oracles run outside the timed region.
"""

import json
import math

import numpy as np
from scipy.interpolate import PchipInterpolator

# Tolerances.  Each is stated in the README, a test, or measured with
# headroom at the seed commit (worst case in brackets).
EVOLVE_RTOL = 1e-8  # closed form vs integrated history [3.8e-9]
EVOLVE_MIN_I = 0.1  # "away from breakdown": rows where 1 + (g+1) k J / 2 >= this
BREAKDOWN_RTOL = 1e-6  # reported x* vs the closed-form blow-up position
CCW_RTOL = 1e-6  # x(U) from the separable quadrature [6e-8]
TAU_RTOL = 1e-10  # closed-form wavelet label of half-sine and ramp pulses
AREA_TOL = 1e-10  # equal-area residual, as a share of the pulse integral b
RIEMANN_RTOL = 1e-12  # simple-wave identity u (1 + (g-1)u/2)^(2/(g-1)) = rhs,
RIEMANN_ATOL = 1e-13  # or simple_wave_u's documented absolute stopping test
LAW_RTOL = 1e-12  # closed-form laws evaluated by the program
PULSE_B_RTOL = 1e-8  # pulse integral (the table pulse uses a quad cache)
TABLE1_RTOL = 1e-6  # table1 error columns vs |closed form - leading-order form|

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


# --- shared algebra ---------------------------------------------------------


def ray_integral(x, j):
    """J(x) = int_1^x s**(-j/2) ds."""
    x = np.asarray(x, dtype=float)
    if j == 0:
        return x - 1.0
    if j == 1:
        return 2.0 * (np.sqrt(x) - 1.0)
    return np.log(x)


def ray_integral_leading(x, j):
    x = np.asarray(x, dtype=float)
    return (x * 1.0, 2.0 * np.sqrt(x), np.log(x))[j]


def ray_integral_inverse(value, j):
    if j == 0:
        return 1.0 + value
    if j == 1:
        return (1.0 + 0.5 * value) ** 2
    return math.exp(value) if value < 709.0 else math.inf


def transport_closed_form(x, h, k, gamma, j, leading=False):
    """([p], [p_x], I) of the truncated weak system, optionally with the
    ray integral replaced by its leading part."""
    J = ray_integral_leading(x, j) if leading else ray_integral(x, j)
    I = 1.0 + 0.5 * (gamma + 1.0) * k * J
    shape = np.asarray(x, dtype=float) ** (-0.5 * j)
    with np.errstate(invalid="ignore", divide="ignore"):
        return h / np.sqrt(I) * shape, k / I * shape, I


def power_laws(x, h, k, gamma, j):
    """Documented far-field laws of ([p], [p_x]) for k > 0 (infinite at
    x = 1 for spherical fronts)."""
    x = np.asarray(x, dtype=float)
    amp = h * math.sqrt(2.0 / ((gamma + 1.0) * k))
    if j == 0:
        return amp / np.sqrt(x), 2.0 / (gamma + 1.0) / x
    if j == 1:
        return amp / math.sqrt(2.0) * x**-0.75, 1.0 / (gamma + 1.0) / x
    lx = np.log(x)
    with np.errstate(divide="ignore"):
        return amp / (x * np.sqrt(lx)), 2.0 / (gamma + 1.0) / (x * lx)


def breakdown_position(k, gamma, j):
    """Blow-up position x* of the closed form, or None for k >= 0."""
    if k >= 0.0:
        return None
    return ray_integral_inverse(-2.0 / ((gamma + 1.0) * k), j)


def mach_from_p_jump(h, gamma):
    return math.sqrt(1.0 + 0.5 * (gamma + 1.0) * h)


def ccw_coefficient(U, gamma, variant):
    """Area-rule g(U) (classic) or transport-rule G(U) (generalized)."""
    mu = 2.0 + (gamma - 1.0) * U * U
    nu = 2.0 * gamma * U * U + 1.0 - gamma
    if variant == "classic":
        return (1.0 + 2.0 * np.sqrt(mu / nu) + U**-2.0) * (
            1.0 + (U * U - 1.0) / np.sqrt(mu * nu)
        )
    return (gamma + 1.0) * (2.0 * U * U / nu + (U * U + 1.0) / mu)


def ccw_log_x(U, U0, gamma, j, variant):
    """log x at which the decay rule reaches each U (U decreasing from U0).

    The rule is separable: log x = (1/j) int_U^U0 s g(s)/(s^2-1) ds.  With
    t = log(s - 1) the integrand becomes s g(s)/(s + 1), smooth and bounded,
    so 8-point Gauss-Legendre between consecutive samples is exact to
    rounding.
    """
    t = np.log(np.concatenate(([U0 - 1.0], np.asarray(U) - 1.0)))
    mid = 0.5 * (t[:-1] + t[1:])
    half = 0.5 * (t[1:] - t[:-1])
    s = 1.0 + np.exp(mid[:, None] + half[:, None] * _GL_NODES[None, :])
    f = s * ccw_coefficient(s, gamma, variant) / (s + 1.0)
    return -np.cumsum((f * _GL_WEIGHTS).sum(axis=1) * half) / j


def riemann_excess(u, rhs, gamma):
    """Residual of u (1 + (g-1)u/2)^(2/(g-1)) = rhs as a share of its
    tolerance max(RIEMANN_RTOL |rhs|, RIEMANN_ATOL); at most 1 passes."""
    u = np.asarray(u, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    lhs = u * (1.0 + 0.5 * (gamma - 1.0) * u) ** (2.0 / (gamma - 1.0))
    return np.abs(lhs - rhs) / np.maximum(RIEMANN_RTOL * np.abs(rhs), RIEMANN_ATOL)


def _rel(a, b):
    """Max relative difference, treating equal infinities and NaNs as equal."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.abs(a - b) / np.maximum(np.abs(b), 1e-300)
    d = np.where(same, 0.0, d)
    return float(np.max(d)) if d.size else 0.0


def _read_csv(path, header):
    """Read a program CSV independently of the program's own readers."""
    with open(path) as fh:
        first = fh.readline().strip()
    if first != header:
        raise ValueError(f"{path}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# --- transport --------------------------------------------------------------


def transport_history_error(x, p, px, h, k, gamma, j):
    """Max relative error of an integrated history against the closed form,
    over the rows away from breakdown."""
    p_ref, px_ref, I = transport_closed_form(x, h, k, gamma, j)
    keep = I >= EVOLVE_MIN_I
    if not np.any(keep):
        return 0.0
    # For k = 0 the gradient jump is identically zero, so its error is absolute.
    px_err = _rel(px[keep], px_ref[keep]) if k != 0.0 else float(np.max(np.abs(px[keep])))
    return max(_rel(p[keep], p_ref[keep]), px_err)


def check_evolve(params, outcome):
    failures = []
    if outcome.code != 0:
        return [f"exit {outcome.describe()}, expected 0"], {}
    h, k, gamma, j = params["h"], params["k"], params["gamma"], params["j"]
    x_end = params["x_end"]
    data = _read_csv(params["out"], "x,p_jump,px_jump,p_asym,px_asym,p_err,px_err")
    x, p, px, p_asym, px_asym, p_err, px_err = data.T
    err = transport_history_error(x, p, px, h, k, gamma, j)
    if not err <= EVOLVE_RTOL:
        failures.append(f"{CLOSED_FORM_MISS}: {err:.3g} > {EVOLVE_RTOL}")
    if x[0] != 1.0 or p[0] != h or px[0] != k:
        failures.append("first row is not the initial data at x = 1")
    if np.any(np.diff(x) <= 0.0):
        failures.append("x column is not increasing")
    x_star = breakdown_position(k, gamma, j)
    reported = None
    if "breakdown at x* =" in outcome.stdout:
        reported = float(outcome.stdout.split("breakdown at x* =")[1].split()[0])
    if x_star is not None and x_star < x_end * (1.0 - BREAKDOWN_RTOL):
        if reported is None:
            failures.append(f"no breakdown reported; closed form blows up at {x_star:.9g}")
        elif not abs(reported - x_star) <= BREAKDOWN_RTOL * x_star:
            failures.append(f"breakdown at {reported:.9g}, closed form {x_star:.9g}")
        if x[-1] >= x_star:
            failures.append("history continues past the breakdown position")
    elif x_star is None or x_star > x_end * (1.0 + BREAKDOWN_RTOL):
        if reported is not None:
            failures.append(f"spurious breakdown reported at {reported:.9g}")
        if x[-1] != x_end:
            failures.append(f"history ends at {x[-1]!r}, expected x_end = {x_end!r}")
    if k > 0.0:
        if params["asymptote"] == "leading":
            ref_p, ref_px, _ = transport_closed_form(x, h, k, gamma, j, leading=True)
        else:
            ref_p, ref_px = power_laws(x, h, k, gamma, j)
        law_err = max(_rel(p_asym, ref_p), _rel(px_asym, ref_px))
        if not law_err <= LAW_RTOL:
            failures.append(f"reference columns off by {law_err:.3g}")
        if not (_rel(p_err, np.abs(p - p_asym)) <= LAW_RTOL and _rel(px_err, np.abs(px - px_asym)) <= LAW_RTOL):
            failures.append("error columns are not |value - reference|")
    elif not (np.all(np.isnan(p_asym)) and np.all(np.isnan(px_asym))):
        failures.append("reference columns should be NaN for k <= 0")
    return failures, {"transport.max_rel_err": err}


def check_asymptote(params, outcome):
    if outcome.code != 0:
        return [f"exit {outcome.describe()}, expected 0"], {}
    data = _read_csv(params["out"], "x,p_asym,px_asym")
    x, p, px = data.T
    xs = np.geomspace(2.0, params["x_end"], params["samples"])
    ref_p, ref_px = power_laws(xs, params["h"], params["k"], params["gamma"], params["j"])
    failures = []
    if x.shape != xs.shape or _rel(x, xs) > LAW_RTOL:
        failures.append("x grid is not geomspace(2, x_end, samples)")
    else:
        err = max(_rel(p, ref_p), _rel(px, ref_px))
        if not err <= LAW_RTOL:
            failures.append(f"laws off by {err:.3g}")
    return failures, {}


# The bundled reference-error table (README, "Known deviations"): abscissae
# and, for (h, k) = (0.32, 10) and (0.32, 0.28), planar, gamma = 1.4, the
# tabulated |numeric - reference| errors of [p] and [p_x].
REFERENCE_X = (1.476, 4.565, 7.668, 9.563, 13.3, 27.95, 45.57, 65.31, 76.04, 86.34, 96.35,
               99.95, 100.0)
REFERENCE_CASES = (
    (0.32, 10.0,
     (4.332e-2, 4.827e-3, 2.076e-3, 1.464e-3, 8.752e-4, 2.798e-4, 1.332e-4, 7.732e-5,
      6.145e-5, 5.075e-5, 4.301e-5, 4.07e-5, 4.067e-5),
     (9.545e-1, 4.914e-2, 1.593e-2, 9.990e-3, 5.032e-3, 1.100e-3, 4.088e-4, 1.979e-4,
      1.457e-4, 1.129e-4, 9.054e-5, 8.411e-5, 8.403e-5)),
    (0.32, 0.28,
     (3.374e-2, 1.317e-2, 7.448e-3, 5.675e-3, 3.711e-3, 1.373e-3, 6.879e-4, 4.078e-4,
      3.271e-4, 2.716e-4, 2.311e-4, 2.205e-4, 2.190e-4),
     (6.752e-2, 1.885e-2, 8.723e-3, 6.133e-3, 3.482e-3, 9.242e-4, 3.678e-4, 1.832e-4,
      1.366e-4, 1.065e-4, 8.591e-5, 8.072e-5, 7.994e-5)),
)


def check_table1(params, outcome):
    """Table rows against the bundled table, the closed forms, and the
    envelope that test_criterion_01_reference_error_envelope pins."""
    if outcome.code != 0:
        return [f"exit {outcome.describe()}, expected 0"], {}
    data = _read_csv(
        params["out"], "h,k,x,p_err,p_err_ref,p_err_dev,px_err,px_err_ref,px_err_dev"
    )
    failures = []
    n = len(REFERENCE_X)
    if data.shape[0] != n * len(REFERENCE_CASES):
        return [f"{data.shape[0]} rows, expected {n * len(REFERENCE_CASES)}"], {}
    devs = []
    for c, (case_h, case_k, case_p, case_px) in enumerate(REFERENCE_CASES):
        rows = data[c * n:(c + 1) * n]
        h, k, x, p_c, p_r, p_d, px_c, px_r, px_d = rows.T
        if np.any(h != case_h) or np.any(k != case_k) or np.any(x != REFERENCE_X):
            failures.append(f"case {c}: h, k or x column does not match the table")
            continue
        if np.any(p_r != case_p) or np.any(px_r != case_px):
            failures.append(f"case {c}: reference columns do not match the table")
        p_num, px_num, _ = transport_closed_form(x, case_h, case_k, 1.4, 0)
        p_lead, px_lead, _ = transport_closed_form(x, case_h, case_k, 1.4, 0, leading=True)
        err = max(_rel(p_c, np.abs(p_num - p_lead)), _rel(px_c, np.abs(px_num - px_lead)))
        if not err <= TABLE1_RTOL:
            failures.append(f"case {c}: error columns off the closed form by {err:.3g}")
        if max(_rel(p_d, (p_c - p_r) / p_r), _rel(px_d, (px_c - px_r) / px_r)) > LAW_RTOL:
            failures.append(f"case {c}: deviation columns inconsistent")
        devs.append((p_d, px_d))
    if not failures:
        cells = np.concatenate([d for pair in devs for d in pair])
        if not (np.all(np.abs(cells) <= 0.25) and np.sum(np.abs(cells) <= 0.15) >= 41):
            failures.append("deviation envelope (all <= 25%, >= 41/52 within 15%) broken")
        if not np.all(np.abs(devs[0][1]) <= 0.01):
            failures.append("steep-set gradient column not within 1%")
    return failures, {}


# --- characteristic rule ----------------------------------------------------


def ccw_history_error(x, U, U0, gamma, j, variant):
    """Max relative error of x(U) beyond what rounding U to a double allows.

    Near the weak limit U - 1 is only resolved to ulp(U)/(U - 1), which
    moves log x by |d log x / dU| * ulp(U)/2; that allowance is subtracted.
    Returns (error, planar) with planar runs checked for U == U0.
    """
    x = np.asarray(x, dtype=float)
    U = np.asarray(U, dtype=float)
    if j == 0:
        return _rel(U, np.full_like(U, U0)), True
    if np.any(U <= 1.0):
        return math.inf, False
    log_x = ccw_log_x(U, U0, gamma, j, variant)
    err = np.abs(np.expm1(log_x - np.log(x)))
    slope = U * ccw_coefficient(U, gamma, variant) / (j * (U * U - 1.0))
    allowance = slope * 0.5 * np.spacing(U) * 1.01
    return float(np.max(np.maximum(err - allowance, 0.0))), False


def check_ccw(params, outcome):
    if outcome.code != 0:
        return [f"exit {outcome.describe()}, expected 0"], {}
    gamma, j = params["gamma"], params["j"]
    data = _read_csv(params["out"], "x,U,p_jump")
    x, U, p = data.T
    U0 = params["U0"]
    failures = []
    if x[0] != 1.0 or abs(U[0] - U0) > 2.0 * np.spacing(U0):
        failures.append(f"first row ({x[0]!r}, {U[0]!r}) is not (1, U0 = {U0!r})")
    xs = np.geomspace(1.0, params["x_end"], params["samples"])
    if x.size > xs.size or np.any(x != xs[: x.size]):
        failures.append("x column is not a prefix of geomspace(1, x_end, samples)")
    err, planar = ccw_history_error(x, U, U0, gamma, j, params["variant"])
    tol = 4.0 * np.finfo(float).eps if planar else CCW_RTOL
    if not err <= tol:
        failures.append(f"x(U) vs separable quadrature: {err:.3g} > {tol:.3g}")
    p_ref = 2.0 * (U * U - 1.0) / (gamma + 1.0)
    if _rel(p, p_ref) > LAW_RTOL:
        failures.append("p_jump column is not 2 (U^2 - 1)/(gamma + 1)")
    if x.size < xs.size and not U[-1] - 1.0 < 1e-9:
        failures.append(f"run stopped at x = {x[-1]:.6g} with U - 1 = {U[-1] - 1.0:.3g}")
    return failures, {"ccw.max_rel_err": 0.0 if planar else err}


# --- wavefront --------------------------------------------------------------


class ReferencePulse:
    """Independent v(tau), its integral B(tau) and v'(0) for one pulse."""

    def __init__(self, kind, v0, tau0=1.0, table=None):
        self.kind, self.tau0 = kind, tau0
        if kind == "half-sine":
            w = math.pi / tau0
            self.v = lambda t: v0 * np.sin(w * t)
            self.B = lambda t: v0 / w * (1.0 - np.cos(w * t))
            self.vdot0 = v0 * w
        elif kind == "ramp":  # slope m = v0, v = m tau (1 - tau/tau0)
            self.v = lambda t: v0 * t * (1.0 - t / tau0)
            self.B = lambda t: v0 * (0.5 * t**2 - t**3 / (3.0 * tau0))
            self.vdot0 = v0
        else:
            interp = PchipInterpolator(table[0], table[1])
            self.v = interp
            self.B = interp.antiderivative()
            self.vdot0 = float(interp.derivative()(0.0))
        self.v0 = v0
        self.b = float(self.B(tau0))

    def exact_tau(self, x, gamma, j):
        """Closed-form smallest equal-area root, or None for table pulses."""
        J = ray_integral(x, j)
        if self.kind == "half-sine":
            w = math.pi / self.tau0
            return np.arccos(4.0 / ((gamma + 1.0) * w * self.v0 * J) - 1.0) / w
        if self.kind == "ramp":
            # A s^2 + (1/3 - 2A) s + (A - 1/2) = 0 with s = tau/tau0; the
            # smaller root written without cancellation.
            A = 0.25 * (gamma + 1.0) * self.v0 * self.tau0 * J
            s = 2.0 * (A - 0.5) / (2.0 * A - 1.0 / 3.0 + np.sqrt(1.0 / 9.0 + 2.0 * A / 3.0))
            return s * self.tau0
        return None

    def area_residual(self, x, tau, gamma, j):
        """|(g+1)/4 v^2 J - B| at the fitted label, as a share of b."""
        J = ray_integral(x, j)
        v = self.v(tau)
        return np.abs(0.25 * (gamma + 1.0) * v * v * J - self.B(tau)) / self.b


def fit_errors(ref, x, tau, gamma, j):
    """(max tau relative error or 0 for tables, max area residual / b)."""
    exact = ref.exact_tau(x, gamma, j)
    tau_err = 0.0 if exact is None else _rel(tau, exact)
    return tau_err, float(np.max(ref.area_residual(x, tau, gamma, j)))


def check_fit(params, outcome):
    if outcome.exc is not None:
        return [f"raised {outcome.describe()}"], {}
    gamma, j = params["gamma"], params["j"]
    ref = ReferencePulse(params["pulse"], params["v0"], 1.0, params.get("table"))
    res = outcome.value
    failures = []
    if _rel(res["b"], ref.b) > PULSE_B_RTOL:
        failures.append(f"pulse integral {res['b']!r} vs {ref.b!r}")
    x_form = ray_integral_inverse(2.0 / ((gamma + 1.0) * ref.vdot0), j)
    if _rel(res["x_form"], x_form) > 1e-9:
        failures.append(f"formation distance {res['x_form']!r} vs {x_form!r}")
    x, tau, u = res["x"], res["tau"], res["u_jump"]
    if x.shape != res["grid"].shape or np.any(x != res["grid"]):
        return failures + ["fitted positions are not the requested grid"], {}
    tau_err, area = fit_errors(ref, x, tau, gamma, j)
    if not tau_err <= TAU_RTOL:
        failures.append(f"tau_minus vs closed form: {tau_err:.3g} > {TAU_RTOL}")
    if not area <= AREA_TOL:
        failures.append(f"equal-area residual {area:.3g} b > {AREA_TOL} b")
    if _rel(u, ref.v(tau) * x ** (-0.5 * j)) > LAW_RTOL:
        failures.append("u_jump is not v(tau_minus) psi(x)")
    J = ray_integral(x, j)
    u_law = np.sqrt(4.0 * res["b"] / ((gamma + 1.0) * J)) * x ** (-0.5 * j)
    if _rel(res["u_wngo"], u_law) > LAW_RTOL:
        failures.append("wngo_decay strength law off")
    excess = float(np.max(riemann_excess(res["u_simple"], u, gamma)))
    if not excess <= 1.0:
        failures.append(f"simple-wave identity residual {excess:.3g} x its tolerance")
    a = 1.0 + 0.5 * (gamma - 1.0) * res["u_simple"]
    rho, pr, snd = res["state"]
    if max(_rel(snd, a), _rel(rho, a ** (2.0 / (gamma - 1.0))), _rel(pr, rho**gamma / gamma)) > 1e-12:
        failures.append("ruw_state is not the isentropic simple-wave state")
    return failures, {"wavefront.max_tau_rel_err": tau_err, "wavefront.max_area_residual": area}


# --- compare-methods ----------------------------------------------------------

PRECURSOR_TARGETS = {"planar": -0.5, "cylindrical": -0.75, "spherical": -1.0}
ACOUSTIC_TARGETS = {"planar": 0.0, "cylindrical": -0.5, "spherical": -1.0}


def check_compare(params, outcome):
    """Criterion-08 gates of the test suite, plus the echoed inputs."""
    if outcome.code != 0:
        return [f"exit {outcome.describe()}, expected 0"], {}
    with open(params["out"]) as fh:
        report = json.load(fh)
    h, k, gamma = params["h"], params["k"], 1.4
    failures = []
    if report.get("status") != "ok":
        failures.append(f"status {report.get('status')!r}")
    if (report.get("h"), report.get("k"), report.get("x_end")) != (h, k, 1e12):
        failures.append("report does not echo h, k and x_end")
    if set(report.get("geometries", {})) != set(PRECURSOR_TARGETS):
        return failures + ["report lacks a geometry"], {}
    U0 = mach_from_p_jump(h, gamma)
    for name, e in report["geometries"].items():
        j = {"planar": 0, "cylindrical": 1, "spherical": 2}[name]
        gates = {
            "precursor_gap": e["pairs"]["precursor_gap"],
            "acoustic_gap": e["pairs"]["acoustic_gap"],
            "transport precursor": e["transport"]["precursor_exponent"] - PRECURSOR_TARGETS[name],
            "wngo": e["wngo"]["exponent"] - PRECURSOR_TARGETS[name],
            "transport acoustic": e["transport"]["acoustic_exponent"] - ACOUSTIC_TARGETS[name],
            "ccw generalized": e["ccw"]["generalized_exponent"] - ACOUSTIC_TARGETS[name],
            "ccw classic": e["ccw"]["classic_exponent"] - ACOUSTIC_TARGETS[name],
        }
        for gate, value in gates.items():
            if not abs(value) <= 0.02:
                failures.append(f"{name} {gate}: {value:+.4f} outside 0.02")
        ratio = e["simple_wave"]["quadratic_ratio"]
        if not 70.0 <= ratio <= 130.0:
            failures.append(f"{name} simple-wave quadratic ratio {ratio:.4g}")
        if abs(e["ccw"]["U0"] - U0) > 1e-14 * U0:
            failures.append(f"{name} ccw U0 {e['ccw']['U0']!r} vs {U0!r}")
        x_form = ray_integral_inverse(2.0 / ((gamma + 1.0) * h * math.pi), j)
        if _rel(e["wngo"]["formation_distance"], x_form) > 1e-12:
            failures.append(f"{name} formation distance off")
        if _rel(e["wngo"]["pulse_integral"], 2.0 * h / math.pi) > 1e-12:
            failures.append(f"{name} pulse integral off")
    return failures, {}


# --- malformed input ----------------------------------------------------------


def check_malformed(params, outcome):
    """Documented contract: bad input exits 2 with no traceback."""
    if outcome.code == 2:
        return [], {}
    return [f"{params['defect']}: {outcome.describe()}, documented exit 2"], {}


# --- known defects of the seed commit -------------------------------------------

# Misses that the workloads reach at the seed commit.  An op whose miss is
# explained by one of these is scored as a known defect: it lowers ok_frac
# and is listed by name, but does not count as a new failure.  An op that
# starts passing simply counts as passed.
SEED_MALFORMED = {"nan-h": "raised ValueError", "nan-u0": "raised ValueError", "nan-v0": "exit 3"}
SMALL_K = 0.05
SMALL_K_RTOL = 1e-7
CLOSED_FORM_MISS = "history vs closed form"


def known_defect(kind, params, outcome, failures, stats):
    """Label of the seed-commit defect that explains a missed op, or None."""
    if kind == "malformed":
        seen = SEED_MALFORMED.get(params["defect"])
        return f"{params['defect']}: {seen}, not exit 2" if seen == outcome.describe() else None
    if kind != "evolve":
        return None
    x_star = breakdown_position(params["k"], params["gamma"], params["j"])
    if (outcome.code == 3 and x_star is not None and x_star < params["x_end"]
            and "integration failed" in outcome.stderr):
        # README: the integrator detects and reports breakdown.  For small
        # negative k the blow-up is far out and the step size underflows
        # before the gradient reaches the detection threshold.
        return "breakdown far out: solver failure (exit 3), not a reported breakdown"
    if (abs(params["k"]) < SMALL_K and len(failures) == 1
            and failures[0].startswith(CLOSED_FORM_MISS)
            and stats.get("transport.max_rel_err", math.inf) <= SMALL_K_RTOL):
        return f"closed-form error above {EVOLVE_RTOL} at |k| < {SMALL_K}"
    return None


_CHECKS = {
    "compare": check_compare,
    "evolve": check_evolve,
    "ccw": check_ccw,
    "asymptote": check_asymptote,
    "table1": check_table1,
    "malformed": check_malformed,
}


def check(kind, params, outcome):
    """(failures, stats) of one op; an output that cannot be read is a miss."""
    fn = check_fit if kind.startswith("fit:") else _CHECKS[kind]
    try:
        return fn(params, outcome)
    except Exception as exc:  # missing file, wrong shape: the op failed
        return [f"output could not be checked: {exc!r}"], {}

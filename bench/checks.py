"""Output checks against closed forms, written independently of spinsphere.

Every checker takes parsed program output and returns a list of failure
messages; an empty list means the output is correct.  Only the standard
library is used, so no check can share a code path with the program it
checks.  Statistical tolerances scale as 1/sqrt(n) with the trial count.
"""

from __future__ import annotations

import math

TSIRELSON = 2.0 * math.sqrt(2.0)
_LIMIT = 5  # messages kept per checker; one is enough to fail an operation


def saw(eta: float) -> float:
    """The SO(3) saw on [0, 2 pi], which is also the sign model's correlation on [0, pi]."""
    if eta <= math.pi:
        return -1.0 + 2.0 * eta / math.pi
    return 3.0 - 2.0 * eta / math.pi


def _near(errors, label, got, want, tol):
    if not abs(got - want) <= tol:  # also catches NaN
        errors.append(f"{label}: got {got!r}, want {want!r} within {tol:g}")


def _rows(errors, rows, count, label):
    if len(rows) != count:
        errors.append(f"{label}: {len(rows)} rows, want {count}")
        return False
    return True


def curve(rows, grid_deg, n_trials: int) -> list:
    """`simulate` rows against the sign-model saw, -cos and the exact -1."""
    errors = []
    if not _rows(errors, rows, len(grid_deg), "curve"):
        return errors
    root_n = math.sqrt(n_trials)
    for row, deg in zip(rows, grid_deg):
        eta = math.radians(deg)
        at = f"curve {deg:g} deg"
        _near(errors, f"{at} eta_deg", row["eta_deg"], deg, 1e-9)
        # 5 sigma of a +-1 mean; exact at 0 and 180 degrees, where stderr is 0
        _near(errors, f"{at} raw_mc", row["raw_mc"], saw(eta), 5.0 / root_n)
        _near(errors, f"{at} std_score", row["std_score"], -math.cos(eta), 1e-12)
        _near(errors, f"{at} su2_ref", row["su2_ref"], -math.cos(eta), 1e-12)
        _near(errors, f"{at} so3_ref", row["so3_ref"], saw(eta), 1e-12)
        _near(errors, f"{at} scalar_form", row["scalar_form"], -1.0, 0.0)
        # |mean lam| * sin(eta), and |mean lam| is a 1/sqrt(n) fluctuation
        if not 0.0 <= row["residual"] <= 5.0 * math.sin(eta) / root_n:
            errors.append(f"{at} residual: {row['residual']!r} above 5 sin(eta)/sqrt(n)")
    return errors[:_LIMIT]


def oracle(rows, grid_deg) -> list:
    """`oracle` rows against the exact sign-model law -1 + 2 theta/pi."""
    errors = []
    if not _rows(errors, rows, len(grid_deg), "oracle"):
        return errors
    for row, deg in zip(rows, grid_deg):
        _near(errors, f"oracle {deg:g} deg theta_deg", row["theta_deg"], deg, 1e-9)
        _near(errors, f"oracle {deg:g} deg", row["oracle"], saw(math.radians(deg)), 1e-6)
    return errors[:_LIMIT]


def distances(rows) -> list:
    """`distances` at its default grid, 0..360 degrees in 1 degree steps."""
    errors = []
    if not _rows(errors, rows, 361, "distances"):
        return errors
    for deg, row in enumerate(rows):
        eta = math.radians(deg)
        _near(errors, f"distances {deg} deg eta", row["eta"], deg, 1e-9)
        _near(errors, f"distances {deg} deg su2", row["su2"], -math.cos(eta), 1e-12)
        _near(errors, f"distances {deg} deg so3", row["so3"], saw(eta), 1e-12)
    return errors[:_LIMIT]


def chsh(payload, kind: str, want: float, tol: float) -> list:
    """`chsh` JSON: the reported maximum and the Tsirelson bound."""
    errors = []
    if payload.get("kind") != kind:
        errors.append(f"chsh: kind {payload.get('kind')!r}, want {kind!r}")
    _near(errors, f"chsh {kind} max_abs_chsh", payload["max_abs_chsh"], want, tol)
    _near(errors, f"chsh {kind} bound", payload["bound"], TSIRELSON, 1e-12)
    return errors


def torsion_report(report, points, h: float) -> list:
    """`torsion-check` JSON: every given point surveyed and the curvature flat."""
    errors = []
    if report["h"] != h:
        errors.append(f"torsion-check: h {report['h']!r}, want {h!r}")
    if not _rows(errors, report["points"], len(points), "torsion-check points"):
        return errors
    for record, point in zip(report["points"], points):
        if list(record["point"]) != list(point):
            errors.append(f"torsion-check: point {record['point']} is not {list(point)}")
    curvature = report["summary"]["max_abs_curvature"]
    if not curvature <= 1e-6:
        errors.append(f"torsion-check: max_abs_curvature {curvature!r} above 1e-6")
    return errors[:_LIMIT]


def _epsilon(a: int, b: int, c: int) -> int:
    return (a - b) * (b - c) * (c - a) // 2


def frame_torsion(components) -> list:
    """Frame-leg torsion components T[c][a][b] against the constant -2 eps_abc."""
    errors = []
    for c in range(3):
        for a in range(3):
            for b in range(3):
                want = -2.0 * _epsilon(c, a, b)
                _near(errors, f"frame torsion [{c}{a}{b}]", float(components[c][a][b]), want, 1e-6)
    return errors[:_LIMIT]


def sectional(values) -> list:
    """Round-metric sectional curvatures, +1 for every plane at every point."""
    errors = []
    for k, triple in enumerate(values):
        for plane, value in enumerate(triple):
            _near(errors, f"control point {k} plane {plane}", float(value), 1.0, 1e-5)
    return errors[:_LIMIT]

"""Classical RK4, the fourth-order reference the tests compare RKC against, and
``rhs`` and ``step`` on a ``State`` through a run's ``_Stepper``: the
package's right sides of every evolution form, stepped outside a run."""

import numpy as np

from xdiff.grid import Field, all_finite
from xdiff.integrator import RunMode, _apply_positivity, _Stepper
from xdiff.model import NumericalFault, State, _unchecked


def rk4(u, dt, f, f_u, stages=4):
    """Classical RK4 from the first stage ``f_u = f(u)``, writing neither input.

    ``stages`` is always 4; it only matches ``integrator._rkc``'s signature,
    so a test can patch this scheme into the run loop.
    """
    k2 = f(u + 0.5 * dt * f_u)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + dt / 6.0 * (f_u + 2.0 * (k2 + k3) + k4)


def rhs(s, p, mode=RunMode()):
    """Time derivatives (dA/dt, drho/dt) of the selected evolution form at ``s``; in the
    sqrt form (dA/dt, deta/dt) at eta = sqrt(max(rho, 0)), the state a sqrt run steps."""
    stepper = _Stepper(s.grid, p, mode)
    with _unchecked():
        d = stepper.f(stepper.stepped(np.stack((s.A.values, s.rho.values))))
    return Field(s.grid, d[0]), Field(s.grid, d[1])


def step(s, p, dt, mode=RunMode()):
    """One RK4 step of the selected evolution form, then a run's post-step: the
    sqrt form's eta squared back, the finiteness check and the positivity clip."""
    grid = s.grid
    stepper = _Stepper(grid, p, mode)
    v = stepper.stepped(np.stack((s.A.values, s.rho.values)))
    with _unchecked():
        u = rk4(v, dt, stepper.f, stepper.f(v))
        if stepper.sqrt:
            u[1] *= u[1]
        if not all_finite(u):
            raise NumericalFault("non-finite state after step")
        u, _, _ = _apply_positivity(u, grid.dx)
    return State(t=s.t + dt, A=Field(grid, u[0]), rho=Field(grid, u[1]))

"""End-to-end coverage on 3-D box cylinders (2-D cross-sections) and
external (file-style) cross-section spectra."""

import math

import numpy as np
import pytest

from kscontrol.lebeau_robbiano import BoundaryGamma, InternalPoint, mass_matrix, run_lr
from kscontrol.modal import evolve_controlled, state_nd
from kscontrol.pointwise import PointSpec
from kscontrol.spectrum import Box, External, SpectrumSpec


def spec_3d(nu=0, K_x=6, J_y=6):
    return SpectrumSpec(a="pi", nu=nu, cross_section=Box(["pi", "pi"]), K_x=K_x, J_y=J_y)


def test_3d_rates_tensor_identity():
    spec = spec_3d()
    # mu list starts 2, 5, 5, 8 for the unit-pi square
    assert spec.mus[:4] == pytest.approx([2.0, 5.0, 5.0, 8.0])
    s = (2 * math.pi / spec.a_float) ** 2 + spec.mu(3)
    assert spec.rate_matrix()[1, 2] == pytest.approx(-s * s, rel=1e-12)


def test_3d_free_decay_single_mode():
    spec = spec_3d()
    c = np.zeros((6, 6))
    c[1, 2] = 1.0
    v = evolve_controlled(state_nd(spec, c), None, (0.0, 0.01))
    assert v.coeffs[1, 2] == pytest.approx(math.exp(spec.rate_matrix()[1, 2] * 0.01), rel=1e-12)


def test_3d_boundary_tensor_run():
    spec = spec_3d()
    rng = np.random.default_rng(3)
    c = np.zeros((6, 6))
    c[:3, :3] = rng.standard_normal((3, 3))
    res = run_lr(c, 1.0, spec, BoundaryGamma(omega=None), rho=0.4, beta=4)
    assert res.final_rel_norm <= 1e-6


def test_3d_boundary_gramian_box_omega():
    spec = spec_3d()
    c = np.zeros((6, 6))
    c[0, 0] = 1.0
    c[1, 1] = -0.5
    res = run_lr(
        c, 1.0, spec,
        BoundaryGamma(omega=((0.3, 1.2), (0.5, 2.0))),
        rho=0.4, beta=4,
    )
    assert res.final_rel_norm <= 1e-6
    assert res.gramian_reports[0].min_eig > 0


def test_3d_internal_direct_run():
    spec = spec_3d()
    c = np.zeros((6, 6))
    c[0, 0] = 1.0
    point = PointSpec.algebraic([1, 2, -1], root_index=0)
    res = run_lr(c, 1.0, spec, InternalPoint(point=point, omega=None))
    assert res.final_rel_norm <= 1e-6


def test_3d_rho_constraint():
    from kscontrol.errors import BadRho
    from kscontrol.lebeau_robbiano import build_schedule

    spec = spec_3d()
    # N - 1 = 2: rho must sit inside (0, 1/2)
    with pytest.raises(BadRho):
        build_schedule(1.0, rho=0.6, beta=4, spec=spec)
    sched = build_schedule(1.0, rho=0.4, beta=4, spec=spec)
    assert sched.windows[0].gamma == 4


# ---------------------------------------------------------------------------
# external cross-section spectra
# ---------------------------------------------------------------------------

def ext_spec(nu=0):
    return SpectrumSpec(
        a="pi", nu=nu, cross_section=External([1.0, 4.0, 9.0, 16.0, 25.0, 36.0]),
        K_x=6, J_y=6,
    )


def test_external_tensor_run_works():
    spec = ext_spec()
    c = np.zeros((6, 6))
    c[0, 0] = 1.0
    c[2, 1] = 0.3
    res = run_lr(c, 1.0, spec, BoundaryGamma(omega=None), rho=0.5, beta=4)
    assert res.final_rel_norm <= 1e-6


def test_external_disables_gramian_mode():
    # an External spectrum has no eigenfunctions: whatever needs them meets
    # the one Box gate of the spec
    from kscontrol.modal import nonlinear_rhs

    spec = ext_spec()
    needs_box = "needs a Box cross-section"
    with pytest.raises(ValueError, match=needs_box):
        mass_matrix(spec, (0.3, 1.2), 3)
    c = np.zeros((6, 6))
    c[0, 0] = 1.0
    with pytest.raises(ValueError, match=needs_box):
        run_lr(c, 1.0, spec, BoundaryGamma(omega=(0.3, 1.2)), rho=0.5, beta=4)
    with pytest.raises(ValueError, match=needs_box):
        nonlinear_rhs(state_nd(spec, c))


def test_external_nonlinear_needs_box():
    from kscontrol.modal import nonlinear_rhs

    spec = ext_spec()
    with pytest.raises(ValueError):
        nonlinear_rhs(state_nd(spec, np.zeros((6, 6))))


def test_3d_nonlinear_fixed_point():
    from kscontrol.lebeau_robbiano import BoundaryGamma
    from kscontrol.nonlinear import fixed_point

    spec = SpectrumSpec(a="pi", nu=0, cross_section=Box(["pi", "pi"]), K_x=4, J_y=4)
    u0 = np.zeros((4, 4))
    u0[0, 0] = 1e-3
    res = fixed_point(u0, 1.0, spec, BoundaryGamma(None), rho=0.4, beta=4, sim_steps=1000)
    assert res.stop_reason in ("tol", "floor")
    assert res.nonlinear_final_rel <= 1e-5


def test_3d_internal_gramian_subomega():
    spec = spec_3d()
    c = np.zeros((6, 6))
    c[0, 0] = 1.0
    point = PointSpec.algebraic([1, 2, -1], root_index=0)
    res = run_lr(
        c, 1.0, spec,
        InternalPoint(point=point, omega=((0.3, 1.2), (0.5, 2.0))),
        rho=0.4, beta=4,
    )
    assert res.final_rel_norm <= 1e-6

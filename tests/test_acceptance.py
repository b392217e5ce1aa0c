"""End-to-end acceptance gate.

Each test prints one ``criterion N: PASS/FAIL`` line with the measured value
and its tolerance, then asserts.  The heavy simulation artifacts (measurement
tensors and extracted coefficient tensors) are shared through module-scoped
fixtures so the whole gate runs in a few minutes.
"""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp

from roomtf import pipeline, specfun, synthesis, translation
from roomtf.geometry import shell_array, sphere_array
from roomtf.modal import WaveContext, truncation_order
from roomtf.pipeline import load_config, run_extract, run_measure, sweep_errors
from roomtf.recording import HoMicSpec, make_mic_array, mic_radius
from roomtf.rtf import reconstruct_rtf_many, relative_error

from oracles import (
    cartesian_to_spherical_arrays,
    direct_field,
    eval_interior_field,
    harmonics,
    rtf_oracle_many,
    unitary_U,
    wigner_3j,
)
from test_translation import racah_exact

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_ball_points(rng, count, radius):
    pts = rng.standard_normal((count, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts * radius * rng.uniform(0, 1, count)[:, None] ** (1 / 3)


def random_pairs(count, radius=0.4, seed=7):
    rng = np.random.default_rng(seed)
    receivers = random_ball_points(rng, count, radius)
    sources = random_ball_points(rng, count, radius)
    return receivers, sources


def end_to_end_error(cfg, cset, frequency, receivers, sources):
    exp = pipeline.validate_config(cfg)
    ctx = exp.context(frequency)
    truth = rtf_oracle_many(exp.room, receivers, sources + np.asarray(cfg.regions.offset), ctx)
    estimate = reconstruct_rtf_many(cset, receivers, sources, frequency)
    return relative_error(truth, estimate), truth, estimate


@pytest.fixture(scope="module")
def separated_cfg():
    cfg = load_config(CONFIG_DIR / "fig3_nonoverlap.yaml")
    grid = tuple(np.arange(200.0, 1000.0 + 1e-9, 100.0)) + (1600.0,)
    return replace(cfg, signal=replace(cfg.signal, frequencies=grid))


@pytest.fixture(scope="module")
def separated_cset(separated_cfg):
    return run_extract(separated_cfg, run_measure(separated_cfg))


@pytest.fixture(scope="module")
def overlap_cfg():
    cfg = load_config(CONFIG_DIR / "fig6_overlap.yaml")
    return replace(cfg, signal=replace(cfg.signal, frequencies=(900.0,)))


@pytest.fixture(scope="module")
def overlap_cset(overlap_cfg):
    return run_extract(overlap_cfg, run_measure(overlap_cfg))


def test_criterion_1_truncation_order():
    k = WaveContext(1000.0).k
    got = truncation_order(k, 0.4)
    report(1, got == 10, f"truncation order at 1 kHz / 0.4 m = {got} (want exactly 10)")


def test_criterion_2_array_conditioning():
    # coarse 5 Hz grid plus fine 0.5 Hz windows around the two worst bands
    grid = np.unique(np.concatenate([
        np.arange(200.0, 1000.0 + 1e-9, 5.0),
        np.arange(410.0, 450.0 + 1e-9, 0.5),
        np.arange(840.0, 875.0 + 1e-9, 0.5),
    ]))
    shell = shell_array(121, 0.4, 0.3, 12345)
    sphere = sphere_array(121, 0.4)
    kappa_shell, kappa_sphere = [], []
    for f in grid:
        ctx = WaveContext(f)
        order = truncation_order(ctx.k, 0.4)
        for array, kappas in ((shell, kappa_shell), (sphere, kappa_sphere)):
            T = synthesis.build_T(specfun.angular_table(order, array), order, ctx)
            kappas.append(synthesis.condition_number(T))
    kappa_shell = np.array(kappa_shell)
    kappa_sphere = np.array(kappa_sphere)
    details = []
    ok = True
    for center, lo, hi in ((420.0, 410.0, 450.0), (850.0, 840.0, 875.0)):
        window = (grid >= lo) & (grid <= hi)
        idx = np.flatnonzero(window)[np.argmax(kappa_sphere[window])]
        ratio = kappa_sphere[idx] / kappa_shell[idx]
        ok = ok and ratio >= 10.0
        details.append(f"peak near {center:g} Hz at {grid[idx]:g} Hz ratio {ratio:.1f}x")
    report(2, ok, "; ".join(details) + " (want >= 10x)")


def test_criterion_3_separated_regions_error(separated_cfg, separated_cset):
    receivers, sources = random_pairs(50)
    err, _, _ = end_to_end_error(separated_cfg, separated_cset, 900.0,
                                 receivers, sources)
    report(3, err < 0.05,
           f"separated regions, 900 Hz, 50 random pairs: E = {err:.4f} (want < 0.05)")


def test_criterion_4_overlapping_regions_error(overlap_cfg, overlap_cset):
    receivers, sources = random_pairs(50)
    err, _, _ = end_to_end_error(overlap_cfg, overlap_cset, 900.0,
                                 receivers, sources)
    report(4, err < 0.05,
           f"overlapping regions, 900 Hz, 50 random pairs: E = {err:.4f} (want < 0.05)")


def test_criterion_5_broadband_error_shape(separated_cfg, separated_cset):
    errors = sweep_errors(separated_cfg, separated_cset, radii=(0.4,))[0.4]
    freqs = separated_cset.frequencies
    in_band = freqs <= 1000.0
    median = float(np.median(errors[in_band]))
    high = float(errors[freqs == 1600.0][0])
    ok = median < 0.05 and high > 5 * median
    report(5, ok,
           f"median E(200-1000 Hz) = {median:.4f} (want < 0.05); "
           f"E(1600 Hz) = {high:.3f} (want > 5x median = {5 * median:.4f})")


def test_criterion_6_free_field_null(separated_cfg):
    ff_cfg = load_config(CONFIG_DIR / "freefield.yaml")
    ff_cfg = replace(ff_cfg, signal=replace(ff_cfg.signal, frequencies=(900.0,)))
    ff_cset = run_extract(ff_cfg, run_measure(ff_cfg))
    # reverberant reference at the same margin-0 solver settings
    rv_cfg = replace(
        separated_cfg,
        signal=replace(separated_cfg.signal, frequencies=(900.0,)),
        solver=replace(separated_cfg.solver, order_margin=0),
    )
    rv_cset = run_extract(rv_cfg, run_measure(rv_cfg))
    norm_ff = np.linalg.norm(ff_cset.alpha[0])
    norm_rv = np.linalg.norm(rv_cset.alpha[0])
    ratio = norm_ff / norm_rv

    receivers, sources = random_pairs(20, seed=7)
    estimate = reconstruct_rtf_many(ff_cset, receivers, sources, 900.0)
    offset = np.asarray(ff_cfg.regions.offset)
    ctx = WaveContext(900.0)
    direct = np.array([
        direct_field(receivers[g], sources[g] + offset, ctx)
        for g in range(20)
    ])
    worst = float(np.max(np.abs(estimate - direct) / np.abs(direct)))
    ok = ratio < 0.01 and worst < 0.01
    report(6, ok,
           f"free-field |alpha| ratio = {ratio:.4%} (want < 1%); "
           f"worst direct-field deviation over 20 pairs = {worst:.4%} (want < 1%)")


def complex_s_hat(local_order, col_order, displacement, ctx):
    """The complex S-hat block conj(U_A) R U_V^T of the library's real block R."""
    real = translation.s_hat_blocks(local_order, col_order, displacement, ctx)[0]
    return np.conj(unitary_U(local_order)) @ real @ unitary_U(col_order).T


def test_criterion_7_translation_field_consistency():
    ctx = WaveContext(700.0)
    rng = np.random.default_rng(17)
    order = 4
    local_order = 14
    worst = 0.0
    centers = random_ball_points(rng, 5, 0.4)
    for _ in range(20):
        n_coeff = (order + 1) ** 2
        alpha = rng.standard_normal(n_coeff) + 1j * rng.standard_normal(n_coeff)
        for center in centers:
            gamma = complex_s_hat(local_order, order, center, ctx) @ alpha
            for _ in range(3):
                probe = rng.uniform(-0.03, 0.03, 3)
                f_global = eval_interior_field(alpha, center + probe, ctx)
                f_local = eval_interior_field(gamma, probe, ctx)
                worst = max(worst, abs(f_global - f_local) / abs(f_global))
    identity_err = float(np.max(np.abs(
        complex_s_hat(4, 4, np.zeros(3), ctx) - np.eye(25)
    )))
    ok = worst < 1e-6 and identity_err < 1e-12
    report(7, ok,
           f"field consistency worst rel dev = {worst:.2e} (want < 1e-6); "
           f"zero-shift identity dev = {identity_err:.2e} (want < 1e-12)")


def test_criterion_8_wigner_oracle():
    worst = 0.0
    checked = 0
    for j1 in range(11):
        for j2 in range(11):
            for j3 in range(abs(j1 - j2), min(10, j1 + j2) + 1):
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(-j2, j2 + 1):
                        m3 = -m1 - m2
                        if abs(m3) > j3:
                            continue
                        got = wigner_3j(j1, j2, j3, m1, m2, m3)
                        want = racah_exact(j1, j2, j3, m1, m2, m3)
                        worst = max(worst, abs(got - want))
                        checked += 1
    # selection-rule violations must be exact zeros
    zeros_exact = (
        wigner_3j(1, 1, 3, 0, 0, 0) == 0.0
        and wigner_3j(2, 2, 2, 1, 0, 0) == 0.0
        and wigner_3j(1, 1, 1, 0, 0, 0) == 0.0
    )
    ok = worst < 1e-10 and zeros_exact
    report(8, ok,
           f"{checked} symbols with j <= 10: worst abs dev = {worst:.2e} "
           f"(want < 1e-10); selection-rule zeros exact = {zeros_exact}")


def test_criterion_9_forward_backward_consistency():
    ctx = WaveContext(700.0)
    spec = HoMicSpec(3, mic_radius(3, 1000.0), 49, 5)
    mics = make_mic_array(9, 0.4 - spec.local_radius, spec)
    n_r = truncation_order(ctx.k, 0.4)
    Tp = translation.build_T_prime(mics, 3, n_r, ctx)
    rng = np.random.default_rng(97)
    n_cols = (n_r + 1) ** 2
    alpha_true = rng.standard_normal(n_cols) + 1j * rng.standard_normal(n_cols)
    gamma = (Tp @ alpha_true).reshape(9, 16)
    alpha, _ = translation.solve_alpha_all(Tp, gamma, 1e-10)
    rel = np.linalg.norm(alpha - alpha_true) / np.linalg.norm(alpha_true)
    report(9, rel < 1e-8,
           f"forward-backward recovery at 700 Hz: rel error = {rel:.2e} (want < 1e-8)")


def test_criterion_10_mode_matching_fidelity():
    ctx = WaveContext(500.0)
    n_s = truncation_order(ctx.k, 0.4)
    speakers = shell_array(121, 0.4, 0.3, 12345)
    T = synthesis.build_T(specfun.angular_table(10, speakers), 10, ctx)
    directions = np.random.default_rng(3).standard_normal((20, 3))
    _, theta, phi = cartesian_to_spherical_arrays(directions)
    probes = 1.5 * directions / np.linalg.norm(directions, axis=1)[:, None]
    W, _ = synthesis.solve_all_weights(T, num_modes=specfun.mode_count(n_s), cutoff=1e-10)
    h = sp.spherical_jn(np.arange(n_s + 1), ctx.k * 1.5) + 1j * sp.spherical_yn(
        np.arange(n_s + 1), ctx.k * 1.5
    )
    # real weight column s emits i h_n S_s, with S = U^H Y
    S = np.conj(unitary_U(n_s)).T @ harmonics(n_s, theta, phi)
    worst = 0.0
    for flat, n in enumerate(specfun.harmonic_orders(n_s).tolist()):
        w = W[:, flat]
        dists = np.linalg.norm(probes[:, None, :] - speakers[None, :, :], axis=2)
        field = (np.exp(1j * ctx.k * dists) / (4 * np.pi * dists)) @ w
        expected = 1j * h[n] * S[flat]
        rel = np.linalg.norm(field - expected) / np.linalg.norm(expected)
        worst = max(worst, rel)
    report(10, worst < 0.01,
           f"synthesized modes to order {n_s} at 1.5 m: worst rel error = "
           f"{worst:.4f} (want < 0.01)")

"""Straight-line reference physics for closure comparisons.

Each reference mirrors one template's forward model with plain loops and
scipy helpers.  It shares the template's calibration data (masks, patterns,
kernels, sampling sets) but none of its operator code.  The kernel and
diagnosis references below are the unoptimized forms the program's own
versions must match exactly.
"""

import math

import numpy as np
from scipy import ndimage
from scipy.linalg import dft

from opgraph import calibration, protocol, triad
from opgraph.calibration import CalibConfig
from opgraph.metrics import CI_PERCENTILES, MetricError, psnr, recovery_ratio, scene_metrics
from opgraph.registry import default_registry
from opgraph.solvers import pin_step, reconstruct
from opgraph.templates import apply_noise, make_phantoms
from opgraph.tensor import Rng, Tensor


def _node_params(template, node_id: str) -> dict:
    for node in template.spec.nodes:
        if node.node_id == node_id:
            return node.params
    raise KeyError(node_id)


def cassi_reference(template):
    cube = _node_params(template, "mask")["m"].numpy()
    disp = _node_params(template, "disperse")
    a1 = disp["a1"]
    alpha = math.radians(disp["alpha_deg"])

    def forward(x):
        masked = cube * x.numpy()
        out = np.zeros(masked.shape[:2])
        for b in range(masked.shape[2]):
            s = a1 * b
            out += ndimage.shift(
                masked[:, :, b], (s * math.sin(alpha), s * math.cos(alpha)),
                order=1, mode="constant", cval=0.0, prefilter=False,
            )
        return out

    return forward


def cacti_reference(template):
    masks = _node_params(template, "mask")["m"].numpy()

    def forward(x):
        cube = x.numpy()
        out = np.zeros(cube.shape[:2])
        for f in range(cube.shape[2]):
            out += masks[:, :, f] * cube[:, :, f]
        return out

    return forward


def spc_reference(template):
    patterns = _node_params(template, "patterns")["m"].numpy()
    gains = _node_params(template, "gain")["m"].numpy()

    def forward(x):
        img = x.numpy()
        y = np.zeros(patterns.shape[0])
        for k in range(patterns.shape[0]):
            y[k] = gains[k] * float((patterns[k] * img).sum())
        return y

    return forward


def ct_reference(template):
    p = _node_params(template, "proj")
    angles = list(p["angles_deg"])
    n_det = p["n_det"]
    cor = p["cor_offset"]

    def forward(x):
        img = x.numpy()
        n_r, n_c = img.shape
        c_r = (n_r - 1) / 2.0
        c_c = (n_c - 1) / 2.0
        d_c = (n_det - 1) / 2.0
        y = np.zeros((len(angles), n_det))
        for a, ang in enumerate(angles):
            cos_t = math.cos(math.radians(ang))
            sin_t = math.sin(math.radians(ang))
            for r in range(n_r):
                for c in range(n_c):
                    t = (c - c_c) * cos_t + (r - c_r) * sin_t + d_c + cor
                    i0 = math.floor(t)
                    frac = t - i0
                    if 0 <= i0 < n_det:
                        y[a, i0] += (1.0 - frac) * img[r, c]
                    if 0 <= i0 + 1 < n_det:
                        y[a, i0 + 1] += frac * img[r, c]
        return y

    return forward


def mri_reference(template):
    coil = _node_params(template, "coil")["m"].numpy()
    omega = np.asarray(_node_params(template, "keep")["omega"], dtype=np.int64)
    f_ortho = dft(coil.shape[0], scale="sqrtn")

    def forward(x):
        k_space = f_ortho @ (coil * x.numpy()) @ f_ortho.T
        return k_space.reshape(-1)[omega]

    return forward


def lensless_reference(template):
    kernel = _node_params(template, "psf")["h"].numpy()

    def forward(x):
        img = x.numpy()
        out = np.zeros_like(img)
        for p in range(kernel.shape[0]):
            for q in range(kernel.shape[1]):
                out += kernel[p, q] * np.roll(np.roll(img, p, axis=0), q, axis=1)
        return out

    return forward


REFERENCES = {
    "cassi": cassi_reference,
    "cacti": cacti_reference,
    "spc": spc_reference,
    "ct": ct_reference,
    "mri": mri_reference,
    "lensless": lensless_reference,
}


def _diff_adjoint(p, axis, n):
    """Transpose of np.diff along one axis, built by zero-padding."""
    pad = [(0, 0)] * p.ndim
    pad[axis] = (1, 1)
    padded = np.pad(p, pad)
    sl_lo = [slice(None)] * p.ndim
    sl_hi = [slice(None)] * p.ndim
    sl_lo[axis] = slice(0, n)
    sl_hi[axis] = slice(1, n + 1)
    return padded[tuple(sl_lo)] - padded[tuple(sl_hi)]


def shift_linear_reference(x, s, axis):
    """Fractional shift as two zero-filled integer shifts blended, or the one
    integer shift when s is whole: the straight-line form of
    ``primitives.shift_linear``, which must agree with it byte for byte."""

    def integer_shift(k):
        out = np.zeros_like(x)
        n = x.shape[axis]
        if abs(k) < n:
            src, dst = [slice(None)] * x.ndim, [slice(None)] * x.ndim
            src[axis] = slice(0, n - k) if k >= 0 else slice(-k, n)
            dst[axis] = slice(k, n) if k >= 0 else slice(0, n + k)
            out[tuple(dst)] = x[tuple(src)]
        return out

    k = int(math.floor(s))
    w = s - k
    if w == 0.0:
        return integer_shift(k)
    return (1.0 - w) * integer_shift(k) + w * integer_shift(k + 1)


def disperse_reference(p, x, adjoint=False):
    """Disperse band by band: band b shifts by a1 * b along the rotated axis,
    columns then rows; the adjoint shifts rows then columns at -s."""
    al = math.radians(p["alpha_deg"])
    out = np.empty_like(x)
    for b in range(x.shape[2]):
        s = p["a1"] * b
        dr, dc = s * math.sin(al), s * math.cos(al)
        if adjoint:
            band = shift_linear_reference(x[:, :, b], -dr, 0)
            out[:, :, b] = shift_linear_reference(band, -dc, 1)
        else:
            band = shift_linear_reference(x[:, :, b], dc, 1)
            out[:, :, b] = shift_linear_reference(band, dr, 0)
    return out


def tv_prox_reference(a, lam, n_inner=10):
    """Anisotropic TV prox by fast gradient projection (FGP) on the dual, one
    fresh array per step.

    The straight-line form of ``solvers.tv_prox``: same float operations in
    the same order, so the two must agree byte for byte.  The dual q is kept
    scaled by 4 ndim lam (box [-4 ndim lam, 4 ndim lam], unit step); r is its
    extrapolation, and the primal is taken at the last q.
    """
    a = np.asarray(a, dtype=np.float64)
    box = 4.0 * a.ndim * lam
    scale = 1.0 / (4.0 * a.ndim)

    def primal(duals):
        return a - sum(_diff_adjoint(p, d, a.shape[d]) for d, p in enumerate(duals)) * scale

    q = r = [np.zeros_like(np.diff(a, axis=d)) for d in range(a.ndim)]
    t = 1.0
    for _ in range(max(1, n_inner)):
        u = primal(r)
        q_last, q = q, [np.clip(np.diff(u, axis=d) + p, -box, box) for d, p in enumerate(r)]
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_next
        r = [p + (p - p_last) * beta for p, p_last in zip(q, q_last)]
        t = t_next
    return primal(q)


def tv_prox_pg_reference(a, lam, n_inner=20):
    """Anisotropic TV prox by plain projected dual ascent, one fresh array per step.

    The oracle that FGP's momentum is checked against: run long, both must
    reach the same prox.
    """
    a = np.asarray(a, dtype=np.float64)
    duals = [np.zeros_like(np.diff(a, axis=d)) for d in range(a.ndim)]
    step = 1.0 / (4.0 * a.ndim * lam)
    for _ in range(max(1, n_inner)):
        u = a - lam * sum(_diff_adjoint(p, d, a.shape[d]) for d, p in enumerate(duals))
        duals = [np.clip(p + step * np.diff(u, axis=d), -1.0, 1.0) for d, p in enumerate(duals)]
    return a - lam * sum(_diff_adjoint(p, d, a.shape[d]) for d, p in enumerate(duals))


def fista_tv_reference(g, y, iters, lam_tv, step):
    """FISTA-TV of one problem with two forwards per iteration: one at z for the
    gradient, one at each candidate for its objective.

    Monotone accept and momentum restart as in ``solvers._fista_tv``, which
    instead forms A z from the forwards it already holds.  Returns the best
    iterate and the objective trace.
    """
    y = y.numpy()

    def objective(x):
        r = g.forward(Tensor(x)).numpy() - y
        return 0.5 * float(np.vdot(r, r).real) + lam_tv * sum(
            float(np.abs(np.diff(x, axis=d)).sum()) for d in range(x.ndim))

    def proximal_step(z):
        r = g.forward(Tensor(z)).numpy() - y
        return tv_prox_reference(z - step * g.adjoint(Tensor(r)).numpy().real, step * lam_tv)

    x = z = np.zeros(g.input_shape)
    t, f_x = 1.0, objective(x)
    best_x, best_f, trace = x, f_x, [f_x]
    for _ in range(iters):
        c = proximal_step(z)
        f_c = objective(c)
        if f_c > f_x:
            t = 1.0
            c = proximal_step(x)
            f_c = objective(c)
            if f_c > f_x:
                c, f_c = x, f_x
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = c + (t - 1.0) / t_next * (c - x)
        x, f_x, t = c, f_c, t_next
        trace.append(f_x)
        if f_x < best_f:
            best_x, best_f = x, f_x
    return best_x, trace


def _radon_reference_geometry(p, shape):
    h, w = shape
    n_det = p["n_det"]
    cc_r = (h - 1) / 2.0
    cc_c = (w - 1) / 2.0
    dc = (n_det - 1) / 2.0
    th = np.deg2rad(np.asarray(p["angles_deg"], dtype=np.float64))[:, None, None]
    rr, cc = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    t = (cc[None] - cc_c) * np.cos(th) + (rr[None] - cc_r) * np.sin(th) + dc + p["cor_offset"]
    i0 = np.floor(t).astype(np.int64)
    frac = t - i0
    v0 = (i0 >= 0) & (i0 < n_det)
    v1 = (i0 + 1 >= 0) & (i0 + 1 < n_det)
    a_idx = np.broadcast_to(np.arange(len(p["angles_deg"]))[:, None, None], i0.shape)
    return i0, frac, v0, v1, a_idx


def radon_forward_reference(p, x):
    """Project forward with validity masks and two sequential ``np.add.at`` scatters.

    The masked form of ``primitives._radon_forward``: the same float
    operations in the same order, so the two must agree byte for byte.
    """
    i0, frac, v0, v1, a_idx = _radon_reference_geometry(p, x.shape)
    y = np.zeros((len(p["angles_deg"]), p["n_det"]), dtype=x.dtype)
    c0 = (1.0 - frac) * x[None]
    c1 = frac * x[None]
    np.add.at(y, (a_idx[v0], i0[v0]), c0[v0])
    np.add.at(y, (a_idx[v1], i0[v1] + 1), c1[v1])
    return y


def radon_adjoint_reference(p, y, image_shape):
    """Project adjoint by clipped fancy indexing, zeroed where a ray misses the detector."""
    n_det = p["n_det"]
    i0, frac, v0, v1, a_idx = _radon_reference_geometry(p, image_shape)
    i0c = np.clip(i0, 0, n_det - 1)
    i1c = np.clip(i0 + 1, 0, n_det - 1)
    g0 = np.where(v0, y[a_idx, i0c], 0.0)
    g1 = np.where(v1, y[a_idx, i1c], 0.0)
    return ((1.0 - frac) * g0 + frac * g1).sum(axis=0)


def fbp_reference(g, y):
    """Filtered back-projection written out for a Project -> Detect graph, with no memo.

    The same float operations in the same order as ``solvers._fbp``: divide by
    the detector gain, ramp-filter each angle's row by FFT, back-project with
    ``radon_adjoint_reference`` and scale by pi / (2 * angles).
    """
    nodes = {n.primitive_id: n.params for n in g.spec.nodes}
    proj = nodes["Project"]
    sino = np.asarray(y).real / float(nodes["Detect"].get("g", 1.0))
    n_det = sino.shape[1]
    size = 1 << max(1, 2 * n_det - 1).bit_length()
    ramp = 2.0 * np.abs(np.fft.fftfreq(size))
    spectrum = np.fft.fft(sino, n=size, axis=1) * ramp[None, :]
    filtered = np.real(np.fft.ifft(spectrum, axis=1))[:, :n_det]
    back = radon_adjoint_reference(proj, filtered, g.input_shape)
    return back * math.pi / (2.0 * len(proj["angles_deg"]))


def _sensitivity_reference(template, solver, theta, k, h_k, probe_seed):
    g_nom = template.operator()
    ph = make_phantoms(template, 1, seed=probe_seed)[0]

    def quality(t_vec):
        y = template.operator(tuple(t_vec)).forward(ph.data)
        return psnr(reconstruct(g_nom, y, solver).x_hat, ph.data)

    up, down = list(theta), list(theta)
    up[k] = theta[k] + h_k
    down[k] = theta[k] - h_k
    return (quality(up) - quality(down)) / (2.0 * h_k)


def _sensitivities_reference(template, solver, probe_seed):
    fam = template.family
    sens = {}
    for k, (name, (lo, hi)) in enumerate(zip(fam.param_names, fam.theta_range)):
        h = 0.05 * (hi - lo)
        base = list(fam.theta_nom)
        base[k] = min(max(base[k], lo + h), hi - h)
        sens[name] = _sensitivity_reference(template, solver, tuple(base), k, h, probe_seed)
    return sens


def bootstrap_ci_reference(values, n_resamples=1000, seed=0):
    """``metrics.bootstrap_ci`` with each resample's mean taken in a Python loop."""
    vals = np.asarray(list(values), dtype=np.float64)
    idx = Rng(seed, 23).integers(0, vals.size, (n_resamples, vals.size))
    stats = np.array([float(np.mean(vals[row])) for row in idx])
    lo, hi = np.percentile(stats, CI_PERCENTILES)
    return float(lo), float(hi)


def rho_ci_reference(scenes, n_resamples, seed):
    """``protocol._rho_ci`` with one resample per Python loop iteration."""
    p_i = np.array([s["I"].psnr_db for s in scenes])
    p_ii = np.array([s["II"].psnr_db for s in scenes])
    p_iv = np.array([s["IV"].psnr_db for s in scenes])
    n = len(scenes)
    idx = Rng(seed, protocol._STREAM_BOOT).integers(0, n, (n_resamples, n))
    vals = []
    for row in idx:
        mi, mii, miv = p_i[row].mean(), p_ii[row].mean(), p_iv[row].mean()
        if mi > mii:
            vals.append((miv - mii) / (mi - mii))
    if not vals:
        return None
    lo, hi = np.percentile(vals, CI_PERCENTILES)
    return float(lo), float(hi)


def diagnose_reference(template, theta_true, noisy=False, n_scenes=3, seed=0):
    """``triad.diagnose`` with every reconstruction solved from scratch.

    Each solve compiles its operators afresh and lets ``reconstruct`` run its
    own power iteration, even where an earlier solve posed the same problem.
    """
    theta_true = template.family.check(theta_true)
    reg = default_registry()
    solver = dict(template.solver)
    sens = _sensitivities_reference(template, solver, seed)

    phantoms = make_phantoms(template, n_scenes, seed=seed)
    g_true = template.operator(theta_true)
    g_nom = template.operator()
    noise_rng = Rng(seed, triad._STREAM_PROBE)

    def q(g, y, x):
        return psnr(reconstruct(g, y, solver).x_hat, x)

    full = template.full_sampling()
    g_full = None if full is template else full.operator(theta_true)
    p_i, p_ii, p_noisy, p_limit = [], [], [], []
    for i, ph in enumerate(phantoms):
        y = g_true.forward(ph.data)
        p_i.append(q(g_true, y, ph.data))
        p_ii.append(q(g_nom, y, ph.data))
        if noisy and template.noise:
            p_noisy.append(q(g_true, apply_noise(y, template.noise, noise_rng.child(i)),
                             ph.data))
        else:
            p_noisy.append(p_i[-1])
        if g_full is None:
            p_limit.append(p_i[-1])
        else:
            p_limit.append(q(g_full, g_full.forward(ph.data), ph.data))

    binding = triad.bind_gate(float(np.mean(p_i)), float(np.mean(p_ii)),
                              float(np.mean(p_noisy)), float(np.mean(p_i)),
                              float(np.mean(p_limit)))
    gaps = [a - b for a, b in zip(p_i, p_ii)]
    if len(gaps) > 1:
        lo, hi = bootstrap_ci_reference(
            gaps, n_resamples=reg.thresholds["bootstrap"]["n_resamples"], seed=seed)
        ci_width = hi - lo
    else:
        ci_width = 0.0
    return triad.make_triad_report(sens, binding, ci_width)


def run_scenarios_reference(template, theta_true, calib="alg1", noisy=False, n_scenes=3,
                            seed=0, n_resamples=1000):
    """``protocol.run_scenarios`` with every scenario of every scene solved alone.

    Each solve is one ``reconstruct`` call under the config pinned at the
    nominal operator; IV is solved afresh even when it is II's problem.
    """
    theta_true = template.family.check(theta_true)
    phantoms = make_phantoms(template, n_scenes, seed=seed)
    g_true = template.operator(theta_true)
    g_nom = template.operator()
    solver = pin_step(g_nom, template.solver)
    measurements = protocol.measure(g_true, template.noise, phantoms, noisy, seed)
    if calib == "none":
        theta_hat = template.family.theta_nom
    else:
        theta_hat = protocol.calibrate(template, measurements[0], phantoms[0].data, calib,
                                       CalibConfig()).theta_hat
    g_hat = template.operator(theta_hat)

    def metrics(g, ph, y):
        return scene_metrics(reconstruct(g, y, solver).x_hat, ph.data,
                             spectral=template.spectral)

    scenes = []
    for ph, y in zip(phantoms, measurements):
        m_i = metrics(g_true, ph, y)
        scenes.append({"I": m_i, "II": metrics(g_nom, ph, y), "III": m_i,
                       "IV": metrics(g_hat, ph, y)})
    means = {sc: protocol._mean_metrics(scenes, sc) for sc in protocol.SCENARIOS}
    try:
        rho = recovery_ratio(means["I"]["psnr_db"], means["II"]["psnr_db"],
                             means["IV"]["psnr_db"])
        ci = rho_ci_reference(scenes, n_resamples, seed)
    except MetricError:
        rho, ci = None, None
    return protocol.ScenarioResult(per_scene=tuple(scenes), means=means, rho=rho, rho_ci=ci,
                                   theta_hat=tuple(theta_hat), theta_true=theta_true)


def refine_reference(obj, theta0, ranges, cfg):
    """Levenberg-Marquardt from one start, without the stop rule.

    The form ``calibration._refine`` ran before its runs advanced in
    lockstep and stopped on the predicted decrease: a run ends after
    ``cfg.refine_steps`` iterations or when the clipped step no longer moves
    the point.  An iteration's n Jacobian probes are scored in one
    ``obj.residuals`` call, which changes no score.  Returns (theta, score)
    at the end point.
    """
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    width = hi - lo

    def at(z):
        return tuple(float(v) for v in lo + z * width)

    def residual(theta):
        ((score, r),) = obj.residuals([theta])
        return score, r

    theta = tuple(float(v) for v in theta0)
    z = np.clip((np.asarray(theta) - lo) / width, 0.0, 1.0)
    cost, r = residual(theta)
    mu = calibration._MU_START
    jac = None
    for _ in range(cfg.refine_steps):
        if jac is None:
            steps, probes = [], []
            for k in range(z.size):
                h = calibration._FD_STEP if z[k] + calibration._FD_STEP <= 1.0 \
                    else -calibration._FD_STEP
                probe = z.copy()
                probe[k] += h
                steps.append(h)
                probes.append(at(probe))
            jac = np.empty((r.size, z.size))
            for k, (h, (_, r_k)) in enumerate(zip(steps, obj.residuals(probes))):
                jac[:, k] = (r_k - r) / h
            jtj = jac.T @ jac
            grad = jac.T @ r
            scale = np.diag(jtj).copy()
            scale[scale == 0.0] = 1.0
        step = np.linalg.solve(jtj + mu * np.diag(scale), -grad)
        trial = np.clip(z + step, 0.0, 1.0)
        if np.array_equal(trial, z):
            break
        trial_cost, trial_r = residual(at(trial))
        if trial_r @ trial_r < (1.0 - calibration._EARLY_TOL) * (r @ r):
            z, theta, cost, r = trial, at(trial), trial_cost, trial_r
            mu /= calibration._MU_DOWN
            jac = None
        else:
            mu *= calibration._MU_UP
    return theta, cost


def calibrate_alg1_reference(template, y, cfg, x_gt=None):
    """``calibration.calibrate_alg1`` with every grid handed to the objective on its own.

    Each sweep and each candidate's pair beam is posed as it is scored, so
    the objective solves them grid by grid instead of as one list.
    """
    fam = template.family
    n = len(fam.param_names)
    obj = calibration._Objective(template, y, cfg, x_gt)
    trace = []
    centers = []
    for k in range(n):
        values, costs, best = calibration.sweep_1d(obj, fam, k, calibration._GRID["sweep"])
        centers.append(values[best])
        trace.append((f"sweep:{fam.param_names[k]}", tuple((v,) for v in values), costs))
    # the spatial block: three affine parameters, and at least one more
    affine = tuple(i for i in range(n) if fam.tags[i] == "affine")
    other = tuple(i for i in range(n) if fam.tags[i] != "affine")
    if len(affine) == 3 and other:
        base = list(fam.theta_nom)
        for i in other:
            base[i] = centers[i]
        kept = calibration.beam_search(obj, fam, affine, calibration._GRID["beam3"],
                                       [centers[i] for i in affine], calibration._BEAM_K,
                                       theta_base=tuple(base))
        trace.append(("beam:affine", tuple(t for t, _ in kept), tuple(c for _, c in kept)))
        dims2 = calibration._GRID["beam2"][: len(other)]
        pairs = []
        for cand, _ in kept:
            pairs.extend(calibration.beam_search(
                obj, fam, other, dims2, [centers[i] for i in other],
                min(calibration._BEAM_K, int(np.prod(dims2))), theta_base=cand))
        pairs.sort(key=lambda t: t[1])
        best_theta = pairs[0][0]
        trace.append(("beam:pairs", tuple(t for t, _ in pairs[: calibration._BEAM_K]),
                      tuple(c for _, c in pairs[: calibration._BEAM_K])))
    else:
        dims = (5,) * n
        kept = calibration.beam_search(obj, fam, tuple(range(n)), dims, centers,
                                       min(calibration._BEAM_K, int(np.prod(dims))))
        trace.append(("beam:joint", tuple(t for t, _ in kept), tuple(c for _, c in kept)))
        best_theta = kept[0][0]
    theta_hat, cost = calibration.coordinate_descent(obj, fam, best_theta, rounds=cfg.cd_rounds)
    trace.append(("cd", (theta_hat,), (cost,)))
    return calibration.CalibResult(theta_hat, cost, tuple(trace), obj.evals, obj.distinct_evals)

"""Straight-line reference physics for closure comparisons.

Each reference mirrors one template's forward model with plain loops and
scipy helpers.  It shares the template's calibration data (masks, patterns,
kernels, sampling sets) but none of its operator code.
"""

import math

import numpy as np
from scipy import ndimage
from scipy.linalg import dft


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


def tv_prox_reference(a, lam, n_inner=20):
    """Anisotropic TV prox by projected dual ascent, one fresh array per step.

    The straight-line form of ``solvers.tv_prox``: same float operations in
    the same order, so the two must agree byte for byte.
    """
    a = np.asarray(a, dtype=np.float64)
    duals = [np.zeros_like(np.diff(a, axis=d)) for d in range(a.ndim)]
    step = 1.0 / (4.0 * a.ndim * lam)
    for _ in range(max(1, n_inner)):
        u = a - lam * sum(_diff_adjoint(p, d, a.shape[d]) for d, p in enumerate(duals))
        duals = [np.clip(p + step * np.diff(u, axis=d), -1.0, 1.0) for d, p in enumerate(duals)]
    return a - lam * sum(_diff_adjoint(p, d, a.shape[d]) for d, p in enumerate(duals))

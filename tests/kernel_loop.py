"""Reference training kernel for the tests: `training._forward_backward` as
it was before the per-tuple stages ran in blocks of tuples, kept verbatim.
It scores the whole batch at once, without buffers, through the frozen
subset likelihoods and posterior of `tests/posterior_loop.py`, so it
allocates (B, B_n) and (B, 2^n - 1, D) arrays and shares no per-tuple code
with the blocked kernel, but its expressions are the plain formulas the
blocked kernel must reproduce bit for bit."""

import numpy as np
from scipy.special import expit

from probdiar.extractor import ExtractorModel, softplus
from probdiar.partitions import PartitionTables
from probdiar.plda import DiagPlda, segment_weight

from .posterior_loop import partition_log_posterior, subset_logliks


def _forward_backward(raw, quality, truth, model: ExtractorModel, plda: DiagPlda,
                      tables: PartitionTables, want_grad: bool):
    """Mean cross-entropy over the batch and, optionally, its gradients.

    Shapes: raw (B, n, R), quality (B, n, Q), truth (B,).
    """
    w = plda.w

    z1 = quality @ model.W1.T + model.b1
    h = softplus(z1)
    z2 = h @ model.W2.T + model.b2
    b = softplus(z2)
    xh = raw @ model.A.T
    e = segment_weight(plda, b)
    g, a_bar, b_bar = subset_logliks(e, xh, tables)
    log_post = partition_log_posterior(g, tables)
    n_batch = raw.shape[0]
    loss = float(np.mean(-log_post[np.arange(n_batch), truth]))
    if not want_grad:
        return loss, None

    # the softmax as exp(log posterior) under the posterior's clip keeps the
    # bits of the unclipped one; q / (1 + sum q) rounds differently.  It
    # overwrites log_post, which is not needed after the loss.
    p = np.exp(np.maximum(log_post, -700.0, out=log_post), out=log_post)
    p[np.arange(n_batch), truth] -= 1.0
    p /= n_batch                                                   # dloss/dlogits
    dg = (tables.part_subset.T @ p.T).T                            # (B, C)

    s = tables.seg_subset                                          # (n, C)
    den = 1.0 + b_bar
    d_a_bar = dg[:, :, None] * a_bar / den
    d_b_bar = dg[:, :, None] * (-0.5) * (a_bar ** 2 / den ** 2 + 1.0 / den)
    d_ex = s @ d_a_bar
    d_e = d_ex * xh + s @ d_b_bar
    d_xh = d_ex * e

    ratio_w = w / (w + b)        # de/db = (w/(w+b))^2
    ratio_b = b / (w + b)        # de/dw = (b/(w+b))^2
    d_b = d_e * ratio_w ** 2
    d_log_w = np.sum(d_e * ratio_b ** 2, axis=(0, 1)) * w

    d_A = np.einsum("btd,btr->dr", d_xh, raw)
    d_z2 = d_b * expit(z2)
    d_W2 = np.einsum("btd,bth->dh", d_z2, h)
    d_b2 = np.sum(d_z2, axis=(0, 1))
    d_h = d_z2 @ model.W2
    d_z1 = d_h * expit(z1)
    d_W1 = np.einsum("bth,btq->hq", d_z1, quality)
    d_b1 = np.sum(d_z1, axis=(0, 1))

    return loss, {"log_w": d_log_w, "A": d_A, "W1": d_W1, "b1": d_b1,
                  "W2": d_W2, "b2": d_b2}

"""Finite-difference checks of CompGraph input gradients, a view of the maps
that forward frees, and the single-buffer 3x3 conv the blocked kernel must
match bit for bit, shared by the tests."""

from __future__ import annotations

import numpy as np
import pytest

from gea_nas.autodiff_core import CompGraph, Record


def correlate_single_buffer(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The 3x3 conv of autodiff_core._correlate before it streamed blocks of
    rows: one (Cin, 3, H+2, W, N) row-shift buffer for the whole image, then
    three GEMMs over all of it."""
    cin, h, wd, n = x.shape
    cout = w.shape[0]
    buf = np.empty((cin, 3, h + 2, wd, n))
    buf[:, :, [0, -1]] = 0.0
    buf[:, 0, 1:-1, 0] = 0.0
    buf[:, 0, 1:-1, 1:] = x[:, :, :-1]
    buf[:, 1, 1:-1] = x
    buf[:, 2, 1:-1, :-1] = x[:, :, 1:]
    buf[:, 2, 1:-1, -1] = 0.0
    rows, wn, hwn = buf.reshape(cin * 3, -1), wd * n, h * wd * n
    out = w[:, :, 0].reshape(cout, -1) @ rows[:, :hwn]
    for i in (1, 2):
        out += w[:, :, i].reshape(cout, -1) @ rows[:, i * wn : i * wn + hwn]
    return out.reshape(cout, h, wd, n)


def forward_maps(graph: CompGraph, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run graph.forward(x); return the logits and every record's map, by record
    id, as forward stored it (it frees each map after its last reader)."""
    ids = {id(rec): rid for rid, rec in enumerate(graph.records)}
    maps: list = [None] * len(graph.records)

    def keep(rec: Record, name: str, value) -> None:
        if name == "out" and value is not None:
            maps[ids[id(rec)]] = value
        object.__setattr__(rec, name, value)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Record, "__setattr__", keep)
        logits = graph.forward(x)
    return logits, maps


def relu_preacts(graph: CompGraph) -> list[np.ndarray]:
    """Cached ReLU inputs from the graph's latest forward (for kink filtering)."""
    return [rec.cache for rec in graph.records if rec.kind == "relu"]


def grad_check(graph: CompGraph, x: np.ndarray, step: float = 1e-4,
               num_samples: int | None = None, rng=None) -> float:
    """Max relative error between backward_to_input and central differences.

    The relative error denominator is max(|analytic|, |numeric|, 1e-8).
    Checks every input element by default, or ``num_samples`` randomly chosen
    elements. Elements whose +/-step perturbation flips the sign of any ReLU
    preactivation are skipped: the finite-difference secant straddles the kink
    there and is not a valid gradient estimate.
    """
    x = np.asarray(x, dtype=np.float64)
    graph.forward(x)
    analytic = graph.backward_to_input()

    total = x.size
    if num_samples is None or num_samples >= total:
        indices = np.arange(total)
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        indices = rng.choice(total, size=num_samples, replace=False)

    def probe(xi: np.ndarray):
        s = float(graph.forward(xi).sum())
        signs = [np.sign(p) for p in relu_preacts(graph)]
        return s, signs

    max_err = 0.0
    checked = 0
    for idx in indices:
        xp = x.copy()
        xp.flat[idx] += step
        s_plus, signs_plus = probe(xp)
        xp.flat[idx] -= 2 * step
        s_minus, signs_minus = probe(xp)
        if any((a != b).any() for a, b in zip(signs_plus, signs_minus)):
            continue
        numeric = (s_plus - s_minus) / (2.0 * step)
        a = float(analytic.flat[idx])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        max_err = max(max_err, err)
        checked += 1
    if checked == 0:
        raise RuntimeError("every sampled element was kink-filtered; nothing checked")
    return max_err

"""The regularizer split between two cores keeps every bit of the inline run.

Every test here forces the split (``split_everything``: the shared worker
and size rules of 0), so the row bands of each regularizer block run on
two threads whatever the CPU count and image size.
"""

import importlib.util
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from latomo import core, tv
from latomo.tv import (
    Buffers,
    LineSearchParams,
    derivative_kernel,
    descent_steps,
    down_sampler,
    forward_diff_op,
    make_pyramid_level,
    reweighted_value,
    row_operator,
    ssatv1_pass,
    ssatv2_pass,
    tv_gradient,
    tv_value,
)

from test_projector import split_everything, use_worker

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pin_digests.py"
_spec = importlib.util.spec_from_file_location("pin_digests", SCRIPT)
pin_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_digests)

NAMES = [pin_digests.run_name(algorithm, levels, noisy)
         for noisy in (False, True) for algorithm, levels in pin_digests.RUNS]


@pytest.fixture(scope="module")
def pinned_and_split():
    key = pin_digests.platform_key()
    pinned = json.loads(pin_digests.DIGESTS.read_text())
    if key not in pinned:
        pytest.skip(f"no digests pinned for this platform ({key})")
    with split_everything():
        return pinned[key], pin_digests.digests()


@pytest.mark.parametrize("name", NAMES)
def test_split_run_matches_pinned_digest(pinned_and_split, name):
    pinned, found = pinned_and_split
    assert found[name] == pinned[name]


# -- band products ----------------------------------------------------------

def operators():
    """(id, operator) over odd and even heights, every ssatv1 scale, the
    down-samplers and their 2-row coarse grids."""
    for height in (1, 2, 5, 7, 19, 33):
        yield f"diff-h{height}", forward_diff_op(height)
        for s in (1, 2, 3, 4, 8, 16):
            yield f"ssatv1-s{s}-h{height}", row_operator(*derivative_kernel(s), height)
            if s > 1 and -(-height // s) >= 2:
                yield f"down-s{s}-h{height}", down_sampler(height, s)
    yield "down-s4-h5-two-rows", down_sampler(5, 4)
    yield "down-s16-h17-two-rows", down_sampler(17, 16)


OPERATORS = dict(operators())


def bands(rows):
    """Every band edge that matters: empty, one row, the middle split, the
    ends, and a few in between."""
    edges = sorted({0, 1, rows // 2, max(rows - 1, 0), rows})
    return [(lo, hi) for lo in edges for hi in edges if lo <= hi]


@pytest.mark.parametrize("name", list(OPERATORS))
def test_band_products_equal_scipy_byte_for_byte(name):
    op = OPERATORS[name]
    rng = np.random.default_rng(41)
    # a wide dynamic range, so that a sum in another order changes bits
    f = rng.normal(size=(op.shape[1], 5)) * 10.0 ** rng.integers(-8, 8, (op.shape[1], 5))
    v = rng.normal(size=(op.shape[0], 5)) * 10.0 ** rng.integers(-8, 8, (op.shape[0], 5))
    mat = sp.csr_matrix(op._mat)
    for product, x, want in ((op.apply, f, mat @ f), (op.apply_t, v, mat.T @ v)):
        for lo, hi in bands(want.shape[0]):
            out = np.full(want.shape, np.nan)
            assert product(x, out=out, rows=slice(lo, hi)) is out
            assert out[lo:hi].tobytes() == want[lo:hi].tobytes(), (lo, hi)
            assert np.isnan(out[:lo]).all() and np.isnan(out[hi:]).all(), (lo, hi)


# -- whole regularizer calls ------------------------------------------------

def scene(n=40, seed=43):
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[:n, :n]
    f = np.where((x - n / 2) ** 2 + (y - n / 3) ** 2 < (n / 3) ** 2, 0.021, 0.0)
    return np.maximum(f + rng.normal(0.0, 5e-4, f.shape), 0.0)


def schedule(f, buffers):
    """ssatv1 at s = 4 and 1, ssatv2 at s = 4 and 2, a wtv pass and the
    logged objective: every image and value, as bytes."""
    params, out = LineSearchParams(), []
    for s in (4, 1):
        f, _ = ssatv1_pass(f, 5.0, s, 3, params, buffers=buffers)
        out.append(f.tobytes())
    for s in (4, 2):
        f, _ = ssatv2_pass(f, make_pyramid_level(f, s, 5.0), 5.0, 3, params,
                           buffers=buffers)
        out.append(f.tobytes())
    f, _ = descent_steps(f, forward_diff_op(f.shape[0]), 3, params, 5.0, buffers=buffers)
    out.append(f.tobytes())
    out.append(reweighted_value(f, 5.0, forward_diff_op(f.shape[0]), buffers=buffers))
    return out


def inline(call):
    saved = core._worker
    core._worker = False
    try:
        return call()
    finally:
        core._worker = saved


@pytest.mark.parametrize("shape", [(37, 37), (33, 29), (64, 64)])
@pytest.mark.parametrize("scale", [1, 4])
def test_split_values_and_gradients_equal_inline(shape, scale):
    # the value's sum always runs over the whole image: a sum per band
    # rounds differently whenever the band edge is not numpy's own split
    rng = np.random.default_rng(47)
    f = rng.uniform(0.0, 0.04, shape)
    w = rng.uniform(0.5, 2.0, shape)
    yop = row_operator(*derivative_kernel(scale), shape[0])

    def calls():
        return (tv_value(f, w, yop), tv_value(f, w, yop, 1e-4),
                reweighted_value(f, 5.0, yop), tv_gradient(f, w, yop, 1e-4).tobytes(),
                tv.normalize_direction(f - 0.02)[0].tobytes())

    want = inline(calls)
    # scipy's product and numpy's whole-image sum, as an independent oracle
    dx = np.zeros(shape)
    dx[:, 1:] = f[:, 1:] - f[:, :-1]
    dy = sp.csr_matrix(yop._mat) @ f
    sq = dx * dx + dy * dy
    assert want[:2] == (float(np.sum(w * np.sqrt(sq))),
                        float(np.sum(w * np.sqrt(sq + 1e-4 * 1e-4))))
    with split_everything():
        assert calls() == want


def test_split_schedule_equals_inline():
    f = scene(37)  # an odd height: the bands differ in size
    want = inline(lambda: schedule(f, Buffers()))
    with split_everything():
        assert schedule(f, Buffers()) == want


def test_worker_exception_in_a_regularizer_block_is_raised_not_hung(monkeypatch):
    use_worker(monkeypatch)
    f = scene()
    w = np.ones_like(f)
    yop = forward_diff_op(f.shape[0])
    want = (tv_value(f, w, yop), tv_gradient(f, w, yop, 1e-4).tobytes())
    product = tv.RowOperator.apply

    def fails_on_the_worker(self, *args, **kwargs):
        if threading.current_thread().name == "latomo-worker":
            raise RuntimeError("worker band failed")
        return product(self, *args, **kwargs)

    monkeypatch.setattr(tv.RowOperator, "apply", fails_on_the_worker)
    with pytest.raises(RuntimeError, match="worker band failed"):
        tv_value(f, w, yop)
    with pytest.raises(RuntimeError, match="worker band failed"):
        descent_steps(f, yop, 2, LineSearchParams(), 5.0)
    monkeypatch.setattr(tv.RowOperator, "apply", product)
    # the worker lives on
    assert (tv_value(f, w, yop), tv_gradient(f, w, yop, 1e-4).tobytes()) == want


def test_threads_regularizing_their_own_images(monkeypatch):
    # three callers and the worker, switching the GIL often: a band written
    # into another caller's buffers, or a sum taken per band, changes bits
    images = [scene(seed=seed) for seed in (51, 52, 53)]
    want = [inline(lambda f=f: schedule(f, Buffers())) for f in images]
    use_worker(monkeypatch)
    results = [None] * 3

    def run(slot):
        results[slot] = schedule(images[slot], Buffers())

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == want

import os
import statistics
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exploresim import predict as predict_module
from exploresim.errors import EnsembleError, ExternalPredictorError
from exploresim.grid import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, new_grid
from exploresim.predict import (
    Ensemble,
    ExternalPredictor,
    NoisyOraclePredictor,
    PassThroughPredictor,
    PatchInpaintingPredictor,
    ensemble_predict,
)


def predict(predictor, observed):
    """One predictor run through the ensemble, the one clamp to the observation;
    the mean of a single member is its clamped prediction."""
    return ensemble_predict(Ensemble([predictor]), observed).mean


def random_three_label(rng, n=24):
    return OccupancyGrid(rng.choice([FREE, UNKNOWN, OCCUPIED], size=(n, n)), 0.1)


def random_binary(rng, n=24):
    return OccupancyGrid((rng.random((n, n)) < 0.3).astype(float), 0.1)


def test_passthrough_is_identity():
    rng = np.random.default_rng(0)
    observed = random_three_label(rng)
    assert predict(PassThroughPredictor(), observed) == observed


def test_noisy_oracle_zero_flip_reveals_ground_truth():
    rng = np.random.default_rng(1)
    gt = random_binary(rng)
    observed = new_grid(gt.width, gt.height, gt.resolution)
    observed.cells[:4, :] = gt.cells[:4, :]  # partially observed
    p = predict(NoisyOraclePredictor(gt, flip_rate=0.0, seed=5), observed)
    unknown = observed.cells == UNKNOWN
    assert (p.cells[unknown] == gt.cells[unknown]).all()
    assert (p.cells[~unknown] == observed.cells[~unknown]).all()


def test_noisy_oracle_is_deterministic():
    rng = np.random.default_rng(2)
    gt = random_binary(rng)
    observed = new_grid(gt.width, gt.height, gt.resolution)
    pred = NoisyOraclePredictor(gt, flip_rate=0.3, seed=9)
    assert predict(pred, observed) == predict(pred, observed)


def test_known_cell_agreement_across_predictors():
    rng = np.random.default_rng(3)
    gt = random_binary(rng)
    observed = random_three_label(rng)
    observed.cells[gt.cells == OCCUPIED] = np.where(
        observed.cells[gt.cells == OCCUPIED] == FREE, UNKNOWN,
        observed.cells[gt.cells == OCCUPIED])
    predictors = [
        PassThroughPredictor(),
        NoisyOraclePredictor(gt, 0.2, seed=1),
        PatchInpaintingPredictor([gt], block_size=6, ring=2),
    ]
    known = observed.cells != UNKNOWN
    for pred in predictors:
        out = predict(pred, observed)
        assert (out.cells[known] == observed.cells[known]).all()
        assert out.cells.min() >= 0.0 and out.cells.max() <= 1.0


def test_patch_inpainter_pastes_matching_corpus_patch():
    # The corpus is the ground truth cut at (6, 6), so its first window is
    # the hole's context; a block whose context ring is fully observed must
    # be filled with that exact patch interior.
    rng = np.random.default_rng(4)
    gt = random_binary(rng, 24)
    observed = OccupancyGrid(gt.cells.copy(), 0.1)
    block, ring = 8, 2
    observed.cells[8:16, 8:16] = UNKNOWN  # exactly one block-aligned hole
    pred = PatchInpaintingPredictor([OccupancyGrid(gt.cells[6:, 6:], 0.1)], block_size=block,
                                    ring=ring)
    out = predict(pred, observed)
    assert (out.cells == gt.cells).all()


def test_patch_inpainter_selection_matches_exhaustive_search():
    rng = np.random.default_rng(5)
    corpus = [random_binary(rng, 20) for _ in range(3)]
    block, ring = 6, 2
    side = block + 2 * ring
    pred = PatchInpaintingPredictor(corpus, block_size=block, ring=ring)

    observed = random_three_label(rng, 18)
    observed.cells[6:12, 6:12] = UNKNOWN
    out = predict(pred, observed)

    # Exhaustive oracle over the corpus windows, cut every block cells, for
    # the block at (6, 6).
    ctx = np.full((side, side), np.nan)
    y0 = x0 = 6 - ring
    ctx[:, :] = observed.cells[y0 : y0 + side, x0 : x0 + side]
    ring_mask = np.ones((side, side), bool)
    ring_mask[ring : ring + block, ring : ring + block] = False
    known_ring = ring_mask & (ctx != UNKNOWN)

    best, best_d = None, None
    for g in corpus:
        for wy in range(0, g.height - side + 1, block):
            for wx in range(0, g.width - side + 1, block):
                win = g.cells[wy : wy + side, wx : wx + side]
                d = float(((win[known_ring] - ctx[known_ring]) ** 2).sum())
                if best_d is None or d < best_d - 1e-12:
                    best_d, best = d, win
    expected = best[ring : ring + block, ring : ring + block]
    blk_unknown = observed.cells[6:12, 6:12] == UNKNOWN
    assert (out.cells[6:12, 6:12][blk_unknown] == expected[blk_unknown]).all()


def patch_reference(corpus, block, ring, cells):
    """The patch rule applied from scratch: the map's known cells, and in
    each block that holds an unknown cell, the interior of the first corpus
    window, cut every `block` cells, nearest to the block's known ring cells
    (patch 0 when none is known)."""
    side = block + 2 * ring
    patches = np.stack([g.cells[y : y + side, x : x + side] for g in corpus
                        for y in range(0, g.height - side + 1, block)
                        for x in range(0, g.width - side + 1, block)])
    ring_mask = np.ones((side, side), bool)
    ring_mask[ring : ring + block, ring : ring + block] = False
    h, w = cells.shape
    padded = np.full((h + side, w + side), UNKNOWN)  # off the grid is unknown
    padded[ring : ring + h, ring : ring + w] = cells
    out = cells.copy()
    for by in range(0, h, block):
        for bx in range(0, w, block):
            hole = cells[by : by + block, bx : bx + block] == UNKNOWN
            if not hole.any():
                continue
            ctx = padded[by : by + side, bx : bx + side]
            known = ring_mask & (ctx != UNKNOWN)
            best = int(np.argmin(((patches[:, known] - ctx[known]) ** 2).sum(axis=1)))
            bh, bw = hole.shape
            out[by : by + bh, bx : bx + bw][hole] = patches[best, ring : ring + bh,
                                                            ring : ring + bw][hole]
    return out


def _grid_side(n, block):
    """`n`, or n + 1 where n is a multiple of the block: a side that is not a
    multiple of the block, some smaller than it."""
    return n + 1 if n % block == 0 else n


@settings(deadline=None, max_examples=60)
@given(block=st.integers(2, 6), ring=st.integers(1, 3), n_corpus=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), h=st.integers(3, 30), w=st.integers(3, 30),
       steps=st.lists(st.sampled_from(["reveal", "arbitrary", "in_place", "local", "new_map"]),
                      max_size=6))
@example(block=4, ring=3, n_corpus=1, seed=0, h=10, w=7,
         steps=["arbitrary", "local", "in_place", "local"])
@example(block=5, ring=4, n_corpus=2, seed=1, h=3, w=13, steps=["in_place", "local", "reveal"])
def test_a_reused_patch_member_matches_a_fresh_one(block, ring, n_corpus, seed, h, w, steps):
    # One member predicts a sequence of observed maps; after every call its
    # output must equal that of a member that never saw the earlier maps,
    # and the patch rule applied to every block from scratch.
    rng = np.random.default_rng(seed)
    corpus = [random_binary(rng, int(rng.integers(block + 2 * ring, 20)))
              for _ in range(n_corpus)]
    member = PatchInpaintingPredictor(corpus, block, ring)

    def fresh_labels(h, w):
        cells = np.full((h, w), UNKNOWN)
        seen = rng.random((h, w)) < 0.3
        cells[seen] = rng.choice([FREE, OCCUPIED], size=int(seen.sum()))
        return cells

    observed = None
    for step in ["new_map", "in_place", "local", *steps]:
        if step == "new_map":  # after the first, mostly of another shape
            if observed is not None:
                h, w = (int(n) for n in rng.integers(3, 31, size=2))
            observed = OccupancyGrid(fresh_labels(_grid_side(h, block), _grid_side(w, block)), 0.1)
        elif step == "local":  # a rectangle a few cells across changes in place, as a scan does
            y, x = (int(rng.integers(n)) for n in observed.shape)
            dy, dx = (int(n) for n in rng.integers(1, 5, size=2))
            patch = observed.cells[y : y + dy, x : x + dx]
            patch[:] = rng.choice([FREE, UNKNOWN, OCCUPIED], size=patch.shape)
        else:
            # "in_place" writes into the grid the member saw last, as integrate_scan does.
            cells = observed.cells if step == "in_place" else observed.cells.copy()
            pick = rng.random(cells.shape) < 0.1
            if step == "reveal":
                pick &= cells == UNKNOWN
                cells[pick] = rng.choice([FREE, OCCUPIED], size=int(pick.sum()))
            else:  # any label to any label, known -> unknown included
                cells[pick] = rng.choice([FREE, UNKNOWN, OCCUPIED], size=int(pick.sum()))
            if step != "in_place":
                observed = OccupancyGrid(cells, 0.1)
        out = member.predict(observed)
        fresh = PatchInpaintingPredictor(corpus, block, ring).predict(observed)
        assert np.array_equal(out, fresh)
        assert np.array_equal(out, patch_reference(corpus, block, ring, observed.cells))
        with pytest.raises(ValueError):  # a caller cannot write to the kept output
            out[0, 0] = FREE
        assert member.predict(OccupancyGrid(observed.cells.copy(), 0.1)) is out  # unchanged map


def test_a_reused_member_rematches_a_short_last_block_beyond_the_change():
    # Side 10 with block 4: the last block row is rows 8-9, and its unknown
    # cells lie in row 9. Row 7 changes; grown by the ring it reaches row 8
    # only, yet row 7 is in the block's ring, so the block must be matched
    # again: 3 of its 5 known ring cells now match the all-occupied patch.
    corpus = [OccupancyGrid(np.full((6, 6), v)) for v in (FREE, OCCUPIED)]
    member = PatchInpaintingPredictor(corpus, block_size=4, ring=1)
    before = np.full((10, 10), FREE)
    before[9, 8:] = UNKNOWN
    assert (member.predict(OccupancyGrid(before))[9, 8:] == FREE).all()
    after = before.copy()
    after[7, 7:] = OCCUPIED
    out = member.predict(OccupancyGrid(after))
    assert (out[9, 8:] == OCCUPIED).all()
    fresh = PatchInpaintingPredictor(corpus, block_size=4, ring=1).predict(OccupancyGrid(after))
    assert np.array_equal(out, fresh)


def test_patch_members_keep_their_own_state():
    # An all-free and an all-occupied corpus fill every unknown cell with 0
    # and 1, so the variance is 0.25 there at every call, whatever the
    # members saw before; members that shared their state would agree.
    rng = np.random.default_rng(11)
    ensemble = Ensemble([PatchInpaintingPredictor([OccupancyGrid(np.full((12, 12), v))], 4, 2)
                         for v in (FREE, OCCUPIED)])
    observed = random_three_label(rng, 21)
    for _ in range(3):
        ps = ensemble_predict(ensemble, observed)
        unknown = observed.cells == UNKNOWN
        assert (ps.variance.cells[unknown] == 0.25).all()
        observed.cells[rng.random(observed.shape) < 0.2] = FREE


def test_ensemble_identical_members_zero_variance():
    rng = np.random.default_rng(6)
    observed = random_three_label(rng)
    ens = Ensemble([PassThroughPredictor() for _ in range(3)])
    ps = ensemble_predict(ens, observed)
    assert (ps.variance.cells == 0.0).all()
    assert ps.mean == observed


class _ConstantPredictor:
    def __init__(self, value):
        self.value = value

    def predict(self, observed):
        return np.full(observed.shape, self.value)


def test_ensemble_two_member_spread():
    observed = new_grid(4, 4)
    ens = Ensemble([_ConstantPredictor(0.0), _ConstantPredictor(1.0)])
    ps = ensemble_predict(ens, observed)
    assert (ps.mean.cells == 0.5).all()
    assert (ps.variance.cells == 0.25).all()


def test_ensemble_three_member_variance_value():
    observed = new_grid(5, 5)
    ens = Ensemble([_ConstantPredictor(v) for v in (0.2, 0.5, 0.8)])
    ps = ensemble_predict(ens, observed)
    # population variance of {0.2, 0.5, 0.8} = (0.09 + 0 + 0.09)/3 = 0.06
    assert ps.variance.cells[0, 0] == pytest.approx(0.06, rel=1e-12)
    oracle = statistics.pvariance([0.2, 0.5, 0.8])
    assert ps.variance.cells[0, 0] == pytest.approx(oracle, rel=1e-12)
    assert ps.mean.cells[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_ensemble_variance_zero_on_known_cells_and_bounded():
    rng = np.random.default_rng(7)
    gt = random_binary(rng)
    observed = random_three_label(rng)
    ens = Ensemble([NoisyOraclePredictor(gt, 0.5, seed=s) for s in (1, 2, 3)])
    ps = ensemble_predict(ens, observed)
    known = observed.cells != UNKNOWN
    assert (ps.variance.cells[known] == 0.0).all()
    assert ps.variance.cells.max() <= 0.25 + 1e-15


def test_ensemble_statistics_recompute_exactly():
    rng = np.random.default_rng(8)
    gt = random_binary(rng)
    observed = random_three_label(rng)
    ens = Ensemble([NoisyOraclePredictor(gt, 0.4, seed=s) for s in (4, 5, 6)])
    ps = ensemble_predict(ens, observed)
    known = observed.cells != UNKNOWN
    stack = np.stack([np.where(known, observed.cells, m.predict(observed)) for m in ens.members])
    assert (stack.mean(axis=0) == ps.mean.cells).all()
    assert (stack.var(axis=0) == ps.variance.cells).all()


def test_ensemble_determinism():
    rng = np.random.default_rng(9)
    gt = random_binary(rng)
    observed = random_three_label(rng)
    ens = Ensemble([NoisyOraclePredictor(gt, 0.1, seed=s) for s in (7, 8, 9)])
    a = ensemble_predict(ens, observed)
    b = ensemble_predict(ens, observed)
    assert a.mean == b.mean and a.variance == b.variance


def stacked_statistics(outputs, observed):
    """The ensemble statistics computed from scratch: numpy's mean and
    variance over the stacked member outputs, clamped to the known cells."""
    stack = np.stack(outputs)
    mean, variance = stack.mean(axis=0), stack.var(axis=0)
    known = observed.cells != UNKNOWN
    mean[known] = observed.cells[known]
    variance[known] = 0.0
    return mean, variance


MEMBER_KINDS = ("passthrough", "noisy_oracle", "patch", "constant")


@settings(deadline=None, max_examples=60)
@given(kinds=st.lists(st.sampled_from(MEMBER_KINDS), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), h=st.integers(1, 30), w=st.integers(1, 30),
       steps=st.lists(st.sampled_from(["reveal", "local", "same"]), min_size=1, max_size=8))
def test_kept_ensemble_statistics_equal_a_fresh_computation(kinds, seed, h, w, steps):
    # An episode's map only grows; after every call the kept statistics must
    # equal the stacked ones bit for bit.
    rng = np.random.default_rng(seed)
    gt = OccupancyGrid((rng.random((h, w)) < 0.3).astype(float), 0.1)
    corpus = [random_binary(rng, 12)]

    def member(kind, k):
        if kind == "passthrough":
            return PassThroughPredictor()
        if kind == "noisy_oracle":
            return NoisyOraclePredictor(gt, 0.3, seed=k)
        if kind == "patch":
            return PatchInpaintingPredictor(corpus, 3, 1)
        return _ConstantPredictor((k + 1) / 5)

    ensemble = Ensemble([member(kind, k) for k, kind in enumerate(kinds)])
    twins = [member(kind, k) for k, kind in enumerate(kinds)]  # predict for the reference
    observed = new_grid(w, h)
    for step in ["reveal", *steps]:
        cells = observed.cells
        if step == "reveal":
            pick = rng.random(cells.shape) < 0.2
        else:  # "local": a small rectangle, as a scan reveals; "same": nothing
            pick = np.zeros(cells.shape, dtype=bool)
            if step == "local":
                y, x = int(rng.integers(h)), int(rng.integers(w))
                pick[y : y + int(rng.integers(1, 5)), x : x + int(rng.integers(1, 5))] = True
        cells[pick] = gt.cells[pick]  # in place, as integrate_scan writes
        ps = ensemble_predict(ensemble, observed)
        mean, variance = stacked_statistics([t.predict(observed) for t in twins], observed)
        assert np.array_equal(ps.mean.cells, mean)
        assert np.array_equal(ps.variance.cells, variance)


def test_kept_ensemble_statistics_follow_a_map_of_another_shape():
    rng = np.random.default_rng(12)
    ensemble = Ensemble([PassThroughPredictor(), _ConstantPredictor(0.2)])
    for n in (8, 8, 5, 9):
        observed = random_three_label(rng, n)
        ps = ensemble_predict(ensemble, observed)
        mean, variance = stacked_statistics([observed.cells, np.full((n, n), 0.2)], observed)
        assert np.array_equal(ps.mean.cells, mean)
        assert np.array_equal(ps.variance.cells, variance)


def test_noisy_oracle_returns_a_grid_no_one_can_change():
    rng = np.random.default_rng(13)
    member = NoisyOraclePredictor(random_binary(rng), 0.2, seed=3)
    out = member.predict(new_grid(24, 24))
    with pytest.raises(ValueError):
        out[0, 0] = 0.5
    assert member.predict(new_grid(24, 24)) is out


class _Boom:
    def predict(self, observed):
        raise RuntimeError("boom")


def test_ensemble_error_names_the_member():
    observed = new_grid(3, 3)
    ens = Ensemble([PassThroughPredictor(), _Boom()])
    with pytest.raises(EnsembleError) as exc:
        ensemble_predict(ens, observed)
    assert exc.value.member == 1


def test_empty_ensemble_is_rejected():
    with pytest.raises(ValueError, match="at least one member"):
        ensemble_predict(Ensemble([]), new_grid(3, 3))


COPY_CMD = [sys.executable, "-c", "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"]
FAIL_CMD = [sys.executable, "-c", "import sys; sys.exit(3)"]
WRONG_SIZE_CMD = [
    sys.executable, "-c",
    "import sys; open(sys.argv[2],'wb').write(b'P5\\n2 2\\n255\\n' + bytes(4))",
]


def test_external_copy_behaves_as_passthrough():
    rng = np.random.default_rng(10)
    observed = random_three_label(rng, 12)
    out = ExternalPredictor(COPY_CMD).predict(observed)
    assert np.array_equal(out, PassThroughPredictor().predict(observed))


def test_external_nonzero_exit():
    observed = new_grid(4, 4)
    with pytest.raises(ExternalPredictorError):
        ExternalPredictor(FAIL_CMD).predict(observed)


def test_external_wrong_dimensions():
    observed = new_grid(4, 4)
    with pytest.raises(ExternalPredictorError):
        ExternalPredictor(WRONG_SIZE_CMD).predict(observed)


def test_external_missing_output():
    observed = new_grid(4, 4)
    with pytest.raises(ExternalPredictorError):
        ExternalPredictor([sys.executable, "-c", "pass"]).predict(observed)


def test_external_timeout_kills_a_hung_predictor(tmp_path, monkeypatch):
    monkeypatch.setattr(predict_module, "EXTERNAL_TIMEOUT_S", 0.8)
    pid_file = tmp_path / "pid"
    hung = [sys.executable, "-c",
            f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); "
            "time.sleep(30)"]
    t0 = time.monotonic()
    with pytest.raises(ExternalPredictorError, match=r"did not finish within 0\.8 s"):
        ExternalPredictor(hung).predict(new_grid(4, 4))
    assert time.monotonic() - t0 < 5
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


def test_every_built_in_member_returns_a_float64_array_of_the_map_shape():
    rng = np.random.default_rng(14)
    gt = OccupancyGrid((rng.random((9, 13)) < 0.3).astype(float), 0.1)
    observed = OccupancyGrid(rng.choice([FREE, UNKNOWN, OCCUPIED], size=(9, 13)), 0.1)
    members = [PassThroughPredictor(), NoisyOraclePredictor(gt, 0.2, seed=3),
               PatchInpaintingPredictor([gt], 4, 2), ExternalPredictor(COPY_CMD)]
    for member in members:
        out = member.predict(observed)
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.shape == observed.shape
        if isinstance(member, (NoisyOraclePredictor, PatchInpaintingPredictor)):
            assert not out.flags.writeable

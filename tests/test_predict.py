import statistics
import sys

import numpy as np
import pytest

from exploresim import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    EnsembleError,
    ExternalPredictorError,
    NoisyOraclePredictor,
    OccupancyGrid,
    PassThroughPredictor,
    ExternalPredictor,
    PatchInpaintingPredictor,
    ensemble_predict,
    new_grid,
    save_pgm,
)
from exploresim.predict import clamp_to_observed


def predict(predictor, observed):
    """One predictor run through the ensemble, the one clamp to the observation;
    the mean of a single member is its clamped prediction."""
    return ensemble_predict([predictor], observed).mean


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
    # Corpus contains the ground truth itself; a block whose context ring is
    # fully observed must be filled with that exact patch interior.
    rng = np.random.default_rng(4)
    gt = random_binary(rng, 24)
    observed = OccupancyGrid(gt.cells.copy(), 0.1)
    block, ring = 8, 2
    observed.cells[8:16, 8:16] = UNKNOWN  # exactly one block-aligned hole
    pred = PatchInpaintingPredictor([gt], block_size=block, ring=ring, stride=1)
    out = predict(pred, observed)
    assert (out.cells == gt.cells).all()


def test_patch_inpainter_selection_matches_exhaustive_search():
    rng = np.random.default_rng(5)
    corpus = [random_binary(rng, 20) for _ in range(3)]
    block, ring, stride = 6, 2, 2
    side = block + 2 * ring
    pred = PatchInpaintingPredictor(corpus, block_size=block, ring=ring, stride=stride)

    observed = random_three_label(rng, 18)
    observed.cells[6:12, 6:12] = UNKNOWN
    out = predict(pred, observed)

    # Exhaustive oracle over all corpus windows for the block at (6, 6).
    ctx = np.full((side, side), np.nan)
    y0 = x0 = 6 - ring
    ctx[:, :] = observed.cells[y0 : y0 + side, x0 : x0 + side]
    ring_mask = np.ones((side, side), bool)
    ring_mask[ring : ring + block, ring : ring + block] = False
    known_ring = ring_mask & (ctx != UNKNOWN)

    best, best_d = None, None
    for g in corpus:
        for wy in range(0, g.height - side + 1, stride):
            for wx in range(0, g.width - side + 1, stride):
                win = g.cells[wy : wy + side, wx : wx + side]
                d = float(((win[known_ring] - ctx[known_ring]) ** 2).sum())
                if best_d is None or d < best_d - 1e-12:
                    best_d, best = d, win
    expected = best[ring : ring + block, ring : ring + block]
    blk_unknown = observed.cells[6:12, 6:12] == UNKNOWN
    assert (out.cells[6:12, 6:12][blk_unknown] == expected[blk_unknown]).all()


def test_ensemble_identical_members_zero_variance():
    rng = np.random.default_rng(6)
    observed = random_three_label(rng)
    ens = [PassThroughPredictor() for _ in range(3)]
    ps = ensemble_predict(ens, observed)
    assert (ps.variance.cells == 0.0).all()
    assert ps.mean == observed


class _ConstantPredictor:
    def __init__(self, value):
        self.value = value

    def predict(self, observed):
        return OccupancyGrid(np.full(observed.shape, self.value), observed.resolution)


def test_ensemble_two_member_spread():
    observed = new_grid(4, 4)
    ens = [_ConstantPredictor(0.0), _ConstantPredictor(1.0)]
    ps = ensemble_predict(ens, observed)
    assert (ps.mean.cells == 0.5).all()
    assert (ps.variance.cells == 0.25).all()


def test_ensemble_three_member_variance_value():
    observed = new_grid(5, 5)
    ens = [_ConstantPredictor(v) for v in (0.2, 0.5, 0.8)]
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
    ens = [NoisyOraclePredictor(gt, 0.5, seed=s) for s in (1, 2, 3)]
    ps = ensemble_predict(ens, observed)
    known = observed.cells != UNKNOWN
    assert (ps.variance.cells[known] == 0.0).all()
    assert ps.variance.cells.max() <= 0.25 + 1e-15


def test_ensemble_statistics_recompute_exactly():
    rng = np.random.default_rng(8)
    gt = random_binary(rng)
    observed = random_three_label(rng)
    ens = [NoisyOraclePredictor(gt, 0.4, seed=s) for s in (4, 5, 6)]
    ps = ensemble_predict(ens, observed)
    stack = np.stack([clamp_to_observed(m.predict(observed).cells, observed) for m in ens])
    assert (stack.mean(axis=0) == ps.mean.cells).all()
    assert (stack.var(axis=0) == ps.variance.cells).all()


def test_ensemble_determinism():
    rng = np.random.default_rng(9)
    gt = random_binary(rng)
    observed = random_three_label(rng)
    ens = [NoisyOraclePredictor(gt, 0.1, seed=s) for s in (7, 8, 9)]
    a = ensemble_predict(ens, observed)
    b = ensemble_predict(ens, observed)
    assert a.mean == b.mean and a.variance == b.variance


class _Boom:
    def predict(self, observed):
        raise RuntimeError("boom")


def test_ensemble_error_names_the_member():
    observed = new_grid(3, 3)
    ens = [PassThroughPredictor(), _Boom()]
    with pytest.raises(EnsembleError) as exc:
        ensemble_predict(ens, observed)
    assert exc.value.member == 1


def test_empty_ensemble_is_rejected():
    with pytest.raises(ValueError, match="at least one member"):
        ensemble_predict([], new_grid(3, 3))


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
    assert out == predict(PassThroughPredictor(), observed)


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

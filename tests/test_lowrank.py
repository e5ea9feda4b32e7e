"""Image encoding, rank-k reconstruction and quality metric contracts."""

import math
import tracemalloc

import numpy as np
import pytest

from quatsvd import lowrank
from quatsvd.io import write_image_ppm
from quatsvd.lowrank import (
    RgbImage,
    image_to_quat,
    low_rank_approx,
    mean_center_samples,
    psnr,
    quat_to_image,
    rebuild_frames,
    ssim,
    stack_frames,
)
from quatsvd.quatlin import QuatMatrix, expand_real_counterpart
from quatsvd.restart import SolverOptions, solve_partial_svd

from conftest import (
    dedup_singular_values,
    matrix_from_triplets_expansion,
    rand_qmat,
    synthetic_triplets,
)
from oracles import quat_dot


def random_image(rng, h, w):
    return RgbImage(*(rng.uniform(0.0, 255.0, size=(h, w)) for _ in range(3)))


def as_float64(img):
    return RgbImage(*(c.astype(np.float64) for c in img.channels()))


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shapes, message", [
    (((3, 4), (3, 4), (4, 3)), "channel shapes differ"),
    (((12,),) * 3, "channels must be 2-d"),
    (((2, 3, 4),) * 3, "channels must be 2-d"),
    (((0, 4),) * 3, "image is 0x4: it has no pixels"),
    (((4, 0),) * 3, "image is 4x0: it has no pixels"),
])
def test_rgb_image_rejects_bad_channels(shapes, message):
    with pytest.raises(ValueError, match=message):
        RgbImage(*(np.zeros(s) for s in shapes))


@pytest.mark.parametrize("use", ["psnr", "ssim", "write_image_ppm"])
def test_empty_image_is_an_error(tmp_path, use):
    # An empty image has no score: psnr would rate it a perfect match and
    # ssim divide by zero.  Its PPM would be one read_image_ppm refuses.
    path = tmp_path / "empty.ppm"
    run = {"psnr": lambda img: psnr(img, img),
           "ssim": lambda img: ssim(img, img),
           "write_image_ppm": lambda img: write_image_ppm(img, path)}[use]
    with pytest.raises(ValueError, match="no pixels"):
        run(RgbImage(*(np.zeros((0, 4)) for _ in range(3))))
    assert not path.exists()


class TestImageEncoding:
    def test_black_image_is_zero_matrix(self):
        img = RgbImage(*(np.zeros((3, 4)) for _ in range(3)))
        M = image_to_quat(img)
        assert all(np.all(b == 0.0) for b in M.dense_blocks())

    def test_single_red_pixel(self):
        img = RgbImage(R=np.array([[255.0]]), G=np.array([[0.0]]),
                       B=np.array([[0.0]]))
        M = image_to_quat(img)
        b0, b1, b2, b3 = M.dense_blocks()
        assert b0[0, 0] == 0.0 and b1[0, 0] == 255.0
        assert b2[0, 0] == 0.0 and b3[0, 0] == 0.0

    def test_round_trip(self, rng):
        img = random_image(rng, 5, 7)
        back = quat_to_image(image_to_quat(img))
        for a, b in zip(img.channels(), back.channels()):
            assert np.array_equal(a, b)

    def test_clamping(self):
        M = QuatMatrix(np.zeros((1, 2)), np.array([[-5.0, 300.0]]),
                       np.zeros((1, 2)), np.zeros((1, 2)))
        img = quat_to_image(M)
        assert np.array_equal(img.R, [[0.0, 255.0]])

    def test_reconstruction_stays_in_range_after_clamp(self, rng):
        img = random_image(rng, 16, 12)
        M = image_to_quat(img)
        T, _ = solve_partial_svd(M, SolverOptions(k=5, seed=0))
        out = quat_to_image(low_rank_approx(T, 5))
        for c in out.channels():
            assert c.min() >= 0.0 and c.max() <= 255.0


class TestLowRankApprox:
    def test_full_rank_reproduces_matrix(self, rng):
        T = synthetic_triplets(rng, 8, 6, [5.0, 3.0, 2.0, 1.0])
        M = matrix_from_triplets_expansion(T)
        Ak = low_rank_approx(T, 4)
        for got, want in zip(Ak.dense_blocks(), M.dense_blocks()):
            assert np.abs(got - want).max() <= 1e-12 * 5.0

    def test_rank_one_of_real_diagonal(self):
        Z = np.zeros((2, 2))
        M = QuatMatrix(np.diag([3.0, 2.0]), Z, Z, Z)
        T, _ = solve_partial_svd(M, SolverOptions(k=2, seed=1))
        Ak = low_rank_approx(T, 1)
        b0 = Ak.dense_blocks()[0]
        assert np.abs(b0 - np.diag([3.0, 0.0])).max() <= 1e-12
        assert max(np.abs(b).max() for b in Ak.dense_blocks()[1:]) <= 1e-12

    def test_truncation_error_matches_tail_formula(self, rng):
        # ||A_k - A||_F == sqrt(sum_{j>k} sigma_j^2), both sides computed
        # through independent paths (full oracle spectrum vs compact
        # subtraction).
        M = rand_qmat(rng, 20, 15)
        true_vals, _ = dedup_singular_values(M)
        T, _ = solve_partial_svd(M, SolverOptions(k=15, seed=2))
        for k in (1, 5, 11, 15):
            Ak = low_rank_approx(T, k)
            diff = math.sqrt(sum(((a - b) ** 2).sum() for a, b in
                                 zip(Ak.dense_blocks(), M.dense_blocks())))
            tail = math.sqrt(float((true_vals[k:] ** 2).sum()))
            assert diff == pytest.approx(tail, rel=1e-10, abs=1e-10)

    def test_truncated_rebuild_of_pure_quaternion_has_a_real_part(self):
        # quat_to_image drops the real block of a rebuild; it is of the
        # order of the i, j and k blocks, not roundoff.
        rng = np.random.default_rng(0)
        M = QuatMatrix(np.zeros((20, 15)),
                       *(rng.standard_normal((20, 15)) for _ in range(3)))
        T, _ = solve_partial_svd(M, SolverOptions(k=7, seed=1))
        assert T.all_converged
        for rank in (1, 3, 7):
            peaks = [np.abs(b).max()
                     for b in low_rank_approx(T, rank).dense_blocks()]
            assert 0.9 <= peaks[0] and 0.25 * max(peaks[1:]) <= peaks[0]

    def test_k_too_large(self, rng):
        T = synthetic_triplets(rng, 6, 5, [2.0, 1.0])
        with pytest.raises(ValueError):
            low_rank_approx(T, 3)

    @pytest.mark.parametrize("k", [-1, -4])
    def test_negative_k_rejected(self, rng, k):
        # A negative k would slice the triplets from the end: -1 gave a
        # rank-3 rebuild of four triplets and -4 the zero matrix.
        T = synthetic_triplets(rng, 8, 6, [5.0, 3.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            low_rank_approx(T, k)

    @pytest.mark.parametrize("k", [True, 1.5, 2.0, "2"])
    def test_non_integer_k_rejected(self, rng, k):
        # True would rebuild at rank 1 and 1.5 fail inside the slicing;
        # k follows SolverOptions' rule for a count.
        T = synthetic_triplets(rng, 8, 6, [5.0, 3.0, 2.0, 1.0])
        with pytest.raises(ValueError, match=f"k={k!r} must be an integer"):
            low_rank_approx(T, k)

    def test_numpy_integer_k_accepted(self, rng):
        T = synthetic_triplets(rng, 8, 6, [5.0, 3.0, 2.0, 1.0])
        want = low_rank_approx(T, 2).dense_blocks()
        assert np.array_equal(low_rank_approx(T, np.int64(2)).dense_blocks(),
                              want)


class TestPsnr:
    def test_identical_is_infinite(self, rng):
        img = random_image(rng, 4, 4)
        assert psnr(img, img) == math.inf

    def test_single_channel_full_error_is_zero_db(self):
        m, n = 6, 5
        base = RgbImage(*(np.zeros((m, n)) for _ in range(3)))
        other = RgbImage(R=np.full((m, n), 255.0), G=np.zeros((m, n)),
                         B=np.zeros((m, n)))
        assert psnr(base, other) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_error_closed_form(self):
        c = 17.0
        m, n = 8, 3
        a = RgbImage(*(np.zeros((m, n)) for _ in range(3)))
        b = RgbImage(*(np.full((m, n), c) for _ in range(3)))
        want = 10.0 * math.log10(255.0 ** 2 / (3.0 * c ** 2))
        assert psnr(a, b) == pytest.approx(want, abs=1e-12)

    def test_symmetric(self, rng):
        a, b = random_image(rng, 5, 5), random_image(rng, 5, 5)
        assert psnr(a, b) == psnr(b, a)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            psnr(random_image(rng, 3, 3), random_image(rng, 3, 4))


@pytest.mark.parametrize("metric", [psnr, ssim])
def test_uint8_channels_score_as_their_float64_copies(rng, metric):
    # uint8 differences wrap (3 - 250 == 9) unless taken in float64.
    a, b = (RgbImage(*(rng.integers(0, 256, (6, 5), dtype=np.uint8)
                       for _ in range(3))) for _ in range(2))
    assert metric(a, b) == metric(as_float64(a), as_float64(b))


def reference_ssim(F, Fk):
    """Plain-Python re-implementation of the global SSIM formula."""
    xs, ys = [], []
    for a, b in zip(F.channels(), Fk.channels()):
        xs.extend(float(v) for v in a.ravel())
        ys.extend(float(v) for v in b.ravel())
    N = len(xs)
    mx = sum(xs) / N
    my = sum(ys) / N
    vx = sum((v - mx) ** 2 for v in xs) / N
    vy = sum((v - my) ** 2 for v in ys) / N
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / N
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    return ((2.0 * mx * my + c1) * (2.0 * cov + c2)
            / ((mx ** 2 + my ** 2 + c1) * (vx + vy + c2)))


class TestSsim:
    def test_identical_images(self, rng):
        img = random_image(rng, 6, 6)
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-15)

    def test_zero_images(self):
        z = RgbImage(*(np.zeros((4, 4)) for _ in range(3)))
        assert ssim(z, z) == 1.0

    @pytest.mark.parametrize("seed", [0, 7, 15])
    def test_exact_rebuild_scores_at_most_one(self, seed):
        # The full-rank rebuilds of these images scored 1.0000000000000002
        # to 1.0000000000000004 before the clamp.
        img = random_image(np.random.default_rng(seed), 12, 10)
        T, _ = solve_partial_svd(image_to_quat(img),
                                 SolverOptions(k=10, seed=1))
        recon = quat_to_image(low_rank_approx(T, 10))
        assert ssim(img, recon) == pytest.approx(1.0, abs=1e-15)
        assert ssim(img, recon) <= 1.0
        assert ssim(img, img) == 1.0

    def test_nan_is_not_clamped(self, rng):
        img = random_image(rng, 4, 4)
        img.R[1, 2] = math.nan
        assert math.isnan(ssim(img, random_image(rng, 4, 4)))

    def test_matches_independent_reimplementation(self, rng):
        a, b = random_image(rng, 7, 5), random_image(rng, 7, 5)
        assert ssim(a, b) == pytest.approx(reference_ssim(a, b), abs=1e-12)

    @pytest.mark.parametrize("layout", ["float32", "uint8", "interleaved"])
    def test_matches_reimplementation_on_other_channel_layouts(self, rng,
                                                               layout):
        def image():
            pix = rng.uniform(0.0, 255.0, size=(7, 5, 3))
            if layout == "interleaved":       # non-contiguous channel views
                return RgbImage(pix[..., 0], pix[..., 1], pix[..., 2])
            return RgbImage(*(c.astype(layout) for c in pix.transpose(2, 0, 1)))
        a, b = image(), image()
        assert ssim(a, b) == pytest.approx(reference_ssim(a, b), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            ssim(random_image(rng, 3, 3), random_image(rng, 4, 3))


@pytest.mark.parametrize("h, w", [
    (700, 100),                         # a partial last panel
    (3, lowrank._PANEL_ELEMS + 3),      # one-row panels
    (1, 1),
])
def test_panelled_scores_match_references(rng, h, w):
    a, b = (RgbImage(*(rng.integers(0, 256, (h, w)).astype(np.float64)
                       for _ in range(3))) for _ in range(2))
    # Integer pixels: the squared error sums exactly in int64.
    err = sum(int(((x.astype(np.int64) - y.astype(np.int64)) ** 2).sum())
              for x, y in zip(a.channels(), b.channels()))
    want = 10.0 * math.log10(255.0 ** 2 * h * w / err) if err else math.inf
    assert psnr(a, b) == pytest.approx(want, abs=1e-12)
    assert ssim(a, b) == pytest.approx(reference_ssim(a, b), abs=1e-12)


class TestScoringMemory:
    """tracemalloc peaks, in float64 channels of a 512x512 image: eight
    row panels, each temporary an eighth of a channel."""

    H = W = 512
    CHANNEL = H * W * 8

    def test_ssim_streams_one_panel_at_a_time(self, rng):
        a, b = (random_image(rng, self.H, self.W) for _ in range(2))
        # Three centred panels at most: the next is made before the last
        # is freed.
        assert traced_peak(lambda: ssim(a, b)) <= 0.5 * self.CHANNEL

    def test_rebuild_holds_no_mixing_tensor(self, rng):
        T = synthetic_triplets(rng, self.H, self.W,
                               np.linspace(2e4, 1e3, 40))
        # The four output blocks, and U and one signed panel of V at
        # 0.31 channels each; a (4, 4k, n) mixing tensor alone is 1.25.
        assert traced_peak(lambda: low_rank_approx(T, 40)) <= 5.2 * self.CHANNEL

    def test_rebuild_and_score(self, rng):
        img = random_image(rng, self.H, self.W)
        T = synthetic_triplets(rng, self.H, self.W,
                               np.linspace(2e4, 1e3, 10))

        def rebuild_and_score():
            Ak = low_rank_approx(T, 10)
            recon = quat_to_image(Ak)
            psnr(img, recon)
            ssim(img, recon)
        # Ak's four blocks, the three clipped channels, three panels.
        assert traced_peak(rebuild_and_score) <= 7.5 * self.CHANNEL

    def test_rebuild_and_score_frame_by_frame(self, rng):
        img = random_image(rng, self.H, self.W)
        h = self.H // 8
        frames = [RgbImage(*(c[s:s + h] for c in img.channels()))
                  for s in range(0, self.H, h)]
        T = synthetic_triplets(rng, self.H, self.W,
                               np.linspace(2e4, 1e3, 10))

        def rebuild_and_score():
            for f, fk in zip(frames, rebuild_frames(T, 10, h)):
                psnr(f, fk)
                ssim(f, fk)
        # One 64-row frame's Ak and clipped channels (7/8 of a channel)
        # and its scoring panels; the whole-stack rebuild took 7.0.
        assert traced_peak(rebuild_and_score) <= 2.0 * self.CHANNEL


class TestFrames:
    def test_single_frame_equals_image_encoding(self, rng):
        img = random_image(rng, 4, 6)
        A = stack_frames([img])
        B = image_to_quat(img)
        for a, b in zip(A.dense_blocks(), B.dense_blocks()):
            assert np.array_equal(a, b)

    def test_identical_frames_keep_rank(self, rng):
        img = random_image(rng, 4, 6)
        single = np.linalg.svd(
            expand_real_counterpart(stack_frames([img])), compute_uv=False)
        double = np.linalg.svd(
            expand_real_counterpart(stack_frames([img, img])),
            compute_uv=False)
        rank = (single > 1e-8 * single[0]).sum()
        assert (double > 1e-8 * double[0]).sum() == rank

    def test_layout_blocks_map_to_frames(self, rng):
        frames = [random_image(rng, 3, 5) for _ in range(4)]
        A = stack_frames(frames)
        assert (A.rows, A.cols) == (12, 5)
        _, b1, _, _ = A.dense_blocks()
        for f_idx, frame in enumerate(frames):
            assert np.array_equal(b1[3 * f_idx:3 * (f_idx + 1)], frame.R)

    def test_stack_then_full_rank_reproduces_frames(self, rng):
        frames = [random_image(rng, 6, 4) for _ in range(2)]
        A = stack_frames(frames)
        k = min(A.rows, A.cols)
        T, _ = solve_partial_svd(A, SolverOptions(k=k, seed=4))
        out = rebuild_frames(T, k, 6)
        for f, g in zip(frames, out):
            for a, b in zip(f.channels(), g.channels()):
                assert np.abs(a - b).max() <= 1e-10

    def test_frames_are_the_rows_of_the_whole_rebuild(self, rng):
        T = synthetic_triplets(rng, 12, 5, [300.0, 120.0, 40.0])
        whole = quat_to_image(low_rank_approx(T, 2))
        out = list(rebuild_frames(T, 2, 4))
        assert len(out) == 3
        for s, g in zip(range(0, 12, 4), out):
            for a, b in zip(whole.channels(), g.channels()):
                assert np.abs(a[s:s + 4] - b).max() <= 1e-12 * 300.0

    def test_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            stack_frames([random_image(rng, 3, 4), random_image(rng, 3, 5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no frames"):
            stack_frames([])

    @pytest.mark.parametrize("height", [0, -2, 5])
    def test_frame_height_must_divide_the_rows(self, rng, height):
        T = synthetic_triplets(rng, 6, 4, [2.0, 1.0])    # two 3-row frames
        with pytest.raises(ValueError, match="frame height"):
            rebuild_frames(T, 2, height)


class TestMeanCenter:
    def test_identical_samples_center_to_zero(self, rng):
        s = rand_qmat(rng, 4, 3)
        X = mean_center_samples([s, s, s])
        assert all(np.abs(b).max() <= 1e-14 for b in X.dense_blocks())

    def test_two_samples_antisymmetric_columns(self, rng):
        a, b = rand_qmat(rng, 3, 2), rand_qmat(rng, 3, 2)
        X = mean_center_samples([a, b])
        for xa, ba, bb in zip(X.dense_blocks(), a.dense_blocks(),
                              b.dense_blocks()):
            half = (ba - bb).ravel(order="F") / 2.0
            assert np.allclose(xa[:, 0], half, atol=1e-14)
            assert np.allclose(xa[:, 1], -half, atol=1e-14)

    def test_columns_sum_to_zero(self, rng):
        X = mean_center_samples([rand_qmat(rng, 5, 4) for _ in range(6)])
        for b in X.dense_blocks():
            assert np.abs(b.sum(axis=1)).max() <= 1e-12

    def test_matches_the_per_sample_loop(self, rng):
        # The one-buffer mean sums in another order than this loop, so the
        # columns agree to a few ulps of the largest entry.
        samples = [rand_qmat(rng, 6, 5) for _ in range(20)]
        vecs = [np.stack([b.ravel(order="F") for b in s.dense_blocks()])
                for s in samples]
        mean = sum(vecs) / len(vecs)
        want = np.stack([v - mean for v in vecs], axis=2)
        got = np.stack(mean_center_samples(samples).dense_blocks())
        tol = 32 * np.finfo(np.float64).eps * np.abs(vecs).max()
        assert np.abs(got - want).max() <= tol

    def test_left_vectors_are_the_components(self, rng):
        # Samples mean + c_s P centre to vec(P) (c - mean(c))': the leading
        # left vector is vec(P) and the right one c - mean(c), each up to a
        # unit quaternion, which Cauchy-Schwarz equality |w* x| = ||w||
        # for a unit x detects.
        mean, P = rand_qmat(rng, 4, 3), rand_qmat(rng, 4, 3)
        c = rng.standard_normal(6)
        X = mean_center_samples([
            QuatMatrix(*(a + s * b for a, b in zip(mean.dense_blocks(),
                                                    P.dense_blocks())))
            for s in c])
        T, _ = solve_partial_svd(X, SolverOptions(k=1))
        vec_p = np.stack([b.ravel(order="F") for b in P.dense_blocks()],
                         axis=1)
        coords = np.zeros((c.size, 4))
        coords[:, 0] = c - c.mean()
        for want, got in ((vec_p, T.U[0]), (coords, T.V[0])):
            assert quat_dot(want, got).norm() == pytest.approx(
                np.linalg.norm(want), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_center_samples([])

    @pytest.mark.parametrize("shape", [(4, 2), (3, 3)])
    def test_size_mismatch(self, rng, shape):
        with pytest.raises(ValueError, match="sample dimensions differ"):
            mean_center_samples([rand_qmat(rng, 4, 3), rand_qmat(rng, *shape)])

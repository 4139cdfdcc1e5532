//! Spatial pooling layers (channel-major activations).

use crate::layer::{Layer, Shape3};
use fda_tensor::Matrix;

/// Non-overlapping 2-D max pooling with a square window.
///
/// Window size equals stride (the configuration used by LeNet/VGG-style
/// models). Input extents must be divisible by the window size.
/// Consumes and produces channel-major activations (`c × batch·spatial`):
/// each channel row is pooled per sample block, so the layer is a set of
/// contiguous plane scans with no layout staging.
///
/// Every window is reduced by the same strict-greater scan from `−∞` over
/// its elements in row-major order: the first of equal maxima wins, a NaN
/// never wins, and a window with no element above `−∞` yields `−∞` with
/// argmax 0 (the flat start of the input storage). The 2×2 window — every
/// pool in the zoo — runs that scan branch-free in two vectorisable stages
/// (the private `pool2_row`); other sizes take the generic window loop.
pub struct MaxPool2d {
    in_shape: Shape3,
    out_shape: Shape3,
    size: usize,
    // argmax positions as flat offsets into the channel-major input
    // storage, aligned with the flat output storage; reused across steps.
    argmax: Vec<u32>,
    batch: usize,
    // Stage-1 scratch of the 2×2 kernel, one block of input pairs.
    pairs: PairScratch,
}

/// Input floats the 2×2 kernel reduces per block (a whole number of
/// row pairs): its pair results stay in L1 between the two stages.
const POOL_BLOCK: usize = 2048;

/// Marks a pair (or window) in which no element beat `−∞`.
const NO_WINNER: u32 = u32::MAX;

/// Per-pair maxima and their flat input positions for one block.
#[derive(Default)]
struct PairScratch {
    val: Vec<f32>,
    idx: Vec<u32>,
}

/// Stage 1 of the 2×2 kernel: the strict-greater scan from `−∞` over each
/// horizontal pair `(x[2j], x[2j+1])` of a run of whole rows. `base` is the
/// flat input position of `x[0]`. One long stride-2 loop, independent of
/// the row width.
#[inline(always)]
fn pair_scan<const ARG: bool>(x: &[f32], base: u32, val: &mut [f32], idx: &mut [u32]) {
    for (j, ((p, v), i)) in x.chunks_exact(2).zip(val).zip(idx).enumerate() {
        let first = p[0] > f32::NEG_INFINITY;
        let best = if first { p[0] } else { f32::NEG_INFINITY };
        let second = p[1] > best;
        *v = if second { p[1] } else { best };
        if ARG {
            let pos = base + 2 * j as u32;
            let at = if first { pos } else { NO_WINNER };
            *i = if second { pos + 1 } else { at };
        }
    }
}

/// Stage 2: each window's top pair against its bottom pair. `val` / `idx`
/// hold the pair results of whole row pairs, `2·ow` per row pair (top row's
/// `ow`, then the bottom row's). Continuing the scan from the top pair's
/// winner through the bottom pair gives the same result as taking the
/// bottom pair's own winner iff it is strictly greater — the bottom winner
/// is the first of the bottom maxima, and an element enters the scan only
/// by beating everything before it.
#[inline(always)]
fn pair_merge<const ARG: bool>(
    ow: usize,
    val: &[f32],
    idx: &[u32],
    out: &mut [f32],
    arg: &mut [u32],
) {
    let windows = val.chunks_exact(2 * ow).zip(out.chunks_exact_mut(ow));
    if ARG {
        let positions = idx.chunks_exact(2 * ow).zip(arg.chunks_exact_mut(ow));
        for ((v, o), (i, a)) in windows.zip(positions) {
            for ox in 0..ow {
                let lower = v[ow + ox] > v[ox];
                o[ox] = if lower { v[ow + ox] } else { v[ox] };
                let at = if lower { i[ow + ox] } else { i[ox] };
                a[ox] = if at == NO_WINNER { 0 } else { at };
            }
        }
    } else {
        for (v, o) in windows {
            for ox in 0..ow {
                o[ox] = if v[ow + ox] > v[ox] {
                    v[ow + ox]
                } else {
                    v[ox]
                };
            }
        }
    }
}

/// 2×2 max pooling of one channel row (`batch` planes of width `w`, even
/// height): outputs into `out`, and — iff `ARG` — flat input positions of
/// the maxima into `arg` (`base` is the row's own flat position; `arg` is
/// empty otherwise).
fn pool2_row<const ARG: bool>(
    row: &[f32],
    w: usize,
    base: u32,
    out: &mut [f32],
    arg: &mut [u32],
    pairs: &mut PairScratch,
) {
    let ow = w / 2;
    // Whole row pairs per block; one even when a single pair overflows it.
    let block_in = (POOL_BLOCK / (2 * w)).max(1) * 2 * w;
    pairs.val.resize(block_in / 2, 0.0);
    pairs.idx.resize(block_in / 2, 0);
    let mut arg_blocks = arg.chunks_mut(block_in / 4);
    for (b, (x, out)) in row
        .chunks(block_in)
        .zip(out.chunks_mut(block_in / 4))
        .enumerate()
    {
        let n_pairs = x.len() / 2;
        let (val, idx) = (&mut pairs.val[..n_pairs], &mut pairs.idx[..n_pairs]);
        pair_scan::<ARG>(x, base + (b * block_in) as u32, val, idx);
        let arg = arg_blocks.next().unwrap_or_default();
        // The widths of the zoo get a merge loop of constant trip count
        // (unrolled and vectorised); any other width runs the same code
        // with the count in a register.
        match ow {
            2 => pair_merge::<ARG>(2, val, idx, out, arg),
            3 => pair_merge::<ARG>(3, val, idx, out, arg),
            4 => pair_merge::<ARG>(4, val, idx, out, arg),
            6 => pair_merge::<ARG>(6, val, idx, out, arg),
            _ => pair_merge::<ARG>(ow, val, idx, out, arg),
        }
    }
}

/// The generic window loop: any square window, the scan spelled out.
fn pool_windows(
    x: &Matrix,
    shape: Shape3,
    s: usize,
    y: &mut Matrix,
    mut argmax: Option<&mut [u32]>,
) {
    let Shape3 { c, h, w } = shape;
    let (oh, ow) = (h / s, w / s);
    let (hw, out_hw) = (h * w, oh * ow);
    let batch = x.cols() / hw;
    for ch in 0..c {
        let row = x.row(ch);
        let out_row = y.row_mut(ch);
        for b in 0..batch {
            let plane = &row[b * hw..(b + 1) * hw];
            // Absolute base of this plane in the input storage.
            let base_abs = ch * batch * hw + b * hw;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..s {
                        for dx in 0..s {
                            let idx = (oy * s + dy) * w + ox * s + dx;
                            let v = plane[idx];
                            if v > best {
                                best = v;
                                best_idx = base_abs + idx;
                            }
                        }
                    }
                    let out_idx = b * out_hw + oy * ow + ox;
                    out_row[out_idx] = best;
                    if let Some(arg) = argmax.as_deref_mut() {
                        arg[ch * batch * out_hw + out_idx] = best_idx as u32;
                    }
                }
            }
        }
    }
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Panics
    /// Panics if `h` or `w` is not divisible by `size`.
    pub fn new(in_shape: Shape3, size: usize) -> Self {
        assert!(size >= 1, "pool window must be positive");
        assert_eq!(
            in_shape.h % size,
            0,
            "pool: height {} % {} != 0",
            in_shape.h,
            size
        );
        assert_eq!(
            in_shape.w % size,
            0,
            "pool: width {} % {} != 0",
            in_shape.w,
            size
        );
        let out_shape = Shape3::new(in_shape.c, in_shape.h / size, in_shape.w / size);
        MaxPool2d {
            in_shape,
            out_shape,
            size,
            argmax: Vec::new(),
            batch: 0,
            pairs: PairScratch::default(),
        }
    }

    /// The output activation shape.
    pub fn out_shape(&self) -> Shape3 {
        self.out_shape
    }

    /// Pools `x`, recording argmaxes iff `ARG`.
    fn pool<const ARG: bool>(&mut self, x: &Matrix) -> Matrix {
        let batch = self.in_shape.batch_of(x, "maxpool input");
        assert!(
            x.len() < NO_WINNER as usize,
            "maxpool: input too large for u32 argmaxes"
        );
        let mut y = Matrix::zeros(self.out_shape.c, batch * self.out_shape.spatial());
        self.argmax.resize(if ARG { y.len() } else { 0 }, 0);
        self.batch = if ARG { batch } else { 0 };
        if self.size != 2 {
            let argmax = ARG.then_some(self.argmax.as_mut_slice());
            pool_windows(x, self.in_shape, self.size, &mut y, argmax);
            return y;
        }
        let mut arg_rows = self.argmax.chunks_mut(y.cols());
        for ch in 0..self.in_shape.c {
            pool2_row::<ARG>(
                x.row(ch),
                self.in_shape.w,
                (ch * x.cols()) as u32,
                y.row_mut(ch),
                arg_rows.next().unwrap_or_default(),
                &mut self.pairs,
            );
        }
        y
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Matrix, _p: &[f32], _train: bool) -> Matrix {
        self.pool::<true>(&x)
    }

    /// No argmax is written (and the old ones are dropped).
    fn forward_inference(&mut self, x: Matrix, _p: &[f32]) -> Matrix {
        self.pool::<false>(&x)
    }

    fn backward(&mut self, dy: Matrix, _p: &[f32], _g: &mut [f32]) -> Matrix {
        assert_eq!(
            dy.rows(),
            self.out_shape.c,
            "maxpool: grad not channel-major (rows = {}, want c = {})",
            dy.rows(),
            self.out_shape.c
        );
        assert_eq!(
            dy.cols(),
            self.batch * self.out_shape.spatial(),
            "maxpool: backward without matching forward (grad width {}, want batch {} × spatial {})",
            dy.cols(),
            self.batch,
            self.out_shape.spatial()
        );
        let mut dx = Matrix::zeros(self.in_shape.c, self.batch * self.in_shape.spatial());
        let dst = dx.as_mut_slice();
        for (&src_idx, &g) in self.argmax.iter().zip(dy.as_slice()) {
            dst[src_idx as usize] += g;
        }
        dx
    }

    fn out_dim(&self, in_dim: usize) -> usize {
        assert_eq!(
            in_dim,
            self.in_shape.len(),
            "maxpool: wired to wrong input width"
        );
        self.out_shape.len()
    }

    fn in_shape3(&self) -> Option<Shape3> {
        Some(self.in_shape)
    }
}

/// Global average pooling: collapses each channel plane to its mean.
///
/// This layer is a layout boundary: it consumes channel-major activations
/// (`c × batch·spatial`) and produces the sample-major `batch × c` feature
/// matrix a dense head expects — no separate [`crate::dense::Flatten`] is
/// needed after it.
pub struct GlobalAvgPool {
    in_shape: Shape3,
    batch: usize,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new(in_shape: Shape3) -> Self {
        GlobalAvgPool { in_shape, batch: 0 }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: Matrix, _p: &[f32], _train: bool) -> Matrix {
        let Shape3 { c, h, w } = self.in_shape;
        let hw = h * w;
        let batch = self.in_shape.batch_of(&x, "gap input");
        let plane = hw as f32;
        self.batch = batch;
        let mut y = Matrix::zeros(batch, c);
        for ch in 0..c {
            let row = x.row(ch);
            for b in 0..batch {
                let v = fda_tensor::vector::sum(&row[b * hw..(b + 1) * hw]) / plane;
                y.set(b, ch, v);
            }
        }
        y
    }

    fn backward(&mut self, dy: Matrix, _p: &[f32], _g: &mut [f32]) -> Matrix {
        assert_eq!(dy.cols(), self.in_shape.c, "gap: grad width mismatch");
        assert_eq!(
            dy.rows(),
            self.batch,
            "gap: backward without matching forward"
        );
        let Shape3 { c, h, w } = self.in_shape;
        let hw = h * w;
        let inv_plane = 1.0 / hw as f32;
        let mut dx = Matrix::zeros(c, self.batch * hw);
        for ch in 0..c {
            let dst = dx.row_mut(ch);
            for b in 0..self.batch {
                let gv = dy.get(b, ch) * inv_plane;
                for v in &mut dst[b * hw..(b + 1) * hw] {
                    *v = gv;
                }
            }
        }
        dx
    }

    fn out_dim(&self, in_dim: usize) -> usize {
        assert_eq!(
            in_dim,
            self.in_shape.len(),
            "gap: wired to wrong input width"
        );
        self.in_shape.c
    }

    fn in_shape3(&self) -> Option<Shape3> {
        Some(self.in_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_known() {
        let mut pool = MaxPool2d::new(Shape3::new(1, 4, 4), 2);
        // Channel-major, 1 channel × 1 sample: one 4×4 plane.
        #[rustfmt::skip]
        let x = Matrix::from_vec(1, 16, vec![
            1.0, 2.0,   5.0, 6.0,
            3.0, 4.0,   7.0, 8.0,

            9.0, 10.0,  13.0, 14.0,
            11.0, 12.0, 15.0, 16.0,
        ]);
        let y = pool.forward(x.clone(), &[], true);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    /// The 2×2 fast path must keep the generic strict-greater scan
    /// semantics: a NaN never wins over a later finite candidate, and ties
    /// pick the first position in scan order.
    #[test]
    fn maxpool_2x2_nan_and_tie_semantics() {
        let mut pool = MaxPool2d::new(Shape3::new(1, 2, 2), 2);
        let x = Matrix::from_vec(1, 4, vec![f32::NAN, 5.0, 1.0, 2.0]);
        let _ = pool.forward(x, &[], true);
        let dx = pool.backward(Matrix::from_vec(1, 1, vec![3.0]), &[], &mut []);
        assert_eq!(
            dx.as_slice(),
            &[0.0, 3.0, 0.0, 0.0],
            "NaN must not capture the argmax"
        );
        // Ties: the first of equal values (scan order t0,t1,b0,b1) wins.
        let x = Matrix::from_vec(1, 4, vec![7.0, 7.0, 7.0, 7.0]);
        let y = pool.forward(x, &[], true);
        assert_eq!(y.as_slice(), &[7.0]);
        let dx = pool.backward(Matrix::from_vec(1, 1, vec![1.0]), &[], &mut []);
        assert_eq!(dx.as_slice(), &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(Shape3::new(1, 2, 2), 2);
        let x = Matrix::from_vec(1, 4, vec![1.0, 9.0, 3.0, 2.0]);
        let _ = pool.forward(x.clone(), &[], true);
        let dx = pool.backward(Matrix::from_vec(1, 1, vec![5.0]), &[], &mut []);
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_multichannel_shapes() {
        let mut pool = MaxPool2d::new(Shape3::new(3, 6, 6), 2);
        assert_eq!(pool.out_shape(), Shape3::new(3, 3, 3));
        // Channel-major: 3 channels × 2 sample blocks of 36.
        let x = Matrix::zeros(3, 2 * 36);
        let y = pool.forward(x.clone(), &[], true);
        assert_eq!((y.rows(), y.cols()), (3, 2 * 9));
    }

    /// Multi-channel, multi-sample pooling matches pooling each sample
    /// alone — the per-sample block indexing must not leak across blocks.
    #[test]
    fn maxpool_batch_matches_per_sample() {
        use fda_tensor::Rng;
        let shape = Shape3::new(2, 4, 4);
        let mut pool = MaxPool2d::new(shape, 2);
        let mut x = Matrix::zeros(2, 3 * 16);
        Rng::new(31).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let y = pool.forward(x.clone(), &[], true);
        let mut dy = Matrix::zeros(2, 3 * 4);
        Rng::new(32).fill_normal(dy.as_mut_slice(), 0.0, 1.0);
        let dx = pool.backward(dy.clone(), &[], &mut []);
        for s in 0..3 {
            // Slice sample s out of the channel-major batch.
            let mut xs = Matrix::zeros(2, 16);
            let mut dys = Matrix::zeros(2, 4);
            for ch in 0..2 {
                xs.row_mut(ch)
                    .copy_from_slice(&x.row(ch)[s * 16..(s + 1) * 16]);
                dys.row_mut(ch)
                    .copy_from_slice(&dy.row(ch)[s * 4..(s + 1) * 4]);
            }
            let mut solo = MaxPool2d::new(shape, 2);
            let ys = solo.forward(xs, &[], true);
            let dxs = solo.backward(dys, &[], &mut []);
            for ch in 0..2 {
                assert_eq!(ys.row(ch), &y.row(ch)[s * 4..(s + 1) * 4], "fwd s={s}");
                assert_eq!(dxs.row(ch), &dx.row(ch)[s * 16..(s + 1) * 16], "bwd s={s}");
            }
        }
    }

    #[test]
    fn gap_mean_and_backward() {
        let mut gap = GlobalAvgPool::new(Shape3::new(2, 2, 2));
        // Channel-major: 2 channel rows × 1 sample block of 4.
        let x = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0]);
        let y = gap.forward(x.clone(), &[], true);
        assert_eq!((y.rows(), y.cols()), (1, 2), "gap output is sample-major");
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let dx = gap.backward(Matrix::from_vec(1, 2, vec![4.0, 8.0]), &[], &mut []);
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "pool: height")]
    fn indivisible_input_panics() {
        let _ = MaxPool2d::new(Shape3::new(1, 5, 4), 2);
    }

    #[test]
    #[should_panic(expected = "not channel-major")]
    fn wrong_layout_panics() {
        let mut pool = MaxPool2d::new(Shape3::new(3, 4, 4), 2);
        // Sample-major batch (2 × 48) has the wrong row count.
        let _ = pool.forward(Matrix::zeros(2, 48), &[], true);
    }

    /// (b) The two-stage 2×2 kernel against the generic window loop, bit
    /// for bit, on inputs dense in exact ties, all-equal windows, signed
    /// zeros, NaN and −∞ (whole windows of them included): outputs,
    /// argmaxes and the backward scatter — for every merge width with a
    /// constant-trip-count arm, widths without one, a row pair larger than
    /// a scan block, and batches that end mid-block.
    #[test]
    fn differential_pool2_matches_generic_windows() {
        use fda_tensor::Rng;
        let mut rng = Rng::new(0xB001);
        let palette = [
            0.0,
            -0.0,
            1.0,
            1.0,
            -1.0,
            2.5,
            f32::NAN,
            f32::NEG_INFINITY,
            f32::INFINITY,
        ];
        let shapes = [
            (1, 2, 2),
            (2, 4, 4),
            (3, 6, 6),
            (2, 8, 8),
            (1, 12, 12),
            (2, 2, 10),
            (1, 4, 14),
            (1, 6, 34),
            (1, 2, 1100),
        ];
        for &(c, h, w) in &shapes {
            let shape = Shape3::new(c, h, w);
            for batch in [1usize, 5, 32] {
                let ctx = format!("{shape:?} batch={batch}");
                let mut x = Matrix::zeros(c, batch * h * w);
                for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                    // Windows 0 mod 7 are constant (all-equal, all-NaN or
                    // all-−∞ among them); the rest draw per element.
                    let window = (i / w / 2) * (w / 2) + (i % w) / 2;
                    let pick = if window % 7 == 0 {
                        window / 7
                    } else {
                        rng.next_u64() as usize
                    };
                    *v = palette[pick % palette.len()];
                }
                let mut pool = MaxPool2d::new(shape, 2);
                let y = pool.forward(x.clone(), &[], true);
                let mut want = Matrix::zeros(y.rows(), y.cols());
                let mut want_arg = vec![0u32; y.len()];
                pool_windows(&x, shape, 2, &mut want, Some(&mut want_arg));
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&y), bits(&want), "{ctx}: outputs");
                assert_eq!(pool.argmax, want_arg, "{ctx}: argmaxes");

                let mut dy = Matrix::zeros(y.rows(), y.cols());
                rng.fill_normal(dy.as_mut_slice(), 0.0, 1.0);
                let dx = pool.backward(dy.clone(), &[], &mut []);
                let mut want_dx = vec![0.0f32; x.len()];
                for (&i, &g) in want_arg.iter().zip(dy.as_slice()) {
                    want_dx[i as usize] += g;
                }
                let want_dx = Matrix::from_vec(c, batch * h * w, want_dx);
                assert_eq!(bits(&dx), bits(&want_dx), "{ctx}: backward");

                // The inference forward: same outputs, no argmax kept.
                let y_inf = pool.forward_inference(x.clone(), &[]);
                assert_eq!(bits(&y_inf), bits(&want), "{ctx}: inference outputs");
                assert!(pool.argmax.is_empty(), "{ctx}: inference kept argmaxes");
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward without matching forward")]
    fn backward_after_inference_forward_panics() {
        let mut pool = MaxPool2d::new(Shape3::new(1, 2, 2), 2);
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let _ = pool.forward(x.clone(), &[], true);
        let _ = pool.forward_inference(x, &[]);
        let _ = pool.backward(Matrix::from_vec(1, 1, vec![1.0]), &[], &mut []);
    }
}

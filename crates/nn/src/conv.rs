//! 2-D convolution via batch-level im2col on channel-major activations.
//!
//! The paper's models (LeNet-5, VGG16*, DenseNets) are convolutional; this
//! layer provides the same computational structure at CPU scale. The whole
//! minibatch is lowered into **one** column matrix
//! (`in_c·kh·kw × batch·out_h·out_w`), turning each of forward, weight-grad
//! and input-grad into a single large GEMM per layer — large enough for the
//! blocked kernel in `fda_tensor::matrix` to run at full tilt, instead of
//! one small GEMM per sample. An inference forward, which owes no backward
//! pass the column matrix, lowers and multiplies a cache-sized chunk of
//! samples at a time instead, each chunk's product landing in place in
//! its columns of the output (bit-identical: see
//! `Layer::forward_inference` below).
//!
//! Activations arrive and leave **channel-major** (`c × batch·spatial`,
//! per-sample column blocks — see [`crate::layer`]). That is exactly the
//! shape of the forward GEMM product `W · cols` and of the backward GEMM
//! operand `dy`, so the layer performs **no layout staging**: the GEMM
//! output *is* the layer output, and the incoming gradient feeds the
//! weight/input-gradient GEMMs directly. (Earlier revisions kept
//! sample-major activations and paid a full gather + scatter pass over
//! `out_c × batch·spatial` staging buffers on every forward *and* backward
//! of every conv layer.)
//!
//! All lowering buffers (`cols`, `dcol`, and the GEMM packing [`Scratch`])
//! are keyed on **capacity**: they grow to the largest batch seen and are
//! thereafter reshaped in place, so steady-state training performs no
//! per-step allocation inside the convolution beyond its output matrix.
//!
//! # Lowering: shift + mask
//!
//! For *same-padding* geometry (`2·pad = k − 1`, so the output plane has
//! the input plane's extents — every conv in the zoo) the column-matrix
//! row of tap `(ch, ky, kx)` is the **whole channel row** of the input
//! shifted by `δ = (ky − pad)·w + (kx − pad)`, with the positions whose
//! shifted partner falls outside its sample's plane forced to `+0.0`. So
//! im2col is `in_c·k²` long bit-masked copies and col2im the same number of
//! long masked adds ([`ShiftPlan`]), instead of thousands of short
//! `copy_from_slice` runs. The border is a **bitwise AND** with an
//! all-ones / all-zeros lane mask, not a multiply: `0 · Inf` and `0 · NaN`
//! are NaN, while a masked lane must contribute exactly nothing. Every
//! position of `cols` is written on every lowering, so the buffer needs no
//! zero-initialisation invariant and a batch-size change costs nothing.
//!
//! The copy plan ([`build_copy_plan`]) stays the single description of
//! the geometry: the shift masks are derived from it, it is what the
//! property suite inspects, and it drives the lowering of convs whose
//! output width differs from the input width (no constant shift exists
//! there).

use crate::init::Init;
use crate::layer::{Layer, Shape3};
use fda_tensor::matrix::{self, MatMut, MatRef, Scratch};
use fda_tensor::{Matrix, Rng};
use std::ops::Range;

/// Column-matrix floats an inference forward lowers at a time: a chunk of
/// samples whose `cols` (fan_in × chunk·spatial) and product stay in L2
/// together, where a whole eval batch's `cols` spills it.
const INFER_CHUNK_FLOATS: usize = 32 * 1024;

/// A 2-D convolution with square stride-1 kernels and symmetric zero
/// padding.
///
/// Consumes and produces channel-major activations; the layer knows its
/// input [`Shape3`] from construction and asserts the incoming layout.
pub struct Conv2d {
    in_shape: Shape3,
    out_shape: Shape3,
    k: usize,
    /// The initial `W` (`out_c × in_c·k·k`, row-major) then `b`, until
    /// [`Layer::take_params`] moves them out.
    init: Vec<f32>,
    /// Batched column matrix from the last forward
    /// (`in_c·k·k × batch·spatial`), or the last chunk of an inference
    /// forward. Shift lowering rewrites every position each step; under
    /// the plan fallback padded positions are zeroed at (re)shape time and
    /// never dirtied.
    cols: Matrix,
    /// Batch size the lowering buffers were built for (0 = not yet built,
    /// or invalidated by an inference forward).
    cols_batch: usize,
    /// Column-gradient buffer (`in_c·k·k × batch·spatial`), sized lazily on
    /// first backward so inference-only use never pays for it.
    dcol: Matrix,
    /// GEMM packing arena, reused across steps.
    scratch: Scratch,
    /// Precomputed im2col copy runs (see [`build_copy_plan`]).
    plan: Vec<CopyRun>,
    /// Shift + mask lowering, `Some` iff the geometry is same-padding.
    shift: Option<ShiftPlan>,
}

/// One contiguous copy between a channel plane of the input and a
/// column-matrix row:
/// `cols[row][col_off + dst ..+len] ↔ x[src_row][blk_off + src ..+len]`,
/// where `col_off`/`blk_off` select the sample's column block in the
/// respective channel-major matrix and `src` is relative to the sample's
/// `h·w` plane.
#[derive(Debug, Clone, Copy)]
struct CopyRun {
    row: u32,
    src_row: u32,
    dst: u32,
    src: u32,
    len: u32,
}

/// Precomputes the im2col copy runs for a fixed geometry: all the padding
/// clipping and index arithmetic happens once at layer construction, and
/// adjacent runs that are contiguous on both sides (e.g. the unclipped
/// centre kernel column) are coalesced into single long copies. The same
/// plan drives the forward gather and (as its exact adjoint) the backward
/// scatter.
fn build_copy_plan(in_shape: Shape3, out_shape: Shape3, k: usize, pad: usize) -> Vec<CopyRun> {
    let Shape3 { c, h, w } = in_shape;
    let (oh, ow) = (out_shape.h, out_shape.w);
    let pad = pad as isize;
    let mut plan: Vec<CopyRun> = Vec::new();
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row_idx = (ch * k + ky) * k + kx;
                for oy in 0..oh {
                    let iy = oy as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let ox_lo = (pad - kx as isize).max(0) as usize;
                    let ox_hi = (w as isize + pad - kx as isize).min(ow as isize).max(0) as usize;
                    if ox_lo >= ox_hi {
                        continue;
                    }
                    let ix0 = (ox_lo as isize + kx as isize - pad) as usize;
                    let run = CopyRun {
                        row: row_idx as u32,
                        src_row: ch as u32,
                        dst: (oy * ow + ox_lo) as u32,
                        src: (iy as usize * w + ix0) as u32,
                        len: (ox_hi - ox_lo) as u32,
                    };
                    match plan.last_mut() {
                        Some(last)
                            if last.row == run.row
                                && last.src_row == run.src_row
                                && last.dst + last.len == run.dst
                                && last.src + last.len == run.src =>
                        {
                            last.len += run.len;
                        }
                        _ => plan.push(run),
                    }
                }
            }
        }
    }
    plan
}

/// Lowers one sample's planes from a channel-major batch into the shared
/// column matrix at column offset `col_off` (the sample's `spatial`-wide
/// block); `blk_off` is the sample's block offset in the input
/// (`sample · in_spatial`). Only in-bounds input positions are written:
/// padded positions stay at their initial zero, which is why the buffer
/// never needs re-clearing.
fn im2col_into(plan: &[CopyRun], x: &Matrix, blk_off: usize, cols: &mut Matrix, col_off: usize) {
    let ncols = cols.cols();
    let x_ncols = x.cols();
    let x_data = x.as_slice();
    let data = cols.as_mut_slice();
    for run in plan {
        let dst = run.row as usize * ncols + col_off + run.dst as usize;
        let src = run.src_row as usize * x_ncols + blk_off + run.src as usize;
        let len = run.len as usize;
        data[dst..dst + len].copy_from_slice(&x_data[src..src + len]);
    }
}

/// Scatter-accumulates one sample's column-gradient block (at column offset
/// `col_off`) back into a channel-major input gradient — the adjoint of
/// [`im2col_into`].
fn col2im_from(plan: &[CopyRun], dcol: &Matrix, col_off: usize, dx: &mut Matrix, blk_off: usize) {
    let ncols = dcol.cols();
    let dx_ncols = dx.cols();
    let data = dcol.as_slice();
    let dst_data = dx.as_mut_slice();
    for run in plan {
        let src = run.row as usize * ncols + col_off + run.dst as usize;
        let dst = run.src_row as usize * dx_ncols + blk_off + run.src as usize;
        let len = run.len as usize;
        for (d, s) in dst_data[dst..dst + len]
            .iter_mut()
            .zip(&data[src..src + len])
        {
            *d += s;
        }
    }
}

/// Target length (in floats) of one masked-copy call: long enough that
/// the vector loop dominates its prologue, short enough that a chunk of
/// `dx` stays in L1 across the `k²` taps of the col2im accumulation.
const SHIFT_CHUNK: usize = 1024;

/// The shift + mask form of the copy plan for same-padding geometry (see
/// the module docs). One entry per kernel tap `ky·k + kx`, shared by all
/// channels.
struct ShiftPlan {
    /// Source offset of each tap: `cols[(ch, tap)][p] = x[ch][p + delta]`
    /// wherever the mask is set.
    delta: Vec<isize>,
    /// Per tap, `chunk` lane masks (all-ones where the shifted read stays
    /// inside the sample's plane, zero on the padded border): the plane
    /// mask tiled over a whole number of samples.
    mask: Vec<u32>,
    /// Mask row length: a whole number of planes, ≥ [`SHIFT_CHUNK`] for
    /// all but huge planes. Lowering walks the batch in chunks of this
    /// many positions, so the masks are independent of the batch size.
    chunk: usize,
}

impl ShiftPlan {
    /// Derives the per-tap shifts and border masks from the copy plan, or
    /// `None` when the output plane is not the input plane (then no
    /// constant shift relates a column-matrix row to its channel row).
    fn from_plan(plan: &[CopyRun], in_shape: Shape3, out_shape: Shape3, k: usize) -> Option<Self> {
        if (in_shape.h, in_shape.w) != (out_shape.h, out_shape.w) {
            return None;
        }
        let hw = in_shape.spatial();
        let taps = k * k;
        let mut delta: Vec<Option<isize>> = vec![None; taps];
        let mut plane = vec![0u32; taps * hw];
        // Channel 0's runs describe every tap; the other channels repeat
        // them. A tap entirely in the padding has no run: its mask stays
        // zero and its shift is irrelevant.
        for run in plan.iter().filter(|r| r.src_row == 0) {
            let tap = run.row as usize;
            let d = run.src as isize - run.dst as isize;
            assert_eq!(
                *delta[tap].get_or_insert(d),
                d,
                "conv: copy plan is not one constant shift per tap"
            );
            let start = tap * hw + run.dst as usize;
            plane[start..start + run.len as usize].fill(u32::MAX);
        }
        let delta: Vec<isize> = delta.into_iter().map(|d| d.unwrap_or(0)).collect();
        let samples = SHIFT_CHUNK.div_ceil(hw);
        let chunk = samples * hw;
        let mut mask = Vec::with_capacity(taps * chunk);
        for tap in 0..taps {
            for _ in 0..samples {
                mask.extend_from_slice(&plane[tap * hw..(tap + 1) * hw]);
            }
        }
        Some(ShiftPlan { delta, mask, chunk })
    }

    /// The positions of chunk `[a, b)` whose partner under shift `delta`
    /// lies in the same chunk. Chunks are whole samples, so everything
    /// outside this range reads across a sample boundary — padding.
    fn interior(a: usize, b: usize, delta: isize) -> (usize, usize) {
        let lo = (a + delta.min(0).unsigned_abs()).min(b);
        let hi = b.saturating_sub(delta.max(0).unsigned_abs()).max(lo);
        (lo, hi)
    }

    /// im2col of the input columns `span` (whole samples):
    /// `cols[(ch, tap)][p] = x[ch][span.start + p + δ] & mask[tap][p]`,
    /// every position of `cols` written.
    fn lower(&self, x: &Matrix, span: Range<usize>, cols: &mut Matrix) {
        let taps = self.delta.len();
        let n = span.len();
        for row in 0..cols.rows() {
            let (ch, tap) = (row / taps, row % taps);
            let delta = self.delta[tap];
            let mask = &self.mask[tap * self.chunk..(tap + 1) * self.chunk];
            let src = &x.row(ch)[span.clone()];
            let dst = cols.row_mut(row);
            for a in (0..n).step_by(self.chunk) {
                let b = (a + self.chunk).min(n);
                let (lo, hi) = Self::interior(a, b, delta);
                dst[a..lo].fill(0.0);
                dst[hi..b].fill(0.0);
                if lo == hi {
                    continue;
                }
                let shifted = &src[lo.wrapping_add_signed(delta)..hi.wrapping_add_signed(delta)];
                for ((d, s), m) in dst[lo..hi].iter_mut().zip(shifted).zip(&mask[lo - a..]) {
                    *d = f32::from_bits(s.to_bits() & m);
                }
            }
        }
    }

    /// col2im, the adjoint: `dx[ch][p + δ] += dcol[(ch, tap)][p] &
    /// mask[tap][p]` into a zeroed `dx`, taps in ascending order per
    /// destination element — the association of the plan-driven scatter,
    /// whose runs are sorted by tap and touch each destination at most
    /// once per tap. A masked lane adds `+0.0`, which leaves every value a
    /// sum started at `+0.0` can hold (never `−0.0`) unchanged, bit for
    /// bit.
    fn scatter(&self, dcol: &Matrix, dx: &mut Matrix) {
        let taps = self.delta.len();
        let n = dx.cols();
        for ch in 0..dx.rows() {
            let dst = dx.row_mut(ch);
            // Chunk-outer so the `dx` chunk stays cache-resident across
            // its taps.
            for a in (0..n).step_by(self.chunk) {
                let b = (a + self.chunk).min(n);
                for tap in 0..taps {
                    let delta = self.delta[tap];
                    let (lo, hi) = Self::interior(a, b, delta);
                    if lo == hi {
                        continue;
                    }
                    let mask = &self.mask[tap * self.chunk + lo - a..];
                    let src = &dcol.row(ch * taps + tap)[lo..hi];
                    let shifted =
                        &mut dst[lo.wrapping_add_signed(delta)..hi.wrapping_add_signed(delta)];
                    for ((d, s), m) in shifted.iter_mut().zip(src).zip(mask) {
                        *d += f32::from_bits(s.to_bits() & m);
                    }
                }
            }
        }
    }
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// `pad` is applied on all four sides; output spatial size is
    /// `h + 2·pad − k + 1` (stride 1).
    ///
    /// # Panics
    /// Panics if the kernel is larger than the padded input (in either
    /// spatial dimension).
    pub fn new(
        in_shape: Shape3,
        out_c: usize,
        k: usize,
        pad: usize,
        init: Init,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            k <= in_shape.h + 2 * pad && k <= in_shape.w + 2 * pad,
            "conv: kernel {k} too large for input {in_shape:?} with pad {pad}"
        );
        let out_h = in_shape.h + 2 * pad - k + 1;
        let out_w = in_shape.w + 2 * pad - k + 1;
        let fan_in = in_shape.c * k * k;
        let fan_out = out_c * k * k;
        let mut params = vec![0.0; out_c * fan_in + out_c];
        init.fill(&mut params[..out_c * fan_in], fan_in, fan_out, rng);
        let out_shape = Shape3::new(out_c, out_h, out_w);
        let plan = build_copy_plan(in_shape, out_shape, k, pad);
        let shift = ShiftPlan::from_plan(&plan, in_shape, out_shape, k);
        Conv2d {
            in_shape,
            out_shape,
            k,
            init: params,
            cols: Matrix::zeros(0, 0),
            cols_batch: 0,
            dcol: Matrix::zeros(0, 0),
            scratch: Scratch::new(),
            plan,
            shift,
        }
    }

    /// The input activation shape.
    pub fn in_shape(&self) -> Shape3 {
        self.in_shape
    }

    /// The output activation shape.
    pub fn out_shape(&self) -> Shape3 {
        self.out_shape
    }

    /// Column-matrix rows: the `in_c·k·k` taps of one output pixel.
    fn fan_in(&self) -> usize {
        self.in_shape.c * self.k * self.k
    }

    /// Where `b` starts in a parameter or gradient window of `len` floats.
    fn w_len(&self, len: usize) -> usize {
        let w_len = self.out_shape.c * self.fan_in();
        assert_eq!(len, w_len + self.out_shape.c, "conv: window size");
        w_len
    }

    /// `W` as an `out_c × in_c·k·k` matrix, and `b`, of a parameter window.
    fn weights<'a>(&self, p: &'a [f32]) -> (MatRef<'a>, &'a [f32]) {
        let (w, b) = p.split_at(self.w_len(p.len()));
        (MatRef::new(self.out_shape.c, self.fan_in(), w), b)
    }

    /// (Re)shapes the `cols` lowering buffer for `batch` samples. A no-op
    /// when the batch size is unchanged — the common training case. Scratch
    /// is keyed on **capacity**, not exact shape: a batch-size change (the
    /// ragged final eval chunk) reshapes in place and only grows the
    /// allocation past its high-water mark. Shift lowering rewrites every
    /// position, so the stale contents may stay; the plan fallback relies
    /// on padded positions being zero and re-zeroes. The backward-only
    /// `dcol` buffer is shaped in [`Conv2d::input_gradient`], so
    /// inference-only use and a first layer never pay for it.
    fn ensure_buffers(&mut self, batch: usize) {
        if self.cols_batch == batch {
            return;
        }
        let fan_in = self.fan_in();
        let n = batch * self.out_shape.spatial();
        if self.shift.is_some() {
            self.cols.reshape_scratch(fan_in, n);
        } else {
            self.cols.resize_zeroed(fan_in, n);
        }
        self.cols_batch = batch;
    }

    /// Lowers the samples `samples` of a channel-major batch into
    /// `self.cols`, shaped for that many samples.
    fn lower(&mut self, x: &Matrix, samples: Range<usize>) {
        let (in_spatial, spatial) = (self.in_shape.spatial(), self.out_shape.spatial());
        match &self.shift {
            Some(shift) => shift.lower(
                x,
                samples.start * in_spatial..samples.end * in_spatial,
                &mut self.cols,
            ),
            None => {
                for s in samples.clone() {
                    let col_off = (s - samples.start) * spatial;
                    im2col_into(&self.plan, x, s * in_spatial, &mut self.cols, col_off);
                }
            }
        }
    }

    /// Adds the bias `b` to the output columns `span` of every channel.
    fn add_bias(b: &[f32], y: &mut Matrix, span: Range<usize>) {
        for (c, &bias) in b.iter().enumerate() {
            for v in &mut y.row_mut(c)[span.clone()] {
                *v += bias;
            }
        }
    }

    /// The adjoint of [`Conv2d::lower`]: scatters a column-matrix gradient
    /// into a fresh channel-major input gradient.
    fn scatter(&self, dcol: &Matrix) -> Matrix {
        let (in_spatial, spatial) = (self.in_shape.spatial(), self.out_shape.spatial());
        let batch = dcol.cols() / spatial;
        let mut dx = Matrix::zeros(self.in_shape.c, batch * in_spatial);
        match &self.shift {
            Some(shift) => shift.scatter(dcol, &mut dx),
            None => {
                for s in 0..batch {
                    col2im_from(&self.plan, dcol, s * spatial, &mut dx, s * in_spatial);
                }
            }
        }
        dx
    }

    /// Checks an incoming gradient against the last forward and
    /// accumulates the parameter gradients (`dW += dy · colsᵀ`, `db += row
    /// sums of dy`) into `g` — everything of the backward pass that is not
    /// the input gradient.
    fn accumulate_param_grads(&mut self, dy: &Matrix, g: &mut [f32]) {
        let (oc, spatial) = (self.out_shape.c, self.out_shape.spatial());
        assert_eq!(
            dy.rows(),
            oc,
            "conv: grad not channel-major for {:?} (rows = {}, want out_c = {oc})",
            self.out_shape,
            dy.rows()
        );
        assert_eq!(
            dy.cols(),
            self.cols_batch * spatial,
            "conv: backward without matching forward (grad width {}, want batch {} × spatial {spatial})",
            dy.cols(),
            self.cols_batch
        );
        // One large GEMM for the whole batch; dy is already channel-major,
        // no staging gather.
        let (dw, db) = g.split_at_mut(self.w_len(g.len()));
        let dw = MatMut::new(oc, self.fan_in(), dw);
        matrix::gemm_a_bt_accumulate_with(dy.view(), self.cols.view(), dw, &mut self.scratch);
        for (c, db) in db.iter_mut().enumerate() {
            *db += fda_tensor::vector::sum(dy.row(c));
        }
    }

    /// `dL/dx`: `dcol = Wᵀ · dy`, then the col2im scatter.
    fn input_gradient(&mut self, dy: &Matrix, w: MatRef) -> Matrix {
        self.dcol.resize_zeroed(self.fan_in(), dy.cols());
        matrix::gemm_at_b_accumulate_with(w, dy.view(), self.dcol.view_mut(), &mut self.scratch);
        self.scatter(&self.dcol)
    }

    // -----------------------------------------------------------------
    // Test / property-suite support: the lowering operators as plain
    // matrix functions, so invariants (adjointness, plan coverage) can be
    // checked from outside the crate.
    // -----------------------------------------------------------------

    /// Lowers a channel-major batch (`in_c × batch·in_spatial`) and
    /// returns a copy of the column matrix
    /// (`in_c·k·k × batch·out_spatial`). Test/diagnostic support — the hot
    /// path keeps the buffer internal.
    pub fn im2col_batch(&mut self, x: &Matrix) -> Matrix {
        let batch = self.in_shape.batch_of(x, "conv im2col input");
        self.ensure_buffers(batch);
        self.lower(x, 0..batch);
        self.cols.clone()
    }

    /// The adjoint scatter: accumulates a column-matrix gradient
    /// (`in_c·k·k × batch·out_spatial`) back into a channel-major
    /// input-shaped matrix. Test/diagnostic support.
    pub fn col2im_batch(&self, dcol: &Matrix) -> Matrix {
        let spatial = self.out_shape.spatial();
        assert_eq!(dcol.rows(), self.fan_in(), "conv: col2im rows mismatch");
        assert_eq!(
            dcol.cols() % spatial,
            0,
            "conv: col2im width {} is not a multiple of out spatial {spatial}",
            dcol.cols()
        );
        self.scatter(dcol)
    }

    /// The precomputed copy-run plan as
    /// `(cols_row, src_channel, dst_offset, src_offset, len)` tuples —
    /// offsets relative to a sample's output block / input plane. Exposed
    /// so the workspace property suite can check coverage and disjointness
    /// invariants directly.
    pub fn plan_runs(&self) -> Vec<(usize, usize, usize, usize, usize)> {
        self.plan
            .iter()
            .map(|r| {
                (
                    r.row as usize,
                    r.src_row as usize,
                    r.dst as usize,
                    r.src as usize,
                    r.len as usize,
                )
            })
            .collect()
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Matrix, p: &[f32], _train: bool) -> Matrix {
        let batch = self.in_shape.batch_of(&x, "conv input");
        let (oc, spatial) = (self.out_shape.c, self.out_shape.spatial());
        let (w, b) = self.weights(p);
        self.ensure_buffers(batch);
        self.lower(&x, 0..batch);
        // One large GEMM for the whole batch; the product is already the
        // channel-major layer output — no staging scatter. Accumulate into
        // the freshly zeroed output (numerically identical to the
        // clearing `gemm_into_with`, minus one redundant pass over y).
        let mut y = Matrix::zeros(oc, batch * spatial);
        matrix::gemm_accumulate_with(w, self.cols.view(), y.view_mut(), &mut self.scratch);
        Self::add_bias(b, &mut y, 0..batch * spatial);
        y
    }

    /// Lowers and multiplies a few samples at a time, each chunk's product
    /// landing in place in its columns of the output, so the working set
    /// stays cache-sized at eval batch sizes. `matrix::column_chunks`
    /// keeps every chunk's GEMM on the whole batch's path, which is what
    /// makes this `forward(x, false)` bit for bit. `self.cols` ends up
    /// holding a chunk, so the training cache is invalidated.
    fn forward_inference(&mut self, x: Matrix, p: &[f32]) -> Matrix {
        let batch = self.in_shape.batch_of(&x, "conv input");
        let (oc, spatial) = (self.out_shape.c, self.out_shape.spatial());
        let (w, b) = self.weights(p);
        let fan_in = self.fan_in();
        let mut y = Matrix::zeros(oc, batch * spatial);
        let target = INFER_CHUNK_FLOATS / fan_in;
        for span in matrix::column_chunks(oc, fan_in, batch * spatial, spatial, target) {
            let samples = span.start / spatial..span.end / spatial;
            self.ensure_buffers(samples.len());
            self.lower(&x, samples);
            matrix::gemm_accumulate_cols_with(
                w,
                self.cols.view(),
                y.view_mut(),
                span.start,
                &mut self.scratch,
            );
            Self::add_bias(b, &mut y, span);
        }
        self.cols_batch = 0;
        y
    }

    fn backward(&mut self, dy: Matrix, p: &[f32], g: &mut [f32]) -> Matrix {
        self.accumulate_param_grads(&dy, g);
        let (w, _) = self.weights(p);
        self.input_gradient(&dy, w)
    }

    /// Skips the `Wᵀ · dy` GEMM, the `dcol` buffer and the col2im scatter.
    fn backward_params_only(&mut self, dy: Matrix, _p: &[f32], g: &mut [f32]) {
        self.accumulate_param_grads(&dy, g);
    }

    fn take_params(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }

    fn out_dim(&self, in_dim: usize) -> usize {
        assert_eq!(
            in_dim,
            self.in_shape.len(),
            "conv: wired to wrong input width"
        );
        self.out_shape.len()
    }

    fn in_shape3(&self) -> Option<Shape3> {
        Some(self.in_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-channel 3×3 input with a known 1-channel 2×2 kernel (pad 0).
    #[test]
    fn forward_known_values() {
        let mut rng = Rng::new(0);
        let in_shape = Shape3::new(1, 3, 3);
        let mut conv = Conv2d::new(in_shape, 1, 2, 0, Init::GlorotUniform, &mut rng);
        // Kernel = [[1, 0], [0, 1]] (trace of each 2×2 patch), bias 0.5.
        let p = [1.0, 0.0, 0.0, 1.0, 0.5];
        // Channel-major, 1 channel × 1 sample: one row of the 3×3 plane.
        #[rustfmt::skip]
        let x = Matrix::from_vec(1, 9, vec![
            1.0, 2.0, 3.0,
            4.0, 5.0, 6.0,
            7.0, 8.0, 9.0,
        ]);
        let y = conv.forward(x.clone(), &p, true);
        // Patches: (1+5), (2+6), (4+8), (5+9) plus bias.
        assert_eq!(y.as_slice(), &[6.5, 8.5, 12.5, 14.5]);
        assert_eq!((y.rows(), y.cols()), (1, 4), "output is channel-major");
        assert_eq!(conv.out_shape(), Shape3::new(1, 2, 2));
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let mut rng = Rng::new(1);
        let mut conv = Conv2d::new(Shape3::new(2, 5, 5), 4, 3, 1, Init::HeNormal, &mut rng);
        assert_eq!(conv.out_shape(), Shape3::new(4, 5, 5));
        assert_eq!(conv.take_params().len(), 4 * 2 * 9 + 4);
    }

    #[test]
    fn backward_bias_gradient_sums_spatial() {
        let mut rng = Rng::new(2);
        let mut conv = Conv2d::new(Shape3::new(1, 3, 3), 2, 2, 0, Init::HeNormal, &mut rng);
        let p = conv.take_params();
        let mut g = vec![0.0; p.len()];
        let x = Matrix::from_vec(1, 9, (0..9).map(|i| i as f32).collect());
        let _ = conv.forward(x.clone(), &p, true);
        // Channel-major gradient: 2 output channels × 4 spatial positions.
        let dy = Matrix::from_vec(2, 4, vec![1.0; 8]);
        let _ = conv.backward(dy, &p, &mut g);
        // Each output channel has 4 spatial positions with grad 1.
        assert_eq!(&g[8..], &[4.0, 4.0]);
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ — the defining adjoint property,
        // which is exactly what makes the conv backward pass correct.
        let mut rng = Rng::new(3);
        let mut conv = Conv2d::new(Shape3::new(2, 4, 4), 3, 3, 1, Init::HeNormal, &mut rng);
        // Channel-major batch of 2 samples.
        let mut x = Matrix::zeros(2, 2 * 16);
        rng.clone().fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let col = conv.im2col_batch(&x);
        let mut y = Matrix::zeros(col.rows(), col.cols());
        rng.clone().fill_normal(y.as_mut_slice(), 0.0, 1.0);
        let forward_ip = fda_tensor::vector::dot(col.as_slice(), y.as_slice());
        let back = conv.col2im_batch(&y);
        let backward_ip = fda_tensor::vector::dot(x.as_slice(), back.as_slice());
        assert!(
            (forward_ip - backward_ip).abs() < 1e-2 * (1.0 + forward_ip.abs()),
            "{forward_ip} vs {backward_ip}"
        );
    }

    #[test]
    fn batch_forward_matches_per_sample() {
        let mut rng = Rng::new(4);
        let mut conv = Conv2d::new(Shape3::new(1, 4, 4), 2, 3, 1, Init::HeNormal, &mut rng);
        let p = conv.take_params();
        // Channel-major: 1 channel × 3 sample blocks of 16.
        let mut x = Matrix::zeros(1, 3 * 16);
        Rng::new(9).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let y_batch = conv.forward(x.clone(), &p, true);
        let spatial = conv.out_shape().spatial();
        for s in 0..3 {
            let xi = Matrix::from_vec(1, 16, x.row(0)[s * 16..(s + 1) * 16].to_vec());
            let yi = conv.forward(xi.clone(), &p, true);
            for c in 0..2 {
                assert_eq!(
                    yi.row(c),
                    &y_batch.row(c)[s * spatial..(s + 1) * spatial],
                    "sample {s} channel {c}"
                );
            }
        }
    }

    /// Regression for the kernel-size guard: `k == h + 2·pad` is the exact
    /// boundary (output collapses to 1×1 in that dimension) and must be
    /// accepted; one past it must panic.
    #[test]
    fn kernel_size_boundary_accepted() {
        let mut rng = Rng::new(5);
        // h = 3, pad = 1 ⇒ padded extent 5; a 5×5 kernel is exactly legal.
        let conv = Conv2d::new(Shape3::new(1, 3, 3), 2, 5, 1, Init::HeNormal, &mut rng);
        assert_eq!(conv.out_shape(), Shape3::new(2, 1, 1));
        // Unpadded boundary too: k == h with pad = 0.
        let conv0 = Conv2d::new(Shape3::new(1, 4, 4), 1, 4, 0, Init::HeNormal, &mut rng);
        assert_eq!(conv0.out_shape(), Shape3::new(1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "too large for input")]
    fn kernel_one_past_boundary_panics() {
        let mut rng = Rng::new(6);
        // Padded extent 5; a 6×6 kernel must be rejected.
        let _ = Conv2d::new(Shape3::new(1, 3, 3), 2, 6, 1, Init::HeNormal, &mut rng);
    }

    #[test]
    #[should_panic(expected = "not channel-major")]
    fn sample_major_input_panics() {
        let mut rng = Rng::new(13);
        let mut conv = Conv2d::new(Shape3::new(2, 4, 4), 3, 3, 1, Init::HeNormal, &mut rng);
        let p = conv.take_params();
        // A sample-major batch (4 samples × 32 features) has the wrong row
        // count for a 2-channel layer and must fail loudly.
        let _ = conv.forward(Matrix::zeros(4, 32), &p, true);
    }

    /// Changing batch size between forwards resizes the lowering buffers
    /// and keeps results identical to a fresh layer.
    #[test]
    fn batch_size_change_is_safe() {
        let mut rng = Rng::new(7);
        let mut conv = Conv2d::new(Shape3::new(2, 5, 5), 3, 3, 1, Init::HeNormal, &mut rng);
        let p = conv.take_params();
        let mut big = Matrix::zeros(2, 4 * 25);
        Rng::new(11).fill_normal(big.as_mut_slice(), 0.0, 1.0);
        let mut small = Matrix::zeros(2, 2 * 25);
        Rng::new(12).fill_normal(small.as_mut_slice(), 0.0, 1.0);
        let _ = conv.forward(big.clone(), &p, true);
        let y_small = conv.forward(small.clone(), &p, true);
        // Fresh layer with identical weights for reference.
        let mut rng2 = Rng::new(7);
        let mut fresh = Conv2d::new(Shape3::new(2, 5, 5), 3, 3, 1, Init::HeNormal, &mut rng2);
        let p_ref = fresh.take_params();
        let y_ref = fresh.forward(small.clone(), &p_ref, true);
        assert_eq!(y_small.as_slice(), y_ref.as_slice());
    }

    /// The eval-pass pattern — full batches then a ragged final chunk,
    /// repeated — must reuse the lowering allocations (capacity-keyed
    /// scratch), not reallocate on every shape change, and results must
    /// stay correct through shrink and regrow.
    #[test]
    fn ragged_eval_chunks_reuse_lowering_buffers() {
        let mut rng = Rng::new(8);
        let mut conv = Conv2d::new(Shape3::new(1, 6, 6), 2, 3, 1, Init::HeNormal, &mut rng);
        let p = conv.take_params();
        let mut full = Matrix::zeros(1, 8 * 36);
        Rng::new(21).fill_normal(full.as_mut_slice(), 0.0, 1.0);
        let mut ragged = Matrix::zeros(1, 3 * 36);
        Rng::new(22).fill_normal(ragged.as_mut_slice(), 0.0, 1.0);

        let y_full_1 = conv.forward(full.clone(), &p, false);
        let cols_ptr = conv.cols.as_slice().as_ptr();
        // Ragged chunk shrinks, next pass grows back: both within capacity.
        let y_ragged_1 = conv.forward(ragged.clone(), &p, false);
        assert_eq!(conv.cols.as_slice().as_ptr(), cols_ptr, "cols reallocated");
        let y_full_2 = conv.forward(full.clone(), &p, false);
        assert_eq!(conv.cols.as_slice().as_ptr(), cols_ptr, "cols reallocated");
        let y_ragged_2 = conv.forward(ragged.clone(), &p, false);

        // Identical inputs ⇒ identical outputs across the reuse cycle.
        assert_eq!(y_full_1.as_slice(), y_full_2.as_slice());
        assert_eq!(y_ragged_1.as_slice(), y_ragged_2.as_slice());
    }

    /// Fills `m` with normal noise, then plants ±0.0, ±∞ and NaN on and
    /// next to the plane borders — the lanes a border mask must keep from
    /// contributing anything.
    fn fill_with_specials(m: &mut Matrix, plane: (usize, usize), rng: &mut Rng) {
        rng.fill_normal(m.as_mut_slice(), 0.0, 1.0);
        let (h, w) = plane;
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            let (y, x) = ((i / w) % h, i % w);
            let near_border = y <= 1 || x <= 1 || y + 2 >= h || x + 2 >= w;
            if near_border && rng.next_u64().is_multiple_of(3) {
                *v = specials[(rng.next_u64() % 5) as usize];
            }
        }
    }

    /// Bitwise equality, except that any NaN equals any NaN: which operand's
    /// payload an `a + b` of two NaNs keeps is the code generator's choice
    /// (the add commutes), so only NaN-ness is comparable across two
    /// differently vectorised loops.
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// (a) The shift + mask lowering and its adjoint against the
    /// plan-driven reference, bit for bit: every same-padding kernel size,
    /// non-square planes (including one larger than a mask chunk), batches
    /// of one, of a ragged number of chunks and of 256, and non-finite
    /// values on the border lanes.
    #[test]
    fn differential_shift_lowering_matches_copy_plan() {
        let mut rng = Rng::new(0xD1FF);
        let planes = [(1, 1), (2, 3), (5, 4), (6, 6), (12, 12), (3, 7), (40, 30)];
        for &(h, w) in &planes {
            for k in [1usize, 3, 5] {
                let c = 1 + (rng.next_u64() % 3) as usize;
                let in_shape = Shape3::new(c, h, w);
                let mut conv = Conv2d::new(in_shape, 2, k, (k - 1) / 2, Init::HeNormal, &mut rng);
                assert!(
                    conv.shift.is_some(),
                    "same padding must take the shift path"
                );
                let (hw, fan_in) = (h * w, c * k * k);
                let batches: &[usize] = if hw > 1000 { &[1, 3] } else { &[1, 37, 256] };
                for &batch in batches {
                    let ctx = format!("{in_shape:?} k={k} batch={batch}");
                    let mut x = Matrix::zeros(c, batch * hw);
                    fill_with_specials(&mut x, (h, w), &mut rng);
                    // Dirty scratch: the shift path may not rely on zeros.
                    conv.cols = Matrix::from_vec(1, 7, vec![f32::NAN; 7]);
                    conv.cols_batch = 0;
                    let cols = conv.im2col_batch(&x);
                    let mut want = Matrix::zeros(fan_in, batch * hw);
                    for s in 0..batch {
                        im2col_into(&conv.plan, &x, s * hw, &mut want, s * hw);
                    }
                    let exact = cols
                        .as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(exact, "{ctx}: im2col differs from the copy plan");

                    let mut dcol = Matrix::zeros(fan_in, batch * hw);
                    fill_with_specials(&mut dcol, (h, w), &mut rng);
                    let dx = conv.col2im_batch(&dcol);
                    let mut want = Matrix::zeros(c, batch * hw);
                    for s in 0..batch {
                        col2im_from(&conv.plan, &dcol, s * hw, &mut want, s * hw);
                    }
                    assert!(
                        same_bits(dx.as_slice(), want.as_slice()),
                        "{ctx}: col2im differs from the copy plan"
                    );
                }
            }
        }
    }

    /// A conv whose output plane is not its input plane has no constant
    /// shift and keeps the copy plan — chosen from the geometry alone.
    #[test]
    fn differential_non_same_padding_keeps_copy_plan() {
        let mut rng = Rng::new(0xD200);
        for (k, pad) in [(3usize, 0usize), (2, 0), (3, 2), (2, 1)] {
            let conv = Conv2d::new(Shape3::new(2, 5, 6), 3, k, pad, Init::HeNormal, &mut rng);
            assert!(conv.shift.is_none(), "k={k} pad={pad}");
        }
    }

    /// The first-layer backward leaves exactly the parameter gradients of
    /// the full backward.
    #[test]
    fn differential_params_only_backward_matches_full() {
        let mut rng = Rng::new(0xD201);
        for (k, pad) in [(3usize, 1usize), (3, 0), (5, 2)] {
            let shape = Shape3::new(2, 6, 5);
            let mut full = Conv2d::new(shape, 4, k, pad, Init::HeNormal, &mut Rng::new(9));
            let mut lean = Conv2d::new(shape, 4, k, pad, Init::HeNormal, &mut Rng::new(9));
            let p = full.take_params();
            let (mut g_full, mut g_lean) = (vec![0.0; p.len()], vec![0.0; p.len()]);
            let mut x = Matrix::zeros(2, 3 * 30);
            rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
            let y = full.forward(x.clone(), &p, true);
            let _ = lean.forward(x, &p, true);
            let mut dy = Matrix::zeros(y.rows(), y.cols());
            rng.fill_normal(dy.as_mut_slice(), 0.0, 1.0);
            let _ = full.backward(dy.clone(), &p, &mut g_full);
            lean.backward_params_only(dy, &p, &mut g_lean);
            assert_eq!(g_full, g_lean, "k={k} pad={pad}");
            assert!(lean.dcol.is_empty(), "params-only must not touch dcol");
        }
    }

    /// (c) The chunked inference forward against the training forward, bit
    /// for bit: LeNet's two convs (shift lowering) and a conv on the copy
    /// plan, at a batch whose GEMM is on the small path (1), at batches
    /// that split into chunks evenly or leave a tail, and one sample past a
    /// whole number of chunks (a tail that must merge where one sample's
    /// GEMM is small). Each call follows a training forward of another
    /// batch size, so a lowering buffer shaped by one cannot leak into the
    /// other.
    #[test]
    fn differential_inference_forward_matches_training_forward() {
        let mut rng = Rng::new(0xD202);
        let layers = [
            (Shape3::new(1, 12, 12), 6, 3, 1), // LeNet conv1
            (Shape3::new(6, 6, 6), 12, 3, 1),  // LeNet conv2
            (Shape3::new(2, 7, 5), 5, 3, 0),   // copy-plan lowering
        ];
        for &(shape, oc, k, pad) in &layers {
            let mut conv = Conv2d::new(shape, oc, k, pad, Init::HeNormal, &mut rng);
            let mut p = conv.take_params();
            let w_len = conv.w_len(p.len());
            rng.fill_normal(&mut p[w_len..], 0.0, 1.0);
            let per_chunk = (INFER_CHUNK_FLOATS / conv.fan_in()).div_ceil(shape.spatial());
            for batch in [1, 31, 32, 33, 232, 256, per_chunk + 1, 2 * per_chunk + 1, 1] {
                let mut x = Matrix::zeros(shape.c, batch * shape.spatial());
                rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
                let want = conv.forward(x.clone(), &p, false);
                let got = conv.forward_inference(x, &p);
                assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
                assert!(
                    same_bits(got.as_slice(), want.as_slice()),
                    "{shape:?} → {oc} batch {batch}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward without matching forward")]
    fn backward_after_inference_forward_panics() {
        let mut rng = Rng::new(0xD203);
        let mut conv = Conv2d::new(Shape3::new(1, 12, 12), 6, 3, 1, Init::HeNormal, &mut rng);
        let p = conv.take_params();
        let mut g = vec![0.0; p.len()];
        let mut x = Matrix::zeros(1, 32 * 144);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let y = conv.forward(x.clone(), &p, true);
        let _ = conv.forward_inference(x, &p);
        let _ = conv.backward(Matrix::zeros(y.rows(), y.cols()), &p, &mut g);
    }
}

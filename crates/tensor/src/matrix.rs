//! Row-major dense matrices.
//!
//! The neural-network substrate uses matrices for dense layers and im2col
//! convolution. GEMM is a register-blocked, panel-packed kernel (BLIS-style
//! `MR × NR` microkernel over packed A/B panels) with a scalar fallback for
//! tiny shapes — cache-friendly without an external BLAS. The microkernel
//! itself comes from the runtime-dispatched [`crate::simd`] layer: AVX-512
//! FMA (8×32 tile; 12×32 for a streamed block of 9–12 rows), AVX2+FMA
//! (6×16) or the autovectorized scalar 4×16,
//! selected once per process, so the packing geometry (`mr`/`nr` strip
//! sizes) follows the dispatched arm while the blocking constants
//! (`KC`/`MC`/`NC`) stay shared. The [`naive`] module keeps the original
//! scalar loops as a reference for property tests and perf baselines.
//!
//! All four GEMM variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`, accumulate forms) share
//! one packed driver; transposition happens during packing, so the hot
//! microkernel never branches on layout. Packing buffers live in a
//! [`Scratch`] arena (64-byte-aligned panels, see
//! [`crate::alloc::AlignedBuf`]) that callers (e.g. NN layers) allocate
//! once and reuse across steps; the one scratch-less entry point, the
//! allocating [`gemm`], packs through a thread-local arena.

use crate::alloc::AlignedBuf;
use crate::rng::Rng;
use crate::simd::{self, Kernels};
use std::cell::RefCell;

/// A dense row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        crate::alloc::retain_heap();
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix::from_vec: size mismatch");
        Matrix { rows, cols, data }
    }

    /// Matrix with i.i.d. normal entries.
    pub fn random_normal(rows: usize, cols: usize, mean: f32, std_dev: f32, rng: &mut Rng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        rng.fill_normal(&mut m.data, mean, std_dev);
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole matrix as a GEMM operand.
    pub fn view(&self) -> MatRef<'_> {
        MatRef::new(self.rows, self.cols, &self.data)
    }

    /// The whole matrix as a GEMM output.
    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::new(self.rows, self.cols, &mut self.data)
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Sets every entry to zero (reusing the allocation).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Reshapes in place to `rows × cols` with all entries zero, reusing the
    /// existing allocation whenever its capacity suffices.
    ///
    /// This is the capacity-keyed scratch idiom: a buffer that cycles
    /// through shapes (e.g. conv lowering buffers hit by a ragged final
    /// eval batch) pays one allocation at its high-water mark and memsets
    /// thereafter, instead of reallocating — and page-faulting — on every
    /// shape change.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes in place to `rows × cols` **without** clearing: entries
    /// within the old length keep their stale values, growth is
    /// zero-filled. For scratch whose every entry is overwritten before it
    /// is read (capacity-keyed like [`Matrix::resize_zeroed`], minus the
    /// memset).
    pub fn reshape_scratch(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    // -----------------------------------------------------------------------
    // Activation layout conversions
    // -----------------------------------------------------------------------
    //
    // The NN crate flows activations in one of two layouts:
    //
    // * **sample-major** — `batch × (c·spatial)` rows, one flattened sample
    //   per row with features ordered `(channel, y, x)`;
    // * **channel-major** — `c × (batch·spatial)` rows, one channel per row
    //   with columns grouped into per-sample blocks of `spatial`. This is
    //   the layout im2col GEMMs produce and consume natively
    //   (`out_c × batch·out_h·out_w`), so the conv stack runs on it without
    //   staging passes.
    //
    // The two functions below are exact inverses:
    // `x.to_channel_major(c).to_sample_major(x.rows()) == x` (and vice
    // versa). Both are pure element copies, so they commute bit-exactly
    // with any elementwise computation.

    /// Sample-major (`batch × c·spatial`) → channel-major
    /// (`c × batch·spatial`).
    ///
    /// # Panics
    /// Panics unless the column count divides evenly into `channels`
    /// planes.
    pub fn to_channel_major(&self, channels: usize) -> Matrix {
        self.rows_to_channel_major(0..self.rows, channels)
    }

    /// [`Matrix::to_channel_major`] of the sample rows `rows` only: gathers
    /// a chunk of a sample-major set straight into the channel-major
    /// layout with one copy per plane (no intermediate sample-major chunk).
    ///
    /// # Panics
    /// Panics on a row range outside the matrix, or unless the column count
    /// divides evenly into `channels` planes.
    pub fn rows_to_channel_major(&self, rows: std::ops::Range<usize>, channels: usize) -> Matrix {
        assert!(channels >= 1, "to_channel_major: zero channels");
        assert_eq!(
            self.cols % channels,
            0,
            "to_channel_major: width {} not divisible by {} channels",
            self.cols,
            channels
        );
        let chunk = &self.data[rows.start * self.cols..rows.end * self.cols];
        let batch = rows.len();
        let spatial = self.cols / channels;
        if channels == 1 {
            // A single channel is the same contiguous buffer in both
            // layouts — only the (rows, cols) interpretation changes.
            return Matrix::from_vec(1, batch * spatial, chunk.to_vec());
        }
        let mut out = Matrix::zeros(channels, batch * spatial);
        for (s, row) in chunk.chunks_exact(self.cols).enumerate() {
            for ch in 0..channels {
                out.data[ch * batch * spatial + s * spatial..][..spatial]
                    .copy_from_slice(&row[ch * spatial..(ch + 1) * spatial]);
            }
        }
        out
    }

    /// Channel-major (`c × batch·spatial`) → sample-major
    /// (`batch × c·spatial`). Exact inverse of
    /// [`Matrix::to_channel_major`].
    ///
    /// # Panics
    /// Panics unless the column count divides evenly into `batch` sample
    /// blocks.
    pub fn to_sample_major(&self, batch: usize) -> Matrix {
        assert!(batch >= 1, "to_sample_major: zero batch");
        assert_eq!(
            self.cols % batch,
            0,
            "to_sample_major: width {} not divisible by batch {}",
            self.cols,
            batch
        );
        let channels = self.rows;
        let spatial = self.cols / batch;
        if channels == 1 {
            return Matrix::from_vec(batch, spatial, self.data.clone());
        }
        let mut out = Matrix::zeros(batch, channels * spatial);
        for s in 0..batch {
            let dst = out.row_mut(s);
            for ch in 0..channels {
                dst[ch * spatial..(ch + 1) * spatial]
                    .copy_from_slice(&self.data[ch * batch * spatial + s * spatial..][..spatial]);
            }
        }
        out
    }
}

/// A borrowed row-major `rows × cols` GEMM operand: a [`Matrix::view`],
/// or a window of a flat buffer such as a model's parameter arena.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatRef<'a> {
    /// Views `data` as `rows × cols`; panics unless it has `rows · cols`
    /// entries.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "MatRef::new: size mismatch");
        MatRef { rows, cols, data }
    }
}

/// The writable [`MatRef`]: a GEMM output.
#[derive(Debug)]
pub struct MatMut<'a> {
    rows: usize,
    cols: usize,
    data: &'a mut [f32],
}

impl<'a> MatMut<'a> {
    /// Views `data` as `rows × cols`; panics unless it has `rows · cols`
    /// entries.
    pub fn new(rows: usize, cols: usize, data: &'a mut [f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "MatMut::new: size mismatch");
        MatMut { rows, cols, data }
    }
}

// ---------------------------------------------------------------------------
// Blocked GEMM
// ---------------------------------------------------------------------------

/// K-dimension panel depth: one packed A strip (`mr·KC` floats) plus one
/// packed B strip (`nr·KC`) stay resident in L1 for every dispatched tile
/// shape.
const KC: usize = 256;
/// Row-block height of packed A (`MC·KC` floats ≈ 128 KiB target in L2).
const MC: usize = 128;
/// Column-block width of packed B (`KC·NC` floats ≈ 1 MiB target in L2/L3).
const NC: usize = 1024;
/// Upper bound on any arm's microkernel tile height, tall tiles included
/// — sizes the mid kernel's stack-packed A block.
const MR_MAX: usize = 12;

/// Below this many multiply-adds the packing overhead outweighs the blocked
/// kernel; use the scalar fallback.
const SMALL_GEMM_FLOPS: usize = 16 * 1024;

/// Reusable packing arena for the blocked GEMM.
///
/// Holds the packed A and B panels, 64-byte aligned so panel bases sit on
/// cache-line (and AVX-512 vector) boundaries. Allocate one per layer (or
/// per thread) and pass it to the `*_with` entry points; buffers grow to
/// the high-water mark of the shapes seen and are never shrunk, so
/// steady-state training performs no GEMM-related allocation at all.
#[derive(Debug, Default)]
pub struct Scratch {
    a_pack: AlignedBuf,
    b_pack: AlignedBuf,
}

impl Scratch {
    /// Creates an empty arena (buffers grow on first use).
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

thread_local! {
    // Packing arena of the scratch-less `gemm`.
    static TL_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Which operand layout the packing routines read from.
///
/// Transposition is resolved here, while copying into packed panels; the
/// microkernel only ever sees one canonical layout.
#[derive(Clone, Copy)]
enum Layout {
    /// Operand stored as the logical matrix (row-major).
    Normal,
    /// Operand stored as the logical matrix's transpose (row-major).
    Transposed,
}

/// Packs `A[i0..i0+mc, p0..p0+kc]` into `mr`-tall strips, k-major inside
/// each strip, zero-padding the ragged final strip so the microkernel is
/// branch-free.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    dst: &mut [f32],
    a: &[f32],
    lda: usize,
    layout: Layout,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    mr: usize,
) {
    let mut w = 0;
    let mut ir = 0;
    while ir < mc {
        let rows = mr.min(mc - ir);
        for p in 0..kc {
            for r in 0..mr {
                dst[w] = if r < rows {
                    match layout {
                        Layout::Normal => a[(i0 + ir + r) * lda + p0 + p],
                        Layout::Transposed => a[(p0 + p) * lda + i0 + ir + r],
                    }
                } else {
                    0.0
                };
                w += 1;
            }
        }
        ir += mr;
    }
}

/// Packs `B[p0..p0+kc, j0..j0+nc]` into `nr`-wide strips, k-major inside
/// each strip, zero-padding the ragged final strip.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    dst: &mut [f32],
    b: &[f32],
    ldb: usize,
    layout: Layout,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    nr: usize,
) {
    let mut w = 0;
    let mut jr = 0;
    while jr < nc {
        let cols = nr.min(nc - jr);
        for p in 0..kc {
            match layout {
                Layout::Normal => {
                    let start = (p0 + p) * ldb + j0 + jr;
                    dst[w..w + cols].copy_from_slice(&b[start..start + cols]);
                    dst[w + cols..w + nr].fill(0.0);
                    w += nr;
                }
                Layout::Transposed => {
                    for j in 0..nr {
                        dst[w] = if j < cols {
                            b[(j0 + jr + j) * ldb + p0 + p]
                        } else {
                            0.0
                        };
                        w += 1;
                    }
                }
            }
        }
        jr += nr;
    }
}

/// Fallback for shapes too small (or too skinny) to amortize packing.
///
/// * `A·B`, `Aᵀ·B` — [`gemm_rows`]: register tiles of output rows that
///   stay in registers across the whole k-extent;
/// * `A·Bᵀ` — [`gemm_dot_tiled`]: dot products of contiguous A and B rows.
///
/// Only `A·Bᵀ` reads `kn`, and only the ragged edges of its tiling take
/// per-arm bits (`kn.dot`); every other element is the same under every
/// `FDA_FORCE_KERNEL`.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    kn: &Kernels,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    a_layout: Layout,
    b: &[f32],
    ldb: usize,
    b_layout: Layout,
    out: &mut [f32],
    ldo: usize,
) {
    match (a_layout, b_layout) {
        (Layout::Normal, Layout::Normal) => {
            gemm_rows::<false>(m, n, k, a, lda, b, ldb, out, ldo);
        }
        (Layout::Transposed, Layout::Normal) => {
            gemm_rows::<true>(m, n, k, a, lda, b, ldb, out, ldo);
        }
        (Layout::Normal, Layout::Transposed) => {
            gemm_dot_tiled(kn, m, n, k, a, lda, b, ldb, out, ldo);
        }
        (Layout::Transposed, Layout::Transposed) => {
            // Unused by the public API; keep a correct reference loop.
            for i in 0..m {
                let out_row = &mut out[i * ldo..i * ldo + n];
                for p in 0..k {
                    let aip = a[p * lda + i];
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o += aip * b[j * ldb + p];
                    }
                }
            }
        }
    }
}

/// `out += op(A) · B` for contiguous-row `B`, `op(A) = Aᵀ` iff `AT`: every
/// output element takes `out[i][j] += a(i,p) · b[p][j]` for `p` ascending
/// (one multiply and one add per step, never fused) — the order of the
/// plain i-k-j / k-i-j loops this replaces, so results are bit-identical to
/// them. What changes is where the running sums live: a tile of `R` output
/// rows × `NB` columns is held in registers across the whole k-extent
/// instead of being re-loaded and re-stored once per `p`, and the `R` rows
/// give the adds independent dependency chains. `out` has row stride `ldo`.
#[allow(clippy::too_many_arguments)]
fn gemm_rows<const AT: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    const R: usize = 4;
    let mut i = 0;
    while i + R <= m {
        gemm_row_block::<AT, R>(i, n, k, a, lda, b, ldb, out, ldo);
        i += R;
    }
    while i < m {
        gemm_row_block::<AT, 1>(i, n, k, a, lda, b, ldb, out, ldo);
        i += 1;
    }
}

/// One block of `R` output rows of [`gemm_rows`], split into column tiles
/// of 16, 8, 4 and 1.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_row_block<const AT: bool, const R: usize>(
    i: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let mut j = 0;
    while j + 16 <= n {
        gemm_tile::<AT, R, 16>(i, j, k, a, lda, b, ldb, out, ldo);
        j += 16;
    }
    if j + 8 <= n {
        gemm_tile::<AT, R, 8>(i, j, k, a, lda, b, ldb, out, ldo);
        j += 8;
    }
    if j + 4 <= n {
        gemm_tile::<AT, R, 4>(i, j, k, a, lda, b, ldb, out, ldo);
        j += 4;
    }
    while j < n {
        gemm_tile::<AT, R, 1>(i, j, k, a, lda, b, ldb, out, ldo);
        j += 1;
    }
}

/// The `R × NB` register tile at `(i, j)` of [`gemm_rows`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_tile<const AT: bool, const R: usize, const NB: usize>(
    i: usize,
    j: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let mut acc = [[0.0f32; NB]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[(i + r) * ldo + j..][..NB]);
    }
    for p in 0..k {
        let b_row: &[f32; NB] = b[p * ldb + j..][..NB]
            .try_into()
            .expect("slice of NB elements");
        for (r, row) in acc.iter_mut().enumerate() {
            let a_ip = if AT {
                a[p * lda + i + r]
            } else {
                a[(i + r) * lda + p]
            };
            for (o, &bv) in row.iter_mut().zip(b_row) {
                *o += a_ip * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i + r) * ldo + j..][..NB].copy_from_slice(row);
    }
}

/// The plain loops [`gemm_rows`] replaced, kept as the bit-for-bit
/// reference of its differential test.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn gemm_rows_reference<const AT: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
) {
    if AT {
        for p in 0..k {
            let a_row = &a[p * lda..p * lda + m];
            let b_row = &b[p * ldb..p * ldb + n];
            for (i, &api) in a_row.iter().enumerate() {
                let out_row = &mut out[i * n..(i + 1) * n];
                for j in 0..n {
                    out_row[j] += api * b_row[j];
                }
            }
        }
    } else {
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let aip = a[i * lda + p];
                let b_row = &b[p * ldb..p * ldb + n];
                for j in 0..n {
                    out_row[j] += aip * b_row[j];
                }
            }
        }
    }
}

/// `out += A · Bᵀ` via dot products: the weight-gradient kernel
/// (`dW += dy · colsᵀ`), whose k-extent (batch·spatial) is long while m·n
/// (out_c · fan_in) is small. The even block runs on the arm's register
/// tiles ([`Kernels::dot_tiles`], bit-identical on every arm); an odd last
/// row or column takes one `kn.dot` per element. `out` has row stride
/// `ldo`.
#[allow(clippy::too_many_arguments)]
fn gemm_dot_tiled(
    kn: &Kernels,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let (m_main, n_main) = (m - m % 2, n - n % 2);
    (kn.dot_tiles)(m_main, n_main, k, a, lda, b, ldb, out, ldo);
    for i in 0..m {
        let cols = if i < m_main { n_main..n } else { 0..n };
        for j in cols {
            out[i * ldo + j] += (kn.dot)(&a[i * lda..][..k], &b[j * ldb..][..k]);
        }
    }
}

/// The 2×2 loop [`gemm_dot_tiled`] ran before the tiles moved into the
/// kernel table, with its `dot` made explicit — the bit-for-bit reference
/// of its differential test.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn gemm_dot_tiled_reference(
    dot: fn(&[f32], &[f32]) -> f32,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
) {
    const T: usize = 2; // tile side
    const L: usize = 16; // vector lanes per accumulator
    let m_main = m - m % T;
    let n_main = n - n % T;
    let k_main = k - k % L;
    let mut i = 0;
    while i < m_main {
        let mut j = 0;
        while j < n_main {
            let mut acc = [[[0.0f32; L]; T]; T];
            let mut p = 0;
            while p < k_main {
                let a0: &[f32; L] = a[i * lda + p..i * lda + p + L].try_into().unwrap();
                let a1: &[f32; L] = a[(i + 1) * lda + p..(i + 1) * lda + p + L]
                    .try_into()
                    .unwrap();
                let b0: &[f32; L] = b[j * ldb + p..j * ldb + p + L].try_into().unwrap();
                let b1: &[f32; L] = b[(j + 1) * ldb + p..(j + 1) * ldb + p + L]
                    .try_into()
                    .unwrap();
                for l in 0..L {
                    acc[0][0][l] += a0[l] * b0[l];
                    acc[0][1][l] += a0[l] * b1[l];
                    acc[1][0][l] += a1[l] * b0[l];
                    acc[1][1][l] += a1[l] * b1[l];
                }
                p += L;
            }
            for r in 0..T {
                for c in 0..T {
                    let mut s: f32 = acc[r][c].iter().sum();
                    for q in k_main..k {
                        s += a[(i + r) * lda + q] * b[(j + c) * ldb + q];
                    }
                    out[(i + r) * n + j + c] += s;
                }
            }
            j += T;
        }
        // Ragged columns.
        for r in 0..T {
            for c in n_main..n {
                out[(i + r) * n + c] += dot(
                    &a[(i + r) * lda..(i + r) * lda + k],
                    &b[c * ldb..c * ldb + k],
                );
            }
        }
        i += T;
    }
    // Ragged rows.
    for r in m_main..m {
        let a_row = &a[r * lda..r * lda + k];
        let out_row = &mut out[r * n..(r + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o += dot(a_row, &b[j * ldb..j * ldb + k]);
        }
    }
}

/// Mid-size kernel for `out += op(A) · B` when the whole k-extent fits one
/// panel (`k ≤ KC`): packs only the tiny `mr×k` A block (stack buffer) and
/// streams B directly through the dispatched microkernel (`b_stride =
/// ldb`) — B rows are already contiguous, so the expensive B-panel pack of
/// the full blocked driver is pure overhead at these sizes. This is the
/// hot path for im2col convolutions, whose GEMMs have small `m` (output
/// channels) and `k` (c·kh·kw) but very wide `n` (batch·spatial). `out`
/// has row stride `ldo`.
///
/// The last row block takes the arm's tall tile when it fits in one
/// (`mr < rows left ≤ mr_tall`): LeNet conv2's 12 channels are one pass
/// over B instead of a full 8-row pass and a half-padded one. Every
/// element is `acc = 0`, an FMA per `p` ascending, `c += acc` on either
/// tile, so the choice never changes a bit.
#[allow(clippy::too_many_arguments)]
fn gemm_mid(
    kn: &Kernels,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    a_layout: Layout,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    debug_assert!((1..=KC).contains(&k));
    let nr = kn.nr;
    debug_assert!(kn.mr <= kn.mr_tall && kn.mr_tall <= MR_MAX);
    // Column chunking: every row block makes a full pass over the B chunk,
    // so size chunks to keep them L1-resident (~24 KiB) across all row
    // blocks. Re-packing the (tiny) A block once per chunk is noise by
    // comparison.
    let jc_width = (24 * 1024 / (4 * k)).clamp(nr, 1024) / nr * nr;
    // Stack-packed A block, k-major with stride mr (tight).
    let mut a_block = [0.0f32; MR_MAX * KC];
    let mut jc = 0;
    while jc < n {
        // Chunk boundaries are nr-multiples, so only the final chunk can
        // end on a ragged (cols < nr) tile — which the microkernel handles
        // natively with masked B loads, no padding required.
        let jc_hi = (jc + jc_width).min(n);
        let mut ir = 0;
        while ir < m {
            let left = m - ir;
            let (mr, microkernel) = if kn.mr < left && left <= kn.mr_tall {
                (kn.mr_tall, kn.microkernel_tall)
            } else {
                (kn.mr, kn.microkernel)
            };
            let rows = mr.min(left);
            // Pack the A block k-major with zero padding for ragged rows.
            for p in 0..k {
                for r in 0..mr {
                    a_block[p * mr + r] = if r < rows {
                        match a_layout {
                            Layout::Normal => a[(ir + r) * lda + p],
                            Layout::Transposed => a[p * lda + ir + r],
                        }
                    } else {
                        0.0
                    };
                }
            }
            let mut jr = jc;
            while jr < jc_hi {
                let cols = nr.min(jc_hi - jr);
                // SAFETY (microkernel contract, for the `mr`-row tile
                // chosen above): the A block holds k·mr packed elements;
                // B row p reads exactly `b[p·ldb + jr .. p·ldb + jr + cols]`
                // with `jr + cols ≤ n ≤ ldb`, all in bounds; the output
                // tile `rows × cols` at `(ir, jr)` with row stride `ldo` is
                // in bounds.
                unsafe {
                    microkernel(
                        k,
                        a_block.as_ptr(),
                        mr,
                        b.as_ptr().add(jr),
                        ldb,
                        out.as_mut_ptr().add(ir * ldo + jr),
                        ldo,
                        rows,
                        cols,
                    );
                }
                jr += nr;
            }
            ir += mr;
        }
        jc = jc_hi;
    }
}

/// True iff [`gemm_driver`] sends an `m×k · k×n` product to
/// [`gemm_small`] whatever its layouts — the one routing test that depends
/// on `n`. Every element of such a product accumulates in place on `out`
/// (unfused); every other path sums each panel from zero and adds it to
/// `out` once, with a per-element order that `n` does not touch.
fn is_small(kn: &Kernels, m: usize, n: usize, k: usize) -> bool {
    m * n * k < SMALL_GEMM_FLOPS || n < kn.nr
}

/// Shared blocked driver: `out += op(A) · op(B)` with `out` row-major
/// `m×n` at row stride `ldo ≥ n`, register tiles running on the dispatched
/// microkernel of `kn`.
#[allow(clippy::too_many_arguments)]
fn gemm_driver(
    kn: &Kernels,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    a_layout: Layout,
    b: &[f32],
    ldb: usize,
    b_layout: Layout,
    out: &mut [f32],
    ldo: usize,
    scratch: &mut Scratch,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mr = kn.mr;
    if is_small(kn, m, n, k) {
        gemm_small(kn, m, n, k, a, lda, a_layout, b, ldb, b_layout, out, ldo);
        return;
    }
    match b_layout {
        Layout::Normal => {
            // Contiguous B: when the whole k-extent fits one panel and m is
            // small, the mid kernel streams B unpacked and skips all panel
            // packing — the hot case for im2col GEMMs (small m/k, huge n).
            // At larger m the full blocked driver's B panel reuse wins.
            // Worth it when m is small (few passes over B) or B itself is
            // small enough that the repeated passes stay cache-resident.
            if k <= KC && (m <= 64 || k * n <= 32 * 1024) {
                gemm_mid(kn, m, n, k, a, lda, a_layout, b, ldb, out, ldo);
                return;
            }
            // Deep-k but too skinny for packing to amortize.
            if m < 2 * mr {
                gemm_small(kn, m, n, k, a, lda, a_layout, b, ldb, b_layout, out, ldo);
                return;
            }
        }
        Layout::Transposed => {
            // Transpose-packing B walks it column-wise (cache-hostile), so
            // the packed path additionally needs a large output tile to
            // amortize; below that the contiguous dot-product form wins.
            if m * n < 4096 || m < 2 * mr || k < 16 {
                gemm_small(kn, m, n, k, a, lda, a_layout, b, ldb, b_layout, out, ldo);
                return;
            }
        }
    }
    let nr = kn.nr;
    let a_cap = MC.div_ceil(mr) * mr * KC;
    let b_cap = NC.div_ceil(nr) * nr * KC;
    let a_pack = scratch.a_pack.ensure(a_cap);
    let b_pack = scratch.b_pack.ensure(b_cap);
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let nc_padded = nc.div_ceil(nr) * nr;
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(
                &mut b_pack[..nc_padded * kc],
                b,
                ldb,
                b_layout,
                pc,
                kc,
                jc,
                nc,
                nr,
            );
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                let mc_padded = mc.div_ceil(mr) * mr;
                pack_a(
                    &mut a_pack[..mc_padded * kc],
                    a,
                    lda,
                    a_layout,
                    ic,
                    mc,
                    pc,
                    kc,
                    mr,
                );
                // Register tiles over the packed block.
                let mut jr = 0;
                while jr < nc {
                    let cols = nr.min(nc - jr);
                    let b_strip = b_pack[jr * kc..jr * kc + nr * kc].as_ptr();
                    let mut ir = 0;
                    while ir < mc {
                        let rows = mr.min(mc - ir);
                        let a_strip = a_pack[ir * kc..ir * kc + mr * kc].as_ptr();
                        // SAFETY (microkernel contract): both strips are
                        // fully packed (zero-padded to mr/nr), and the
                        // `rows × cols` output tile at `(ic + ir, jc + jr)`
                        // lies inside the `m × n` output of row stride
                        // `ldo`.
                        unsafe {
                            (kn.microkernel)(
                                kc,
                                a_strip,
                                mr,
                                b_strip,
                                nr,
                                out.as_mut_ptr().add((ic + ir) * ldo + jc + jr),
                                ldo,
                                rows,
                                cols,
                            );
                        }
                        ir += mr;
                    }
                    jr += nr;
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Shared `a·b` shape validation (kept separate so the overwrite entry
/// points can check before clearing the output).
fn assert_shapes(a: MatRef, b: MatRef, out_rows: usize, out_cols: usize) {
    assert_eq!(a.cols, b.rows, "gemm: inner dimension mismatch");
    assert_eq!(out_rows, a.rows, "gemm: output rows mismatch");
    assert_eq!(out_cols, b.cols, "gemm: output cols mismatch");
}

/// `out ← a · b` (shapes `m×k`, `k×n` → `m×n`), overwriting `out`, with a
/// caller-owned packing arena.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn gemm_into_with(a: &Matrix, b: &Matrix, out: &mut Matrix, scratch: &mut Scratch) {
    // Validate before mutating: a shape mismatch must not clobber `out`.
    assert_shapes(a.view(), b.view(), out.rows, out.cols);
    out.clear();
    gemm_accumulate_with(a.view(), b.view(), out.view_mut(), scratch);
}

/// `out ← out + a · b` — the accumulate form used for gradient accumulation.
pub(crate) fn gemm_accumulate(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    TL_SCRATCH
        .with(|s| gemm_accumulate_with(a.view(), b.view(), out.view_mut(), &mut s.borrow_mut()));
}

/// [`gemm_accumulate`] on borrowed operands, with a caller-owned packing
/// arena.
pub fn gemm_accumulate_with(a: MatRef, b: MatRef, out: MatMut, scratch: &mut Scratch) {
    gemm_accumulate_with_kernel(simd::kernels(), a, b, out, scratch);
}

/// [`gemm_accumulate_with`] on an explicit kernel table instead of the
/// process-wide dispatched one — test/bench support for exercising every
/// ISA arm in one process (obtain tables via [`simd::all_supported`]).
pub fn gemm_accumulate_with_kernel(
    kn: &Kernels,
    a: MatRef,
    b: MatRef,
    out: MatMut,
    scratch: &mut Scratch,
) {
    assert_shapes(a, b, out.rows, out.cols);
    gemm_driver(
        kn,
        a.rows,
        b.cols,
        a.cols,
        a.data,
        a.cols,
        Layout::Normal,
        b.data,
        b.cols,
        Layout::Normal,
        out.data,
        b.cols,
        scratch,
    );
}

/// The column ranges, in whole `granule`s of about `target` columns each,
/// that split an `m×k · k×n` [`gemm_accumulate_with`] product into
/// products of their own without changing a bit: computed range by range
/// through [`gemm_accumulate_cols_with`], every element takes the whole
/// product's arithmetic. That arithmetic depends on `n` only through the
/// small-shape fallback, so a range is widened until it leaves the
/// fallback whenever the whole product does, and a short last range joins
/// the one before it.
///
/// # Panics
/// Panics unless `n` is a whole number of (non-empty) granules.
pub fn column_chunks(
    m: usize,
    k: usize,
    n: usize,
    granule: usize,
    target: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    assert!(
        granule > 0 && n.is_multiple_of(granule),
        "column_chunks: width {n} is not a whole number of {granule}-column granules"
    );
    let kn = simd::kernels();
    let small = |w| is_small(kn, m, w, k);
    let mut width = target.div_ceil(granule).max(1) * granule;
    if !small(n) {
        while small(width) {
            width += granule;
        }
    }
    let (full, rest) = (n / width, n % width);
    let merge = full > 0 && rest > 0 && small(rest) && !small(n);
    let count = full + usize::from(rest > 0 && !merge);
    (0..count).map(move |c| c * width..if c + 1 == count { n } else { (c + 1) * width })
}

/// `out[.., j0 .. j0 + b.cols()] += a · b`: the product accumulated into a
/// column window of a wider `out` in place, no staging copy. Each element
/// gets the arithmetic [`gemm_accumulate_with`] gives the product `a · b`
/// alone, so ranges from [`column_chunks`] assemble the whole product bit
/// for bit.
///
/// # Panics
/// Panics on a shape mismatch or a window past `out`'s last column.
pub fn gemm_accumulate_cols_with(
    a: MatRef,
    b: MatRef,
    out: MatMut,
    j0: usize,
    scratch: &mut Scratch,
) {
    assert_eq!(a.cols, b.rows, "gemm: inner dimension mismatch");
    assert_eq!(out.rows, a.rows, "gemm: output rows mismatch");
    assert!(
        j0 + b.cols <= out.cols,
        "gemm: window {j0}..{} past {} output columns",
        j0 + b.cols,
        out.cols
    );
    if out.data.is_empty() {
        return;
    }
    gemm_driver(
        simd::kernels(),
        a.rows,
        b.cols,
        a.cols,
        a.data,
        a.cols,
        Layout::Normal,
        b.data,
        b.cols,
        Layout::Normal,
        &mut out.data[j0..],
        out.cols,
        scratch,
    );
}

/// `a · b` allocating the result.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    gemm_accumulate(a, b, &mut out);
    out
}

/// `out ← out + aᵀ · b` without materializing the transpose, with a
/// caller-owned packing arena.
///
/// Shapes: `a` is `k×m`, `b` is `k×n`, `out` is `m×n`. Used by dense-layer
/// weight gradients (`dW = xᵀ · dy`).
pub fn gemm_at_b_accumulate_with(a: MatRef, b: MatRef, out: MatMut, scratch: &mut Scratch) {
    gemm_at_b_accumulate_with_kernel(simd::kernels(), a, b, out, scratch);
}

/// [`gemm_at_b_accumulate_with`] on an explicit kernel table — test/bench
/// support (see [`gemm_accumulate_with_kernel`]).
pub fn gemm_at_b_accumulate_with_kernel(
    kn: &Kernels,
    a: MatRef,
    b: MatRef,
    out: MatMut,
    scratch: &mut Scratch,
) {
    assert_eq!(a.rows, b.rows, "gemm_at_b: row mismatch");
    assert_eq!(out.rows, a.cols, "gemm_at_b: output rows mismatch");
    assert_eq!(out.cols, b.cols, "gemm_at_b: output cols mismatch");
    gemm_driver(
        kn,
        a.cols,
        b.cols,
        a.rows,
        a.data,
        a.cols,
        Layout::Transposed,
        b.data,
        b.cols,
        Layout::Normal,
        out.data,
        b.cols,
        scratch,
    );
}

/// `out ← out + a · bᵀ` without materializing the transpose, with a
/// caller-owned packing arena.
///
/// Shapes: `a` is `m×k`, `b` is `n×k`, `out` is `m×n`. Used by dense-layer
/// input gradients (`dx = dy · Wᵀ`).
pub fn gemm_a_bt_accumulate_with(a: MatRef, b: MatRef, out: MatMut, scratch: &mut Scratch) {
    gemm_a_bt_accumulate_with_kernel(simd::kernels(), a, b, out, scratch);
}

/// [`gemm_a_bt_accumulate_with`] on an explicit kernel table — test/bench
/// support (see [`gemm_accumulate_with_kernel`]).
pub fn gemm_a_bt_accumulate_with_kernel(
    kn: &Kernels,
    a: MatRef,
    b: MatRef,
    out: MatMut,
    scratch: &mut Scratch,
) {
    assert_eq!(a.cols, b.cols, "gemm_a_bt: inner dimension mismatch");
    assert_eq!(out.rows, a.rows, "gemm_a_bt: output rows mismatch");
    assert_eq!(out.cols, b.rows, "gemm_a_bt: output cols mismatch");
    gemm_driver(
        kn,
        a.rows,
        b.rows,
        a.cols,
        a.data,
        a.cols,
        Layout::Normal,
        b.data,
        b.cols,
        Layout::Transposed,
        out.data,
        b.rows,
        scratch,
    );
}

/// The pre-blocking scalar kernels, kept verbatim as the correctness
/// reference of the property tests below.
#[cfg(test)]
mod naive {
    use super::Matrix;

    /// Reference `out ← out + a · b` (historical i-k-j loop).
    pub(super) fn gemm_accumulate(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.cols, b.rows, "gemm: inner dimension mismatch");
        assert_eq!(out.rows, a.rows, "gemm: output rows mismatch");
        assert_eq!(out.cols, b.cols, "gemm: output cols mismatch");
        let n = b.cols;
        for i in 0..a.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for k in 0..a.cols {
                let aik = a.data[i * a.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b.data[k * n..(k + 1) * n];
                for j in 0..n {
                    out_row[j] += aik * b_row[j];
                }
            }
        }
    }

    /// Reference `out ← out + aᵀ · b`.
    pub(super) fn gemm_at_b_accumulate(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.rows, b.rows, "gemm_at_b: row mismatch");
        assert_eq!(out.rows, a.cols, "gemm_at_b: output rows mismatch");
        assert_eq!(out.cols, b.cols, "gemm_at_b: output cols mismatch");
        let n = b.cols;
        for k in 0..a.rows {
            let a_row = &a.data[k * a.cols..(k + 1) * a.cols];
            let b_row = &b.data[k * n..(k + 1) * n];
            for (i, &aki) in a_row.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    out_row[j] += aki * b_row[j];
                }
            }
        }
    }

    /// Reference `out ← out + a · bᵀ`.
    pub(super) fn gemm_a_bt_accumulate(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.cols, b.cols, "gemm_a_bt: inner dimension mismatch");
        assert_eq!(out.rows, a.rows, "gemm_a_bt: output rows mismatch");
        assert_eq!(out.cols, b.rows, "gemm_a_bt: output cols mismatch");
        for i in 0..a.rows {
            let a_row = &a.data[i * a.cols..(i + 1) * a.cols];
            let out_row = &mut out.data[i * out.cols..(i + 1) * out.cols];
            for (j, out) in out_row.iter_mut().enumerate() {
                let b_row = &b.data[j * b.cols..(j + 1) * b.cols];
                *out += crate::vector::dot(a_row, b_row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = gemm(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        (0..n).for_each(|i| m.set(i, i, 1.0));
        m
    }

    fn random_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        rng.fill_uniform(m.as_mut_slice(), lo, hi);
        m
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::new(3);
        let a = Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng);
        let i = identity(4);
        assert_eq!(gemm(&a, &i).as_slice(), a.as_slice());
        assert_eq!(gemm(&i, &a).as_slice(), a.as_slice());
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(4);
        let a = random_uniform(3, 5, -1.0, 1.0, &mut rng);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = Rng::new(5);
        let a = Matrix::random_normal(6, 3, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(6, 4, 0.0, 1.0, &mut rng);
        let mut fast = Matrix::zeros(3, 4);
        gemm_at_b_accumulate_with(a.view(), b.view(), fast.view_mut(), &mut Scratch::new());
        let slow = gemm(&a.transposed(), &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = Rng::new(6);
        let a = Matrix::random_normal(5, 3, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(7, 3, 0.0, 1.0, &mut rng);
        let mut fast = Matrix::zeros(5, 7);
        gemm_a_bt_accumulate_with(a.view(), b.view(), fast.view_mut(), &mut Scratch::new());
        let slow = gemm(&a, &b.transposed());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    /// A matrix–vector product is the `n = 1` GEMM: each output is one
    /// row's dot product with the vector.
    #[test]
    fn gemv_matches_gemm() {
        let mut rng = Rng::new(7);
        let m = Matrix::random_normal(4, 6, 0.0, 1.0, &mut rng);
        let x: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let out: Vec<f32> = (0..4).map(|r| crate::vector::dot(m.row(r), &x)).collect();
        let xm = Matrix::from_vec(6, 1, x);
        let expect = gemm(&m, &xm);
        for (a, b) in out.iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = gemm(&a, &b);
    }

    #[test]
    fn accumulate_adds() {
        let a = identity(2);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut out = Matrix::from_vec(2, 2, vec![10.0, 10.0, 10.0, 10.0]);
        gemm_accumulate(&a, &b, &mut out);
        assert_eq!(out.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
    }

    /// Asserts `got ≈ want` elementwise with a tolerance scaled by the
    /// k-dimension (summation length) of the product.
    fn assert_close(got: &Matrix, want: &Matrix, k: usize, ctx: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{ctx}: shape"
        );
        let tol = 1e-4f32 * (1.0 + k as f32).sqrt();
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{ctx}: element {i}: blocked {x} vs naive {y}"
            );
        }
    }

    /// Property: the blocked kernel matches the naive reference on random
    /// shapes, including sizes that are not multiples of any block
    /// dimension, degenerate 1-extent shapes, and both layout variants.
    #[test]
    fn blocked_matches_naive_on_random_shapes() {
        let mut rng = Rng::new(0xB10C);
        // Shapes chosen to straddle the small-GEMM fallback threshold and
        // the MR/NR/KC/MC boundaries (±1 off each block size).
        let shapes = [
            (1, 1, 1),
            (1, 17, 5),
            (3, 15, 2),
            (4, 16, 256),
            (5, 17, 257),
            (7, 33, 31),
            (8, 16, 16),
            (13, 47, 19),
            (31, 129, 63),
            (64, 64, 64),
            (65, 15, 300),
            (129, 1025, 11),
            (130, 100, 260),
        ];
        let mut scratch = Scratch::new();
        for &(m, n, k) in &shapes {
            let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
            let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
            let ctx = format!("gemm {m}x{k}x{n}");

            let mut fast = Matrix::random_normal(m, n, 0.0, 1.0, &mut rng);
            let mut slow = fast.clone();
            gemm_accumulate(&a, &b, &mut fast);
            naive::gemm_accumulate(&a, &b, &mut slow);
            assert_close(&fast, &slow, k, &ctx);

            // Aᵀ·B via the packed transposed layout.
            let at = a.transposed();
            let mut fast_t = Matrix::zeros(m, n);
            let mut slow_t = Matrix::zeros(m, n);
            gemm_at_b_accumulate_with(at.view(), b.view(), fast_t.view_mut(), &mut scratch);
            naive::gemm_at_b_accumulate(&at, &b, &mut slow_t);
            assert_close(&fast_t, &slow_t, k, &format!("{ctx} (at_b)"));

            // A·Bᵀ via the packed transposed layout.
            let bt = b.transposed();
            let mut fast_bt = Matrix::zeros(m, n);
            let mut slow_bt = Matrix::zeros(m, n);
            gemm_a_bt_accumulate_with(a.view(), bt.view(), fast_bt.view_mut(), &mut scratch);
            naive::gemm_a_bt_accumulate(&a, &bt, &mut slow_bt);
            assert_close(&fast_bt, &slow_bt, k, &format!("{ctx} (a_bt)"));
        }
    }

    /// Fully random small shape fuzz (many cases, uniform shapes 0..40).
    #[test]
    fn blocked_matches_naive_fuzz() {
        let mut rng = Rng::new(0xF022);
        for case in 0..200 {
            let m = (rng.next_u64() % 40) as usize;
            let n = (rng.next_u64() % 40) as usize;
            let k = (rng.next_u64() % 40) as usize;
            let a = random_uniform(m, k, -2.0, 2.0, &mut rng);
            let b = random_uniform(k, n, -2.0, 2.0, &mut rng);
            let mut fast = Matrix::zeros(m, n);
            let mut slow = Matrix::zeros(m, n);
            gemm_accumulate(&a, &b, &mut fast);
            naive::gemm_accumulate(&a, &b, &mut slow);
            assert_close(
                &fast,
                &slow,
                k.max(1),
                &format!("fuzz case {case}: {m}x{k}x{n}"),
            );
        }
    }

    /// Empty matrices (any extent zero) are handled without panicking and
    /// leave the accumulator untouched.
    #[test]
    fn empty_matrices_are_noops() {
        for &(m, n, k) in &[(0usize, 5usize, 3usize), (5, 0, 3), (5, 3, 0), (0, 0, 0)] {
            let a = Matrix::zeros(m, k);
            let b = Matrix::zeros(k, n);
            let mut out = Matrix::from_vec(m, n, vec![2.5; m * n]);
            gemm_accumulate(&a, &b, &mut out);
            assert!(out.as_slice().iter().all(|&v| v == 2.5), "{m}x{k}x{n}");
            let mut out2 = Matrix::zeros(m, n);
            gemm_into_with(&a, &b, &mut out2, &mut Scratch::new());
            assert!(out2.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    /// A caller-owned scratch arena gives the same results as the
    /// thread-local one and is reused without reallocating.
    #[test]
    fn explicit_scratch_matches_thread_local() {
        let mut rng = Rng::new(0x5C2A);
        let a = Matrix::random_normal(33, 70, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(70, 45, 0.0, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let mut with_scratch = Matrix::zeros(33, 45);
        gemm_accumulate_with(a.view(), b.view(), with_scratch.view_mut(), &mut scratch);
        let auto = gemm(&a, &b);
        assert_eq!(with_scratch.as_slice(), auto.as_slice());
        let cap = (scratch.a_pack.capacity(), scratch.b_pack.capacity());
        let mut second = Matrix::zeros(33, 45);
        gemm_accumulate_with(a.view(), b.view(), second.view_mut(), &mut scratch);
        assert_eq!(
            (scratch.a_pack.capacity(), scratch.b_pack.capacity()),
            cap,
            "scratch must not regrow"
        );
    }

    #[test]
    fn layout_conversions_known_values() {
        // 2 samples, 2 channels, spatial 3: rows are (c0 plane, c1 plane).
        #[rustfmt::skip]
        let x = Matrix::from_vec(2, 6, vec![
            0.0, 1.0, 2.0,  10.0, 11.0, 12.0, // sample 0: c0, c1
            3.0, 4.0, 5.0,  13.0, 14.0, 15.0, // sample 1: c0, c1
        ]);
        let cm = x.to_channel_major(2);
        assert_eq!((cm.rows(), cm.cols()), (2, 6));
        // Channel rows hold per-sample blocks of spatial.
        assert_eq!(cm.row(0), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cm.row(1), &[10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);
        let back = cm.to_sample_major(2);
        assert_eq!(back, x);
    }

    #[test]
    fn layout_conversion_single_channel_is_reshape() {
        let x = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32).collect());
        let cm = x.to_channel_major(1);
        assert_eq!((cm.rows(), cm.cols()), (1, 12));
        assert_eq!(cm.as_slice(), x.as_slice(), "c = 1 keeps the buffer");
        assert_eq!(cm.to_sample_major(3), x);
    }

    #[test]
    fn layout_round_trip_random_shapes() {
        let mut rng = Rng::new(0x1A_707);
        for case in 0..50 {
            let batch = 1 + (rng.next_u64() % 7) as usize;
            let c = 1 + (rng.next_u64() % 5) as usize;
            let spatial = 1 + (rng.next_u64() % 30) as usize;
            let x = Matrix::random_normal(batch, c * spatial, 0.0, 1.0, &mut rng);
            let cm = x.to_channel_major(c);
            assert_eq!((cm.rows(), cm.cols()), (c, batch * spatial), "case {case}");
            assert_eq!(cm.to_sample_major(batch), x, "case {case}: round trip");
            // And the opposite direction: channel-major first.
            let y = Matrix::random_normal(c, batch * spatial, 0.0, 1.0, &mut rng);
            assert_eq!(
                y.to_sample_major(batch).to_channel_major(c),
                y,
                "case {case}: inverse round trip"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn to_channel_major_indivisible_panics() {
        let _ = Matrix::zeros(2, 7).to_channel_major(3);
    }

    /// `resize_zeroed` keys scratch on capacity: shrinking and re-growing
    /// within the high-water mark must reuse the allocation and leave the
    /// buffer all-zero.
    #[test]
    fn resize_zeroed_reuses_allocation() {
        let mut m = Matrix::zeros(8, 16);
        m.as_mut_slice().iter_mut().for_each(|v| *v = 1.0);
        let ptr = m.as_slice().as_ptr();
        m.resize_zeroed(4, 10);
        assert_eq!((m.rows(), m.cols()), (4, 10));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m.as_slice().as_ptr(), ptr, "shrink must reuse allocation");
        m.as_mut_slice().iter_mut().for_each(|v| *v = 2.0);
        m.resize_zeroed(8, 16);
        assert_eq!(m.len(), 128);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(
            m.as_slice().as_ptr(),
            ptr,
            "regrow within capacity must reuse allocation"
        );
    }

    /// (e) The register-row tiles against the plain loops they replaced,
    /// bit for bit: widths below every arm's `nr` (and a few above), row
    /// counts around the 4-row block, every column-tile remainder, and
    /// `m·n·k` on either side of `SMALL_GEMM_FLOPS` — both directly and
    /// through the public entry points that route such shapes here.
    #[test]
    fn differential_register_rows_match_plain_loops() {
        let mut rng = Rng::new(0x2065);
        let shapes = [
            (1, 1, 1),
            (5, 3, 7),
            (4, 16, 9),
            (7, 31, 33),
            (32, 24, 108), // LeNet dense1 forward
            (32, 10, 24),  // LeNet dense2 forward
            (108, 24, 32), // LeNet dense1 weight gradient (Aᵀ·B)
            (2, 15, 500),  // 15 000 < SMALL_GEMM_FLOPS
            (8, 23, 88),   // 16 192 <
            (9, 23, 80),   // 16 560 >
            (3, 20, 300),  // 18 000 >, deep k
            (13, 37, 5),
            (6, 45, 400),
        ];
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &(m, n, k) in &shapes {
            let ctx = format!("{m}x{k}x{n}");
            let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
            let at = a.transposed();
            let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
            let seed = Matrix::random_normal(m, n, 0.0, 1.0, &mut rng);

            let mut want = seed.clone();
            gemm_rows_reference::<false>(m, n, k, &a.data, k, &b.data, n, &mut want.data);
            let mut got = seed.clone();
            gemm_rows::<false>(m, n, k, &a.data, k, &b.data, n, &mut got.data, n);
            assert_eq!(bits(&got), bits(&want), "{ctx}: A·B");

            let mut want_t = seed.clone();
            gemm_rows_reference::<true>(m, n, k, &at.data, m, &b.data, n, &mut want_t.data);
            let mut got_t = seed.clone();
            gemm_rows::<true>(m, n, k, &at.data, m, &b.data, n, &mut got_t.data, n);
            assert_eq!(bits(&got_t), bits(&want_t), "{ctx}: Aᵀ·B");

            // n < 16 is below every arm's nr: the public entry points land
            // in the small path whatever m·n·k is.
            if n < 16 {
                let mut public = seed.clone();
                gemm_accumulate(&a, &b, &mut public);
                assert_eq!(bits(&public), bits(&want), "{ctx}: gemm_accumulate");
                let mut public_t = seed.clone();
                gemm_at_b_accumulate_with(
                    at.view(),
                    b.view(),
                    public_t.view_mut(),
                    &mut Scratch::new(),
                );
                assert_eq!(
                    bits(&public_t),
                    bits(&want_t),
                    "{ctx}: gemm_at_b_accumulate_with"
                );
            }
        }
    }

    #[test]
    fn rows_to_channel_major_matches_whole_matrix_conversion() {
        let mut rng = Rng::new(0x20C3);
        let x = Matrix::random_normal(9, 3 * 5, 0.0, 1.0, &mut rng);
        for channels in [1usize, 3, 5] {
            let whole = x.to_channel_major(channels);
            let spatial = x.cols() / channels;
            let part = x.rows_to_channel_major(2..6, channels);
            assert_eq!((part.rows(), part.cols()), (channels, 4 * spatial));
            for ch in 0..channels {
                assert_eq!(part.row(ch), &whole.row(ch)[2 * spatial..6 * spatial]);
            }
        }
    }

    /// Bitwise equality, except that any NaN equals any NaN: when both
    /// addends are NaN, which payload survives is the code generator's
    /// choice (see `Kernels::sketch_gather`).
    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    /// Normal noise with `−0.0` on about one entry in eight, and one
    /// special (NaN, ±∞ or `−0.0`) planted in every third row — so most
    /// products stay finite while some rows carry every kind of special.
    fn with_specials(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
        let mut m = Matrix::random_normal(rows, cols, 0.0, 1.0, rng);
        for v in m.as_mut_slice() {
            if rng.next_u64().is_multiple_of(8) {
                *v = -0.0;
            }
        }
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for r in (0..rows).step_by(3) {
            let c = (rng.next_u64() % cols as u64) as usize;
            m.set(r, c, specials[(rng.next_u64() % 4) as usize]);
        }
        m
    }

    /// (f) The weight-gradient kernel on every arm against the 2×2 loop it
    /// grew out of, bit for bit: every block side and ragged edge up to 13,
    /// k on both sides of the 16-lane step and at LeNet's k (576 and 1152
    /// are conv2's at batch 16 and 32), specials planted, accumulating
    /// onto a non-zero output.
    #[test]
    fn differential_dot_tiles_match_2x2_loop() {
        let mut rng = Rng::new(0xD07);
        let mut scratch = Scratch::new();
        for k in [1usize, 15, 16, 17, 576, 1152] {
            for m in 1..=13usize {
                for n in 1..=13usize {
                    let a = with_specials(m, k, &mut rng);
                    let b = with_specials(n, k, &mut rng);
                    let seed = Matrix::random_normal(m, n, 0.0, 1.0, &mut rng);
                    for kn in simd::all_supported() {
                        let mut want = seed.clone();
                        gemm_dot_tiled_reference(
                            kn.dot,
                            m,
                            n,
                            k,
                            &a.data,
                            k,
                            &b.data,
                            k,
                            &mut want.data,
                        );
                        let mut got = seed.clone();
                        gemm_a_bt_accumulate_with_kernel(
                            kn,
                            a.view(),
                            b.view(),
                            got.view_mut(),
                            &mut scratch,
                        );
                        assert!(
                            same_bits(got.as_slice(), want.as_slice()),
                            "{} {m}×{n} k={k}",
                            kn.name()
                        );
                    }
                }
            }
        }
    }

    /// The odd last row and column of an `A·Bᵀ` product are the given
    /// table's `dot`, not the process-wide one: an explicit-kernel entry
    /// point may not mix arms.
    #[test]
    fn a_bt_ragged_edges_use_the_given_kernel_table() {
        let mut rng = Rng::new(0xED6E);
        let (m, n, k) = (7, 9, 4608); // LeNet conv1's dW at batch 32, plus a row
        let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(n, k, 0.0, 1.0, &mut rng);
        for kn in simd::all_supported() {
            let mut out = Matrix::zeros(m, n);
            gemm_a_bt_accumulate_with_kernel(
                kn,
                a.view(),
                b.view(),
                out.view_mut(),
                &mut Scratch::new(),
            );
            for i in 0..m {
                for j in 0..n {
                    if i == m - 1 || j == n - 1 {
                        let want = (kn.dot)(a.row(i), b.row(j));
                        assert_eq!(
                            out.get(i, j).to_bits(),
                            want.to_bits(),
                            "{} ({i}, {j})",
                            kn.name()
                        );
                    }
                }
            }
        }
    }

    /// (g) The mid kernel's tall last row block against the all-`mr` walk,
    /// bit for bit, on every arm: every row count the tall tile takes
    /// (alone, and after a full `mr` block), every column tail from 1 to
    /// 32, both A layouts, and a window of a wider output.
    #[test]
    fn differential_tall_tile_matches_mr_row_path() {
        let mut rng = Rng::new(0x7A11);
        for kn in simd::all_supported() {
            let short = Kernels {
                mr_tall: kn.mr,
                microkernel_tall: kn.microkernel,
                ..*kn
            };
            let rows = (kn.mr + 1..=kn.mr_tall).chain(2 * kn.mr + 1..=kn.mr + kn.mr_tall);
            for m in rows {
                for k in [1usize, 9, 54] {
                    for tail in 1..=32usize {
                        let n = 32 + tail;
                        let ldo = n + 5;
                        let ctx = format!("{} {m}×{k}×{n}", kn.name());
                        let a = with_specials(m, k, &mut rng);
                        let at = a.transposed();
                        let b = with_specials(k, n, &mut rng);
                        let seed = Matrix::random_normal(m, ldo, 0.0, 1.0, &mut rng);
                        for (layout, a, lda) in
                            [(Layout::Normal, &a, k), (Layout::Transposed, &at, m)]
                        {
                            let mut want = seed.clone();
                            gemm_mid(
                                &short,
                                m,
                                n,
                                k,
                                &a.data,
                                lda,
                                layout,
                                &b.data,
                                n,
                                &mut want.data[5..],
                                ldo,
                            );
                            let mut got = seed.clone();
                            gemm_mid(
                                kn,
                                m,
                                n,
                                k,
                                &a.data,
                                lda,
                                layout,
                                &b.data,
                                n,
                                &mut got.data[5..],
                                ldo,
                            );
                            assert!(same_bits(got.as_slice(), want.as_slice()), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    /// (h) A product assembled from `column_chunks` windows is the whole
    /// product, bit for bit: LeNet's two conv forwards at batches whose
    /// whole product falls to the small path (1, 2) or not, with a short
    /// tail to merge (33) or without, and a deep-k product whose small
    /// path is chosen by `m`.
    #[test]
    fn column_chunks_assemble_the_whole_product() {
        let mut rng = Rng::new(0xC4C);
        let mut scratch = Scratch::new();
        let shapes = [(6usize, 9usize, 144usize), (12, 54, 36), (20, 300, 7)];
        for &(m, k, granule) in &shapes {
            for batch in [1usize, 2, 3, 5, 31, 32, 33, 64, 65, 232] {
                for target in [1usize, 300, 4096] {
                    let n = batch * granule;
                    let ctx = format!("{m}×{k}×{n} target {target}");
                    let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
                    let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
                    let mut want = Matrix::zeros(m, n);
                    gemm_accumulate_with(a.view(), b.view(), want.view_mut(), &mut scratch);
                    let mut got = Matrix::zeros(m, n);
                    let mut next = 0;
                    for span in column_chunks(m, k, n, granule, target) {
                        assert_eq!(span.start, next, "{ctx}: ranges must tile 0..n");
                        assert!(span.end > span.start && span.end % granule == 0, "{ctx}");
                        next = span.end;
                        let mut part = Matrix::zeros(k, span.len());
                        for p in 0..k {
                            part.row_mut(p).copy_from_slice(&b.row(p)[span.clone()]);
                        }
                        gemm_accumulate_cols_with(
                            a.view(),
                            part.view(),
                            got.view_mut(),
                            span.start,
                            &mut scratch,
                        );
                    }
                    assert_eq!(next, n, "{ctx}: ranges must cover 0..n");
                    assert!(same_bits(got.as_slice(), want.as_slice()), "{ctx}");
                }
            }
        }
    }
}

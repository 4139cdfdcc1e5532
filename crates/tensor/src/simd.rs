//! Runtime-dispatched SIMD kernel layer.
//!
//! Every wide loop of FDA's per-step arithmetic — the GEMM microkernel,
//! the weight-gradient dot tiles, the flat-vector reductions (`dot`,
//! `sum`), the element-wise mean steps (`add_assign`, `scale`) and the AMS
//! sketch bucket gather — funnels through one [`Kernels`] table selected
//! **once** per process:
//!
//! * **`avx512`** — AVX-512F FMA: 8×32 GEMM microkernel (16 zmm
//!   accumulators, packed-panel prefetch) plus a 12×32 tall tile (24),
//!   4×4 dot tiles of zmm accumulators, 64-lane reduction blocks with
//!   masked tails.
//! * **`avx2`** — AVX2+FMA: 6×16 microkernel (12 ymm accumulators), 32-lane
//!   reduction blocks with scalar tails.
//! * **`scalar`** — no explicit intrinsics; the autovectorizable 4×16 tile,
//!   2×2 dot tiles (also the `avx2` arm's) and 32-lane accumulator blocks
//!   the workspace used before this layer existed. Always available, on every architecture; it is also the
//!   correctness reference the other arms are property-tested against.
//!
//! Selection happens on first use via [`kernels`]: the `FDA_FORCE_KERNEL`
//! environment variable (`scalar` | `avx2` | `avx512`) wins if set (and
//! panics with a clear message if the host cannot run the forced arm);
//! otherwise the best ISA reported by `is_x86_feature_detected!` is chosen.
//! The choice is cached in a `OnceLock`, so every subsequent call is a
//! branch-free indirect call through a fixed table — **deterministic within
//! a run**: all drivers (sequential simulator, worker pool, TCP
//! transport) share the same table, which is why cross-driver
//! bit-identity survives this layer untouched. Across *arms* the reductions
//! reassociate (FMA and wider lanes change f32 bit patterns), which is why
//! the golden-trajectory hashes are host-pinned and re-pinned when the
//! default arm changes.
//!
//! # Safety model
//!
//! The intrinsics leaves are `#[target_feature]` functions. Those that
//! take only slices and values — `dot`, `sum`, `add_assign`, `scale`, the
//! horizontal sums and the dot tiles — are safe functions: their loops
//! walk `as_chunks` array references, and `unsafe` is left in the per-arm
//! load and store helpers, whose bounds are a fact of their `&[f32; N]`
//! argument or of a lane mask no wider than the slice. Three contracts
//! stay `unsafe`, each stated where it is declared:
//!
//! * the microkernels ([`Kernels::microkernel`]) take raw packed-panel
//!   pointers and strides;
//! * the sketch gather ([`Kernels::sketch_gather`]) reads `v` at table
//!   indices it does not check;
//! * calling a `#[target_feature]` leaf from the table's plain fn
//!   pointers is `unsafe` because the compiler cannot see the feature.
//!   A `&'static Kernels` is only obtainable through [`kernels`],
//!   [`table_for`] or [`all_supported`], each of which gates on runtime
//!   feature detection, so the safe fn-pointer fields can never dispatch
//!   an instruction the host lacks.

use std::sync::OnceLock;

/// Instruction-set architecture of one kernel arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable Rust, no explicit intrinsics (autovectorized by LLVM).
    Scalar,
    /// AVX2 + FMA intrinsics (256-bit lanes).
    Avx2,
    /// AVX-512F FMA intrinsics (512-bit lanes, masked tails).
    Avx512,
}

impl Isa {
    /// All arms, best first — the probe order of the default dispatch.
    pub const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Scalar];

    /// The name used in `FDA_FORCE_KERNEL` and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Parses an `FDA_FORCE_KERNEL` value.
    pub fn parse(s: &str) -> Option<Isa> {
        match s {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            _ => None,
        }
    }

    /// True iff the running host can execute this arm.
    fn supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One arm's kernel table.
///
/// # Microkernel contract
///
/// `microkernel(kc, a, a_stride, b, b_stride, c, ldc, rows, cols)` computes
/// `c[r·ldc + j] += Σ_p a[p·a_stride + r] · b[p·b_stride + j]` for
/// `r < rows`, `j < cols`, with `rows ≤ mr` and `cols ≤ nr`.
///
/// Safety requirements on the caller:
/// * `a` must be readable for `kc·a_stride` elements with `a_stride ≥ mr`
///   (packed A strips are zero-padded to `mr` rows);
/// * `b` must be readable for `(kc − 1)·b_stride + cols` elements with
///   `0 < cols ≤ nr`: a full-width tile (`cols == nr`) uses plain wide
///   loads, a ragged tile uses masked (or bounded) loads that touch
///   exactly `cols` elements per row — so a streamed-B caller may offer
///   column tails without padding;
/// * `c` must be writable at `r·ldc + j` for `r < rows`, `j < cols`
///   (ragged tiles use masked/bounded read-modify-write, nothing outside
///   the live sub-block is touched).
///
/// The accumulation order over `p` is identical in every arm (one tile pass
/// in ascending `p`), but lane association differs, so tiles agree across
/// arms only to rounding.
pub struct Kernels {
    /// Which ISA this table runs on.
    pub isa: Isa,
    /// Microkernel tile height (rows of C per call).
    pub mr: usize,
    /// Microkernel tile width (columns of C per call).
    pub nr: usize,
    /// The GEMM register tile; see the struct-level contract.
    ///
    /// # Safety
    /// See the microkernel contract above.
    pub microkernel: unsafe fn(
        kc: usize,
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ),
    /// Height of [`Kernels::microkernel_tall`]; `mr` on an arm without a
    /// taller tile.
    pub mr_tall: usize,
    /// The microkernel on an `mr_tall × nr` tile, for a streamed-B row
    /// block that an `mr`-row tile would split into a full pass and a
    /// mostly zero-padded one (`mr < rows ≤ mr_tall`). Same contract, with
    /// `mr_tall` in place of `mr`, and the same arithmetic per element —
    /// the tile height never changes a bit. An arm without a taller tile
    /// repeats `microkernel`.
    ///
    /// # Safety
    /// See the microkernel contract above.
    pub microkernel_tall: unsafe fn(
        kc: usize,
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ),
    /// The dot tiles of the weight gradient `A·Bᵀ`:
    /// `dot_tiles(m, n, k, a, lda, b, ldb, out, ldo)` adds
    /// `⟨a[i·lda..][..k], b[j·ldb..][..k]⟩` to `out[i·ldo + j]` for every
    /// `i < m`, `j < n`, both even. Each element is the sum, in lane order,
    /// of 16 lane accumulators — lane `l` adds `a·b` (a multiply, then an
    /// add, never fused) at every `p ≡ l (mod 16)` below `k − k mod 16`,
    /// ascending — then the `k mod 16` tail products one by one, then one
    /// add into `out`. Every arm computes exactly this, so all arms agree
    /// bit for bit, up to the payload of a NaN (see
    /// [`Kernels::sketch_gather`]). Panics on an odd block or a row that
    /// does not fit its slice.
    #[allow(clippy::type_complexity)] // the signature is the contract above
    pub dot_tiles: fn(usize, usize, usize, &[f32], usize, &[f32], usize, &mut [f32], usize),
    /// Dot product `⟨a, b⟩`; panics on length mismatch.
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// Sum of all elements.
    pub sum: fn(&[f32]) -> f32,
    /// `a ← a + b`; panics on length mismatch. Element-wise (no
    /// reassociation), so all arms agree bit-for-bit.
    pub add_assign: fn(&mut [f32], &[f32]),
    /// `a ← α·a`. Element-wise; all arms agree bit-for-bit.
    pub scale: fn(&mut [f32], f32),
    /// AMS sketch row as a gather over a bucket-major table (the layout
    /// `fda_sketch::ams` builds). The row's `out.len()` buckets form
    /// groups of [`SKETCH_LANES`], the last one `w = out.len() − 16g`
    /// wide if shorter; group `g` owns the next `steps[g]·w` entries of
    /// `table`, step-major (lane `j` of step `s` at `s·w + j`). An entry
    /// is `index | sign << 31` or [`SKETCH_PAD`]. Each bucket starts at
    /// `+0.0` and adds `±v[index]` (the sign applied as an exact sign-bit
    /// flip) for its lane's live entries in table order; pad entries leave
    /// it untouched. A table that lists each bucket's indices ascending
    /// therefore reproduces the ascending-`i` scatter
    /// `row[bucket(i)] += ±v[i]` bit for bit, and all arms agree bit for
    /// bit — up to the payload of a NaN counter: when both addends are NaN
    /// an x86 add returns one of them, and Rust treats `f32` addition
    /// (intrinsics included) as commutative, so which input's payload
    /// survives is the compiler's choice. Panics if `steps` / `table`
    /// lengths do not fit `out.len()`.
    ///
    /// # Safety
    /// Every entry other than [`SKETCH_PAD`] must satisfy
    /// `entry & 0x7FFF_FFFF < v.len()`: the intrinsics arms gather without
    /// bounds checks.
    #[allow(clippy::type_complexity)] // the signature is the contract above
    pub sketch_gather: unsafe fn(table: &[u32], steps: &[u32], v: &[f32], out: &mut [f32]),
}

/// Buckets per group of the sketch gather table — one zmm, or two ymm, of
/// `f32` counters advanced in lock-step.
pub const SKETCH_LANES: usize = 16;

/// Sketch gather table entry that extends a lane's chain past its last
/// coordinate; it gathers and adds nothing. No live entry can equal it: the
/// index field of a live entry is below `v.len() ≤ 0x7FFF_FFFF`.
pub const SKETCH_PAD: u32 = u32::MAX;

/// Width of group `g` of a sketch row with `buckets` buckets.
fn sketch_group_width(buckets: usize, g: usize) -> usize {
    (buckets - g * SKETCH_LANES).min(SKETCH_LANES)
}

/// Lanes per accumulator of [`Kernels::dot_tiles`].
const DOT_LANES: usize = 16;

/// Checks the shape half of the [`Kernels::dot_tiles`] contract.
#[allow(clippy::too_many_arguments)]
fn check_dot_tiles(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &[f32],
    ldo: usize,
) {
    assert!(
        m.is_multiple_of(2) && n.is_multiple_of(2),
        "dot_tiles: odd {m}×{n} block (ragged edges are the caller's)"
    );
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        k <= lda && (m - 1) * lda + k <= a.len(),
        "dot_tiles: A rows out of bounds"
    );
    assert!(
        k <= ldb && (n - 1) * ldb + k <= b.len(),
        "dot_tiles: B rows out of bounds"
    );
    assert!(
        n <= ldo && (m - 1) * ldo + n <= out.len(),
        "dot_tiles: output out of bounds"
    );
}

/// Up to `B` consecutive groups of a sketch row, which an arm advances in
/// lock-step. Each bucket lists its coordinates ascending, so at any step
/// the lanes of all groups read `v` near the same index: a block streams
/// `v` through L1 once, where a group-at-a-time walk streams it once per
/// group. `B` is set per arm by measurement — 4 for AVX-512, whose
/// counters still fit its register file; 1 for AVX2 and scalar, where a
/// wider block spilled the counters and measured slower.
struct SketchBlock<'a, const B: usize> {
    /// Group `k`'s step-major entries (`steps[k]·width(k)` of them).
    groups: [&'a [u32]; B],
    steps: [usize; B],
    /// Live groups in `groups` / `steps`.
    len: usize,
    /// The longest of `steps`.
    max_steps: usize,
    /// The block's counters: 16 per group, fewer in a ragged last group.
    out: &'a mut [f32],
}

impl<const B: usize> SketchBlock<'_, B> {
    /// Width of group `k` of the block.
    fn width(&self, k: usize) -> usize {
        sketch_group_width(self.out.len(), k)
    }
}

/// Checks the shape half of the [`Kernels::sketch_gather`] contract and
/// splits the row into blocks of `B` groups.
fn sketch_blocks<'a, const B: usize>(
    table: &'a [u32],
    steps: &'a [u32],
    out: &'a mut [f32],
) -> impl Iterator<Item = SketchBlock<'a, B>> {
    assert_eq!(
        steps.len(),
        out.len().div_ceil(SKETCH_LANES),
        "sketch_gather: group count mismatch"
    );
    let entries: usize = steps
        .iter()
        .enumerate()
        .map(|(g, &n)| n as usize * sketch_group_width(out.len(), g))
        .sum();
    assert_eq!(table.len(), entries, "sketch_gather: table length mismatch");
    let mut rest = table;
    out.chunks_mut(B * SKETCH_LANES)
        .zip(steps.chunks(B))
        .map(move |(out, block_steps)| {
            let mut block = SketchBlock {
                groups: [&[]; B],
                steps: [0; B],
                len: block_steps.len(),
                max_steps: 0,
                out,
            };
            for (k, &n) in block_steps.iter().enumerate() {
                let (group, tail) = rest.split_at(n as usize * block.width(k));
                rest = tail;
                block.groups[k] = group;
                block.steps[k] = n as usize;
                block.max_steps = block.max_steps.max(n as usize);
            }
            block
        })
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels")
            .field("isa", &self.isa)
            .field("mr", &self.mr)
            .field("nr", &self.nr)
            .finish()
    }
}

impl Kernels {
    /// The arm's `FDA_FORCE_KERNEL` name.
    pub fn name(&self) -> &'static str {
        self.isa.name()
    }
}

/// The table for `isa`, or `None` if the host cannot run it. This is the
/// only constructor-like gate: a `&Kernels` implies its ISA is supported.
pub fn table_for(isa: Isa) -> Option<&'static Kernels> {
    if !isa.supported() {
        return None;
    }
    Some(match isa {
        Isa::Scalar => &scalar::TABLE,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &x86::AVX2_TABLE,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &x86::AVX512_TABLE,
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar ISA reported supported off x86_64"),
    })
}

/// Every arm the running host supports, best first. Test suites iterate
/// this to exercise each arm in-process regardless of the dispatched
/// default.
pub fn all_supported() -> Vec<&'static Kernels> {
    Isa::ALL.iter().filter_map(|&i| table_for(i)).collect()
}

static DISPATCH: OnceLock<&'static Kernels> = OnceLock::new();

/// The process-wide kernel table (selected once, then cached).
///
/// Honors `FDA_FORCE_KERNEL=scalar|avx2|avx512`; panics if the forced arm
/// is unknown or unsupported on this host, so a mis-configured CI matrix
/// job fails loudly instead of silently testing the wrong arm.
pub fn kernels() -> &'static Kernels {
    DISPATCH.get_or_init(|| {
        if let Ok(name) = std::env::var("FDA_FORCE_KERNEL") {
            let isa = Isa::parse(&name).unwrap_or_else(|| {
                panic!(
                    "FDA_FORCE_KERNEL={name:?}: unknown kernel \
                     (expected scalar, avx2 or avx512)"
                )
            });
            return table_for(isa).unwrap_or_else(|| {
                panic!(
                    "FDA_FORCE_KERNEL={name}: this host does not support the \
                     {name} kernel arm"
                )
            });
        }
        Isa::ALL
            .iter()
            .find_map(|&i| table_for(i))
            .expect("scalar arm is always supported")
    })
}

// ---------------------------------------------------------------------------
// Scalar arm
// ---------------------------------------------------------------------------

/// Portable arm: no intrinsics, shaped so LLVM can autovectorize (constant
/// trip counts, contiguous slices, block accumulators). This is the
/// pre-dispatch behavior of the workspace, kept verbatim as the reference.
pub(crate) mod scalar {
    use super::{Isa, Kernels, DOT_LANES, SKETCH_LANES, SKETCH_PAD};

    /// Microkernel tile height.
    const MR: usize = 4;
    /// Microkernel tile width (16 f32 = two AVX2 / one AVX-512 vector).
    const NR: usize = 16;
    /// Accumulator block width of the reductions.
    const LANES: usize = 32;

    pub static TABLE: Kernels = Kernels {
        isa: Isa::Scalar,
        mr: MR,
        nr: NR,
        microkernel,
        mr_tall: MR,
        microkernel_tall: microkernel,
        dot_tiles,
        dot,
        sum,
        add_assign,
        scale,
        sketch_gather,
    };

    /// 4×16 register tile over packed strips; see the [`Kernels`] contract.
    ///
    /// # Safety
    /// Caller upholds the microkernel contract (strip/output bounds).
    #[allow(clippy::too_many_arguments)]
    unsafe fn microkernel(
        kc: usize,
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        debug_assert!(rows <= MR && cols <= NR && cols > 0);
        let mut acc = [[0.0f32; NR]; MR];
        if cols == NR {
            for p in 0..kc {
                let ar = std::slice::from_raw_parts(a.add(p * a_stride), MR);
                let br = std::slice::from_raw_parts(b.add(p * b_stride), NR);
                for r in 0..MR {
                    let av = ar[r];
                    for j in 0..NR {
                        acc[r][j] += av * br[j];
                    }
                }
            }
        } else {
            // Ragged-width tile: read exactly `cols` B elements per row.
            for p in 0..kc {
                let ar = std::slice::from_raw_parts(a.add(p * a_stride), MR);
                let br = std::slice::from_raw_parts(b.add(p * b_stride), cols);
                for r in 0..MR {
                    let av = ar[r];
                    for (j, &bv) in br.iter().enumerate() {
                        acc[r][j] += av * bv;
                    }
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate().take(rows) {
            let out = std::slice::from_raw_parts_mut(c.add(r * ldc), cols);
            for (o, v) in out.iter_mut().zip(acc_row) {
                *o += v;
            }
        }
    }

    /// [`Kernels::dot_tiles`] on a 2×2 tile of 16-lane accumulators, which
    /// LLVM lowers onto vector register pairs: four running sums share every
    /// A/B load, and a wider portable tile spills. Also the AVX2 arm's.
    #[allow(clippy::too_many_arguments)]
    pub fn dot_tiles(
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
        super::check_dot_tiles(m, n, k, a, lda, b, ldb, out, ldo);
        const L: usize = DOT_LANES;
        let k_main = k - k % L;
        for i in (0..m).step_by(2) {
            for j in (0..n).step_by(2) {
                let mut acc = [[[0.0f32; L]; 2]; 2];
                let mut p = 0;
                while p < k_main {
                    let a0: &[f32; L] = a[i * lda + p..][..L].try_into().unwrap();
                    let a1: &[f32; L] = a[(i + 1) * lda + p..][..L].try_into().unwrap();
                    let b0: &[f32; L] = b[j * ldb + p..][..L].try_into().unwrap();
                    let b1: &[f32; L] = b[(j + 1) * ldb + p..][..L].try_into().unwrap();
                    for l in 0..L {
                        acc[0][0][l] += a0[l] * b0[l];
                        acc[0][1][l] += a0[l] * b1[l];
                        acc[1][0][l] += a1[l] * b0[l];
                        acc[1][1][l] += a1[l] * b1[l];
                    }
                    p += L;
                }
                for (r, acc) in acc.iter().enumerate() {
                    for (c, acc) in acc.iter().enumerate() {
                        let mut s: f32 = acc.iter().sum();
                        for q in k_main..k {
                            s += a[(i + r) * lda + q] * b[(j + c) * ldb + q];
                        }
                        out[(i + r) * ldo + j + c] += s;
                    }
                }
            }
        }
    }

    /// Dot product with a 32-lane accumulator block (hides the FMA latency
    /// chain; LLVM maps the block onto a vector register group).
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot: length mismatch");
        let mut acc = [0.0f32; LANES];
        let mut ai = a.chunks_exact(LANES);
        let mut bi = b.chunks_exact(LANES);
        for (ca, cb) in (&mut ai).zip(&mut bi) {
            for l in 0..LANES {
                acc[l] += ca[l] * cb[l];
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in ai.remainder().iter().zip(bi.remainder()) {
            tail += x * y;
        }
        acc.iter().sum::<f32>() + tail
    }

    /// Sum with a 32-lane accumulator block.
    pub fn sum(a: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut it = a.chunks_exact(LANES);
        for chunk in &mut it {
            for l in 0..LANES {
                acc[l] += chunk[l];
            }
        }
        let tail: f32 = it.remainder().iter().sum();
        acc.iter().sum::<f32>() + tail
    }

    /// `a ← a + b` (element-wise, no reassociation).
    pub fn add_assign(a: &mut [f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "add_assign: length mismatch");
        for i in 0..a.len() {
            a[i] += b[i];
        }
    }

    /// `a ← α·a`.
    pub fn scale(a: &mut [f32], alpha: f32) {
        for v in a.iter_mut() {
            *v *= alpha;
        }
    }

    /// The sketch gather as a plain walk: 16 per-bucket chains advanced in
    /// lock-step, branch-free so the compiler may vectorise it. Every read
    /// of `v` is clamped into bounds, so a table that breaks the
    /// [`Kernels::sketch_gather`] contract yields wrong counters here,
    /// never an out-of-bounds read.
    pub fn sketch_gather(table: &[u32], steps: &[u32], v: &[f32], out: &mut [f32]) {
        const B: usize = 1;
        for block in super::sketch_blocks::<B>(table, steps, out) {
            let Some(last) = v.len().checked_sub(1) else {
                // No entry can be live: every counter stays `+0.0`.
                block.out.fill(0.0);
                continue;
            };
            let mut acc = [[0.0f32; SKETCH_LANES]; B];
            for s in 0..block.max_steps {
                for (k, acc) in acc.iter_mut().enumerate().take(block.len) {
                    if s >= block.steps[k] {
                        continue;
                    }
                    let w = block.width(k);
                    let step = &block.groups[k][s * w..(s + 1) * w];
                    match <&[u32; SKETCH_LANES]>::try_from(step) {
                        Ok(step) => {
                            for j in 0..SKETCH_LANES {
                                add_lane(&mut acc[j], step[j], v, last);
                            }
                        }
                        Err(_) => {
                            for (a, &e) in acc.iter_mut().zip(step) {
                                add_lane(a, e, v, last);
                            }
                        }
                    }
                }
            }
            for (counters, acc) in block.out.chunks_mut(SKETCH_LANES).zip(&acc) {
                counters.copy_from_slice(&acc[..counters.len()]);
            }
        }
    }

    /// One lane of one gather step. A pad lane adds `-0.0`, the exact
    /// identity of f32 addition, so its counter keeps its bits; selecting
    /// instead of branching keeps the pads at the chains' ragged ends
    /// from mispredicting.
    #[inline(always)]
    fn add_lane(acc: &mut f32, e: u32, v: &[f32], last: usize) {
        let x = v[((e & 0x7FFF_FFFF) as usize).min(last)];
        let x = f32::from_bits(x.to_bits() ^ (e & 0x8000_0000));
        *acc += if e == SKETCH_PAD { -0.0 } else { x };
    }
}

// ---------------------------------------------------------------------------
// x86-64 intrinsics arms
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2+FMA and AVX-512F arms.
    //!
    //! Each leaf is a `#[target_feature]` function. The leaves over slices
    //! and values are safe functions; the tables' closures call them in an
    //! `unsafe` block whose proof is the runtime feature detection that
    //! gates every table (see [`super::table_for`]). Slices reach the
    //! intrinsics only through the per-arm load and store helpers
    //! ([`load16`], [`load8`] and their kin), whose `&[f32; N]` argument or
    //! lane mask is the bounds check.
    //!
    //! All loads are `loadu`: the packed GEMM panels are 64-byte aligned at
    //! the base (see `alloc::AlignedBuf`), but ragged `kc` panels and
    //! streamed-B tiles are not, and on every AVX-512 core `loadu` on data
    //! that *happens* to be aligned costs the same as an aligned load —
    //! without faulting on the tiles that are not.

    use super::{Isa, Kernels, DOT_LANES, SKETCH_LANES, SKETCH_PAD};
    use std::arch::x86_64::*;

    // -- AVX-512 ----------------------------------------------------------

    /// AVX-512 microkernel height.
    const MR_512: usize = 8;
    /// AVX-512 microkernel width (two zmm per accumulator row).
    const NR_512: usize = 32;
    /// AVX-512 tall-tile height: LeNet conv2's 12 output channels in one
    /// pass instead of a full and a half-empty 8-row pass.
    const MR_TALL_512: usize = 12;

    pub(super) static AVX512_TABLE: Kernels = Kernels {
        isa: Isa::Avx512,
        mr: MR_512,
        nr: NR_512,
        microkernel: microkernel_avx512::<MR_512>,
        mr_tall: MR_TALL_512,
        microkernel_tall: microkernel_avx512::<MR_TALL_512>,
        // SAFETY: this table is handed out only on AVX-512F hosts (see the
        // module docs), which is the leaf's one requirement.
        dot_tiles: |m, n, k, a, lda, b, ldb, out, ldo| unsafe {
            dot_tiles_avx512(m, n, k, a, lda, b, ldb, out, ldo)
        },
        // SAFETY: as above.
        dot: |a, b| unsafe { dot_avx512(a, b) },
        // SAFETY: as above.
        sum: |a| unsafe { sum_avx512(a) },
        // SAFETY: as above.
        add_assign: |a, b| unsafe { add_assign_avx512(a, b) },
        // SAFETY: as above.
        scale: |a, alpha| unsafe { scale_avx512(a, alpha) },
        sketch_gather: sketch_gather_avx512,
    };

    /// `MR`×32 FMA register tile: `2·MR` zmm accumulators + 2 B vectors +
    /// 1 broadcast stay within the 32-register file (19 registers at the
    /// 8-row height, 27 at the 12-row tall height). B rows are prefetched
    /// a few panel rows ahead — the packed panel walk is perfectly
    /// sequential, so a short prefetch distance suffices to hide L2
    /// latency.
    ///
    /// # Safety
    /// Caller upholds the microkernel contract for an `MR`-row tile; host
    /// supports AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn microkernel_avx512<const MR: usize>(
        kc: usize,
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        debug_assert!(rows <= MR && cols <= NR_512 && cols > 0);
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        if cols == NR_512 {
            // Full-width tile: unmasked B loads.
            for p in 0..kc {
                let bp = b.add(p * b_stride);
                // Prefetch B 4 panel rows ahead (wrapping_add: the address
                // may run past the strip, which prefetch tolerates but
                // pointer arithmetic must not assume in-bounds).
                _mm_prefetch::<_MM_HINT_T0>(bp.wrapping_add(4 * b_stride) as *const i8);
                let b0 = _mm512_loadu_ps(bp);
                let b1 = _mm512_loadu_ps(bp.add(16));
                let ap = a.add(p * a_stride);
                for (r, acc) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add(r));
                    acc[0] = _mm512_fmadd_ps(av, b0, acc[0]);
                    acc[1] = _mm512_fmadd_ps(av, b1, acc[1]);
                }
            }
        } else {
            // Ragged-width tile: masked B loads read exactly `cols`
            // elements per row (zero-filling the dead lanes), so callers
            // may offer column tails without padding.
            let (m0, m1) = col_masks16(cols);
            for p in 0..kc {
                let bp = b.add(p * b_stride);
                let b0 = _mm512_maskz_loadu_ps(m0, bp);
                let b1 = if m1 != 0 {
                    _mm512_maskz_loadu_ps(m1, bp.add(16))
                } else {
                    _mm512_setzero_ps()
                };
                let ap = a.add(p * a_stride);
                for (r, acc) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add(r));
                    acc[0] = _mm512_fmadd_ps(av, b0, acc[0]);
                    acc[1] = _mm512_fmadd_ps(av, b1, acc[1]);
                }
            }
        }
        if cols == NR_512 {
            for (r, acc) in acc.iter().enumerate().take(rows) {
                let cp = c.add(r * ldc);
                _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), acc[0]));
                let cp1 = cp.add(16);
                _mm512_storeu_ps(cp1, _mm512_add_ps(_mm512_loadu_ps(cp1), acc[1]));
            }
        } else {
            // Masked read-modify-write touches exactly `cols` outputs per
            // row — no scalar spill.
            let (m0, m1) = col_masks16(cols);
            for (r, acc) in acc.iter().enumerate().take(rows) {
                let cp = c.add(r * ldc);
                let sum0 = _mm512_add_ps(_mm512_maskz_loadu_ps(m0, cp), acc[0]);
                _mm512_mask_storeu_ps(cp, m0, sum0);
                if m1 != 0 {
                    let cp1 = cp.add(16);
                    let sum1 = _mm512_add_ps(_mm512_maskz_loadu_ps(m1, cp1), acc[1]);
                    _mm512_mask_storeu_ps(cp1, m1, sum1);
                }
            }
        }
    }

    /// [`Kernels::dot_tiles`] on 4×4 tiles of zmm accumulators: 8 loads
    /// feed 16 accumulators per 16-lane step, where the portable 2×2 tile
    /// spends 4 loads on 4. Each accumulator is one element's 16 lanes, so
    /// `vmulps` + `vaddps` per lane is the portable arm's arithmetic and
    /// the tile shape only decides which loads are shared. A block side
    /// that is not a multiple of 4 ends on a 2-wide strip.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    fn dot_tiles_avx512(
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
        super::check_dot_tiles(m, n, k, a, lda, b, ldb, out, ldo);
        let mut i = 0;
        while i < m {
            let rows = if m - i >= 4 { 4 } else { 2 };
            let mut j = 0;
            while j < n {
                let cols = if n - j >= 4 { 4 } else { 2 };
                let (a, b, out) = (&a[i * lda..], &b[j * ldb..], &mut out[i * ldo + j..]);
                match (rows, cols) {
                    (4, 4) => dot_tile_avx512::<4, 4>(k, a, lda, b, ldb, out, ldo),
                    (4, _) => dot_tile_avx512::<4, 2>(k, a, lda, b, ldb, out, ldo),
                    (_, 4) => dot_tile_avx512::<2, 4>(k, a, lda, b, ldb, out, ldo),
                    _ => dot_tile_avx512::<2, 2>(k, a, lda, b, ldb, out, ldo),
                }
                j += cols;
            }
            i += rows;
        }
    }

    /// One `R × C` tile of [`dot_tiles_avx512`]: rows `0..R` of `a` and
    /// `0..C` of `b` (strides `lda` / `ldb`, `k` floats each) into
    /// `out[r·ldo + c]`. Every slice is cut to its exact length before the
    /// `k` loop, so the loop's indexing needs no bounds checks; a row or an
    /// output element outside its slice panics first.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn dot_tile_avx512<const R: usize, const C: usize>(
        k: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldo: usize,
    ) {
        let a: [&[f32]; R] = std::array::from_fn(|r| &a[r * lda..][..k]);
        let b: [&[f32]; C] = std::array::from_fn(|c| &b[c * ldb..][..k]);
        let steps = k / DOT_LANES;
        let a16 = a.map(|row| &row.as_chunks::<DOT_LANES>().0[..steps]);
        let b16 = b.map(|row| &row.as_chunks::<DOT_LANES>().0[..steps]);
        let mut acc = [[_mm512_setzero_ps(); C]; R];
        let mut av = [_mm512_setzero_ps(); R];
        let mut bv = [_mm512_setzero_ps(); C];
        for p in 0..steps {
            for (v, row) in av.iter_mut().zip(&a16) {
                *v = load16(&row[p]);
            }
            for (v, row) in bv.iter_mut().zip(&b16) {
                *v = load16(&row[p]);
            }
            for (acc, &a) in acc.iter_mut().zip(&av) {
                for (acc, &b) in acc.iter_mut().zip(&bv) {
                    *acc = _mm512_add_ps(*acc, _mm512_mul_ps(a, b));
                }
            }
        }
        let k_main = steps * DOT_LANES;
        for (r, acc) in acc.iter().enumerate() {
            for (c, &acc) in acc.iter().enumerate() {
                let mut lanes = [0.0f32; DOT_LANES];
                store16(&mut lanes, acc);
                let mut s: f32 = lanes.iter().sum();
                for (x, y) in a[r][k_main..].iter().zip(&b[c][k_main..]) {
                    s += x * y;
                }
                out[r * ldo + c] += s;
            }
        }
    }

    /// Lane masks for a `cols ≤ 32` wide tile: low vector, high vector.
    #[inline]
    fn col_masks16(cols: usize) -> (__mmask16, __mmask16) {
        debug_assert!(cols <= 32);
        if cols >= 16 {
            (
                0xFFFF,
                if cols == 32 {
                    0xFFFF
                } else {
                    (1u16 << (cols - 16)) - 1
                },
            )
        } else {
            ((1u16 << cols) - 1, 0)
        }
    }

    /// Mask of the low `min(n, 16)` lanes.
    #[inline]
    fn tail_mask16(n: usize) -> __mmask16 {
        ((1u32 << n.min(16)) - 1) as __mmask16
    }

    /// One zmm from 16 floats.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load16(a: &[f32; 16]) -> __m512 {
        // SAFETY: `a` is 16 readable floats.
        unsafe { _mm512_loadu_ps(a.as_ptr()) }
    }

    /// Stores one zmm into 16 floats.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store16(a: &mut [f32; 16], v: __m512) {
        // SAFETY: `a` is 16 writable floats.
        unsafe { _mm512_storeu_ps(a.as_mut_ptr(), v) }
    }

    /// The first `min(a.len(), 16)` floats of `a` in the low lanes, zeros
    /// above.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_tail16(a: &[f32]) -> __m512 {
        // SAFETY: the mask enables only lanes below `a.len()`; a masked-off
        // lane is neither read nor able to fault.
        unsafe { _mm512_maskz_loadu_ps(tail_mask16(a.len()), a.as_ptr()) }
    }

    /// Stores the low `min(a.len(), 16)` lanes of `v` into `a`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store_tail16(a: &mut [f32], v: __m512) {
        // SAFETY: the mask enables only lanes below `a.len()`; a masked-off
        // lane is not written.
        unsafe { _mm512_mask_storeu_ps(a.as_mut_ptr(), tail_mask16(a.len()), v) }
    }

    /// Horizontal sum of one zmm as a halving tree: lane `i` plus lane
    /// `i + 8`, then [`hsum256`]'s tree. This is the tree of
    /// `_mm512_reduce_add_ps`, written out so the arm's bits do not depend
    /// on how the intrinsic is implemented.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn hsum512(v: __m512) -> f32 {
        let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
        hsum256(_mm256_add_ps(_mm512_castps512_ps256(v), hi))
    }

    /// Dot product: 4×16-lane FMA accumulators, masked tail.
    #[target_feature(enable = "avx512f")]
    fn dot_avx512(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot: length mismatch");
        let (a64, a_rest) = a.as_chunks::<64>();
        let (b64, b_rest) = b.as_chunks::<64>();
        let mut acc = [_mm512_setzero_ps(); 4];
        for (a, b) in a64.iter().zip(b64) {
            let (a, b) = (a.as_chunks::<16>().0, b.as_chunks::<16>().0);
            for (acc, (a, b)) in acc.iter_mut().zip(a.iter().zip(b)) {
                *acc = _mm512_fmadd_ps(load16(a), load16(b), *acc);
            }
        }
        let (a16, a_tail) = a_rest.as_chunks::<16>();
        let (b16, b_tail) = b_rest.as_chunks::<16>();
        for (a, b) in a16.iter().zip(b16) {
            acc[0] = _mm512_fmadd_ps(load16(a), load16(b), acc[0]);
        }
        if !a_tail.is_empty() {
            acc[1] = _mm512_fmadd_ps(load_tail16(a_tail), load_tail16(b_tail), acc[1]);
        }
        let [a0, a1, a2, a3] = acc;
        hsum512(_mm512_add_ps(_mm512_add_ps(a0, a1), _mm512_add_ps(a2, a3)))
    }

    /// Sum: 4×16-lane accumulators, masked tail.
    #[target_feature(enable = "avx512f")]
    fn sum_avx512(a: &[f32]) -> f32 {
        let (a64, rest) = a.as_chunks::<64>();
        let mut acc = [_mm512_setzero_ps(); 4];
        for a in a64 {
            for (acc, a) in acc.iter_mut().zip(a.as_chunks::<16>().0) {
                *acc = _mm512_add_ps(*acc, load16(a));
            }
        }
        let (a16, tail) = rest.as_chunks::<16>();
        for a in a16 {
            acc[0] = _mm512_add_ps(acc[0], load16(a));
        }
        if !tail.is_empty() {
            acc[1] = _mm512_add_ps(acc[1], load_tail16(tail));
        }
        let [a0, a1, a2, a3] = acc;
        hsum512(_mm512_add_ps(_mm512_add_ps(a0, a1), _mm512_add_ps(a2, a3)))
    }

    /// `a ← a + b`, element-wise (bit-identical to the scalar arm).
    #[target_feature(enable = "avx512f")]
    fn add_assign_avx512(a: &mut [f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "add_assign: length mismatch");
        let (a16, a_tail) = a.as_chunks_mut::<16>();
        let (b16, b_tail) = b.as_chunks::<16>();
        for (a, b) in a16.iter_mut().zip(b16) {
            store16(a, _mm512_add_ps(load16(a), load16(b)));
        }
        if !a_tail.is_empty() {
            let sum = _mm512_add_ps(load_tail16(a_tail), load_tail16(b_tail));
            store_tail16(a_tail, sum);
        }
    }

    /// `a ← α·a`, element-wise (bit-identical to the scalar arm).
    #[target_feature(enable = "avx512f")]
    fn scale_avx512(a: &mut [f32], alpha: f32) {
        let av = _mm512_set1_ps(alpha);
        let (a16, tail) = a.as_chunks_mut::<16>();
        for a in a16 {
            store16(a, _mm512_mul_ps(av, load16(a)));
        }
        if !tail.is_empty() {
            store_tail16(tail, _mm512_mul_ps(av, load_tail16(tail)));
        }
    }

    /// The sketch gather: per step, one masked 16-lane gather and one
    /// masked add. A ragged last group loads its `w` entries with the
    /// missing lanes filled by [`SKETCH_PAD`] and stores `w` counters.
    ///
    /// # Safety
    /// Host supports AVX-512F; the caller upholds the
    /// [`Kernels::sketch_gather`] contract.
    #[target_feature(enable = "avx512f")]
    unsafe fn sketch_gather_avx512(table: &[u32], steps: &[u32], v: &[f32], out: &mut [f32]) {
        const B: usize = 4;
        let vp = v.as_ptr();
        let pad = _mm512_set1_epi32(SKETCH_PAD as i32);
        for block in super::sketch_blocks::<B>(table, steps, out) {
            let mut acc = [_mm512_setzero_ps(); B];
            for s in 0..block.max_steps {
                for (k, acc) in acc.iter_mut().enumerate().take(block.len) {
                    if s >= block.steps[k] {
                        continue;
                    }
                    let w = block.width(k);
                    // SAFETY: group `k` holds `steps[k]·w` entries and
                    // `s < steps[k]`; a ragged group's mask reads exactly
                    // its `w` entries and fills the other lanes with pads.
                    let gp = block.groups[k].as_ptr().add(s * w) as *const i32;
                    let e = if w == SKETCH_LANES {
                        _mm512_loadu_epi32(gp)
                    } else {
                        _mm512_mask_loadu_epi32(pad, tail_mask16(w), gp)
                    };
                    *acc = sketch_step_avx512(*acc, e, vp);
                }
            }
            for (counters, acc) in block.out.chunks_mut(SKETCH_LANES).zip(&acc) {
                let m = !0u16 >> (SKETCH_LANES - counters.len());
                // SAFETY: the mask writes exactly the counters of
                // `counters`.
                _mm512_mask_storeu_ps(counters.as_mut_ptr(), m, *acc);
            }
        }
    }

    /// One gather step of 16 bucket chains: live lanes add `±v[index]` to
    /// their counter, pad lanes neither load nor add.
    ///
    /// # Safety
    /// Host supports AVX-512F; every live entry of `e` indexes inside the
    /// slice `vp` points into.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn sketch_step_avx512(acc: __m512, e: __m512i, vp: *const f32) -> __m512 {
        let live = _mm512_cmpneq_epi32_mask(e, _mm512_set1_epi32(SKETCH_PAD as i32));
        let idx = _mm512_and_si512(e, _mm512_set1_epi32(0x7FFF_FFFF));
        // SAFETY: only `live` lanes are read, and the caller guarantees
        // their indices are in bounds.
        let x =
            _mm512_mask_i32gather_epi32::<4>(_mm512_setzero_si512(), live, idx, vp as *const i32);
        let x = _mm512_xor_si512(x, _mm512_and_si512(e, _mm512_set1_epi32(i32::MIN)));
        _mm512_mask_add_ps(acc, live, acc, _mm512_castsi512_ps(x))
    }

    // -- AVX2 + FMA -------------------------------------------------------

    /// AVX2 microkernel height.
    const MR_256: usize = 6;
    /// AVX2 microkernel width (two ymm per accumulator row).
    const NR_256: usize = 16;

    pub(super) static AVX2_TABLE: Kernels = Kernels {
        isa: Isa::Avx2,
        mr: MR_256,
        nr: NR_256,
        microkernel: microkernel_avx2,
        mr_tall: MR_256,
        microkernel_tall: microkernel_avx2,
        dot_tiles: super::scalar::dot_tiles,
        // SAFETY: this table is handed out only on AVX2+FMA hosts (see the
        // module docs), which is the leaf's one requirement.
        dot: |a, b| unsafe { dot_avx2(a, b) },
        // SAFETY: as above.
        sum: |a| unsafe { sum_avx2(a) },
        // SAFETY: as above.
        add_assign: |a, b| unsafe { add_assign_avx2(a, b) },
        // SAFETY: as above.
        scale: |a, alpha| unsafe { scale_avx2(a, alpha) },
        sketch_gather: sketch_gather_avx2,
    };

    /// Horizontal sum of one ymm as a halving tree — lane `i` plus lane
    /// `i + 4`, then `i + 2`, then the last pair — the second half of
    /// [`hsum512`]'s tree.
    #[inline]
    #[target_feature(enable = "avx")]
    fn hsum256(v: __m256) -> f32 {
        let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
        _mm_cvtss_f32(s)
    }

    /// One ymm from 8 floats.
    #[inline]
    #[target_feature(enable = "avx")]
    fn load8(a: &[f32; 8]) -> __m256 {
        // SAFETY: `a` is 8 readable floats.
        unsafe { _mm256_loadu_ps(a.as_ptr()) }
    }

    /// Stores one ymm into 8 floats.
    #[inline]
    #[target_feature(enable = "avx")]
    fn store8(a: &mut [f32; 8], v: __m256) {
        // SAFETY: `a` is 8 writable floats.
        unsafe { _mm256_storeu_ps(a.as_mut_ptr(), v) }
    }

    /// 6×16 FMA register tile: 12 ymm accumulators + 2 B vectors + 1
    /// broadcast within the 16-register file — the classic AVX2 GEMM
    /// shape.
    ///
    /// # Safety
    /// Caller upholds the microkernel contract; host supports AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn microkernel_avx2(
        kc: usize,
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        debug_assert!(rows <= MR_256 && cols <= NR_256 && cols > 0);
        let mut acc = [_mm256_setzero_ps(); 12];
        if cols == NR_256 {
            for p in 0..kc {
                let bp = b.add(p * b_stride);
                _mm_prefetch::<_MM_HINT_T0>(bp.wrapping_add(4 * b_stride) as *const i8);
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                let ap = a.add(p * a_stride);
                for r in 0..MR_256 {
                    let av = _mm256_set1_ps(*ap.add(r));
                    acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                    acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                }
            }
        } else {
            // Ragged-width tile: AVX maskload reads exactly `cols`
            // elements per row, so callers may offer column tails without
            // padding.
            let (m0, m1) = col_masks8(cols);
            for p in 0..kc {
                let bp = b.add(p * b_stride);
                let b0 = _mm256_maskload_ps(bp, m0);
                let b1 = if cols > 8 {
                    _mm256_maskload_ps(bp.add(8), m1)
                } else {
                    _mm256_setzero_ps()
                };
                let ap = a.add(p * a_stride);
                for r in 0..MR_256 {
                    let av = _mm256_set1_ps(*ap.add(r));
                    acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                    acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                }
            }
        }
        if cols == NR_256 {
            for r in 0..rows {
                let cp = c.add(r * ldc);
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), acc[2 * r]));
                let cp1 = cp.add(8);
                _mm256_storeu_ps(cp1, _mm256_add_ps(_mm256_loadu_ps(cp1), acc[2 * r + 1]));
            }
        } else {
            let (m0, m1) = col_masks8(cols);
            for r in 0..rows {
                let cp = c.add(r * ldc);
                let sum0 = _mm256_add_ps(_mm256_maskload_ps(cp, m0), acc[2 * r]);
                _mm256_maskstore_ps(cp, m0, sum0);
                if cols > 8 {
                    let cp1 = cp.add(8);
                    let sum1 = _mm256_add_ps(_mm256_maskload_ps(cp1, m1), acc[2 * r + 1]);
                    _mm256_maskstore_ps(cp1, m1, sum1);
                }
            }
        }
    }

    /// Per-lane maskload masks for a `cols ≤ 16` wide tile: low vector,
    /// high vector (a lane participates iff its sign bit is set, so lane
    /// `l` of the low vector is all-ones iff `l < min(cols, 8)`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn col_masks8(cols: usize) -> (__m256i, __m256i) {
        debug_assert!(cols <= 16);
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let lo = cols.min(8);
        let hi = cols.min(16) - lo;
        (
            _mm256_cmpgt_epi32(_mm256_set1_epi32(lo as i32), lane),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(hi as i32), lane),
        )
    }

    /// Dot product: 4×8-lane FMA accumulators, scalar tail.
    #[target_feature(enable = "avx2,fma")]
    fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot: length mismatch");
        let (a32, a_rest) = a.as_chunks::<32>();
        let (b32, b_rest) = b.as_chunks::<32>();
        let mut acc = [_mm256_setzero_ps(); 4];
        for (a, b) in a32.iter().zip(b32) {
            let (a, b) = (a.as_chunks::<8>().0, b.as_chunks::<8>().0);
            for (acc, (a, b)) in acc.iter_mut().zip(a.iter().zip(b)) {
                *acc = _mm256_fmadd_ps(load8(a), load8(b), *acc);
            }
        }
        let (a8, a_tail) = a_rest.as_chunks::<8>();
        let (b8, b_tail) = b_rest.as_chunks::<8>();
        for (a, b) in a8.iter().zip(b8) {
            acc[0] = _mm256_fmadd_ps(load8(a), load8(b), acc[0]);
        }
        let mut tail = 0.0f32;
        for (x, y) in a_tail.iter().zip(b_tail) {
            tail += x * y;
        }
        let [a0, a1, a2, a3] = acc;
        hsum256(_mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3))) + tail
    }

    /// Sum: 4×8-lane accumulators, scalar tail.
    #[target_feature(enable = "avx2,fma")]
    fn sum_avx2(a: &[f32]) -> f32 {
        let (a32, rest) = a.as_chunks::<32>();
        let mut acc = [_mm256_setzero_ps(); 4];
        for a in a32 {
            for (acc, a) in acc.iter_mut().zip(a.as_chunks::<8>().0) {
                *acc = _mm256_add_ps(*acc, load8(a));
            }
        }
        let (a8, tail) = rest.as_chunks::<8>();
        for a in a8 {
            acc[0] = _mm256_add_ps(acc[0], load8(a));
        }
        let mut t = 0.0f32;
        for x in tail {
            t += x;
        }
        let [a0, a1, a2, a3] = acc;
        hsum256(_mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3))) + t
    }

    /// `a ← a + b`, element-wise (bit-identical to the scalar arm).
    #[target_feature(enable = "avx2,fma")]
    fn add_assign_avx2(a: &mut [f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "add_assign: length mismatch");
        let (a8, a_tail) = a.as_chunks_mut::<8>();
        let (b8, b_tail) = b.as_chunks::<8>();
        for (a, b) in a8.iter_mut().zip(b8) {
            store8(a, _mm256_add_ps(load8(a), load8(b)));
        }
        for (x, y) in a_tail.iter_mut().zip(b_tail) {
            *x += y;
        }
    }

    /// `a ← α·a`, element-wise (bit-identical to the scalar arm).
    #[target_feature(enable = "avx2,fma")]
    fn scale_avx2(a: &mut [f32], alpha: f32) {
        let av = _mm256_set1_ps(alpha);
        let (a8, tail) = a.as_chunks_mut::<8>();
        for a in a8 {
            store8(a, _mm256_mul_ps(av, load8(a)));
        }
        for x in tail {
            *x *= alpha;
        }
    }

    /// The sketch gather: per step, two 8-lane masked gathers and two
    /// adds. A ragged group is staged one step at a time into a
    /// pad-filled 16-entry block, and every group's counters leave through
    /// a stack copy.
    ///
    /// # Safety
    /// Host supports AVX2; the caller upholds the [`Kernels::sketch_gather`]
    /// contract.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sketch_gather_avx2(table: &[u32], steps: &[u32], v: &[f32], out: &mut [f32]) {
        const B: usize = 1;
        let vp = v.as_ptr();
        let mut staged = [SKETCH_PAD; SKETCH_LANES];
        for block in super::sketch_blocks::<B>(table, steps, out) {
            let mut acc = [[_mm256_setzero_ps(); 2]; B];
            for s in 0..block.max_steps {
                for (k, [lo, hi]) in acc.iter_mut().enumerate().take(block.len) {
                    if s >= block.steps[k] {
                        continue;
                    }
                    let w = block.width(k);
                    let step = &block.groups[k][s * w..(s + 1) * w];
                    let ep = if w == SKETCH_LANES {
                        step.as_ptr()
                    } else {
                        staged[..w].copy_from_slice(step);
                        staged.as_ptr()
                    };
                    // SAFETY: `ep` points at 16 readable entries (a full
                    // step, or the staged block).
                    *lo = sketch_step_avx2(*lo, _mm256_loadu_si256(ep as *const __m256i), vp);
                    *hi =
                        sketch_step_avx2(*hi, _mm256_loadu_si256(ep.add(8) as *const __m256i), vp);
                }
            }
            for (counters, [lo, hi]) in block.out.chunks_mut(SKETCH_LANES).zip(&acc) {
                let mut lanes = [0.0f32; SKETCH_LANES];
                // SAFETY: `lanes` is 16 counters wide.
                _mm256_storeu_ps(lanes.as_mut_ptr(), *lo);
                _mm256_storeu_ps(lanes.as_mut_ptr().add(8), *hi);
                counters.copy_from_slice(&lanes[..counters.len()]);
            }
        }
    }

    /// One gather step of 8 bucket chains: live lanes add `±v[index]` to
    /// their counter. A pad lane loads nothing and keeps the gather's
    /// `0.0`, which the pad's sign bit turns into `-0.0` — the exact
    /// identity of f32 addition — so its counter keeps its bits without a
    /// blend.
    ///
    /// # Safety
    /// Host supports AVX2; every live entry of `e` indexes inside the slice
    /// `vp` points into.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sketch_step_avx2(acc: __m256, e: __m256i, vp: *const f32) -> __m256 {
        let pad = _mm256_cmpeq_epi32(e, _mm256_set1_epi32(SKETCH_PAD as i32));
        let live = _mm256_castsi256_ps(_mm256_xor_si256(pad, _mm256_set1_epi32(-1)));
        let idx = _mm256_and_si256(e, _mm256_set1_epi32(0x7FFF_FFFF));
        // SAFETY: only `live` lanes are read, and the caller guarantees
        // their indices are in bounds.
        let x = _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), vp, idx, live);
        let sign = _mm256_castsi256_ps(_mm256_and_si256(e, _mm256_set1_epi32(i32::MIN)));
        _mm256_add_ps(acc, _mm256_xor_ps(x, sign))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_vec(rng: &mut Rng, n: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; n];
        rng.fill_normal(&mut v, 0.0, 1.0);
        v
    }

    /// Lengths straddling every block/lane boundary of every arm.
    const LENS: [usize; 12] = [0, 1, 7, 8, 15, 16, 17, 31, 32, 63, 64, 257];

    #[test]
    fn scalar_arm_always_listed() {
        let arms = all_supported();
        assert!(arms.iter().any(|k| k.isa == Isa::Scalar));
        if std::env::var("FDA_FORCE_KERNEL").is_err() {
            // Best-first: the dispatched default is the first entry.
            assert_eq!(arms[0].isa, kernels().isa);
        } else {
            // A forced arm must be one the host supports (dispatch would
            // have panicked otherwise).
            assert!(arms.iter().any(|k| k.isa == kernels().isa));
        }
    }

    #[test]
    fn isa_parse_round_trips() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("sse9"), None);
    }

    #[test]
    fn table_for_unsupported_is_none_or_consistent() {
        for isa in Isa::ALL {
            assert_eq!(table_for(isa).is_some(), isa.supported());
            if let Some(t) = table_for(isa) {
                assert_eq!(t.isa, isa);
            }
        }
    }

    /// Every supported arm's reductions agree with the scalar reference
    /// within f64-accumulator tolerance, on lengths straddling all lane
    /// boundaries.
    #[test]
    fn reductions_match_f64_reference_on_every_arm() {
        let mut rng = Rng::new(0x51D);
        for &n in &LENS {
            let a = random_vec(&mut rng, n);
            let b = random_vec(&mut rng, n);
            let dot64: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let sum64: f64 = a.iter().map(|&x| x as f64).sum();
            let tol = 1e-5 * (1.0 + n as f64).sqrt();
            for k in all_supported() {
                let name = k.name();
                let d = (k.dot)(&a, &b) as f64;
                assert!(
                    (d - dot64).abs() <= tol * (1.0 + dot64.abs()),
                    "{name} dot n={n}: {d} vs {dot64}"
                );
                let s = (k.sum)(&a) as f64;
                assert!(
                    (s - sum64).abs() <= tol * (1.0 + sum64.abs()),
                    "{name} sum n={n}: {s} vs {sum64}"
                );
            }
        }
    }

    /// add_assign and scale are element-wise with no reassociation, so all
    /// arms must agree with the scalar arm bit-for-bit, on every length.
    #[test]
    fn elementwise_ops_bit_identical_across_arms() {
        let mut rng = Rng::new(0xB17);
        let scalar = table_for(Isa::Scalar).unwrap();
        for &n in &LENS {
            let a0 = random_vec(&mut rng, n);
            let b = random_vec(&mut rng, n);
            let mut want_add = a0.clone();
            (scalar.add_assign)(&mut want_add, &b);
            let mut want_scale = a0.clone();
            (scalar.scale)(&mut want_scale, 0.816);
            for k in all_supported() {
                let mut got = a0.clone();
                (k.add_assign)(&mut got, &b);
                for (g, w) in got.iter().zip(&want_add) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{} add_assign n={n}", k.name());
                }
                let mut got = a0.clone();
                (k.scale)(&mut got, 0.816);
                for (g, w) in got.iter().zip(&want_scale) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{} scale n={n}", k.name());
                }
            }
        }
    }

    /// Every arm's sketch gather is bit-identical to a per-bucket fold of
    /// the table written from the contract, on random tables with pad
    /// entries anywhere in a chain, ragged last groups, empty groups, and
    /// inputs carrying signed zeros, subnormals, infinities and NaNs.
    #[test]
    fn sketch_gather_bit_identical_across_arms() {
        let mut rng = Rng::new(0x5E7C);
        let mut v = random_vec(&mut rng, 40);
        v.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1e-45, -1e-40]);
        v.extend([f32::from_bits(0x7FC0_0001), f32::from_bits(0xFFC0_0ABC)]);
        for buckets in [1usize, 7, 15, 16, 17, 32, 33, 50, 100, 250] {
            let groups = buckets.div_ceil(SKETCH_LANES);
            let steps: Vec<u32> = (0..groups).map(|_| (rng.next_u64() % 6) as u32).collect();
            let len = (0..groups)
                .map(|g| steps[g] as usize * sketch_group_width(buckets, g))
                .sum();
            let table: Vec<u32> = (0..len)
                .map(|_| match rng.next_u64() % 5 {
                    0 => SKETCH_PAD,
                    r => (rng.next_u64() % v.len() as u64) as u32 | ((r as u32 & 1) << 31),
                })
                .collect();
            let mut want = vec![0.0f32; buckets];
            let mut off = 0;
            for (g, &n) in steps.iter().enumerate() {
                let w = sketch_group_width(buckets, g);
                for j in 0..w {
                    let mut acc = 0.0f32;
                    for s in 0..n as usize {
                        let e = table[off + s * w + j];
                        if e != SKETCH_PAD {
                            acc += f32::from_bits(
                                v[(e & 0x7FFF_FFFF) as usize].to_bits() ^ (e & 1 << 31),
                            );
                        }
                    }
                    want[g * SKETCH_LANES + j] = acc;
                }
                off += n as usize * w;
            }
            for k in all_supported() {
                let mut got = vec![f32::NAN; buckets];
                // SAFETY: every live entry indexes below `v.len()`.
                unsafe { (k.sketch_gather)(&table, &steps, &v, &mut got) };
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    // Two NaNs match whatever their payloads (see the
                    // field doc).
                    assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "{} sketch_gather buckets={buckets} bucket {i}: {g} vs {w}",
                        k.name()
                    );
                }
            }
        }
    }

    /// A table whose length disagrees with its steps is refused before any
    /// entry is read, on every arm.
    #[test]
    fn sketch_gather_checks_the_table_shape() {
        for k in all_supported() {
            let short = std::panic::catch_unwind(|| {
                let mut out = [0.0f32; 17];
                // SAFETY: the table is empty, so no entry is gathered.
                unsafe { (k.sketch_gather)(&[], &[1, 0], &[1.0], &mut out) };
            });
            assert!(short.is_err(), "{} accepted a short table", k.name());
        }
    }

    /// The sign-bit flip is bit-identical to multiplying by ±1.0 — the
    /// pre-dispatch formulation of the sketch scatter.
    #[test]
    fn sign_flip_equals_mul_by_unit() {
        let mut rng = Rng::new(0xF11);
        let mut vals = random_vec(&mut rng, 64);
        vals.extend([0.0, -0.0, f32::MIN_POSITIVE, 1e-45, f32::MAX]);
        for v in vals {
            let flipped = f32::from_bits(v.to_bits() ^ 0x8000_0000);
            #[allow(clippy::neg_multiply)]
            let mul_neg = (v * -1.0f32).to_bits();
            assert_eq!(flipped.to_bits(), mul_neg);
            assert_eq!(v.to_bits(), (v * 1.0f32).to_bits());
        }
    }

    /// FNV-1a over the bit patterns of `xs`.
    fn fnv(xs: &[f32]) -> u32 {
        xs.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0x811c_9dc5, |h, b| (h ^ b as u32).wrapping_mul(0x0100_0193))
    }

    /// `n` floats spread over ±2048 from an integer hash, so the inputs are
    /// the same on every host and need no libm.
    fn int_vec(n: usize, mul: u32) -> Vec<f32> {
        (0..n as u32)
            .map(|i| ((i.wrapping_mul(mul) >> 8) as i32 - (1 << 23)) as f32 / 4096.0)
            .collect()
    }

    /// One `rows × cols` tile of `ukr` over `kc`-deep strips `mr` / `nr`
    /// wide, into an output that starts from integer-hashed values.
    #[allow(clippy::type_complexity)]
    fn run_tile(
        ukr: unsafe fn(usize, *const f32, usize, *const f32, usize, *mut f32, usize, usize, usize),
        (kc, mr, nr): (usize, usize, usize),
        (rows, cols): (usize, usize),
    ) -> Vec<f32> {
        assert!(rows <= mr && 0 < cols && cols <= nr);
        let a = int_vec(kc * mr, 2_654_435_761);
        let b = int_vec(kc * nr, 2_246_822_519);
        let mut c = int_vec(rows * cols, 3_266_489_917);
        // SAFETY: `a` holds `kc·mr` and `b` `kc·nr` elements (strides `mr`
        // and `nr`), and `c` is `rows × cols` with `ldc = cols`, which is
        // the microkernel contract for this tile.
        unsafe {
            ukr(
                kc,
                a.as_ptr(),
                mr,
                b.as_ptr(),
                nr,
                c.as_mut_ptr(),
                cols,
                rows,
                cols,
            )
        };
        c
    }

    /// Every arm's reduction and GEMM tile bits, pinned per arm: `dot` and
    /// `sum` at lengths around each arm's block and lane edges and at
    /// LeNet's d = 3 586, one full and one ragged `microkernel` tile, and
    /// the AVX-512 arm's 12-row `microkernel_tall`. The inputs come from
    /// integers, so the expected bits hold on any host that runs the arm.
    #[test]
    fn known_answer_reduction_and_tile_bits_per_arm() {
        const LENS: [usize; 8] = [1, 15, 16, 17, 63, 64, 65, 3_586];
        // Per arm: `dot` bits and `sum` bits at each of LENS, then the FNV
        // of the full tile, the ragged tile and the tall tile (0 when the
        // arm has no taller tile).
        let expected = |isa: Isa| -> ([u32; 8], [u32; 8], [u32; 3]) {
            match isa {
                Isa::Scalar => PIN_SCALAR,
                Isa::Avx2 => PIN_AVX2,
                Isa::Avx512 => PIN_AVX512,
            }
        };
        for k in all_supported() {
            let (want_dot, want_sum, want_tiles) = expected(k.isa);
            for (i, &n) in LENS.iter().enumerate() {
                let a = int_vec(n, 2_654_435_761);
                let b = int_vec(n, 2_246_822_519);
                let (d, s) = ((k.dot)(&a, &b), (k.sum)(&a));
                assert_eq!(d.to_bits(), want_dot[i], "{} dot n={n}: {d}", k.name());
                assert_eq!(s.to_bits(), want_sum[i], "{} sum n={n}: {s}", k.name());
            }
            let kc = 37;
            let full = run_tile(k.microkernel, (kc, k.mr, k.nr), (k.mr, k.nr));
            let ragged = run_tile(k.microkernel, (kc, k.mr, k.nr), (k.mr - 1, k.nr - 3));
            let tall = if k.mr_tall > k.mr {
                let tile = (k.mr_tall, k.nr);
                fnv(&run_tile(k.microkernel_tall, (kc, k.mr_tall, k.nr), tile))
            } else {
                0
            };
            let got = [fnv(&full), fnv(&ragged), tall];
            assert_eq!(got, want_tiles, "{} tiles", k.name());
        }
    }

    // The pinned bits of `known_answer_reduction_and_tile_bits_per_arm`.
    // Any change to an arm's lane association, block order or tile
    // arithmetic moves at least one of them.
    #[rustfmt::skip]
    const PIN_SCALAR: ([u32; 8], [u32; 8], [u32; 3]) = (
        [0x4a80_0000, 0x4a13_bb11, 0x4984_670a, 0x4868_12d8,
         0x4b3f_babe, 0x4b72_c504, 0x4b72_7ef2, 0x4c49_b1bc],
        [0xc500_0000, 0xc51b_3f1e, 0xc555_fefd, 0xc4e5_0ec4,
         0xc4f5_9180, 0xc332_1ce0, 0x422f_2780, 0xc47c_47bc],
        [0x27e8_853a, 0x3756_28c0, 0],
    );
    #[rustfmt::skip]
    const PIN_AVX2: ([u32; 8], [u32; 8], [u32; 3]) = (
        [0x4a80_0000, 0x4a13_bb11, 0x4984_670c, 0x4868_12e8,
         0x4b3f_babf, 0x4b72_c504, 0x4b72_7ef2, 0x4c49_b1be],
        [0xc500_0000, 0xc51b_3f1e, 0xc555_fefd, 0xc4e5_0ec4,
         0xc4f5_917e, 0xc332_1cd0, 0x422f_27c0, 0xc47c_47c4],
        [0x123a_4fe7, 0x2846_48d0, 0],
    );
    #[rustfmt::skip]
    const PIN_AVX512: ([u32; 8], [u32; 8], [u32; 3]) = (
        [0x4a80_0000, 0x4a13_bb11, 0x4984_670a, 0x4868_12d0,
         0x4b3f_babf, 0x4b72_c506, 0x4b72_7ef4, 0x4c49_b1be],
        [0xc500_0000, 0xc51b_3f1e, 0xc555_fefd, 0xc4e5_0ec4,
         0xc4f5_917c, 0xc332_1cd0, 0x422f_27c0, 0xc47c_4788],
        [0x9a60_888b, 0xe477_863e, 0xfa94_5f1e],
    );

    /// Each arm's microkernel over packed-style strips matches an f64
    /// reference, full and ragged tiles.
    #[test]
    fn microkernel_matches_f64_reference_on_every_arm() {
        let mut rng = Rng::new(0x111C);
        for k in all_supported() {
            let (mr, nr) = (k.mr, k.nr);
            for kc in [1usize, 2, 7, 64] {
                // a: kc × mr strip (k-major), b: kc × nr strip.
                let a = random_vec(&mut rng, kc * mr);
                let b = random_vec(&mut rng, kc * nr);
                for (rows, cols) in [(mr, nr), (1, nr), (mr, 1), (mr - 1, nr - 3)] {
                    let mut c = vec![0.5f32; rows * cols.max(1)];
                    let ldc = cols.max(1);
                    // SAFETY: `a` and `b` are whole `kc`-deep strips of
                    // widths `mr` and `nr`, and `c` is `rows × ldc` with
                    // `cols ≤ ldc`: the microkernel contract.
                    unsafe {
                        (k.microkernel)(
                            kc,
                            a.as_ptr(),
                            mr,
                            b.as_ptr(),
                            nr,
                            c.as_mut_ptr(),
                            ldc,
                            rows,
                            cols,
                        );
                    }
                    for r in 0..rows {
                        for j in 0..cols {
                            let want: f64 = 0.5
                                + (0..kc)
                                    .map(|p| a[p * mr + r] as f64 * b[p * nr + j] as f64)
                                    .sum::<f64>();
                            let got = c[r * ldc + j] as f64;
                            assert!(
                                (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                                "{} ukr kc={kc} rows={rows} cols={cols} ({r},{j}): \
                                 {got} vs {want}",
                                k.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

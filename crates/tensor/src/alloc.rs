//! Process-wide allocator tuning for the training hot path.
//!
//! Layer outputs are ~100 KiB matrices allocated and freed every step. With
//! glibc's default `M_TRIM_THRESHOLD` (128 KiB), freeing one of them often
//! shrinks the heap, so the very next allocation grows it again and takes a
//! page-fault storm re-zeroing fresh pages — measured at ~50 µs per
//! pool/ReLU backward on an otherwise sub-15 µs operation. Telling malloc
//! to retain freed memory makes steady-state training allocation-cheap
//! without touching any call site.
//!
//! On non-glibc targets this is a no-op, and the default `retain-heap`
//! cargo feature can be disabled by embedders that need freed memory
//! returned to the OS mid-process.

use std::sync::Once;

static INIT: Once = Once::new();

/// Configures the process allocator to retain freed memory (idempotent,
/// thread-safe, called lazily from hot-path constructors).
pub fn retain_heap() {
    INIT.call_once(|| {
        #[cfg(all(target_os = "linux", target_env = "gnu", feature = "retain-heap"))]
        unsafe {
            extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            // M_TRIM_THRESHOLD = -1: never give heap pages back mid-run.
            mallopt(-1, i32::MAX);
            // M_TOP_PAD = -2: grow the heap in 16 MiB strides to amortize
            // sbrk page faults.
            mallopt(-2, 16 * 1024 * 1024);
        }
    });
}

// ---------------------------------------------------------------------------
// Cache-line-aligned f32 buffers
// ---------------------------------------------------------------------------

/// A growable `f32` buffer whose allocation is 64-byte aligned.
///
/// `Vec<f32>` only guarantees 4-byte alignment, so the GEMM packing panels
/// it used to back could straddle cache lines at their base; the SIMD
/// kernel layer wants panel bases on cache-line (and AVX-512 vector)
/// boundaries. Contents are **not** preserved across growth — the panels
/// are fully repacked before every read, so preserving old bytes would be
/// pure memcpy waste. Grown regions are zeroed.
#[derive(Debug, Default)]
pub struct AlignedBuf {
    ptr: Option<std::ptr::NonNull<f32>>,
    cap: usize,
}

// The buffer owns plain f32s; moving it between threads is safe.
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    /// Guaranteed base alignment in bytes (one cache line, one zmm lane).
    const ALIGN: usize = 64;

    /// An empty buffer (no allocation until first use).
    pub fn new() -> AlignedBuf {
        AlignedBuf::default()
    }

    /// Current capacity in elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn layout(cap: usize) -> std::alloc::Layout {
        // Layout::array is overflow-checked: an absurd capacity fails here
        // instead of wrapping the byte size and handing out a huge slice
        // over a tiny allocation.
        std::alloc::Layout::array::<f32>(cap)
            .and_then(|l| l.align_to(Self::ALIGN))
            .expect("AlignedBuf: layout overflow")
    }

    /// Returns a zero-initialized-on-growth slice of exactly `n` elements,
    /// reallocating (aligned, without preserving contents) only when the
    /// capacity is exceeded — the capacity-keyed scratch idiom.
    pub fn ensure(&mut self, n: usize) -> &mut [f32] {
        if n > self.cap {
            unsafe {
                if let Some(p) = self.ptr.take() {
                    std::alloc::dealloc(p.as_ptr() as *mut u8, Self::layout(self.cap));
                }
                let raw = std::alloc::alloc_zeroed(Self::layout(n)) as *mut f32;
                let p = std::ptr::NonNull::new(raw)
                    .unwrap_or_else(|| std::alloc::handle_alloc_error(Self::layout(n)));
                debug_assert_eq!(
                    p.as_ptr() as usize % Self::ALIGN,
                    0,
                    "AlignedBuf: allocator returned a misaligned block"
                );
                self.ptr = Some(p);
                self.cap = n;
            }
        }
        match self.ptr {
            Some(p) => unsafe { std::slice::from_raw_parts_mut(p.as_ptr(), n) },
            // n == 0 and nothing allocated yet.
            None => &mut [],
        }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if let Some(p) = self.ptr {
            unsafe { std::alloc::dealloc(p.as_ptr() as *mut u8, Self::layout(self.cap)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_heap_is_idempotent() {
        retain_heap();
        retain_heap();
    }

    #[test]
    fn aligned_buf_is_64_byte_aligned_and_reuses() {
        let mut buf = AlignedBuf::new();
        assert_eq!(buf.ensure(0).len(), 0);
        let s = buf.ensure(100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.as_ptr() as usize % AlignedBuf::ALIGN, 0);
        assert!(s.iter().all(|&v| v == 0.0), "fresh region must be zeroed");
        s.iter_mut().for_each(|v| *v = 1.0);
        let ptr = buf.ensure(100).as_ptr();
        // Shrink within capacity: same allocation.
        let s = buf.ensure(40);
        assert_eq!(s.len(), 40);
        assert_eq!(s.as_ptr(), ptr, "within-capacity ensure must not realloc");
        assert_eq!(buf.capacity(), 100);
        // Growth realigns and zero-fills (contents not preserved).
        let s = buf.ensure(1000);
        assert_eq!(s.len(), 1000);
        assert_eq!(s.as_ptr() as usize % AlignedBuf::ALIGN, 0);
        assert_eq!(buf.capacity(), 1000);
    }
}

//! Dense double-precision matrix multiplication and the paper's matmul
//! computation kernel.

use std::ops::Range;
use std::time::{Duration, Instant};

use fupermod_core::kernel::{Kernel, KernelContext};
use fupermod_core::CoreError;

/// `C += A · B` with the textbook triple loop (ikj order so the inner
/// loop streams rows). `A` is `m×k`, `B` is `k×n`, `C` is `m×n`, all
/// row-major.
///
/// # Panics
///
/// Panics if the slices do not match the given dimensions.
pub fn gemm_naive(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
    for i in 0..m {
        for l in 0..k {
            let aval = a[i * k + l];
            if aval == 0.0 {
                continue;
            }
            let brow = &b[l * n..(l + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aval * bv;
            }
        }
    }
}

/// `C += A · B`, same layout as [`gemm_naive`] and **bit-identical** to
/// it, at several times its speed: the stand-in for a tuned BLAS
/// `dgemm`, where [`gemm_naive`] stands in for the Netlib one.
///
/// A register-tiled kernel: an `MR×NR` block of `C` stays in local
/// accumulators through a run of up to 256 terms of `l`, taking one
/// broadcast `a[i][l]` per row and one `NR`-wide row of `B` per `l`.
/// The tile is chosen once per call from the host's instruction set:
/// 8×16 with AVX-512F, 6×8 with AVX2, 4×4 otherwise. Every element of
/// `C` gets the terms `a[i][l]·b[l][j]` in ascending `l`, each as a
/// separate multiply and add, and no term whose `a[i][l]` is ±0.0 —
/// exactly what [`gemm_naive`] does. The tile cannot skip a term for
/// one row alone, so it runs only on an `MR`-row panel of `A` whose run
/// of `l` holds no zero; a panel with a zero, and the `m % MR` rows and
/// `n % NR` columns at the edges, take a scalar loop with the same
/// rules. (Skipping matters: `-0.0 + 0.0·b` is `+0.0`, and `0.0·∞` is
/// NaN.) Where both operands of an add are NaN, the language leaves
/// open whose sign and payload the sum keeps, so there a NaN is only
/// guaranteed to be a NaN.
///
/// # Panics
///
/// Panics if the slices do not match the given dimensions.
pub fn gemm_blocked(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
    let isa = Isa::ALL
        .iter()
        .copied()
        .find(|isa| isa.on_host())
        .expect("the portable tile runs on every host");
    gemm_tiled(isa, m, n, k, a, b, c);
}

/// Depth of one register-tile run: how many terms of `l` a block of
/// `C` takes in registers before it is stored back.
const KC: usize = 256;

/// An instruction set the register tile is instantiated for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// AVX-512F: an 8×16 tile, sixteen 512-bit accumulators.
    #[cfg(target_arch = "x86_64")]
    Avx512f,
    /// AVX2: a 6×8 tile, twelve 256-bit accumulators.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Any target: a 4×4 tile.
    Portable,
}

impl Isa {
    /// Every instantiation, widest first.
    const ALL: &'static [Isa] = &[
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        Isa::Portable,
    ];

    /// Whether this CPU has the instruction set.
    fn on_host(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            Isa::Portable => true,
        }
    }
}

/// [`gemm_blocked`] on the tile of `isa`.
///
/// # Panics
///
/// Panics if the host lacks `isa`.
fn gemm_tiled(isa: Isa, m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert!(isa.on_host(), "this CPU cannot run the {isa:?} GEMM tile");
    let kernel: unsafe fn(Operands<'_>) = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f => x86::avx512f,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => x86::avx2,
        Isa::Portable => tiled::<4, 4>,
    };
    // SAFETY: `kernel` enables no target feature but those of `isa`,
    // and the assert above found each of them on this CPU at run time.
    unsafe { kernel(Operands { m, n, k, a, b, c }) }
}

/// The tile compiled for wider vector units: `tiled` is inlined into
/// each, so its loops are vectorised with the wrapper's features.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{tiled, Operands};

    #[target_feature(enable = "avx512f")]
    pub(super) fn avx512f(g: Operands<'_>) {
        tiled::<8, 16>(g);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn avx2(g: Operands<'_>) {
        tiled::<6, 8>(g);
    }
}

/// The operands of one call, row-major: `A` is `m×k`, `B` `k×n`, `C`
/// `m×n`.
struct Operands<'a> {
    m: usize,
    n: usize,
    k: usize,
    a: &'a [f64],
    b: &'a [f64],
    c: &'a mut [f64],
}

/// The body of [`gemm_blocked`] for an `MR×NR` register tile.
#[inline(always)]
fn tiled<const MR: usize, const NR: usize>(mut g: Operands<'_>) {
    let (m, n, k) = (g.m, g.n, g.k);
    let m_tiled = m - m % MR;
    let n_tiled = n - n % NR;
    for l0 in (0..k).step_by(KC) {
        let ls = l0..(l0 + KC).min(k);
        for i0 in (0..m_tiled).step_by(MR) {
            let zero_free =
                (i0..i0 + MR).all(|i| !g.a[i * k + ls.start..i * k + ls.end].contains(&0.0));
            let scalar_from = if zero_free {
                for j0 in (0..n_tiled).step_by(NR) {
                    g.tile::<MR, NR>(i0, j0, ls.clone());
                }
                n_tiled
            } else {
                0
            };
            g.scalar(i0..i0 + MR, scalar_from..n, ls.clone());
        }
        g.scalar(m_tiled..m, 0..n, ls);
    }
}

impl Operands<'_> {
    /// The terms `ls` of the `MR×NR` block of `C` at (`i0`, `j0`), held
    /// in accumulators. The `MR` rows of `A` must have no zero in `ls`.
    #[inline(always)]
    fn tile<const MR: usize, const NR: usize>(&mut self, i0: usize, j0: usize, ls: Range<usize>) {
        let (n, k) = (self.n, self.k);
        let a_rows: [&[f64]; MR] =
            std::array::from_fn(|r| &self.a[(i0 + r) * k + ls.start..(i0 + r) * k + ls.end]);
        let mut acc = [[0.0f64; NR]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&self.c[(i0 + r) * n + j0..][..NR]);
        }
        for (t, l) in ls.enumerate() {
            let b_row = &self.b[l * n + j0..][..NR];
            for (row, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = a_row[t];
                for (cv, bv) in row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            self.c[(i0 + r) * n + j0..][..NR].copy_from_slice(row);
        }
    }

    /// The terms `ls` of the block `rows × cols` of `C`, one at a time,
    /// skipping each zero `a[i][l]`.
    #[inline(always)]
    fn scalar(&mut self, rows: Range<usize>, cols: Range<usize>, ls: Range<usize>) {
        let (n, k) = (self.n, self.k);
        for i in rows {
            let c_row = &mut self.c[i * n + cols.start..i * n + cols.end];
            for l in ls.clone() {
                let av = self.a[i * k + l];
                if av == 0.0 {
                    continue;
                }
                let b_row = &self.b[l * n + cols.start..l * n + cols.end];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Near-square arrangement of `d` blocks: `m = ⌈√d⌉` rows of blocks and
/// `n = ⌈d/m⌉` columns, exactly the paper's
/// `mᵢ = ⌈√dᵢ⌉; nᵢ = ⌈dᵢ/mᵢ⌉` initialisation.
fn block_arrangement(d: u64) -> (usize, usize) {
    if d == 0 {
        return (0, 0);
    }
    let m = (d as f64).sqrt().ceil() as usize;
    let n = (d as f64 / m as f64).ceil() as usize;
    (m, n)
}

/// The paper's matrix-multiplication computation kernel (Fig. 1(b)):
/// one computation unit is the update of a `b×b` block of the local
/// submatrix `C` with parts of the pivot column `A(b)` and pivot row
/// `B(b)`.
///
/// For a problem size of `d` units the context allocates the local
/// submatrices `Aᵢ`, `Bᵢ`, `Cᵢ` of `(m·b)×(n·b)` elements (with
/// `m×n ≈ d`) plus the pivot buffers, and one execution performs the
/// local work of one iteration of the main loop: copy the pivot parts
/// out of `Aᵢ`/`Bᵢ` (replicating the memory-access pattern of the MPI
/// communication) and call GEMM once. Complexity is
/// `2·(m·b)·(n·b)·b` flops.
///
/// # Examples
///
/// ```
/// use fupermod_core::benchmark::Benchmark;
/// use fupermod_core::Precision;
/// use fupermod_kernels::gemm::MatMulKernel;
///
/// # fn main() -> Result<(), fupermod_core::CoreError> {
/// let mut kernel = MatMulKernel::new(8);
/// let precision = Precision { reps_min: 1, reps_max: 2, ..Precision::default() };
/// let point = Benchmark::new(&precision).measure(&mut kernel, 16)?;
/// assert!(point.t > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MatMulKernel {
    block: usize,
    use_blocked_gemm: bool,
}

impl MatMulKernel {
    /// Creates the kernel with blocking factor `b` (the paper's
    /// granularity parameter), using the cache-blocked GEMM.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "blocking factor must be positive");
        Self {
            block,
            use_blocked_gemm: true,
        }
    }

    /// Same kernel but with the naive GEMM — the "Netlib BLAS" stand-in
    /// whose speed function has the pronounced memory-hierarchy shape
    /// of the paper's Fig. 2.
    pub fn with_naive_gemm(block: usize) -> Self {
        assert!(block > 0, "blocking factor must be positive");
        Self {
            block,
            use_blocked_gemm: false,
        }
    }

    /// The blocking factor.
    pub fn block(&self) -> usize {
        self.block
    }

    /// The context [`Kernel::context`] boxes, for `d` blocks.
    fn matmul_context(&self, d: u64) -> Result<MatMulContext, CoreError> {
        if d == 0 {
            return Err(CoreError::Kernel(
                "matmul kernel needs at least one block".to_owned(),
            ));
        }
        let (m, n) = block_arrangement(d);
        let b = self.block;
        let rows = m * b;
        let cols = n * b;
        // Deterministic non-trivial contents with no zero: the blocked
        // GEMM skips each zero `a[i][l]` and leaves a panel holding one
        // to its scalar path, so a zero here would time that path and
        // not the register tile the applications run.
        let fill = |len: usize, scale: f64| -> Vec<f64> {
            (0..len).map(|i| scale * ((i % 17) as f64 - 8.5)).collect()
        };
        Ok(MatMulContext {
            rows,
            cols,
            b,
            a: fill(rows * b, 0.01),
            bm: fill(b * cols, 0.02),
            c: vec![0.0; rows * cols],
            pivot_a: vec![0.0; rows * b],
            pivot_b: vec![0.0; b * cols],
            use_blocked: self.use_blocked_gemm,
        })
    }
}

impl Kernel for MatMulKernel {
    fn complexity(&self, d: u64) -> f64 {
        let (m, n) = block_arrangement(d);
        let b = self.block as f64;
        2.0 * (m as f64 * b) * (n as f64 * b) * b
    }

    fn context(&mut self, d: u64) -> Result<Box<dyn KernelContext>, CoreError> {
        Ok(Box::new(self.matmul_context(d)?))
    }
}

struct MatMulContext {
    rows: usize,
    cols: usize,
    b: usize,
    /// Local part of the pivot column, `rows×b`.
    a: Vec<f64>,
    /// Local part of the pivot row, `b×cols`.
    bm: Vec<f64>,
    /// Local submatrix `C`, `rows×cols`.
    c: Vec<f64>,
    pivot_a: Vec<f64>,
    pivot_b: Vec<f64>,
    use_blocked: bool,
}

impl KernelContext for MatMulContext {
    fn run(&mut self) -> Result<Duration, CoreError> {
        let start = Instant::now();
        // Replicate the local overhead of the MPI communication: copy
        // the pivot column/row into the working buffers.
        self.pivot_a.copy_from_slice(&self.a);
        self.pivot_b.copy_from_slice(&self.bm);
        if self.use_blocked {
            gemm_blocked(
                self.rows,
                self.cols,
                self.b,
                &self.pivot_a,
                &self.pivot_b,
                &mut self.c,
            );
        } else {
            gemm_naive(
                self.rows,
                self.cols,
                self.b,
                &self.pivot_a,
                &self.pivot_b,
                &mut self.c,
            );
        }
        Ok(start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fupermod_core::kernel::Kernel;

    fn reference_mm(m: usize, n: usize, k: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[i * k + l] * b[l * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// Entries with inexact products (sevenths and thirds), so that a
    /// fused or reordered term changes the rounding.
    fn test_matrices(m: usize, n: usize, k: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..m * k)
            .map(|i| ((i * 7 + 3) % 23) as f64 / 7.0 - 1.5)
            .collect();
        let b: Vec<f64> = (0..k * n)
            .map(|i| ((i * 5 + 1) % 19) as f64 / 3.0 - 4.0)
            .collect();
        (a, b)
    }

    #[test]
    fn naive_matches_reference() {
        let (m, n, k) = (7, 9, 5);
        let (a, b) = test_matrices(m, n, k);
        let mut c = vec![0.0; m * n];
        gemm_naive(m, n, k, &a, &b, &mut c);
        let expected = reference_mm(m, n, k, &a, &b);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn blocked_matches_naive() {
        let (m, n, k) = (130, 70, 65);
        let (a, b) = test_matrices(m, n, k);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm_naive(m, n, k, &a, &b, &mut c1);
        gemm_blocked(m, n, k, &a, &b, &mut c2);
        for (i, (x, y)) in c1.iter().zip(&c2).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "elem {i}");
        }
    }

    /// `A` with ±0.0 where a skipped term shows: row 5 mod 23 all zero
    /// (so a `-0.0` in `C` must survive), row 7 mod 19 zero at every
    /// fifth `l` (so an infinite `b` there must not reach `C`), and row
    /// 0 mod 11 zero only at `l = 260`, in the second `KC` run. Every
    /// other `MR`-row panel is zero-free and takes the tile.
    fn hostile_a(m: usize, k: usize) -> Vec<f64> {
        let (mut a, _) = test_matrices(m, 1, k);
        for i in 0..m {
            for l in 0..k {
                let zero = i % 23 == 5 || (i % 19 == 7 && l % 5 == 2) || (i % 11 == 0 && l == 260);
                if zero {
                    a[i * k + l] = if l % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        a
    }

    /// `B` with +∞ and −∞ (whose sum is NaN) in columns 7 mod 13, NaN in
    /// columns 9 mod 17, and −0.0 in columns 2 mod 5, all at the `l`
    /// that `hostile_a` zeroes.
    fn hostile_b(k: usize, n: usize) -> Vec<f64> {
        let (_, mut b) = test_matrices(1, n, k);
        for l in (2..k).step_by(5) {
            for j in 0..n {
                let v = &mut b[l * n + j];
                if j % 13 == 7 {
                    *v = if l % 10 == 2 {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    };
                } else if j % 17 == 9 {
                    *v = f64::NAN;
                } else if j % 5 == 2 {
                    *v = -0.0;
                }
            }
        }
        b
    }

    #[test]
    fn every_tile_is_bitwise_naive() {
        // Shapes on both sides of every MR (4, 6, 8), NR (4, 8, 16) and
        // KC (256) edge, and of the 64-wide tile the kernel once had.
        let ms = [1, 5, 6, 7, 8, 9, 12, 16, 17, 25, 65];
        let ns = [1, 3, 4, 5, 8, 9, 15, 16, 17, 33, 65];
        let ks = [1, 3, 16, 64, 65, 255, 256, 257, 300];
        let ran: Vec<Isa> = Isa::ALL
            .iter()
            .copied()
            .filter(|isa| isa.on_host())
            .collect();
        eprintln!("GEMM tiles run on this host: {ran:?}");
        assert!(ran.contains(&Isa::Portable));
        for &k in &ks {
            for &m in &ms {
                let a = hostile_a(m, k);
                for &n in &ns {
                    let b = hostile_b(k, n);
                    for fill in [-0.0, 0.25] {
                        let mut expected = vec![fill; m * n];
                        gemm_naive(m, n, k, &a, &b, &mut expected);
                        for &isa in &ran {
                            let mut c = vec![fill; m * n];
                            gemm_tiled(isa, m, n, k, &a, &b, &mut c);
                            for (e, (x, y)) in c.iter().zip(&expected).enumerate() {
                                // Equal bits, or both NaN: which NaN operand's
                                // sign and payload an add keeps is left open.
                                assert!(
                                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                                    "{isa:?} m={m} n={n} k={k} C={fill} elem {e}: {x} vs naive {y}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let mut c = vec![1.0; 4];
        gemm_naive(2, 2, 2, &[1.0, 0.0, 0.0, 1.0], &[2.0, 0.0, 0.0, 2.0], &mut c);
        assert_eq!(c, vec![3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn block_arrangement_is_near_square() {
        assert_eq!(block_arrangement(0), (0, 0));
        assert_eq!(block_arrangement(1), (1, 1));
        assert_eq!(block_arrangement(4), (2, 2));
        assert_eq!(block_arrangement(5), (3, 2));
        assert_eq!(block_arrangement(12), (4, 3));
        // m·n always covers d.
        for d in 1..200u64 {
            let (m, n) = block_arrangement(d);
            assert!((m * n) as u64 >= d, "d={d}");
            assert!(m.abs_diff(n) <= m.max(n) / 2 + 1, "far from square at d={d}");
        }
    }

    #[test]
    fn complexity_follows_arrangement() {
        let k = MatMulKernel::new(16);
        // d=4 → 2×2 blocks → 2·32·32·16.
        assert_eq!(k.complexity(4), 2.0 * 32.0 * 32.0 * 16.0);
    }

    #[test]
    fn kernel_executes_and_accumulates() {
        let mut k = MatMulKernel::new(4);
        let mut ctx = k.context(4).unwrap();
        let t1 = ctx.run().unwrap();
        let t2 = ctx.run().unwrap();
        assert!(t1.as_nanos() > 0 && t2.as_nanos() > 0);
    }

    #[test]
    fn context_operands_hold_no_zero() {
        for block in [1, 4, 8, 16] {
            for d in 1..40 {
                let ctx = MatMulKernel::new(block).matmul_context(d).unwrap();
                assert!(
                    ctx.a.iter().chain(&ctx.bm).all(|&v| v != 0.0),
                    "block={block} d={d}"
                );
            }
        }
    }

    #[test]
    fn kernel_rejects_zero_size() {
        let mut k = MatMulKernel::new(4);
        assert!(k.context(0).is_err());
    }

    #[test]
    fn naive_variant_runs() {
        let mut k = MatMulKernel::with_naive_gemm(4);
        let mut ctx = k.context(9).unwrap();
        assert!(ctx.run().unwrap().as_nanos() > 0);
    }
}

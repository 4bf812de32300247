//! EXP4 — Communication volume of the column-based 2D arrangement vs
//! 1D row strips (Beaumont et al. \[2\], used by the paper's matmul).
//!
//! For growing process counts and a heterogeneous area mix, compares
//! the sum of rectangle half-perimeters (proportional to the data
//! broadcast per matmul iteration) of the column-based DP arrangement
//! against naive 1D row strips. Columns should win, and the gap should
//! grow with `p` (strips cost `p·n + n`; columns approach `2n√p`).
//!
//! Output: CSV `p,n_blocks,columns_hp,strips_hp,ratio`.

use fupermod_core::matrix2d::{column_partition, row_strip_half_perimeters};

use super::Trace;
use crate::cli::Args;

pub fn run(_: &Args, _: &Trace) {
    let n_blocks: u64 = 512;
    println!("p,n_blocks,columns_hp,strips_hp,ratio");
    for p in [2usize, 4, 8, 16, 32, 64] {
        // Heterogeneous mix: geometric speeds, normalised to the grid.
        let weights: Vec<f64> = (0..p).map(|i| 1.25f64.powi((i % 8) as i32)).collect();
        let total = n_blocks * n_blocks;
        let areas = fupermod_num::apportion::largest_remainder(&weights, total)
            .expect("apportionment failed");
        let columns = column_partition(n_blocks, &areas).expect("column partition failed");
        let strips = row_strip_half_perimeters(n_blocks, &areas).expect("strip partition failed");
        let chp = columns.sum_half_perimeters();
        let ratio = strips as f64 / chp as f64;
        println!("{p},{n_blocks},{chp},{strips},{ratio:.3}");
    }
}

//! Order-preserving parallel evaluation of experiment grids.
//!
//! Every figure/table sweep is a grid of independent `(machine, p, layout,
//! size)` cells, each a deterministic simulation. Running them through
//! [`par_map`] preserves the serial cell order positionally, so assembling
//! series, CSV rows, and verbose logs from the results afterwards yields
//! byte-identical output to the serial sweep — only host wall-clock
//! changes. The `*_parallel_matches_serial` integration tests pin this
//! down by comparing full simulator reports against a plain serial map.

use rayon::prelude::*;

/// Apply `f` to every cell in parallel, returning results in cell order.
pub fn par_map<C, R, F>(cells: &[C], f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    (0..cells.len())
        .into_par_iter()
        .map(|i| f(&cells[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let cells: Vec<usize> = (0..257).collect();
        let par = par_map(&cells, |&c| c * 3);
        let ser: Vec<usize> = cells.iter().map(|&c| c * 3).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn empty_grid() {
        let cells: Vec<u32> = Vec::new();
        assert!(par_map(&cells, |&c| c).is_empty());
    }
}

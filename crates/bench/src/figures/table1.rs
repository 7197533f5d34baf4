//! Table 1: accelerator coherence modes in the literature.

use cohmeleon_core::modes::{CoherenceMode, LITERATURE};

use crate::table;

/// Prints Table 1 from the classification data in `cohmeleon-core`.
pub fn print() {
    let rows: Vec<Vec<String>> = LITERATURE
        .iter()
        .map(|entry| {
            let mut cells = vec![entry.system.to_owned()];
            for mode in CoherenceMode::ALL {
                cells.push(
                    if entry.modes.contains(mode) {
                        "✓"
                    } else {
                        ""
                    }
                    .to_owned(),
                );
            }
            cells
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "system",
                "non-coh DMA",
                "LLC-coh DMA",
                "coh DMA",
                "fully-coh"
            ],
            &rows
        )
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn print_does_not_panic() {
        super::print();
    }
}

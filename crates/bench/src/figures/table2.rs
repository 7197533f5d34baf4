//! Table 2: the accelerators of this work vs. benchmark suites.

use cohmeleon_accel::catalog;
use cohmeleon_accel::table2::TABLE2;

use crate::table;

/// Prints Table 2 from the data in `cohmeleon-accel`.
pub fn print() {
    let names: Vec<String> = catalog().into_iter().map(|s| s.profile.name).collect();
    let header: Vec<&str> = std::iter::once("suite")
        .chain(names.iter().map(|n| n.as_str()))
        .collect();
    let rows: Vec<Vec<String>> = TABLE2
        .iter()
        .map(|row| {
            let mut cells = vec![row.suite.to_owned()];
            for i in 0..names.len() {
                cells.push(if row.covers(i) { "✓" } else { "" }.to_owned());
            }
            cells
        })
        .collect();
    println!("{}", table::render(&header, &rows));
}

#[cfg(test)]
mod tests {
    #[test]
    fn print_does_not_panic() {
        super::print();
    }
}

//! Regenerates the weight-sensitivity table. `sweep run|resume|shard
//! --grid weights --out PATH` runs the same grid through a checkpoint
//! and prints the same table.

fn main() {
    let scale = cohmeleon_bench::Scale::from_env();
    let data = cohmeleon_bench::figures::weight_sensitivity::run(scale);
    cohmeleon_bench::figures::weight_sensitivity::print(&data);
}

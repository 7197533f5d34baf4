//! Regenerates the learner-ablation table. `sweep run|resume|shard
//! --grid learners --out PATH` runs the same grid through a checkpoint
//! and prints the same table.

fn main() {
    let scale = cohmeleon_bench::Scale::from_env();
    let data = cohmeleon_bench::figures::learner_ablation::run(scale);
    cohmeleon_bench::figures::learner_ablation::print(&data);
}

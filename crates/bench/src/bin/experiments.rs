//! Prints `EXPERIMENTS.md`:
//! `cargo run -q -p dagbft-bench --bin experiments > EXPERIMENTS.md`.

fn main() {
    print!("{}", dagbft_bench::experiments::render());
}

//! `EXPERIMENTS.md` is what `dagbft_bench::experiments::render()`
//! prints: the paper's tables cannot move without the committed file
//! moving with them.

#[test]
fn experiments_md_is_what_render_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let committed = std::fs::read_to_string(path).expect("EXPERIMENTS.md at the repository root");
    let rendered = dagbft_bench::experiments::render();
    if committed == rendered {
        return;
    }
    let line = committed
        .lines()
        .zip(rendered.lines())
        .position(|(old, new)| old != new)
        .unwrap_or_else(|| committed.lines().count().min(rendered.lines().count()));
    panic!(
        "EXPERIMENTS.md differs from render() at line {}:\n  committed: {:?}\n  rendered:  {:?}\n\
         if the change is intended, regenerate it:\n  \
         cargo run -q -p dagbft-bench --bin experiments > EXPERIMENTS.md",
        line + 1,
        committed.lines().nth(line),
        rendered.lines().nth(line),
    );
}

//! The paper's evaluation (§4.4): Tables 2 and 3, Figures 19 and 20,
//! the calibration views and the per-event diagnostics, all rendered
//! from one 70-cell grid ([`svc_bench::paper`]) that is simulated once.
//!
//! Writes `results/fig19.json` and `results/fig20.json` (the grid's two
//! halves); exits 1 if any of the paper's shape checks fails.
//!
//! Run: `cargo run --release -p svc-bench --bin paper`

use svc_bench::{cli, paper, run_paper_grid, write_paper_docs, PAPER_BUDGET};

fn main() {
    let opts = cli::experiment_options("paper");
    let budget = opts.budget.unwrap_or(PAPER_BUDGET);
    let results = run_paper_grid(&paper::grid(), budget, &opts);
    let (text, ok) = paper::render(&results);
    print!("{text}");
    let (fig19, fig20) = results.split_at(paper::FIGURE_CELLS);
    cli::check_io(
        "results/fig19.json",
        write_paper_docs("fig19", budget, fig19, &opts),
    );
    cli::check_io(
        "results/fig20.json",
        write_paper_docs("fig20", budget, fig20, &opts),
    );
    std::process::exit(i32::from(!ok));
}

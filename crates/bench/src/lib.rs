#![warn(missing_docs)]

//! Experiment harness regenerating every table and figure of
//! *"What is the State of Neural Network Pruning?"* (Blalock et al.,
//! MLSys 2020).
//!
//! The `expfig` binary is the entry point:
//!
//! ```text
//! cargo run --release -p sb-bench --bin expfig -- list
//! cargo run --release -p sb-bench --bin expfig -- table1
//! cargo run --release -p sb-bench --bin expfig -- fig7 --scale quick
//! cargo run --release -p sb-bench --bin expfig -- all
//! ```
//!
//! Meta-analysis artifacts (Table 1, Figures 1–5) are computed from the
//! embedded corpus in `sb-corpus`; experimental artifacts (Figures 6–18
//! and the ablations) train, prune, and fine-tune real models via the
//! `shrinkbench` experiment runner, with results cached as JSON under
//! `results/`.

pub mod configs;
pub mod figures;
pub mod picks;
pub mod timer;
pub mod tracediff;

pub use configs::{experiment_config, Scale};

/// The virtual-clock price of a batch through `compiled`: 2,000
/// effective multiply-adds per virtual µs (at least 1 µs per sample),
/// plus 200 µs per batch. Every serving figure and load driver prices
/// its compiled engines here. Effective MACs are the theoretical-speedup
/// proxy of §2.1, not a measured time: only ratios between
/// configurations mean anything.
pub fn mac_price(compiled: &sb_infer::CompiledModel) -> sb_serve::ServiceModel {
    sb_serve::ServiceModel {
        base_us: 200,
        per_sample_us: (compiled.effective_macs() / 2_000).max(1),
    }
}

/// Install a panic hook that drops the default stderr report for
/// `sb-fault`-injected engine panics (they unwind through the worker
/// pool's `catch_unwind` by design — one backtrace per faulted batch is
/// pure noise) while forwarding every other panic to the previous hook.
///
/// Call once at binary startup before driving a faulted workload.
pub fn silence_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected engine panic"));
        if !injected {
            default(info);
        }
    }));
}

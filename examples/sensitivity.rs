//! Buffer-sizing sensitivity: which capacity should grow next?
//!
//! Uses the C3P access profiles' breakpoints to answer the architect's
//! question exactly — jump each buffer to its next critical capacity,
//! re-price, and report the saving per added byte.
//!
//! ```sh
//! cargo run --release --example sensitivity
//! ```

use nn_baton::c3p::knob_effects;
use nn_baton::mapping::decompose;
use nn_baton::prelude::*;

fn main() {
    // A deliberately memory-starved machine so the knobs have headroom.
    let mut arch = presets::case_study_accelerator();
    arch.chiplet.a_l2_bytes = 8 * 1024;
    arch.chiplet.core.w_l1_bytes = 2 * 1024;
    let tech = Technology::paper_16nm();

    println!(
        "machine: {:?}, A-L2 8 KB, W-L1 2 KB (starved)",
        arch.geometry()
    );
    for (bucket, layer) in zoo::representative_layers(224) {
        let Ok(best) = search_layer(&layer, &arch, &tech, Objective::Energy) else {
            println!("{bucket:<22} no feasible mapping");
            continue;
        };
        let d = decompose(&layer, &arch, &best.mapping).expect("winner decomposes");
        let effects = knob_effects(&d, &arch, &tech);
        println!(
            "\n{bucket} ({}): {:.1} uJ",
            layer.name(),
            best.energy.total_uj()
        );
        for e in effects {
            match e.next_cc_bytes {
                Some(next) => println!(
                    "  {:?}: {} B -> next Cc {} B, energy {:.1} -> {:.1} uJ \
                     ({:.3} pJ saved per added byte)",
                    e.knob,
                    e.current_bytes,
                    next,
                    e.energy_now_pj / 1e6,
                    e.energy_next_pj / 1e6,
                    e.saving_per_byte()
                ),
                None => println!(
                    "  {:?}: {} B — saturated (no breakpoint above)",
                    e.knob, e.current_bytes
                ),
            }
        }
    }
}

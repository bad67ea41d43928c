//! One module per figure of the paper. See each module's docs for what
//! the corresponding figure shows and which paper section it comes from.

pub mod drift;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod scale;
pub mod serve;
pub mod trace;
pub mod workload;

use crate::common::FigureCtx;

/// All figure ids in paper order, plus the beyond-the-paper parallel
/// scaling study (`scale`), the multi-query serving study (`serve`),
/// the observability demonstration (`trace`) and the model-drift /
/// profiler study (`drift`). Every figure prints simulated numbers; host
/// speed is measured by the repository benchmark and the ratio gate.
pub const ALL: &[&str] = &[
    "1", "2", "3", "4", "6", "7", "8", "9", "11", "12", "13", "14", "15", "16", "scale", "serve",
    "trace", "drift",
];

/// Dispatch a figure by id; returns false for unknown ids (the CLI turns
/// that into a non-zero exit with the known ids printed).
pub fn run(id: &str, ctx: &FigureCtx) -> bool {
    match id {
        "1" => fig01::run(ctx),
        "2" => fig02::run(ctx),
        "3" => fig03::run(ctx),
        "4" => fig04::run(ctx),
        "6" => fig06::run(ctx),
        "7" => fig07::run(ctx),
        "8" => fig08::run(ctx),
        "9" => fig09::run(ctx),
        "11" => fig11::run(ctx),
        "12" => fig12::run(ctx),
        "13" => fig13::run(ctx),
        "14" => fig14::run(ctx),
        "15" => fig15::run(ctx),
        "16" => fig16::run(ctx),
        "scale" => scale::run(ctx),
        "serve" => serve::run(ctx),
        "trace" => trace::run(ctx),
        "drift" => drift::run(ctx),
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_ids_are_rejected_and_known_ids_are_unique() {
        // `run` must refuse ids it does not know (the CLI exits non-zero
        // and prints `ALL` when it sees `false`), and every advertised
        // id must be unique and non-empty.
        let mut ctx = FigureCtx::plain();
        ctx.quick = true;
        assert!(!run("not-a-figure", &ctx));
        assert!(!run("", &ctx));
        assert!(!run("Serve", &ctx), "ids are case-sensitive");
        let mut seen = std::collections::HashSet::new();
        for id in ALL {
            assert!(!id.is_empty());
            assert!(seen.insert(id), "duplicate figure id {id:?}");
        }
        assert!(ALL.contains(&"serve"), "the serving figure must be listed");
    }
}

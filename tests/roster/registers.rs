//! Register allocation on everything the repo compiles: every `O1`
//! program — the single program of each roster, golden and suite entry,
//! and its `map(f)` kernel unless that lowering is past `OPT_BUDGET`
//! and ships unoptimized — has at most twice as many registers as are
//! ever live at once.

use super::common::reference::max_live;
use super::common::{on_big_stack, roster};
use super::{entry, goldens, suite};
use nsc::compile::{OptLevel, OPT_BUDGET};
use nsc::core::Type;

#[test]
fn o1_register_files_are_about_the_live_set() {
    on_big_stack(|| {
        let seq_n = Type::seq(Type::Nat);
        let roster = roster().iter().map(|s| (s.name, &s.f, &s.dom));
        let goldens = goldens().into_iter().map(|(n, f, d, _)| (n, f, d));
        let suite = suite().iter().map(|(n, f)| (*n, f, &seq_n));
        for (name, f, dom) in roster.chain(goldens).chain(suite) {
            let e = entry(name, f, dom, OptLevel::O1);
            let kernel = &e.batch.get().unwrap().program;
            let programs = [("single", &e.single.program), ("map kernel", kernel)];
            for (what, p) in programs {
                if p.instrs.len() > OPT_BUDGET {
                    continue;
                }
                let live = max_live(p);
                assert!(
                    p.n_regs <= 2 * live,
                    "{name} ({what}): {} registers, at most {live} live at once",
                    p.n_regs
                );
            }
        }
    });
}

//! The shared block graph (`bvram::cfg::Cfg`) block for block against the
//! independent reconstruction in `common::reference`, from
//! `tests/cfg_reference.rs`, on everything the repo compiles: the stdlib
//! roster and the five golden examples, at `O0` and `O1`.

use super::common::reference::assert_cfg_matches_reference;
use super::common::{on_big_stack, roster};
use super::{entry, goldens};
use nsc::compile::OptLevel;

/// The quadratic reference is affordable on everything compiled here
/// (the largest, `combine_flags` at `O0`, has ~2000 blocks).
#[test]
fn cfg_agrees_with_reference_on_the_roster_and_goldens() {
    on_big_stack(|| {
        let roster = roster().iter().map(|s| (s.name, &s.f, &s.dom));
        let goldens = goldens().into_iter().map(|(n, f, d, _)| (n, f, d));
        for (name, f, dom) in roster.chain(goldens) {
            for level in [OptLevel::O0, OptLevel::O1] {
                let single = &entry(name, f, dom, level).single.program;
                assert_cfg_matches_reference(&format!("{name} at {level:?}"), single);
            }
        }
    });
}

//! The four named workloads: seeded input pools, their request lines, the
//! evaluator-derived expected reply lines, and the open-loop schedule.
//!
//! Everything here is a pure function of `--seed`; the served program
//! only ever sees the generated request lines.

use nsc_core::eval::apply_func;
use nsc_core::value::Value;
use nsc_core::Func;

/// Requests per pool.  Requests cycle through the pool in order, so a
/// phase of any length sees the same input mix.
pub const POOL: usize = 64;

/// SplitMix64 (Steele, Lea & Flood 2014): the benchmark's own generator,
/// so the request stream depends on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias below 2⁻⁴⁰ for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` draws from `U[lo, hi]`, one from each of `n` equal strata,
    /// shuffled.  Each position is still marginally uniform, but the
    /// pool's mean barely moves with the seed — so a seed change varies
    /// which request has which size, not how much work the pool holds.
    pub fn stratified(&mut self, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let span = (hi - lo + 1) as f64;
        let mut out: Vec<u64> = (0..n)
            .map(|i| lo + (((i as f64 + self.unit()) / n as f64) * span) as u64)
            .collect();
        self.shuffle(&mut out);
        out
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it exists (also the `why` in `BENCHMARK.json`).
    pub why: &'static str,
    /// The served module, `examples/<example>.nsc`; requests call `main`.
    pub example: &'static str,
    /// Open-phase arrival rate, requests per second.
    pub open_rps: f64,
    /// The pool's inputs (each a `[N]` literal's elements).
    generate: fn(&mut SplitMix64) -> Vec<Vec<u64>>,
}

fn nat_seqs(
    rng: &mut SplitMix64,
    lens: (u64, u64),
    mut elem: impl FnMut(&mut SplitMix64, usize) -> u64,
) -> Vec<Vec<u64>> {
    let lens = rng.stratified(POOL, lens.0, lens.1);
    lens.iter()
        .enumerate()
        .map(|(i, &n)| (0..n).map(|_| elem(rng, i)).collect())
        .collect()
}

fn gen_small(rng: &mut SplitMix64) -> Vec<Vec<u64>> {
    nat_seqs(rng, (4, 12), |r, _| r.below(1000))
}

fn gen_branchy(rng: &mut SplitMix64) -> Vec<Vec<u64>> {
    nat_seqs(rng, (4, 12), |r, _| {
        if r.below(2) == 0 {
            0
        } else {
            1 + r.below(999)
        }
    })
}

fn gen_deep(rng: &mut SplitMix64) -> Vec<Vec<u64>> {
    // One bit-width per request: the deepest element sets the step count
    // of the whole `map(while …)`, so depth varies 4x between requests.
    let bits = rng.stratified(POOL, 4, 20);
    nat_seqs(rng, (8, 24), |r, i| r.below(1 << bits[i]))
}

fn gen_wide(rng: &mut SplitMix64) -> Vec<Vec<u64>> {
    nat_seqs(rng, (3072, 5120), |r, _| r.below(1000))
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pack_tiny",
        why: "square_plus_one on [N] of 4-12 elements: ~10 us of service, planner packs; \
              the result is all nsc-serve front, queue, batcher wait and socket",
        example: "square_plus_one",
        open_rps: 300.0,
        generate: gen_small,
    },
    Workload {
        name: "dispatch_small",
        why: "classify on [N] of 4-12 elements, half zeros: ~2.9k branchy instructions on short \
              vectors, planner picks lanes; bvram per-instruction dispatch dominates",
        example: "classify",
        open_rps: 300.0,
        generate: gen_branchy,
    },
    Workload {
        name: "loop_deep",
        why: "halve_all (map of while) on 8-24 elements of 4-20 bits: T' ~1e5 set by the deepest \
              element; 1.5 s cold compile and a 359k-instruction kernel load setup_s and RSS",
        example: "halve_all",
        open_rps: 50.0,
        generate: gen_deep,
    },
    Workload {
        name: "data_wide",
        why: "square_plus_one on [N] of 3072-5120 elements: 20-30 KB lines, T' = 11; JSON, \
              parse_value and the codecs dominate; same pack path as pack_tiny, long registers",
        example: "square_plus_one",
        open_rps: 100.0,
        generate: gen_wide,
    },
];

pub fn find(name: &str) -> Option<(usize, &'static Workload)> {
    WORKLOADS.iter().enumerate().find(|(_, w)| w.name == name)
}

/// Independent generator stream `lane` of `seed` for workload `index`.
fn stream(seed: u64, index: usize, lane: u64) -> SplitMix64 {
    let mut root = SplitMix64::new(seed ^ (index as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    for _ in 0..lane {
        root.next_u64();
    }
    SplitMix64::new(root.next_u64())
}

/// One pool entry: the input literal and the expected output literal.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolItem {
    pub input: String,
    pub expected: String,
}

/// A workload's request pool with its oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Pool {
    pub items: Vec<PoolItem>,
}

impl Pool {
    /// Generates workload `index`'s inputs from `seed` and derives every
    /// expected output with the Definition 3.1 evaluator on `main` — the
    /// reference semantics, never the compiler under test.
    pub fn build(seed: u64, index: usize, main: &Func) -> Result<Pool, String> {
        let inputs = (WORKLOADS[index].generate)(&mut stream(seed, index, 0));
        let items = inputs
            .into_iter()
            .map(|xs| {
                let v = Value::nat_seq(xs);
                let input = v.to_string();
                let (out, _) =
                    apply_func(main, v).map_err(|e| format!("evaluator failed on {input}: {e}"))?;
                Ok(PoolItem {
                    input,
                    expected: out.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Pool { items })
    }

    fn item(&self, k: u64) -> &PoolItem {
        &self.items[(k % self.items.len() as u64) as usize]
    }

    /// Appends request `k`'s line (with its newline) to `buf`.
    pub fn request_line(&self, k: u64, buf: &mut Vec<u8>) {
        use std::io::Write;
        let _ = writeln!(
            buf,
            "{{\"fn\": \"main\", \"input\": \"{}\", \"id\": {k}}}",
            self.item(k).input
        );
    }

    /// Whether `line` (no newline) is byte-for-byte the reply request `k`
    /// must get.  An `error`/`overloaded` reply, a reply to another id,
    /// and a one-byte difference all fail here.
    pub fn reply_ok(&self, k: u64, line: &[u8]) -> bool {
        let id = k.to_string();
        let parts: [&[u8]; 5] = [
            b"{\"id\": ",
            id.as_bytes(),
            b", \"output\": \"",
            self.item(k).expected.as_bytes(),
            b"\"}",
        ];
        let mut rest = line;
        for p in parts {
            match rest.strip_prefix(p) {
                Some(r) => rest = r,
                None => return false,
            }
        }
        rest.is_empty()
    }
}

/// Due times (seconds from phase start) of the open-loop arrival process
/// of round `round` at `rps` over `seconds`: exponential gaps, one from each of `n + 1`
/// equal-probability strata, shuffled and scaled to span the phase.  The
/// gaps' distribution and the realised rate are then the same for every
/// seed; the seed decides their order.
pub fn schedule(seed: u64, index: usize, round: u64, rps: f64, seconds: f64) -> Vec<f64> {
    let mut rng = stream(seed, index, 1 + round);
    let n = (rps * seconds).round().max(1.0) as usize;
    let mut gaps: Vec<f64> = (0..=n)
        .map(|i| -(1.0 - (i as f64 + rng.unit()) / (n + 1) as f64).ln())
        .collect();
    rng.shuffle(&mut gaps);
    let scale = seconds / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            t += g * scale;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_stream(seed: u64, index: usize) -> Vec<u8> {
        let src = std::fs::read_to_string(format!(
            "{}/../examples/{}.nsc",
            env!("CARGO_MANIFEST_DIR"),
            WORKLOADS[index].example
        ))
        .unwrap();
        let main = nsc_core::parse_module(&src)
            .unwrap()
            .inlined("main")
            .unwrap();
        let pool = Pool::build(seed, index, &main).unwrap();
        let mut buf = Vec::new();
        for k in 0..200 {
            pool.request_line(k, &mut buf);
        }
        buf
    }

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for index in 0..3 {
            let a = request_stream(1, index);
            assert_eq!(a, request_stream(1, index), "workload {index}");
            assert_ne!(a, request_stream(2, index), "workload {index}");
        }
        assert_ne!(request_stream(1, 0), request_stream(1, 1));
    }

    #[test]
    fn stratified_covers_the_range_evenly() {
        let mut r = SplitMix64::new(7);
        let xs = r.stratified(64, 4, 20);
        assert!(xs.iter().all(|&x| (4..=20).contains(&x)));
        for v in 4..=20 {
            let n = xs.iter().filter(|&&x| x == v).count();
            assert!((2..=5).contains(&n), "value {v} drawn {n} times");
        }
    }

    #[test]
    fn reply_oracle_accepts_only_the_exact_line() {
        let pool = Pool {
            items: vec![PoolItem {
                input: "[1]".into(),
                expected: "[2]".into(),
            }],
        };
        assert!(pool.reply_ok(7, br#"{"id": 7, "output": "[2]"}"#));
        assert!(!pool.reply_ok(7, br#"{"id": 8, "output": "[2]"}"#));
        assert!(!pool.reply_ok(7, br#"{"id": 7, "output": "[3]"}"#));
        assert!(!pool.reply_ok(7, br#"{"id": 7, "output": "[2]"} "#));
        assert!(!pool.reply_ok(
            7,
            br#"{"error": "admission queue full", "id": 7, "kind": "overloaded"}"#
        ));
    }

    #[test]
    fn schedule_holds_its_rate_and_order() {
        for (rps, secs) in [(300.0, 8.0), (50.0, 8.0), (100.0, 1.0)] {
            let s = schedule(1, 0, 0, rps, secs);
            let rate = s.len() as f64 / secs;
            assert!((rate / rps - 1.0).abs() < 0.02, "{rate} vs {rps}");
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
            assert!(*s.last().unwrap() < secs);
        }
        assert_ne!(schedule(1, 0, 0, 300.0, 8.0), schedule(2, 0, 0, 300.0, 8.0));
        assert_ne!(schedule(1, 0, 0, 300.0, 8.0), schedule(1, 0, 1, 300.0, 8.0));
    }
}

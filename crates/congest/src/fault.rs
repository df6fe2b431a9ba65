//! Deterministic fault injection for the simulated network.
//!
//! The model's default links are perfectly reliable; a [`FaultPlan`] makes
//! them misbehave in a *seeded, reproducible* way so robustness machinery
//! (the ack/retransmit envelope, the Las-Vegas APSP driver) can be
//! exercised and measured. Four fault kinds are injected:
//!
//! * **drop** — the message is transmitted but never delivered;
//! * **corrupt** — the message arrives damaged; links are checksummed, so
//!   the receiver detects and discards it (equivalent to a drop on the
//!   receive side, but counted separately);
//! * **duplicate** — the message is delivered twice;
//! * **crash** — a node fail-stops at a scheduled round: from then on it
//!   transmits nothing and everything addressed to it vanishes.
//!
//! Fault *accounting* follows the wire: dropped and corrupted messages are
//! still charged (the bits were transmitted), duplication is a
//! delivery-layer artifact (no extra charge), and a crashed sender's
//! messages are not charged (nothing was transmitted). Every injected fault
//! is counted in [`crate::Clique::fault_counts`] and, when a trace sink is
//! attached, written as an NDJSON `fault` event in the innermost open span.
//!
//! Fault fates are a pure function of `(plan seed, communication-call
//! counter, message index)` via a SplitMix64 finalizer, so a run with a
//! given plan is bit-reproducible and independent of the algorithm's own
//! RNG stream. An **empty** plan (all rates zero, no crashes) is
//! structurally inert: [`crate::Clique`] stores no fault state for it and
//! executes the exact unfaulted code path, which `tests/determinism.rs`
//! pins byte-for-byte.

use crate::node::NodeId;
use std::fmt;

/// The kind of an injected fault, as recorded in metrics and traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A message was dropped in transit.
    Drop,
    /// A message arrived corrupted and was discarded by the receiver.
    Corrupt,
    /// A message was delivered twice.
    Duplicate,
    /// A node fail-stopped (recorded once, at the crash).
    Crash,
}

impl FaultKind {
    /// The lowercase label used in NDJSON `fault` events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Crash => "crash",
        }
    }
}

/// Counts of injected faults by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Messages dropped in transit.
    pub drops: u64,
    /// Messages corrupted (detected and discarded by the receiver).
    pub corruptions: u64,
    /// Messages delivered twice.
    pub duplications: u64,
    /// Nodes that fail-stopped.
    pub crashes: u64,
}

impl FaultCounts {
    /// Folds one fault into the counts.
    pub fn record(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Drop => self.drops += 1,
            FaultKind::Corrupt => self.corruptions += 1,
            FaultKind::Duplicate => self.duplications += 1,
            FaultKind::Crash => self.crashes += 1,
        }
    }

    /// Total faults of every kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.drops + self.corruptions + self.duplications + self.crashes
    }
}

/// A seeded, deterministic schedule of network faults.
///
/// Rates are per-message probabilities in `[0, 1]`; `link_drop` overrides
/// the global drop rate on specific ordered links; `crashes` fail-stops
/// nodes once the network's total round count reaches the given round.
///
/// # Examples
///
/// ```
/// use qcc_congest::FaultPlan;
///
/// let plan = FaultPlan::parse("drop=0.05,corrupt=0.01,seed=7").unwrap();
/// assert!(!plan.is_empty());
/// assert_eq!(plan.seed, 7);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that a message is dropped in transit.
    pub drop_rate: f64,
    /// Probability that a surviving message arrives corrupted.
    pub corrupt_rate: f64,
    /// Probability that a surviving message is delivered twice.
    pub duplicate_rate: f64,
    /// Per-ordered-link drop-rate overrides (`(src, dst)` → rate).
    pub link_drop: Vec<((NodeId, NodeId), f64)>,
    /// Fail-stop schedule: `(node, round)` crashes `node` once the network
    /// has consumed at least `round` total rounds.
    pub crashes: Vec<(NodeId, u64)>,
    /// Seed of the deterministic fault stream.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            link_drop: Vec::new(),
            crashes: Vec::new(),
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// `true` when the plan injects nothing: the network then keeps the
    /// exact unfaulted code path (byte-identical round accounting).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drop_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.link_drop.is_empty()
            && self.crashes.is_empty()
    }

    /// Derives a plan with the same rates but a fresh seed, for retry
    /// attempts that must not deterministically re-hit the same faults.
    #[must_use]
    pub fn reseeded(&self, salt: u64) -> FaultPlan {
        let mut plan = self.clone();
        plan.seed = splitmix64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        plan
    }

    /// Parses the CLI fault spec: comma-separated `key=value` items with
    /// keys `drop`, `corrupt`, `dup` (rates in `[0, 1]`), `seed` (u64),
    /// `crash=NODE@ROUND` (repeatable), and `link=SRC>DST:RATE`
    /// (repeatable drop-rate override).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending item, its
    /// 1-based position in the comma-separated list, and its byte offset
    /// in the spec, e.g. `fault item 2 ("crash=3") at byte 10: crash spec
    /// "3" is not NODE@ROUND`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut offset = 0usize;
        for (idx, raw) in spec.split(',').enumerate() {
            let item_offset = offset + (raw.len() - raw.trim_start().len());
            offset += raw.len() + 1;
            let item = raw.trim();
            if item.is_empty() {
                continue;
            }
            let at = |what: String| {
                format!(
                    "fault item {} ({item:?}) at byte {item_offset}: {what}",
                    idx + 1
                )
            };
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| at(format!("{item:?} is not key=value")))?;
            let (key, value) = (key.trim(), value.trim());
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| at(format!("fault rate {v:?} is not a number")))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(at(format!("fault rate {v} is outside [0, 1]")));
                }
                Ok(r)
            };
            match key {
                "drop" => plan.drop_rate = rate(value)?,
                "corrupt" => plan.corrupt_rate = rate(value)?,
                "dup" => plan.duplicate_rate = rate(value)?,
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| at(format!("fault seed {value:?} is not a u64")))?;
                }
                "crash" => {
                    let (node, round) = value
                        .split_once('@')
                        .ok_or_else(|| at(format!("crash spec {value:?} is not NODE@ROUND")))?;
                    let node: usize = node
                        .parse()
                        .map_err(|_| at(format!("crash node {node:?} is not an index")))?;
                    let round: u64 = round
                        .parse()
                        .map_err(|_| at(format!("crash round {round:?} is not a u64")))?;
                    plan.crashes.push((NodeId::new(node), round));
                }
                "link" => {
                    let (pair, r) = value
                        .split_once(':')
                        .ok_or_else(|| at(format!("link spec {value:?} is not SRC>DST:RATE")))?;
                    let (src, dst) = pair
                        .split_once('>')
                        .ok_or_else(|| at(format!("link spec {value:?} is not SRC>DST:RATE")))?;
                    let src: usize = src
                        .parse()
                        .map_err(|_| at(format!("link src {src:?} is not an index")))?;
                    let dst: usize = dst
                        .parse()
                        .map_err(|_| at(format!("link dst {dst:?} is not an index")))?;
                    plan.link_drop
                        .push(((NodeId::new(src), NodeId::new(dst)), rate(r)?));
                }
                other => return Err(at(format!("unknown fault key {other:?}"))),
            }
        }
        Ok(plan)
    }

    /// The canonical spec string of this plan, in [`FaultPlan::parse`]'s
    /// grammar. Default-valued fields are omitted, so an empty plan yields
    /// the empty string; `parse(plan.to_spec())` reconstructs the plan
    /// exactly (rates print in Rust's shortest round-trip `f64` form).
    /// Benches use this to log each grid cell's exact fault configuration.
    #[must_use]
    pub fn to_spec(&self) -> String {
        let mut items: Vec<String> = Vec::new();
        if self.drop_rate != 0.0 {
            items.push(format!("drop={}", self.drop_rate));
        }
        if self.corrupt_rate != 0.0 {
            items.push(format!("corrupt={}", self.corrupt_rate));
        }
        if self.duplicate_rate != 0.0 {
            items.push(format!("dup={}", self.duplicate_rate));
        }
        for ((src, dst), rate) in &self.link_drop {
            items.push(format!("link={}>{}:{}", src.index(), dst.index(), rate));
        }
        for (node, round) in &self.crashes {
            items.push(format!("crash={}@{}", node.index(), round));
        }
        if self.seed != 0 {
            items.push(format!("seed={}", self.seed));
        }
        items.join(",")
    }
}

impl fmt::Display for FaultPlan {
    /// Formats the plan as its canonical parseable spec (see
    /// [`FaultPlan::to_spec`]); an empty plan prints as `(no faults)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() && self.seed == 0 {
            write!(f, "(no faults)")
        } else {
            write!(f, "{}", self.to_spec())
        }
    }
}

/// The fate the fault stream assigns to one transmitted message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MsgFate {
    Deliver,
    Drop,
    Corrupt,
    Duplicate,
}

/// Live fault state of a [`crate::Clique`]: the plan plus the per-call
/// counter driving the deterministic fault stream and the crash flags.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// Communication calls seen so far (each call advances the stream).
    calls: u64,
    /// The hash prefix every draw of the current call shares,
    /// `splitmix64(seed ^ calls · CALL_MIX)`.
    call_key: u64,
    crashed: Vec<bool>,
    any_crashed: bool,
}

/// Odd multipliers spreading the call counter and the message index over
/// the 64-bit hash input.
const CALL_MIX: u64 = 0xff51_afd7_ed55_8ccd;
const MESSAGE_MIX: u64 = 0xc4ce_b9fe_1a85_ec53;

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, n: usize) -> Self {
        FaultState {
            call_key: splitmix64(plan.seed),
            plan,
            calls: 0,
            crashed: vec![false; n],
            any_crashed: false,
        }
    }

    /// Advances the per-call stream counter. Called once at the start of
    /// every communication call (including the envelope's internal waves).
    pub(crate) fn begin_call(&mut self) {
        self.calls += 1;
        self.call_key = splitmix64(self.plan.seed ^ self.calls.wrapping_mul(CALL_MIX));
    }

    /// Marks nodes whose crash round has been reached; returns how many
    /// crashed just now (each is recorded as one `crash` fault). A crash of
    /// a node the network lacks never fires, like a `link` entry naming
    /// one.
    pub(crate) fn update_crashes(&mut self, rounds_so_far: u64) -> u64 {
        let mut newly = 0;
        for &(node, round) in &self.plan.crashes {
            if rounds_so_far >= round {
                let Some(slot) = self.crashed.get_mut(node.index()) else {
                    continue;
                };
                if !*slot {
                    *slot = true;
                    self.any_crashed = true;
                    newly += 1;
                }
            }
        }
        newly
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.any_crashed && self.crashed[node.index()]
    }

    /// The deterministic fate of message `idx` of the current call on the
    /// ordered link `src → dst`.
    ///
    /// Each draw is a uniform `[0, 1)` sample of `(call, message, salt)`,
    /// independent of the simulated algorithm's RNG: the message's key
    /// `splitmix64(call_key ^ idx · MESSAGE_MIX)` mixed once more with the
    /// salt (0 drop, 1 corrupt, 2 duplicate).
    pub(crate) fn fate(&self, idx: u64, src: NodeId, dst: NodeId) -> MsgFate {
        let drop_rate = self
            .plan
            .link_drop
            .iter()
            .find(|((s, d), _)| *s == src && *d == dst)
            .map_or(self.plan.drop_rate, |(_, r)| *r);
        let key = splitmix64(self.call_key ^ idx.wrapping_mul(MESSAGE_MIX));
        let unit = |salt: u64| (splitmix64(key ^ salt) >> 11) as f64 / (1u64 << 53) as f64;
        if drop_rate > 0.0 && unit(0) < drop_rate {
            return MsgFate::Drop;
        }
        if self.plan.corrupt_rate > 0.0 && unit(1) < self.plan.corrupt_rate {
            return MsgFate::Corrupt;
        }
        if self.plan.duplicate_rate > 0.0 && unit(2) < self.plan.duplicate_rate {
            return MsgFate::Duplicate;
        }
        MsgFate::Deliver
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Network configuration bundle: fault plan plus reliable-delivery
/// envelope, applied together to a [`crate::Clique`].
///
/// Algorithms that build their networks internally (the APSP pipelines)
/// take a `NetConfig` and call [`NetConfig::apply`] right after
/// construction; the default config applies nothing and leaves the
/// network on its exact unfaulted code path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetConfig {
    /// Faults to inject, if any.
    pub faults: Option<FaultPlan>,
    /// Reliable-delivery envelope to arm, if any.
    pub reliable: Option<crate::reliable::ReliableConfig>,
}

impl NetConfig {
    /// A config that injects `faults` and arms the default envelope.
    #[must_use]
    pub fn faulty(plan: FaultPlan) -> Self {
        NetConfig {
            faults: Some(plan),
            reliable: Some(crate::reliable::ReliableConfig::default()),
        }
    }

    /// `true` when applying this config changes nothing.
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.faults.as_ref().is_none_or(FaultPlan::is_empty) && self.reliable.is_none()
    }

    /// Applies the config to a freshly built network.
    pub fn apply(&self, net: &mut crate::Clique) {
        if let Some(plan) = &self.faults {
            net.set_fault_plan(plan.clone());
        }
        if let Some(cfg) = self.reliable {
            net.set_reliable_delivery(cfg);
        }
    }

    /// Derives the config for retry attempt `salt`: same rates and
    /// envelope, fresh fault seed (see [`FaultPlan::reseeded`]).
    #[must_use]
    pub fn reseeded(&self, salt: u64) -> NetConfig {
        NetConfig {
            faults: self.faults.as_ref().map(|p| p.reseeded(salt)),
            reliable: self.reliable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        let plan = FaultPlan {
            drop_rate: 0.1,
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty());
        // A seed alone injects nothing.
        let seeded = FaultPlan {
            seed: 42,
            ..FaultPlan::default()
        };
        assert!(seeded.is_empty());
    }

    #[test]
    fn parse_round_trips_every_key() {
        let plan =
            FaultPlan::parse("drop=0.05,corrupt=0.01,dup=0.02,seed=9,crash=3@100,link=0>1:0.5")
                .unwrap();
        assert_eq!(plan.drop_rate, 0.05);
        assert_eq!(plan.corrupt_rate, 0.01);
        assert_eq!(plan.duplicate_rate, 0.02);
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.crashes, vec![(NodeId::new(3), 100)]);
        assert_eq!(
            plan.link_drop,
            vec![((NodeId::new(0), NodeId::new(1)), 0.5)]
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("drop=-0.1").is_err());
        assert!(FaultPlan::parse("warp=0.1").is_err());
        assert!(FaultPlan::parse("crash=3").is_err());
        assert!(FaultPlan::parse("link=0:0.5").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn to_spec_round_trips_through_parse() {
        let spec = "drop=0.05,corrupt=0.01,dup=0.02,link=0>1:0.5,crash=3@100,seed=9";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_spec(), spec, "canonical order and formatting");
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
        // Empty plan: empty spec, parses back to the default.
        assert_eq!(FaultPlan::default().to_spec(), "");
        assert_eq!(
            FaultPlan::parse(&FaultPlan::default().to_spec()).unwrap(),
            FaultPlan::default()
        );
        // A bare seed still round-trips even though the plan is "empty".
        let seeded = FaultPlan {
            seed: 42,
            ..FaultPlan::default()
        };
        assert_eq!(seeded.to_spec(), "seed=42");
        assert_eq!(FaultPlan::parse(&seeded.to_spec()).unwrap(), seeded);
    }

    #[test]
    fn display_is_the_spec_or_a_placeholder() {
        let plan = FaultPlan::parse("drop=0.1,seed=3").unwrap();
        assert_eq!(plan.to_string(), "drop=0.1,seed=3");
        assert_eq!(FaultPlan::default().to_string(), "(no faults)");
    }

    #[test]
    fn parse_errors_name_token_and_position() {
        // "drop=0.05," is 10 bytes, so the bad item starts at byte 10 and
        // is the second comma-separated item.
        let err = FaultPlan::parse("drop=0.05,crash=3").unwrap_err();
        assert!(err.contains("item 2"), "{err}");
        assert!(err.contains("byte 10"), "{err}");
        assert!(err.contains("\"crash=3\""), "{err}");
        // Leading whitespace does not shift the reported token start.
        let err = FaultPlan::parse("drop=0.05, warp=1").unwrap_err();
        assert!(err.contains("byte 11"), "{err}");
        assert!(err.contains("\"warp=1\""), "{err}");
        let err = FaultPlan::parse("drop=nope").unwrap_err();
        assert!(err.contains("item 1") && err.contains("byte 0"), "{err}");
    }

    #[test]
    fn fates_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan {
            drop_rate: 0.3,
            corrupt_rate: 0.1,
            duplicate_rate: 0.1,
            seed: 1,
            ..FaultPlan::default()
        };
        let mut a = FaultState::new(plan.clone(), 4);
        let mut b = FaultState::new(plan.clone(), 4);
        a.begin_call();
        b.begin_call();
        let fates_a: Vec<_> = (0..64)
            .map(|i| a.fate(i, NodeId::new(0), NodeId::new(1)))
            .collect();
        let fates_b: Vec<_> = (0..64)
            .map(|i| b.fate(i, NodeId::new(0), NodeId::new(1)))
            .collect();
        assert_eq!(fates_a, fates_b);
        assert!(fates_a.contains(&MsgFate::Drop));
        assert!(fates_a.contains(&MsgFate::Deliver));

        let mut c = FaultState::new(plan.reseeded(7), 4);
        c.begin_call();
        let fates_c: Vec<_> = (0..64)
            .map(|i| c.fate(i, NodeId::new(0), NodeId::new(1)))
            .collect();
        assert_ne!(fates_a, fates_c, "reseeding must change the stream");
    }

    #[test]
    fn fate_stream_advances_per_call() {
        let plan = FaultPlan {
            drop_rate: 0.5,
            seed: 3,
            ..FaultPlan::default()
        };
        let mut s = FaultState::new(plan, 4);
        s.begin_call();
        let first: Vec<_> = (0..32)
            .map(|i| s.fate(i, NodeId::new(0), NodeId::new(1)))
            .collect();
        s.begin_call();
        let second: Vec<_> = (0..32)
            .map(|i| s.fate(i, NodeId::new(0), NodeId::new(1)))
            .collect();
        assert_ne!(first, second, "each call must see fresh fault randomness");
    }

    #[test]
    fn link_override_beats_global_rate() {
        let plan = FaultPlan {
            drop_rate: 0.0,
            link_drop: vec![((NodeId::new(0), NodeId::new(1)), 1.0)],
            seed: 5,
            ..FaultPlan::default()
        };
        let mut s = FaultState::new(plan, 4);
        s.begin_call();
        for i in 0..8 {
            assert_eq!(s.fate(i, NodeId::new(0), NodeId::new(1)), MsgFate::Drop);
            assert_eq!(s.fate(i, NodeId::new(1), NodeId::new(0)), MsgFate::Deliver);
        }
    }

    /// The fault stream as first written: three SplitMix64 rounds from the
    /// seed for every draw, `unit = splitmix64(splitmix64(splitmix64(seed ^
    /// calls·K₁) ^ idx·K₂) ^ salt)`.
    fn reference_fate(plan: &FaultPlan, calls: u64, idx: u64, src: NodeId, dst: NodeId) -> MsgFate {
        let unit = |salt: u64| {
            let mut h = plan.seed;
            h = splitmix64(h ^ calls.wrapping_mul(0xff51_afd7_ed55_8ccd));
            h = splitmix64(h ^ idx.wrapping_mul(0xc4ce_b9fe_1a85_ec53));
            h = splitmix64(h ^ salt);
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let drop_rate = plan
            .link_drop
            .iter()
            .find(|((s, d), _)| *s == src && *d == dst)
            .map_or(plan.drop_rate, |(_, r)| *r);
        if drop_rate > 0.0 && unit(0) < drop_rate {
            return MsgFate::Drop;
        }
        if plan.corrupt_rate > 0.0 && unit(1) < plan.corrupt_rate {
            return MsgFate::Corrupt;
        }
        if plan.duplicate_rate > 0.0 && unit(2) < plan.duplicate_rate {
            return MsgFate::Duplicate;
        }
        MsgFate::Deliver
    }

    #[test]
    fn hoisted_stream_matches_the_three_hash_formula() {
        let mut gen = 0x5eed_u64;
        let mut next = || {
            gen = splitmix64(gen);
            gen
        };
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let mut seen = [0u64; 4];
        for _ in 0..24 {
            let seed = next();
            // Every zero/non-zero combination of the three rates, with and
            // without an override that silences `a → b` or drops on it
            // while the global drop rate is zero.
            for mask in 0..8u8 {
                for link_drop in [vec![], vec![((a, b), 0.0)], vec![((a, b), 0.6)]] {
                    let rate = |bit: u8, r: f64| if mask & bit != 0 { r } else { 0.0 };
                    let plan = FaultPlan {
                        drop_rate: rate(1, 0.3),
                        corrupt_rate: rate(2, 0.25),
                        duplicate_rate: rate(4, 0.2),
                        link_drop,
                        seed,
                        ..FaultPlan::default()
                    };
                    let mut state = FaultState::new(plan.clone(), 3);
                    for calls in 0..5u64 {
                        if calls > 0 {
                            state.begin_call();
                        }
                        let small = 0..16u64;
                        let large = (0..8).map(|_| next() % (1u64 << 40) + 1);
                        let top = [(1u64 << 40) - 1, 1u64 << 40];
                        for idx in small.chain(large).chain(top) {
                            for (src, dst) in [(a, b), (b, a), (a, c)] {
                                let fate = state.fate(idx, src, dst);
                                assert_eq!(
                                    fate,
                                    reference_fate(&plan, calls, idx, src, dst),
                                    "seed {seed:#x}, mask {mask}, call {calls}, idx {idx}"
                                );
                                seen[fate as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&count| count > 0),
            "every fate drawn: {seen:?}"
        );
    }

    #[test]
    fn crashes_trigger_at_their_round() {
        let plan = FaultPlan {
            crashes: vec![(NodeId::new(2), 10)],
            ..FaultPlan::default()
        };
        let mut s = FaultState::new(plan, 4);
        assert_eq!(s.update_crashes(9), 0);
        assert!(!s.is_crashed(NodeId::new(2)));
        assert_eq!(s.update_crashes(10), 1);
        assert!(s.is_crashed(NodeId::new(2)));
        // Only counted once.
        assert_eq!(s.update_crashes(11), 0);
    }

    #[test]
    fn fault_counts_accumulate() {
        let mut c = FaultCounts::default();
        c.record(FaultKind::Drop);
        c.record(FaultKind::Drop);
        c.record(FaultKind::Corrupt);
        c.record(FaultKind::Duplicate);
        c.record(FaultKind::Crash);
        assert_eq!(c.drops, 2);
        assert_eq!(c.total(), 5);
    }
}

//! Reliable delivery over a faulty network: ack/retransmit with bounded
//! retries and deterministic backoff.
//!
//! When a [`crate::Clique`] has both a non-empty [`crate::FaultPlan`] and a
//! [`ReliableConfig`], every communication primitive transparently runs
//! this envelope protocol instead of raw delivery:
//!
//! 1. each message carries a per-call sequence number, so its *sealed
//!    width* on the wire is `⌈log₂ #messages⌉` bits plus its payload's
//!    bits;
//! 2. the pending messages are transmitted at their sealed widths with the
//!    raw primitive (faults apply); receivers deduplicate by sequence
//!    number and return one ack (the sequence number) per received copy —
//!    the ack wave is itself subject to faults;
//! 3. the sender retransmits every unacked message, after charging
//!    `backoff_base · wave` idle rounds of deterministic backoff;
//! 4. after `1 + max_retries` waves with survivors, the call fails with
//!    [`crate::CongestError::NodeCrashed`] (some undelivered message has a
//!    fail-stopped endpoint — no retry count can save it) or
//!    [`crate::CongestError::DeliveryFailed`].
//!
//! Every wave is charged honestly through the normal accounting path:
//! retry rounds, ack rounds, and backoff rounds all land in the metrics
//! and the trace. The envelope only engages when faults are present; with
//! an empty fault plan the primitives keep their exact raw code path, so
//! round counts stay byte-identical (pinned by `tests/determinism.rs`).
//!
//! On the host the waves never touch a payload. What goes on the wire is a
//! function of each message's link and sealed width, and what arrives is a
//! function of the fault stream, so a wave is the raw primitive's charge
//! over the pending sequence numbers followed by its fate draws, and the
//! acks are read off the arriving copies by one counting pass. Once every
//! message is acked each was accepted exactly once, so the payloads move
//! once, into the inboxes a reliable network would have filled.

use crate::envelope::{Envelope, Inboxes};
use crate::error::CongestError;
use crate::network::{Clique, Wave};
use crate::payload::{bits_for_count, Payload};

/// Configuration of the ack/retransmit envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Retransmit waves allowed after the initial send.
    pub max_retries: u32,
    /// Idle rounds charged before retransmit wave `w` are
    /// `backoff_base · w` (linear, deterministic backoff).
    pub backoff_base: u64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            max_retries: 8,
            backoff_base: 1,
        }
    }
}

impl Clique {
    /// Runs one communication call through the ack/retransmit envelope.
    ///
    /// Preconditions: endpoints are validated, [`Clique::envelope_active`]
    /// is true, and the bit-size cache holds each send's payload width.
    /// `wave` is the primitive that carries the data waves. Returns the
    /// same inboxes the raw primitive would produce on a reliable network
    /// (payloads in send order per `(dst, src)` pair), or
    /// [`CongestError::NodeCrashed`] / [`CongestError::DeliveryFailed`]
    /// when the retry budget runs out.
    pub(crate) fn deliver_reliably<T: Payload>(
        &mut self,
        sends: Vec<Envelope<T>>,
        wave: Wave,
    ) -> Result<Inboxes<T>, CongestError> {
        let cfg = self.reliable.expect("envelope_active implies a config");
        let total = sends.len();
        let seq_bits = bits_for_count(total.max(2));
        let sealed: Vec<u64> = self.bit_sizes().iter().map(|&b| seq_bits + b).collect();
        let link = |seq: usize| (sends[seq].src, sends[seq].dst);
        // Unacked sequence numbers in submission order, the sender-side ack
        // bookkeeping, and the sequence number behind each ack of a wave.
        let mut pending: Vec<usize> = (0..total).collect();
        let mut acked = vec![false; total];
        let mut acks: Vec<usize> = Vec::new();
        let mut waves = 0u32;
        while !pending.is_empty() && waves <= cfg.max_retries {
            if waves > 0 {
                // Deterministic linear backoff before each retransmit wave,
                // charged as idle rounds.
                self.charge_rounds(cfg.backoff_base * u64::from(waves));
            }
            waves += 1;
            self.set_bit_sizes(pending.iter().map(|&seq| sealed[seq]));
            let data = pending.iter().map(|&seq| link(seq));
            self.charge_wave(data.clone(), wave);
            self.resolve_fates(data);
            // Receivers ack every copy they see (re-acking tells a sender
            // whose earlier ack was lost), in delivery order.
            let copies = pending.iter().map(|&seq| {
                let (src, dst) = link(seq);
                (src, dst, seq)
            });
            self.arrivals_in_delivery_order(copies, &mut acks);
            // The ack wave rides the direct links and is itself faultable.
            if !acks.is_empty() {
                self.set_bit_sizes(std::iter::repeat_n(seq_bits, acks.len()));
                let reverse = acks.iter().map(|&seq| {
                    let (src, dst) = link(seq);
                    (dst, src)
                });
                self.charge_wave(reverse.clone(), Wave::Exchange("ack"));
                let arrived = self.resolve_fates(reverse);
                for (&seq, &copies) in acks.iter().zip(arrived) {
                    if copies > 0 {
                        acked[seq] = true;
                    }
                }
            }
            pending.retain(|&seq| !acked[seq]);
        }
        if !pending.is_empty() {
            if let Some(faults) = &self.faults {
                for &seq in &pending {
                    let (src, dst) = link(seq);
                    for node in [src, dst] {
                        if faults.is_crashed(node) {
                            return Err(CongestError::NodeCrashed {
                                node,
                                phase: self.phase_label(),
                            });
                        }
                    }
                }
            }
            return Err(CongestError::DeliveryFailed {
                phase: self.phase_label(),
                undelivered: pending.len() as u64,
                attempts: waves,
            });
        }
        // Every message was accepted exactly once: the inboxes are the
        // fault-free placement of the original sends.
        Ok(self.place(sends, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_bounds_retries() {
        let cfg = ReliableConfig::default();
        assert_eq!(cfg.max_retries, 8);
        assert_eq!(cfg.backoff_base, 1);
    }
}

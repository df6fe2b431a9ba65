//! The table-driven [`Decoder`] against the decoder it replaced.
//!
//! `reference` holds the previous implementation verbatim: peasant
//! GF(256) products, per-packet copies, whole-packet elimination. Both
//! decoders are fed the same seeded streams — packets from the source and
//! from partially ranked relays, duplicates, all-zero coefficient vectors,
//! uniformly random coefficient vectors and malformed geometry — over
//! every geometry with `chunks` in 1..=12 and `chunk_bytes` in 0..=64.
//! After every packet the verdicts, ranks and decodes must agree, and
//! every emitted packet and the emitter's RNG state afterwards must be
//! byte-equal.

use qcc_congest::rlnc::{CodedPacket, Decoder, PacketRng};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The decoder as it was before the product table, kept as the model the
/// library decoder must match byte for byte.
mod reference {
    use qcc_congest::rlnc::{CodedPacket, PacketRng};

    /// GF(256) addition (and subtraction): XOR.
    #[inline]
    #[must_use]
    pub fn gf_add(a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// GF(256) multiplication with the 0x11b reduction polynomial.
    #[inline]
    #[must_use]
    pub fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let carry = a & 0x80;
            a <<= 1;
            if carry != 0 {
                a ^= 0x1b;
            }
            b >>= 1;
        }
        acc
    }

    /// GF(256) multiplicative inverse via `a²⁵⁴` (254 = 0b1111_1110).
    ///
    /// # Panics
    ///
    /// Panics on `a == 0`, which has no inverse; the decoder only inverts
    /// pivot elements, which are nonzero by construction.
    #[must_use]
    pub fn gf_inv(a: u8) -> u8 {
        assert_ne!(a, 0, "zero has no inverse in GF(256)");
        let mut result = 1u8;
        let mut base = a;
        let mut exp = 254u32;
        while exp != 0 {
            if exp & 1 != 0 {
                result = gf_mul(result, base);
            }
            base = gf_mul(base, base);
            exp >>= 1;
        }
        result
    }

    /// Incremental GF(256) Gaussian-elimination decoder.
    ///
    /// Holds up to `chunks` pivot rows in reduced form. [`Decoder::absorb`]
    /// folds in a received packet; once the rank reaches `chunks`,
    /// [`Decoder::decode`] reconstructs the framed block.
    ///
    /// # Examples
    ///
    /// ```
    /// use qcc_congest::rlnc::{split_block, unframe, Decoder, PacketRng};
    ///
    /// let block = b"the quick brown fox".to_vec();
    /// let chunks = split_block(&block, 4);
    /// let src = Decoder::source(&chunks);
    /// let mut rng = PacketRng::new(7);
    /// let mut sink = Decoder::new(4, chunks[0].len());
    /// while !sink.is_full() {
    ///     let p = src.emit(&mut rng).unwrap();
    ///     sink.absorb(&p.coeffs, &p.data);
    /// }
    /// let framed = sink.decode().unwrap();
    /// assert_eq!(unframe(&framed).unwrap(), block);
    /// ```
    #[derive(Clone, Debug)]
    pub struct Decoder {
        chunks: usize,
        chunk_bytes: usize,
        /// Pivot rows: `rows[i]`, when present, has its leading nonzero
        /// coefficient (normalized to 1) in column `i`.
        rows: Vec<Option<(Vec<u8>, Vec<u8>)>>,
        rank: usize,
    }

    impl Decoder {
        /// An empty decoder expecting `chunks` chunks of `chunk_bytes` each.
        ///
        /// # Panics
        ///
        /// Panics when `chunks == 0`.
        #[must_use]
        pub fn new(chunks: usize, chunk_bytes: usize) -> Self {
            assert!(chunks > 0, "need at least one chunk");
            Decoder {
                chunks,
                chunk_bytes,
                rows: vec![None; chunks],
                rank: 0,
            }
        }

        /// A full-rank decoder seeded with the source chunks themselves
        /// (identity coefficient rows) — how the broadcast source starts.
        #[must_use]
        pub fn source(chunks: &[Vec<u8>]) -> Self {
            let k = chunks.len();
            let chunk_bytes = chunks.first().map_or(0, Vec::len);
            let mut d = Decoder::new(k, chunk_bytes);
            for (i, chunk) in chunks.iter().enumerate() {
                let mut coeffs = vec![0u8; k];
                coeffs[i] = 1;
                d.absorb(&coeffs, chunk);
            }
            debug_assert!(d.is_full());
            d
        }

        /// Number of source chunks this decoder expects.
        #[must_use]
        pub fn chunks(&self) -> usize {
            self.chunks
        }

        /// Linearly independent packets held so far.
        #[must_use]
        pub fn rank(&self) -> usize {
            self.rank
        }

        /// Whether the decoder can reconstruct the block.
        #[must_use]
        pub fn is_full(&self) -> bool {
            self.rank == self.chunks
        }

        /// Folds in a received packet. Returns `true` iff the packet was
        /// *innovative* (raised the rank); redundant packets return `false`
        /// and are counted as wasted bandwidth by the transport.
        pub fn absorb(&mut self, coeffs: &[u8], data: &[u8]) -> bool {
            if coeffs.len() != self.chunks || data.len() != self.chunk_bytes {
                return false; // malformed packet: wrong geometry for this block
            }
            let mut c = coeffs.to_vec();
            let mut d = data.to_vec();
            for col in 0..self.chunks {
                if c[col] == 0 {
                    continue;
                }
                match &self.rows[col] {
                    Some((pc, pd)) => {
                        // Eliminate this column against the stored pivot.
                        let factor = c[col];
                        for (x, p) in c.iter_mut().zip(pc) {
                            *x = gf_add(*x, gf_mul(factor, *p));
                        }
                        for (x, p) in d.iter_mut().zip(pd) {
                            *x = gf_add(*x, gf_mul(factor, *p));
                        }
                    }
                    None => {
                        // New pivot: normalize the leading coefficient to 1.
                        let inv = gf_inv(c[col]);
                        for x in &mut c {
                            *x = gf_mul(*x, inv);
                        }
                        for x in &mut d {
                            *x = gf_mul(*x, inv);
                        }
                        self.rows[col] = Some((c, d));
                        self.rank += 1;
                        return true;
                    }
                }
            }
            false
        }

        /// Emits a fresh random combination of the rows held so far, or
        /// `None` when the decoder has heard nothing yet. At least one
        /// nonzero weight is forced so the packet is never the zero vector.
        #[must_use]
        pub fn emit(&self, rng: &mut PacketRng) -> Option<CodedPacket> {
            let held: Vec<&(Vec<u8>, Vec<u8>)> = self.rows.iter().flatten().collect();
            if held.is_empty() {
                return None;
            }
            let mut weights: Vec<u8> = held.iter().map(|_| rng.next_byte()).collect();
            if weights.iter().all(|&w| w == 0) {
                weights[0] = 1;
            }
            let mut coeffs = vec![0u8; self.chunks];
            let mut data = vec![0u8; self.chunk_bytes];
            for (&w, (pc, pd)) in weights.iter().zip(&held) {
                if w == 0 {
                    continue;
                }
                for (x, p) in coeffs.iter_mut().zip(pc) {
                    *x = gf_add(*x, gf_mul(w, *p));
                }
                for (x, p) in data.iter_mut().zip(pd) {
                    *x = gf_add(*x, gf_mul(w, *p));
                }
            }
            Some(CodedPacket { coeffs, data })
        }

        /// Reconstructs the framed block by back-substitution, or `None`
        /// before full rank.
        #[must_use]
        pub fn decode(&self) -> Option<Vec<u8>> {
            if !self.is_full() {
                return None;
            }
            // Back-substitute from the last pivot upward so every row ends as
            // a pure unit vector, then concatenate the payloads in order.
            let mut rows: Vec<(Vec<u8>, Vec<u8>)> =
                self.rows.iter().map(|r| r.clone().unwrap()).collect();
            for col in (0..self.chunks).rev() {
                let (pc, pd) = rows[col].clone();
                debug_assert_eq!(pc[col], 1);
                for (above_c, above_d) in rows.iter_mut().take(col) {
                    let factor = above_c[col];
                    if factor == 0 {
                        continue;
                    }
                    for (x, p) in above_c.iter_mut().zip(&pc) {
                        *x = gf_add(*x, gf_mul(factor, *p));
                    }
                    for (x, p) in above_d.iter_mut().zip(&pd) {
                        *x = gf_add(*x, gf_mul(factor, *p));
                    }
                }
            }
            let mut out = Vec::with_capacity(self.chunks * self.chunk_bytes);
            for (_, d) in rows {
                out.extend_from_slice(&d);
            }
            Some(out)
        }
    }
}

/// A library decoder and a reference decoder that see the same inputs,
/// with one coefficient stream each, seeded alike.
struct Twin {
    lib: Decoder,
    model: reference::Decoder,
    lib_rng: PacketRng,
    model_rng: PacketRng,
}

impl Twin {
    fn new(chunks: usize, chunk_bytes: usize, seed: u64) -> Self {
        Twin {
            lib: Decoder::new(chunks, chunk_bytes),
            model: reference::Decoder::new(chunks, chunk_bytes),
            lib_rng: PacketRng::new(seed),
            model_rng: PacketRng::new(seed),
        }
    }

    fn source(parts: &[Vec<u8>], seed: u64) -> Self {
        let twin = Twin {
            lib: Decoder::source(parts),
            model: reference::Decoder::source(parts),
            lib_rng: PacketRng::new(seed),
            model_rng: PacketRng::new(seed),
        };
        twin.assert_agree("source");
        twin
    }

    fn assert_agree(&self, ctx: &str) {
        assert_eq!(self.lib.chunks(), self.model.chunks(), "{ctx}: chunks");
        assert_eq!(self.lib.rank(), self.model.rank(), "{ctx}: rank");
        assert_eq!(self.lib.is_full(), self.model.is_full(), "{ctx}: full");
        assert_eq!(self.lib.decode(), self.model.decode(), "{ctx}: decode");
    }

    fn absorb(&mut self, coeffs: &[u8], data: &[u8], ctx: &str) -> bool {
        let verdict = self.lib.absorb(coeffs, data);
        assert_eq!(verdict, self.model.absorb(coeffs, data), "{ctx}: verdict");
        self.assert_agree(ctx);
        verdict
    }

    fn emit(&mut self, ctx: &str) -> Option<CodedPacket> {
        let packet = self.lib.emit(&mut self.lib_rng);
        assert_eq!(packet, self.model.emit(&mut self.model_rng), "{ctx}: emit");
        assert_eq!(
            self.lib_rng.clone().next_u64(),
            self.model_rng.clone().next_u64(),
            "{ctx}: RNG state after emit"
        );
        packet
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen::<u32>() as u8).collect()
}

/// One seeded stream over one geometry: a source, two relays that fill
/// up partially, and a sink, fed until the sink is full and a little past.
fn drive(chunks: usize, chunk_bytes: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let parts: Vec<Vec<u8>> = (0..chunks)
        .map(|_| random_bytes(&mut rng, chunk_bytes))
        .collect();
    let mut source = Twin::source(&parts, seed ^ 1);
    let mut relays = [
        Twin::new(chunks, chunk_bytes, seed ^ 2),
        Twin::new(chunks, chunk_bytes, seed ^ 3),
    ];
    let mut sink = Twin::new(chunks, chunk_bytes, seed ^ 4);
    let mut delivered: Vec<CodedPacket> = Vec::new();
    let mut past_full = 0;
    for step in 0..40 * chunks + 200 {
        if sink.lib.is_full() {
            past_full += 1;
            if past_full > 8 {
                break;
            }
        }
        let ctx = format!("chunks={chunks} chunk_bytes={chunk_bytes} seed={seed} step={step}");
        let r = rng.gen_range(0..2usize);
        match rng.gen_range(0..12u32) {
            0..=2 => {
                let p = source.emit(&ctx).expect("the source is full");
                relays[r].absorb(&p.coeffs, &p.data, &ctx);
            }
            3..=5 => {
                if let Some(p) = relays[r].emit(&ctx) {
                    sink.absorb(&p.coeffs, &p.data, &ctx);
                    relays[1 - r].absorb(&p.coeffs, &p.data, &ctx);
                    delivered.push(p);
                }
            }
            6 => {
                let p = source.emit(&ctx).expect("the source is full");
                sink.absorb(&p.coeffs, &p.data, &ctx);
                delivered.push(p);
            }
            7 => {
                if let Some(p) = sink.emit(&ctx) {
                    relays[r].absorb(&p.coeffs, &p.data, &ctx);
                    // A node's own combination is never innovative to it.
                    assert!(!sink.absorb(&p.coeffs, &p.data, &ctx), "{ctx}");
                }
            }
            8 => {
                if !delivered.is_empty() {
                    let p = delivered[rng.gen_range(0..delivered.len())].clone();
                    assert!(!sink.absorb(&p.coeffs, &p.data, &ctx), "{ctx}: duplicate");
                }
            }
            9 => {
                let data = random_bytes(&mut rng, chunk_bytes);
                assert!(!sink.absorb(&vec![0; chunks], &data, &ctx), "{ctx}: zero");
            }
            10 => {
                let (coeffs, data) = match rng.gen_range(0..4u32) {
                    0 => (chunks + 1, chunk_bytes),
                    1 => (chunks - 1, chunk_bytes),
                    2 => (chunks, chunk_bytes + 1),
                    _ => (chunks, chunk_bytes.checked_sub(1).unwrap_or(2)),
                };
                let coeffs = random_bytes(&mut rng, coeffs);
                let data = random_bytes(&mut rng, data);
                assert!(!sink.absorb(&coeffs, &data, &ctx), "{ctx}: malformed");
            }
            _ => {
                // A uniformly random coefficient vector with its payload.
                let coeffs = random_bytes(&mut rng, chunks);
                let mut data = vec![0u8; chunk_bytes];
                for (&c, part) in coeffs.iter().zip(&parts) {
                    for (x, &b) in data.iter_mut().zip(part) {
                        *x ^= reference::gf_mul(c, b);
                    }
                }
                sink.absorb(&coeffs, &data, &ctx);
            }
        }
    }
    assert!(
        sink.lib.is_full(),
        "chunks={chunks} chunk_bytes={chunk_bytes}: never full"
    );
    assert_eq!(sink.lib.decode(), Some(parts.concat()));
}

#[test]
fn library_decoder_matches_the_reference_on_every_small_geometry() {
    for chunks in 1..=12usize {
        for chunk_bytes in 0..=64usize {
            drive(chunks, chunk_bytes, (chunks * 1000 + chunk_bytes) as u64);
        }
    }
}

#[test]
fn all_zero_weights_emit_the_first_held_row() {
    // Seeds whose first `rank` coefficient draws are all zero take the
    // fallback path of `emit`; search for them for ranks 1 and 2.
    for rank in 1..=2usize {
        let seed = (0u64..)
            .find(|&s| {
                let mut rng = PacketRng::new(s);
                (0..rank).all(|_| rng.next_byte() == 0)
            })
            .expect("some seed draws zeros");
        let mut twin = Twin::new(4, 5, seed);
        for col in [2usize, 0].into_iter().take(rank) {
            let mut coeffs = vec![0u8; 4];
            coeffs[col] = 3;
            coeffs[3] = 9;
            assert!(twin.absorb(&coeffs, &[col as u8 + 1; 5], "setup"));
        }
        let p = twin.emit("zero weights").expect("rank > 0");
        let first = if rank == 1 { 2 } else { 0 };
        assert_eq!(
            p.coeffs[first], 1,
            "rank {rank}: the first held row, normalized"
        );
    }
}

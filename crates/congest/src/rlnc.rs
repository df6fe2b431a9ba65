//! Random linear network coding over GF(256).
//!
//! The gossip transport broadcasts a byte block by splitting it into `k`
//! chunks and letting every node forward *random linear combinations* of
//! the chunks it has heard, with coefficients drawn from GF(2⁸). Any `k`
//! linearly independent packets reconstruct the block, so receivers do
//! not care *which* packets arrive — redundancy replaces retransmission,
//! which is exactly the degradation mode the transport matrix compares
//! against the ack/retransmit envelope.
//!
//! The field is GF(2⁸) with the AES reduction polynomial `x⁸+x⁴+x³+x+1`
//! (0x11b). Products come from a 256 × 256 table (64 KiB) that a `const
//! fn` builds at compile time from the peasant (Russian) multiply, which
//! stays the auditable definition of the field; the table only caches it.
//! Every row operation — `dst ^= f · src` and `row = f · row` — reads the
//! 256-byte table row of its scalar `f`, one lookup per byte. Inverses
//! use `a⁻¹ = a²⁵⁴` (Fermat on the 255-element multiplicative group).
//!
//! Decoding is incremental Gaussian elimination: [`Decoder::absorb`]
//! reduces each arriving packet against the pivots held so far and
//! reports whether it was *innovative* (raised the rank). The
//! non-innovative count is the `wasted_bandwidth` statistic reported by
//! [`crate::transport::GossipStats`]. Elimination runs *coefficient
//! first*: the `k` coefficient bytes are reduced alone while the
//! (pivot, factor) steps are recorded, because the factors depend on the
//! coefficients only. The payload is touched only when a new pivot
//! appears; then the recorded steps are replayed on it, and the stored
//! row holds the same bytes as a reduction of the whole packet at once.
//! A non-innovative packet therefore costs `O(k²)` bytes rather than
//! `O(k · payload)`, and a decoder at full rank rejects every packet
//! without looking at it.

/// GF(256) addition (and subtraction): XOR.
#[inline]
#[must_use]
pub fn gf_add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// GF(256) multiplication with the 0x11b reduction polynomial by the
/// peasant algorithm: the definition [`MUL`] is generated from.
const fn peasant_mul(mut a: u8, mut b: u8) -> u8 {
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

const fn product_table() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut a = 0;
    while a < 256 {
        let mut b = 0;
        while b < 256 {
            table[a][b] = peasant_mul(a as u8, b as u8);
            b += 1;
        }
        a += 1;
    }
    table
}

/// `MUL[a][b] = a · b` over GF(256), evaluated at compile time.
static MUL: [[u8; 256]; 256] = product_table();

/// GF(256) multiplication with the 0x11b reduction polynomial.
#[inline]
#[must_use]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    MUL[usize::from(a)][usize::from(b)]
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

/// `dst[i] ^= f · src[i]` over the common length, through the table row
/// of `f`.
#[inline]
fn mul_add_row(dst: &mut [u8], f: u8, src: &[u8]) {
    let row = &MUL[usize::from(f)];
    for (x, &s) in dst.iter_mut().zip(src) {
        *x ^= row[usize::from(s)];
    }
}

/// `row[i] = f · row[i]`, through the table row of `f`.
#[inline]
fn scale_row(row: &mut [u8], f: u8) {
    let products = &MUL[usize::from(f)];
    for x in row {
        *x = products[usize::from(*x)];
    }
}

/// A coded packet: `data = Σ coeffs[i] · chunk[i]` over GF(256).
///
/// `coeffs` always has length `chunks` and `data` length `chunk_bytes`,
/// so the wire size of every packet in a block is identical — the
/// simulator charges rounds off the uniform `bit_size`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodedPacket {
    /// Combination coefficients, one per source chunk.
    pub coeffs: Vec<u8>,
    /// The combined payload bytes.
    pub data: Vec<u8>,
}

impl crate::payload::Payload for CodedPacket {
    fn bit_size(&self) -> u64 {
        8 * (self.coeffs.len() as u64 + self.data.len() as u64)
    }
}

/// Frames `block` with a 4-byte little-endian length header and splits it
/// into exactly `chunks` zero-padded chunks of equal size. Returns the
/// chunk list; the header lets [`unframe`] trim the padding after decode.
///
/// # Panics
///
/// Panics if `chunks == 0` or the block length exceeds `u32::MAX`.
#[must_use]
pub fn split_block(block: &[u8], chunks: usize) -> Vec<Vec<u8>> {
    assert!(chunks > 0, "need at least one chunk");
    let len = u32::try_from(block.len()).expect("block longer than u32::MAX bytes");
    let mut framed = Vec::with_capacity(4 + block.len());
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(block);
    let chunk_bytes = framed.len().div_ceil(chunks).max(1);
    framed.resize(chunks * chunk_bytes, 0);
    framed.chunks(chunk_bytes).map(<[u8]>::to_vec).collect()
}

/// Strips the 4-byte length frame applied by [`split_block`], returning
/// the original block. Returns `None` when the buffer is too short or the
/// header claims more bytes than are present (corrupted decode).
#[must_use]
pub fn unframe(framed: &[u8]) -> Option<Vec<u8>> {
    if framed.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
    if 4 + len > framed.len() {
        return None;
    }
    Some(framed[4..4 + len].to_vec())
}

/// Deterministic coefficient generator (SplitMix64 → bytes). Each node
/// seeds its own generator from the transport seed and its id, keeping
/// gossip replayable without touching the algorithm or fault RNGs.
#[derive(Clone, Debug)]
pub struct PacketRng {
    state: u64,
}

impl PacketRng {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        PacketRng {
            state: seed ^ 0xc0de_c0de_c0de_c0de,
        }
    }

    /// Next pseudo-random 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next pseudo-random byte.
    pub fn next_byte(&mut self) -> u8 {
        (self.next_u64() & 0xff) as u8
    }
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
    /// Pivot rows, `chunks + chunk_bytes` bytes each (coefficients, then
    /// payload): row `i`, when `present[i]`, has its leading nonzero
    /// coefficient, normalized to 1, in column `i`.
    rows: Vec<u8>,
    present: Vec<bool>,
    rank: usize,
    /// The packet under reduction in [`Decoder::absorb`], one row wide.
    packet: Vec<u8>,
    /// The (pivot, factor) eliminations of the packet under reduction.
    steps: Vec<(usize, u8)>,
}

impl Decoder {
    /// An empty decoder expecting `chunks` chunks of `chunk_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics when `chunks == 0`, or when the `chunks` rows of
    /// `chunks + chunk_bytes` bytes overflow `usize`.
    #[must_use]
    pub fn new(chunks: usize, chunk_bytes: usize) -> Self {
        assert!(chunks > 0, "need at least one chunk");
        let stride = chunks
            .checked_add(chunk_bytes)
            .expect("decoder rows overflow usize");
        let bytes = chunks
            .checked_mul(stride)
            .expect("decoder rows overflow usize");
        Decoder {
            chunks,
            chunk_bytes,
            rows: vec![0; bytes],
            present: vec![false; chunks],
            rank: 0,
            packet: vec![0; stride],
            steps: Vec::with_capacity(chunks),
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

    fn stride(&self) -> usize {
        self.chunks + self.chunk_bytes
    }

    /// Pivot row `col`, split into its coefficients and its payload.
    fn row(&self, col: usize) -> (&[u8], &[u8]) {
        let stride = self.stride();
        self.rows[col * stride..(col + 1) * stride].split_at(self.chunks)
    }

    /// Folds in a received packet. Returns `true` iff the packet was
    /// *innovative* (raised the rank); redundant packets return `false`
    /// and are counted as wasted bandwidth by the transport.
    pub fn absorb(&mut self, coeffs: &[u8], data: &[u8]) -> bool {
        if coeffs.len() != self.chunks || data.len() != self.chunk_bytes {
            return false; // malformed packet: wrong geometry for this block
        }
        if self.is_full() {
            return false; // every vector lies in the span of a full rank
        }
        let k = self.chunks;
        let stride = self.stride();
        let Decoder {
            rows,
            present,
            packet,
            steps,
            ..
        } = self;
        let (c, d) = packet.split_at_mut(k);
        c.copy_from_slice(coeffs);
        steps.clear();
        // Coefficients first: pivot row `col` is zero left of `col`, so
        // eliminating column `col` leaves the columns before it alone.
        let mut new_pivot = None;
        for col in 0..k {
            let factor = c[col];
            if factor == 0 {
                continue;
            }
            if !present[col] {
                new_pivot = Some(col);
                break;
            }
            mul_add_row(
                &mut c[col..],
                factor,
                &rows[col * stride + col..col * stride + k],
            );
            steps.push((col, factor));
        }
        let Some(col) = new_pivot else {
            return false; // reduced to zero: the payload never mattered
        };
        // New pivot: replay the eliminations on the payload, normalize the
        // leading coefficient to 1 and store the row.
        d.copy_from_slice(data);
        for &(pivot, factor) in steps.iter() {
            mul_add_row(d, factor, &rows[pivot * stride + k..(pivot + 1) * stride]);
        }
        let inv = gf_inv(packet[col]);
        scale_row(packet, inv);
        rows[col * stride..(col + 1) * stride].copy_from_slice(packet);
        present[col] = true;
        self.rank += 1;
        true
    }

    /// Emits a fresh random combination of the rows held so far, or
    /// `None` when the decoder has heard nothing yet. One weight is drawn
    /// per held row, in pivot order; when every weight is zero the packet
    /// is the first held row (weight 1), so it is never the zero vector.
    #[must_use]
    pub fn emit(&self, rng: &mut PacketRng) -> Option<CodedPacket> {
        let first = self.present.iter().position(|&p| p)?;
        let mut coeffs = vec![0u8; self.chunks];
        let mut data = vec![0u8; self.chunk_bytes];
        let mut any = false;
        for col in (first..self.chunks).filter(|&col| self.present[col]) {
            let w = rng.next_byte();
            if w != 0 {
                let (pc, pd) = self.row(col);
                mul_add_row(&mut coeffs, w, pc);
                mul_add_row(&mut data, w, pd);
                any = true;
            }
        }
        if !any {
            let (pc, pd) = self.row(first);
            coeffs.copy_from_slice(pc);
            data.copy_from_slice(pd);
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
        let stride = self.stride();
        let mut rows = self.rows.clone();
        for col in (0..self.chunks).rev() {
            let (above, from_pivot) = rows.split_at_mut(col * stride);
            let pivot = &from_pivot[..stride];
            debug_assert_eq!(pivot[col], 1);
            for row in above.chunks_exact_mut(stride) {
                let factor = row[col];
                if factor != 0 {
                    mul_add_row(row, factor, pivot);
                }
            }
        }
        let mut out = Vec::with_capacity(self.chunks * self.chunk_bytes);
        for row in rows.chunks_exact(stride) {
            out.extend_from_slice(&row[self.chunks..]);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_hold() {
        // The table must equal its generator on every pair, and every
        // nonzero element must have a working inverse.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(a, b), peasant_mul(a, b), "{a} · {b}");
            }
        }
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // The AES textbook example: 0x53 · 0xca = 0x01.
        assert_eq!(gf_mul(0x53, 0xca), 0x01);
        for (a, b, c) in [(3u8, 5u8, 9u8), (0x1c, 0x2d, 0x3e)] {
            assert_eq!(gf_mul(a, gf_mul(b, c)), gf_mul(gf_mul(a, b), c));
            assert_eq!(gf_mul(a, gf_add(b, c)), gf_add(gf_mul(a, b), gf_mul(a, c)));
        }
    }

    #[test]
    fn split_and_unframe_round_trip() {
        for (len, chunks) in [(0usize, 1usize), (1, 1), (5, 3), (19, 4), (64, 10)] {
            let block: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let parts = split_block(&block, chunks);
            assert_eq!(parts.len(), chunks);
            let width = parts[0].len();
            assert!(parts.iter().all(|p| p.len() == width));
            let framed: Vec<u8> = parts.concat();
            assert_eq!(
                unframe(&framed).unwrap(),
                block,
                "len={len} chunks={chunks}"
            );
        }
        assert!(unframe(&[1, 2]).is_none(), "too short");
        assert!(
            unframe(&[200, 0, 0, 0, 1]).is_none(),
            "header claims more than present"
        );
    }

    #[test]
    fn source_decoder_is_full_and_decodes_identically() {
        let block = b"hello coded world".to_vec();
        let parts = split_block(&block, 5);
        let src = Decoder::source(&parts);
        assert!(src.is_full());
        assert_eq!(unframe(&src.decode().unwrap()).unwrap(), block);
    }

    #[test]
    fn random_combinations_reach_full_rank() {
        let block: Vec<u8> = (0..100).map(|i| (i * 13) as u8).collect();
        let parts = split_block(&block, 8);
        let src = Decoder::source(&parts);
        let mut rng = PacketRng::new(42);
        let mut sink = Decoder::new(8, parts[0].len());
        let mut packets = 0;
        let mut wasted = 0;
        while !sink.is_full() {
            let p = src.emit(&mut rng).unwrap();
            if !sink.absorb(&p.coeffs, &p.data) {
                wasted += 1;
            }
            packets += 1;
            assert!(packets < 1000, "must converge quickly");
        }
        assert_eq!(unframe(&sink.decode().unwrap()).unwrap(), block);
        // Random GF(256) combinations are innovative with prob ≥ 255/256,
        // so waste should be tiny here.
        assert!(wasted <= 2, "wasted {wasted} of {packets}");
    }

    #[test]
    fn redundant_packets_are_not_innovative() {
        let parts = split_block(b"abcdef", 2);
        let src = Decoder::source(&parts);
        let mut rng = PacketRng::new(1);
        let mut sink = Decoder::new(2, parts[0].len());
        let p = src.emit(&mut rng).unwrap();
        assert!(sink.absorb(&p.coeffs, &p.data), "first packet innovative");
        assert!(
            !sink.absorb(&p.coeffs, &p.data),
            "same packet again is redundant"
        );
        assert_eq!(sink.rank(), 1);
    }

    #[test]
    fn malformed_geometry_is_rejected() {
        let mut d = Decoder::new(3, 4);
        assert!(!d.absorb(&[1, 0], &[0, 0, 0, 0]), "short coeffs");
        assert!(!d.absorb(&[1, 0, 0], &[0, 0]), "short data");
        assert_eq!(d.rank(), 0);
    }

    #[test]
    fn single_chunk_degenerates_to_flooding() {
        // chunks=1 means every packet is a scalar multiple of the block;
        // absorb normalizes the scalar away, so one packet decodes it.
        let block = b"flood me".to_vec();
        let parts = split_block(&block, 1);
        let src = Decoder::source(&parts);
        let mut rng = PacketRng::new(9);
        let mut sink = Decoder::new(1, parts[0].len());
        let p = src.emit(&mut rng).unwrap();
        assert!(sink.absorb(&p.coeffs, &p.data));
        assert!(sink.is_full());
        assert_eq!(unframe(&sink.decode().unwrap()).unwrap(), block);
    }

    #[test]
    fn emit_before_any_rank_is_none() {
        let d = Decoder::new(4, 8);
        let mut rng = PacketRng::new(3);
        assert!(d.emit(&mut rng).is_none());
    }

    #[test]
    fn packet_bit_size_counts_coeffs_and_data() {
        use crate::payload::Payload;
        let p = CodedPacket {
            coeffs: vec![0; 4],
            data: vec![0; 16],
        };
        assert_eq!(p.bit_size(), 8 * 20);
    }
}

//! Per-link message tallies for charging an exchange without envelopes.
//!
//! Where every message of a phase has the same width and its contents are
//! computed locally anyway, the simulator only needs to know how many
//! messages cross each ordered link. A [`LinkTally`] holds those counts;
//! [`Clique::charge_exchange_tally`](crate::Clique::charge_exchange_tally)
//! charges them, either on the links they were tallied on or, for the
//! one-reply-per-query leg that answers them, on the reverse links.

/// Message counts per ordered link of one exchange.
///
/// The counts live in a dense `n²` table, but only the links written since
/// the last [`LinkTally::clear`] are ever read or reset, so a tally over
/// `m` distinct links costs `O(m)` to charge and to clear.
///
/// # Examples
///
/// ```
/// use qcc_congest::LinkTally;
///
/// let mut tally = LinkTally::new(3);
/// tally.add(0, 2, 1);
/// tally.add(0, 2, 4);
/// tally.add(1, 1, 2); // local: tallied, charged nothing
/// let links: Vec<_> = tally.links().collect();
/// assert_eq!(links, [(0, 2, 5), (1, 1, 2)]);
/// tally.clear();
/// assert_eq!(tally.links().count(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct LinkTally {
    n: usize,
    /// Count per link, indexed `src · n + dst`; zero outside `links`.
    counts: Vec<u32>,
    /// `(src, dst)` of the links with a non-zero count, in the order they
    /// were first written.
    links: Vec<(u32, u32)>,
}

impl LinkTally {
    /// An empty tally over the `n²` ordered links of an `n`-node network.
    pub fn new(n: usize) -> Self {
        LinkTally {
            n,
            counts: vec![0; n * n],
            links: Vec::new(),
        }
    }

    /// The network size the tally covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds `count` messages on the link `src → dst`; `src == dst` is a
    /// local message, which is tallied but never charged.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below [`LinkTally::n`].
    #[inline]
    pub fn add(&mut self, src: usize, dst: usize, count: u32) {
        assert!(src < self.n && dst < self.n, "link endpoint out of range");
        let cell = &mut self.counts[src * self.n + dst];
        if *cell == 0 && count > 0 {
            self.links.push((src as u32, dst as u32));
        }
        *cell += count;
    }

    /// The links with messages, as `(src, dst, count)`.
    pub fn links(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        self.links.iter().map(|&(src, dst)| {
            let (src, dst) = (src as usize, dst as usize);
            (src, dst, self.counts[src * self.n + dst])
        })
    }

    /// Empties the tally.
    pub fn clear(&mut self) {
        for &(src, dst) in &self.links {
            self.counts[src as usize * self.n + dst as usize] = 0;
        }
        self.links.clear();
    }
}

/// Which way [`Clique::charge_exchange_tally`](crate::Clique::charge_exchange_tally)
/// charges a [`LinkTally`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Leg {
    /// Each message on the link it was tallied on.
    Forward,
    /// Each message on the reverse link: one reply to every tallied
    /// message, the transpose of the forward leg.
    Reverse,
}

//! Addressed messages and per-node inboxes.

use crate::node::NodeId;
use crate::payload::Payload;

/// A message addressed from one node to another.
///
/// # Examples
///
/// ```
/// use qcc_congest::{Envelope, NodeId};
///
/// let e = Envelope::new(NodeId::new(0), NodeId::new(3), 42u64);
/// assert_eq!(e.src, NodeId::new(0));
/// assert_eq!(e.dst, NodeId::new(3));
/// assert_eq!(e.payload, 42);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<T> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Message content.
    pub payload: T,
}

impl<T> Envelope<T> {
    /// Creates a new addressed message.
    pub fn new(src: NodeId, dst: NodeId, payload: T) -> Self {
        Envelope { src, dst, payload }
    }
}

/// The messages received by each node after a communication phase.
///
/// Inbox `i` holds `(sender, payload)` pairs for node `i`. Delivery order
/// within an inbox is deterministic (sorted by sender, then by submission
/// order) so that simulations are reproducible.
///
/// Storage is a single flat arena: all messages of a phase live in one
/// contiguous buffer grouped by destination, with a per-destination offset
/// table. A phase delivering `m` messages costs two allocations total
/// instead of one vector per node, and the hot construction path places
/// records by counting instead of sorting (see `Clique::deliver`).
#[derive(Clone, Debug)]
pub struct Inboxes<T> {
    /// All delivered `(sender, payload)` records, grouped by destination;
    /// within a destination, sorted by sender then submission order.
    data: Vec<(NodeId, T)>,
    /// Inbox `d` is `data[starts[d] .. starts[d + 1]]` (length `n + 1`).
    starts: Vec<usize>,
}

impl<T> Inboxes<T> {
    /// Creates empty inboxes for an `n`-node network.
    pub fn empty(n: usize) -> Self {
        Inboxes {
            data: Vec::new(),
            starts: vec![0; n + 1],
        }
    }

    /// Builds inboxes from pre-placed parts: `data` already grouped by
    /// destination per `starts`, each group sender-then-submission ordered.
    pub(crate) fn from_parts(data: Vec<(NodeId, T)>, starts: Vec<usize>) -> Self {
        debug_assert_eq!(*starts.last().expect("offsets non-empty"), data.len());
        Inboxes { data, starts }
    }

    /// Messages received by `node`, as `(sender, payload)` pairs.
    #[must_use]
    pub fn of(&self, node: NodeId) -> &[(NodeId, T)] {
        &self.data[self.starts[node.index()]..self.starts[node.index() + 1]]
    }

    /// Number of nodes in the network these inboxes belong to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there are no nodes (degenerate network).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of messages across all inboxes.
    #[must_use]
    pub fn message_count(&self) -> usize {
        self.data.len()
    }

    /// Consumes the inboxes, yielding one `Vec<(sender, payload)>` per node.
    pub fn into_vec(self) -> Vec<Vec<(NodeId, T)>> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        let mut items = self.data.into_iter();
        for d in 0..n {
            let count = self.starts[d + 1] - self.starts[d];
            out.push(items.by_ref().take(count).collect());
        }
        out
    }

    /// Iterates over `(node, inbox)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[(NodeId, T)])> {
        (0..self.len()).map(|i| (NodeId::new(i), self.of(NodeId::new(i))))
    }
}

/// What every node holds after [`Clique::gossip`](crate::Clique::gossip):
/// all nodes' lists as `(origin, item)` pairs, in origin order.
///
/// When every copy arrives, all nodes hold the same view and it is stored
/// once; a faulty network keeps one view per node, since raw faults can
/// leave different gaps in each.
#[derive(Clone, Debug)]
pub struct GossipViews<T> {
    n: usize,
    /// One view per node, or a single view every node shares.
    views: Vec<Vec<(NodeId, T)>>,
}

impl<T> GossipViews<T> {
    /// The view every node of an `n`-node network shares.
    pub(crate) fn shared(n: usize, view: Vec<(NodeId, T)>) -> Self {
        GossipViews {
            n,
            views: vec![view],
        }
    }

    /// One view per node.
    pub(crate) fn per_node(views: Vec<Vec<(NodeId, T)>>) -> Self {
        GossipViews {
            n: views.len(),
            views,
        }
    }

    /// The `(origin, item)` pairs `node` holds.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the network.
    #[must_use]
    pub fn of(&self, node: NodeId) -> &[(NodeId, T)] {
        assert!(node.index() < self.n, "node outside the network");
        let i = if self.views.len() == 1 {
            0
        } else {
            node.index()
        };
        &self.views[i]
    }
}

/// Builds the sends of every node by applying `f` to each node id.
///
/// This is the idiomatic way to express "each node, based on its local
/// state, enqueues messages" without letting node `i` read node `j`'s state:
/// the closure receives only the node id and must capture per-node state
/// through indexed access.
///
/// # Examples
///
/// ```
/// use qcc_congest::{collect_sends, Envelope, NodeId};
///
/// // every node sends its own index to node 0
/// let sends = collect_sends(4, |u| {
///     vec![Envelope::new(u, NodeId::new(0), u.index() as u64)]
/// });
/// assert_eq!(sends.len(), 4);
/// ```
pub fn collect_sends<T, F>(n: usize, mut f: F) -> Vec<Envelope<T>>
where
    F: FnMut(NodeId) -> Vec<Envelope<T>>,
{
    let mut out = Vec::new();
    for u in NodeId::all(n) {
        let mut sends = f(u);
        debug_assert!(
            sends.iter().all(|e| e.src == u),
            "node {u} attempted to forge a message from another source"
        );
        out.append(&mut sends);
    }
    out
}

/// Total bit volume of a set of sends.
pub fn total_bits<T: Payload>(sends: &[Envelope<T>]) -> u64 {
    sends.iter().map(|e| e.payload.bit_size()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inboxes_start_empty() {
        let boxes: Inboxes<u64> = Inboxes::empty(3);
        assert_eq!(boxes.len(), 3);
        assert_eq!(boxes.message_count(), 0);
        assert!(boxes.of(NodeId::new(1)).is_empty());
    }

    #[test]
    fn collect_sends_gathers_all_nodes() {
        let sends = collect_sends(3, |u| {
            vec![Envelope::new(u, NodeId::new((u.index() + 1) % 3), 1u64)]
        });
        assert_eq!(sends.len(), 3);
        assert_eq!(total_bits(&sends), 3 * 64);
    }

    #[test]
    fn iter_visits_every_node() {
        let boxes: Inboxes<u64> = Inboxes::empty(4);
        assert_eq!(boxes.iter().count(), 4);
    }
}

//! Residual flow-network representation for the reference max-flow
//! ([`crate::edmonds_karp`]).

/// A directed edge with residual capacity. Edges are stored in pairs: edge
/// `2i` is the forward edge and `2i + 1` its residual twin, so the reverse of
/// edge `e` is `e ^ 1`.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Head vertex.
    pub to: usize,
    /// Remaining capacity.
    pub cap: u64,
}

/// A flow network over vertices `0..n` with a designated source and sink.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    edges: Vec<Edge>,
    /// `adj[v]` lists indices into `edges` of the edges leaving `v`
    /// (including residual twins of incoming edges).
    adj: Vec<Vec<usize>>,
    source: usize,
    sink: usize,
}

impl FlowNetwork {
    /// Create an empty network with `n` vertices.
    pub fn new(n: usize, source: usize, sink: usize) -> Self {
        assert!(source < n && sink < n && source != sink);
        FlowNetwork {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
            source,
            sink,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Source vertex.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Sink vertex.
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// Add a directed edge `from → to` with the given capacity. Returns the
    /// edge id (always even); `id ^ 1` is the residual twin.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) -> usize {
        let id = self.edges.len();
        self.edges.push(Edge { to, cap });
        self.edges.push(Edge { to: from, cap: 0 });
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        id
    }

    /// Residual capacity of an edge (forward or twin).
    pub fn capacity(&self, edge: usize) -> u64 {
        self.edges[edge].cap
    }

    /// Flow currently pushed through a *forward* edge id: the residual
    /// capacity accumulated on its twin.
    pub fn flow(&self, edge: usize) -> u64 {
        debug_assert_eq!(edge % 2, 0, "flow() takes forward edge ids");
        self.edges[edge ^ 1].cap
    }

    /// Head of an edge.
    pub fn edge_to(&self, edge: usize) -> usize {
        self.edges[edge].to
    }

    /// Edge ids leaving `v`.
    pub fn adjacent(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Push `amount` through `edge`, updating the residual twin.
    pub(crate) fn push(&mut self, edge: usize, amount: u64) {
        debug_assert!(self.edges[edge].cap >= amount);
        self.edges[edge].cap -= amount;
        self.edges[edge ^ 1].cap += amount;
    }

    /// Verify flow conservation at every vertex except source and sink.
    /// Used by tests.
    pub fn check_conservation(&self) -> bool {
        let n = self.num_vertices();
        let mut balance = vec![0i64; n];
        for e in (0..self.edges.len()).step_by(2) {
            let from = self.edges[e ^ 1].to;
            let to = self.edges[e].to;
            let f = self.flow(e) as i64;
            balance[from] -= f;
            balance[to] += f;
        }
        (0..n).all(|v| v == self.source || v == self.sink || balance[v] == 0)
    }

    /// Remove all flow, restoring original capacities.
    pub fn reset_flow(&mut self) {
        for e in (0..self.edges.len()).step_by(2) {
            let f = self.edges[e ^ 1].cap;
            self.edges[e].cap += f;
            self.edges[e ^ 1].cap = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_pairing_invariant() {
        let mut g = FlowNetwork::new(3, 0, 2);
        let e = g.add_edge(0, 1, 5);
        assert_eq!(e, 0);
        assert_eq!(g.edge_to(e), 1);
        assert_eq!(g.edge_to(e ^ 1), 0);
        assert_eq!(g.capacity(e), 5);
        assert_eq!(g.capacity(e ^ 1), 0);
    }

    #[test]
    fn push_moves_capacity_to_twin() {
        let mut g = FlowNetwork::new(2, 0, 1);
        let e = g.add_edge(0, 1, 5);
        g.push(e, 3);
        assert_eq!(g.capacity(e), 2);
        assert_eq!(g.flow(e), 3);
    }

    #[test]
    fn reset_flow_restores_capacity() {
        let mut g = FlowNetwork::new(2, 0, 1);
        let e = g.add_edge(0, 1, 5);
        g.push(e, 5);
        g.reset_flow();
        assert_eq!(g.capacity(e), 5);
        assert_eq!(g.flow(e), 0);
    }
}

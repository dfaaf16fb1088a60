//! Edmonds–Karp max-flow: repeated BFS shortest augmenting paths.
//!
//! `O(V·E²)` and written for clarity, not speed: it shares no code with the
//! matching kernel ([`crate::incremental`]) and is the oracle the property
//! tests compare the kernel against. Nothing outside tests calls it.

use crate::graph::FlowNetwork;

/// Compute the maximum flow of `net` with Edmonds–Karp.
pub fn max_flow(net: &mut FlowNetwork) -> u64 {
    let n = net.num_vertices();
    let mut total = 0u64;
    // parent_edge[v] = edge used to reach v in the BFS tree.
    let mut parent_edge = vec![usize::MAX; n];

    loop {
        parent_edge.iter_mut().for_each(|p| *p = usize::MAX);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(net.source());
        let mut reached = false;
        'bfs: while let Some(v) = queue.pop_front() {
            for &e in net.adjacent(v) {
                let to = net.edge_to(e);
                if net.capacity(e) > 0 && parent_edge[to] == usize::MAX && to != net.source() {
                    parent_edge[to] = e;
                    if to == net.sink() {
                        reached = true;
                        break 'bfs;
                    }
                    queue.push_back(to);
                }
            }
        }
        if !reached {
            return total;
        }

        // Find bottleneck along the path, then push it.
        let mut bottleneck = u64::MAX;
        let mut v = net.sink();
        while v != net.source() {
            let e = parent_edge[v];
            bottleneck = bottleneck.min(net.capacity(e));
            v = net.edge_to(e ^ 1);
        }
        let mut v = net.sink();
        while v != net.source() {
            let e = parent_edge[v];
            net.push(e, bottleneck);
            v = net.edge_to(e ^ 1);
        }
        total += bottleneck;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clrs_network() {
        let mut g = FlowNetwork::new(6, 0, 5);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 2, 10);
        g.add_edge(2, 1, 4);
        g.add_edge(1, 3, 12);
        g.add_edge(3, 2, 9);
        g.add_edge(2, 4, 14);
        g.add_edge(4, 3, 7);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 5, 4);
        assert_eq!(max_flow(&mut g), 23);
        assert!(g.check_conservation());
    }

    #[test]
    fn zero_capacity_edges_carry_nothing() {
        let mut g = FlowNetwork::new(3, 0, 2);
        g.add_edge(0, 1, 0);
        g.add_edge(1, 2, 10);
        assert_eq!(max_flow(&mut g), 0);
    }
}

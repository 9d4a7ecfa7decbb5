//! A compact interned directed graph with iterative cycle detection.
//!
//! This is the graph-analysis substrate the paper delegates to JGraphT
//! (§5.1). Nodes are interned to dense `u32` indices; adjacency is a
//! vector of vectors. Cycle detection is an iterative (heap-stack) DFS so
//! that graphs with hundreds of thousands of nodes cannot overflow the call
//! stack; it runs in `O(V + E)` as required by Proposition 4.2.
//!
//! The walk/cycle vocabulary of paper §4.2 (walks, `r`-cycles, in/out
//! degree, reachability) is implemented directly so that tests can state
//! the paper's lemmas verbatim.
//!
//! [`TopoOrder`] is the order-maintenance substrate of the incremental
//! detection pass (Pearce–Kelly, "A Dynamic Topological Sort Algorithm
//! for Directed Acyclic Graphs"): it keeps a topological order of the
//! engine's maintained graph under edge insertions and deletions, so
//! cycle *existence* is answered in `O(affected region)` per update
//! instead of `O(V + E)` per check.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// A directed graph over interned nodes of type `N`. Edges are simple
/// (duplicates are ignored): the paper's edge counts (e.g. Table 3) are
/// distinct-edge counts, and the adaptive threshold is calibrated on them.
#[derive(Clone, Debug)]
pub struct DiGraph<N> {
    nodes: Vec<N>,
    index: HashMap<N, u32>,
    adj: Vec<Vec<u32>>,
    edge_set: std::collections::HashSet<(u32, u32)>,
    edges: usize,
}

impl<N: Copy + Eq + Hash> Default for DiGraph<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Copy + Eq + Hash> DiGraph<N> {
    /// Creates an empty graph.
    pub fn new() -> DiGraph<N> {
        DiGraph {
            nodes: Vec::new(),
            index: HashMap::new(),
            adj: Vec::new(),
            edge_set: std::collections::HashSet::new(),
            edges: 0,
        }
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> DiGraph<N> {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            index: HashMap::with_capacity(nodes),
            adj: Vec::with_capacity(nodes),
            edge_set: std::collections::HashSet::new(),
            edges: 0,
        }
    }

    /// Interns `n`, returning its dense index.
    pub fn add_node(&mut self, n: N) -> u32 {
        if let Some(&i) = self.index.get(&n) {
            return i;
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(n);
        self.adj.push(Vec::new());
        self.index.insert(n, i);
        i
    }

    /// Adds the directed edge `from → to`, interning endpoints as needed.
    /// Duplicate edges are ignored.
    pub fn add_edge(&mut self, from: N, to: N) {
        let f = self.add_node(from);
        let t = self.add_node(to);
        if self.edge_set.insert((f, t)) {
            self.adj[f as usize].push(t);
            self.edges += 1;
        }
    }

    /// Node count `|V|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Edge count `|E|` (distinct edges).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The interned index of `n`, if present.
    pub fn node_index(&self, n: N) -> Option<u32> {
        self.index.get(&n).copied()
    }

    /// The node at dense index `i`.
    pub fn node(&self, i: u32) -> N {
        self.nodes[i as usize]
    }

    /// All nodes, in insertion order.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// All distinct edges, in adjacency order (used by the incremental
    /// engine's equivalence tests to compare edge sets).
    pub fn edges(&self) -> Vec<(N, N)> {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(f, succs)| {
                succs.iter().map(move |&t| (self.nodes[f], self.nodes[t as usize]))
            })
            .collect()
    }

    /// Is `from → to` an edge?
    pub fn has_edge(&self, from: N, to: N) -> bool {
        match (self.index.get(&from), self.index.get(&to)) {
            (Some(&f), Some(&t)) => self.edge_set.contains(&(f, t)),
            _ => false,
        }
    }

    /// Out-degree of `n` (0 if absent).
    pub fn out_degree(&self, n: N) -> usize {
        self.index.get(&n).map(|&i| self.adj[i as usize].len()).unwrap_or(0)
    }

    /// In-degree of `n` (0 if absent). `O(E)`; intended for tests.
    pub fn in_degree(&self, n: N) -> usize {
        match self.index.get(&n) {
            None => 0,
            Some(&i) => self.adj.iter().map(|succ| succ.iter().filter(|&&s| s == i).count()).sum(),
        }
    }

    /// Is the given alternating node sequence a walk (paper §4.2: length
    /// `> 1` and every consecutive pair an edge)?
    pub fn is_walk(&self, walk: &[N]) -> bool {
        walk.len() > 1 && walk.windows(2).all(|w| self.has_edge(w[0], w[1]))
    }

    /// Is the sequence a cycle (a walk whose first and last nodes agree)?
    pub fn is_cycle(&self, walk: &[N]) -> bool {
        self.is_walk(walk) && walk.first() == walk.last()
    }

    /// Is `to` reachable from `from` by a walk (i.e. via ≥ 1 edge)?
    pub fn reaches(&self, from: N, to: N) -> bool {
        let (Some(&f), Some(&t)) = (self.index.get(&from), self.index.get(&to)) else {
            return false;
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = self.adj[f as usize].clone();
        while let Some(i) = stack.pop() {
            if i == t {
                return true;
            }
            if !seen[i as usize] {
                seen[i as usize] = true;
                stack.extend_from_slice(&self.adj[i as usize]);
            }
        }
        false
    }

    /// Finds some cycle, returned as a node sequence `n₀ n₁ … n₀` (first ==
    /// last), or `None` when the graph is acyclic. Iterative DFS with a
    /// three-colour scheme.
    pub fn find_cycle(&self) -> Option<Vec<N>> {
        self.find_cycle_impl(None)
    }

    /// Finds a cycle *through the given node*, if one exists: a walk
    /// `n … n`. Used by avoidance checks, which only care whether the task
    /// that is about to block closes a cycle.
    pub fn find_cycle_through(&self, n: N) -> Option<Vec<N>> {
        let start = self.node_index(n)?;
        // DFS from `start`; a cycle through `start` is a path from one of
        // its successors back to `start`.
        let mut parent: Vec<Option<u32>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = Vec::new();
        seen[start as usize] = true;
        for &s in &self.adj[start as usize] {
            if s == start {
                return Some(vec![n, n]); // self-loop
            }
            if !seen[s as usize] {
                seen[s as usize] = true;
                parent[s as usize] = Some(start);
                stack.push(s);
            }
        }
        while let Some(i) = stack.pop() {
            for &s in &self.adj[i as usize] {
                if s == start {
                    // Reconstruct start → … → i → start.
                    let mut path = vec![start, i];
                    let mut cur = i;
                    while let Some(p) = parent[cur as usize] {
                        if p == start {
                            break;
                        }
                        path.push(p);
                        cur = p;
                    }
                    path.push(start);
                    path.reverse();
                    return Some(path.into_iter().map(|i| self.node(i)).collect());
                }
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    parent[s as usize] = Some(i);
                    stack.push(s);
                }
            }
        }
        None
    }

    /// Finds a path from any node in `sources` to any node satisfying
    /// `target`, returned source-first. A source that itself satisfies
    /// `target` yields a length-1 witness (`vec![source]`).
    pub fn path_from_sources(
        &self,
        sources: &[N],
        mut target: impl FnMut(N) -> bool,
    ) -> Option<Vec<N>> {
        let mut seen = vec![false; self.nodes.len()];
        let mut parent: Vec<Option<u32>> = vec![None; self.nodes.len()];
        let mut frontier = Vec::new();
        for &s in sources {
            if let Some(i) = self.node_index(s) {
                if !seen[i as usize] {
                    seen[i as usize] = true;
                    frontier.push(i);
                }
            }
        }
        while let Some(i) = frontier.pop() {
            if target(self.node(i)) {
                let mut path = vec![i];
                let mut cur = i;
                while let Some(p) = parent[cur as usize] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path.into_iter().map(|i| self.node(i)).collect());
            }
            for &s in &self.adj[i as usize] {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    parent[s as usize] = Some(i);
                    frontier.push(s);
                }
            }
        }
        None
    }

    /// True iff the graph contains a cycle. Slightly cheaper than
    /// [`DiGraph::find_cycle`] (no witness reconstruction).
    pub fn has_cycle(&self) -> bool {
        self.find_cycle_impl(None).is_some()
    }

    fn find_cycle_impl(&self, only_from: Option<u32>) -> Option<Vec<N>> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.nodes.len();
        let mut colour = vec![WHITE; n];
        let mut parent: Vec<Option<u32>> = vec![None; n];

        let roots: Box<dyn Iterator<Item = u32>> = match only_from {
            Some(r) => Box::new(std::iter::once(r)),
            None => Box::new(0..n as u32),
        };
        for root in roots {
            if colour[root as usize] != WHITE {
                continue;
            }
            // Explicit DFS stack of (node, next-successor-index).
            let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
            colour[root as usize] = GREY;
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if *next < self.adj[v as usize].len() {
                    let s = self.adj[v as usize][*next];
                    *next += 1;
                    match colour[s as usize] {
                        WHITE => {
                            colour[s as usize] = GREY;
                            parent[s as usize] = Some(v);
                            stack.push((s, 0));
                        }
                        GREY => {
                            // Back edge v → s closes a cycle s → … → v → s.
                            let mut cycle = vec![s, v];
                            let mut cur = v;
                            while cur != s {
                                let p = parent[cur as usize].expect("grey chain broken");
                                cycle.push(p);
                                cur = p;
                            }
                            // cycle = [s, v, parent(v), …, s]; drop the
                            // leading s, reverse the parent chain into
                            // path order, and close the cycle at s.
                            cycle.remove(0);
                            cycle.reverse();
                            cycle.push(s);
                            debug_assert_eq!(cycle.first(), cycle.last());
                            return Some(cycle.into_iter().map(|i| self.node(i)).collect());
                        }
                        _ => {}
                    }
                } else {
                    colour[v as usize] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Strongly connected components (iterative Tarjan), returned as lists
    /// of nodes. Components appear in reverse topological order.
    pub fn sccs(&self) -> Vec<Vec<N>> {
        let n = self.nodes.len();
        let mut index_of = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut out = Vec::new();

        // Iterative Tarjan: frames of (node, next-successor).
        for root in 0..n as u32 {
            if index_of[root as usize] != u32::MAX {
                continue;
            }
            let mut frames: Vec<(u32, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut ni)) = frames.last_mut() {
                if *ni == 0 {
                    index_of[v as usize] = next_index;
                    low[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                }
                if *ni < self.adj[v as usize].len() {
                    let s = self.adj[v as usize][*ni];
                    *ni += 1;
                    if index_of[s as usize] == u32::MAX {
                        frames.push((s, 0));
                    } else if on_stack[s as usize] {
                        low[v as usize] = low[v as usize].min(index_of[s as usize]);
                    }
                } else {
                    if low[v as usize] == index_of[v as usize] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp.push(self.node(w));
                            if w == v {
                                break;
                            }
                        }
                        out.push(comp);
                    }
                    frames.pop();
                    if let Some(&mut (p, _)) = frames.last_mut() {
                        low[p as usize] = low[p as usize].min(low[v as usize]);
                    }
                }
            }
        }
        out
    }
}

/// A Pearce–Kelly online topological order over a dynamic directed graph.
///
/// Committed edges always respect the maintained order (`ord[a] < ord[b]`
/// for every committed `a → b`). Inserting an edge that *violates* the
/// order triggers a bounded affected-region search: a forward walk from
/// the target (pruned to labels ≤ the source's — committed labels increase
/// strictly along committed edges, so nothing beyond that label can reach
/// the source) either proves the edge closes a real cycle, or delimits the
/// region to reorder. Cycle-closing edges are **deferred** to a pending
/// set rather than committed, which keeps the order valid; a later
/// [`TopoOrder::has_cycle`] retries them — the graph has a cycle iff some
/// pending edge still cannot be committed. Edge deletion never invalidates
/// a topological order, so removal is plain bookkeeping.
///
/// This is what lets the engine answer cycle existence in `O(churn since
/// the last check)`: when nothing is pending (the overwhelmingly common
/// case), `has_cycle` is `O(1)`. [`TopoOrder::from_adjacency`] builds the
/// order of a whole graph in one `O(V + E)` pass instead of `E` inserts.
#[derive(Clone, Debug)]
pub struct TopoOrder<N> {
    /// Topological label per live node; unique, never reused.
    ord: HashMap<N, i64>,
    /// Committed (order-respecting) out-edges.
    succs: HashMap<N, HashSet<N>>,
    /// Committed in-edges (for the backward half of the region search).
    preds: HashMap<N, HashSet<N>>,
    /// Deferred edges whose insertion would close a cycle, in insertion
    /// order (deterministic retries).
    pending: Vec<(N, N)>,
    /// Next label above every live one (fresh edge *targets*).
    next_high: i64,
    /// Next label below every live one (fresh edge *sources*).
    next_low: i64,
}

impl<N: Copy + Eq + Hash> Default for TopoOrder<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Copy + Eq + Hash> TopoOrder<N> {
    /// Creates an empty order.
    pub fn new() -> TopoOrder<N> {
        TopoOrder {
            ord: HashMap::new(),
            succs: HashMap::new(),
            preds: HashMap::new(),
            pending: Vec::new(),
            next_high: 0,
            next_low: -1,
        }
    }

    /// Builds the order of a whole graph in one pass, given each node's
    /// distinct successors as the keys of an inner map (a refcounted
    /// adjacency passes as is). An iterative DFS labels the nodes in
    /// reverse postorder, so every edge except the DFS back edges respects
    /// the order and commits; back edges — present iff the graph has a
    /// cycle — are deferred as pending. `O(V + E)`, against `E` region
    /// searches for edge-at-a-time insertion.
    pub fn from_adjacency<V>(adj: &HashMap<N, HashMap<N, V>>) -> TopoOrder<N> {
        // Marks a node the DFS has reached but not yet finished.
        const DISCOVERED: i64 = i64::MIN;
        let mut order = TopoOrder {
            ord: HashMap::with_capacity(adj.len()),
            succs: HashMap::with_capacity(adj.len()),
            preds: HashMap::with_capacity(adj.len()),
            ..TopoOrder::new()
        };
        let none = HashMap::new();
        let succs_of = |n: &N| adj.get(n).unwrap_or(&none).keys();
        // The k-th node to finish gets label `-k`: the first finished lies
        // above every other.
        let mut finished = 0;
        for &root in adj.keys() {
            if order.ord.contains_key(&root) {
                continue;
            }
            order.ord.insert(root, DISCOVERED);
            let mut stack = vec![(root, succs_of(&root))];
            while let Some((v, next)) = stack.last_mut() {
                let v = *v;
                match next.next() {
                    Some(&s) => {
                        if let std::collections::hash_map::Entry::Vacant(e) = order.ord.entry(s) {
                            e.insert(DISCOVERED);
                            stack.push((s, succs_of(&s)));
                        }
                    }
                    None => {
                        order.ord.insert(v, -finished);
                        finished += 1;
                        stack.pop();
                    }
                }
            }
        }
        order.next_high = 1;
        order.next_low = -finished;
        for (&a, succs) in adj {
            for &b in succs.keys() {
                if order.ord[&a] < order.ord[&b] {
                    order.commit(a, b);
                } else {
                    order.pending.push((a, b));
                }
            }
        }
        order
    }

    /// Deferred (candidate-cycle) edge count.
    pub fn pending_edges(&self) -> usize {
        self.pending.len()
    }

    /// Committed (order-respecting) edge count.
    pub fn committed_edges(&self) -> usize {
        self.succs.values().map(|s| s.len()).sum()
    }

    /// True when no node is labelled and no edge is tracked (the order
    /// drains with the graph it shadows).
    pub fn is_empty(&self) -> bool {
        self.ord.is_empty()
            && self.succs.is_empty()
            && self.preds.is_empty()
            && self.pending.is_empty()
    }

    fn ensure_high(&mut self, n: N) -> i64 {
        if let Some(&o) = self.ord.get(&n) {
            return o;
        }
        let o = self.next_high;
        self.next_high += 1;
        self.ord.insert(n, o);
        o
    }

    fn ensure_low(&mut self, n: N) -> i64 {
        if let Some(&o) = self.ord.get(&n) {
            return o;
        }
        let o = self.next_low;
        self.next_low -= 1;
        self.ord.insert(n, o);
        o
    }

    fn commit(&mut self, a: N, b: N) {
        self.succs.entry(a).or_default().insert(b);
        self.preds.entry(b).or_default().insert(a);
    }

    /// Inserts the distinct edge `a → b`, maintaining the order. A
    /// cycle-closing edge is deferred instead of committed.
    pub fn insert_edge(&mut self, a: N, b: N) {
        if !self.try_insert(a, b) {
            self.pending.push((a, b));
        }
    }

    /// Attempts to commit `a → b`; returns false when the edge would close
    /// a cycle (the caller defers it). Never touches `pending`.
    fn try_insert(&mut self, a: N, b: N) -> bool {
        if a == b {
            // A self-loop is always a cycle.
            self.ensure_high(a);
            return false;
        }
        // Fresh endpoints are placed so no violation can arise: a fresh
        // source below every live label, a fresh target above.
        let (oa, ob) = if self.ord.contains_key(&a) {
            (self.ord[&a], self.ensure_high(b))
        } else if self.ord.contains_key(&b) {
            (self.ensure_low(a), self.ord[&b])
        } else {
            (self.ensure_high(a), self.ensure_high(b))
        };
        if oa < ob {
            self.commit(a, b);
            return true;
        }

        // Order violation (labels are unique, so oa > ob strictly).
        //
        // `verifier-mutation` plants a deliberate completeness bug here
        // for the testkit's mutation tier: the forward window stops one
        // label short of the source's own (`<` for `≤`), so the search
        // never reaches `a` and every cycle-closing edge that needs a
        // region search is reordered and committed as if it were safe —
        // `has_cycle` under-reports. The per-step lockstep oracle must
        // catch the divergence. Never enable this feature in production
        // builds.
        #[cfg(not(feature = "verifier-mutation"))]
        let in_window = |o: i64| o <= oa;
        #[cfg(feature = "verifier-mutation")]
        let in_window = |o: i64| o < oa;

        // Forward region: everything reachable from `b` through committed
        // edges within labels ≤ oa. Committed labels increase strictly
        // along committed edges, so any path from `b` back to `a` lies
        // entirely inside this window — reaching `a` proves a real cycle.
        let mut forward: Vec<N> = Vec::new();
        let mut seen_f: HashSet<N> = HashSet::new();
        let mut stack = vec![b];
        seen_f.insert(b);
        while let Some(v) = stack.pop() {
            if v == a {
                return false;
            }
            forward.push(v);
            if let Some(next) = self.succs.get(&v) {
                for &s in next {
                    if in_window(self.ord[&s]) && seen_f.insert(s) {
                        stack.push(s);
                    }
                }
            }
        }
        // Backward region: everything reaching `a` within labels ≥ ob.
        let mut backward: Vec<N> = Vec::new();
        let mut seen_b: HashSet<N> = HashSet::new();
        let mut stack = vec![a];
        seen_b.insert(a);
        while let Some(v) = stack.pop() {
            backward.push(v);
            if let Some(prev) = self.preds.get(&v) {
                for &p in prev {
                    if self.ord[&p] >= ob && seen_b.insert(p) {
                        stack.push(p);
                    }
                }
            }
        }
        // Reorder (the Pearce–Kelly core): pool the two regions' labels
        // and deal them back in sorted order, the backward region first.
        // Relative order inside each region is preserved; every node that
        // reaches `a` now precedes every node `b` reaches, which makes the
        // new edge (and every committed one) order-respecting again.
        backward.sort_by_key(|n| self.ord[n]);
        forward.sort_by_key(|n| self.ord[n]);
        let mut pool: Vec<i64> =
            backward.iter().chain(forward.iter()).map(|n| self.ord[n]).collect();
        pool.sort_unstable();
        for (&n, o) in backward.iter().chain(forward.iter()).zip(pool) {
            self.ord.insert(n, o);
        }
        self.commit(a, b);
        true
    }

    /// Removes a distinct edge previously inserted. Deletion never
    /// invalidates a topological order, so no search runs.
    pub fn remove_edge(&mut self, a: N, b: N) {
        if let Some(at) = self.pending.iter().position(|&e| e == (a, b)) {
            // `remove` (not `swap_remove`): retry order stays the
            // insertion order, keeping behaviour deterministic.
            self.pending.remove(at);
        } else {
            if let Some(s) = self.succs.get_mut(&a) {
                s.remove(&b);
                if s.is_empty() {
                    self.succs.remove(&a);
                }
            }
            if let Some(p) = self.preds.get_mut(&b) {
                p.remove(&a);
                if p.is_empty() {
                    self.preds.remove(&b);
                }
            }
        }
        self.gc(a);
        self.gc(b);
    }

    /// Drops the label of a node no committed or pending edge touches, so
    /// labels drain with the graph instead of leaking across task churn.
    fn gc(&mut self, n: N) {
        if self.succs.contains_key(&n) || self.preds.contains_key(&n) {
            return;
        }
        if self.pending.iter().any(|&(x, y)| x == n || y == n) {
            return;
        }
        self.ord.remove(&n);
    }

    /// Does the tracked graph (committed ∪ pending edges) contain a cycle?
    ///
    /// Pending edges are retried through the insertion logic. If every one
    /// commits, the whole graph respects a single topological order and is
    /// acyclic; an edge that still cannot be committed has a committed
    /// path from its target back to its source, i.e. a real cycle. The
    /// answer is independent of retry order, because committing edges of
    /// an acyclic graph can never manufacture a cycle and a cyclic graph
    /// can never commit all its edges. `O(1)` when nothing is pending.
    pub fn has_cycle(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let retry = std::mem::take(&mut self.pending);
        for (i, &(a, b)) in retry.iter().enumerate() {
            if !self.try_insert(a, b) {
                // Still cyclic: keep this edge and the untried rest
                // deferred (committed retries stay committed).
                self.pending.extend_from_slice(&retry[i..]);
                return true;
            }
        }
        false
    }

    /// Test hook: checks the structure against the authoritative distinct
    /// edge list — every edge is committed with strictly increasing labels
    /// or parked as pending, and nothing else is tracked.
    pub fn validate(&self, edges: &[(N, N)]) -> Result<(), String>
    where
        N: std::fmt::Debug,
    {
        let committed = self.committed_edges();
        if committed + self.pending.len() != edges.len() {
            return Err(format!(
                "tracked {} committed + {} pending edges, graph has {}",
                committed,
                self.pending.len(),
                edges.len()
            ));
        }
        for &(a, b) in edges {
            if self.pending.contains(&(a, b)) {
                continue;
            }
            if !self.succs.get(&a).is_some_and(|s| s.contains(&b)) {
                return Err(format!("edge {a:?} → {b:?} neither committed nor pending"));
            }
            if !self.preds.get(&b).is_some_and(|p| p.contains(&a)) {
                return Err(format!("edge {a:?} → {b:?} missing its predecessor entry"));
            }
            let (Some(&oa), Some(&ob)) = (self.ord.get(&a), self.ord.get(&b)) else {
                return Err(format!("edge {a:?} → {b:?} has an unlabelled endpoint"));
            };
            if oa >= ob {
                return Err(format!(
                    "committed edge {a:?} → {b:?} violates the order ({oa} ≥ {ob})"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u32, u32)]) -> DiGraph<u32> {
        let mut g = DiGraph::new();
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn empty_graph_has_no_cycle() {
        let g: DiGraph<u32> = DiGraph::new();
        assert!(g.find_cycle().is_none());
        assert!(!g.has_cycle());
        assert!(g.sccs().is_empty());
    }

    #[test]
    fn chain_is_acyclic() {
        let g = graph(&[(1, 2), (2, 3), (3, 4)]);
        assert!(g.find_cycle().is_none());
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = graph(&[(1, 1)]);
        let c = g.find_cycle().expect("self-loop");
        assert!(g.is_cycle(&c));
        assert_eq!(c, vec![1, 1]);
    }

    #[test]
    fn two_cycle_found() {
        let g = graph(&[(1, 2), (2, 1)]);
        let c = g.find_cycle().expect("2-cycle");
        assert!(g.is_cycle(&c));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn long_cycle_witness_is_a_real_cycle() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 9), (9, 10)]);
        let c = g.find_cycle().expect("5-cycle");
        assert!(g.is_cycle(&c), "witness {c:?} is not a cycle");
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn cycle_in_second_component() {
        let g = graph(&[(1, 2), (10, 11), (11, 12), (12, 10)]);
        let c = g.find_cycle().expect("cycle in later component");
        assert!(g.is_cycle(&c));
        assert!(c.contains(&10) && c.contains(&11) && c.contains(&12));
    }

    #[test]
    fn diamond_with_back_edge() {
        // 1→2→4, 1→3→4, 4→1: several cycles, witness must be valid.
        let g = graph(&[(1, 2), (2, 4), (1, 3), (3, 4), (4, 1)]);
        let c = g.find_cycle().expect("cycle");
        assert!(g.is_cycle(&c));
    }

    #[test]
    fn cross_edges_do_not_fake_cycles() {
        // DFS cross edges (4→2 after 2 is finished) must not be reported.
        let g = graph(&[(1, 2), (2, 3), (1, 4), (4, 2)]);
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn find_cycle_through_respects_the_node() {
        let g = graph(&[(1, 2), (2, 1), (3, 4), (4, 3)]);
        let c = g.find_cycle_through(3).expect("cycle through 3");
        assert!(g.is_cycle(&c));
        assert_eq!(c.first(), Some(&3));
        assert_eq!(c.last(), Some(&3));
        assert!(c.contains(&4));
        // Node 5 is not even in the graph.
        assert!(g.find_cycle_through(5).is_none());
    }

    #[test]
    fn find_cycle_through_negative_when_only_other_cycles_exist() {
        let g = graph(&[(1, 2), (2, 1), (3, 1)]);
        assert!(g.find_cycle_through(3).is_none(), "3 only reaches the 1-2 cycle");
    }

    #[test]
    fn find_cycle_through_self_loop() {
        let g = graph(&[(7, 7)]);
        assert_eq!(g.find_cycle_through(7), Some(vec![7, 7]));
    }

    #[test]
    fn reaches_and_walks() {
        let g = graph(&[(1, 2), (2, 3)]);
        assert!(g.reaches(1, 3));
        assert!(g.reaches(1, 2));
        assert!(!g.reaches(3, 1));
        // A node does not reach itself without a cycle.
        assert!(!g.reaches(1, 1));
        assert!(g.is_walk(&[1, 2, 3]));
        assert!(!g.is_walk(&[1, 3]));
        assert!(!g.is_walk(&[1])); // length must be > 1 (paper §4.2)
    }

    #[test]
    fn degrees() {
        let g = graph(&[(1, 2), (1, 3), (2, 3)]);
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(1), 0);
        assert_eq!(g.out_degree(99), 0);
    }

    #[test]
    fn sccs_partition_nodes() {
        let g = graph(&[(1, 2), (2, 1), (2, 3), (3, 4), (4, 3), (5, 5)]);
        let sccs = g.sccs();
        let total: usize = sccs.iter().map(|c| c.len()).sum();
        assert_eq!(total, g.node_count());
        let mut sizes: Vec<usize> = sccs.iter().map(|c| c.len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 2, 2]);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let g = graph(&[(1, 2), (1, 2), (1, 2)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.in_degree(2), 1);
    }

    #[test]
    fn path_from_sources_finds_witness() {
        let g = graph(&[(1, 2), (2, 3), (4, 5)]);
        let path = g.path_from_sources(&[1], |n| n == 3).expect("path to 3");
        assert_eq!(path, vec![1, 2, 3]);
        assert!(g.path_from_sources(&[4], |n| n == 3).is_none());
        // Source satisfying the target directly is a (length-1) witness.
        let path = g.path_from_sources(&[3], |n| n == 3).expect("trivial");
        assert_eq!(path, vec![3]);
    }

    #[test]
    fn large_path_graph_no_stack_overflow() {
        // 200k-node path + closing edge; recursion would overflow here.
        let n = 200_000u32;
        let mut g = DiGraph::with_capacity(n as usize);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(n - 1, 0);
        let c = g.find_cycle().expect("big cycle");
        assert_eq!(c.len() as u32, n + 1);
        assert!(g.is_cycle(&c));
        assert_eq!(g.sccs().len(), 1);
    }

    // -- TopoOrder (Pearce–Kelly order maintenance) -------------------------

    /// A `TopoOrder` fed the given edges, alongside the edge list for
    /// `validate`.
    fn order_of(edges: &[(u32, u32)]) -> (TopoOrder<u32>, Vec<(u32, u32)>) {
        let mut order = TopoOrder::new();
        for &(a, b) in edges {
            order.insert_edge(a, b);
        }
        (order, edges.to_vec())
    }

    #[cfg(not(feature = "verifier-mutation"))]
    #[test]
    fn order_agrees_with_has_cycle_on_the_digraph_cases() {
        let cases: Vec<(Vec<(u32, u32)>, bool)> = vec![
            (vec![], false),
            (vec![(1, 2), (2, 3), (3, 4)], false),
            (vec![(1, 1)], true),
            (vec![(1, 2), (2, 1)], true),
            (vec![(1, 2), (2, 3), (1, 4), (4, 2)], false),
            (vec![(1, 2), (10, 11), (11, 12), (12, 10)], true),
            (vec![(1, 2), (2, 4), (1, 3), (3, 4), (4, 1)], true),
            // Violation-then-reorder without a cycle: (4, 1) arrives with
            // both endpoints labelled the wrong way around.
            (vec![(1, 2), (3, 4), (4, 1)], false),
        ];
        for (edges, want) in cases {
            let (mut order, edges) = order_of(&edges);
            assert_eq!(order.has_cycle(), want, "{edges:?}");
            order.validate(&edges).unwrap_or_else(|e| panic!("{edges:?}: {e}"));
            assert_eq!(graph(&edges).has_cycle(), want, "oracle disagrees on {edges:?}");
        }
    }

    #[cfg(not(feature = "verifier-mutation"))]
    #[test]
    fn reorder_then_cycle_then_deletion_recovers() {
        // (4, 1) forces a Pearce–Kelly reorder; (2, 3) then closes the
        // cycle 1→2→3→4→1 and must be deferred, not committed.
        let (mut order, _) = order_of(&[(1, 2), (3, 4), (4, 1), (2, 3)]);
        assert_eq!(order.pending_edges(), 1);
        assert!(order.has_cycle());
        order.validate(&[(1, 2), (3, 4), (4, 1), (2, 3)]).unwrap();
        // Deleting any cycle edge makes the pending edge committable.
        order.remove_edge(4, 1);
        assert!(!order.has_cycle());
        order.validate(&[(1, 2), (3, 4), (2, 3)]).unwrap();
        assert_eq!(order.pending_edges(), 0);
    }

    #[test]
    fn self_loops_are_always_cyclic_until_removed() {
        let (mut order, _) = order_of(&[(7, 7)]);
        assert!(order.has_cycle());
        assert!(order.has_cycle(), "retries must keep the self-loop pending");
        order.remove_edge(7, 7);
        assert!(!order.has_cycle());
        assert!(order.is_empty());
    }

    /// The adjacency map of an edge list, as `TopoOrder::from_adjacency`
    /// takes it.
    fn adjacency(edges: &[(u32, u32)]) -> HashMap<u32, HashMap<u32, ()>> {
        let mut adj: HashMap<u32, HashMap<u32, ()>> = HashMap::new();
        for &(a, b) in edges {
            adj.entry(a).or_default().insert(b, ());
        }
        adj
    }

    #[cfg(not(feature = "verifier-mutation"))]
    #[test]
    fn bulk_build_defers_exactly_the_back_edges() {
        let cases: Vec<(Vec<(u32, u32)>, bool)> = vec![
            (vec![], false),
            (vec![(1, 2), (2, 3), (3, 4)], false),
            (vec![(1, 1)], true),
            (vec![(1, 2), (2, 3), (1, 4), (4, 2)], false),
            (vec![(1, 2), (10, 11), (11, 12), (12, 10)], true),
            (vec![(1, 2), (2, 4), (1, 3), (3, 4), (4, 1)], true),
        ];
        for (edges, want) in cases {
            let mut order = TopoOrder::from_adjacency(&adjacency(&edges));
            assert_eq!(order.pending_edges() > 0, want, "{edges:?}");
            order.validate(&edges).unwrap_or_else(|e| panic!("{edges:?}: {e}"));
            assert_eq!(order.has_cycle(), want, "{edges:?}");
        }
    }

    #[test]
    fn labels_drain_with_the_graph() {
        let edges = [(1u32, 2), (2, 3), (3, 1), (3, 4)];
        let (mut order, _) = order_of(&edges);
        assert!(order.has_cycle());
        for &(a, b) in &edges {
            order.remove_edge(a, b);
        }
        assert!(order.is_empty(), "no labels may leak after full drain");
        assert!(!order.has_cycle());
        // Reuse after drain behaves like a fresh order.
        order.insert_edge(1, 2);
        order.insert_edge(2, 3);
        order.insert_edge(3, 1);
        assert!(order.has_cycle());
    }
}

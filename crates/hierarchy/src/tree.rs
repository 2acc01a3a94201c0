use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::fx::FxBuildHasher;
use crate::path::CategoryPath;
use crate::traversal::{LevelOrder, RevLevelOrder, Subtree};

/// Identifier of a node in a [`Tree`].
///
/// Node ids are dense indices, so per-node side tables (weights, heavy
/// hitter flags, time series, …) can be plain vectors indexed by
/// [`NodeId::index`]. Ids are only meaningful for the tree that issued
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// The dense index of this node, suitable for vector side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("tree larger than u32::MAX nodes"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an interned label string in a [`Tree`].
///
/// Many nodes share the same label ("DSLAM-2" appears under every CO),
/// so labels are stored once and nodes refer to them by id. Resolving a
/// `&str` path against a warm tree therefore needs no allocation: each
/// segment maps to a `LabelId`, and the `(parent, label)` child lookup
/// is an integer-pair probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LabelId(u32);

impl LabelId {
    /// The dense index of this label in the tree's interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        LabelId(u32::try_from(index).expect("more than u32::MAX distinct labels"))
    }
}

#[derive(Debug, Clone)]
struct NodeData {
    label: LabelId,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    depth: usize,
}

/// An arena-allocated additive hierarchy.
///
/// The tree always has a root (depth 0). Nodes are created by
/// [`Tree::insert_path`] (or the allocation-free [`Tree::insert_str`])
/// and never removed; all structural queries are O(1). In the paper's
/// terminology this is the *classification tree* of Fig. 3(c): each
/// category of the operational data maps bijectively to a node of this
/// tree.
///
/// Internally, label strings are interned once as `Box<str>` and nodes
/// store [`LabelId`]s; the `(parent, label)` child index is keyed by
/// `(NodeId, LabelId)` under an Fx-style hasher (see [`crate::fx`]).
/// Resolving an existing path — the ingest hot path of the detector —
/// performs no heap allocation.
///
/// # Example
///
/// ```
/// use tiresias_hierarchy::Tree;
///
/// let mut t = Tree::new("SHO");
/// let co = t.insert_path(&["VHO-1", "IO-2", "CO-9"]);
/// assert_eq!(t.label(co), "CO-9");
/// assert_eq!(t.depth(co), 3);
/// assert_eq!(t.children(t.root()).len(), 1);
/// // The `/`-separated fast path resolves the same node, allocation-free.
/// assert_eq!(t.resolve_str("VHO-1/IO-2/CO-9"), Some(co));
/// ```
///
/// Serialisation uses a compact representation holding only the node
/// arena (label text + parent id per node); the interner, child index
/// and level grouping are rebuilt on deserialisation (they are pure
/// functions of the arena), keeping the format free of non-string map
/// keys so JSON works. Malformed input (no root, dangling or
/// out-of-order parent ids) is rejected as a deserialisation error.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "TreeRepr", into = "TreeRepr")]
pub struct Tree {
    nodes: Vec<NodeData>,
    /// Interned label text, indexed by [`LabelId::index`].
    labels: Vec<Box<str>>,
    /// label text → id for zero-allocation `&str` lookups.
    label_ids: HashMap<Box<str>, LabelId, FxBuildHasher>,
    /// (parent, label) → child lookup for path resolution.
    child_index: HashMap<(NodeId, LabelId), NodeId, FxBuildHasher>,
    /// Full-path memo for [`Tree::insert_str`]: collapses a warm
    /// resolve to a single hash probe. Keys are the literal spellings
    /// seen (so `"a/b"` and `"a//b"` are distinct entries for the same
    /// node); entries are never invalidated because nodes are never
    /// removed or renamed. Rebuilt lazily after deserialisation.
    path_memo: HashMap<Box<str>, NodeId, FxBuildHasher>,
    /// Node ids grouped by depth; `by_depth[0] == [root]`.
    by_depth: Vec<Vec<NodeId>>,
}

/// One node of the serialised arena: label text plus parent id.
/// Children lists, depths, the interner and the child index are all
/// derivable, so they are not stored.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ReprNode {
    label: String,
    parent: Option<NodeId>,
}

/// One node of an extracted top-level subtree (see
/// [`Tree::extract_top_subtrees`]), in source-arena order.
#[derive(Debug, Clone)]
pub struct MovedNode {
    /// The node's id in the source tree *before* extraction — the index
    /// for gathering per-node side-table state that moves with it.
    pub old_id: NodeId,
    /// The node's label text.
    pub label: String,
    /// Index into the moved list of this node's parent; `None` for a
    /// depth-1 subtree root, which re-parents onto the adopting tree's
    /// root.
    pub parent: Option<usize>,
}

/// The outcome of [`Tree::extract_top_subtrees`]: which nodes left, and
/// where every surviving node's id moved during compaction.
#[derive(Debug, Clone, Default)]
pub struct TreeSurgery {
    /// Extracted nodes in source-arena order (parents precede
    /// children), ready for [`Tree::adopt_top_subtrees`].
    pub moved: Vec<MovedNode>,
    /// Old arena index → compacted id for surviving nodes (`None` for
    /// moved nodes). Identity when nothing was selected.
    pub old_to_new: Vec<Option<NodeId>>,
}

impl TreeSurgery {
    /// `true` iff the selection matched nothing (the tree is untouched
    /// and `old_to_new` is the identity).
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty()
    }
}

/// Serialised form of a [`Tree`]: the node arena only.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TreeRepr {
    nodes: Vec<ReprNode>,
}

impl From<Tree> for TreeRepr {
    fn from(t: Tree) -> Self {
        TreeRepr {
            nodes: t
                .nodes
                .iter()
                .map(|n| ReprNode {
                    label: t.labels[n.label.index()].to_string(),
                    parent: n.parent,
                })
                .collect(),
        }
    }
}

impl TryFrom<TreeRepr> for Tree {
    type Error = String;

    fn try_from(r: TreeRepr) -> Result<Self, String> {
        let mut nodes = r.nodes.into_iter();
        let Some(root) = nodes.next() else {
            return Err("serialised tree has no root node".to_string());
        };
        let mut t = Tree::new(root.label);
        // Arena order puts parents before children, so a single pass
        // rebuilds every derived structure — enforced here so corrupt
        // input surfaces as an error instead of a panic.
        for (offset, n) in nodes.enumerate() {
            let index = offset + 1;
            let Some(parent) = n.parent else {
                return Err(format!("serialised node {index} has no parent"));
            };
            if parent.index() >= t.len() {
                return Err(format!(
                    "serialised node {index} names parent {} outside the preceding arena",
                    parent.index()
                ));
            }
            let id = t.insert_child(parent, &n.label);
            if id.index() != index {
                return Err(format!(
                    "serialised node {index} duplicates sibling label `{}` under parent {}",
                    n.label,
                    parent.index()
                ));
            }
        }
        Ok(t)
    }
}

impl Tree {
    /// Creates a tree containing only a root with the given label.
    pub fn new(root_label: impl Into<String>) -> Self {
        let root_label: Box<str> = root_label.into().into_boxed_str();
        let mut label_ids: HashMap<Box<str>, LabelId, FxBuildHasher> = HashMap::default();
        label_ids.insert(root_label.clone(), LabelId(0));
        Tree {
            nodes: vec![NodeData {
                label: LabelId(0),
                parent: None,
                children: Vec::new(),
                depth: 0,
            }],
            labels: vec![root_label],
            label_ids,
            child_index: HashMap::default(),
            path_memo: HashMap::default(),
            by_depth: vec![vec![NodeId(0)]],
        }
    }

    /// The root node (depth 0).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes, including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the tree contains only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The deepest level present; 0 for a root-only tree.
    pub fn max_depth(&self) -> usize {
        self.by_depth.len() - 1
    }

    /// Number of distinct interned labels (including the root's).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The id of an already-interned label, without allocating.
    pub fn label_id(&self, label: &str) -> Option<LabelId> {
        self.label_ids.get(label).copied()
    }

    /// The text of an interned label.
    pub fn label_text(&self, id: LabelId) -> &str {
        &self.labels[id.index()]
    }

    /// Interns a label, allocating only on first sighting.
    fn intern(&mut self, label: &str) -> LabelId {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = LabelId::from_index(self.labels.len());
        let boxed: Box<str> = label.into();
        self.labels.push(boxed.clone());
        self.label_ids.insert(boxed, id);
        id
    }

    /// Appends a new node under `parent` with interned label `lid`.
    fn add_node(&mut self, parent: NodeId, lid: LabelId) -> NodeId {
        let depth = self.nodes[parent.index()].depth + 1;
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeData { label: lid, parent: Some(parent), children: Vec::new(), depth });
        self.nodes[parent.index()].children.push(id);
        self.child_index.insert((parent, lid), id);
        if self.by_depth.len() <= depth {
            self.by_depth.push(Vec::new());
        }
        self.by_depth[depth].push(id);
        id
    }

    /// Inserts (or finds) the node named by `path`, creating all missing
    /// intermediate nodes, and returns its id.
    pub fn insert_path<S: AsRef<str>>(&mut self, path: &[S]) -> NodeId {
        let mut cur = self.root();
        for label in path {
            cur = self.insert_child(cur, label.as_ref());
        }
        cur
    }

    /// Inserts (or finds) the node named by a [`CategoryPath`].
    pub fn insert_category(&mut self, path: &CategoryPath) -> NodeId {
        let mut cur = self.root();
        for label in path.iter() {
            cur = self.insert_child(cur, label);
        }
        cur
    }

    /// Whether the full-path memo may take one more entry. Spellings
    /// are memoised only up to a multiple of the node count, so a feed
    /// that decorates paths with ever-new spellings ("a/b", "a//b",
    /// "a/b/", …) cannot grow memory beyond O(tree): past the cap new
    /// spellings just take the per-segment walk.
    fn memo_has_room(&self) -> bool {
        self.path_memo.len() < self.nodes.len().saturating_mul(4).max(1024)
    }

    /// Inserts (or finds) the node named by a `/`-separated path,
    /// skipping empty segments exactly like [`CategoryPath`] parsing —
    /// the zero-allocation ingest fast path.
    ///
    /// A path spelling seen before costs a single hash probe (the
    /// full-path memo); a new spelling walks the per-segment interner
    /// and child index, then memoises (bounded — see
    /// `Tree::memo_has_room`). Only a never-before-seen spelling
    /// allocates (its memo key).
    ///
    /// Like the rest of the tree's indexes, the memo hashes with the
    /// non-DoS-resistant Fx hasher; feeds of fully adversarial
    /// category strings should be sanitised upstream.
    pub fn insert_str(&mut self, path: &str) -> NodeId {
        if let Some(&id) = self.path_memo.get(path) {
            return id;
        }
        let mut cur = self.root();
        for label in path.split('/') {
            if label.is_empty() {
                continue;
            }
            cur = self.insert_child(cur, label);
        }
        if self.memo_has_room() {
            self.path_memo.insert(path.into(), cur);
        }
        cur
    }

    /// Resolves a `/`-separated path to a node id without creating
    /// nodes and without allocating. Empty segments are skipped, so
    /// `"a//b/"` resolves like `"a/b"`. Spellings already memoised by
    /// [`Tree::insert_str`] resolve with a single hash probe.
    pub fn resolve_str(&self, path: &str) -> Option<NodeId> {
        if let Some(&id) = self.path_memo.get(path) {
            return Some(id);
        }
        let mut cur = self.root();
        for label in path.split('/') {
            if label.is_empty() {
                continue;
            }
            let lid = self.label_id(label)?;
            cur = *self.child_index.get(&(cur, lid))?;
        }
        Some(cur)
    }

    /// Inserts (or finds) a direct child of `parent` with the given label.
    pub fn insert_child(&mut self, parent: NodeId, label: &str) -> NodeId {
        if let Some(lid) = self.label_id(label) {
            // Hit path: no allocation.
            if let Some(&c) = self.child_index.get(&(parent, lid)) {
                return c;
            }
            return self.add_node(parent, lid);
        }
        let lid = self.intern(label);
        self.add_node(parent, lid)
    }

    /// Resolves a path to a node id without creating nodes.
    pub fn find<S: AsRef<str>>(&self, path: &[S]) -> Option<NodeId> {
        let mut cur = self.root();
        for label in path {
            let lid = self.label_id(label.as_ref())?;
            cur = *self.child_index.get(&(cur, lid))?;
        }
        Some(cur)
    }

    /// Resolves a [`CategoryPath`] to a node id without creating nodes.
    pub fn find_category(&self, path: &CategoryPath) -> Option<NodeId> {
        self.find(path.labels())
    }

    /// The label of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different tree and is out of range.
    pub fn label(&self, id: NodeId) -> &str {
        &self.labels[self.nodes[id.index()].label.index()]
    }

    /// The parent of a node, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The children of a node, in insertion order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// The depth of a node; the root has depth 0.
    pub fn depth(&self, id: NodeId) -> usize {
        self.nodes[id.index()].depth
    }

    /// `true` iff the node has no children.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id.index()].children.is_empty()
    }

    /// All node ids at the given depth (level); empty if deeper than the
    /// tree.
    pub fn nodes_at_depth(&self, depth: usize) -> &[NodeId] {
        self.by_depth.get(depth).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Reconstructs the [`CategoryPath`] of a node (root → empty path).
    pub fn path_of(&self, id: NodeId) -> CategoryPath {
        let mut labels = Vec::with_capacity(self.depth(id));
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            labels.push(self.label(cur).to_string());
            cur = p;
        }
        labels.reverse();
        CategoryPath::new(labels)
    }

    /// `true` iff `a` equals `b` or is an ancestor of `b`.
    pub fn is_ancestor_or_equal(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = Some(b);
        while let Some(n) = cur {
            if n == a {
                return true;
            }
            cur = self.parent(n);
        }
        false
    }

    /// Iterates over all node ids in **top-down level order** (root first,
    /// then depth 1 left-to-right, …).
    pub fn level_order(&self) -> LevelOrder<'_> {
        LevelOrder::new(&self.by_depth)
    }

    /// Iterates over all node ids in **bottom-up level order** (deepest
    /// level first, root last). This is the traversal order of the paper's
    /// `Update-Ishh-and-Weight` post-pass and `MERGE` sweep.
    pub fn rev_level_order(&self) -> RevLevelOrder<'_> {
        RevLevelOrder::new(&self.by_depth)
    }

    /// Iterates over the subtree rooted at `id` (including `id` itself) in
    /// depth-first pre-order.
    pub fn subtree(&self, id: NodeId) -> Subtree<'_> {
        Subtree::new(self, id)
    }

    /// Iterates over all node ids in arena (creation) order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.iter().filter(|&n| self.is_leaf(n)).count()
    }

    /// Removes every depth-1 subtree whose root label satisfies
    /// `select`, compacting the arena, and returns the extracted nodes
    /// plus the old→new id map for the survivors.
    ///
    /// This is the structural half of moving a top-level subtree
    /// between shard detectors: the caller gathers per-node side-table
    /// state at the returned `old_id`s, remaps its surviving state
    /// through `old_to_new`, and feeds the moved nodes to
    /// [`Tree::adopt_top_subtrees`] on the receiving tree.
    ///
    /// Compaction preserves the arena (insertion) order of surviving
    /// nodes — and therefore every traversal order — exactly as if the
    /// moved subtrees had never been inserted. Interned labels are kept
    /// even when their last node leaves (harmless: the serialised form
    /// stores only the node arena, and ids of surviving labels are
    /// unaffected by unused entries). The path memo is invalidated and
    /// rebuilt lazily, like after deserialisation.
    pub fn extract_top_subtrees(&mut self, mut select: impl FnMut(&str) -> bool) -> TreeSurgery {
        let selected: Vec<NodeId> =
            self.children(self.root()).iter().copied().filter(|&c| select(self.label(c))).collect();
        if selected.is_empty() {
            return TreeSurgery {
                moved: Vec::new(),
                old_to_new: (0..self.len()).map(|i| Some(NodeId::from_index(i))).collect(),
            };
        }
        // Classify every node in arena order: a node moves iff its
        // parent moves (seeded by the selected depth-1 roots).
        let mut moved: Vec<MovedNode> = Vec::new();
        let mut moved_slot: Vec<Option<usize>> = vec![None; self.len()];
        let mut survivors: Vec<NodeId> = Vec::new();
        for i in 1..self.len() {
            let id = NodeId::from_index(i);
            let parent = self.nodes[i].parent.expect("non-root node has a parent");
            let parent_slot = moved_slot[parent.index()];
            if parent_slot.is_some() || selected.contains(&id) {
                moved_slot[i] = Some(moved.len());
                moved.push(MovedNode {
                    old_id: id,
                    label: self.label(id).to_string(),
                    parent: parent_slot,
                });
            } else {
                survivors.push(id);
            }
        }
        // Rebuild the arena from the survivors, preserving their order
        // (and hence by-depth grouping and every traversal order).
        let mut compact = Tree::new(self.label(self.root()).to_string());
        let mut old_to_new: Vec<Option<NodeId>> = vec![None; self.len()];
        old_to_new[0] = Some(compact.root());
        for id in survivors {
            let parent = self.nodes[id.index()].parent.expect("non-root node has a parent");
            let new_parent = old_to_new[parent.index()].expect("parents precede children");
            old_to_new[id.index()] = Some(compact.insert_child(new_parent, self.label(id)));
        }
        *self = compact;
        TreeSurgery { moved, old_to_new }
    }

    /// Grafts subtrees extracted by [`Tree::extract_top_subtrees`]
    /// under this tree's root, returning the new id of each moved node
    /// (aligned with `moved`). Nodes append to the arena in their
    /// original relative order, so within-subtree traversal order is
    /// preserved.
    ///
    /// # Panics
    ///
    /// Panics if a moved depth-1 label already exists under this root —
    /// adopting a subtree the tree already has would silently merge two
    /// detectors' state.
    pub fn adopt_top_subtrees(&mut self, moved: &[MovedNode]) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = Vec::with_capacity(moved.len());
        for m in moved {
            let parent = match m.parent {
                Some(slot) => ids[slot],
                None => self.root(),
            };
            let expect = self.len();
            let id = self.insert_child(parent, &m.label);
            assert_eq!(
                id.index(),
                expect,
                "adopted subtree node `{}` already present under its parent",
                m.label
            );
            ids.push(id);
        }
        ids
    }

    /// Mean fan-out of the internal nodes at `depth` (the paper's "typical
    /// degree at the k-th level", Table II). `None` if the level has no
    /// internal nodes.
    pub fn typical_degree(&self, depth: usize) -> Option<f64> {
        let nodes = self.nodes_at_depth(depth);
        let internal: Vec<_> = nodes.iter().filter(|&&n| !self.is_leaf(n)).collect();
        if internal.is_empty() {
            return None;
        }
        let total: usize = internal.iter().map(|&&n| self.children(n).len()).sum();
        Some(total as f64 / internal.len() as f64)
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Tree({} nodes, depth {}, {} leaves)",
            self.len(),
            self.max_depth(),
            self.leaf_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        let mut t = Tree::new("All");
        t.insert_path(&["TV", "No Service", "No Pic"]);
        t.insert_path(&["TV", "No Service", "No Sound"]);
        t.insert_path(&["TV", "Pixelation"]);
        t.insert_path(&["Internet", "Slow"]);
        t
    }

    #[test]
    fn insert_is_idempotent() {
        let mut t = Tree::new("All");
        let a = t.insert_path(&["x", "y"]);
        let b = t.insert_path(&["x", "y"]);
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn structure_queries() {
        let t = sample();
        let tv = t.find(&["TV"]).unwrap();
        assert_eq!(t.depth(tv), 1);
        assert_eq!(t.children(tv).len(), 2);
        assert!(!t.is_leaf(tv));
        let pix = t.find(&["TV", "Pixelation"]).unwrap();
        assert!(t.is_leaf(pix));
        assert_eq!(t.parent(pix), Some(tv));
        assert_eq!(t.parent(t.root()), None);
    }

    #[test]
    fn find_missing_returns_none() {
        let t = sample();
        assert!(t.find(&["TV", "Nope"]).is_none());
        assert!(t.find(&["Phone"]).is_none());
    }

    #[test]
    fn path_round_trip() {
        let mut t = Tree::new("All");
        let p: CategoryPath = "a/b/c".parse().unwrap();
        let id = t.insert_category(&p);
        assert_eq!(t.path_of(id), p);
        assert_eq!(t.find_category(&p), Some(id));
        assert_eq!(t.path_of(t.root()), CategoryPath::root());
    }

    #[test]
    fn str_fast_paths_agree_with_path_apis() {
        let mut t = sample();
        let a = t.insert_str("TV/No Service/No Pic");
        assert_eq!(t.find(&["TV", "No Service", "No Pic"]), Some(a));
        assert_eq!(t.resolve_str("TV/No Service/No Pic"), Some(a));
        // Empty segments are skipped like CategoryPath parsing.
        assert_eq!(t.insert_str("/TV//Pixelation/"), t.find(&["TV", "Pixelation"]).unwrap());
        assert_eq!(t.resolve_str("//"), Some(t.root()));
        assert_eq!(t.resolve_str("TV/Missing"), None);
        // New nodes via the fast path are indistinguishable.
        let len_before = t.len();
        let b = t.insert_str("Phone/Dead Line");
        assert_eq!(t.len(), len_before + 2);
        assert_eq!(t.path_of(b).to_string(), "Phone/Dead Line");
        assert_eq!(t.resolve_str("Phone/Dead Line"), Some(b));
    }

    #[test]
    fn path_memo_growth_is_bounded_by_tree_size() {
        let mut t = Tree::new("root");
        let leaf = t.insert_path(&["a", "b"]);
        // Endless distinct spellings of the same node must not grow
        // memory without bound: past the cap they still resolve
        // correctly via the segment walk.
        for i in 0..10_000 {
            let spelling = format!("a{}b", "/".repeat(i + 1));
            assert_eq!(t.insert_str(&spelling), leaf, "spelling {i}");
        }
        assert!(t.path_memo.len() <= t.len() * 4 + 1024);
        assert_eq!(t.len(), 3, "no phantom nodes created");
    }

    #[test]
    fn labels_are_interned_once() {
        let mut t = Tree::new("root");
        // The same leaf label under many parents shares one LabelId.
        for i in 0..50 {
            t.insert_path(&[format!("co-{i}"), "dslam".to_string()]);
        }
        assert_eq!(t.len(), 101);
        // root + 50 COs + 1 shared "dslam".
        assert_eq!(t.label_count(), 52);
        let lid = t.label_id("dslam").unwrap();
        assert_eq!(t.label_text(lid), "dslam");
    }

    #[test]
    fn level_order_visits_every_node_once_by_depth() {
        let t = sample();
        let order: Vec<_> = t.level_order().collect();
        assert_eq!(order.len(), t.len());
        for w in order.windows(2) {
            assert!(t.depth(w[0]) <= t.depth(w[1]));
        }
        let rev: Vec<_> = t.rev_level_order().collect();
        assert_eq!(rev.len(), t.len());
        for w in rev.windows(2) {
            assert!(t.depth(w[0]) >= t.depth(w[1]));
        }
        assert_eq!(rev.last(), Some(&t.root()));
    }

    #[test]
    fn subtree_iterates_descendants() {
        let t = sample();
        let tv = t.find(&["TV"]).unwrap();
        let sub: Vec<_> = t.subtree(tv).collect();
        // TV, No Service, No Pic, No Sound, Pixelation
        assert_eq!(sub.len(), 5);
        assert_eq!(sub[0], tv);
        for n in &sub[1..] {
            assert!(t.is_ancestor_or_equal(tv, *n));
        }
    }

    #[test]
    fn ancestor_relation() {
        let t = sample();
        let tv = t.find(&["TV"]).unwrap();
        let pic = t.find(&["TV", "No Service", "No Pic"]).unwrap();
        let net = t.find(&["Internet"]).unwrap();
        assert!(t.is_ancestor_or_equal(t.root(), pic));
        assert!(t.is_ancestor_or_equal(tv, pic));
        assert!(t.is_ancestor_or_equal(pic, pic));
        assert!(!t.is_ancestor_or_equal(pic, tv));
        assert!(!t.is_ancestor_or_equal(net, pic));
    }

    #[test]
    fn typical_degree_matches_fanout() {
        let t = sample();
        // root has 2 children (TV, Internet)
        assert_eq!(t.typical_degree(0), Some(2.0));
        // depth-1 internal nodes: TV (2 children), Internet (1 child)
        assert_eq!(t.typical_degree(1), Some(1.5));
        // deepest level has no internal nodes
        assert_eq!(t.typical_degree(3), None);
    }

    #[test]
    fn nodes_at_depth_groups_levels() {
        let t = sample();
        assert_eq!(t.nodes_at_depth(0), &[t.root()]);
        assert_eq!(t.nodes_at_depth(1).len(), 2);
        assert_eq!(t.nodes_at_depth(99), &[] as &[NodeId]);
    }

    #[test]
    fn serde_round_trip_rebuilds_indexes() {
        let t = sample();
        let json = serde_json::to_string(&t).expect("serialises");
        let r: Tree = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(r.len(), t.len());
        assert_eq!(r.max_depth(), t.max_depth());
        // The rebuilt index resolves paths and the level grouping holds.
        let pix = r.find(&["TV", "Pixelation"]).unwrap();
        assert_eq!(r.label(pix), "Pixelation");
        assert_eq!(r.nodes_at_depth(1).len(), t.nodes_at_depth(1).len());
        // Node and label ids are preserved exactly.
        for n in t.iter() {
            assert_eq!(t.label(n), r.label(n));
            assert_eq!(t.parent(n), r.parent(n));
        }
        assert_eq!(r.label_count(), t.label_count());
    }

    #[test]
    fn malformed_serialised_trees_error_instead_of_panicking() {
        // No root.
        let err = serde_json::from_str::<Tree>(r#"{"nodes":[]}"#).unwrap_err();
        assert!(err.to_string().contains("no root"), "{err}");
        // Non-root node without a parent.
        let err = serde_json::from_str::<Tree>(
            r#"{"nodes":[{"label":"r","parent":null},{"label":"a","parent":null}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no parent"), "{err}");
        // Parent id pointing past the preceding arena (corrupt order).
        let err = serde_json::from_str::<Tree>(
            r#"{"nodes":[{"label":"r","parent":null},{"label":"a","parent":7}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("outside the preceding arena"), "{err}");
        // Duplicate sibling labels cannot round-trip to distinct nodes.
        let err = serde_json::from_str::<Tree>(
            r#"{"nodes":[{"label":"r","parent":null},{"label":"a","parent":0},{"label":"a","parent":0}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicates sibling label"), "{err}");
    }

    #[test]
    fn leaf_count() {
        let t = sample();
        // No Pic, No Sound, Pixelation, Slow
        assert_eq!(t.leaf_count(), 4);
    }

    #[test]
    fn extract_preserves_survivor_order_and_adopt_preserves_subtree_order() {
        let mut t = sample();
        let surgery = t.extract_top_subtrees(|label| label == "TV");
        // TV, No Service, No Pic, No Sound, Pixelation left.
        assert_eq!(surgery.moved.len(), 5);
        assert_eq!(surgery.moved[0].label, "TV");
        assert_eq!(surgery.moved[0].parent, None);
        assert_eq!(t.len(), 3, "root, Internet, Slow survive");
        // The compacted tree equals one that never saw TV.
        let mut fresh = Tree::new("All");
        fresh.insert_path(&["Internet", "Slow"]);
        for (a, b) in t.iter().zip(fresh.iter()) {
            assert_eq!(t.label(a), fresh.label(b));
            assert_eq!(t.parent(a), fresh.parent(b));
        }
        // Survivor remap points at the compacted ids; moved slots are None.
        let internet_old = surgery
            .old_to_new
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.map(|new| (i, new)))
            .count();
        assert_eq!(internet_old, 3);
        // Adoption appends the subtree in original relative order.
        let mut target = Tree::new("All");
        target.insert_path(&["Phone", "Dead"]);
        let ids = target.adopt_top_subtrees(&surgery.moved);
        assert_eq!(ids.len(), 5);
        let tv = target.find(&["TV"]).unwrap();
        assert_eq!(ids[0], tv);
        assert_eq!(target.find(&["TV", "No Service", "No Pic"]), Some(ids[2]));
        assert_eq!(target.depth(ids[2]), 3);
        // A fresh interleaved build has the same per-subtree structure.
        assert_eq!(target.subtree(tv).count(), 5);
        // The memo was invalidated: stale spellings resolve correctly.
        assert_eq!(t.resolve_str("Internet/Slow"), t.find(&["Internet", "Slow"]));
        assert_eq!(t.resolve_str("TV/Pixelation"), None);
    }

    #[test]
    fn extract_with_no_match_is_identity() {
        let mut t = sample();
        let before: Vec<_> = t.iter().map(|n| t.label(n).to_string()).collect();
        let surgery = t.extract_top_subtrees(|_| false);
        assert!(surgery.is_empty());
        assert_eq!(surgery.old_to_new.len(), t.len());
        for (i, slot) in surgery.old_to_new.iter().enumerate() {
            assert_eq!(slot.map(NodeId::index), Some(i));
        }
        let after: Vec<_> = t.iter().map(|n| t.label(n).to_string()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn extract_shared_labels_survive_for_other_subtrees() {
        let mut t = Tree::new("root");
        t.insert_path(&["a", "shared"]);
        t.insert_path(&["b", "shared"]);
        let surgery = t.extract_top_subtrees(|l| l == "a");
        assert_eq!(surgery.moved.len(), 2);
        assert!(t.find(&["b", "shared"]).is_some());
        assert!(t.find(&["a"]).is_none());
        // Round trip: move it back and the structure is whole again.
        let ids = t.adopt_top_subtrees(&surgery.moved);
        assert_eq!(t.label(ids[1]), "shared");
        assert_eq!(t.find(&["a", "shared"]), Some(ids[1]));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn adopting_an_existing_top_label_panics() {
        let mut src = Tree::new("root");
        src.insert_path(&["a", "x"]);
        let surgery = src.extract_top_subtrees(|l| l == "a");
        let mut dst = Tree::new("root");
        dst.insert_path(&["a", "y"]);
        dst.adopt_top_subtrees(&surgery.moved);
    }
}
